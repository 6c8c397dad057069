#include "raft/storage.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"

namespace p2pfl::raft {
namespace {

// WAL record types (first payload byte).
constexpr std::uint8_t kTermVote = 1;
constexpr std::uint8_t kEntryRec = 2;
constexpr std::uint8_t kTruncateRec = 3;
constexpr std::uint8_t kSnapshotMark = 4;

/// Records larger than this are treated as corruption during recovery.
constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

/// One record payload: its type byte, then `fields` by the wire layout
/// rules of common/serialize.hpp (an entry record is index + LogEntry).
template <typename... Ts>
Bytes record(std::uint8_t type, const Ts&... fields) {
  ByteWriter w;
  w(type, fields...);
  return w.take();
}

/// Frame: [u32 LE len][u32 LE crc32(payload)][payload].
void append_framed(Bytes& out, const Bytes& payload) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32(payload.data(), payload.size()));
  Bytes hdr = w.take();
  out.insert(out.end(), hdr.begin(), hdr.end());
  out.insert(out.end(), payload.begin(), payload.end());
}

std::uint32_t read_u32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void write_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      P2PFL_CHECK_MSG(false, "raft WAL write failed");
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

bool read_file(const std::string& path, Bytes& out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  out.clear();
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (r == 0) break;
    out.insert(out.end(), buf, buf + r);
  }
  ::close(fd);
  return true;
}

/// tmp + fsync + rename: the target is either the old file or the new
/// one, never a torn hybrid.
void atomic_write(const std::string& path, const Bytes& data) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  P2PFL_CHECK_MSG(fd >= 0, "raft WAL tmp open failed");
  write_all(fd, data.data(), data.size());
  ::fsync(fd);
  ::close(fd);
  P2PFL_CHECK_MSG(::rename(tmp.c_str(), path.c_str()) == 0,
                  "raft WAL rename failed");
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

WalStorage::WalStorage(std::string prefix) : prefix_(std::move(prefix)) {}

WalStorage::~WalStorage() { close_fd(); }

bool WalStorage::exists(const std::string& prefix) {
  return ::access((prefix + ".wal").c_str(), F_OK) == 0;
}

void WalStorage::close_fd() {
  if (fd_ >= 0) {
    if (dirty_) ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
    dirty_ = false;
  }
}

void WalStorage::open_wal_for_append() {
  close_fd();
  fd_ = ::open(wal_path().c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  P2PFL_CHECK_MSG(fd_ >= 0, "raft WAL open failed");
}

PersistentState WalStorage::load() {
  const auto t0 = std::chrono::steady_clock::now();
  close_fd();
  recovery_ = RecoveryInfo{};
  PersistentState st;

  // Latest durable snapshot, if any. A bad CRC means the file is trash
  // (atomic replace should prevent this); ignore it.
  Index file_snap_index = 0;
  Term file_snap_term = 0;
  std::vector<PeerId> file_members;
  Bytes file_app;
  bool have_snap_file = false;
  {
    Bytes raw;
    if (read_file(snap_path(), raw) && raw.size() >= 8) {
      const std::uint32_t len = read_u32_le(raw.data());
      const std::uint32_t crc = read_u32_le(raw.data() + 4);
      if (len <= kMaxRecordBytes && 8 + len <= raw.size() &&
          crc32(raw.data() + 8, len) == crc) {
        const Bytes payload(raw.begin() + 8, raw.begin() + 8 + len);
        ByteReader r(payload);
        r(file_snap_index, file_snap_term, file_members, file_app);
        have_snap_file = r.complete();
      }
    }
  }

  // Sequential WAL scan. The first invalid record (short header, bogus
  // length, CRC mismatch, or undecodable payload) ends the scan; the
  // file is truncated at the last good offset.
  Bytes wal;
  const bool had_wal = read_file(wal_path(), wal);
  std::size_t off = 0;
  bool bad_tail = false;
  while (off + 8 <= wal.size()) {
    const std::uint32_t len = read_u32_le(wal.data() + off);
    const std::uint32_t crc = read_u32_le(wal.data() + off + 4);
    if (len > kMaxRecordBytes || off + 8 + len > wal.size() ||
        crc32(wal.data() + off + 8, len) != crc) {
      bad_tail = true;
      break;
    }
    const Bytes rec_payload(wal.begin() + static_cast<long>(off) + 8,
                            wal.begin() + static_cast<long>(off) + 8 + len);
    ByteReader r(rec_payload);
    const std::uint8_t type = r.u8();
    bool ok = true;
    switch (type) {
      case kTermVote: {
        const Term term = r.u64();
        const PeerId vote = r.u32();
        if ((ok = r.complete())) {
          st.term = term;
          st.voted_for = vote;
        }
        break;
      }
      case kEntryRec: {
        Index idx = 0;
        LogEntry e;
        r(idx, e);
        if ((ok = r.complete())) {
          const Index last = st.snap_index + st.entries.size();
          if (idx <= st.snap_index || idx > last + 1) {
            ok = false;  // stale or gapped index: corruption
          } else {
            if (idx <= last) st.entries.resize(idx - st.snap_index - 1);
            st.entries.push_back(std::move(e));
          }
        }
        break;
      }
      case kTruncateRec: {
        const Index from = r.u64();
        if ((ok = r.complete()) && from > st.snap_index) {
          const Index last = st.snap_index + st.entries.size();
          if (from <= last) st.entries.resize(from - st.snap_index - 1);
        }
        break;
      }
      case kSnapshotMark: {
        const Index idx = r.u64();
        const Term term = r.u64();
        if ((ok = r.complete())) {
          const Index last = st.snap_index + st.entries.size();
          if (idx >= last) {
            st.entries.clear();
          } else if (idx > st.snap_index) {
            st.entries.erase(st.entries.begin(),
                             st.entries.begin() +
                                 static_cast<long>(idx - st.snap_index));
          }
          st.snap_index = idx;
          st.snap_term = term;
        }
        break;
      }
      default:
        ok = false;
        break;
    }
    if (!ok) {
      bad_tail = true;
      break;
    }
    ++recovery_.records;
    off += 8 + len;
  }
  if (off + 8 > wal.size() && off < wal.size()) bad_tail = true;

  if (bad_tail || off < wal.size()) {
    recovery_.truncated_tail = true;
    recovery_.bytes_discarded = wal.size() - off;
    const int fd = ::open(wal_path().c_str(), O_WRONLY);
    if (fd >= 0) {
      P2PFL_CHECK_MSG(::ftruncate(fd, static_cast<off_t>(off)) == 0,
                      "raft WAL truncate failed");
      ::fsync(fd);
      ::close(fd);
    }
  }

  // Reconcile with the snapshot file. A snapshot newer than the WAL's
  // mark is the crash window between snapshot rename and WAL rewrite:
  // the snapshot is complete, adopt it.
  if (have_snap_file && file_snap_index >= st.snap_index) {
    const Index last = st.snap_index + st.entries.size();
    if (file_snap_index >= last) {
      st.entries.clear();
    } else if (file_snap_index > st.snap_index) {
      st.entries.erase(st.entries.begin(),
                       st.entries.begin() +
                           static_cast<long>(file_snap_index - st.snap_index));
    }
    st.snap_index = file_snap_index;
    st.snap_term = file_snap_term;
    st.snap_members = file_members;
    st.snap_app_state = file_app;
    recovery_.snapshot_loaded = true;
  } else if (st.snap_index > 0) {
    // The WAL references a snapshot we cannot reconstruct (missing or
    // older .snap). State below the boundary is gone — the only safe
    // answer is a fresh start; the membership layer treats it as an
    // amnesia restart and rejoins with state transfer.
    P2PFL_WARN() << "raft WAL " << wal_path() << " references snapshot index "
                 << st.snap_index
                 << " but no matching .snap exists; discarding state";
    st = PersistentState{};
    ::unlink(wal_path().c_str());
    ::unlink(snap_path().c_str());
    recovery_.records = 0;
  }

  st.has_state =
      (had_wal && recovery_.records > 0) || recovery_.snapshot_loaded;
  recovery_.recovered = st.has_state;
  open_wal_for_append();
  recovery_.duration_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  return st;
}

void WalStorage::append_record(const Bytes& payload) {
  P2PFL_CHECK_MSG(fd_ >= 0, "WalStorage::load() must run before mutations");
  Bytes framed;
  append_framed(framed, payload);
  write_all(fd_, framed.data(), framed.size());
  dirty_ = true;
}

void WalStorage::persist_term_vote(Term term, PeerId voted_for) {
  append_record(record(kTermVote, term, voted_for));
}

void WalStorage::append_entry(Index index, const LogEntry& entry) {
  append_record(record(kEntryRec, index, entry));
}

void WalStorage::truncate_from(Index index) {
  append_record(record(kTruncateRec, index));
}

void WalStorage::save_snapshot(Index index, Term term,
                               const std::vector<PeerId>& members,
                               const Bytes& app_state, Term current_term,
                               PeerId voted_for,
                               const std::vector<LogEntry>& tail) {
  // 1. Durable snapshot content first: once the .snap rename lands, a
  //    crash before the WAL rewrite still recovers (load() adopts the
  //    newer snapshot over the old WAL).
  {
    ByteWriter w;
    w(index, term, members, app_state);
    Bytes framed;
    append_framed(framed, w.bytes());
    atomic_write(snap_path(), framed);
  }
  // 2. Rewrite the WAL from scratch: term/vote, the snapshot mark, and
  //    the surviving tail. This is what bounds WAL growth.
  std::vector<Bytes> payloads;
  payloads.reserve(2 + tail.size());
  payloads.push_back(record(kTermVote, current_term, voted_for));
  payloads.push_back(record(kSnapshotMark, index, term));
  Index idx = index;
  for (const LogEntry& e : tail) {
    payloads.push_back(record(kEntryRec, ++idx, e));
  }
  rewrite_wal(payloads);
}

void WalStorage::rewrite_wal(const std::vector<Bytes>& payloads) {
  Bytes framed;
  for (const Bytes& p : payloads) append_framed(framed, p);
  close_fd();
  atomic_write(wal_path(), framed);
  open_wal_for_append();
}

void WalStorage::sync() {
  if (dirty_ && fd_ >= 0) ::fsync(fd_);
  dirty_ = false;
}

void WalStorage::wipe() {
  close_fd();
  ::unlink(wal_path().c_str());
  ::unlink(snap_path().c_str());
  ::unlink((wal_path() + ".tmp").c_str());
  ::unlink((snap_path() + ".tmp").c_str());
  recovery_ = RecoveryInfo{};
  open_wal_for_append();
}

}  // namespace p2pfl::raft
