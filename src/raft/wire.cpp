#include "raft/wire.hpp"

#include "net/codec.hpp"

namespace p2pfl::raft::wire {

namespace {

void put_entry(ByteWriter& w, const LogEntry& e) {
  w.u64(e.term);
  w.u8(static_cast<std::uint8_t>(e.kind));
  w.blob(e.data);
}

LogEntry get_entry(ByteReader& r) {
  LogEntry e;
  e.term = r.u64();
  e.kind = static_cast<EntryKind>(r.u8());
  e.data = r.blob();
  return e;
}

template <typename T, typename Fn>
std::optional<T> guarded(const Bytes& b, Fn fn) {
  ByteReader r(b);
  T out = fn(r);
  // Strict contract: every byte consumed, nothing read out of bounds.
  if (!r.complete()) return std::nullopt;
  return out;
}

}  // namespace

void encode_to(const RequestVoteArgs& m, ByteWriter& w) {
  w.u64(m.term);
  w.u32(m.candidate);
  w.u64(m.last_log_index);
  w.u64(m.last_log_term);
  w.u8(m.pre_vote ? 1 : 0);
}

std::optional<RequestVoteArgs> decode_request_vote(const Bytes& b) {
  return guarded<RequestVoteArgs>(b, [](ByteReader& r) {
    RequestVoteArgs m;
    m.term = r.u64();
    m.candidate = r.u32();
    m.last_log_index = r.u64();
    m.last_log_term = r.u64();
    m.pre_vote = r.u8() != 0;
    return m;
  });
}

void encode_to(const RequestVoteReply& m, ByteWriter& w) {
  w.u64(m.term);
  w.u8(m.vote_granted ? 1 : 0);
  w.u32(m.voter);
  w.u8(m.pre_vote ? 1 : 0);
}

std::optional<RequestVoteReply> decode_request_vote_reply(const Bytes& b) {
  return guarded<RequestVoteReply>(b, [](ByteReader& r) {
    RequestVoteReply m;
    m.term = r.u64();
    m.vote_granted = r.u8() != 0;
    m.voter = r.u32();
    m.pre_vote = r.u8() != 0;
    return m;
  });
}

void encode_to(const AppendEntriesArgs& m, ByteWriter& w) {
  w.u64(m.term);
  w.u32(m.leader);
  w.u64(m.prev_log_index);
  w.u64(m.prev_log_term);
  w.u64(m.leader_commit);
  w.u32(static_cast<std::uint32_t>(m.entries.size()));
  for (const LogEntry& e : m.entries) put_entry(w, e);
}

std::optional<AppendEntriesArgs> decode_append_entries(const Bytes& b) {
  return guarded<AppendEntriesArgs>(b, [](ByteReader& r) {
    AppendEntriesArgs m;
    m.term = r.u64();
    m.leader = r.u32();
    m.prev_log_index = r.u64();
    m.prev_log_term = r.u64();
    m.leader_commit = r.u64();
    const std::uint32_t n = r.u32();
    // Gate on ok(): a corrupted count must not drive a huge loop. Each
    // successful entry consumes >= 13 bytes, so iterations are bounded by
    // the buffer; the first failing read stops the loop.
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      m.entries.push_back(get_entry(r));
    }
    return m;
  });
}

void encode_to(const AppendEntriesReply& m, ByteWriter& w) {
  w.u64(m.term);
  w.u8(m.success ? 1 : 0);
  w.u32(m.follower);
  w.u64(m.match_index);
  w.u64(m.conflict_index);
}

std::optional<AppendEntriesReply> decode_append_entries_reply(
    const Bytes& b) {
  return guarded<AppendEntriesReply>(b, [](ByteReader& r) {
    AppendEntriesReply m;
    m.term = r.u64();
    m.success = r.u8() != 0;
    m.follower = r.u32();
    m.match_index = r.u64();
    m.conflict_index = r.u64();
    return m;
  });
}

void encode_to(const InstallSnapshotArgs& m, ByteWriter& w) {
  w.u64(m.term);
  w.u32(m.leader);
  w.u64(m.last_included_index);
  w.u64(m.last_included_term);
  w.vec_u32(m.members);
  w.blob(m.app_state);
}

std::optional<InstallSnapshotArgs> decode_install_snapshot(const Bytes& b) {
  return guarded<InstallSnapshotArgs>(b, [](ByteReader& r) {
    InstallSnapshotArgs m;
    m.term = r.u64();
    m.leader = r.u32();
    m.last_included_index = r.u64();
    m.last_included_term = r.u64();
    m.members = r.vec_u32<PeerId>();
    m.app_state = r.blob();
    return m;
  });
}

void encode_to(const InstallSnapshotReply& m, ByteWriter& w) {
  w.u64(m.term);
  w.u32(m.follower);
  w.u64(m.match_index);
}

std::optional<InstallSnapshotReply> decode_install_snapshot_reply(
    const Bytes& b) {
  return guarded<InstallSnapshotReply>(b, [](ByteReader& r) {
    InstallSnapshotReply m;
    m.term = r.u64();
    m.follower = r.u32();
    m.match_index = r.u64();
    return m;
  });
}

void encode_to(const TimeoutNowArgs& m, ByteWriter& w) {
  w.u64(m.term);
  w.u32(m.leader);
}

std::optional<TimeoutNowArgs> decode_timeout_now(const Bytes& b) {
  return guarded<TimeoutNowArgs>(b, [](ByteReader& r) {
    TimeoutNowArgs m;
    m.term = r.u64();
    m.leader = r.u32();
    return m;
  });
}

namespace {

LogEntry sample_entry(Rng& rng, const net::WireSample& s) {
  LogEntry e;
  e.term = rng.uniform_int(1, 9);
  e.kind = static_cast<EntryKind>(rng.index(3));
  e.data.resize(rng.index(s.n * 4 + 1));
  for (auto& b : e.data) b = static_cast<std::uint8_t>(rng.index(256));
  return e;
}

RequestVoteArgs sample_rv(Rng& rng, const net::WireSample& s) {
  RequestVoteArgs m;
  m.term = rng.uniform_int(1, 9);
  m.candidate = static_cast<PeerId>(rng.index(s.n));
  m.last_log_index = rng.uniform_int(0, 99);
  m.last_log_term = rng.uniform_int(0, 9);
  m.pre_vote = rng.chance(0.5);
  return m;
}

RequestVoteReply sample_rvr(Rng& rng, const net::WireSample& s) {
  RequestVoteReply m;
  m.term = rng.uniform_int(1, 9);
  m.vote_granted = rng.chance(0.5);
  m.voter = static_cast<PeerId>(rng.index(s.n));
  m.pre_vote = rng.chance(0.5);
  return m;
}

AppendEntriesArgs sample_ae(Rng& rng, const net::WireSample& s) {
  AppendEntriesArgs m;
  m.term = rng.uniform_int(1, 9);
  m.leader = static_cast<PeerId>(rng.index(s.n));
  m.prev_log_index = rng.uniform_int(0, 99);
  m.prev_log_term = rng.uniform_int(0, 9);
  m.leader_commit = rng.uniform_int(0, 99);
  const std::size_t count = rng.index(3);
  for (std::size_t i = 0; i < count; ++i) {
    m.entries.push_back(sample_entry(rng, s));
  }
  return m;
}

AppendEntriesReply sample_aer(Rng& rng, const net::WireSample& s) {
  AppendEntriesReply m;
  m.term = rng.uniform_int(1, 9);
  m.success = rng.chance(0.5);
  m.follower = static_cast<PeerId>(rng.index(s.n));
  m.match_index = rng.uniform_int(0, 99);
  m.conflict_index = rng.uniform_int(0, 99);
  return m;
}

InstallSnapshotArgs sample_is(Rng& rng, const net::WireSample& s) {
  InstallSnapshotArgs m;
  m.term = rng.uniform_int(1, 9);
  m.leader = static_cast<PeerId>(rng.index(s.n));
  m.last_included_index = rng.uniform_int(1, 99);
  m.last_included_term = rng.uniform_int(1, 9);
  for (std::size_t i = 0; i < s.n; ++i) m.members.push_back(static_cast<PeerId>(i));
  m.app_state.resize(rng.index(32) + 1);
  for (auto& b : m.app_state) b = static_cast<std::uint8_t>(rng.index(256));
  return m;
}

InstallSnapshotReply sample_isr(Rng& rng, const net::WireSample& s) {
  InstallSnapshotReply m;
  m.term = rng.uniform_int(1, 9);
  m.follower = static_cast<PeerId>(rng.index(s.n));
  m.match_index = rng.uniform_int(0, 99);
  return m;
}

TimeoutNowArgs sample_tn(Rng& rng, const net::WireSample& s) {
  TimeoutNowArgs m;
  m.term = rng.uniform_int(1, 9);
  m.leader = static_cast<PeerId>(rng.index(s.n));
  return m;
}

bool eq_rv(const RequestVoteArgs& a, const RequestVoteArgs& b) {
  return a.term == b.term && a.candidate == b.candidate &&
         a.last_log_index == b.last_log_index &&
         a.last_log_term == b.last_log_term && a.pre_vote == b.pre_vote;
}

bool eq_rvr(const RequestVoteReply& a, const RequestVoteReply& b) {
  return a.term == b.term && a.vote_granted == b.vote_granted &&
         a.voter == b.voter && a.pre_vote == b.pre_vote;
}

bool eq_ae(const AppendEntriesArgs& a, const AppendEntriesArgs& b) {
  return a.term == b.term && a.leader == b.leader &&
         a.prev_log_index == b.prev_log_index &&
         a.prev_log_term == b.prev_log_term && a.entries == b.entries &&
         a.leader_commit == b.leader_commit;
}

bool eq_aer(const AppendEntriesReply& a, const AppendEntriesReply& b) {
  return a.term == b.term && a.success == b.success &&
         a.follower == b.follower && a.match_index == b.match_index &&
         a.conflict_index == b.conflict_index;
}

bool eq_is(const InstallSnapshotArgs& a, const InstallSnapshotArgs& b) {
  return a.term == b.term && a.leader == b.leader &&
         a.last_included_index == b.last_included_index &&
         a.last_included_term == b.last_included_term &&
         a.members == b.members && a.app_state == b.app_state;
}

bool eq_isr(const InstallSnapshotReply& a, const InstallSnapshotReply& b) {
  return a.term == b.term && a.follower == b.follower &&
         a.match_index == b.match_index;
}

bool eq_tn(const TimeoutNowArgs& a, const TimeoutNowArgs& b) {
  return a.term == b.term && a.leader == b.leader;
}

}  // namespace

void register_codecs() {
  static const bool once = [] {
    auto& reg = net::CodecRegistry::global();
    reg.add(net::make_codec<RequestVoteArgs>(
        "raft:rv", &encode_to, &decode_request_vote, &sample_rv, &eq_rv));
    reg.add(net::make_codec<RequestVoteReply>(
        "raft:rvr", &encode_to, &decode_request_vote_reply, &sample_rvr,
        &eq_rvr));
    reg.add(net::make_codec<AppendEntriesArgs>(
        "raft:ae", &encode_to, &decode_append_entries, &sample_ae, &eq_ae));
    reg.add(net::make_codec<AppendEntriesReply>(
        "raft:aer", &encode_to, &decode_append_entries_reply, &sample_aer,
        &eq_aer));
    reg.add(net::make_codec<InstallSnapshotArgs>(
        "raft:is", &encode_to, &decode_install_snapshot, &sample_is, &eq_is));
    reg.add(net::make_codec<InstallSnapshotReply>(
        "raft:isr", &encode_to, &decode_install_snapshot_reply, &sample_isr,
        &eq_isr));
    reg.add(net::make_codec<TimeoutNowArgs>(
        "raft:tn", &encode_to, &decode_timeout_now, &sample_tn, &eq_tn));
    return true;
  }();
  (void)once;
}

}  // namespace p2pfl::raft::wire
