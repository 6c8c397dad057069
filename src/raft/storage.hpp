// Crash-durable Raft persistence: a CRC-framed write-ahead log plus an
// atomically-replaced snapshot file.
//
// Record payloads use the wire layout rules of common/serialize.hpp: an
// entry record is a type byte, the index and the LogEntry's fields(),
// the same bytes an AppendEntries carries per entry.
//
// Raft requires currentTerm, votedFor and the log to survive a crash
// (Figure 2, "Persistent state"). WalStorage appends one framed record
// per mutation to `<prefix>.wal` and keeps the latest snapshot (boundary
// index/term, membership, opaque application state) in `<prefix>.snap`,
// written tmp + fsync + rename so it is either the old or the new
// snapshot, never a torn hybrid. After a snapshot the WAL is rewritten
// from scratch (term/vote + snapshot mark + surviving tail entries), so
// its size is bounded by the compaction threshold.
//
// Recovery scans the WAL sequentially. Every record is length- and
// CRC-checked; the first invalid record ends the scan and the file is
// truncated at the last good offset — a torn tail from a mid-write
// crash heals itself, and anything after a corrupt record is untrusted
// by construction. Same WAL bytes always yield the same recovered
// state (recovery is deterministic).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "raft/types.hpp"

namespace p2pfl::raft {

/// IEEE CRC-32 (same polynomial as zlib) over a byte range.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

/// Everything Raft must reload after a crash.
struct PersistentState {
  bool has_state = false;  ///< false: storage was empty, start fresh
  Term term = 0;
  PeerId voted_for = kNoPeer;
  Index snap_index = 0;
  Term snap_term = 0;
  std::vector<PeerId> snap_members;
  Bytes snap_app_state;
  /// Entries with indices snap_index+1 .. snap_index+entries.size().
  std::vector<LogEntry> entries;
};

/// What recovery had to do to produce a consistent state.
struct RecoveryInfo {
  bool recovered = false;       ///< durable state was found and loaded
  bool truncated_tail = false;  ///< trailing bytes discarded (torn write)
  bool snapshot_loaded = false;
  std::uint64_t records = 0;          ///< valid WAL records replayed
  std::uint64_t bytes_discarded = 0;  ///< bytes dropped by truncation
  double duration_ms = 0.0;           ///< wall-clock load time
};

/// File-backed Raft persistence, the store RaftNode writes through (a
/// null WalStorage* keeps a node purely in-memory). `prefix` names the
/// per-node file pair (`<prefix>.wal` / `<prefix>.snap`); parent
/// directories must exist. sync() and every atomic file replace fsync.
class WalStorage {
 public:
  explicit WalStorage(std::string prefix);
  ~WalStorage();

  WalStorage(const WalStorage&) = delete;
  WalStorage& operator=(const WalStorage&) = delete;

  /// Replay durable state. Called once by the recovering node before
  /// any mutation; may be called again after wipe().
  PersistentState load();

  void persist_term_vote(Term term, PeerId voted_for);
  void append_entry(Index index, const LogEntry& entry);
  void truncate_from(Index index);
  /// Durably replace everything below the snapshot boundary. `tail`
  /// holds the surviving entries above `index`.
  void save_snapshot(Index index, Term term,
                     const std::vector<PeerId>& members,
                     const Bytes& app_state, Term current_term,
                     PeerId voted_for, const std::vector<LogEntry>& tail);
  /// Flush appended records to stable storage. The node calls this once
  /// per mutation batch, before acting on the persisted state.
  void sync();
  /// Destroy all durable state (the amnesia restart: delete the WAL).
  void wipe();

  const RecoveryInfo& recovery() const { return recovery_; }

  std::string wal_path() const { return prefix_ + ".wal"; }
  std::string snap_path() const { return prefix_ + ".snap"; }

  /// True if a WAL file exists on disk for `prefix` (cheap existence
  /// probe used by restart logic to pick durable vs fresh paths).
  static bool exists(const std::string& prefix);

 private:
  void open_wal_for_append();
  void append_record(const Bytes& payload);
  void rewrite_wal(const std::vector<Bytes>& payloads);
  void close_fd();

  std::string prefix_;
  int fd_ = -1;
  bool dirty_ = false;
  RecoveryInfo recovery_;
};

}  // namespace p2pfl::raft
