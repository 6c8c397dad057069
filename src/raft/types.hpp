// Raft wire types: log entries, RPC arguments and replies.
//
// Hand-rolled reproduction of the Raft protocol (Ongaro & Ousterhout,
// USENIX ATC'14) that the paper builds its two-layer backend on. The RPC
// structs mirror Figure 2 of the Raft paper. Each states its encoding
// once, as fields() in wire order (common/serialize.hpp); LogEntry's
// also frames the WAL's entry records. kWireSize / wire_size() feed the
// network's byte accounting (Raft control traffic is negligible next to
// model transfers, but we account for it anyway) and are stated
// independently, so encode-verify can check every charge against them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "common/types.hpp"

namespace p2pfl::raft {

using Term = std::uint64_t;
using Index = std::uint64_t;

enum class EntryKind : std::uint8_t {
  kNoop = 0,     // appended by a fresh leader to commit its term
  kCommand = 1,  // opaque application command
  kConfig = 2,   // cluster membership (sorted member list in data)
};

struct LogEntry {
  Term term = 0;
  EntryKind kind = EntryKind::kCommand;
  Bytes data;

  /// Exact encoded size (term + kind + length + payload).
  std::uint64_t wire_size() const { return 13 + data.size(); }

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.term, m.kind, m.data);
  }
  bool operator==(const LogEntry&) const = default;
};

/// Encode / decode a membership list for a kConfig entry.
Bytes encode_members(const std::vector<PeerId>& members);
std::vector<PeerId> decode_members(const Bytes& data);

struct RequestVoteArgs {
  Term term = 0;
  PeerId candidate = kNoPeer;
  Index last_log_index = 0;
  Term last_log_term = 0;
  /// §9.6 PreVote: probe electability without disturbing terms. `term`
  /// then carries the term the candidate *would* start.
  bool pre_vote = false;

  static constexpr std::uint64_t kWireSize = 29;

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.term, m.candidate, m.last_log_index, m.last_log_term, m.pre_vote);
  }
  bool operator==(const RequestVoteArgs&) const = default;
};

struct RequestVoteReply {
  Term term = 0;
  bool vote_granted = false;
  PeerId voter = kNoPeer;
  bool pre_vote = false;

  static constexpr std::uint64_t kWireSize = 14;

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.term, m.vote_granted, m.voter, m.pre_vote);
  }
  bool operator==(const RequestVoteReply&) const = default;
};

/// Leadership transfer (dissertation §3.10): the leader asks a
/// transferee to campaign immediately, skipping its election timeout
/// (and the stickiness check, since the leader itself solicited it).
struct TimeoutNowArgs {
  Term term = 0;
  PeerId leader = kNoPeer;

  static constexpr std::uint64_t kWireSize = 12;

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.term, m.leader);
  }
  bool operator==(const TimeoutNowArgs&) const = default;
};

struct AppendEntriesArgs {
  Term term = 0;
  PeerId leader = kNoPeer;
  Index prev_log_index = 0;
  Term prev_log_term = 0;
  std::vector<LogEntry> entries;  // empty = heartbeat
  Index leader_commit = 0;

  std::uint64_t wire_size() const {
    std::uint64_t n = 40;  // fixed header + entry count
    for (const LogEntry& e : entries) n += e.wire_size();
    return n;
  }

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.term, m.leader, m.prev_log_index, m.prev_log_term,
       m.leader_commit, m.entries);
  }
  bool operator==(const AppendEntriesArgs&) const = default;
};

/// §7: shipped when a follower needs entries the leader has compacted.
/// Carries the snapshot boundary, the membership at that point (config
/// is part of every Raft snapshot) and the opaque application state.
struct InstallSnapshotArgs {
  Term term = 0;
  PeerId leader = kNoPeer;
  Index last_included_index = 0;
  Term last_included_term = 0;
  std::vector<PeerId> members;
  Bytes app_state;

  std::uint64_t wire_size() const {
    return 36 + 4 * members.size() + app_state.size();
  }

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.term, m.leader, m.last_included_index,
       m.last_included_term, m.members, m.app_state);
  }
  bool operator==(const InstallSnapshotArgs&) const = default;
};

struct InstallSnapshotReply {
  Term term = 0;
  PeerId follower = kNoPeer;
  Index match_index = 0;

  static constexpr std::uint64_t kWireSize = 20;

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.term, m.follower, m.match_index);
  }
  bool operator==(const InstallSnapshotReply&) const = default;
};

struct AppendEntriesReply {
  Term term = 0;
  bool success = false;
  PeerId follower = kNoPeer;
  /// On success: index of the last entry known replicated on the follower.
  Index match_index = 0;
  /// On failure: hint where the leader should retry (first index of the
  /// conflicting term, or just past the follower's last entry).
  Index conflict_index = 0;

  static constexpr std::uint64_t kWireSize = 29;

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.term, m.success, m.follower, m.match_index,
       m.conflict_index);
  }
  bool operator==(const AppendEntriesReply&) const = default;
};

}  // namespace p2pfl::raft
