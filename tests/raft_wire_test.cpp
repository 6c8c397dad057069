// The Raft wire codec: round-trips, malformed-input rejection, and —
// crucially — agreement between the byte counts the protocol charges to
// the network (kWireSize / wire_size()) and the actual encoded length.
#include <gtest/gtest.h>

#include "raft/types.hpp"

namespace p2pfl::raft {
namespace {

LogEntry entry(Term t, EntryKind k, Bytes data) {
  LogEntry e;
  e.term = t;
  e.kind = k;
  e.data = std::move(data);
  return e;
}

TEST(RaftWire, RequestVoteRoundTripAndSize) {
  RequestVoteArgs m;
  m.term = 42;
  m.candidate = 7;
  m.last_log_index = 1000;
  m.last_log_term = 41;
  m.pre_vote = true;
  const Bytes b = encode_wire(m);
  EXPECT_EQ(b.size(), RequestVoteArgs::kWireSize);
  const auto d = decode_wire<RequestVoteArgs>(b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->term, 42u);
  EXPECT_EQ(d->candidate, 7u);
  EXPECT_EQ(d->last_log_index, 1000u);
  EXPECT_EQ(d->last_log_term, 41u);
  EXPECT_TRUE(d->pre_vote);
}

TEST(RaftWire, RequestVoteReplyRoundTripAndSize) {
  RequestVoteReply m;
  m.term = 3;
  m.vote_granted = true;
  m.voter = 12;
  m.pre_vote = false;
  const Bytes b = encode_wire(m);
  EXPECT_EQ(b.size(), RequestVoteReply::kWireSize);
  const auto d = decode_wire<RequestVoteReply>(b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->term, 3u);
  EXPECT_TRUE(d->vote_granted);
  EXPECT_EQ(d->voter, 12u);
}

TEST(RaftWire, AppendEntriesRoundTripAndSize) {
  AppendEntriesArgs m;
  m.term = 9;
  m.leader = 2;
  m.prev_log_index = 55;
  m.prev_log_term = 8;
  m.leader_commit = 54;
  m.entries.push_back(entry(9, EntryKind::kNoop, {}));
  m.entries.push_back(entry(9, EntryKind::kCommand, {1, 2, 3}));
  m.entries.push_back(entry(9, EntryKind::kConfig, {0xFF}));
  const Bytes b = encode_wire(m);
  EXPECT_EQ(b.size(), m.wire_size());
  const auto d = decode_wire<AppendEntriesArgs>(b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->term, 9u);
  EXPECT_EQ(d->leader, 2u);
  EXPECT_EQ(d->prev_log_index, 55u);
  EXPECT_EQ(d->leader_commit, 54u);
  ASSERT_EQ(d->entries.size(), 3u);
  EXPECT_TRUE(d->entries[0] == m.entries[0]);
  EXPECT_TRUE(d->entries[1] == m.entries[1]);
  EXPECT_TRUE(d->entries[2] == m.entries[2]);
}

TEST(RaftWire, EmptyHeartbeatSize) {
  AppendEntriesArgs m;
  EXPECT_EQ(encode_wire(m).size(), m.wire_size());
  EXPECT_EQ(m.wire_size(), 40u);
}

TEST(RaftWire, AppendEntriesReplyRoundTripAndSize) {
  AppendEntriesReply m;
  m.term = 4;
  m.success = false;
  m.follower = 9;
  m.match_index = 17;
  m.conflict_index = 11;
  const Bytes b = encode_wire(m);
  EXPECT_EQ(b.size(), AppendEntriesReply::kWireSize);
  const auto d = decode_wire<AppendEntriesReply>(b);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->success);
  EXPECT_EQ(d->conflict_index, 11u);
}

TEST(RaftWire, InstallSnapshotRoundTripAndSize) {
  InstallSnapshotArgs m;
  m.term = 6;
  m.leader = 1;
  m.last_included_index = 500;
  m.last_included_term = 5;
  m.members = {1, 4, 9};
  m.app_state = {9, 8, 7, 6};
  const Bytes b = encode_wire(m);
  EXPECT_EQ(b.size(), m.wire_size());
  const auto d = decode_wire<InstallSnapshotArgs>(b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->members, m.members);
  EXPECT_EQ(d->app_state, m.app_state);
  EXPECT_EQ(d->last_included_index, 500u);
}

TEST(RaftWire, InstallSnapshotReplyAndTimeoutNowSizes) {
  InstallSnapshotReply r;
  r.term = 1;
  r.follower = 2;
  r.match_index = 3;
  EXPECT_EQ(encode_wire(r).size(), InstallSnapshotReply::kWireSize);
  ASSERT_TRUE(decode_wire<InstallSnapshotReply>(encode_wire(r)));

  TimeoutNowArgs t;
  t.term = 10;
  t.leader = 0;
  EXPECT_EQ(encode_wire(t).size(), TimeoutNowArgs::kWireSize);
  const auto d = decode_wire<TimeoutNowArgs>(encode_wire(t));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->term, 10u);
}

TEST(RaftWire, TruncatedInputRejected) {
  AppendEntriesArgs m;
  m.term = 1;
  m.entries.push_back(entry(1, EntryKind::kCommand, {1, 2, 3, 4}));
  Bytes b = encode_wire(m);
  for (std::size_t cut = 1; cut < b.size(); cut += 7) {
    Bytes t(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_wire<AppendEntriesArgs>(t).has_value())
        << "cut at " << cut;
  }
}

TEST(RaftWire, TrailingGarbageRejected) {
  RequestVoteArgs m;
  Bytes b = encode_wire(m);
  b.push_back(0);
  EXPECT_FALSE(decode_wire<RequestVoteArgs>(b).has_value());
}

}  // namespace
}  // namespace p2pfl::raft
