#include "raft/wire.hpp"

#include "net/codec.hpp"

namespace p2pfl::raft::wire {

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

}  // namespace

void register_codecs() {
  static const bool once = [] {
    auto& reg = net::CodecRegistry::global();
    reg.add(net::make_codec("raft:rv", &sample_rv));
    reg.add(net::make_codec("raft:rvr", &sample_rvr));
    reg.add(net::make_codec("raft:ae", &sample_ae));
    reg.add(net::make_codec("raft:aer", &sample_aer));
    reg.add(net::make_codec("raft:is", &sample_is));
    reg.add(net::make_codec("raft:isr", &sample_isr));
    reg.add(net::make_codec("raft:tn", &sample_tn));
    return true;
  }();
  (void)once;
}

}  // namespace p2pfl::raft::wire
