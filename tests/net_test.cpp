#include <gtest/gtest.h>

#include "net/mux.hpp"
#include "net/network.hpp"

namespace p2pfl::net {
namespace {

Envelope make_env(PeerId from, PeerId to, std::string kind, std::any body,
                  std::uint64_t wire_bytes) {
  Envelope env;
  env.from = from;
  env.to = to;
  env.kind = std::move(kind);
  env.body = std::move(body);
  env.wire_bytes = wire_bytes;
  return env;
}

struct Recorder : Endpoint {
  std::vector<Envelope> received;
  std::vector<SimTime> times;
  sim::Simulator* sim = nullptr;
  void deliver(const Envelope& env) override {
    received.push_back(env);
    if (sim != nullptr) times.push_back(sim->now());
  }
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : sim_(42), net_(sim_, {.base_latency = 15 * kMillisecond}) {
    a_.sim = &sim_;
    b_.sim = &sim_;
    net_.attach(0, &a_);
    net_.attach(1, &b_);
  }

  sim::Simulator sim_;
  Network net_;
  Recorder a_, b_;
};

TEST_F(NetworkTest, DeliversWithConfiguredLatency) {
  net_.send(0, 1, "test/msg", std::string("payload"), 100);
  sim_.run();
  ASSERT_EQ(b_.received.size(), 1u);
  EXPECT_EQ(b_.times[0], 15 * kMillisecond);
  EXPECT_EQ(b_.received[0].kind, "test/msg");
  EXPECT_EQ(std::any_cast<std::string>(b_.received[0].body), "payload");
}

TEST_F(NetworkTest, CountsSentAndDeliveredBytes) {
  net_.send(0, 1, "k1", 1, 100);
  net_.send(1, 0, "k2", 2, 50);
  sim_.run();
  EXPECT_EQ(net_.stats().sent.messages, 2u);
  EXPECT_EQ(net_.stats().sent.bytes, 150u);
  EXPECT_EQ(net_.stats().delivered.bytes, 150u);
  EXPECT_EQ(net_.stats().sent_by_kind.at("k1").bytes, 100u);
  EXPECT_EQ(net_.stats().sent_by_kind.at("k2").messages, 1u);
}

TEST_F(NetworkTest, CrashedSenderEmitsNothing) {
  net_.crash(0);
  net_.send(0, 1, "k", 1, 10);
  sim_.run();
  EXPECT_TRUE(b_.received.empty());
  EXPECT_EQ(net_.stats().sent.messages, 0u);
}

TEST_F(NetworkTest, CrashedReceiverLosesInFlightMessage) {
  net_.send(0, 1, "k", 1, 10);
  sim_.run_until(5 * kMillisecond);
  net_.crash(1);  // message is mid-flight
  sim_.run();
  EXPECT_TRUE(b_.received.empty());
  EXPECT_EQ(net_.stats().sent.messages, 1u);  // it was put on the wire
  EXPECT_EQ(net_.stats().delivered.messages, 0u);
}

TEST_F(NetworkTest, RestoreReenablesDelivery) {
  net_.crash(1);
  net_.send(0, 1, "k", 1, 10);
  sim_.run();
  net_.restore(1);
  net_.send(0, 1, "k", 2, 10);
  sim_.run();
  ASSERT_EQ(b_.received.size(), 1u);
  EXPECT_EQ(std::any_cast<int>(b_.received[0].body), 2);
}

TEST_F(NetworkTest, BlockedLinkDropsDirectionally) {
  net_.block_link(0, 1);
  net_.send(0, 1, "k", 1, 10);
  net_.send(1, 0, "k", 2, 10);
  sim_.run();
  EXPECT_TRUE(b_.received.empty());
  ASSERT_EQ(a_.received.size(), 1u);
  net_.unblock_link(0, 1);
  net_.send(0, 1, "k", 3, 10);
  sim_.run();
  EXPECT_EQ(b_.received.size(), 1u);
}

TEST_F(NetworkTest, ExtraLinkDelayApplies) {
  net_.set_link_delay(0, 1, 100 * kMillisecond);
  net_.send(0, 1, "k", 1, 10);
  sim_.run();
  ASSERT_EQ(b_.times.size(), 1u);
  EXPECT_EQ(b_.times[0], 115 * kMillisecond);
  net_.clear_link_delay(0, 1);
  net_.send(0, 1, "k", 2, 10);
  sim_.run();
  EXPECT_EQ(b_.times[1] - b_.times[0], 15 * kMillisecond);
}

TEST_F(NetworkTest, SelfSendIsImmediateAndUncounted) {
  net_.send(0, 0, "k", 7, 10);
  sim_.run();
  ASSERT_EQ(a_.received.size(), 1u);
  EXPECT_EQ(a_.times[0], 0);
  EXPECT_EQ(net_.stats().sent.messages, 0u);
}

TEST_F(NetworkTest, UnattachedDestinationDropsSilently) {
  net_.send(0, 99, "k", 1, 10);
  EXPECT_NO_THROW(sim_.run());
  EXPECT_EQ(net_.stats().delivered.messages, 0u);
}

TEST_F(NetworkTest, SplitsDeliveredByKind) {
  net_.send(0, 1, "k1", 1, 100);
  net_.send(0, 1, "k2", 2, 40);
  net_.send(1, 0, "k2", 3, 60);
  sim_.run();
  const auto& by_kind = net_.stats().delivered_by_kind;
  ASSERT_EQ(by_kind.count("k1"), 1u);
  ASSERT_EQ(by_kind.count("k2"), 1u);
  EXPECT_EQ(by_kind.at("k1").messages, 1u);
  EXPECT_EQ(by_kind.at("k1").bytes, 100u);
  EXPECT_EQ(by_kind.at("k2").messages, 2u);
  EXPECT_EQ(by_kind.at("k2").bytes, 100u);
}

TEST_F(NetworkTest, PerKindDeliveredNeverExceedsSentUnderFaults) {
  // Mixed-kind traffic under a blocked link, an in-flight receiver
  // crash, and a crashed sender: per kind, whatever reaches a live
  // endpoint must be a subset of what was put on the wire.
  net_.block_link(0, 1);
  net_.send(0, 1, "blocked/k", 1, 10);  // dropped before send accounting
  net_.unblock_link(0, 1);
  net_.send(0, 1, "ok/k", 3, 30);
  sim_.run();  // delivered
  net_.send(0, 1, "lost/k", 2, 20);  // receiver crashes mid-flight
  sim_.run_for(5 * kMillisecond);
  net_.crash(1);
  sim_.run();
  net_.restore(1);
  net_.send(1, 0, "ok/k", 4, 30);
  sim_.run();  // delivered
  net_.crash(1);
  net_.send(1, 0, "dead/k", 5, 40);  // crashed sender emits nothing
  sim_.run();

  const auto& st = net_.stats();
  for (const auto& [kind, delivered] : st.delivered_by_kind) {
    const auto it = st.sent_by_kind.find(kind);
    ASSERT_NE(it, st.sent_by_kind.end()) << "delivered unknown kind " << kind;
    EXPECT_LE(delivered.messages, it->second.messages) << kind;
    EXPECT_LE(delivered.bytes, it->second.bytes) << kind;
  }
  // The faults actually bit: "lost/k" was sent but never delivered, the
  // blocked and crashed-sender kinds never even hit the send counters.
  EXPECT_EQ(st.sent_by_kind.at("lost/k").messages, 1u);
  EXPECT_EQ(st.delivered_by_kind.count("lost/k"), 0u);
  EXPECT_EQ(st.sent_by_kind.count("blocked/k"), 0u);
  EXPECT_EQ(st.sent_by_kind.count("dead/k"), 0u);
  EXPECT_EQ(st.delivered_by_kind.at("ok/k").messages, 2u);

  // Drop reasons are attributed in the metrics registry.
  const auto& counters = sim_.obs().metrics.counters();
  EXPECT_EQ(counters.at("net.dropped.link_blocked").value(), 1u);
  EXPECT_EQ(counters.at("net.dropped.sender_crashed").value(), 1u);
  EXPECT_GE(counters.at("net.dropped.receiver_crashed").value(), 1u);
}

TEST_F(NetworkTest, PerKindStatsStayExactAcrossResetStats) {
  // The network reaches per-kind stats and counters through pointers
  // cached on the kind's first use; a second batch through the cached
  // pointers must add to the same stats and counters.
  net_.set_default_faults({.duplicate_prob = 1.0});
  net_.send(0, 1, "k1", 1, 100);
  net_.block_link(0, 1);
  net_.send(0, 1, "k1", 2, 100);
  net_.unblock_link(0, 1);
  sim_.run();
  ASSERT_EQ(net_.stats().delivered_by_kind.at("dup:k1").messages, 1u);

  net_.send(0, 1, "k1", 3, 30);
  net_.block_link(0, 1);
  net_.send(0, 1, "k1", 4, 30);
  sim_.run();

  const TrafficStats& st = net_.stats();
  EXPECT_EQ(st.sent.messages, 2u);
  EXPECT_EQ(st.sent_by_kind.at("k1").messages, 2u);
  EXPECT_EQ(st.sent_by_kind.at("k1").bytes, 130u);
  EXPECT_EQ(st.delivered_by_kind.at("k1").messages, 2u);
  EXPECT_EQ(st.delivered_by_kind.at("k1").bytes, 130u);
  EXPECT_EQ(st.delivered_by_kind.at("dup:k1").messages, 2u);
  EXPECT_EQ(st.delivered_by_kind.at("dup:k1").bytes, 130u);
  EXPECT_EQ(st.duplicated.bytes, 130u);
  EXPECT_EQ(st.dropped_by_reason.at("link_blocked"), 2u);

  const auto& counters = sim_.obs().metrics.counters();
  EXPECT_EQ(counters.at("net.sent.bytes.k1").value(), 130u);
  EXPECT_EQ(counters.at("net.delivered.bytes.k1").value(), 130u);
  EXPECT_EQ(counters.at("net.delivered.dup.bytes").value(), 130u);
  EXPECT_EQ(counters.at("net.dropped.link_blocked").value(), 2u);
}

TEST_F(NetworkTest, ResentEnvelopeIsAccountedUnderItsCurrentKind) {
  // A received envelope carries the kind id its first send stamped;
  // sending it again under another kind must account the new kind.
  net_.send(0, 1, "k1", 1, 10);
  sim_.run();
  Envelope again = b_.received.at(0);
  again.from = 1;
  again.to = 0;
  again.kind = "k2";
  net_.send(std::move(again));
  sim_.run();
  ASSERT_EQ(a_.received.size(), 1u);
  EXPECT_EQ(a_.received[0].kind, "k2");
  EXPECT_EQ(net_.stats().sent_by_kind.at("k1").messages, 1u);
  EXPECT_EQ(net_.stats().sent_by_kind.at("k2").messages, 1u);
  EXPECT_EQ(net_.stats().delivered_by_kind.at("k2").messages, 1u);
}

TEST(PeerHost, RouteChangesAfterFirstDeliveryTakeEffect) {
  // Through a Network the host caches each kind's handler by kind id;
  // route/unroute must invalidate it.
  sim::Simulator sim(9);
  Network net(sim);
  PeerHost host;
  net.attach(1, &host);
  std::vector<std::string> hits;
  const auto deliver = [&] {
    net.send(0, 1, "raft/sg1/x", 0, 8);
    sim.run();
  };
  host.route("raft/", [&](const Envelope&) { hits.push_back("raft"); });
  deliver();
  host.route("raft/sg1/", [&](const Envelope&) { hits.push_back("sg1"); });
  deliver();
  host.route("raft/sg1/", [&](const Envelope&) { hits.push_back("sg1'"); });
  deliver();
  host.route("raft/sg2/", [&](const Envelope&) { hits.push_back("sg2"); });
  deliver();
  host.unroute("raft/sg1/");
  deliver();
  host.unroute("raft/");
  deliver();  // no route left: dropped by the host
  host.route("", [&](const Envelope&) { hits.push_back("any"); });
  deliver();
  EXPECT_EQ(hits, (std::vector<std::string>{"raft", "sg1", "sg1'", "sg1'",
                                            "raft", "any"}));
  EXPECT_EQ(net.stats().delivered.messages, 7u);
}

TEST(PeerHost, RoutesByLongestPrefix) {
  PeerHost host;
  std::vector<std::string> hits;
  host.route("raft/", [&](const Envelope& e) { hits.push_back("raft:" + e.kind); });
  host.route("raft/sg1/", [&](const Envelope& e) { hits.push_back("sg1:" + e.kind); });
  host.route("sac/", [&](const Envelope& e) { hits.push_back("sac:" + e.kind); });

  host.deliver(make_env(0, 1, "raft/sg1/ae", {}, 0));
  host.deliver(make_env(0, 1, "raft/fed/rv", {}, 0));
  host.deliver(make_env(0, 1, "sac/share", {}, 0));
  host.deliver(make_env(0, 1, "unknown/x", {}, 0));

  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0], "sg1:raft/sg1/ae");
  EXPECT_EQ(hits[1], "raft:raft/fed/rv");
  EXPECT_EQ(hits[2], "sac:sac/share");
}

TEST(PeerHost, UnrouteStopsDelivery) {
  PeerHost host;
  int hits = 0;
  host.route("a/", [&](const Envelope&) { ++hits; });
  host.deliver(make_env(0, 1, "a/x", {}, 0));
  host.unroute("a/");
  host.deliver(make_env(0, 1, "a/x", {}, 0));
  EXPECT_EQ(hits, 1);
}

TEST(NetworkBandwidth, TransmissionDelayAddsToLatency) {
  sim::Simulator sim(3);
  NetworkConfig cfg;
  cfg.base_latency = 10 * kMillisecond;
  cfg.egress_bytes_per_sec = 1'000'000;  // 1 MB/s
  Network net(sim, cfg);
  Recorder r;
  r.sim = &sim;
  net.attach(0, &r);
  net.attach(1, &r);
  net.send(0, 1, "k", 1, 500'000);  // 0.5 s transmission
  sim.run();
  ASSERT_EQ(r.times.size(), 1u);
  EXPECT_EQ(r.times[0], 500 * kMillisecond + 10 * kMillisecond);
}

TEST(NetworkBandwidth, SenderEgressSerializes) {
  // Two messages from one sender queue behind each other; two messages
  // from different senders do not.
  sim::Simulator sim(4);
  NetworkConfig cfg;
  cfg.base_latency = 0;
  cfg.egress_bytes_per_sec = 1'000'000;
  Network net(sim, cfg);
  Recorder r;
  r.sim = &sim;
  net.attach(0, &r);
  net.attach(1, &r);
  net.attach(2, &r);
  net.send(0, 2, "k", 1, 100'000);  // done at 100 ms
  net.send(0, 2, "k", 2, 100'000);  // queued: done at 200 ms
  net.send(1, 2, "k", 3, 100'000);  // own NIC: done at 100 ms
  sim.run();
  ASSERT_EQ(r.times.size(), 3u);
  EXPECT_EQ(r.times[0], 100 * kMillisecond);
  EXPECT_EQ(r.times[1], 100 * kMillisecond);
  EXPECT_EQ(r.times[2], 200 * kMillisecond);
}

TEST(NetworkBandwidth, ZeroMeansInfinite) {
  sim::Simulator sim(5);
  NetworkConfig cfg;
  cfg.base_latency = 5 * kMillisecond;
  cfg.egress_bytes_per_sec = 0;
  Network net(sim, cfg);
  Recorder r;
  r.sim = &sim;
  net.attach(0, &r);
  net.attach(1, &r);
  net.send(0, 1, "k", 1, 1'000'000'000);
  sim.run();
  ASSERT_EQ(r.times.size(), 1u);
  EXPECT_EQ(r.times[0], 5 * kMillisecond);
}

}  // namespace
}  // namespace p2pfl::net
