// Byzantine detection on the actor path: inconsistent SAC shares are
// caught by the commit/echo cross-check and attributed to the sender,
// upload equivocation is caught by the FedAvg leader's digest pinning,
// suspects are excluded from the next round, honest peers never trip
// detection, and the detection framing obeys its closed-form wire
// sizes.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/two_layer_agg.hpp"
#include "robust/attack.hpp"
#include "secagg/wire.hpp"

namespace p2pfl::core {
namespace {

struct ByzHarness {
  ByzHarness(std::size_t peers, std::size_t groups, AggregationConfig cfg,
             const robust::ByzantineRegistry* registry,
             std::uint64_t seed = 9, bool detect = true)
      : topo(Topology::even(peers, groups)),
        sim(seed),
        net(sim, {.base_latency = 15 * kMillisecond}) {
    cfg.detect_byzantine = detect;
    cfg.byzantine = registry;
    agg = std::make_unique<TwoLayerAggregator>(topo, cfg, net);
    agg->on_global_model = [this](std::uint64_t, const secagg::Vector& g,
                                  std::size_t used) {
      global = g;
      groups_used = used;
    };
    agg->on_suspect = [this](std::uint64_t round, PeerId p) {
      suspected.emplace_back(round, p);
    };
  }

  void begin(std::uint64_t round) {
    agg->begin_round(round, RoundLeadership::designated(topo), [](PeerId p) {
      return secagg::Vector(4, static_cast<float>(p + 1));
    });
  }

  std::uint64_t counter(const char* key) {
    return sim.obs().metrics.counter(key).value();
  }

  Topology topo;
  sim::Simulator sim;
  net::Network net;
  std::unique_ptr<TwoLayerAggregator> agg;
  std::optional<secagg::Vector> global;
  std::size_t groups_used = 0;
  std::vector<std::pair<std::uint64_t, PeerId>> suspected;
};

TEST(ByzantineDetection, InconsistentSharesAttributedToSender) {
  // Groups of 4: the attacker perturbs the bundles for a strict subset
  // of holders, so holders see diverging commitments.
  robust::ByzantineRegistry registry;
  ByzHarness h(12, 3, {}, &registry);
  const PeerId victim = h.topo.group(0)[1];  // a follower
  registry.activate(victim,
                    {robust::AttackKind::kInconsistentShares, 10.0});
  h.begin(1);
  h.sim.run();
  ASSERT_TRUE(h.global.has_value());
  ASSERT_FALSE(h.suspected.empty());
  for (const auto& [round, p] : h.suspected) EXPECT_EQ(p, victim);
  EXPECT_EQ(h.agg->suspects().count(victim), 1u);
  EXPECT_GE(h.counter("byzantine.suspected"), 1u);
  EXPECT_GE(h.counter("byzantine.inconsistent_bundles_sent"), 1u);
}

TEST(ByzantineDetection, SuspectExcludedFromNextRound) {
  robust::ByzantineRegistry registry;
  ByzHarness h(12, 3, {}, &registry);
  const PeerId victim = h.topo.group(0)[1];  // contributes 2.0
  registry.activate(victim,
                    {robust::AttackKind::kInconsistentShares, 10.0});
  h.begin(1);
  h.sim.run();
  ASSERT_EQ(h.agg->suspects().count(victim), 1u);
  // Round 2 runs without the suspect: the global is the exact mean of
  // the 11 honest contributions (sum 1..12 minus the victim's 2).
  h.global.reset();
  h.begin(2);
  h.sim.run();
  ASSERT_TRUE(h.global.has_value());
  EXPECT_EQ(h.groups_used, 3u);
  EXPECT_NEAR((*h.global)[0], (78.0f - 2.0f) / 11.0f, 1e-4f);
}

TEST(ByzantineDetection, UploadEquivocationCaughtAndFirstStoryKept) {
  robust::ByzantineRegistry registry;
  AggregationConfig cfg;
  cfg.collect_timeout = 10 * kSecond;
  cfg.upload_retry = 500 * kMillisecond;
  ByzHarness h(9, 3, cfg, &registry);
  // Group 1's leader equivocates across upload retries. Stall the round
  // (slow group-2 upload link) so retries actually happen.
  const PeerId liar = h.topo.group(1).front();
  registry.activate(liar, {robust::AttackKind::kEquivocate, 10.0});
  h.net.set_link_delay(h.topo.group(2).front(), h.topo.group(0).front(),
                       2 * kSecond);
  h.begin(1);
  h.sim.run_for(15 * kSecond);
  ASSERT_TRUE(h.global.has_value());
  EXPECT_GE(h.counter("byzantine.upload_equivocations"), 1u);
  EXPECT_EQ(h.agg->suspects().count(liar), 1u);
  // The FedAvg leader pinned the first (honest) upload, so the global
  // is still the clean mean of all 9 contributions.
  EXPECT_NEAR((*h.global)[0], 5.0f, 1e-4f);
}

TEST(ByzantineDetection, HonestRunsHaveZeroFalsePositives) {
  // Detection on, nobody adversarial: across several rounds no suspect
  // is ever produced and the global matches the detection-off run
  // bit-exactly (commitments are framing, not data).
  robust::ByzantineRegistry registry;
  ByzHarness detect_on(9, 3, {}, &registry);
  ByzHarness reference(9, 3, {}, nullptr, 9, /*detect=*/false);
  for (std::uint64_t r = 1; r <= 3; ++r) {
    detect_on.begin(r);
    detect_on.sim.run();
    reference.begin(r);
    reference.sim.run();
    ASSERT_TRUE(detect_on.global.has_value());
    ASSERT_TRUE(reference.global.has_value());
    EXPECT_EQ(*detect_on.global, *reference.global) << "round " << r;
  }
  EXPECT_TRUE(detect_on.suspected.empty());
  EXPECT_TRUE(detect_on.agg->suspects().empty());
  EXPECT_EQ(detect_on.counter("byzantine.share_check_failed"), 0u);
  EXPECT_EQ(detect_on.counter("byzantine.suspected"), 0u);
}

TEST(ByzantineDetection, DetectionFramingMatchesClosedForms) {
  secagg::SacShareMsg share;
  share.round = 5;
  share.from_pos = 1;
  share.parts = {{0, secagg::Vector(6, 1.0f)},
                 {2, secagg::Vector(6, 2.0f)}};
  share.commit = {secagg::wire::share_digest(share.parts[0].second),
                  secagg::wire::share_digest(share.parts[1].second),
                  7u};
  const std::size_t encoded = encode_wire(share).size();
  EXPECT_EQ(encoded, secagg::wire::kShareHeader +
                         2 * (secagg::wire::kPerPartHeader + 4 * 6) +
                         secagg::wire::kCommitPrefix +
                         3 * secagg::wire::kCommitPerShare);
  EXPECT_EQ(encoded,
            secagg::wire::share_wire(2, 4 * 6, 6, share.commit.size()).wire);

  secagg::SacCommitEchoMsg echo;
  echo.round = 5;
  echo.from_pos = 2;
  echo.digests = {1u, 2u, 3u, 4u};
  echo.bad = {0, 1, 0, 0};
  const std::size_t echo_encoded = encode_wire(echo).size();
  EXPECT_EQ(echo_encoded,
            secagg::wire::kEchoHeader + 4 * secagg::wire::kEchoPerPos);
  EXPECT_EQ(echo_encoded, secagg::wire::echo_wire(4).wire);
  // Detection traffic is pure overhead in the Eq. (4)/(5) sense.
  EXPECT_EQ(secagg::wire::echo_wire(4).payload, 0u);
}

}  // namespace
}  // namespace p2pfl::core
