#include "chaos/soak.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "analysis/cost_model.hpp"
#include "chaos/engine.hpp"
#include "common/check.hpp"
#include "core/system.hpp"
#include "core/topology.hpp"
#include "core/two_layer_agg.hpp"
#include "core/watchdog.hpp"
#include "obs/export.hpp"
#include "sim/simulator.hpp"

namespace p2pfl::chaos {

namespace {
/// Max |committed − exact| accepted as float-accumulation noise.
constexpr double kExactTol = 5e-3;
/// SAC share-phase retransmission budget (generous: ambient loss).
constexpr std::size_t kSacShareRetries = 6;
}  // namespace

ChaosSoakResult run_chaos_soak(const ChaosSoakConfig& cfg) {
  P2PFL_CHECK(cfg.peers > 0 && cfg.groups > 0 && cfg.rounds > 0);
  sim::Simulator sim(cfg.seed);
  if (cfg.capture_trace) sim.obs().trace.set_enabled(true);
  if (cfg.capture_spans) sim.obs().spans.set_enabled(true);
  net::Network net(sim, cfg.net);

  const core::Topology topo = core::Topology::even(cfg.peers, cfg.groups);
  core::AggregationConfig acfg;
  acfg.sac_dropout_tolerance = cfg.dropout_tolerance;
  // Every started round must resolve (commit or fail) within its slot so
  // the next round never inherits an undecided predecessor.
  acfg.collect_timeout = cfg.round_interval;
  acfg.sac_share_timeout = 150 * kMillisecond;
  acfg.sac_subtotal_timeout = 150 * kMillisecond;
  acfg.sac_share_retry_limit = kSacShareRetries;
  acfg.upload_retry = 300 * kMillisecond;
  core::TwoLayerAggregator agg(topo, acfg, net);

  // Constant per-peer models make the exact global model computable.
  const auto model_of = [&](PeerId id) {
    return secagg::Vector(cfg.dim, static_cast<float>(id + 1));
  };

  // Per-round health sampling + SLO evaluation over the same run.
  const bool watch = cfg.capture_timeseries || !cfg.slo_rules.empty();
  std::unique_ptr<core::RoundWatchdog> watchdog;
  if (watch) {
    core::WatchdogConfig wcfg;
    wcfg.rules = cfg.slo_rules;
    wcfg.model_payload_bytes = 4 * static_cast<std::uint64_t>(cfg.dim);
    wcfg.dropout_tolerance = cfg.dropout_tolerance;
    watchdog = std::make_unique<core::RoundWatchdog>(sim, net, topo, wcfg);
    watchdog->on_sample = cfg.on_sample;
  }

  ChaosSoakResult res;
  std::optional<RoundOutcome> current;
  agg.on_global_model = [&](std::uint64_t round, const secagg::Vector& g,
                            std::size_t groups_used) {
    if (watchdog) {
      watchdog->round_committed(round, agg.last_contributors().size(),
                                groups_used);
    }
    if (!current || current->round != round) return;
    const std::vector<PeerId>& who = agg.last_contributors();
    double expected = 0.0;
    for (PeerId p : who) expected += static_cast<double>(p + 1);
    expected /= static_cast<double>(who.empty() ? 1 : who.size());
    double err = 0.0;
    for (float v : g) {
      err = std::max(err, std::abs(static_cast<double>(v) - expected));
    }
    current->committed = true;
    current->contributors = who.size();
    current->max_abs_error = err;
  };
  if (cfg.capture_spans) {
    // Abort flight recorder: dump the round's retained spans the moment
    // the round is torn down (abort_round fires before the next round's
    // spans open, so the dump is the abort-time snapshot).
    agg.on_round_aborted = [&](std::uint64_t round) {
      res.postmortems.push_back(obs::make_postmortem(sim.obs().spans, round));
    };
  }

  // Fault plan: ambient faults come from cfg.net.faults; the engine adds
  // churn and the partition window. Both end early enough that the tail
  // rounds run on a healed network.
  ChaosPlan plan;
  const SimTime total = static_cast<SimTime>(cfg.rounds) * cfg.round_interval;
  if (cfg.churn_mttf > 0) {
    ChurnSpec churn;
    churn.start = cfg.round_interval / 2;
    churn.end = std::max<SimTime>(churn.start + 1,
                                  total - 3 * cfg.round_interval);
    churn.mttf = cfg.churn_mttf;
    churn.mttr = cfg.churn_mttr;
    churn.peers = topo.all_peers();
    churn.max_concurrent_down = std::max<std::size_t>(1, cfg.peers / 3);
    plan.churn(churn);
  }
  if (cfg.partition_at > 0 && cfg.heal_at > cfg.partition_at) {
    std::vector<PeerId> island = topo.group(0);
    std::vector<PeerId> mainland;
    for (PeerId p : topo.all_peers()) {
      if (std::find(island.begin(), island.end(), p) == island.end()) {
        mainland.push_back(p);
      }
    }
    plan.partition_window(cfg.partition_at, cfg.heal_at,
                          {island, mainland});
  }
  ChaosEngine engine(net, std::move(plan));
  engine.start();

  for (std::uint64_t r = 1; r <= cfg.rounds; ++r) {
    // Leadership from liveness: first live member leads its subgroup,
    // first live subgroup leader chairs the FedAvg layer (the Raft
    // backend's steady-state answer, without running Raft here).
    core::RoundLeadership lead;
    lead.subgroup_leaders.assign(topo.subgroup_count(), kNoPeer);
    for (SubgroupId g = 0; g < topo.subgroup_count(); ++g) {
      for (PeerId p : topo.group(g)) {
        if (!net.crashed(p)) {
          lead.subgroup_leaders[g] = p;
          break;
        }
      }
      if (lead.subgroup_leaders[g] == kNoPeer) {
        lead.subgroup_leaders[g] = topo.group(g).front();  // all dead
      }
      if (lead.fedavg_leader == kNoPeer &&
          !net.crashed(lead.subgroup_leaders[g])) {
        lead.fedavg_leader = lead.subgroup_leaders[g];
      }
    }
    if (lead.fedavg_leader == kNoPeer) {
      // Even a skipped tick (no live leader candidate anywhere) becomes
      // an uncommitted sample: a crash window shows up in the series as
      // censored round latency, not as a silent gap.
      ++res.rounds_skipped;
      if (watchdog) watchdog->round_started(r);
      sim.run_for(cfg.round_interval);
      if (watchdog) watchdog->round_finished(r);
      continue;
    }

    current = RoundOutcome{};
    current->round = r;
    ++res.rounds_started;
    if (watchdog) watchdog->round_started(r);
    agg.begin_round(r, lead, model_of);
    sim.run_for(cfg.round_interval);
    if (watchdog) watchdog->round_finished(r);

    if (current->committed) {
      ++res.rounds_committed;
      res.max_abs_error = std::max(res.max_abs_error,
                                   current->max_abs_error);
      if (current->max_abs_error > kExactTol) {
        res.all_commits_exact = false;
      }
    } else {
      ++res.rounds_aborted;
    }
    res.outcomes.push_back(*current);
    current.reset();
  }

  if (cfg.capture_spans) {
    // Tear down a trailing undecided round so its abort (and post-mortem)
    // is recorded, then extract every committed round's critical path.
    agg.abort_round();
    obs::SpanRecorder& spans = sim.obs().spans;
    for (const RoundOutcome& oc : res.outcomes) {
      if (oc.committed) {
        res.critical_paths.push_back(extract_critical_path(spans, oc.round));
      }
    }
    res.spans_jsonl = obs::spans_jsonl(spans);
  }

  if (watchdog) {
    res.timeseries_jsonl = watchdog->series().jsonl();
    res.slo_report = watchdog->report();
    res.slo_alerts = watchdog->alerts();
  }

  res.crashes = engine.crashes();
  res.restarts = engine.restarts();
  res.traffic = net.stats();
  bool tail_commit = false;
  const std::size_t tail = std::min<std::size_t>(3, res.outcomes.size());
  for (std::size_t i = res.outcomes.size() - tail; i < res.outcomes.size();
       ++i) {
    if (res.outcomes[i].committed) tail_commit = true;
  }
  res.liveness_ok = res.rounds_committed > 0 && tail_commit;
  if (cfg.capture_trace) {
    res.trace_json =
        cfg.capture_spans
            ? obs::chrome_trace_json(sim.obs().trace, sim.obs().spans)
            : obs::chrome_trace_json(sim.obs().trace);
  }
  return res;
}

bool fully_healed(const core::HealthReport& hr) {
  if (hr.fedavg_leader == kNoPeer) return false;
  for (const core::SubgroupHealth& h : hr.subgroups) {
    if (h.leader == kNoPeer || h.parked) return false;
    if (!h.suspected.empty() || !h.evicted.empty()) return false;
    // The FedAvg layer is representative-based: every subgroup's leader
    // must hold a seat there.
    if (std::find(hr.fedavg_members.begin(), hr.fedavg_members.end(),
                  h.leader) == hr.fedavg_members.end()) {
      return false;
    }
  }
  return true;
}

SyntheticTask::SyntheticTask(std::size_t peers, std::uint64_t seed,
                             const std::string& dist) {
  fl::SyntheticSpec spec;
  spec.height = 8;
  spec.width = 8;
  spec.train_samples = 400;
  spec.test_samples = 120;
  spec.noise_scale = 0.6;
  Rng data_rng(seed);
  data = fl::make_synthetic(spec, data_rng);
  if (dist == "iid") {
    parts = fl::partition_iid(data.train, peers, data_rng);
  } else {
    P2PFL_CHECK_MSG(dist == "noniid5" || dist == "noniid0",
                    "unknown dist '" + dist + "'");
    parts = fl::partition_non_iid(data.train, peers,
                                  dist == "noniid5" ? 0.05 : 0.0, data_rng);
  }
}

namespace {

fl::Model task_model() { return fl::Model::mlp(64, {16}); }

}  // namespace

double TrainingResult::units(std::size_t i) const {
  return static_cast<double>(round_payload.at(i)) /
         static_cast<double>(4 * global.size());
}

bool TrainingResult::all_exact() const {
  if (!finished) return false;
  for (std::size_t i = 0; i < round_payload.size(); ++i) {
    if (units(i) != expected_units) return false;
  }
  return true;
}

TrainingResult run_training(net::Network& net, const TrainingConfig& cfg) {
  P2PFL_CHECK(cfg.groups > 0 && cfg.peers % cfg.groups == 0);
  const std::size_t n = cfg.peers / cfg.groups;
  const std::size_t k = cfg.k == 0 ? n : cfg.k;
  P2PFL_CHECK(k <= n);
  net::Transport& tr = net.transport();
  const SyntheticTask task(cfg.peers, cfg.seed, cfg.dist);

  core::SystemConfig scfg = core::SystemConfig::real_clock();
  scfg.agg.sac_dropout_tolerance = n - k;
  scfg.learning_rate = 3e-3f;
  scfg.seed = cfg.seed;
  core::P2pFlSystem sys(core::Topology::even(cfg.peers, cfg.groups), scfg,
                        net, task.data.train, task.data.test, task.parts,
                        task_model);

  TrainingResult res;
  // On the callback thread, where stats() is safe to read.
  sys.on_round_complete = [&](std::uint64_t, const secagg::Vector&,
                              std::size_t) {
    res.snapshots.push_back(net.stats().sent_by_kind);
  };
  tr.start();
  tr.call([&] { sys.start(); });
  res.finished = tr.run_until(
      [&] { return res.snapshots.size() >= cfg.rounds + 1; },
      static_cast<SimDuration>(30 + 3 * cfg.rounds) * kSecond,
      20 * kMillisecond);
  tr.shutdown();

  const auto payload = [](const auto& snapshot) {
    std::uint64_t sum = 0;
    for (const auto& [kind, c] : snapshot) sum += c.payload;
    return sum;
  };
  for (std::size_t r = 1; r <= cfg.rounds && r < res.snapshots.size(); ++r) {
    res.round_payload.push_back(payload(res.snapshots[r]) -
                                payload(res.snapshots[r - 1]));
  }
  res.global = sys.global_model_at(0);
  res.expected_units =
      k == n ? analysis::two_layer_cost_eq4(cfg.groups, n)
             : analysis::two_layer_ft_cost_eq5(cfg.peers, cfg.groups, n, k);
  res.rounds_completed = sys.rounds_completed();
  res.rounds_aborted = sys.rounds_aborted();
  res.accuracy = sys.evaluate_global().accuracy;
  return res;
}

std::vector<PeerId> pure_followers(const core::TwoLayerRaftSystem& raft) {
  std::vector<PeerId> out;
  for (PeerId p : raft.topology().all_peers()) {
    bool leads = p == raft.fedavg_leader();
    for (SubgroupId g = 0; g < raft.topology().subgroup_count(); ++g) {
      leads = leads || raft.subgroup_leader(g) == p;
    }
    if (!leads) out.push_back(p);
  }
  return out;
}

HealSoakResult run_heal_soak(net::Network& net, const HealSoakConfig& cfg) {
  P2PFL_CHECK(cfg.groups > 0 && cfg.peers % cfg.groups == 0);
  P2PFL_CHECK(!cfg.wal_dir.empty());
  net::Transport& tr = net.transport();
  const core::Topology topo = core::Topology::even(cfg.peers, cfg.groups);
  const SyntheticTask task(cfg.peers, cfg.seed);

  // Touched only on the callback thread (in callbacks and in call() and
  // run_until() closures) until the transport shuts down.
  HealSoakResult res;
  std::set<PeerId> evicted, rejoined;

  core::SystemConfig scfg = core::SystemConfig::real_clock();
  // Self-healing timing sized so an 8-second crash reliably outlives the
  // suspicion grace; one dead peer per subgroup is tolerated by SAC.
  scfg.raft.config_commit_interval = 500 * kMillisecond;
  scfg.raft.suspicion_grace = 4 * kSecond;
  scfg.raft.membership_poll = 500 * kMillisecond;
  scfg.raft.rejoin_retry = 500 * kMillisecond;
  scfg.raft.storage_dir = cfg.wal_dir;
  scfg.agg.sac_dropout_tolerance = 1;
  // Rounds tick every second, so the restarted victim refreshes its
  // model from the next live round result; a catch-up pull would be
  // answered with a deliberate snapshot push and muddy the
  // zero-state-transfer verdict.
  scfg.catchup_retry = 60 * kSecond;
  scfg.learning_rate = 3e-3f;
  scfg.seed = cfg.seed;
  core::P2pFlSystem sys(topo, scfg, net, task.data.train, task.data.test,
                        task.parts, task_model);

  sys.raft().on_peer_evicted = [&](PeerId p, bool fed_layer) {
    if (!fed_layer) evicted.insert(p);
  };
  sys.raft().on_peer_rejoined = [&](PeerId p) { rejoined.insert(p); };
  sys.on_round_complete = [&](std::uint64_t, const secagg::Vector&,
                              std::size_t) {
    ++res.rounds;
    if (cfg.on_round) cfg.on_round(res.rounds);
  };

  tr.start();
  const SimTime t0 = tr.now();
  tr.call([&] {
    sys.start();
    for (PeerId p : topo.all_peers()) {
      res.recovered_at_start +=
          sys.raft().subgroup_node(p).recovered_from_storage();
    }
  });
  res.stabilized = tr.run_until([&] { return sys.raft().stabilized(); },
                                60 * kSecond, 20 * kMillisecond);

  std::optional<ChaosEngine> engine;
  if (res.stabilized) {
    tr.call([&] {
      // The last: furthest from the designated leaders.
      const std::vector<PeerId> followers = pure_followers(sys.raft());
      if (!followers.empty()) res.victim = followers.back();
      const SimTime now = tr.now();
      ChaosPlan plan;
      // On TCP the sockets RST and reconnect; on the simulator the
      // outage is a modeled stall pair.
      plan.conn_reset_at(now + 1 * kSecond, topo.group(0)[0],
                         topo.group(0)[1]);
      plan.throttle_window(now + 1 * kSecond, now + 3 * kSecond,
                           topo.group(1)[1], /*bytes_per_sec=*/4'000'000);
      plan.crash_at(now + 2 * kSecond, res.victim);
      plan.restart_at(now + 10 * kSecond, res.victim);
      ChaosEngineHooks hooks;
      hooks.crash = [&sys](PeerId p) { sys.crash_peer(p); };
      hooks.restart = [&sys](PeerId p) { sys.restart_peer(p); };
      engine.emplace(net, std::move(plan), std::move(hooks));
      engine->start();
    });
    res.healed = tr.run_until(
        [&] {
          return rejoined.count(res.victim) > 0 &&
                 sys.raft().stabilized() &&
                 fully_healed(
                     sys.raft().health(scfg.agg.sac_dropout_tolerance)) &&
                 res.rounds >= cfg.min_rounds;
        },
        static_cast<SimDuration>(120 + 3 * cfg.min_rounds) * kSecond,
        20 * kMillisecond);
  }

  tr.call([&] {
    res.elapsed_s = to_ms(tr.now() - t0) / 1000.0;
    for (PeerId p : topo.all_peers()) {
      if (sys.raft().subgroup_node(p).in_config()) res.in_config.insert(p);
    }
    res.fedavg_members = sys.raft().fedavg_members().size();
    if (res.victim != kNoPeer) {
      raft::RaftNode& victim = sys.raft().subgroup_node(res.victim);
      res.victim_evicted = evicted.count(res.victim) > 0;
      res.victim_recovered = victim.recovered_from_storage();
      res.victim_snapshot_installs = victim.metrics().snapshot_installs;
    }
    if (engine) res.faults_injected = engine->faults_injected();
  });
  tr.shutdown();
  res.accuracy = sys.evaluate_global().accuracy;
  return res;
}

}  // namespace p2pfl::chaos
