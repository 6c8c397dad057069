// system_1k: the whole core::P2pFlSystem on the simulator. N=1000 peers
// in subgroups of ~32 with k = n-1, both Raft layers (in memory; the WAL
// is timed by a probe, see NOTES.md), a 16->4->10 MLP on 4x4 synthetic
// images (training costs almost nothing), 0.5% message loss, eight
// scripted member crash/restarts and one crash/restart of whichever peer
// leads the FedAvg layer. Bound by the control plane: Raft timers,
// heartbeats, retries and the per-message path.
#include <cstdio>
#include <filesystem>
#include <set>
#include <unistd.h>

#include "chaos/engine.hpp"
#include "chaos/plan.hpp"
#include "common/parallel.hpp"
#include "core/system.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace p2pfl;

namespace {

constexpr std::size_t kPeers = 1000, kGroupSize = 32;
constexpr double kLoss = 0.005;
constexpr std::size_t kMemberCrashes = 8;
constexpr SimDuration kTick = 2 * kSecond;  // SystemConfig::round_interval
constexpr SimDuration kDowntime = 600 * kMillisecond;
constexpr int kSetups = 3;

std::uint64_t fnv1a(const std::vector<float>& v) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(float); ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

struct Pass {
  RoundTimeline tl;
  std::size_t started = 0, committed = 0, ok = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::uint64_t> counts;  // whole run, exact
  std::map<std::string, double> per_round;      // timed phase / rounds
  std::vector<double> virtual_ms;
  std::map<std::string, double> critical_path;
  std::size_t depth = 0;
  std::vector<std::string> registry_names;
  double heap_mb = 0.0;
  double failover_ms = 0.0;
};

Pass run_pass(std::size_t rounds, std::uint64_t seed, bool traced) {
  Pass p;
  // Inputs (excluded from setup_s): data shards and the schedule.
  fl::SyntheticSpec spec;
  spec.channels = 1;
  spec.height = 4;
  spec.width = 4;
  spec.train_samples = 4 * kPeers;
  spec.test_samples = 100;
  Rng data_rng = Rng(seed).fork(1);
  const fl::TrainTest data = fl::make_synthetic(spec, data_rng);
  const fl::PeerIndices parts = fl::partition_iid(data.train, kPeers, data_rng);
  const core::Topology topo = core::Topology::by_group_size(kPeers, kGroupSize);
  // Rounds start on round-timer ticks, so crash times fixed relative to a tick
  // give every seed the same round structure. A member dies 10 ms into a
  // round, after sending its shares and before receiving any, so its
  // subgroup recovers its subtotals through Alg. 4; it is back 600 ms
  // later, inside suspicion_grace, so it is never evicted. The FedAvg
  // leader dies 1 ms before a tick: no round is in flight, and the next
  // round waits for the new leader.
  chaos::ChaosPlan plan;
  for (std::size_t i = 0; i < kMemberCrashes; ++i) {
    plan.crash_for(static_cast<SimTime>(3 + i) * kTick + 10 * kMillisecond,
                   topo.group(1 + i).back(), kDowntime);
  }
  const SimTime leader_crash_at =
      static_cast<SimTime>(4 + kMemberCrashes + rounds / 4) * kTick - kMillisecond;

  p.tl.start();
  sim::Simulator sim(seed);
  if (traced) sim.obs().spans.set_enabled(true);
  net::Network net(sim, {.base_latency = 15 * kMillisecond});
  net.set_default_faults({.drop_prob = kLoss});
  core::SystemConfig cfg;
  cfg.agg.sac_dropout_tolerance = 1;  // k = n - 1
  // Retry timers sized to the 15 ms links: a lost share costs ~100 ms
  // instead of 500 ms, so even a round with a crash ends well inside the
  // 2 s round period and no seed loses a round to supersession.
  cfg.agg.sac_share_timeout = 100 * kMillisecond;
  cfg.agg.sac_subtotal_timeout = 100 * kMillisecond;
  cfg.agg.upload_retry = 300 * kMillisecond;
  // A subgroup that cannot finish its SAC in time is left out of the
  // round (the paper's slow-subgroup timeout) before the next tick
  // would supersede the whole round.
  cfg.agg.collect_timeout = 1500 * kMillisecond;
  cfg.round_interval = kTick;
  cfg.seed = seed;
  core::P2pFlSystem sys(topo, cfg, net, data.train, data.test, parts,
                        [] { return fl::Model::mlp(16, {4}, 10); });
  chaos::ChaosEngineHooks hooks;
  hooks.crash = [&](PeerId id) { sys.crash_peer(id); };
  hooks.restart = [&](PeerId id) { sys.restart_peer(id); };
  chaos::ChaosEngine chaos(net, plan, hooks);

  auto& metrics = sim.obs().metrics;
  std::set<std::uint64_t> committed_models;
  std::uint64_t latest_model = 0;
  std::vector<std::uint64_t> committed_rounds;
  SimTime round_start = 0;
  SimTime crashed_leader_at = -1;
  std::map<std::string, std::uint64_t> at_warmup;
  auto snapshot = [&] {
    std::map<std::string, std::uint64_t> s;
    for (const char* c : {"sim.events_dispatched", "sim.timer_fires",
                          "sac.share_retries", "sac.recovery_requests",
                          "raft.entries_applied", "sac.rounds_started"}) {
      s[c] = metrics.counter_value(c);
    }
    for (const auto& [fam, n] : messages_by_family(net.stats())) s["msgs." + fam] = n;
    s["wire_bytes"] = net.stats().sent.bytes;
    return s;
  };

  // The output check of the last committed round, run once its fan-out
  // has landed (at the next round start, or at the end of the run):
  // every peer that holds a global model holds one the FedAvg leader
  // committed, bit for bit. Peers holding the latest one trained on it.
  bool unchecked = false;
  double trained = 0.0;
  std::size_t trained_samples = 0;
  auto check_last_round = [&](const char* when) {
    if (!unchecked) return;
    unchecked = false;
    Span s("core.check_models", "core");
    std::size_t holding_latest = 0;
    for (PeerId id : topo.all_peers()) {
      const auto& m = sys.global_model_at(id);
      if (m.empty()) continue;
      const std::uint64_t h = fnv1a(m);
      if (committed_models.count(h) == 0) {
        p.failures.push_back(std::string(when) + ": peer " + std::to_string(id) +
                             " holds a model no round committed");
        return;
      }
      if (h == latest_model) ++holding_latest;
    }
    ++p.ok;
    if (p.committed >= 2) {  // timed rounds only
      trained += static_cast<double>(holding_latest);
      ++trained_samples;
    }
  };

  sys.on_round_started = [&](std::uint64_t) {
    check_last_round("round start");
    ++p.started;
    round_start = sim.now();
    p.depth = std::max(p.depth, sim.pending());
  };
  sys.on_round_complete = [&](std::uint64_t round, const secagg::Vector& global,
                              std::size_t) {
    ++p.committed;
    unchecked = true;
    latest_model = fnv1a(global);
    committed_models.insert(latest_model);
    committed_rounds.push_back(round);
    p.virtual_ms.push_back(to_ms(sim.now() - round_start));
    if (crashed_leader_at >= 0 && p.failover_ms == 0.0) {
      p.failover_ms = to_ms(sim.now() - crashed_leader_at);
    }
    p.tl.commit();
    if (p.committed == 1) at_warmup = snapshot();
    if (p.committed == rounds + 1) sim.stop();
  };
  sys.on_round_aborted = [&](std::uint64_t round) {
    p.failures.push_back("round started at " + fmt("%.4g", to_ms(static_cast<SimTime>(round - 1)) / 1e3) +
                         " s (virtual) aborted at " + fmt("%.4g", to_ms(sim.now()) / 1e3) + " s");
  };
  sim.schedule_at(leader_crash_at, [&] {
    const PeerId leader = sys.raft().fedavg_leader();
    if (leader == kNoPeer) {
      p.failures.push_back("no FedAvg leader to crash");
      return;
    }
    crashed_leader_at = sim.now();
    sys.crash_peer(leader);
    sim.schedule_after(kDowntime, [&sys, leader] { sys.restart_peer(leader); });
  });

  {
    Span s("core.start", "core");
    sys.start();
    chaos.start();
  }
  {
    Span s("sim.run_until", "sim");
    sim.run_until(static_cast<SimTime>(rounds + 30) * kTick);
  }
  if (rounds == 0) return p;  // a set-up-only pass
  if (p.committed != rounds + 1) {
    p.failures.push_back("committed " + std::to_string(p.committed) + " of " +
                         std::to_string(rounds + 1) + " rounds");
  }
  const auto end = snapshot();
  // Let the last round's fan-out land, then check it like the others.
  sim.run_for(kTick / 4);
  check_last_round("run end");
  const double timed = static_cast<double>(rounds);
  for (const auto& [name, v] : end) {
    p.per_round[name] = static_cast<double>(v - at_warmup[name]) / timed;
  }
  p.per_round["trained"] = trained / static_cast<double>(std::max<std::size_t>(1, trained_samples));
  for (const auto& [name, v] : end) p.counts[name] = v;
  p.counts["commits"] = p.committed;
  p.counts["aborts"] = metrics.counter_value("agg.rounds_aborted");
  p.counts["faults"] = chaos.faults_injected();
  p.counts["elections"] = metrics.counter_value("raft.elections_started");
  p.counts["failover_us"] = static_cast<std::uint64_t>(p.failover_ms * 1000.0);
  p.heap_mb = heap_inuse_mb();
  for (const auto& [name, c] : metrics.counters()) p.registry_names.push_back(name);

  if (traced) {
    committed_rounds.erase(committed_rounds.begin());  // the warm-up
    p.critical_path = critical_path_ms(sim.obs().spans, committed_rounds);
  }
  return p;
}

}  // namespace

Result run_system_1k(const Options& opt) {
  // A round takes 0.39-0.65 s with the host's speed (NOTES.md); 0.45 s
  // gives 56 rounds at --seconds 25.
  const std::size_t rounds = rounds_for(opt.seconds, 0.45, 14, 160);
  // The simulator is single-threaded; a 4-sample MLP batch split over
  // worker threads would spend its time creating them (1000 peers train
  // every round), so this workload trains on the calling thread.
  set_parallel_workers(1);
  Result r;
  // Set-up (construction, elections, first round) is short here, so it
  // is measured kSetups times: warm-up-only passes, then the full one.
  std::vector<double> setups;
  for (int s = 1; s < kSetups; ++s) setups.push_back(run_pass(0, opt.seed, false).tl.setup_s());
  const Pass p = run_pass(rounds, opt.seed, false);
  setups.push_back(p.tl.setup_s());
  add_end_to_end(r, p.tl, kPeers, p.started, p.ok);
  r.metric("setup_s", median(setups), "s");
  r.check("peers_hold_committed_models", p.failures.empty(),
          p.failures.empty() ? "every peer's model is a committed global, bit for bit"
                             : p.failures.front());
  for (const auto& [k, v] : p.counts) r.count(k, v);
  r.info["wal_fs"] = fs_type(opt.work_dir) + " (probe only)";
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "system_1k: N=1000 in %zu subgroups, %zu timed rounds + 1 warm-up, "
                "failover %.0f ms virtual",
                core::Topology::by_group_size(kPeers, kGroupSize).subgroup_count(),
                rounds, p.failover_ms);
  r.note(buf);

  if (opt.trace) {
    Tracer tracer;
    set_tracer(&tracer);
    const Pass t = run_pass(rounds, opt.seed, true);
    r.check("traced_counts_match", t.counts == p.counts,
            "traced and untraced passes make identical counts");
    LayerReport rep;
    rep.round_s_untraced = p.tl.round_s_p50();
    rep.round_s_traced = t.tl.round_s_p50();
    const auto& pr = t.per_round;
    rep.events = pr.at("sim.events_dispatched");
    rep.timer_fires = pr.at("sim.timer_fires");
    for (const auto& [name, v] : pr) {
      if (name.rfind("msgs.", 0) == 0) rep.add_messages(name.substr(5), v);
    }
    rep.wire_mb = pr.at("wire_bytes") / 1e6;
    rep.mb_encoded = rep.wire_mb;
    rep.sac_retries = pr.at("sac.share_retries") + pr.at("sac.recovery_requests");
    rep.divides = pr.at("sac.rounds_started");
    const core::Topology topo = core::Topology::by_group_size(kPeers, kGroupSize);
    for (std::size_t g = 0; g < topo.subgroup_count(); ++g) {
      const double n = static_cast<double>(topo.group(g).size());
      rep.accumulates += n * n * 2.0 + n;  // n-k+1 = 2 shares per bundle
    }
    rep.trained_peers = pr.at("trained");
    rep.raft_elections = static_cast<double>(t.counts.at("elections"));
    rep.chaos_faults = static_cast<double>(t.counts.at("faults"));
    rep.heap_inuse_mb = t.heap_mb;
    rep.virtual_round_ms_p50 = median(t.virtual_ms);
    rep.failover_ms = t.failover_ms;
    rep.critical_path_ms = t.critical_path;

    rep.event_ns = probe_sim_event_ns(t.depth);
    rep.reset_ns = probe_sim_reset_ns(t.depth);
    rep.send_deliver_us = probe_send_deliver_us();
    rep.counter_ns = probe_counter_lookup_ns(t.registry_names, "sac/sg3/share");
    const std::size_t dim = fl::Model::mlp(16, {4}, 10).param_count();
    rep.codec = probe_share_codec(dim, kGroupSize, kGroupSize - 1);
    rep.divide_ms = probe_divide_ms(dim, kGroupSize);
    rep.accumulate_ms = probe_accumulate_ms(dim);
    fl::SyntheticSpec spec;
    spec.channels = 1;
    spec.height = 4;
    spec.width = 4;
    spec.train_samples = 64;
    spec.test_samples = 100;
    Rng data_rng(opt.seed);
    rep.fl = probe_fl([] { return fl::Model::mlp(16, {4}, 10); },
                      fl::make_synthetic(spec, data_rng), 4, 100, 1e-3f);
    rep.raft = probe_raft_propose_commit();
    const std::string wal_dir = opt.work_dir + "/wal-" + std::to_string(getpid());
    rep.wal_us = probe_wal_append_sync_us(wal_dir);
    std::filesystem::remove_all(wal_dir);
    set_tracer(nullptr);
    add_layer_metrics(r, rep, tracer);
    write_spans(opt, tracer);
  }
  return r;
}

}  // namespace perfbench
