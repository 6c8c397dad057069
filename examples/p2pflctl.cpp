// p2pflctl — command-line front end for the library.
//
//   p2pflctl train    [--peers=N --groups=m --k=K --rounds=R --seed=S]
//                     [--dist=iid|noniid5|noniid0] [--checkpoint=FILE]
//                     [--transport=sim|tcp]
//   p2pflctl cost     [--peers=N --n=K --k=K2 --params=P]
//   p2pflctl health   [--peers=N --groups=m --timeout-ms=T --tolerance=F]
//                     [--amnesia] [--wal[=DIR]] [--seed=S]
//   p2pflctl attack   [--peers=N --groups=m --attack=KIND --defense=RULE]
//                     [--magnitude=M --strike-limit=K --loss=P --seed=S]
//   p2pflctl recovery [--peers=N --groups=m --timeout-ms=T --crash=sub|fed]
//   p2pflctl trace    [--peers=N --groups=m --timeout-ms=T --crash=sub|fed]
//                     [--out=BASE] [--categories=sim,net,raft,agg]
//   p2pflctl chaos    [--peers=N --groups=m --rounds=R --seed=S]
//                     [--loss=P --dup=P --reorder-ms=J]
//                     [--corrupt=P --truncate=P]
//                     [--churn-mttf=MS --churn-mttr=MS]
//                     [--partition-at=MS --heal-at=MS --interval=MS]
//   p2pflctl chaos    --wal=DIR [--transport=sim|tcp]
//                     [--peers=N --groups=m --rounds=R --seed=S]
//                     [--kill-after-round=N] [--resume]
//   p2pflctl explain  [same scenario flags as chaos, fault-free default]
//                     [--round=N] [--out=BASE]
//   p2pflctl watch    [same scenario flags as chaos, fault-free default]
//                     [--max-latency-ms=T --out=BASE]
//   p2pflctl wire     [--dim=D --n=N --k=K --seed=S] [--dump=KEY]
//
// Everything runs on the deterministic simulator, where identical flags
// give identical results. `train` and `chaos --wal` also run over real
// loopback TCP sockets (`--transport=tcp`, net::tcp::TcpTransport), as
// one scenario on either transport. `train` runs the full FedAvg
// system and checks every round's payload bytes against the paper's
// Eq. (4), or Eq. (5) when --k < n — exit status 1 on any mismatch.
// `trace` replays the recovery scenario with the
// observability layer on and writes BASE.metrics.jsonl plus
// BASE.trace.json (Chrome trace_event format; open in about://tracing).
// `chaos` runs two-layer aggregation rounds under a scripted fault plan
// (message loss, duplication, reordering, crash/restart churn and an
// optional partition window) and checks that every committed round is
// the exact average of its contributing peers. `chaos --wal=DIR` (the
// default with `--transport=tcp`) runs the self-healing scenario instead,
// with WAL-backed Raft state in DIR: it injects a connection reset, a
// bandwidth-throttle window and a crash/restart through the chaos
// engine, then verifies the victim rejoined from its on-disk log with
// zero InstallSnapshot RPCs; it reads none of the fault-plan flags, so
// passing one there exits 2, naming it. `--kill-after-round=N` SIGKILLs
// the whole process mid-run (exit 137) so a second invocation with
// `--resume` can prove peers recover from the write-ahead logs it left
// behind.
// `health` exercises the
// self-healing membership path end to end — stabilize, crash a peer,
// watch it get suspected and evicted, restart it (optionally with
// amnesia) and watch it rejoin — printing the live membership table at
// each stage; exit status reflects whether the final state is fully
// healed. With `--wal[=DIR]` the cluster runs on persistent Raft
// storage and the verdict reports whether the restarted peer replayed
// its state from disk, plus the raft.*/chaos.transport.*/net.tcp.*
// durability counters (these also land in the `--json` document). `attack` turns one subgroup follower adversarial mid-run
// (inconsistent SAC shares by default; any robust::AttackKind by flag)
// with Byzantine detection on, then reports the detection → strikes →
// denounce → eviction chain and the membership table with its banned
// column; exit 0 means the adversary was contained (or, for attacks SAC
// masking makes undetectable, tolerated) with zero honest suspects.
// `explain` replays the
// same scenario with causal span recording on and prints the chosen
// round's critical path — which phases, links and retries the
// end-to-end latency is attributable to — plus an abort post-mortem for
// every round that died. `watch` runs the chaos scenario under the SLO
// watchdog: a live per-round table (latency, bytes vs the Eq. (4)/(5)
// closed form, churn, breached rules), the final SLO report and one
// alert post-mortem per breach; `--out=BASE` writes
// BASE.timeseries.jsonl and BASE.slo.json. `wire` prints the codec
// catalog: every registered protocol message kind with its encoded size
// for the given deployment shape, plus a hex dump of one sample
// encoding.
//
// `health` and `attack` accept `--json` to print a single
// machine-readable verdict document instead of the human tables. Exit
// codes are uniform across subcommands: 0 = healthy / contained /
// passed, 1 = degraded / breach / failed, 2 = usage error (unknown
// command, unknown flag value, unwritable output path).
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "analysis/cost_model.hpp"
#include "bench/bench_util.hpp"
#include "bench/json_util.hpp"
#include "bench/obs_util.hpp"
#include "chaos/soak.hpp"
#include "core/system.hpp"
#include "core/two_layer_raft.hpp"
#include "core/wire.hpp"
#include "fl/checkpoint.hpp"
#include "net/backend.hpp"
#include "net/codec.hpp"
#include "raft/wire.hpp"
#include "secagg/wire.hpp"

using namespace p2pfl;

namespace {

/// The --transport flag: "sim" (default) or "tcp"; empty on a usage
/// error, which has been reported.
std::string transport_flag(const bench::Args& args) {
  const std::string transport = args.get("transport", "sim");
  if (transport == "sim" || transport == "tcp") return transport;
  std::fprintf(stderr, "unknown transport '%s' (sim|tcp)\n",
               transport.c_str());
  return "";
}

// `train`: the full two-layer FedAvg system (Raft-elected leaders, SAC
// subgroups, real local training) on either transport with the
// real-clock timing profile. Each round's payload bytes are checked
// against the paper's closed form, Eq. (4) or Eq. (5) when --k < n: on
// TCP this is the experiment that makes the simulator's cost numbers
// trustworthy.
int cmd_train(const bench::Args& args) {
  const std::string transport = transport_flag(args);
  if (transport.empty()) return 2;
  chaos::TrainingConfig cfg;
  cfg.peers = static_cast<std::size_t>(args.get_int("peers", 20));
  cfg.groups = static_cast<std::size_t>(args.get_int("groups", 5));
  cfg.rounds = static_cast<std::size_t>(args.get_int("rounds", 10));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 3));
  cfg.dist = args.get("dist", "iid");
  if (cfg.groups == 0 || cfg.peers % cfg.groups != 0) {
    std::fprintf(stderr, "train needs --peers divisible by --groups\n");
    return 2;
  }
  const std::size_t n = cfg.peers / cfg.groups;
  cfg.k = static_cast<std::size_t>(args.get_int("k", static_cast<long>(n)));
  if (cfg.k < 1 || cfg.k > n) {
    std::fprintf(stderr, "train needs 1 <= --k <= n = %zu\n", n);
    return 2;
  }
  if (cfg.dist != "iid" && cfg.dist != "noniid5" && cfg.dist != "noniid0") {
    std::fprintf(stderr, "unknown dist '%s' (iid|noniid5|noniid0)\n",
                 cfg.dist.c_str());
    return 2;
  }

  std::printf("training on %s: %zu peers in %zu subgroups of %zu, %zu-out-"
              "of-%zu SAC, %s, %zu rounds\n",
              transport.c_str(), cfg.peers, cfg.groups, n, cfg.k, n,
              cfg.dist.c_str(), cfg.rounds);
  net::Backend backend(transport, cfg.peers, cfg.seed);
  const chaos::TrainingResult res = chaos::run_training(backend.net(), cfg);
  if (!res.finished) {
    std::fprintf(stderr, "timed out after %zu completed rounds\n",
                 res.snapshots.size());
    return 1;
  }

  const char* eq = cfg.k == n ? "eq4" : "eq5";
  for (std::size_t i = 0; i < res.round_payload.size(); ++i) {
    std::printf("  round %3zu  payload %8llu B  = %7.1f |w|  %s %7.1f  %s\n",
                i + 1, static_cast<unsigned long long>(res.round_payload[i]),
                res.units(i), eq, res.expected_units,
                res.units(i) == res.expected_units ? "exact" : "MISMATCH");
  }
  const net::TrafficStats& st = backend.net().stats();
  std::printf("final: %.2f%% accuracy after %zu rounds; %llu B sent / %llu "
              "B delivered in %llu messages\n",
              res.accuracy * 100.0, res.rounds_completed,
              static_cast<unsigned long long>(st.sent.bytes),
              static_cast<unsigned long long>(st.delivered.bytes),
              static_cast<unsigned long long>(st.sent.messages));
  std::printf("per-round payload %s the Eq. (%s) closed form (%.1f |w|)\n",
              res.all_exact() ? "matches" : "DOES NOT match",
              cfg.k == n ? "4" : "5", res.expected_units);

  const std::string ckpt = args.get("checkpoint", "");
  if (!ckpt.empty()) {
    if (!fl::save_checkpoint(ckpt, res.global)) {
      std::fprintf(stderr, "failed to write checkpoint %s\n", ckpt.c_str());
      return 2;
    }
    std::printf("saved final global model (%zu params) to %s\n",
                res.global.size(), ckpt.c_str());
  }
  return res.all_exact() ? 0 : 1;
}

int cmd_cost(const bench::Args& args) {
  const std::size_t N = static_cast<std::size_t>(args.get_int("peers", 30));
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 3));
  const std::size_t k =
      static_cast<std::size_t>(args.get_int("k", static_cast<long>(n)));
  const analysis::ModelSize w{
      static_cast<std::uint64_t>(args.get_int("params", 1'250'000))};
  const auto groups = analysis::subgroups_by_target_size(N, n);
  std::printf("N=%zu, %zu subgroups of ~%zu, |w|=%.0f Mb\n", N,
              groups.size(), n, w.megabits());
  std::printf("  one-layer SAC : %8.2f Gb\n",
              w.gigabits_for(analysis::one_layer_sac_cost(N)));
  std::printf("  two-layer %zu-%zu: %8.2f Gb (%.2fx)\n", k, n,
              w.gigabits_for(analysis::two_layer_ft_cost(groups, n, k)),
              analysis::one_layer_sac_cost(N) /
                  analysis::two_layer_ft_cost(groups, n, k));
  std::printf("  plain FedAvg  : %8.2f Gb (no model privacy)\n",
              w.gigabits_for(2.0 * (N - 1)));
  return 0;
}

int cmd_recovery(const bench::Args& args, bool traced = false) {
  const std::size_t peers =
      static_cast<std::size_t>(args.get_int("peers", 25));
  const std::size_t groups =
      static_cast<std::size_t>(args.get_int("groups", 5));
  const SimDuration T = args.get_int("timeout-ms", 150) * kMillisecond;
  const bool crash_fed = args.get("crash", "sub") == "fed";

  sim::Simulator sim(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  if (traced) {
    sim.obs().trace.set_enabled(true);
    // --categories=net,raft limits the stream; default records all.
    std::string cats = args.get("categories", "");
    while (!cats.empty()) {
      const std::size_t comma = cats.find(',');
      sim.obs().trace.enable_category(cats.substr(0, comma));
      cats = comma == std::string::npos ? "" : cats.substr(comma + 1);
    }
  }
  net::Network net(sim, {.base_latency = 15 * kMillisecond});
  core::TwoLayerRaftOptions opts;
  opts.raft.election_timeout_min = T;
  opts.raft.election_timeout_max = 2 * T;
  core::TwoLayerRaftSystem sys(core::Topology::even(peers, groups), opts,
                               net);
  sys.on_subgroup_leader = [&](SubgroupId g, PeerId p) {
    std::printf("[%7.0fms] subgroup %u elected peer %u\n", to_ms(sim.now()),
                g, p);
  };
  sys.on_fedavg_leader = [&](PeerId p) {
    std::printf("[%7.0fms] FedAvg layer elected peer %u\n", to_ms(sim.now()),
                p);
  };
  sys.on_fedavg_joined = [&](PeerId p) {
    std::printf("[%7.0fms] peer %u (re)joined the FedAvg layer\n",
                to_ms(sim.now()), p);
  };
  sys.start_all();
  net::Transport& tr = net.transport();
  const auto stabilized = [&] { return sys.stabilized(); };
  if (!tr.run_until(stabilized, 30 * kSecond, 20 * kMillisecond)) {
    std::printf("failed to stabilize\n");
    return 1;
  }
  const PeerId fed = sys.fedavg_leader();
  PeerId victim = fed;
  if (!crash_fed) {
    for (SubgroupId g = 0; g < groups; ++g) {
      if (sys.subgroup_leader(g) != fed) {
        victim = sys.subgroup_leader(g);
        break;
      }
    }
  }
  std::printf("[%7.0fms] *** crashing %s leader, peer %u ***\n",
              to_ms(sim.now()), crash_fed ? "the FedAvg" : "a subgroup",
              victim);
  const SimTime t0 = sim.now();
  sys.crash_peer(victim);
  const bool recovered =
      tr.run_until(stabilized, 60 * kSecond, 20 * kMillisecond);
  if (recovered) {
    std::printf("[%7.0fms] system stable again — recovery took %.0f ms\n",
                to_ms(sim.now()), to_ms(sim.now() - t0));
  } else {
    std::printf("[%7.0fms] failed to re-stabilize within %.0f ms\n",
                to_ms(sim.now()), to_ms(sim.now() - t0));
  }
  // A failed recovery is the run most worth reading: export it too.
  if (traced) {
    bench::export_observability(sim, args.get("out", "p2pfl"));
  }
  return recovered ? 0 : 1;
}

std::string peer_list(const std::vector<PeerId>& v) {
  if (v.empty()) return "-";
  std::string s;
  for (PeerId p : v) {
    if (!s.empty()) s += ",";
    s += std::to_string(p);
  }
  return s;
}

void print_health(const sim::Simulator& sim,
                  const core::HealthReport& hr) {
  std::printf("[%7.0fms] FedAvg leader %s, %zu fed members [%s]\n",
              to_ms(sim.now()),
              hr.fedavg_leader == kNoPeer
                  ? "-"
                  : std::to_string(hr.fedavg_leader).c_str(),
              hr.fedavg_members.size(),
              peer_list(hr.fedavg_members).c_str());
  std::printf("  %3s %6s  %-12s %-12s %-10s %-8s %-7s %5s  %s\n", "sg",
              "leader", "config", "live", "suspected", "evicted", "banned",
              "k", "state");
  for (const core::SubgroupHealth& h : hr.subgroups) {
    std::printf("  %3u %6s  %-12s %-12s %-10s %-8s %-7s %2zu/%-2zu  %s\n",
                h.subgroup,
                h.leader == kNoPeer ? "-"
                                    : std::to_string(h.leader).c_str(),
                peer_list(h.config).c_str(), peer_list(h.live).c_str(),
                peer_list(h.suspected).c_str(),
                peer_list(h.evicted).c_str(), peer_list(h.banned).c_str(),
                h.effective_k, h.nominal_k,
                h.parked ? "PARKED" : (h.degraded ? "DEGRADED" : "ok"));
  }
}

/// JSON value for a possibly-absent peer id (kNoPeer -> null).
void peer_or_null(bench::JsonWriter& w, PeerId p) {
  if (p == kNoPeer) {
    w.value_raw("null");
  } else {
    w.value_u64(p);
  }
}

/// Append the membership snapshot (`fedavg_leader` + per-subgroup
/// summary) to an open --json verdict document.
void health_report_json(bench::JsonWriter& w, const core::HealthReport& hr) {
  w.key("fedavg_leader");
  peer_or_null(w, hr.fedavg_leader);
  w.field_u64("fedavg_members", hr.fedavg_members.size());
  w.key("subgroups").array_begin();
  for (const core::SubgroupHealth& h : hr.subgroups) {
    w.object_begin().field_u64("subgroup", h.subgroup);
    w.key("leader");
    peer_or_null(w, h.leader);
    w.field_u64("config", h.config.size())
        .field_u64("live", h.live.size())
        .field_u64("suspected", h.suspected.size())
        .field_u64("evicted", h.evicted.size())
        .field_u64("banned", h.banned.size())
        .field_u64("effective_k", h.effective_k)
        .field_u64("nominal_k", h.nominal_k)
        .field_str("state",
                   h.parked ? "parked" : (h.degraded ? "degraded" : "ok"))
        .object_end();
  }
  w.array_end();
}

/// Paths of the files in `dir` (the flat layout raft::WalStorage uses).
/// Missing directory is fine — it's created on first use.
std::vector<std::string> wal_files(const std::string& dir) {
  std::vector<std::string> files;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return files;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    files.push_back(dir + "/" + e->d_name);
  }
  ::closedir(d);
  return files;
}

void wipe_wal_dir(const std::string& dir) {
  for (const std::string& f : wal_files(dir)) ::unlink(f.c_str());
}

/// Append the durability/fault-injection metrics sub-object to an open
/// JSON document: every `raft.*` counter, every `chaos.transport.*`
/// counter, and a summary of the `raft.recovery_ms` histogram. The
/// names are exactly the registry names, so a dashboard can join this
/// against a metrics JSONL dump.
void durability_metrics_json(bench::JsonWriter& w,
                             const obs::MetricsRegistry& metrics) {
  w.key("metrics").object_begin();
  for (const auto& [name, c] : metrics.counters()) {
    if (name.rfind("raft.", 0) == 0 ||
        name.rfind("chaos.transport.", 0) == 0 ||
        name.rfind("net.tcp.", 0) == 0 ||
        name.rfind("membership.", 0) == 0) {
      w.field_u64(name, c.value());
    }
  }
  for (const auto& [name, h] : metrics.histograms()) {
    if (name != "raft.recovery_ms" || h.count() == 0) continue;
    w.key(name)
        .object_begin()
        .field_u64("count", h.count())
        .field_double("mean", h.mean(), "%.3f")
        .field_double("max", h.max(), "%.3f")
        .object_end();
  }
  w.object_end();
}

int cmd_health(const bench::Args& args) {
  const std::size_t peers =
      static_cast<std::size_t>(args.get_int("peers", 12));
  const std::size_t groups =
      static_cast<std::size_t>(args.get_int("groups", 3));
  const SimDuration T = args.get_int("timeout-ms", 100) * kMillisecond;
  const std::size_t tolerance =
      static_cast<std::size_t>(args.get_int("tolerance", 1));
  const bool amnesia = args.has("amnesia");
  const bool json = args.has("json");
  const bool wal = args.has("wal");

  sim::Simulator sim(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  net::Network net(sim, {.base_latency = 15 * kMillisecond});
  core::TwoLayerRaftOptions opts;
  opts.raft.election_timeout_min = T;
  opts.raft.election_timeout_max = 2 * T;
  if (wal) {
    // Crash-durable mode: every peer persists through a write-ahead
    // log, so the restart below is a true process restart — the state
    // comes back from disk, not from the surviving replicas.
    std::string dir = args.get("wal", "");
    if (dir.empty()) dir = "p2pflctl_health_wal";
    wipe_wal_dir(dir);
    opts.storage_dir = dir;
  }
  core::TwoLayerRaftSystem sys(core::Topology::even(peers, groups), opts,
                               net);

  PeerId victim = kNoPeer;
  double evict_ms = -1.0;
  double heal_ms = -1.0;
  // One machine-readable verdict document under --json (tables off).
  // `stage` names how far the scenario got: stabilize -> evict -> heal.
  auto verdict = [&](const char* stage, bool ok) {
    if (!json) return ok ? 0 : 1;
    bench::JsonWriter w = bench::bench_document("p2pflctl_health");
    w.field_u64("peers", peers)
        .field_u64("groups", groups)
        .field_bool("amnesia", amnesia)
        .field_bool("wal", wal)
        .key("victim");
    peer_or_null(w, victim);
    w.key("recovered_from_wal");
    if (victim == kNoPeer) {
      w.value_raw("null");
    } else {
      w.value_bool(sys.subgroup_node(victim).recovered_from_storage());
    }
    w.field_str("stage", stage)
        .field_bool("healed", ok)
        .field_double("evict_ms", evict_ms, "%.0f")
        .field_double("heal_ms", heal_ms, "%.0f");
    health_report_json(w, sys.health(tolerance));
    durability_metrics_json(w, sim.obs().metrics);
    w.object_end();
    std::printf("%s\n", w.str().c_str());
    return ok ? 0 : 1;
  };

  sys.start_all();
  net::Transport& tr = net.transport();
  if (!tr.run_until([&] { return sys.stabilized(); }, 30 * kSecond,
                    20 * kMillisecond)) {
    if (!json) std::printf("failed to stabilize\n");
    return verdict("stabilize", false);
  }
  if (!json) {
    std::printf("--- stabilized ---\n");
    print_health(sim, sys.health(tolerance));
  }

  // Crash a pure subgroup follower so both layers must notice and evict.
  const std::vector<PeerId> followers = chaos::pure_followers(sys);
  if (!followers.empty()) victim = followers.front();
  if (!json) std::printf("\n--- crashing peer %u ---\n", victim);
  sys.crash_peer(victim);
  const SimTime t0 = sim.now();
  auto evicted = [&] {
    const core::HealthReport hr = sys.health(tolerance);
    const SubgroupId g = sys.topology().subgroup_of(victim);
    const auto& ev = hr.subgroups[g].evicted;
    return std::find(ev.begin(), ev.end(), victim) != ev.end();
  };
  const bool was_evicted =
      tr.run_until(evicted, 60 * kSecond, 50 * kMillisecond);
  evict_ms = to_ms(sim.now() - t0);
  if (!json) print_health(sim, sys.health(tolerance));
  if (!was_evicted) {
    if (!json) std::printf("peer %u was never evicted\n", victim);
    return verdict("evict", false);
  }

  if (!json) {
    std::printf("\n--- restarting peer %u%s ---\n", victim,
                amnesia ? " (amnesia)" : "");
  }
  if (amnesia) {
    sys.restart_peer_amnesia(victim);
  } else {
    sys.restart_peer(victim);
  }
  const SimTime t1 = sim.now();
  const bool healed = tr.run_until(
      [&] {
        return sys.stabilized() && chaos::fully_healed(sys.health(tolerance));
      },
      120 * kSecond, 50 * kMillisecond);
  heal_ms = to_ms(sim.now() - t1);
  if (!json) {
    print_health(sim, sys.health(tolerance));
    std::printf("\nself-healing: %s (evict %.0f ms after crash, heal %.0f "
                "ms after restart)\n",
                healed ? "OK" : "FAILED", evict_ms, heal_ms);
    if (wal && victim != kNoPeer) {
      std::printf("wal: peer %u %s from disk (raft.recoveries=%llu)\n",
                  victim,
                  sys.subgroup_node(victim).recovered_from_storage()
                      ? "recovered"
                      : "did NOT recover",
                  static_cast<unsigned long long>(
                      sim.obs().metrics.counter_value("raft.recoveries")));
    }
  }
  return verdict("heal", healed);
}

int cmd_attack(const bench::Args& args) {
  const std::size_t peers =
      static_cast<std::size_t>(args.get_int("peers", 12));
  const std::size_t groups =
      static_cast<std::size_t>(args.get_int("groups", 3));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 7));
  const SimDuration horizon = args.get_int("seconds", 90) * kSecond;
  const bool json = args.has("json");

  robust::AttackKind kind;
  const std::string attack = args.get("attack", "inconsistent_shares");
  if (!robust::attack_from_name(attack, kind) ||
      kind == robust::AttackKind::kNone) {
    std::fprintf(stderr, "unknown attack '%s'\n", attack.c_str());
    return 2;
  }
  robust::RobustRule rule;
  const std::string defense = args.get("defense", "trimmed_mean");
  if (!robust::rule_from_name(defense, rule)) {
    std::fprintf(stderr, "unknown defense '%s'\n", defense.c_str());
    return 2;
  }
  // Equivocation only manifests on retries, so give it a lossy network
  // by default (retries carry the divergent payloads).
  const bool detectable =
      kind == robust::AttackKind::kInconsistentShares ||
      kind == robust::AttackKind::kEquivocate;
  const double loss = args.get_double(
      "loss", kind == robust::AttackKind::kEquivocate ? 0.15 : 0.0);

  sim::Simulator sim(seed);
  net::NetworkConfig nopts;
  nopts.base_latency = 15 * kMillisecond;
  nopts.faults.drop_prob = loss;
  net::Network net(sim, nopts);
  const chaos::SyntheticTask task(peers, seed);

  robust::ByzantineRegistry registry;
  core::SystemConfig cfg;
  cfg.raft.raft.election_timeout_min = 50 * kMillisecond;
  cfg.raft.raft.election_timeout_max = 100 * kMillisecond;
  cfg.raft.fedavg_presence_poll = 100 * kMillisecond;
  cfg.round_interval = 1 * kSecond;
  cfg.train_duration = 100 * kMillisecond;
  cfg.learning_rate = 3e-3f;
  cfg.seed = seed;
  cfg.suspect_strike_limit =
      static_cast<std::size_t>(args.get_int("strike-limit", 2));
  cfg.agg.detect_byzantine = true;
  cfg.agg.byzantine = &registry;
  cfg.agg.robust.rule = rule;
  cfg.agg.robust.trim_fraction = args.get_double("trim", 0.2);
  core::P2pFlSystem sys(core::Topology::even(peers, groups), cfg, net,
                        task.data.train, task.data.test, task.parts,
                        [] { return fl::Model::mlp(64, {16}); });

  // Detection-chain counters reported by both output modes. Read with
  // counter_value() so an unfired counter reports 0 without the lookup
  // itself registering it into the metric dump.
  static constexpr const char* kDetectionCounters[] = {
      "byzantine.models_poisoned", "byzantine.inconsistent_bundles_sent",
      "byzantine.equivocations_sent", "byzantine.share_check_failed",
      "byzantine.upload_equivocations", "byzantine.suspected",
      "byzantine.strikes", "membership.denounced", "membership.evicted"};

  PeerId victim = kNoPeer;
  // One machine-readable verdict document under --json (tables off).
  auto emit_json = [&](const char* verdict, bool ok, bool honest_struck) {
    bench::JsonWriter w = bench::bench_document("p2pflctl_attack");
    w.field_str("attack", robust::attack_name(kind))
        .field_str("defense", robust::rule_name(rule))
        .field_bool("detectable", detectable)
        .field_double("loss", loss, "%.4g")
        .field_u64("strike_limit", cfg.suspect_strike_limit)
        .key("victim");
    peer_or_null(w, victim);
    w.field_u64("rounds_completed", sys.rounds_completed())
        .field_bool("banned",
                    victim != kNoPeer && sys.raft().is_banned(victim))
        .field_bool("honest_strikes", honest_struck)
        .field_str("verdict", verdict)
        .field_bool("ok", ok);
    w.key("counters").object_begin();
    for (const char* key : kDetectionCounters) {
      w.field_u64(key, sim.obs().metrics.counter_value(key));
    }
    w.object_end().object_end();
    std::printf("%s\n", w.str().c_str());
    return ok ? 0 : 1;
  };

  sys.start();
  net::Transport& tr = net.transport();
  if (!tr.run_until([&] { return sys.rounds_completed() >= 2; },
                    30 * kSecond, 100 * kMillisecond)) {
    if (!json) std::printf("rounds never started\n");
    return json ? emit_json("no_rounds", false, false) : 1;
  }

  // Turn a pure subgroup follower adversarial: its SAC leader must
  // catch it from the share evidence alone.
  const std::vector<PeerId> followers = chaos::pure_followers(sys.raft());
  if (!followers.empty()) victim = followers.front();
  registry.activate(victim,
                    {kind, args.get_double("magnitude", 10.0)});
  if (!json) {
    std::printf("[%7.0fms] *** peer %u turns Byzantine: %s (defense %s, "
                "loss %.2f, strike limit %zu) ***\n",
                to_ms(sim.now()), victim, robust::attack_name(kind),
                robust::rule_name(rule), loss, cfg.suspect_strike_limit);
  }

  const SimTime t0 = sim.now();
  auto evicted = [&] {
    const core::HealthReport hr = sys.raft().health(1);
    const SubgroupId g = sys.raft().topology().subgroup_of(victim);
    const auto& ev = hr.subgroups[g].evicted;
    return std::find(ev.begin(), ev.end(), victim) != ev.end();
  };
  auto finished = [&] {
    return detectable ? sys.raft().is_banned(victim) && evicted()
                      : sim.now() >= t0 + 20 * kSecond;
  };
  tr.run_until(finished, horizon, 100 * kMillisecond);
  if (!json) {
    print_health(sim, sys.raft().health(1));
    std::printf("\ndetection:\n");
    for (const char* key : kDetectionCounters) {
      std::printf("  %-36s %6llu\n", key,
                  static_cast<unsigned long long>(
                      sim.obs().metrics.counter_value(key)));
    }
    std::printf("strikes:");
    for (const auto& [p, s] : sys.strikes()) {
      std::printf(" peer %u x%zu", p, s);
    }
    std::printf("%s\n", sys.strikes().empty() ? " none" : "");
  }

  // Honest peers must never be suspected, whatever the attack.
  bool honest_struck = false;
  for (const auto& [p, s] : sys.strikes()) {
    if (p != victim) honest_struck = true;
  }
  const std::size_t completed = sys.rounds_completed();
  bool ok;
  const char* verdict;
  if (detectable) {
    ok = !honest_struck && sys.raft().is_banned(victim) && evicted();
    verdict = ok ? "contained" : "not_contained";
    if (!json) {
      std::printf("\nattack: %s (adversary %u %s, %s honest strikes)\n",
                  ok ? "CONTAINED" : "NOT CONTAINED", victim,
                  sys.raft().is_banned(victim) ? "denounced + evicted"
                                               : "still a member",
                  honest_struck ? "WITH" : "no");
    }
  } else {
    // Poisoning is invisible under SAC masking by design; the win here
    // is that rounds keep completing, nobody honest is framed, and the
    // chosen robust rule is what stands between the lie and the model.
    ok = !honest_struck && completed >= 10;
    verdict = ok ? "tolerated" : "not_tolerated";
    if (!json) {
      std::printf("\nattack: %s (undetectable kind — %zu rounds completed, "
                  "%s honest strikes; defense %s is the only mitigation)\n",
                  ok ? "TOLERATED" : "NOT TOLERATED", completed,
                  honest_struck ? "WITH" : "no", robust::rule_name(rule));
    }
  }
  return json ? emit_json(verdict, ok, honest_struck) : (ok ? 0 : 1);
}

/// Shared soak-scenario flags of `chaos` and `explain` (they differ only
/// in default ambient fault rates).
chaos::ChaosSoakConfig soak_config(const bench::Args& args,
                                   double default_loss, double default_dup) {
  chaos::ChaosSoakConfig cfg;
  cfg.peers = static_cast<std::size_t>(args.get_int("peers", 12));
  cfg.groups = static_cast<std::size_t>(args.get_int("groups", 3));
  cfg.rounds = static_cast<std::size_t>(args.get_int("rounds", 10));
  cfg.dim = static_cast<std::size_t>(args.get_int("dim", 8));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.round_interval = args.get_int("interval", 1000) * kMillisecond;
  cfg.net.faults.drop_prob = args.get_double("loss", default_loss);
  cfg.net.faults.duplicate_prob = args.get_double("dup", default_dup);
  cfg.net.faults.corrupt_prob = args.get_double("corrupt", 0.0);
  cfg.net.faults.truncate_prob = args.get_double("truncate", 0.0);
  const long reorder_ms = args.get_int("reorder-ms", 0);
  if (reorder_ms > 0) {
    cfg.net.faults.reorder_prob = 0.25;
    cfg.net.faults.reorder_jitter = reorder_ms * kMillisecond;
  }
  cfg.churn_mttf = args.get_int("churn-mttf", 0) * kMillisecond;
  cfg.churn_mttr = args.get_int("churn-mttr", 1000) * kMillisecond;
  cfg.partition_at = args.get_int("partition-at", 0) * kMillisecond;
  cfg.heal_at = args.get_int("heal-at", 0) * kMillisecond;
  return cfg;
}

// `chaos --wal=DIR` (and any `chaos --transport=tcp`): the self-healing
// scenario on crash-durable Raft state, on either transport. See
// chaos::run_heal_soak for the plan; exit 0 requires the victim to
// rejoin from its write-ahead log with zero InstallSnapshot RPCs.
//
// `--kill-after-round=N` SIGKILLs the whole process the moment round N
// completes (exit 137, nothing flushed gracefully) — re-running with
// `--resume` over the same `--wal` directory must then recover peers
// from disk and heal. That pair of invocations is the crash-recovery
// soak CI runs nightly.
int cmd_heal(const bench::Args& args, const std::string& transport) {
  chaos::HealSoakConfig cfg;
  cfg.peers = static_cast<std::size_t>(args.get_int("peers", 12));
  cfg.groups = static_cast<std::size_t>(args.get_int("groups", 3));
  cfg.min_rounds = static_cast<std::size_t>(args.get_int("rounds", 8));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  cfg.wal_dir = args.get("wal", "");
  if (cfg.wal_dir.empty()) cfg.wal_dir = "p2pflctl_chaos_wal";
  if (cfg.groups == 0 || cfg.peers % cfg.groups != 0) {
    std::fprintf(stderr, "chaos --wal needs --peers divisible by --groups\n");
    return 2;
  }
  const long kill_after = args.get_int("kill-after-round", 0);
  const bool resume = args.has("resume");
  if (resume && wal_files(cfg.wal_dir).empty()) {
    std::fprintf(stderr, "--resume: no write-ahead state in %s\n",
                 cfg.wal_dir.c_str());
    return 1;
  }
  if (!resume) wipe_wal_dir(cfg.wal_dir);
  cfg.on_round = [&](std::size_t done) {
    if (kill_after <= 0 || done != static_cast<std::size_t>(kill_after)) {
      return;
    }
    // Die NOW, mid-everything, with no graceful teardown. Whatever the
    // WALs hold is the truth the --resume run must come back from.
    std::printf("%zu rounds complete; SIGKILL (resume from %s)\n", done,
                cfg.wal_dir.c_str());
    std::fflush(stdout);
    ::raise(SIGKILL);
  };

  std::printf("chaos heal soak on %s: %zu peers in %zu subgroups, %zu "
              "rounds, seed %llu, wal %s%s\n",
              transport.c_str(), cfg.peers, cfg.groups, cfg.min_rounds,
              static_cast<unsigned long long>(cfg.seed), cfg.wal_dir.c_str(),
              resume ? " (resume)" : "");
  net::Backend backend(transport, cfg.peers, cfg.seed);
  const chaos::HealSoakResult res = chaos::run_heal_soak(backend.net(), cfg);
  const obs::MetricsRegistry& m = backend.net().obs().metrics;
  std::printf("%zu/%zu peers recovered from disk at start\n",
              res.recovered_at_start, cfg.peers);
  if (resume && res.recovered_at_start == 0) {
    std::fprintf(stderr, "--resume: no write-ahead state in %s\n",
                 cfg.wal_dir.c_str());
    return 1;
  }
  if (!res.stabilized) {
    std::fprintf(stderr, "failed to stabilize\n");
    return 1;
  }
  std::printf(
      "after %.1f s: %zu rounds, victim %u %s from wal "
      "(snapshot installs %llu), conn resets %llu, stall windows %llu, "
      "throttle windows %llu, outq drops %llu, evictions %llu, rejoins "
      "%llu\n",
      res.elapsed_s, res.rounds, res.victim,
      res.victim_recovered ? "recovered" : "rebuilt without wal",
      static_cast<unsigned long long>(res.victim_snapshot_installs),
      static_cast<unsigned long long>(
          m.counter_value("chaos.transport.conn_resets")),
      static_cast<unsigned long long>(
          m.counter_value("chaos.transport.stall_windows")),
      static_cast<unsigned long long>(
          m.counter_value("chaos.transport.throttle_windows")),
      static_cast<unsigned long long>(m.counter_value("net.tcp.outq_dropped")),
      static_cast<unsigned long long>(m.counter_value("membership.evicted")),
      static_cast<unsigned long long>(m.counter_value("membership.rejoined")));
  std::printf("self-healing on %s: %s\n", transport.c_str(),
              res.ok() ? "OK" : "FAILED");
  return res.ok() ? 0 : 1;
}

/// The fault-plan flags of the chaos soak (soak_config), which the heal
/// soak does not read.
constexpr const char* kSoakOnlyFlags[] = {
    "loss",       "dup",        "corrupt",    "truncate",
    "reorder-ms", "churn-mttf", "churn-mttr", "partition-at",
    "heal-at",    "interval",   "dim"};

int cmd_chaos(const bench::Args& args) {
  const std::string transport = transport_flag(args);
  if (transport.empty()) return 2;
  if (transport == "tcp" || args.has("wal")) {
    for (const char* flag : kSoakOnlyFlags) {
      if (args.has(flag)) {
        std::fprintf(stderr,
                     "--%s is not read by the heal soak that --wal and "
                     "--transport=tcp run\n",
                     flag);
        return 2;
      }
    }
    return cmd_heal(args, transport);
  }
  if (args.has("resume") || args.has("kill-after-round")) {
    std::fprintf(stderr, "--resume and --kill-after-round need --wal\n");
    return 2;
  }
  chaos::ChaosSoakConfig cfg = soak_config(args, 0.05, 0.05);
  const long reorder_ms = args.get_int("reorder-ms", 0);

  std::printf(
      "chaos soak: %zu peers in %zu groups, %zu rounds @ %.0f ms, seed "
      "%llu\n",
      cfg.peers, cfg.groups, cfg.rounds, to_ms(cfg.round_interval),
      static_cast<unsigned long long>(cfg.seed));
  std::printf(
      "faults: loss %.2f, dup %.2f, corrupt %.2f, truncate %.2f, reorder "
      "jitter %ld ms, churn mttf/mttr %.0f/%.0f ms, partition [%.0f, %.0f) "
      "ms\n",
      cfg.net.faults.drop_prob, cfg.net.faults.duplicate_prob,
      cfg.net.faults.corrupt_prob, cfg.net.faults.truncate_prob, reorder_ms,
      to_ms(cfg.churn_mttf), to_ms(cfg.churn_mttr), to_ms(cfg.partition_at),
      to_ms(cfg.heal_at));

  const chaos::ChaosSoakResult res = chaos::run_chaos_soak(cfg);

  std::printf("\n%5s %9s %12s %10s\n", "round", "outcome", "contributors",
              "max|err|");
  for (const chaos::RoundOutcome& o : res.outcomes) {
    if (o.committed) {
      std::printf("%5llu %9s %8zu/%-3zu %10.2e\n",
                  static_cast<unsigned long long>(o.round), "committed",
                  o.contributors, cfg.peers, o.max_abs_error);
    } else {
      std::printf("%5llu %9s %12s %10s\n",
                  static_cast<unsigned long long>(o.round), "aborted", "-",
                  "-");
    }
  }
  std::printf(
      "\nrounds: %zu started, %zu committed, %zu aborted, %zu skipped "
      "(no live leader)\n",
      res.rounds_started, res.rounds_committed, res.rounds_aborted,
      res.rounds_skipped);
  std::printf("chaos: %zu crashes, %zu restarts\n", res.crashes,
              res.restarts);
  bench::print_traffic(res.traffic);

  // Bit flips have no checksum to catch them in a float payload, so
  // exactness is only promised when corrupt_prob is zero (truncation is
  // fine: every truncated frame is rejected and retried).
  const bool exact_ok =
      res.all_commits_exact || cfg.net.faults.corrupt_prob > 0.0;
  const bool ok = res.liveness_ok && exact_ok;
  std::printf("liveness: %s, exactness: %s (max error %.2e)\n",
              res.liveness_ok ? "OK" : "FAILED",
              res.all_commits_exact
                  ? "OK"
                  : (exact_ok ? "degraded (bit flips)" : "FAILED"),
              res.max_abs_error);
  return ok ? 0 : 1;
}

int cmd_explain(const bench::Args& args) {
  // Fault-free by default; any `chaos` fault flag turns the same scenario
  // into a chaotic one (the spans and post-mortems tell the story).
  chaos::ChaosSoakConfig cfg = soak_config(args, 0.0, 0.0);
  cfg.capture_spans = true;

  std::printf(
      "explain: %zu peers in %zu groups, %zu rounds @ %.0f ms, seed %llu "
      "(loss %.2f, dup %.2f, churn mttf %.0f ms)\n",
      cfg.peers, cfg.groups, cfg.rounds, to_ms(cfg.round_interval),
      static_cast<unsigned long long>(cfg.seed), cfg.net.faults.drop_prob,
      cfg.net.faults.duplicate_prob, to_ms(cfg.churn_mttf));

  const chaos::ChaosSoakResult res = chaos::run_chaos_soak(cfg);

  std::uint64_t last_committed = 0;
  for (const chaos::RoundOutcome& o : res.outcomes) {
    std::printf("  round %llu: %s\n",
                static_cast<unsigned long long>(o.round),
                o.committed ? "committed" : "aborted");
    if (o.committed) last_committed = o.round;
  }

  const std::uint64_t target = static_cast<std::uint64_t>(
      args.get_int("round", static_cast<long>(last_committed)));
  const obs::CriticalPath* cp = nullptr;
  for (const obs::CriticalPath& c : res.critical_paths) {
    if (c.round == target) cp = &c;
  }
  std::printf("\n");
  if (cp != nullptr) {
    std::fputs(obs::critical_path_table(*cp).c_str(), stdout);
  } else {
    std::printf("round %llu has no critical path (never committed or not "
                "retained)\n",
                static_cast<unsigned long long>(target));
  }
  for (const obs::Postmortem& pm : res.postmortems) {
    std::printf("\n");
    std::fputs(pm.table.c_str(), stdout);
  }

  const std::string out = args.get("out", "");
  if (!out.empty()) {
    const std::string path = out + ".spans.jsonl";
    if (obs::write_text_file(path, res.spans_jsonl)) {
      std::printf("\nwrote %s (%zu spans)\n", path.c_str(),
                  static_cast<std::size_t>(
                      std::count(res.spans_jsonl.begin(),
                                 res.spans_jsonl.end(), '\n')));
    } else {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 2;
    }
  }

  // Non-empty attribution is the contract CI's explain-smoke asserts.
  return cp != nullptr && !cp->segments.empty() ? 0 : 1;
}

int cmd_watch(const bench::Args& args) {
  // Same scenario surface as `chaos`, fault-free by default, watched by
  // the SLO engine: a live per-round table while the soak runs, then the
  // per-rule report and one alert post-mortem per breach.
  chaos::ChaosSoakConfig cfg = soak_config(args, 0.0, 0.0);
  cfg.capture_spans = true;
  cfg.capture_timeseries = true;
  // Latency ceiling: committed rounds finish well under the round slot;
  // a censored (aborted/skipped) round consumes the whole slot and so
  // always trips a ceiling below it.
  const double max_latency_ms =
      args.get_double("max-latency-ms", 0.75 * to_ms(cfg.round_interval));
  cfg.slo_rules = obs::default_rules(max_latency_ms);

  std::printf(
      "watch: %zu peers in %zu groups, %zu rounds @ %.0f ms, seed %llu "
      "(loss %.2f, dup %.2f, churn mttf %.0f ms, SLO latency <= %.0f ms)\n",
      cfg.peers, cfg.groups, cfg.rounds, to_ms(cfg.round_interval),
      static_cast<unsigned long long>(cfg.seed), cfg.net.faults.drop_prob,
      cfg.net.faults.duplicate_prob, to_ms(cfg.churn_mttf), max_latency_ms);
  std::printf("\n%5s %9s %8s %7s %12s %8s %6s %7s  %s\n", "round",
              "outcome", "lat ms", "contrib", "payload B", "retries",
              "crash", "strikes", "slo");
  cfg.on_sample = [&](const obs::RoundSample& s,
                      const std::vector<obs::SloBreach>& breaches) {
    std::string slo;
    for (const obs::SloBreach& b : breaches) {
      if (!slo.empty()) slo += ",";
      slo += b.rule;
    }
    std::printf("%5llu %9s %8.0f %7zu %12llu %8llu %6llu %7llu  %s\n",
                static_cast<unsigned long long>(s.round),
                s.committed ? "committed" : "aborted", s.latency_ms,
                s.contributors,
                static_cast<unsigned long long>(s.payload_bytes),
                static_cast<unsigned long long>(s.retries),
                static_cast<unsigned long long>(s.crashes),
                static_cast<unsigned long long>(s.strikes),
                slo.empty() ? "ok" : slo.c_str());
  };

  const chaos::ChaosSoakResult res = chaos::run_chaos_soak(cfg);

  std::printf("\n%s", res.slo_report.table().c_str());
  for (const obs::SloAlert& a : res.slo_alerts) {
    std::printf("\n%s", obs::slo_alert_text(a).c_str());
  }

  const std::string out = args.get("out", "");
  if (!out.empty()) {
    if (!obs::write_text_file(out + ".timeseries.jsonl",
                              res.timeseries_jsonl) ||
        !obs::write_text_file(out + ".slo.json",
                              res.slo_report.json() + "\n")) {
      std::fprintf(stderr, "watch: cannot write %s.*\n", out.c_str());
      return 2;
    }
    std::printf("\nwrote %s.timeseries.jsonl + %s.slo.json\n", out.c_str(),
                out.c_str());
  }

  const bool healthy = res.slo_report.healthy();
  std::printf("\nSLO: %s (%zu breach(es) over %llu samples)\n",
              healthy ? "HEALTHY" : "BREACHED", res.slo_report.breaches.size(),
              static_cast<unsigned long long>(res.slo_report.samples));
  return healthy ? 0 : 1;
}

int cmd_wire(const bench::Args& args) {
  raft::wire::register_codecs();
  secagg::wire::register_codecs("sac");
  secagg::wire::register_codecs("ml");
  core::wire::register_codecs();

  net::WireSample shape;
  shape.dim = static_cast<std::size_t>(args.get_int("dim", 8));
  shape.n = static_cast<std::size_t>(args.get_int("n", 4));
  shape.k = static_cast<std::size_t>(
      args.get_int("k", static_cast<long>(shape.n - 1)));
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));

  std::printf("codec catalog for dim=%zu, n=%zu, k=%zu:\n", shape.dim,
              shape.n, shape.k);
  std::printf("  %-14s %14s\n", "key", "sample bytes");
  for (const net::Codec* c : net::CodecRegistry::global().all()) {
    const std::optional<Bytes> encoded = c->encode(c->sample(rng, shape));
    if (!encoded.has_value()) {
      std::fprintf(stderr, "codec %s failed to encode its own sample\n",
                   c->key.c_str());
      return 1;
    }
    std::printf("  %-14s %14zu\n", c->key.c_str(), encoded->size());
  }

  const std::string dump = args.get("dump", "join");
  const net::Codec* c = net::CodecRegistry::global().find_key(dump);
  if (c == nullptr) {
    std::fprintf(stderr, "no codec registered under key '%s'\n",
                 dump.c_str());
    return 2;
  }
  const std::optional<Bytes> encoded = c->encode(c->sample(rng, shape));
  if (!encoded.has_value()) return 1;
  constexpr std::size_t kDumpLimit = 64;
  std::printf("\nsample encoding of %s (%zu bytes%s):\n", c->key.c_str(),
              encoded->size(),
              encoded->size() > kDumpLimit ? ", first 64 shown" : "");
  const std::size_t shown = std::min(encoded->size(), kDumpLimit);
  for (std::size_t i = 0; i < shown; i += 16) {
    std::printf("  %04zx ", i);
    for (std::size_t j = i; j < std::min(i + 16, shown); ++j) {
      std::printf(" %02x", (*encoded)[j]);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: p2pflctl "
                 "<train|cost|health|attack|recovery|trace|chaos|explain|"
                 "watch|wire> [--key=value...]\n");
    return 2;
  }
  const bench::Args args(argc - 1, argv + 1);
  const std::string cmd = argv[1];
  if (cmd == "train") return cmd_train(args);
  if (cmd == "cost") return cmd_cost(args);
  if (cmd == "health") return cmd_health(args);
  if (cmd == "attack") return cmd_attack(args);
  if (cmd == "recovery") return cmd_recovery(args);
  if (cmd == "trace") return cmd_recovery(args, /*traced=*/true);
  if (cmd == "chaos") return cmd_chaos(args);
  if (cmd == "explain") return cmd_explain(args);
  if (cmd == "watch") return cmd_watch(args);
  if (cmd == "wire") return cmd_wire(args);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
