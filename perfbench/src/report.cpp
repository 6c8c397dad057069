// The per-layer table every traced run prints, and the attribution of
// the untraced round time to the program's modules.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/critical_path.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Critical-path phase -> the bucket the layer table reports it under.
const char* bucket_of(const std::string& phase) {
  if (phase == "sac_share" || phase.find("/share") != std::string::npos) return "share";
  if (phase == "sac_subtotal" || phase.find("/subtotal") != std::string::npos) {
    return "subtotal";
  }
  if (phase == "upload" || phase == "link:agg/upload") return "upload";
  if (phase == "fed_collect") return "collect";
  if (phase == "fed_merge" || phase == "link:agg/result") return "broadcast";
  if (phase == "local_train") return "local_train";
  return nullptr;
}

}  // namespace

std::map<std::string, double> critical_path_ms(
    const p2pfl::obs::SpanRecorder& spans, const std::vector<std::uint64_t>& rounds) {
  std::map<std::string, double> out;
  std::size_t found = 0;
  for (std::uint64_t round : rounds) {
    const p2pfl::obs::CriticalPath cp = p2pfl::obs::extract_critical_path(spans, round);
    if (!cp.found) continue;
    ++found;
    for (const auto& [phase, d] : cp.phase_totals) {
      if (const char* b = bucket_of(phase)) out[b] += p2pfl::to_ms(d);
    }
  }
  for (auto& [b, ms] : out) ms /= static_cast<double>(std::max<std::size_t>(1, found));
  return out;
}

void add_layer_metrics(Result& r, const LayerReport& rep, const Tracer& t) {
  // A traced run reports the per-layer metrics only; keep the end-to-end
  // figures of its untraced pass in the printed notes.
  for (const auto& [name, m] : r.metrics) {
    r.note("untraced pass: " + name + " = " + fmt("%.6g", m.value) + " " + m.unit);
  }
  r.metrics.clear();

  auto add = [&](const std::string& name, double v, const std::string& unit,
                 const std::string& how) {
    r.metric(name, v, unit);
    char buf[200];
    std::snprintf(buf, sizeof buf, "  %-34s %14.6g %-6s %s", name.c_str(), v,
                  unit.c_str(), how.c_str());
    r.note(buf);
  };
  r.note("per-layer metrics (counts are per committed timed round):");
  add("sim.events_per_round", rep.events, "count", "count sim.events_dispatched");
  add("sim.timer_fires_per_round", rep.timer_fires, "count", "count sim.timer_fires");
  add("sim.event_ns", rep.event_ns, "ns", "probe schedule_after + run");
  add("sim.reset_ns", rep.reset_ns, "ns", "probe schedule + cancel");
  add("net.msgs_per_round", rep.msgs, "count", "count Network::stats().sent_by_kind");
  for (const char* fam : {"raft", "sac", "agg", "member", "fed"}) {
    const auto it = rep.msgs_by_family.find(fam);
    add(std::string("net.msgs_per_round.") + fam,
        it == rep.msgs_by_family.end() ? 0.0 : it->second, "count",
        "count sent_by_kind by prefix");
  }
  add("net.wire_mb_per_round", rep.wire_mb, "MB", "count charged (sim) / raw socket (tcp) bytes");
  add("net.send_deliver_us", rep.send_deliver_us, "us", "probe Network::send -> deliver");
  add("obs.counter_lookup_ns", rep.counter_ns, "ns", "probe MetricsRegistry::counter(kind)");
  add("codec.encode_ms_per_mb", rep.codec.encode_ms_per_mb, "ms/MB", "probe sac:share encode");
  add("codec.decode_ms_per_mb", rep.codec.decode_ms_per_mb, "ms/MB", "probe sac:share decode");
  add("secagg.divide_ms", rep.divide_ms, "ms", "probe secagg::divide");
  add("secagg.accumulate_ms", rep.accumulate_ms, "ms", "probe secagg::accumulate");
  add("secagg.sac_average_ms", rep.sac_average_ms, "ms", "probe secagg::sac_average");
  add("sac.retries_per_round", rep.sac_retries, "count",
      "count sac.share_retries + sac.recovery_requests");
  add("fl.forward_ms", rep.fl.forward_ms, "ms", "probe Model::forward(train)");
  add("fl.backward_ms", rep.fl.backward_ms, "ms", "probe loss + Model::backward");
  add("fl.optimizer_ms", rep.fl.optimizer_ms, "ms", "probe get/step/set params");
  add("fl.eval_ms", rep.fl.eval_ms, "ms", "probe fl::evaluate_model");
  add("fl.peer_round_ms", rep.fl.peer_round_ms, "ms", "probe train_round, 1 worker");
  add("raft.elections", rep.raft_elections, "count", "count raft.elections_started (run)");
  add("raft.propose_commit_us", rep.raft.propose_commit_us, "us", "probe 5-node propose -> commit");
  add("wal.append_sync_us", rep.wal_us, "us", "probe WalStorage append + sync");
  add("tcp.frames_per_round", rep.tcp_frames, "count", "count TcpTransport::frames_sent");
  add("tcp.connects", rep.tcp_connects, "count", "count net.tcp.connects (run)");
  add("tcp.frame_rtt_us.share", rep.rtt.share_us, "us", "probe loopback share frame RTT");
  add("tcp.frame_rtt_us.control", rep.rtt.control_us, "us", "probe loopback empty frame RTT");
  add("core.virtual_round_ms_p50", rep.virtual_round_ms_p50, "ms", "virtual round latency");
  add("core.failover_ms", rep.failover_ms, "ms", "virtual: leader crash -> next commit");
  for (const char* phase :
       {"share", "subtotal", "upload", "collect", "broadcast", "local_train"}) {
    const auto it = rep.critical_path_ms.find(phase);
    add(std::string("core.critical_path_ms.") + phase,
        it == rep.critical_path_ms.end() ? 0.0 : it->second, "ms",
        "obs::extract_critical_path (virtual)");
  }
  add("chaos.faults", rep.chaos_faults, "count", "count ChaosEngine::faults_injected");
  add("mem.heap_inuse_mb", rep.heap_inuse_mb, "MB", "mallinfo2().uordblks at run end");

  // Attribution: probe time x exact call count, as a share of the
  // untraced round time. The send->deliver probe also pays one kernel
  // event and two counter lookups; those are charged to sim and obs.
  // Raft's own handling per message is what the propose->commit probe
  // spends beyond its messages' send->deliver and its timer events.
  const double base = rep.round_s_untraced;
  const double msg_us = std::max(
      0.0, rep.send_deliver_us - 1e-3 * rep.event_ns - 2e-3 * rep.counter_ns);
  const RaftTiming& rt = rep.raft;
  const double raft_us_per_msg =
      rt.msgs_per_commit > 0.0
          ? std::max(0.0, (rt.propose_commit_us - rt.msgs_per_commit * rep.send_deliver_us -
                           (rt.events_per_commit - rt.msgs_per_commit) * 1e-3 * rep.event_ns) /
                              rt.msgs_per_commit)
          : 0.0;
  if (rt.msgs_per_commit > 0.0) {
    r.note("raft probe: " + fmt("%.1f", rt.msgs_per_commit) + " messages and " +
           fmt("%.1f", rt.events_per_commit) + " kernel events per commit; Raft's own "
           "handling " + fmt("%.3f", raft_us_per_msg) + " us per message");
  }
  const auto family = [&](const char* f) {
    const auto it = rep.msgs_by_family.find(f);
    return it == rep.msgs_by_family.end() ? 0.0 : it->second;
  };
  const std::vector<std::pair<std::string, double>> modules = {
      {"sim", rep.events * rep.event_ns * 1e-9},
      {"net", rep.msgs * msg_us * 1e-6 +
                  1e-3 * (rep.mb_encoded * rep.codec.encode_ms_per_mb +
                          rep.mb_decoded * rep.codec.decode_ms_per_mb)},
      {"net_tcp", rep.tcp_frames * 0.5 * rep.rtt.share_us * 1e-6},
      {"secagg", 1e-3 * (rep.divides * rep.divide_ms +
                         rep.accumulates * rep.accumulate_ms +
                         rep.sac_averages * rep.sac_average_ms)},
      {"fl", 1e-3 * (rep.trained_peers * (rep.fl.forward_ms + rep.fl.backward_ms +
                                          rep.fl.optimizer_ms) +
                     rep.evals * rep.fl.eval_ms)},
      {"raft", (family("raft") + family("fed")) * raft_us_per_msg * 1e-6},
      {"core", 0.0},
      {"chaos", 0.0},
      {"obs", rep.msgs * 2.0 * rep.counter_ns * 1e-9},
  };
  double attributed = 0.0;
  std::string line = "attribution of round_s_p50 " + fmt("%.4f", base) + " s:";
  for (const auto& [mod, s] : modules) {
    const double pct = base > 0.0 ? 100.0 * s / base : 0.0;
    attributed += pct;
    r.metric("attrib." + mod + "_pct", pct, "%");
    line += " " + mod + " " + fmt("%.1f%%", pct);
  }
  r.metric("attrib.unattributed_pct", 100.0 - attributed, "%");
  line += " | unattributed " + fmt("%.1f%%", 100.0 - attributed);
  r.note(line);

  const double overhead =
      rep.round_s_untraced > 0.0
          ? 100.0 * (rep.round_s_traced - rep.round_s_untraced) / rep.round_s_untraced
          : 0.0;
  r.metric("obs.trace_overhead_pct", overhead, "%");
  r.note("trace overhead: round_s_p50 traced " + fmt("%.4f", rep.round_s_traced) +
         " s vs untraced " + fmt("%.4f", rep.round_s_untraced) + " s (" +
         fmt("%+.1f%%", overhead) + ")");

  std::string self = "bench-span self time:";
  for (const auto& [mod, s] : t.self_seconds()) self += " " + mod + " " + fmt("%.3f s", s);
  r.note(self);
}

void write_spans(const Options& opt, const Tracer& t) {
  std::filesystem::create_directories(opt.work_dir);
  const std::string path = opt.work_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".spans.json";
  std::ofstream(path) << t.json();
}

}  // namespace perfbench
