// The three benchmark workloads and the per-layer report they share.
#pragma once

#include <map>
#include <string>

#include "harness.hpp"
#include "obs/span.hpp"
#include "probes.hpp"

namespace perfbench {

Result run_system_1k(const Options& opt);
Result run_train_cnn(const Options& opt);
Result run_tcp_agg(const Options& opt);

/// Everything a traced run measured, per committed round unless named
/// otherwise. Fields a workload does not exercise stay 0 and print as 0.
struct LayerReport {
  // Exact counts per round, read from the program's registry / stats or
  // fixed by the protocol (see NOTES.md for each).
  double events = 0, timer_fires = 0, msgs = 0, wire_mb = 0;
  std::map<std::string, double> msgs_by_family;
  double sac_retries = 0, tcp_frames = 0;
  double divides = 0, accumulates = 0, sac_averages = 0;
  double trained_peers = 0, evals = 0;
  double mb_encoded = 0, mb_decoded = 0;
  // Run totals.
  double tcp_connects = 0, raft_elections = 0, chaos_faults = 0;
  double heap_inuse_mb = 0;
  // Virtual time (simulator clock).
  double virtual_round_ms_p50 = 0, failover_ms = 0;
  std::map<std::string, double> critical_path_ms;
  // Probes at the workload's shape.
  double event_ns = 0, reset_ns = 0, send_deliver_us = 0, counter_ns = 0;
  CodecTiming codec;
  double divide_ms = 0, accumulate_ms = 0, sac_average_ms = 0;
  FlTiming fl;
  RaftTiming raft;
  double wal_us = 0;
  FrameRtt rtt;
  // Wall time of the untraced and traced passes.
  double round_s_untraced = 0, round_s_traced = 0;

  /// Record `per_round` messages of one family (see messages_by_family).
  void add_messages(const std::string& family, double per_round) {
    msgs_by_family[family] = per_round;
    msgs += per_round;
  }
};

/// Replace r's metrics with every per-layer metric and the attribution
/// shares; put the table and the self time of `t`'s spans into r.notes.
void add_layer_metrics(Result& r, const LayerReport& rep, const Tracer& t);

/// Mean virtual critical path per round over `rounds`, in the six phase
/// buckets of the layer table (share, subtotal, upload, collect,
/// broadcast, local_train), from the program's own spans.
std::map<std::string, double> critical_path_ms(
    const p2pfl::obs::SpanRecorder& spans, const std::vector<std::uint64_t>& rounds);

/// Write the traced run's benchmark spans next to the other artifacts.
void write_spans(const Options& opt, const Tracer& t);

}  // namespace perfbench
