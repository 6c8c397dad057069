// Layer probes: each times one public call of a program layer at the
// exact shape of the workload it attributes. They run only in traced
// runs, each inside a benchmark span named after the probe.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fl/data.hpp"
#include "fl/model.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

/// Simulator::schedule_after + dispatch of one event, ns, with `depth`
/// other events pending (the workload's queue depth).
double probe_sim_event_ns(std::size_t depth);
/// Schedule-then-cancel of a 150-300 ms timer (a Raft election-timer
/// reset), ns, at the same depth.
double probe_sim_reset_ns(std::size_t depth);
/// Network::send -> endpoint delivery of one typed control message
/// ("member/pull", encode-verify on), us.
double probe_send_deliver_us();
/// One MetricsRegistry::counter(name).add() lookup, the per-kind lookup
/// Network does on send and on delivery, ns; `names` sizes the registry.
double probe_counter_lookup_ns(const std::vector<std::string>& names,
                               const std::string& kind);

struct CodecTiming {
  double encode_ms_per_mb = 0.0;
  double decode_ms_per_mb = 0.0;
  double bundle_mb = 0.0;
};
/// CodecRegistry "sac:share" encode/decode of one share bundle of a
/// dim-parameter model in a k-out-of-n subgroup.
CodecTiming probe_share_codec(std::size_t dim, std::size_t n, std::size_t k);

double probe_divide_ms(std::size_t dim, std::size_t n);
double probe_accumulate_ms(std::size_t dim);
double probe_sac_average_ms(std::size_t dim, std::size_t n);

struct FlTiming {
  double forward_ms = 0.0;
  double backward_ms = 0.0;   // softmax_cross_entropy + Model::backward
  double optimizer_ms = 0.0;  // get_params, get_grads, Adam::step, set_params
  double eval_ms = 0.0;
  double peer_round_ms = 0.0;  // PeerTrainer::train_round, one worker
};
/// The steps PeerTrainer::train_round runs, on `batch` samples of
/// `data.train`, and fl::evaluate_model over `eval_samples` test images.
FlTiming probe_fl(const std::function<p2pfl::fl::Model()>& build,
                  const p2pfl::fl::TrainTest& data, std::size_t batch,
                  std::size_t eval_samples, float lr);

struct RaftTiming {
  double propose_commit_us = 0.0;
  /// Messages sent and kernel events run per committed entry.
  double msgs_per_commit = 0.0;
  double events_per_commit = 0.0;
};
/// RaftNode::propose -> commit on the leader of a 5-node simulated
/// cluster (in-memory log).
RaftTiming probe_raft_propose_commit();
/// raft::WalStorage::append_entry + sync of a 128-byte entry in `dir`, us.
double probe_wal_append_sync_us(const std::string& dir);

struct FrameRtt {
  double share_us = 0.0;
  double control_us = 0.0;
};
/// Loopback TCP round trip of one `share_bytes` frame and of one empty
/// control frame (length prefix only), us.
FrameRtt probe_tcp_frame_rtt(std::size_t share_bytes);

}  // namespace perfbench
