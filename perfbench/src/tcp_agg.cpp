// tcp_agg: core::TwoLayerAggregator with fixed leaders over
// net::tcp::TcpTransport on loopback. N=20 peers in m=5 subgroups of n=4,
// n-out-of-n SAC (Eq. (4): 98 |w| per round), |w| = 100k floats, each
// peer a distinct model. One epoll loop thread does the work; this thread
// only starts rounds through transport.call and waits. The only workload
// where frames, sockets and decode run.
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "analysis/cost_model.hpp"
#include "common/rng.hpp"
#include "core/topology.hpp"
#include "core/two_layer_agg.hpp"
#include "net/mux.hpp"
#include "net/network.hpp"
#include "net/tcp/tcp_transport.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace p2pfl;

namespace {

constexpr std::size_t kPeers = 20, kGroups = 5, kN = 4;
constexpr std::size_t kDim = 100'000;
/// Largest |global - float64 mean| accepted per element. Shares are
/// float32 fractions of each input and subtotals accumulate in double, so
/// the error is a few float32 ulps of values in [-1, 1].
constexpr double kTolerance = 1e-5;
/// The timed phase runs on the last of this many set-ups; setup_s is
/// their median. One set-up takes 0.3-0.5 s, so a single one would carry
/// whatever speed level the host is at in that moment.
constexpr int kSetups = 5;

/// Per-peer models drawn from the workload seed, and their float64 mean.
struct AggInputs {
  std::vector<secagg::Vector> models;
  std::vector<double> mean;

  AggInputs(std::size_t peers, std::size_t dim, std::uint64_t seed)
      : mean(dim, 0.0) {
    for (std::size_t p = 0; p < peers; ++p) {
      Rng rng = Rng(seed).fork(1000 + p);
      secagg::Vector v(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        v[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
        mean[i] += v[i];
      }
      models.push_back(std::move(v));
    }
    for (double& x : mean) x /= static_cast<double>(peers);
  }

  /// Largest |global - mean| over all elements.
  double max_error(const secagg::Vector& global) const {
    if (global.size() != mean.size()) return INFINITY;
    double worst = 0.0;
    for (std::size_t i = 0; i < mean.size(); ++i) {
      worst = std::max(worst, std::abs(static_cast<double>(global[i]) - mean[i]));
    }
    return worst;
  }
};

/// Sum of the |w|-unit payload bytes the network charged so far.
std::uint64_t payload_bytes(const net::TrafficStats& s) {
  std::uint64_t total = 0;
  for (const auto& [kind, c] : s.sent_by_kind) total += c.payload;
  return total;
}

/// Protocol timers run on the wall clock here, and one loop thread
/// splits every peer's model in turn. Timeouts far above a round's length
/// keep retries from firing on a slow or sanitizer-instrumented machine,
/// so every round's traffic stays exactly Eq. (4).
core::AggregationConfig real_clock_config() {
  core::AggregationConfig cfg;
  cfg.collect_timeout = 60 * kSecond;
  cfg.sac_share_timeout = 20 * kSecond;
  cfg.sac_subtotal_timeout = 20 * kSecond;
  cfg.upload_retry = 60 * kSecond;
  return cfg;
}

/// One TCP mesh with the aggregator on it, driven round by round.
class TcpRig {
 public:
  explicit TcpRig(std::uint64_t seed, bool traced)
      : topo_(core::Topology::even(kPeers, kGroups)),
        transport_({.peers = topo_.all_peers(), .seed = seed}),
        net_(transport_, {}) {
    if (traced) transport_.obs().spans.set_enabled(true);
    for (PeerId id : topo_.all_peers()) {
      auto host = std::make_unique<net::PeerHost>();
      net_.attach(id, host.get());
      hosts_.emplace(id, std::move(host));
    }
    agg_ = std::make_unique<core::TwoLayerAggregator>(
        topo_, real_clock_config(), net_,
        [this](PeerId id) -> net::PeerHost& { return *hosts_.at(id); });
    lead_.subgroup_leaders = topo_.designated_leaders();
    lead_.fedavg_leader = lead_.subgroup_leaders.front();
    agg_->on_global_model = [this](std::uint64_t, const secagg::Vector& g,
                                   std::size_t used) {
      groups_used_ = used;
      error_ = inputs_->max_error(g);
    };
    agg_->on_model_received = [this](std::uint64_t round, PeerId,
                                     const secagg::Vector&) {
      if (++received_ < kPeers) return;
      std::lock_guard<std::mutex> lock(mu_);
      done_round_ = round;
      cv_.notify_all();
    };
    transport_.start();
  }

  ~TcpRig() { transport_.shutdown(); }
  TcpRig(const TcpRig&) = delete;
  TcpRig& operator=(const TcpRig&) = delete;

  struct RoundOutcome {
    bool completed = false;
    std::size_t groups_used = 0;
    double error = INFINITY;  // max |global - mean| of this round
    std::uint64_t payload = 0, charged = 0;
  };

  /// Start round `r` on the loop thread and wait until every peer holds
  /// its global model (or 60 s pass).
  RoundOutcome run_round(std::uint64_t r, const AggInputs& in) {
    inputs_ = &in;
    RoundOutcome out;
    std::uint64_t payload0 = 0, charged0 = 0;
    {
      Span s("net_tcp.transport_call", "net_tcp");
      transport_.call([&] {
        payload0 = payload_bytes(net_.stats());
        charged0 = net_.stats().sent.bytes;
        received_ = 0;
        groups_used_ = 0;
        error_ = INFINITY;
        agg_->begin_round(r, lead_, [&in](PeerId id) { return in.models[id]; });
      });
    }
    {
      Span s("net_tcp.wait_round", "net_tcp");
      std::unique_lock<std::mutex> lock(mu_);
      out.completed = cv_.wait_for(lock, std::chrono::seconds(60),
                                   [&] { return done_round_ == r; });
    }
    transport_.call([&] {
      out.groups_used = groups_used_;
      out.error = error_;
      out.payload = payload_bytes(net_.stats()) - payload0;
      out.charged = net_.stats().sent.bytes - charged0;
    });
    return out;
  }

  net::tcp::TcpTransport& transport() { return transport_; }
  std::uint64_t connects() {
    std::uint64_t v = 0;
    transport_.call([&] { v = transport_.obs().metrics.counter_value("net.tcp.connects"); });
    return v;
  }
  std::map<std::string, std::uint64_t> families() {
    std::map<std::string, std::uint64_t> out;
    transport_.call([&] { out = messages_by_family(net_.stats()); });
    return out;
  }
  std::vector<std::string> registry_names() {
    std::vector<std::string> names;
    transport_.call([&] {
      for (const auto& [name, c] : transport_.obs().metrics.counters()) names.push_back(name);
    });
    return names;
  }

 private:
  core::Topology topo_;
  net::tcp::TcpTransport transport_;
  net::Network net_;
  std::map<PeerId, std::unique_ptr<net::PeerHost>> hosts_;
  std::unique_ptr<core::TwoLayerAggregator> agg_;
  core::RoundLeadership lead_;
  const AggInputs* inputs_ = nullptr;
  // Loop-thread state.
  std::size_t received_ = 0;
  std::size_t groups_used_ = 0;
  double error_ = INFINITY;
  // Completion handoff to the benchmark thread.
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t done_round_ = 0;
};

struct Pass {
  RoundTimeline tl;
  std::vector<double> setups;
  std::size_t started = 0, ok = 0;
  double worst_error = 0.0;
  std::vector<std::string> failures;
  double raw_bytes = 0, frames = 0, charged = 0;  // timed phase
  std::map<std::string, double> families;                   // timed phase
  std::uint64_t connects = 0;
  std::vector<std::string> registry_names;
  double heap_mb = 0.0;
};

Pass run_pass(const AggInputs& in, std::size_t rounds, std::uint64_t seed,
              bool traced) {
  Pass p;
  const std::uint64_t want_payload = static_cast<std::uint64_t>(
      analysis::two_layer_cost_eq4(kGroups, kN) * 4.0 * kDim);
  std::optional<TcpRig> rig;
  std::uint64_t round = 0;
  auto one_round = [&] {
    const TcpRig::RoundOutcome o = rig->run_round(++round, in);
    ++p.started;
    const bool good = o.completed && o.groups_used == kGroups &&
                      o.payload == want_payload && o.error <= kTolerance;
    if (good) {
      ++p.ok;
    } else {
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "round %llu: completed %d, groups %zu/%zu, payload %llu "
                    "(want %llu), max error %.3g",
                    static_cast<unsigned long long>(round), o.completed ? 1 : 0,
                    o.groups_used, kGroups, static_cast<unsigned long long>(o.payload),
                    static_cast<unsigned long long>(want_payload), o.error);
      p.failures.push_back(buf);
    }
    p.worst_error = std::max(p.worst_error, o.error);
    return o;
  };
  for (int s = 0; s < kSetups; ++s) {
    rig.reset();
    p.tl = RoundTimeline{};
    p.tl.start();
    rig.emplace(seed + static_cast<std::uint64_t>(s), traced);
    one_round();  // warm-up: connects every directed pair it uses
    p.tl.commit();
    p.setups.push_back(p.tl.setup_s());
  }
  const std::uint64_t raw0 = rig->transport().raw_bytes_sent();
  const std::uint64_t frames0 = rig->transport().frames_sent();
  auto families0 = rig->families();
  for (std::size_t r = 0; r < rounds; ++r) {
    const TcpRig::RoundOutcome o = one_round();
    p.tl.commit();
    p.charged += static_cast<double>(o.charged);
  }
  p.raw_bytes = static_cast<double>(rig->transport().raw_bytes_sent() - raw0);
  p.frames = static_cast<double>(rig->transport().frames_sent() - frames0);
  for (const auto& [fam, n] : rig->families()) {
    p.families[fam] = static_cast<double>(n - families0[fam]);
  }
  p.connects = rig->connects();
  p.registry_names = rig->registry_names();
  p.heap_mb = heap_inuse_mb();
  rig.reset();
  return p;
}

}  // namespace

Result run_tcp_agg(const Options& opt) {
  // A round takes 0.26-0.44 s with the host's speed (NOTES.md); 0.3 s
  // gives 83 rounds at --seconds 25.
  const std::size_t rounds = rounds_for(opt.seconds, 0.3, 10, 240);
  const AggInputs in(kPeers, kDim, opt.seed);
  Result r;
  const Pass p = run_pass(in, rounds, opt.seed, false);
  add_end_to_end(r, p.tl, kPeers, p.started, p.ok);
  r.metric("setup_s", median(p.setups), "s");
  r.check("global_equals_mean", p.worst_error <= kTolerance,
          "max |global - float64 mean| = " + fmt("%.4g", p.worst_error) + " (tolerance 1e-5)");
  r.check("payload_is_eq4", p.failures.empty(),
          p.failures.empty() ? "every round: 98 |w| charged, all 5 groups"
                             : p.failures.front());
  r.note("tcp_agg: N=20 m=5 n=4 |w|=100k over loopback TCP, " +
         std::to_string(rounds) + " timed rounds after " + std::to_string(kSetups) +
         " set-ups; raw wire " + fmt("%.4g", p.raw_bytes / static_cast<double>(rounds) / 1e6) +
         " MB/round");

  if (!opt.trace) return r;
  Tracer tracer;
  set_tracer(&tracer);
  const Pass t = run_pass(in, rounds, opt.seed, true);
  const double rounds_d = static_cast<double>(rounds);
  LayerReport rep;
  rep.round_s_untraced = p.tl.round_s_p50();
  rep.round_s_traced = t.tl.round_s_p50();
  for (const auto& [fam, n] : t.families) rep.add_messages(fam, n / rounds_d);
  rep.wire_mb = t.raw_bytes / rounds_d / 1e6;
  rep.tcp_frames = t.frames / rounds_d;
  rep.tcp_connects = static_cast<double>(t.connects);
  // Encode-verify and the frame encoder each encode every message once;
  // the receiver decodes it once.
  rep.mb_encoded = 2.0 * t.charged / rounds_d / 1e6;
  rep.mb_decoded = t.charged / rounds_d / 1e6;
  rep.divides = kPeers;
  rep.accumulates = static_cast<double>(kGroups * (kN * kN + kN));
  rep.heap_inuse_mb = t.heap_mb;
  rep.send_deliver_us = probe_send_deliver_us();
  rep.counter_ns = probe_counter_lookup_ns(t.registry_names, "sac/sg3/share");
  rep.codec = probe_share_codec(kDim, kN, kN);
  rep.divide_ms = probe_divide_ms(kDim, kN);
  rep.accumulate_ms = probe_accumulate_ms(kDim);
  rep.rtt = probe_tcp_frame_rtt(static_cast<std::size_t>(rep.codec.bundle_mb * 1e6));
  set_tracer(nullptr);
  add_layer_metrics(r, rep, tracer);
  write_spans(opt, tracer);
  return r;
}

}  // namespace perfbench
