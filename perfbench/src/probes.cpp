#include "probes.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <any>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/wire.hpp"
#include "fl/loss.hpp"
#include "fl/optimizer.hpp"
#include "fl/trainer.hpp"
#include "harness.hpp"
#include "net/codec.hpp"
#include "net/mux.hpp"
#include "net/network.hpp"
#include "raft/node.hpp"
#include "raft/storage.hpp"
#include "secagg/sac.hpp"
#include "secagg/sac_actor.hpp"
#include "secagg/wire.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace p2pfl;

namespace {

/// Median wall time of `reps` calls of `op`, after one warm-up call.
template <class F>
double median_seconds(int reps, F&& op) {
  op();
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = wall_s();
    op();
    v.push_back(wall_s() - t0);
  }
  return median(std::move(v));
}

secagg::Vector random_vector(std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  secagg::Vector v(dim);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

}  // namespace

double probe_sim_event_ns(std::size_t depth) {
  Span span("probe.sim_event", "sim");
  sim::Simulator sim(1);
  for (std::size_t i = 0; i < depth; ++i) {
    sim.schedule_after(3600 * kSecond + static_cast<SimDuration>(i), [] {});
  }
  constexpr std::size_t kBatch = 20000;
  const double s = median_seconds(15, [&] {
    for (std::size_t i = 0; i < kBatch; ++i) {
      sim.schedule_after(static_cast<SimDuration>((i * 977) % (20 * kMillisecond)),
                         [] {});
    }
    sim.run_for(20 * kMillisecond);
  });
  return s / kBatch * 1e9;
}

double probe_sim_reset_ns(std::size_t depth) {
  Span span("probe.sim_reset", "sim");
  sim::Simulator sim(1);
  for (std::size_t i = 0; i < depth; ++i) {
    sim.schedule_after(3600 * kSecond + static_cast<SimDuration>(i), [] {});
  }
  constexpr std::size_t kRing = 1024;
  constexpr std::size_t kBatch = 20000;
  std::vector<sim::EventId> ring(kRing, 0);
  std::size_t op = 0;
  const double s = median_seconds(15, [&] {
    for (std::size_t i = 0; i < kBatch; ++i, ++op) {
      const std::size_t at = op % kRing;
      if (ring[at] != 0) sim.cancel(ring[at]);
      ring[at] = sim.schedule_after(
          150 * kMillisecond +
              static_cast<SimDuration>((op * 131) % (150 * kMillisecond)),
          [] {});
    }
    sim.run_for(kMillisecond);
  });
  return s / kBatch * 1e9;
}

double probe_send_deliver_us() {
  Span span("probe.send_deliver", "net");
  sim::Simulator sim(1);
  net::Network net(sim, {});  // encode-verify on (the default)
  core::wire::register_codecs();
  net::PeerHost a;
  net::PeerHost b;
  net.attach(0, &a);
  net.attach(1, &b);
  std::size_t delivered = 0;
  b.route("member/pull", [&](const net::Envelope&) { ++delivered; });
  constexpr std::size_t kBatch = 5000;
  std::uint64_t round = 0;
  const double s = median_seconds(15, [&] {
    for (std::size_t i = 0; i < kBatch; ++i) {
      net.send(0, 1, "member/pull",
               core::wire::ModelPullMsg{.peer = 0, .last_round = ++round},
               core::wire::kPullWire);
    }
    sim.run();
  });
  if (delivered != 16 * kBatch) throw std::runtime_error("send probe lost messages");
  return s / kBatch * 1e6;
}

double probe_counter_lookup_ns(const std::vector<std::string>& names,
                               const std::string& kind) {
  Span span("probe.counter_lookup", "obs");
  obs::MetricsRegistry reg;
  for (const std::string& n : names) reg.counter(n);
  constexpr std::size_t kBatch = 20000;
  const double s = median_seconds(15, [&] {
    for (std::size_t i = 0; i < kBatch; ++i) {
      reg.counter("net.sent.bytes." + kind).add(1);
    }
  });
  return s / kBatch * 1e9;
}

CodecTiming probe_share_codec(std::size_t dim, std::size_t n, std::size_t k) {
  Span span("probe.share_codec", "net");
  secagg::wire::register_codecs("sac");
  const net::Codec* codec = net::CodecRegistry::global().find_key("sac:share");
  if (codec == nullptr) throw std::runtime_error("no sac:share codec");
  secagg::SacShareMsg msg;
  msg.round = 1;
  msg.from_pos = 0;
  for (std::size_t i = 0; i < n - k + 1; ++i) {
    msg.parts.emplace_back(static_cast<std::uint32_t>(i), random_vector(dim, 40 + i));
  }
  const std::any body = msg;
  Bytes encoded = *codec->encode(body);
  CodecTiming out;
  out.bundle_mb = static_cast<double>(encoded.size()) / 1e6;
  const int reps = dim >= 1'000'000 ? 5 : dim >= 10'000 ? 21 : 2001;
  const double enc = median_seconds(reps, [&] { encoded = *codec->encode(body); });
  const double dec = median_seconds(reps, [&] {
    if (!codec->decode(encoded).has_value()) {
      throw std::runtime_error("share bundle failed to decode");
    }
  });
  out.encode_ms_per_mb = enc * 1e3 / out.bundle_mb;
  out.decode_ms_per_mb = dec * 1e3 / out.bundle_mb;
  return out;
}

double probe_divide_ms(std::size_t dim, std::size_t n) {
  Span span("probe.divide", "secagg");
  const secagg::Vector secret = random_vector(dim, 50);
  Rng rng(51);
  const int reps = dim >= 1'000'000 ? 5 : dim >= 10'000 ? 21 : 2001;
  return 1e3 * median_seconds(reps, [&] {
           const auto shares = secagg::divide(secret, n, rng);
           if (shares.size() != n) throw std::runtime_error("divide");
         });
}

double probe_accumulate_ms(std::size_t dim) {
  Span span("probe.accumulate", "secagg");
  const secagg::Vector x = random_vector(dim, 52);
  std::vector<double> acc(dim, 0.0);
  const int reps = dim >= 1'000'000 ? 9 : dim >= 10'000 ? 41 : 2001;
  return 1e3 * median_seconds(reps, [&] { secagg::accumulate(acc, x); });
}

double probe_sac_average_ms(std::size_t dim, std::size_t n) {
  Span span("probe.sac_average", "secagg");
  std::vector<secagg::Vector> models;
  for (std::size_t i = 0; i < n; ++i) models.push_back(random_vector(dim, 60 + i));
  Rng rng(61);
  return 1e3 * median_seconds(3, [&] {
           const auto avg = secagg::sac_average(models, rng);
           if (avg.size() != dim) throw std::runtime_error("sac_average");
         });
}

FlTiming probe_fl(const std::function<fl::Model()>& build,
                  const fl::TrainTest& data, std::size_t batch,
                  std::size_t eval_samples, float lr) {
  Span span("probe.fl", "fl");
  Rng rng(70);
  fl::Model model = build();
  model.init(rng);
  fl::Adam adam(lr);
  std::vector<std::size_t> idx(batch);
  std::vector<int> labels(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    idx[i] = i;
    labels[i] = data.train.labels[i];
  }
  const fl::Tensor x = data.train.batch(idx);
  const bool big = model.param_count() > 100'000;
  const int reps = big ? 5 : 201;

  std::vector<double> fwd, bwd, opt;
  for (int r = 0; r <= reps; ++r) {  // r == 0 warms up
    model.zero_grads();
    const double t0 = wall_s();
    const fl::Tensor logits = model.forward(x, /*train=*/true, rng);
    const double t1 = wall_s();
    const fl::LossResult loss = fl::softmax_cross_entropy(logits, labels);
    model.backward(loss.grad);
    const double t2 = wall_s();
    auto params = model.get_params();
    const auto grads = model.get_grads();
    adam.step(params, grads);
    model.set_params(params);
    const double t3 = wall_s();
    if (r == 0) continue;
    fwd.push_back(t1 - t0);
    bwd.push_back(t2 - t1);
    opt.push_back(t3 - t2);
  }
  FlTiming out;
  out.forward_ms = 1e3 * median(fwd);
  out.backward_ms = 1e3 * median(bwd);
  out.optimizer_ms = 1e3 * median(opt);
  out.eval_ms = 1e3 * median_seconds(big ? 3 : 101, [&] {
                  fl::evaluate_model(model, data.test, rng, eval_samples);
                });

  // The single-worker baseline of one peer's whole local round.
  const std::size_t workers = parallel_workers();
  set_parallel_workers(1);
  fl::Model peer_model = build();
  peer_model.init(rng);
  fl::PeerTrainer trainer(std::move(peer_model), std::make_unique<fl::Adam>(lr),
                          data.train, idx, Rng(71));
  out.peer_round_ms = 1e3 * median_seconds(big ? 3 : 101, [&] {
                        trainer.train_round({.epochs = 1, .batch_size = batch});
                      });
  set_parallel_workers(workers);
  return out;
}

RaftTiming probe_raft_propose_commit() {
  Span span("probe.raft_propose_commit", "raft");
  sim::Simulator sim(80);
  net::Network net(sim, {});
  const std::vector<PeerId> members = {0, 1, 2, 3, 4};
  std::vector<std::unique_ptr<net::PeerHost>> hosts;
  std::vector<std::unique_ptr<raft::RaftNode>> nodes;
  for (PeerId id : members) {
    hosts.push_back(std::make_unique<net::PeerHost>());
    net.attach(id, hosts.back().get());
    nodes.push_back(std::make_unique<raft::RaftNode>(
        id, "raft/probe", members, raft::RaftOptions{}, net, *hosts.back()));
  }
  for (auto& n : nodes) n->start();
  auto leader = [&]() -> raft::RaftNode* {
    for (auto& n : nodes) {
      if (n->is_leader()) return n.get();
    }
    return nullptr;
  };
  // Elect a leader and let it commit its term's no-op before timing.
  sim.run_for(kSecond);
  raft::RaftNode* lead = leader();
  if (lead == nullptr) throw std::runtime_error("no raft leader");
  // Time propose -> commit on the leader only; the followers' remaining
  // acknowledgements drain untimed, so no backlog builds up across reps.
  RaftTiming out;
  std::vector<double> us;
  double msgs = 0.0, events = 0.0;
  auto& dispatched = sim.obs().metrics.counter("sim.events_dispatched");
  for (int rep = 0; rep <= 200; ++rep) {  // rep 0 warms up
    const std::uint64_t m0 = net.stats().sent.messages;
    const std::uint64_t e0 = dispatched.value();
    const double t0 = wall_s();
    const auto idx = lead->propose(Bytes(64, 1));
    if (!idx.has_value()) throw std::runtime_error("propose refused");
    for (std::size_t steps = 0; lead->commit_index() < *idx; ++steps) {
      if (steps > 1'000'000 || !sim.step()) throw std::runtime_error("no commit");
    }
    const double t1 = wall_s();
    if (rep > 0) {
      us.push_back(1e6 * (t1 - t0));
      msgs += static_cast<double>(net.stats().sent.messages - m0);
      events += static_cast<double>(dispatched.value() - e0);
    }
    sim.run_for(100 * kMillisecond);
  }
  out.propose_commit_us = median(us);
  out.msgs_per_commit = msgs / static_cast<double>(us.size());
  out.events_per_commit = events / static_cast<double>(us.size());
  return out;
}

double probe_wal_append_sync_us(const std::string& dir) {
  Span span("probe.wal_append_sync", "raft");
  std::filesystem::create_directories(dir);
  const std::string prefix = dir + "/wal_probe";
  double us = 0.0;
  {
    raft::WalStorage wal(prefix);
    wal.load();
    raft::LogEntry entry;
    entry.term = 1;
    entry.kind = raft::EntryKind::kCommand;
    entry.data = Bytes(128, 7);
    raft::Index index = 0;
    us = 1e6 * median_seconds(201, [&] {
           wal.append_entry(++index, entry);
           wal.sync();
         });
  }
  std::filesystem::remove(prefix + ".wal");
  std::filesystem::remove(prefix + ".snap");
  return us;
}

namespace {

void write_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w <= 0) throw std::runtime_error("probe socket write failed");
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

void read_all(int fd, std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r <= 0) throw std::runtime_error("probe socket read failed");
    p += r;
    n -= static_cast<std::size_t>(r);
  }
}

/// A connected loopback TCP pair whose server side echoes every
/// length-prefixed frame back; a length of 0xFFFFFFFF ends the echo.
class EchoPair {
 public:
  EchoPair() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 1) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      throw std::runtime_error("probe listener failed");
    }
    client_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (::connect(client_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0) {
      throw std::runtime_error("probe connect failed");
    }
    server_fd_ = ::accept(listen_fd_, nullptr, nullptr);
    const int one = 1;
    ::setsockopt(client_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::setsockopt(server_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    echo_ = std::thread([this] { echo_loop(); });
  }

  ~EchoPair() {
    const std::uint32_t stop = 0xFFFFFFFFu;
    try {
      write_all(client_fd_, reinterpret_cast<const std::uint8_t*>(&stop), 4);
    } catch (const std::exception&) {
      ::shutdown(server_fd_, SHUT_RDWR);
    }
    echo_.join();
    ::close(client_fd_);
    ::close(server_fd_);
    ::close(listen_fd_);
  }

  EchoPair(const EchoPair&) = delete;
  EchoPair& operator=(const EchoPair&) = delete;

  /// Send `frame` (length prefix included) and read its echo back into it.
  void round_trip(std::vector<std::uint8_t>& frame) {
    write_all(client_fd_, frame.data(), frame.size());
    read_all(client_fd_, frame.data(), frame.size());
  }

 private:
  void echo_loop() {
    std::vector<std::uint8_t> buf;
    try {
      for (;;) {
        std::uint32_t len = 0;
        read_all(server_fd_, reinterpret_cast<std::uint8_t*>(&len), 4);
        if (len == 0xFFFFFFFFu) return;
        buf.resize(4 + len);
        std::memcpy(buf.data(), &len, 4);
        read_all(server_fd_, buf.data() + 4, len);
        write_all(server_fd_, buf.data(), buf.size());
      }
    } catch (const std::exception&) {
      // The client side reports the failure through its own read.
    }
  }

  int listen_fd_ = -1;
  int client_fd_ = -1;
  int server_fd_ = -1;
  std::thread echo_;
};

std::vector<std::uint8_t> frame_of(std::size_t payload) {
  std::vector<std::uint8_t> f(4 + payload, 0x5A);
  const auto len = static_cast<std::uint32_t>(payload);
  std::memcpy(f.data(), &len, 4);
  return f;
}

}  // namespace

FrameRtt probe_tcp_frame_rtt(std::size_t share_bytes) {
  Span span("probe.tcp_frame_rtt", "net_tcp");
  EchoPair pair;
  std::vector<std::uint8_t> share = frame_of(share_bytes);
  std::vector<std::uint8_t> control = frame_of(0);
  FrameRtt out;
  out.share_us = 1e6 * median_seconds(101, [&] { pair.round_trip(share); });
  out.control_us = 1e6 * median_seconds(1001, [&] { pair.round_trip(control); });
  return out;
}

}  // namespace perfbench
