#include "core/system.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"
#include "fl/checkpoint.hpp"
#include "fl/optimizer.hpp"

namespace p2pfl::core {

namespace {

/// The application blob every subgroup snapshot carries: the saver's
/// newest global model, as a checkpoint, and its round.
struct GlobalModelSnapshot {
  std::uint64_t round = 0;
  Bytes checkpoint;

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.round, m.checkpoint);
  }
};

}  // namespace

SystemConfig SystemConfig::real_clock() {
  SystemConfig cfg;
  cfg.raft.raft.election_timeout_min = 1 * kSecond;
  cfg.raft.raft.election_timeout_max = 2 * kSecond;
  cfg.raft.fedavg_presence_poll = 200 * kMillisecond;
  cfg.round_interval = 1 * kSecond;
  cfg.train_duration = 50 * kMillisecond;
  cfg.agg.collect_timeout = 60 * kSecond;
  cfg.agg.sac_share_timeout = 20 * kSecond;
  cfg.agg.sac_subtotal_timeout = 20 * kSecond;
  cfg.agg.upload_retry = 60 * kSecond;
  return cfg;
}

P2pFlSystem::P2pFlSystem(Topology topology, SystemConfig cfg,
                         net::Network& net, const fl::Dataset& data,
                         const fl::Dataset& test,
                         const fl::PeerIndices& parts,
                         const std::function<fl::Model()>& model_builder)
    : topology_(std::move(topology)),
      cfg_(cfg),
      net_(net),
      test_(test),
      raft_(topology_, cfg_.raft, net),
      eval_model_(model_builder()),
      eval_rng_(Rng(cfg.seed).fork(0xe7a1)) {
  P2PFL_CHECK(parts.size() >= topology_.peer_count());

  Rng root(cfg_.seed);
  // Shared initialization: every peer starts from the same w_0.
  fl::Model init_model = model_builder();
  Rng init_rng = root.fork(1);
  init_model.init(init_rng);
  w0_ = init_model.get_params();
  parked_.assign(topology_.subgroup_count(), 0);

  for (PeerId id : topology_.all_peers()) {
    PeerRuntime rt;
    fl::Model m = model_builder();
    m.set_params(w0_);
    rt.trainer = std::make_unique<fl::PeerTrainer>(
        std::move(m), std::make_unique<fl::Adam>(cfg_.learning_rate), data,
        parts[id], root.fork(1000 + id));
    rt.current_weights = w0_;
    rt.latest_global = w0_;
    rt.driver = std::make_unique<net::Timer>(
        net_.transport(), [this, id] { drive_round(id); }, "fl.round_driver");
    rt.trainer_done = std::make_unique<net::Timer>(
        net_.transport(), [this, id] { begin_local_training(id); },
        "fl.trainer_done");
    rt.catchup_timer = std::make_unique<net::Timer>(
        net_.transport(), [this, id] { send_model_pull(id); },
        "fl.catchup_retry");
    // State-transfer catch-up: a rejoined or fresh peer pulls the latest
    // global model from its subgroup leader instead of waiting a full
    // round out of date.
    net::PeerHost& host = raft_.host(id);
    host.route("member/pull", [this, id](const net::Envelope& env) {
      const auto* msg = net::payload<wire::ModelPullMsg>(env.body);
      if (msg != nullptr) handle_model_pull(id, *msg);
    });
    peers_.emplace(id, std::move(rt));
  }

  // Catch-up state transfer rides the Raft InstallSnapshot path: every
  // subgroup snapshot carries (round, checkpoint) of the saver's newest
  // global model next to the replicated FedAvg configuration, and a
  // member/pull answers with a snapshot push instead of a bespoke model
  // message. One mechanism serves amnesia recovery, slow-follower
  // compaction catch-up, and explicit pulls.
  raft_.app_snapshot_save = [this](PeerId id) -> Bytes {
    const PeerRuntime& rt = peers_.at(id);
    if (rt.last_global_round == 0) return {};
    return encode_wire(GlobalModelSnapshot{
        rt.last_global_round, fl::encode_checkpoint(rt.latest_global)});
  };
  raft_.app_snapshot_install = [this](PeerId id, const Bytes& app) {
    if (net_.crashed(id)) return;
    const std::optional<GlobalModelSnapshot> snap =
        decode_wire<GlobalModelSnapshot>(app);
    if (!snap.has_value()) return;
    const std::uint64_t round = snap->round;
    PeerRuntime& rt = peers_.at(id);
    if (round <= rt.last_global_round) return;  // apply-if-newer
    auto weights = fl::decode_checkpoint(snap->checkpoint);
    if (!weights.has_value() || weights->size() != w0_.size()) return;
    rt.catchup_timer->cancel();
    rt.last_global_round = round;
    rt.latest_global = *weights;
    rt.current_weights = *weights;
    rt.trainer->set_weights(*weights);
    obs::Observability& o = net_.obs();
    o.metrics.counter("fl.catchup_applied").add(1);
    if (o.trace.category_enabled("agg")) {
      o.trace.instant("agg", "fl.catchup_applied", id, {{"round", round}});
    }
    // Train on the recovered model so this peer contributes to the next
    // round instead of uploading w0-grade weights.
    if (!rt.training) {
      rt.training = true;
      rt.trainer_done->arm(cfg_.train_duration);
    }
  };
  raft_.app_snapshot_payload = [this](const Bytes&) -> std::uint64_t {
    // One model transfer in the Eq. (4)/(5) accounting.
    return cfg_.agg.model_wire_bytes > 0
               ? cfg_.agg.model_wire_bytes
               : 4 * static_cast<std::uint64_t>(w0_.size());
  };

  aggregator_ = std::make_unique<TwoLayerAggregator>(
      topology_, cfg_.agg, net_,
      [this](PeerId id) -> net::PeerHost& { return raft_.host(id); });
  aggregator_->on_global_model = [this](std::uint64_t round,
                                        const secagg::Vector& global,
                                        std::size_t groups_used) {
    ++rounds_completed_;
    freshest_global_ = global;
    if (on_round_complete) on_round_complete(round, global, groups_used);
  };
  aggregator_->on_model_received =
      [this](std::uint64_t round, PeerId peer, const secagg::Vector& g) {
        model_received(round, peer, g);
      };
  aggregator_->on_round_failed = [this](std::uint64_t round) {
    ++rounds_aborted_;
    if (on_round_aborted) on_round_aborted(round);
  };
  aggregator_->on_round_aborted = [this](std::uint64_t round) {
    ++rounds_aborted_;
    if (on_round_aborted) on_round_aborted(round);
  };
  // Detection -> eviction escalation: each attribution is one strike.
  // Below the limit the suspect is forgiven (re-admitted next round — a
  // persistent adversary immediately re-offends and earns the next
  // strike); at the limit it is denounced into the self-healing
  // membership path, which evicts it and refuses its rejoin handshakes.
  aggregator_->on_suspect = [this](std::uint64_t round, PeerId peer) {
    const std::size_t strikes = ++strikes_[peer];
    obs::Observability& o = net_.obs();
    o.metrics.counter("byzantine.strikes").add(1);
    if (o.trace.category_enabled("agg")) {
      o.trace.instant("agg", "byzantine.strike", peer,
                      {{"round", round}, {"strikes", strikes}});
    }
    if (strikes >= cfg_.suspect_strike_limit) {
      raft_.denounce(peer);
    } else {
      aggregator_->clear_suspect(peer);
    }
  };
}

void P2pFlSystem::start() {
  raft_.start_all();
  for (auto& [id, rt] : peers_) {
    rt.driver->arm_periodic(cfg_.round_interval);
  }
}

void P2pFlSystem::crash_peer(PeerId peer) {
  raft_.crash_peer(peer);
  PeerRuntime& rt = peers_.at(peer);
  rt.trainer_done->cancel();
  rt.catchup_timer->cancel();
  rt.training = false;
  net_.obs().spans.close_aborted(rt.train_span);
  rt.train_span = obs::kNoSpan;
  // The driver timer keeps ticking but drive_round() checks leadership
  // and crash state before acting.
}

void P2pFlSystem::restart_peer(PeerId peer) {
  raft_.restart_peer(peer);
  // Rounds moved on while this peer was down; pull the newest global
  // model rather than rejoining a full round stale.
  peers_.at(peer).catchup_timer->arm(cfg_.catchup_retry);
}

void P2pFlSystem::restart_peer_amnesia(PeerId peer) {
  PeerRuntime& rt = peers_.at(peer);
  // Model state is wiped along with the Raft state: back to w0.
  rt.trainer->set_weights(w0_);
  rt.current_weights = w0_;
  rt.latest_global = w0_;
  rt.last_global_round = 0;
  rt.training = false;
  rt.trainer_done->cancel();
  raft_.restart_peer_amnesia(peer);
  rt.catchup_timer->arm(cfg_.catchup_retry);
}

const std::vector<float>& P2pFlSystem::global_model_at(PeerId peer) const {
  return peers_.at(peer).latest_global;
}

fl::EvalResult P2pFlSystem::evaluate_global() {
  const std::vector<float>& w =
      freshest_global_.empty() ? peers_.begin()->second.latest_global
                               : freshest_global_;
  eval_model_.set_params(w);
  return fl::evaluate_model(eval_model_, test_, eval_rng_);
}

void P2pFlSystem::drive_round(PeerId self) {
  if (!raft_.leads_fedavg(self)) return;

  // Snapshot current leadership from the Raft backend; skip the tick if
  // any live subgroup is still electing (Raft repairs, we retry next
  // interval — the paper's timeout-and-continue behaviour). A subgroup
  // that structurally CANNOT elect (its live members are below the
  // quorum of its configuration) is parked out of the round instead, so
  // the FedAvg layer keeps making progress with the remaining groups;
  // it is un-parked automatically once repair gives it a leader again.
  obs::Observability& o = net_.obs();
  std::optional<HealthReport> health;
  RoundLeadership lead;
  lead.fedavg_leader = self;
  lead.subgroup_leaders.resize(topology_.subgroup_count(), kNoPeer);
  for (SubgroupId g = 0; g < topology_.subgroup_count(); ++g) {
    const PeerId l = raft_.subgroup_leader(g);
    if (l != kNoPeer && parked_[g]) {
      parked_[g] = 0;
      o.metrics.counter("subgroup.unparked").add(1);
      if (o.trace.category_enabled("agg")) {
        o.trace.instant("agg", "subgroup.unparked", self, {{"group", g}});
      }
    }
    bool any_alive = false;
    for (PeerId p : topology_.group(g)) {
      if (!net_.crashed(p)) any_alive = true;
    }
    if (any_alive && l == kNoPeer) {
      if (!health.has_value()) {
        health = raft_.health(cfg_.agg.sac_dropout_tolerance);
      }
      if (!health->subgroups[g].parked) {
        P2PFL_DEBUG() << "round driver: subgroup " << g
                      << " has no leader yet, postponing round";
        return;
      }
      if (!parked_[g]) {
        parked_[g] = 1;
        o.metrics.counter("subgroup.parked").add(1);
        if (o.trace.category_enabled("agg")) {
          o.trace.instant("agg", "subgroup.parked", self, {{"group", g}});
        }
      }
    }
    lead.subgroup_leaders[g] = l;
  }

  const std::uint64_t round =
      static_cast<std::uint64_t>(net_.now()) + 1;
  if (round <= last_round_started_) return;
  last_round_started_ = round;
  if (on_round_started) on_round_started(round);
  aggregator_->begin_round(round, lead, [this](PeerId id) {
    return peers_.at(id).current_weights;
  });
}

void P2pFlSystem::model_received(std::uint64_t round, PeerId peer,
                                 const secagg::Vector& global) {
  if (net_.crashed(peer)) return;
  PeerRuntime& rt = peers_.at(peer);
  rt.latest_global = global;
  if (round > rt.last_global_round) rt.last_global_round = round;
  // A live round reached this peer: any catch-up pull is now redundant.
  rt.catchup_timer->cancel();
  rt.trainer->set_weights(global);
  if (!rt.training) {
    rt.training = true;
    obs::SpanRecorder& sr = net_.obs().spans;
    if (sr.enabled() && rt.train_span == obs::kNoSpan) {
      // Training is caused by the arrival of the round's global model
      // (current() is the delivering link span); it completes next round.
      rt.train_span =
          sr.open(obs::SpanKind::kLocalTrain, "fl/local_train", peer, round);
    }
    rt.trainer_done->arm(cfg_.train_duration);  // models compute time
  }
}

void P2pFlSystem::begin_local_training(PeerId peer) {
  PeerRuntime& rt = peers_.at(peer);
  rt.training = false;
  obs::SpanRecorder& sr0 = net_.obs().spans;
  if (net_.crashed(peer)) {
    sr0.close_aborted(rt.train_span);
    rt.train_span = obs::kNoSpan;
    return;
  }
  rt.trainer->train_round(cfg_.train);
  const std::span<const float> trained = rt.trainer->params();
  rt.current_weights.assign(trained.begin(), trained.end());
  sr0.close(rt.train_span);
  rt.train_span = obs::kNoSpan;
}

// --- state-transfer catch-up -----------------------------------------------

void P2pFlSystem::send_model_pull(PeerId peer) {
  if (net_.crashed(peer)) return;
  PeerRuntime& rt = peers_.at(peer);
  const PeerId leader =
      raft_.subgroup_leader(topology_.subgroup_of(peer));
  if (leader != kNoPeer && leader != peer) {
    wire::ModelPullMsg msg;
    msg.peer = peer;
    msg.last_round = rt.last_global_round;
    net_.obs().metrics.counter("fl.catchup_pulls").add(1);
    net_.send(peer, leader, "member/pull", msg, wire::kPullWire);
  }
  // No leader yet (or we are it): retry until a push or a live round
  // result cancels the timer.
  rt.catchup_timer->arm(cfg_.catchup_retry);
}

void P2pFlSystem::handle_model_pull(PeerId peer,
                                    const wire::ModelPullMsg& msg) {
  if (net_.crashed(peer) || msg.peer == peer) return;
  const PeerRuntime& rt = peers_.at(peer);
  // Nothing newer here: stay silent, the puller keeps polling until a
  // live round (or a snapshot from a better-informed leader) reaches it.
  if (rt.last_global_round <= msg.last_round) return;
  // Answer by installing our subgroup snapshot on the puller — the
  // composite blob carries the newest global model (app_snapshot_save).
  if (raft_.push_state_snapshot(peer, msg.peer)) {
    obs::Observability& o = net_.obs();
    o.metrics.counter("fl.catchup_snapshots").add(1);
    if (o.trace.category_enabled("agg")) {
      o.trace.instant("agg", "fl.catchup_snapshot", peer,
                      {{"to", msg.peer}, {"round", rt.last_global_round}});
    }
  }
}

}  // namespace p2pfl::core
