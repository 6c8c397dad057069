#include "core/two_layer_raft.hpp"

#include <sys/stat.h>

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"

namespace p2pfl::core {

namespace {

/// Both layers snapshot their config logs after this many applied
/// entries (they grow forever otherwise: one config commit every
/// config_commit_interval).
constexpr std::size_t kLogCompactionThreshold = 64;

std::string subgroup_channel(SubgroupId g) {
  return "raft/sg" + std::to_string(g);
}

const char* kFedChannel = "raft/fed";
const char* kJoinChannel = "join";
const char* kRejoinChannel = "member/rejoin";

/// The subgroup log's command: the FedAvg-layer configuration, tagged.
struct FedConfigCommand {
  static constexpr std::uint8_t kTag = 1;
  std::uint8_t tag = kTag;
  std::vector<PeerId> members;

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.tag, m.members);
  }
};

// Composite subgroup snapshot: the replicated state machine (FedAvg
// configuration) plus an opaque application blob piggy-backed for
// state-transfer catch-up (the newest global model, see
// app_snapshot_save). Tagged so a fed-config-only blob from an older
// snapshot (a FedConfigCommand) still decodes.
struct SnapshotState {
  static constexpr std::uint8_t kTag = 2;
  std::uint8_t tag = kTag;
  std::vector<PeerId> fed_cfg;
  Bytes app;

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.tag, m.fed_cfg, m.app);
  }
};

/// decode_wire that also requires the value's leading tag to be T's.
template <typename T>
std::optional<T> decode_tagged(const Bytes& data) {
  std::optional<T> m = decode_wire<T>(data);
  if (m.has_value() && m->tag != T::kTag) return std::nullopt;
  return m;
}

}  // namespace

TwoLayerRaftSystem::TwoLayerRaftSystem(Topology topology,
                                       TwoLayerRaftOptions opts,
                                       net::Network& net)
    : topology_(std::move(topology)), opts_(opts), net_(net) {
  wire::register_codecs();
  if (!opts_.storage_dir.empty()) {
    ::mkdir(opts_.storage_dir.c_str(), 0755);  // EEXIST is fine
  }
  const auto designated = topology_.designated_leaders();
  for (PeerId id : topology_.all_peers()) {
    auto peer = std::make_unique<Peer>();
    peer->id = id;
    peer->subgroup = topology_.subgroup_of(id);
    peer->known_fed_cfg = designated;
    peer->cfg_commit_timer = std::make_unique<net::Timer>(
        net_.transport(), [this, p = peer.get()] { commit_fed_config(*p); },
        "fed.cfg_commit");
    peer->join_timer = std::make_unique<net::Timer>(
        net_.transport(), [this, p = peer.get()] { send_join_request(*p); },
        "fed.join_retry");
    peer->supervise_timer = std::make_unique<net::Timer>(
        net_.transport(), [this, p = peer.get()] { supervise(*p); },
        "member.supervise");
    peer->rejoin_timer = std::make_unique<net::Timer>(
        net_.transport(), [this, p = peer.get()] { send_rejoin_request(*p); },
        "member.rejoin_retry");
    peer->host.route(kJoinChannel, [this, p = peer.get()](
                                       const net::Envelope& env) {
      const auto* req = net::payload<JoinRequest>(env.body);
      if (req != nullptr) handle_join_request(*p, *req);
    });
    peer->host.route(kRejoinChannel, [this, p = peer.get()](
                                         const net::Envelope& env) {
      const auto* req = net::payload<wire::RejoinRequestMsg>(env.body);
      if (req != nullptr) handle_rejoin_request(*p, *req);
    });
    net_.attach(id, &peer->host);
    peers_.emplace(id, std::move(peer));
  }
  for (auto& [id, peer] : peers_) {
    const bool is_designated =
        std::find(designated.begin(), designated.end(), id) !=
        designated.end();
    raft::RaftOptions sg_opts = opts_.raft;
    sg_opts.compaction_threshold = kLogCompactionThreshold;
    if (is_designated) {
      // Bootstrap determinism: the designated representative campaigns
      // first, so the initial subgroup leaders coincide with the initial
      // FedAvg-layer configuration (the steady state the paper's
      // experiments start from). Later elections are fully randomized.
      sg_opts.initial_election_timeout = opts_.raft.election_timeout_min / 2;
    }
    make_sg_node(*peer, topology_.group(peer->subgroup), sg_opts);
    // Designated bootstrap representatives are FedAvg members from t=0.
    if (is_designated) {
      ensure_fed_node(*peer);
    }
  }
}

std::string TwoLayerRaftSystem::sg_storage_prefix(const Peer& p) const {
  return opts_.storage_dir + "/peer" + std::to_string(p.id) + "_sg" +
         std::to_string(p.subgroup);
}

std::string TwoLayerRaftSystem::fed_storage_prefix(const Peer& p) const {
  return opts_.storage_dir + "/peer" + std::to_string(p.id) + "_fed";
}

void TwoLayerRaftSystem::make_sg_node(Peer& p, std::vector<PeerId> config,
                                      raft::RaftOptions sg_opts) {
  if (!opts_.storage_dir.empty() && !p.sg_storage) {
    p.sg_storage = std::make_unique<raft::WalStorage>(sg_storage_prefix(p));
  }
  // Destroy any predecessor instance first: its destructor unroutes the
  // subgroup channels the replacement is about to register.
  p.sg_node.reset();
  p.sg_node = std::make_unique<raft::RaftNode>(
      p.id, subgroup_channel(p.subgroup), std::move(config), sg_opts, net_,
      p.host, p.sg_storage.get());
  wire_subgroup_node(p);
}

TwoLayerRaftSystem::~TwoLayerRaftSystem() {
  for (auto& [id, peer] : peers_) net_.detach(id);
}

TwoLayerRaftSystem::Peer& TwoLayerRaftSystem::peer_ref(PeerId id) {
  auto it = peers_.find(id);
  P2PFL_CHECK_MSG(it != peers_.end(), "unknown peer");
  return *it->second;
}

const TwoLayerRaftSystem::Peer& TwoLayerRaftSystem::peer_ref(
    PeerId id) const {
  auto it = peers_.find(id);
  P2PFL_CHECK_MSG(it != peers_.end(), "unknown peer");
  return *it->second;
}

void TwoLayerRaftSystem::wire_subgroup_node(Peer& p) {
  raft::RaftNode& node = *p.sg_node;
  node.on_become_leader = [this, &p] { handle_subgroup_leadership(p); };
  node.on_step_down = [this, &p] { handle_subgroup_stepdown(p); };
  node.on_config_adopted = [this, &p](const std::vector<PeerId>& cfg) {
    handle_subgroup_config(p, cfg);
  };
  node.on_apply = [this, &p](raft::Index, const raft::LogEntry& e) {
    if (auto cmd = decode_tagged<FedConfigCommand>(e.data)) {
      p.known_fed_cfg = std::move(cmd->members);
    }
  };
  // The subgroup state machine is the FedAvg-layer configuration; the
  // snapshot additionally carries the application's catch-up blob so a
  // far-behind (or amnesiac) member recovers config AND model state in
  // one InstallSnapshot instead of a separate model push.
  node.on_snapshot_save = [this, &p] {
    SnapshotState state;
    state.fed_cfg = p.known_fed_cfg;
    if (app_snapshot_save) state.app = app_snapshot_save(p.id);
    return encode_wire(state);
  };
  node.on_snapshot_install = [this, &p](raft::Index, const Bytes& state) {
    if (state.empty()) return;
    if (auto s = decode_tagged<SnapshotState>(state)) {
      p.known_fed_cfg = std::move(s->fed_cfg);
      if (!s->app.empty() && app_snapshot_install) {
        app_snapshot_install(p.id, s->app);
      }
    } else if (auto cmd = decode_tagged<FedConfigCommand>(state)) {
      // Pre-composite snapshot blob (restored at restart()).
      p.known_fed_cfg = std::move(cmd->members);
    }
  };
  node.snapshot_payload = [this](const Bytes& state) -> std::uint64_t {
    if (!app_snapshot_payload) return 0;
    auto s = decode_tagged<SnapshotState>(state);
    if (!s || s->app.empty()) return 0;
    return app_snapshot_payload(s->app);
  };
}

void TwoLayerRaftSystem::make_fed_node(Peer& p) {
  raft::RaftOptions fed_opts = opts_.raft;
  fed_opts.compaction_threshold = kLogCompactionThreshold;
  if (!opts_.storage_dir.empty() && !p.fed_storage) {
    p.fed_storage = std::make_unique<raft::WalStorage>(fed_storage_prefix(p));
  }
  p.fed_node.reset();  // unroute any predecessor first
  p.fed_node = std::make_unique<raft::RaftNode>(
      p.id, kFedChannel, p.known_fed_cfg, fed_opts, net_, p.host,
      p.fed_storage.get());
  p.fed_node->on_become_leader = [this, &p] {
    P2PFL_DEBUG() << "peer " << p.id << " became FedAvg-layer leader";
    if (on_fedavg_leader) on_fedavg_leader(p.id);
  };
  p.fed_node->on_config_adopted = [this, &p](const std::vector<PeerId>& cfg) {
    // Track the layer's membership for subgroup-log commits.
    p.known_fed_cfg = cfg;
    const bool member = std::find(cfg.begin(), cfg.end(), p.id) != cfg.end();
    if (member) {
      check_join_complete(p);
    } else if (p.sg_node->is_leader() && !net_.crashed(p.id)) {
      // The layer evicted this representative while it was out (e.g.
      // the fed supervisor saw it silent during a crash window it has
      // since recovered from): run the §V-B1 join handshake again.
      p.announced_join = false;
      send_join_request(p);
    }
  };
}

void TwoLayerRaftSystem::ensure_fed_node(Peer& p) {
  if (!p.fed_node) {
    make_fed_node(p);
    if (p.fed_node->recovered_from_storage()) {
      p.fed_node->restart();
    } else {
      p.fed_node->start();
    }
  } else if (!p.fed_node->running()) {
    p.fed_node->restart();
  }
}

void TwoLayerRaftSystem::handle_subgroup_leadership(Peer& p) {
  P2PFL_DEBUG() << "peer " << p.id << " became leader of subgroup "
                << p.subgroup;
  if (on_subgroup_leader) on_subgroup_leader(p.subgroup, p.id);
  // §V-A1 post-leader-election callback: join the FedAvg layer using the
  // configuration learned through the subgroup's replicated log.
  ensure_fed_node(p);
  p.cfg_commit_timer->arm_periodic(opts_.config_commit_interval);
  if (!p.fed_node->in_config()) {
    p.announced_join = false;
    send_join_request(p);  // arms the retry timer
  } else {
    check_join_complete(p);
  }
}

void TwoLayerRaftSystem::handle_subgroup_stepdown(Peer& p) {
  p.cfg_commit_timer->cancel();
  p.join_timer->cancel();
}

void TwoLayerRaftSystem::commit_fed_config(Peer& p) {
  if (!p.sg_node->is_leader()) return;
  const std::vector<PeerId>& members =
      p.fed_node && p.fed_node->running() && p.fed_node->in_config()
          ? p.fed_node->members()
          : p.known_fed_cfg;
  if (members.empty()) return;
  FedConfigCommand cmd;
  cmd.members = members;
  p.sg_node->propose(encode_wire(cmd));
}

void TwoLayerRaftSystem::send_join_request(Peer& p) {
  if (!p.sg_node->is_leader() || !p.fed_node) return;
  if (p.fed_node->in_config()) {
    check_join_complete(p);
    return;
  }
  JoinRequest req;
  req.candidate = p.id;
  // The stale representative of this subgroup (predecessor leader).
  for (PeerId m : p.fed_node->members()) {
    if (m != p.id && topology_.subgroup_of(m) == p.subgroup) {
      req.stale_representative = m;
      break;
    }
  }
  // Prefer the known FedAvg leader; otherwise try members round-robin.
  PeerId target = p.fed_node->leader_hint();
  const auto& members = p.fed_node->members();
  if ((target == kNoPeer || target == p.id) && !members.empty()) {
    target = members[static_cast<std::size_t>(
                         net_.now() /
                         std::max<SimDuration>(1, opts_.fedavg_presence_poll)) %
                     members.size()];
  }
  if (target != kNoPeer && target != p.id) {
    net_.obs().metrics.counter("fed.join_requests").add(1);
    net_.send(p.id, target, kJoinChannel, req, wire::kJoinWire);
  }
  // §V-B1: keep polling for a FedAvg leader until the join completes.
  p.join_timer->arm(opts_.fedavg_presence_poll);
}

void TwoLayerRaftSystem::handle_join_request(Peer& p,
                                             const JoinRequest& req) {
  if (!p.fed_node || !p.fed_node->running()) return;
  raft::RaftNode& fed = *p.fed_node;
  if (!fed.is_leader()) {
    // Redirect toward the leader we know of; the joiner also retries.
    const PeerId hint = fed.leader_hint();
    if (hint != kNoPeer && hint != p.id && hint != req.candidate) {
      net_.send(p.id, hint, kJoinChannel, req, wire::kJoinWire);
    }
    return;
  }
  // Denounced peers are refused outright: liveness proof does not lift
  // a Byzantine attribution.
  if (banned_.count(req.candidate) > 0) {
    net_.obs().metrics.counter("membership.join_refused").add(1);
    return;
  }
  // A join request proves the candidate is alive; drop any suspicion the
  // fed-layer failure detector holds against it.
  p.fed_suspected.erase(req.candidate);
  const auto& cfg = fed.members();
  const bool candidate_in =
      std::find(cfg.begin(), cfg.end(), req.candidate) != cfg.end();
  const bool stale_in =
      req.stale_representative != kNoPeer &&
      std::find(cfg.begin(), cfg.end(), req.stale_representative) !=
          cfg.end();
  // One single-server change at a time; the joiner's retries sequence the
  // removal of the stale representative and the addition of the new one.
  if (stale_in && req.stale_representative != req.candidate) {
    fed.propose_remove_server(req.stale_representative);
  } else if (!candidate_in) {
    fed.propose_add_server(req.candidate);
  }
}

void TwoLayerRaftSystem::check_join_complete(Peer& p) {
  if (!p.fed_node || !p.fed_node->in_config()) return;
  if (!p.sg_node->is_leader()) return;
  p.join_timer->cancel();
  if (!p.announced_join) {
    p.announced_join = true;
    P2PFL_DEBUG() << "peer " << p.id << " joined the FedAvg layer";
    obs::Observability& o = net_.obs();
    o.metrics.counter("fed.joins_completed").add(1);
    if (o.trace.category_enabled("raft")) {
      o.trace.instant("raft", "fed.joined", p.id,
                      {{"subgroup", p.subgroup}});
    }
    if (on_fedavg_joined) on_fedavg_joined(p.id);
  }
}

// --- self-healing membership -------------------------------------------

void TwoLayerRaftSystem::supervise(Peer& p) {
  if (net_.crashed(p.id)) return;
  const SimTime now = net_.now();
  if (p.sg_node->running() && p.sg_node->is_leader()) {
    supervise_layer(p, *p.sg_node, p.sg_suspected, /*fed_layer=*/false);
  } else {
    // Lost leadership: the successor's detector re-establishes its own
    // suspicion clocks.
    p.sg_suspected.clear();
  }
  // Follower-side stale-config watch (subgroup layer): a member whose
  // own log still names it cannot see its removal — the leader simply
  // stops talking to it. A full grace window of leader silence is the
  // signal; the probe it triggers is idempotent if we are still in.
  if (p.sg_node->running() && !p.sg_node->is_leader() &&
      p.sg_node->in_config() && (!p.rejoining || p.stale_probe)) {
    p.sg_contact_mark =
        std::max(p.sg_contact_mark, p.sg_node->last_leader_contact());
    if (p.sg_contact_mark >= 0 &&
        now - p.sg_contact_mark > opts_.suspicion_grace) {
      probe_stale_membership(p);
    } else if (p.stale_probe) {
      // Leader contact resumed without a config change reaching us:
      // either the silence was a false alarm or the re-add left the
      // configuration order untouched. Both mean we are a member in
      // contact again — the handshake achieved its goal.
      finish_rejoin(p);
    }
  } else {
    p.sg_contact_mark = now;
    if (p.stale_probe && p.sg_node->is_leader()) finish_rejoin(p);
  }
  if (p.fed_node && p.fed_node->running() && p.fed_node->is_leader()) {
    supervise_layer(p, *p.fed_node, p.fed_suspected, /*fed_layer=*/true);
  } else {
    p.fed_suspected.clear();
  }
  // Same watch for the FedAvg layer; only a current subgroup leader has
  // any business being a member there.
  if (p.fed_node && p.fed_node->running() && !p.fed_node->is_leader() &&
      p.fed_node->in_config() && p.sg_node->is_leader()) {
    p.fed_contact_mark =
        std::max(p.fed_contact_mark, p.fed_node->last_leader_contact());
    if (p.fed_contact_mark >= 0 &&
        now - p.fed_contact_mark > opts_.suspicion_grace) {
      JoinRequest req;
      req.candidate = p.id;
      req.stale_representative = kNoPeer;
      const std::vector<PeerId>& members = p.fed_node->members();
      PeerId target = p.fed_node->leader_hint();
      if (target == kNoPeer || target == p.id) {
        std::vector<PeerId> others;
        for (PeerId m : members) {
          if (m != p.id) others.push_back(m);
        }
        if (!others.empty()) {
          target = others[p.probe_attempts % others.size()];
        }
      }
      ++p.probe_attempts;
      if (target != kNoPeer && target != p.id) {
        net_.obs().metrics.counter("fed.stale_probes").add(1);
        p.announced_join = false;
        net_.send(p.id, target, kJoinChannel, req, wire::kJoinWire);
      }
    }
  } else {
    p.fed_contact_mark = now;
  }
}

void TwoLayerRaftSystem::probe_stale_membership(Peer& p) {
  obs::Observability& o = net_.obs();
  if (!p.rejoining) {
    // A probe is a full rejoin handshake whose happy ending may simply
    // be "the leader talks to us again" — open it as one so the
    // eviction/rejoin bookkeeping pairs up even when the evicted node
    // never observes its own removal.
    p.rejoining = true;
    p.stale_probe = true;
    p.rejoin_attempts = 0;
    o.metrics.counter("membership.rejoin_started").add(1);
    if (o.trace.category_enabled("raft")) {
      o.trace.instant("raft", "membership.rejoin_start", p.id,
                      {{"subgroup", p.subgroup}, {"stale_probe", true}});
    }
    if (o.spans.enabled() && p.rejoin_span == obs::kNoSpan) {
      p.rejoin_span =
          o.spans.open(obs::SpanKind::kRejoin, "member/rejoin", p.id, 0);
    }
  }
  wire::RejoinRequestMsg req;
  req.peer = p.id;
  req.subgroup = p.subgroup;
  req.incarnation = net_.incarnation(p.id);
  const PeerId target = rejoin_target(p, p.probe_attempts);
  ++p.probe_attempts;
  if (target != kNoPeer && target != p.id) {
    o.metrics.counter("membership.stale_probes").add(1);
    obs::SpanStackScope scope(o.spans, p.rejoin_span);
    net_.send(p.id, target, kRejoinChannel, req, wire::kRejoinWire);
  }
}

PeerId TwoLayerRaftSystem::rejoin_target(const Peer& p,
                                         std::size_t attempt) const {
  // Prefer the leader we last heard from; otherwise walk the static
  // topology round-robin (leadership may have moved while we were out).
  PeerId target = p.sg_node->leader_hint();
  if (target == kNoPeer || target == p.id) {
    std::vector<PeerId> others;
    for (PeerId m : topology_.group(p.subgroup)) {
      if (m != p.id) others.push_back(m);
    }
    if (!others.empty()) target = others[attempt % others.size()];
  }
  return target;
}

void TwoLayerRaftSystem::supervise_layer(
    Peer& p, raft::RaftNode& node, std::map<PeerId, SimTime>& suspected,
    bool fed_layer) {
  const SimTime now = net_.now();
  obs::Observability& o = net_.obs();
  const char* layer = fed_layer ? "fed" : "sg";
  // Confirmed evictions first: a suspect missing from the adopted
  // configuration has been removed (adopt-at-append on this leader).
  // Copy, not reference: on_peer_evicted below may start an eviction
  // whose config append makes the node adopt a new membership vector,
  // which would leave a reference dangling mid-iteration.
  const std::vector<PeerId> cfg = node.members();
  for (auto it = suspected.begin(); it != suspected.end();) {
    if (std::find(cfg.begin(), cfg.end(), it->first) == cfg.end()) {
      o.metrics.counter("membership.evicted").add(1);
      o.metrics
          .histogram("membership.eviction_latency_ms",
                     obs::Histogram::exponential_bounds(1.0, 2.0, 16))
          .record(static_cast<double>(now - it->second) /
                  static_cast<double>(kMillisecond));
      if (o.trace.category_enabled("raft")) {
        o.trace.instant("raft", "membership.evicted", p.id,
                        {{"peer", it->first}, {"layer", layer}});
      }
      if (on_peer_evicted) on_peer_evicted(it->first, fed_layer);
      it = suspected.erase(it);
    } else {
      ++it;
    }
  }
  for (PeerId m : cfg) {
    if (m == p.id) continue;
    if (banned_.count(m) > 0) {
      // Standing eviction pressure on denounced members: liveness is
      // irrelevant, the suspicion never clears, and the removal retries
      // every tick until the configuration change lands.
      if (suspected.emplace(m, now).second) {
        o.metrics.counter("membership.suspected").add(1);
        if (o.trace.category_enabled("raft")) {
          o.trace.instant("raft", "membership.suspect", p.id,
                          {{"peer", m}, {"layer", layer}, {"banned", true}});
        }
      }
      node.propose_remove_server(m);
      continue;
    }
    const SimTime last = node.follower_last_contact(m);
    if (last < 0) continue;
    if (now - last <= opts_.suspicion_grace) {
      if (suspected.erase(m) > 0) {
        o.metrics.counter("membership.suspicion_cleared").add(1);
      }
      continue;
    }
    if (suspected.emplace(m, now).second) {
      o.metrics.counter("membership.suspected").add(1);
      // Detector delay: silence beyond the grace window until this tick
      // noticed it.
      o.metrics
          .histogram("membership.suspicion_latency_ms",
                     obs::Histogram::exponential_bounds(1.0, 2.0, 16))
          .record(static_cast<double>(now - last) /
                  static_cast<double>(kMillisecond));
      if (o.trace.category_enabled("raft")) {
        o.trace.instant("raft", "membership.suspect", p.id,
                        {{"peer", m}, {"layer", layer}});
      }
    }
    // One single-server change at a time: a busy pending change makes
    // this a no-op and the next tick retries.
    node.propose_remove_server(m);
  }
}

void TwoLayerRaftSystem::handle_subgroup_config(
    Peer& p, const std::vector<PeerId>& cfg) {
  const bool member = std::find(cfg.begin(), cfg.end(), p.id) != cfg.end();
  if (member) {
    if (p.rejoining) finish_rejoin(p);
  } else if (p.sg_node->running() && !net_.crashed(p.id)) {
    if (p.stale_probe) {
      // The stale belief is gone — our own removal finally reached us.
      // Degrade the probe into the regular retrying handshake.
      p.stale_probe = false;
      send_rejoin_request(p);
    } else {
      // Evicted while alive (wrongly suspected under a partition, or the
      // eviction landed before this restart was noticed): ask back in.
      start_rejoin(p);
    }
  }
}

void TwoLayerRaftSystem::start_rejoin(Peer& p) {
  if (p.rejoining) return;
  if (p.sg_node->in_config()) return;
  p.rejoining = true;
  p.rejoin_attempts = 0;
  obs::Observability& o = net_.obs();
  o.metrics.counter("membership.rejoin_started").add(1);
  if (o.trace.category_enabled("raft")) {
    o.trace.instant("raft", "membership.rejoin_start", p.id,
                    {{"subgroup", p.subgroup}});
  }
  if (o.spans.enabled()) {
    p.rejoin_span =
        o.spans.open(obs::SpanKind::kRejoin, "member/rejoin", p.id, 0);
  }
  send_rejoin_request(p);
}

void TwoLayerRaftSystem::send_rejoin_request(Peer& p) {
  if (net_.crashed(p.id) || !p.sg_node->running()) return;
  if (p.sg_node->in_config()) {
    finish_rejoin(p);
    return;
  }
  wire::RejoinRequestMsg req;
  req.peer = p.id;
  req.subgroup = p.subgroup;
  req.incarnation = net_.incarnation(p.id);
  const PeerId target = rejoin_target(p, p.rejoin_attempts);
  ++p.rejoin_attempts;
  if (target != kNoPeer && target != p.id) {
    obs::Observability& o = net_.obs();
    o.metrics.counter("membership.rejoin_requests").add(1);
    obs::SpanStackScope scope(o.spans, p.rejoin_span);
    net_.send(p.id, target, kRejoinChannel, req, wire::kRejoinWire);
  }
  p.rejoin_timer->arm(opts_.rejoin_retry);
}

void TwoLayerRaftSystem::handle_rejoin_request(
    Peer& p, const wire::RejoinRequestMsg& req) {
  if (net_.crashed(p.id) || !p.sg_node->running()) return;
  if (req.subgroup != p.subgroup || req.peer == p.id) return;
  raft::RaftNode& sg = *p.sg_node;
  if (!sg.is_leader()) {
    // Redirect toward the leader we know of; the joiner also retries.
    const PeerId hint = sg.leader_hint();
    if (hint != kNoPeer && hint != p.id && hint != req.peer) {
      net_.send(p.id, hint, kRejoinChannel, req, wire::kRejoinWire);
    }
    return;
  }
  // Denounced peers stay out for good: the rejoin handshake heals
  // crashes, not Byzantine attributions.
  if (banned_.count(req.peer) > 0) {
    obs::Observability& o = net_.obs();
    o.metrics.counter("membership.rejoin_refused").add(1);
    if (o.trace.category_enabled("raft")) {
      o.trace.instant("raft", "membership.rejoin_refused", p.id,
                      {{"peer", req.peer}});
    }
    return;
  }
  // The requester is demonstrably alive: lift any standing suspicion and
  // configure it back in. The add is rejected if it is still a member
  // (replication resumes by itself) or while another change is in
  // flight — the joiner's retries sequence those cases.
  p.sg_suspected.erase(req.peer);
  sg.propose_add_server(req.peer);
}

void TwoLayerRaftSystem::finish_rejoin(Peer& p) {
  if (!p.rejoining) return;
  p.rejoining = false;
  p.stale_probe = false;
  p.rejoin_timer->cancel();
  obs::Observability& o = net_.obs();
  o.metrics.counter("membership.rejoined").add(1);
  if (o.trace.category_enabled("raft")) {
    o.trace.instant("raft", "membership.rejoined", p.id,
                    {{"subgroup", p.subgroup}});
  }
  if (o.spans.enabled() && p.rejoin_span != obs::kNoSpan) {
    // Closed by whatever delivery carried the configuration in.
    obs::SpanId closer = o.spans.current();
    if (closer == p.rejoin_span) closer = obs::kNoSpan;
    o.spans.close(p.rejoin_span, closer);
  }
  p.rejoin_span = obs::kNoSpan;
  if (on_peer_rejoined) on_peer_rejoined(p.id);
}

// --- Byzantine denunciation ------------------------------------------------

void TwoLayerRaftSystem::denounce(PeerId peer) {
  if (!banned_.insert(peer).second) return;
  Peer& target = peer_ref(peer);
  const SimTime now = net_.now();
  obs::Observability& o = net_.obs();
  o.metrics.counter("membership.denounced").add(1);
  if (o.trace.category_enabled("raft")) {
    o.trace.instant("raft", "membership.denounced", peer,
                    {{"subgroup", target.subgroup}});
  }
  // FedAvg layer first: a live FedAvg leader can remove the peer at once.
  const PeerId fl = fedavg_leader();
  if (fl != kNoPeer && fl != peer) {
    Peer& f = peer_ref(fl);
    f.fed_suspected.emplace(peer, now);
    f.fed_node->propose_remove_server(peer);
  }
  // Subgroup layer. A denounced peer that currently LEADS its subgroup
  // cannot be removed by anyone else (only the leader changes the
  // configuration); honest followers refusing its authority would force
  // an election — modelled here as a leadership transfer to an honest
  // live member, after which the successor's supervisor evicts it.
  PeerId sgl = subgroup_leader(target.subgroup);
  if (sgl == peer) {
    for (PeerId m : target.sg_node->members()) {
      if (m != peer && !net_.crashed(m) && banned_.count(m) == 0) {
        target.sg_node->transfer_leadership(m);
        break;
      }
    }
    sgl = kNoPeer;  // eviction proceeds once the successor supervises
  }
  if (sgl != kNoPeer) {
    Peer& l = peer_ref(sgl);
    l.sg_suspected.emplace(peer, now);
    l.sg_node->propose_remove_server(peer);
  }
}

bool TwoLayerRaftSystem::push_state_snapshot(PeerId leader, PeerId to) {
  if (net_.crashed(leader) || leader == to) return false;
  Peer& p = peer_ref(leader);
  if (topology_.subgroup_of(to) != p.subgroup) return false;
  const bool sent = p.sg_node->push_snapshot(to);
  if (sent) {
    obs::Observability& o = net_.obs();
    o.metrics.counter("membership.state_snapshots_pushed").add(1);
    if (o.trace.category_enabled("raft")) {
      o.trace.instant("raft", "membership.state_snapshot_push", leader,
                      {{"to", to}, {"subgroup", p.subgroup}});
    }
  }
  return sent;
}

void TwoLayerRaftSystem::abort_rejoin(Peer& p) {
  if (!p.rejoining) return;
  p.rejoining = false;
  p.stale_probe = false;
  p.rejoin_timer->cancel();
  net_.obs().spans.close_aborted(p.rejoin_span);
  p.rejoin_span = obs::kNoSpan;
}

HealthReport TwoLayerRaftSystem::health(
    std::size_t sac_dropout_tolerance) const {
  HealthReport report;
  report.fedavg_leader = fedavg_leader();
  report.fedavg_members = fedavg_members();
  for (SubgroupId g = 0; g < topology_.subgroup_count(); ++g) {
    SubgroupHealth h;
    h.subgroup = g;
    h.leader = subgroup_leader(g);
    const std::vector<PeerId>& group = topology_.group(g);
    // Configuration view: the leader's if one exists, else any live
    // running member's, else any member's surviving persistent state.
    const Peer* view =
        h.leader != kNoPeer ? &peer_ref(h.leader) : nullptr;
    if (view == nullptr) {
      for (PeerId id : group) {
        const Peer& cand = peer_ref(id);
        if (!net_.crashed(id) && cand.sg_node->running()) {
          view = &cand;
          break;
        }
      }
    }
    if (view == nullptr && !group.empty()) view = &peer_ref(group.front());
    if (view != nullptr) h.config = view->sg_node->members();
    for (PeerId id : group) {
      if (!net_.crashed(id)) h.live.push_back(id);
      if (std::find(h.config.begin(), h.config.end(), id) ==
          h.config.end()) {
        h.evicted.push_back(id);
      }
      if (banned_.count(id) > 0) h.banned.push_back(id);
    }
    if (h.leader != kNoPeer) {
      for (const auto& [m, t] : peer_ref(h.leader).sg_suspected) {
        h.suspected.push_back(m);
      }
    }
    h.nominal_k = group.size() > sac_dropout_tolerance
                      ? group.size() - sac_dropout_tolerance
                      : 1;
    h.effective_k =
        std::max<std::size_t>(1, std::min(h.nominal_k, h.live.size()));
    h.degraded = h.live.size() < h.nominal_k;
    // Parked: leaderless and structurally unable to elect — the live
    // members cannot form a quorum of the current configuration.
    std::size_t live_in_cfg = 0;
    for (PeerId id : h.config) {
      if (!net_.crashed(id)) ++live_in_cfg;
    }
    const std::size_t q = h.config.size() / 2 + 1;
    h.parked =
        h.leader == kNoPeer && (h.config.empty() || live_in_cfg < q);
    report.subgroups.push_back(std::move(h));
  }
  return report;
}

void TwoLayerRaftSystem::start_all() {
  for (auto& [id, peer] : peers_) {
    if (peer->sg_node->recovered_from_storage()) {
      // The WAL carried state from a previous process: resume from it
      // (restart fires the snapshot-install/config hooks) instead of
      // booting a fresh term-0 follower.
      peer->sg_node->restart();
    } else {
      peer->sg_node->start();
    }
    peer->sg_contact_mark = net_.now();
    peer->fed_contact_mark = net_.now();
    peer->supervise_timer->arm_periodic(opts_.membership_poll);
  }
}

void TwoLayerRaftSystem::crash_peer(PeerId peer) {
  Peer& p = peer_ref(peer);
  net_.crash(peer);
  p.sg_node->stop();
  if (p.fed_node) p.fed_node->stop();
  p.cfg_commit_timer->cancel();
  p.join_timer->cancel();
  p.supervise_timer->cancel();
  p.sg_suspected.clear();
  p.fed_suspected.clear();
  abort_rejoin(p);
}

void TwoLayerRaftSystem::rebuild_from_storage(Peer& p) {
  raft::RaftOptions sg_opts = opts_.raft;
  sg_opts.compaction_threshold = kLogCompactionThreshold;
  make_sg_node(p, topology_.group(p.subgroup), sg_opts);
  if (p.sg_node->recovered_from_storage()) {
    p.sg_node->restart();
  } else {
    // WAL was empty or unusable: amnesia fallback — a blank follower
    // that waits to be configured back in.
    p.sg_node->start();
  }
  // The FedAvg instance comes back only if it left durable state; a
  // representative without one is recreated on its next leadership.
  p.fed_node.reset();
  if (p.fed_storage) {
    make_fed_node(p);
    if (p.fed_node->recovered_from_storage()) {
      p.fed_node->restart();
    } else {
      p.fed_node.reset();
    }
  }
}

void TwoLayerRaftSystem::restart_peer(PeerId peer) {
  Peer& p = peer_ref(peer);
  net_.restore(peer);
  if (p.sg_storage) {
    // Durable mode models a full process restart: the in-memory
    // instances are gone, everything comes back from the WAL.
    rebuild_from_storage(p);
  } else {
    p.sg_node->restart();
    // A previous FedAvg instance comes back passively; if the layer has
    // already replaced this peer it simply never campaigns again.
    if (p.fed_node) p.fed_node->restart();
  }
  p.sg_contact_mark = net_.now();
  p.fed_contact_mark = net_.now();
  p.supervise_timer->arm_periodic(opts_.membership_poll);
  // Evicted while down: the surviving log no longer names this peer.
  if (!p.sg_node->in_config()) start_rejoin(p);
}

void TwoLayerRaftSystem::restart_peer_amnesia(PeerId peer) {
  Peer& p = peer_ref(peer);
  P2PFL_CHECK_MSG(net_.crashed(peer),
                  "amnesia restart requires a crashed peer");
  net_.restore(peer);
  // Wipe persistent Raft state — in durable mode literally: the WALs
  // are deleted, so there is nothing to recover. The successor instance
  // boots with an empty configuration: it can neither campaign nor vote
  // (no split-brain from the forgotten term/vote), and waits for its
  // leader to configure it back in and replicate (or snapshot-install)
  // history.
  p.fed_node.reset();
  if (p.sg_storage) p.sg_storage->wipe();
  if (p.fed_storage) p.fed_storage->wipe();
  p.announced_join = false;
  p.known_fed_cfg = topology_.designated_leaders();
  raft::RaftOptions sg_opts = opts_.raft;
  sg_opts.compaction_threshold = kLogCompactionThreshold;
  make_sg_node(p, {}, sg_opts);
  p.sg_node->start();
  obs::Observability& o = net_.obs();
  o.metrics.counter("membership.amnesia_restarts").add(1);
  if (o.trace.category_enabled("raft")) {
    o.trace.instant("raft", "membership.amnesia_restart", peer,
                    {{"subgroup", p.subgroup}});
  }
  p.sg_contact_mark = net_.now();
  p.fed_contact_mark = net_.now();
  p.supervise_timer->arm_periodic(opts_.membership_poll);
  start_rejoin(p);
}

PeerId TwoLayerRaftSystem::subgroup_leader(SubgroupId g) const {
  PeerId best = kNoPeer;
  raft::Term best_term = 0;
  for (PeerId id : topology_.group(g)) {
    const Peer& p = peer_ref(id);
    if (net_.crashed(id) || !p.sg_node->is_leader()) continue;
    if (best == kNoPeer || p.sg_node->current_term() > best_term) {
      best = id;
      best_term = p.sg_node->current_term();
    }
  }
  return best;
}

PeerId TwoLayerRaftSystem::fedavg_leader() const {
  PeerId best = kNoPeer;
  raft::Term best_term = 0;
  for (const auto& [id, p] : peers_) {
    if (net_.crashed(id) || !p->fed_node || !p->fed_node->is_leader()) {
      continue;
    }
    if (best == kNoPeer || p->fed_node->current_term() > best_term) {
      best = id;
      best_term = p->fed_node->current_term();
    }
  }
  return best;
}

bool TwoLayerRaftSystem::leads_fedavg(PeerId peer) const {
  const Peer& p = peer_ref(peer);
  // fedavg_leader() names only a live peer whose FedAvg node leads.
  if (net_.crashed(peer) || !p.fed_node || !p.fed_node->is_leader()) {
    return false;
  }
  return fedavg_leader() == peer;
}

std::vector<PeerId> TwoLayerRaftSystem::fedavg_members() const {
  const PeerId leader = fedavg_leader();
  if (leader == kNoPeer) return {};
  return peer_ref(leader).fed_node->members();
}

bool TwoLayerRaftSystem::stabilized() const {
  std::vector<PeerId> leaders;
  for (SubgroupId g = 0; g < topology_.subgroup_count(); ++g) {
    const PeerId l = subgroup_leader(g);
    if (l == kNoPeer) return false;
    leaders.push_back(l);
  }
  const PeerId fed = fedavg_leader();
  if (fed == kNoPeer) return false;
  std::vector<PeerId> members = fedavg_members();
  std::sort(members.begin(), members.end());
  std::sort(leaders.begin(), leaders.end());
  if (members != leaders) return false;
  for (PeerId l : leaders) {
    const Peer& p = peer_ref(l);
    if (!p.fed_node || !p.fed_node->running() || !p.fed_node->in_config()) {
      return false;
    }
  }
  return true;
}

raft::RaftNode& TwoLayerRaftSystem::subgroup_node(PeerId peer) {
  return *peer_ref(peer).sg_node;
}

net::PeerHost& TwoLayerRaftSystem::host(PeerId peer) {
  return peer_ref(peer).host;
}

const std::vector<PeerId>& TwoLayerRaftSystem::known_fedavg_config(
    PeerId peer) const {
  return peer_ref(peer).known_fed_cfg;
}

}  // namespace p2pfl::core
