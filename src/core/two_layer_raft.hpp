// Two-layer Raft backend (§V of the paper).
//
// Every peer runs a Raft instance for its SAC-layer subgroup. The
// subgroup leaders additionally run a Raft instance on the shared
// FedAvg-layer channel. The glue implemented here is exactly the paper's
// recovery machinery:
//
//  * Post-leader-election callback (§V-A1): when a peer wins its
//    subgroup election it looks up the FedAvg-layer configuration — which
//    the previous leader had periodically committed into the subgroup
//    log — spins up a passive FedAvg-layer Raft instance, and sends join
//    requests (every `fedavg_presence_poll`, §V-B1) until the FedAvg
//    leader has removed the subgroup's stale representative and added it
//    via Raft single-server membership changes (§VII-D).
//  * FedAvg-layer configuration commits: the subgroup leader commits the
//    current FedAvg member list to its subgroup's replicated state
//    machine on a timer, so any future leader knows whom to contact.
//  * The four failure cases of §V (SAC leader/follower, FedAvg
//    leader/follower) need no special-casing beyond the above: a FedAvg
//    follower is a subgroup leader, and a FedAvg leader additionally
//    triggers a FedAvg-layer election.
//
// The system exposes crash/restart injection per peer and observation
// hooks timestamped by the simulator — these drive Figs. 10-12.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/topology.hpp"
#include "core/wire.hpp"
#include "net/mux.hpp"
#include "net/network.hpp"
#include "obs/span.hpp"
#include "raft/node.hpp"
#include "raft/storage.hpp"
#include "net/transport.hpp"

namespace p2pfl::core {

struct TwoLayerRaftOptions {
  raft::RaftOptions raft;  // used for both layers
  /// §V-B1: interval of the joiner's FedAvg-presence poll / join retry.
  SimDuration fedavg_presence_poll = 100 * kMillisecond;
  /// Interval at which a subgroup leader commits the FedAvg-layer
  /// configuration into its subgroup log.
  SimDuration config_commit_interval = 200 * kMillisecond;

  // --- self-healing membership -------------------------------------------
  // Leaders suspect and evict silent members; evicted (or wiped) peers
  // run the rejoin handshake to be configured back in.
  /// A member whose AppendEntries/InstallSnapshot replies have been
  /// silent for longer than this is suspected and proposed for removal.
  /// Must be well above the election timeout, or a transient hiccup
  /// triggers eviction instead of a retry.
  SimDuration suspicion_grace = 1 * kSecond;
  /// Cadence of the leader-side failure-detector tick.
  SimDuration membership_poll = 250 * kMillisecond;
  /// Retry interval of an evicted peer's rejoin handshake.
  SimDuration rejoin_retry = 200 * kMillisecond;

  // --- crash durability ---------------------------------------------------
  /// Directory for per-peer write-ahead logs (created if missing). When
  /// set, every Raft instance persists term/vote/log/snapshot through a
  /// raft::WalStorage, restart_peer() models a full process restart —
  /// the in-memory instances are destroyed and rebuilt from disk — and
  /// an amnesia restart is exactly "delete the WAL". Empty = in-memory
  /// only (the pre-durability behavior).
  std::string storage_dir;
};

/// Point-in-time membership health of one subgroup (see health()).
struct SubgroupHealth {
  SubgroupId subgroup = 0;
  PeerId leader = kNoPeer;        // live leader, kNoPeer if none
  std::vector<PeerId> config;     // current Raft configuration
  std::vector<PeerId> live;       // topology members currently up
  std::vector<PeerId> suspected;  // leader's standing suspicions
  std::vector<PeerId> evicted;    // topology members outside config
  std::vector<PeerId> banned;     // denounced (Byzantine) members
  std::size_t nominal_k = 0;      // full-strength SAC threshold
  std::size_t effective_k = 0;    // threshold after live clamping
  bool degraded = false;          // live members < nominal_k
  bool parked = false;  // leaderless and live members below config quorum
};

struct HealthReport {
  std::vector<SubgroupHealth> subgroups;
  PeerId fedavg_leader = kNoPeer;
  std::vector<PeerId> fedavg_members;
};

class TwoLayerRaftSystem {
 public:
  TwoLayerRaftSystem(Topology topology, TwoLayerRaftOptions opts,
                     net::Network& net);
  ~TwoLayerRaftSystem();

  TwoLayerRaftSystem(const TwoLayerRaftSystem&) = delete;
  TwoLayerRaftSystem& operator=(const TwoLayerRaftSystem&) = delete;

  /// Start every peer (all followers; elections begin on timeouts).
  void start_all();

  // --- fault injection ---------------------------------------------------
  void crash_peer(PeerId peer);
  void restart_peer(PeerId peer);
  /// Restart with persistent Raft state wiped (term, vote, log, FedAvg
  /// instance). The blank node comes back with an empty configuration —
  /// it can neither campaign nor vote, so no split-brain is possible —
  /// and runs the rejoin handshake until its subgroup leader configures
  /// it back in and replication (or a snapshot install) catches it up.
  void restart_peer_amnesia(PeerId peer);

  // --- Byzantine denunciation --------------------------------------------
  /// Ban a peer attributed as Byzantine by detection: its layers evict it
  /// through the regular single-server membership path, every leader
  /// refuses its join/rejoin handshakes from now on, and — if it
  /// currently leads its subgroup — leadership is transferred to an
  /// honest member first (modelling honest followers refusing a
  /// denounced leader's authority). The ban is permanent. Idempotent.
  void denounce(PeerId peer);
  bool is_banned(PeerId peer) const { return banned_.count(peer) > 0; }
  const std::set<PeerId>& banned() const { return banned_; }

  // --- state-transfer catch-up hooks (set before start_all) ---------------
  /// Application state folded into every subgroup snapshot next to the
  /// FedAvg-layer configuration: save serializes the peer's blob at
  /// compaction time, install applies a received blob (apply-if-newer is
  /// the application's business). Empty blob = nothing to carry.
  std::function<Bytes(PeerId)> app_snapshot_save;
  std::function<void(PeerId, const Bytes&)> app_snapshot_install;
  /// Eq. (4)/(5) payload units carried by one app blob (e.g. one model
  /// transfer). Unset = snapshot installs are pure framing.
  std::function<std::uint64_t(const Bytes&)> app_snapshot_payload;

  /// Leader-initiated state transfer riding the Raft InstallSnapshot
  /// path: `leader` compacts its subgroup log (folding the current app
  /// blob into the snapshot) and installs it on `to`. Returns false
  /// unless `leader` currently leads `to`'s subgroup.
  bool push_state_snapshot(PeerId leader, PeerId to);

  // --- observation --------------------------------------------------------
  const Topology& topology() const { return topology_; }

  /// Current live leader of a subgroup (kNoPeer if none).
  PeerId subgroup_leader(SubgroupId g) const;

  /// Current live FedAvg-layer leader (kNoPeer if none).
  PeerId fedavg_leader() const;

  /// fedavg_leader() == peer, without scanning every peer unless the
  /// peer's own FedAvg node is a live leader (the round driver asks this
  /// on every peer's tick).
  bool leads_fedavg(PeerId peer) const;

  /// FedAvg-layer membership as seen by its current leader (empty if no
  /// leader).
  std::vector<PeerId> fedavg_members() const;

  /// Steady state: one live leader per subgroup, a FedAvg leader exists,
  /// and the FedAvg membership is exactly the set of subgroup leaders.
  bool stabilized() const;

  /// Access to a peer's Raft instances (tests / integration).
  raft::RaftNode& subgroup_node(PeerId peer);
  net::PeerHost& host(PeerId peer);

  /// FedAvg configuration a peer learned through its subgroup log (the
  /// designated bootstrap list until something newer commits).
  const std::vector<PeerId>& known_fedavg_config(PeerId peer) const;

  /// Membership health snapshot per subgroup plus the FedAvg layer.
  /// `sac_dropout_tolerance` reproduces the aggregation layer's
  /// k = n - tolerance policy so the report carries the SAC threshold
  /// each subgroup would run with.
  HealthReport health(std::size_t sac_dropout_tolerance = 0) const;

  // --- hooks (timestamp with net.now()) -----------------------
  std::function<void(SubgroupId, PeerId)> on_subgroup_leader;
  std::function<void(PeerId)> on_fedavg_leader;
  /// New subgroup leader completed its FedAvg-layer join (it appears in
  /// the configuration adopted by its own FedAvg instance).
  std::function<void(PeerId)> on_fedavg_joined;
  /// A leader's failure detector saw its suspicion confirmed: the peer
  /// is out of the adopted configuration. `fed_layer` distinguishes the
  /// FedAvg layer from the peer's subgroup cluster.
  std::function<void(PeerId, bool fed_layer)> on_peer_evicted;
  /// An evicted peer's rejoin handshake completed (it is back in its
  /// subgroup's configuration).
  std::function<void(PeerId)> on_peer_rejoined;

 private:
  using JoinRequest = wire::JoinRequestMsg;

  struct Peer {
    PeerId id = kNoPeer;
    SubgroupId subgroup = 0;
    net::PeerHost host;
    /// Declared before the nodes: a node writes through its storage until
    /// destruction, so the WAL must be torn down after it.
    std::unique_ptr<raft::WalStorage> sg_storage;
    std::unique_ptr<raft::WalStorage> fed_storage;
    std::unique_ptr<raft::RaftNode> sg_node;
    std::unique_ptr<raft::RaftNode> fed_node;
    std::vector<PeerId> known_fed_cfg;
    std::unique_ptr<net::Timer> cfg_commit_timer;
    std::unique_ptr<net::Timer> join_timer;
    bool announced_join = false;
    // Self-healing state.
    std::unique_ptr<net::Timer> supervise_timer;
    std::unique_ptr<net::Timer> rejoin_timer;
    /// While this peer leads a layer: member -> time suspicion began.
    std::map<PeerId, SimTime> sg_suspected;
    std::map<PeerId, SimTime> fed_suspected;
    bool rejoining = false;
    /// The active rejoin is a stale-config probe: our log still names us,
    /// so the handshake finishes on resumed leader contact rather than on
    /// a configuration change.
    bool stale_probe = false;
    std::size_t rejoin_attempts = 0;
    obs::SpanId rejoin_span = obs::kNoSpan;
    /// Stale-config probe clocks: latest proof the layer's leader still
    /// talks to us (or that no leader is owed, e.g. we are the leader).
    SimTime sg_contact_mark = -1;
    SimTime fed_contact_mark = -1;
    std::size_t probe_attempts = 0;
  };

  Peer& peer_ref(PeerId id);
  const Peer& peer_ref(PeerId id) const;
  void wire_subgroup_node(Peer& p);
  void ensure_fed_node(Peer& p);
  std::string sg_storage_prefix(const Peer& p) const;
  std::string fed_storage_prefix(const Peer& p) const;
  /// Create (or reuse) the peer's sg WAL and build + wire the subgroup
  /// node over it, with `config` as the bootstrap configuration; any
  /// durable state recovered from disk supersedes it.
  void make_sg_node(Peer& p, std::vector<PeerId> config,
                    raft::RaftOptions sg_opts);
  /// Build + wire the FedAvg-layer node (over its WAL when durable).
  void make_fed_node(Peer& p);
  /// Process-restart model: destroy both in-memory instances and rebuild
  /// them from their write-ahead logs.
  void rebuild_from_storage(Peer& p);
  void handle_subgroup_leadership(Peer& p);
  void handle_subgroup_stepdown(Peer& p);
  void commit_fed_config(Peer& p);
  void send_join_request(Peer& p);
  void handle_join_request(Peer& p, const JoinRequest& req);
  void check_join_complete(Peer& p);
  // Self-healing membership.
  void supervise(Peer& p);
  void supervise_layer(Peer& p, raft::RaftNode& node,
                       std::map<PeerId, SimTime>& suspected, bool fed_layer);
  void handle_subgroup_config(Peer& p, const std::vector<PeerId>& cfg);
  void probe_stale_membership(Peer& p);
  PeerId rejoin_target(const Peer& p, std::size_t attempt) const;
  void start_rejoin(Peer& p);
  void send_rejoin_request(Peer& p);
  void handle_rejoin_request(Peer& p, const wire::RejoinRequestMsg& req);
  void finish_rejoin(Peer& p);
  void abort_rejoin(Peer& p);

  Topology topology_;
  TwoLayerRaftOptions opts_;
  net::Network& net_;
  std::map<PeerId, std::unique_ptr<Peer>> peers_;
  /// Denounced peers: refused at every join/rejoin handshake and kept
  /// under standing eviction pressure by the layer supervisors.
  std::set<PeerId> banned_;
};

}  // namespace p2pfl::core
