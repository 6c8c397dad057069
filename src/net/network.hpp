// Peer-to-peer message network: the protocol actors' façade over the
// transport seam.
//
// Network owns the *policy* of message exchange — typed sends with
// exact byte accounting, encode verification, crashes and incarnations,
// blocked links, named partitions, probabilistic
// loss/duplication/reordering/corruption — and delegates the
// *mechanics* (clock, timers, physically moving a frame) to a
// net::Transport. Between the two sits its net::LinkTable: stalls,
// throttles, the per-sender egress serializer and FIFO release floors,
// which both transports honor at the frame boundary.
//
//  * backed by net::SimTransport it is the paper's localhost TCP mesh
//    shaped by `tc netem`, reproduced on the deterministic simulator:
//    the Network's latency model (one-way base latency, default 15 ms
//    as in §VI-B1, per-link extra delay, the reorder draw) plus
//    the link table's hold gives every frame's delivery delay, and the
//    whole fault model is available to the chaos engine in src/chaos;
//  * backed by net::tcp::TcpTransport the same sends travel as
//    length-prefixed canonical codec frames over real loopback sockets;
//    the latency model is skipped (the kernel provides the real thing),
//    the stochastic draws that fire before transmission (loss,
//    duplication) still apply, and the transport gates its writes
//    through the link table.
//
// Either way the Network is the *measurement instrument* for the
// communication-cost experiments (Figs. 13-14): every payload carries an
// explicit wire size and the network keeps per-kind byte counters, so a
// run can be checked byte-for-byte against the paper's closed-form cost
// model — including a real-socket run, which is exactly the
// cross-validation the TCP backend exists for.
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "net/codec.hpp"
#include "net/envelope.hpp"
#include "net/link_table.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"

namespace p2pfl::net {

class SimTransport;

/// The value whose key is the longest prefix of `key` (null: none).
template <typename V>
const V* longest_prefix_match(const std::map<std::string, V>& m,
                              const std::string& key) {
  // Scan candidates not after `key`; keys before a non-matching prefix
  // can still match if shorter, so keep scanning backwards.
  auto it = m.upper_bound(key);
  while (it != m.begin()) {
    --it;
    if (key.compare(0, it->first.size(), it->first) == 0) return &it->second;
  }
  return nullptr;
}

/// Protocol actors implement Endpoint to receive messages.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void deliver(const Envelope& env) = 0;
};

/// Aggregate traffic counters, split by message kind.
struct TrafficStats {
  struct Counter {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    /// Model-data (|w|-unit) portion of `bytes` — what the paper's
    /// closed-form cost models count (framing overhead excluded).
    std::uint64_t payload = 0;

    /// Count one message of `wire` bytes, `model` of them payload.
    void add(std::uint64_t wire, std::uint64_t model) {
      messages += 1;
      bytes += wire;
      payload += model;
    }
  };
  Counter sent;       // accepted for transmission
  Counter delivered;  // actually handed to a live endpoint (originals)
  /// Chaos-duplicated copies handed to a live endpoint. Kept out of
  /// `delivered` and filed under "dup:<kind>" in delivered_by_kind, so
  /// per-kind delivered bytes match the paper's Eq. (4)/(5) counts even
  /// with duplication enabled.
  Counter duplicated;
  std::map<std::string, Counter> sent_by_kind;
  std::map<std::string, Counter> delivered_by_kind;
  /// Message counts per drop reason, mirroring the obs
  /// `net.dropped.<reason>` counters (sender_crashed, link_blocked,
  /// partitioned, chaos_loss, receiver_crashed, unattached).
  std::map<std::string, std::uint64_t> dropped_by_reason;

  void record_duplicate_delivered(const std::string& kind,
                                  std::uint64_t bytes,
                                  std::uint64_t payload);
};

/// Stochastic link-imperfection knobs, applied alike to every inter-peer
/// message (NetworkConfig::faults; chaos fault windows replace it for
/// their duration). All draws come from the network's own deterministic
/// RNG fork, so identical seeds produce identical loss patterns. The
/// all-zero default is a perfect link and makes no RNG draws at all
/// (existing byte-exact cost experiments stay untouched).
struct LinkFaults {
  /// Probability a message is lost in flight (after send accounting).
  double drop_prob = 0.0;
  /// Probability a message is delivered twice (independent latencies).
  double duplicate_prob = 0.0;
  /// With probability reorder_prob a message picks up extra uniform
  /// latency in [0, reorder_jitter], letting later sends overtake it.
  /// Simulator-only: a real transport's in-flight order is the wire's.
  double reorder_prob = 0.0;
  SimDuration reorder_jitter = 0;
  /// Probability a message's encoding has one random bit flipped in
  /// flight. Applies only to kinds with a registered codec; the receiver
  /// decodes the damaged bytes and drops the message (reason "corrupt")
  /// unless the decode still yields a well-formed value.
  double corrupt_prob = 0.0;
  /// Probability a message arrives truncated to a random strict prefix
  /// of its encoding (always dropped: the strict decoders reject every
  /// proper prefix).
  double truncate_prob = 0.0;

  bool any() const {
    return drop_prob > 0.0 || duplicate_prob > 0.0 ||
           (reorder_prob > 0.0 && reorder_jitter > 0) ||
           corrupt_prob > 0.0 || truncate_prob > 0.0;
  }
};

struct NetworkConfig {
  /// One-way delivery latency applied to every message (paper: 15 ms).
  /// Simulator-only; a real transport's wire provides the latency.
  SimDuration base_latency = 15 * kMillisecond;
  /// Per-peer egress bandwidth in bytes per second; 0 = infinite. When
  /// set, the link table serializes a sender's frames: each occupies its
  /// egress for wire_bytes / bandwidth and later sends queue behind it —
  /// which is what makes a one-layer SAC leader a latency bottleneck
  /// (see bench/ablation_round_latency). Applies on both transports.
  std::uint64_t egress_bytes_per_sec = 0;
  /// Stochastic imperfection applied to every inter-peer message.
  LinkFaults faults = {};
};

class Network : public FrameSink {
 public:
  /// Classic simulator-backed network: constructs and owns a
  /// SimTransport over `sim`. Behaviorally identical to the pre-seam
  /// Network — goldens pin this byte-for-byte.
  explicit Network(sim::Simulator& sim, NetworkConfig cfg = {});

  /// Seam constructor: run over any transport (the caller keeps
  /// ownership and must outlive the network).
  explicit Network(Transport& transport, NetworkConfig cfg = {});

  ~Network() override;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// The transport behind the seam.
  Transport& transport() { return transport_; }
  /// Transport clock (virtual on sim, monotonic µs on TCP).
  SimTime now() const { return transport_.now(); }
  /// Metrics/trace/span bundle of the backing transport.
  obs::Observability& obs() { return transport_.obs(); }
  const obs::Observability& obs() const { return transport_.obs(); }
  /// Root RNG of the backing transport (fork children from it).
  Rng& rng() { return transport_.rng(); }

  const NetworkConfig& config() const { return cfg_; }

  /// Register the handler for a peer. A peer must be attached before it
  /// can receive; re-attaching replaces the handler (peer restart).
  void attach(PeerId peer, Endpoint* endpoint);
  void detach(PeerId peer);

  /// Queue a message. Drops silently (like a dead TCP connection) when
  /// the sender is crashed or the link is blocked; latency and crash of
  /// the destination are evaluated at delivery time, so a message can be
  /// lost to a crash that happens while it is in flight. Stamps
  /// env.kind_id with this network's id for env.kind.
  ///
  /// Encode verification: a payload whose kind has a registered codec is
  /// encoded in full at send time — no size-only shortcut, no sampling —
  /// and the charged wire_bytes must equal the encoded length plus the
  /// envelope's declared modeled_delta, so every run cross-checks the
  /// Eq. (4)/(5) byte accounting against real encodings. Those bytes are
  /// the payload the transport sends, so a send encodes its payload
  /// once: on the simulator into one buffer the network clears and
  /// reuses, on a framing transport (TCP) behind the room for its frame
  /// head, in a buffer sized once that the transport sends (a chaos
  /// duplicate copies it; a dropped send frees it). On a
  /// non-deterministic transport a codec is additionally *required*:
  /// only canonical frames cross the seam.
  void send(Envelope env);

  /// Typed convenience wrapper building the envelope (pure control
  /// message: no model payload, byte-exact charge). The pre-PR-4
  /// std::any-body overloads are retired: the body must be a concrete
  /// message type, so every frame crossing the transport seam is a
  /// canonical, codec-encodable value (raw-bodied envelopes for
  /// simulator fault-injection tests can still be built by hand).
  template <typename T>
  void send(PeerId from, PeerId to, std::string kind, T body,
            std::uint64_t wire_bytes) {
    static_assert(!std::is_same_v<std::remove_cv_t<T>, std::any>,
                  "untyped std::any bodies are retired; send the concrete "
                  "message type so the frame stays canonical");
    Envelope env;
    env.from = from;
    env.to = to;
    env.kind = std::move(kind);
    env.body = std::move(body);
    env.wire_bytes = wire_bytes;
    send(std::move(env));
  }

  /// Typed convenience wrapper carrying the full charged-size breakdown.
  template <typename T>
  void send(PeerId from, PeerId to, std::string kind, T body,
            const WireSize& size) {
    static_assert(!std::is_same_v<std::remove_cv_t<T>, std::any>,
                  "untyped std::any bodies are retired; send the concrete "
                  "message type so the frame stays canonical");
    Envelope env;
    env.from = from;
    env.to = to;
    env.kind = std::move(kind);
    env.body = std::move(body);
    env.wire_bytes = size.wire;
    env.payload_bytes = size.payload;
    env.modeled_delta = size.modeled;
    send(std::move(env));
  }

  // --- fault injection -------------------------------------------------
  /// Crash a peer: it neither sends nor receives until restore().
  void crash(PeerId peer);
  void restore(PeerId peer);
  bool crashed(PeerId peer) const;
  std::size_t crashed_count() const { return crashed_.size(); }

  /// Current incarnation number of a peer (starts at 0, bumped by every
  /// crash()). Messages are stamped with the destination's incarnation
  /// at send time and dropped at delivery on mismatch.
  std::uint64_t incarnation(PeerId peer) const;

  /// Block / unblock a directed link (both calls are cheap).
  void block_link(PeerId from, PeerId to);
  void unblock_link(PeerId from, PeerId to);

  /// Extra one-way latency for a directed link (simulates slow peers).
  /// Simulator-only, like the rest of the latency model.
  void set_link_delay(PeerId from, PeerId to, SimDuration extra);
  void clear_link_delay(PeerId from, PeerId to);

  // --- stochastic imperfection ------------------------------------------
  /// Replace the faults applied to every inter-peer message.
  void set_default_faults(LinkFaults faults) { cfg_.faults = faults; }

  // --- partitions --------------------------------------------------------
  /// Split the network: peers in different `groups` cannot exchange
  /// messages (checked at send time, like block_link). Peers absent from
  /// every group form one implicit extra group of their own, so
  /// partition({A}) isolates A from the rest. Calling partition() again
  /// replaces the previous split; heal() removes it. Independent of
  /// block_link state (healing does not unblock manual blocks).
  void partition(const std::vector<std::vector<PeerId>>& groups);
  void heal();
  bool partition_active() const { return partition_active_; }
  /// True when an active partition separates the two peers.
  bool partitioned(PeerId from, PeerId to) const;

  // --- accounting -------------------------------------------------------
  const TrafficStats& stats() const { return stats_; }

  /// Pooled in-flight envelope records ever allocated by a sim-backed
  /// transport (high-water of simultaneously in-flight messages);
  /// 0 on real transports, which do not pool.
  std::size_t envelope_pool_slots() const;

  // --- FrameSink (upcalls from the transport) ---------------------------
  /// This network's link table; the chaos engine writes it.
  LinkTable& links() override { return links_; }
  /// A frame arrived for a local peer: delivered-side accounting, chaos
  /// corruption decode, incarnation/crash checks, endpoint dispatch.
  void transport_deliver(Envelope& env) override;
  void transport_peer_up(PeerId peer) override;
  void transport_peer_down(PeerId peer, const char* reason) override;

 private:
  Network(std::unique_ptr<Transport> owned, Transport* external,
          NetworkConfig cfg);

  using Link = std::uint64_t;
  static Link link_key(PeerId from, PeerId to) {
    return (static_cast<Link>(from) << 32) | to;
  }

  /// What the per-message path needs about one kind, resolved on the
  /// kind's first use. Registry counters and TrafficStats entries are
  /// still created at the kind's first send or delivery, so metric dumps
  /// list exactly the kinds that moved.
  struct KindSlot {
    const std::string* kind = nullptr;  // the key in kind_ids_
    /// Cached once found; a kind sent before its codec was registered is
    /// looked up again on its next message, so it does not stay
    /// unverified.
    const Codec* codec = nullptr;
    /// The transport's frame_head_bytes for this kind.
    std::size_t frame_head = 0;
    obs::Counter* sent_bytes = nullptr;       // net.sent.bytes.<kind>
    obs::Counter* delivered_bytes = nullptr;  // net.delivered.bytes.<kind>
    TrafficStats::Counter* sent = nullptr;       // sent_by_kind[kind]
    TrafficStats::Counter* delivered = nullptr;  // delivered_by_kind[kind]
  };

  /// Drop reasons: the keys of TrafficStats::dropped_by_reason and the
  /// suffixes of the `net.dropped.<reason>` counters.
  enum Drop {
    kSenderCrashed,
    kLinkBlocked,
    kPartitioned,
    kChaosLoss,
    kReceiverCrashed,
    kStaleIncarnation,
    kUnattached,
    kCorrupt,
    kDropReasons
  };

  /// The id of `kind`, interning it (with an empty slot) on first sight.
  KindId intern(const std::string& kind);
  const Codec* codec_of(KindSlot& k) const;
  SimDuration latency_for(PeerId from, PeerId to) const;
  /// Hand one copy to the transport's send_frame with its `frame`: the
  /// verified encoding behind the transport's frame head, or nothing
  /// (see Transport::send_frame).
  void schedule_delivery(Envelope env, const LinkFaults& f, Bytes&& frame);
  void count_drop(Drop reason);
  /// Encode-verify: the charge must equal the real encoding +
  /// modeled_delta. Returns that encoding, or an empty span for a kind
  /// without a registered codec. It lies in verify_buf_ (valid until the
  /// next send), or, when the transport frames the kind, in `frame`
  /// behind k.frame_head reserved bytes.
  ByteSpan verify_encoding(const Envelope& env, KindSlot& k,
                           ByteWriter& frame);
  /// Damage the message's real encoding `encoded` in flight (bit flip
  /// and/or truncation); the body becomes a CorruptPayload the
  /// receiving side must decode. No-op when `encoded` is empty (a kind
  /// without a registered codec).
  void maybe_corrupt(Envelope& env, ByteSpan encoded, bool flip,
                     bool truncate);

  /// Set for the legacy simulator constructor, which owns its transport.
  std::unique_ptr<Transport> owned_transport_;
  Transport& transport_;
  /// Non-null when the transport is the deterministic simulator path
  /// (envelope pool introspection); null on real transports.
  SimTransport* sim_transport_ = nullptr;
  NetworkConfig cfg_;
  /// Stream of the stochastic faults (its own fork of the transport's
  /// root RNG, so enabling chaos perturbs no protocol draw).
  Rng fault_rng_;
  LinkTable links_;
  obs::Counter& m_sent_msgs_;
  obs::Counter& m_sent_bytes_;
  obs::Counter& m_sent_payload_;
  obs::Counter& m_delivered_msgs_;
  obs::Counter& m_delivered_bytes_;
  obs::Counter& m_delivered_payload_;
  obs::Counter* m_dropped_[kDropReasons] = {};
  /// Entries of stats_.dropped_by_reason, created on first use.
  std::uint64_t* dropped_[kDropReasons] = {};
  /// Interned kinds: id by kind, slot by id (a deque, so slot references
  /// survive interning more kinds).
  std::unordered_map<std::string, KindId> kind_ids_;
  std::deque<KindSlot> kinds_;
  /// Encode-verify's buffer for a transport that frames nothing (the
  /// simulator), cleared and reused for every send; that transport is
  /// handed an empty frame and the typed body.
  ByteWriter verify_buf_;
  std::unordered_map<PeerId, Endpoint*> endpoints_;
  std::unordered_set<PeerId> crashed_;
  std::unordered_map<PeerId, std::uint64_t> incarnation_;
  std::unordered_set<Link> blocked_;
  std::unordered_map<Link, SimDuration> extra_delay_;
  bool partition_active_ = false;
  std::unordered_map<PeerId, int> partition_group_;
  TrafficStats stats_;
};

}  // namespace p2pfl::net
