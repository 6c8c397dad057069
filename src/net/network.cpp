#include "net/network.hpp"

#include <iterator>
#include <limits>

#include "common/check.hpp"
#include "common/log.hpp"
#include "net/sim_transport.hpp"

namespace p2pfl::net {

void TrafficStats::record_duplicate_delivered(const std::string& kind,
                                              std::uint64_t bytes,
                                              std::uint64_t payload) {
  duplicated.add(bytes, payload);
  delivered_by_kind["dup:" + kind].add(bytes, payload);
}

namespace {

constexpr const char* kDropNames[] = {
    "sender_crashed",   "link_blocked",      "partitioned", "chaos_loss",
    "receiver_crashed", "stale_incarnation", "unattached",  "corrupt"};

}  // namespace

Network::Network(sim::Simulator& sim, NetworkConfig cfg)
    : Network(std::make_unique<SimTransport>(sim), nullptr, cfg) {}

Network::Network(Transport& transport, NetworkConfig cfg)
    : Network(nullptr, &transport, cfg) {}

Network::Network(std::unique_ptr<Transport> owned, Transport* external,
                 NetworkConfig cfg)
    : owned_transport_(std::move(owned)),
      transport_(external != nullptr ? *external : *owned_transport_),
      cfg_(cfg),
      fault_rng_(transport_.rng().fork(0x6368'616fULL /*"chao"*/)),
      links_(transport_.obs(), cfg_.egress_bytes_per_sec),
      m_sent_msgs_(transport_.obs().metrics.counter("net.sent.messages")),
      m_sent_bytes_(transport_.obs().metrics.counter("net.sent.bytes")),
      m_sent_payload_(transport_.obs().metrics.counter("net.sent.payload")),
      m_delivered_msgs_(
          transport_.obs().metrics.counter("net.delivered.messages")),
      m_delivered_bytes_(
          transport_.obs().metrics.counter("net.delivered.bytes")),
      m_delivered_payload_(
          transport_.obs().metrics.counter("net.delivered.payload")) {
  P2PFL_CHECK(cfg_.base_latency >= 0);
  sim_transport_ = dynamic_cast<SimTransport*>(&transport_);
  transport_.set_sink(this);
}

Network::~Network() { transport_.set_sink(nullptr); }

std::size_t Network::envelope_pool_slots() const {
  return sim_transport_ != nullptr ? sim_transport_->envelope_pool_slots() : 0;
}

void Network::count_drop(Drop reason) {
  static_assert(std::size(kDropNames) == kDropReasons);
  const char* name = kDropNames[reason];
  if (m_dropped_[reason] == nullptr) {
    m_dropped_[reason] = &transport_.obs().metrics.counter(
        std::string("net.dropped.") + name);
  }
  m_dropped_[reason]->add(1);
  if (dropped_[reason] == nullptr) {
    dropped_[reason] = &stats_.dropped_by_reason[name];
  }
  *dropped_[reason] += 1;
}

KindId Network::intern(const std::string& kind) {
  auto [it, inserted] =
      kind_ids_.try_emplace(kind, static_cast<KindId>(kinds_.size()));
  if (inserted) {
    P2PFL_CHECK(it->second != kNoKind);
    KindSlot& slot = kinds_.emplace_back();
    slot.kind = &it->first;
    slot.frame_head = transport_.frame_head_bytes(kind);
  }
  return it->second;
}

const Codec* Network::codec_of(KindSlot& k) const {
  if (k.codec == nullptr) k.codec = CodecRegistry::global().find_kind(*k.kind);
  return k.codec;
}

void Network::attach(PeerId peer, Endpoint* endpoint) {
  P2PFL_CHECK(endpoint != nullptr);
  endpoints_[peer] = endpoint;
}

void Network::detach(PeerId peer) { endpoints_.erase(peer); }

SimDuration Network::latency_for(PeerId from, PeerId to) const {
  SimDuration d = cfg_.base_latency;
  auto it = extra_delay_.find(link_key(from, to));
  if (it != extra_delay_.end()) d += it->second;
  return d;
}

void Network::partition(const std::vector<std::vector<PeerId>>& groups) {
  partition_group_.clear();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (PeerId p : groups[g]) {
      partition_group_[p] = static_cast<int>(g);
    }
  }
  partition_active_ = true;
}

void Network::heal() {
  partition_active_ = false;
  partition_group_.clear();
}

bool Network::partitioned(PeerId from, PeerId to) const {
  if (!partition_active_) return false;
  // Peers absent from every named group share one implicit group (-1).
  const auto f = partition_group_.find(from);
  const auto t = partition_group_.find(to);
  const int gf = f == partition_group_.end() ? -1 : f->second;
  const int gt = t == partition_group_.end() ? -1 : t->second;
  return gf != gt;
}

void Network::schedule_delivery(Envelope env, const LinkFaults& f,
                                Bytes&& frame) {
  SimDuration delay = 0;
  if (transport_.deterministic()) {
    // The simulator has no wire, so the Network models the link: latency,
    // chaos reordering, and the link table's hold (stalls, egress
    // serialization). On a real transport the kernel provides the
    // latency, the transport applies the link table at its writes, and
    // the modeled delay stays 0.
    delay = latency_for(env.from, env.to);
    if (f.reorder_prob > 0.0 && f.reorder_jitter > 0 &&
        fault_rng_.chance(f.reorder_prob)) {
      delay += fault_rng_.uniform_int(0, f.reorder_jitter);
    }
    delay += links_.frame_delay(env.from, env.to, env.wire_bytes,
                                transport_.now());
  }
  transport_.send_frame(std::move(env), delay, std::move(frame));
}

void Network::send(Envelope env) {
  if (crashed_.count(env.from) > 0) {  // dead peers emit nothing
    count_drop(kSenderCrashed);
    return;
  }
  if (blocked_.count(link_key(env.from, env.to)) > 0) {
    count_drop(kLinkBlocked);
    return;
  }
  if (partitioned(env.from, env.to)) {
    count_drop(kPartitioned);
    return;
  }
  // Always re-stamped: a caller may reuse an envelope with another kind.
  env.kind_id = intern(env.kind);
  KindSlot& k = kinds_[env.kind_id];
  // The verified encoding is the payload the transport sends: one
  // encode per send, into `frame` when the transport frames the kind.
  ByteWriter frame;
  const ByteSpan payload = verify_encoding(env, k, frame);
  env.dest_incarnation = incarnation(env.to);

  obs::SpanRecorder& sr = transport_.obs().spans;
  if (sr.enabled() && env.span.span == obs::kNoSpan) {
    env.span = sr.current_ctx();
  }

  const bool self = env.from == env.to;
  if (self) {
    if (sr.enabled()) {
      env.span.span = sr.open(obs::SpanKind::kLink, env.kind, env.from,
                              env.span.round, env.span.span);
    }
    transport_.send_frame(std::move(env), 0, frame.take());
    return;
  }

  stats_.sent.add(env.wire_bytes, env.payload_bytes);
  if (k.sent == nullptr) k.sent = &stats_.sent_by_kind[*k.kind];
  k.sent->add(env.wire_bytes, env.payload_bytes);
  m_sent_msgs_.add(1);
  m_sent_bytes_.add(env.wire_bytes);
  m_sent_payload_.add(env.payload_bytes);
  if (k.sent_bytes == nullptr) {
    k.sent_bytes =
        &transport_.obs().metrics.counter("net.sent.bytes." + *k.kind);
  }
  k.sent_bytes->add(env.wire_bytes);
  obs::TraceStream& tr = transport_.obs().trace;
  if (tr.category_enabled("net")) {
    tr.instant("net", "net.send " + env.kind, env.from,
               {{"to", env.to}, {"bytes", env.wire_bytes}});
  }

  const LinkFaults& f = cfg_.faults;
  if (f.drop_prob > 0.0 && fault_rng_.chance(f.drop_prob)) {
    // Lost in flight: the sender paid the bytes, nobody receives them.
    count_drop(kChaosLoss);
    if (tr.category_enabled("net")) {
      tr.instant("net", "net.chaos_drop " + env.kind, env.from,
                 {{"to", env.to}});
    }
    return;
  }
  // Corruption damages the real encoding; a later duplicate draw copies
  // the damaged envelope, so both copies carry the same broken bytes.
  const bool flip =
      f.corrupt_prob > 0.0 && fault_rng_.chance(f.corrupt_prob);
  const bool trunc =
      f.truncate_prob > 0.0 && fault_rng_.chance(f.truncate_prob);
  if (flip || trunc) {
    maybe_corrupt(env, payload, flip, trunc);
    frame.clear();  // the damaged body has no verified encoding
  }
  const bool duplicate =
      f.duplicate_prob > 0.0 && fault_rng_.chance(f.duplicate_prob);
  if (duplicate) {
    transport_.obs().metrics.counter("net.chaos.duplicates").add(1);
    if (tr.category_enabled("net")) {
      tr.instant("net", "net.chaos_dup " + env.kind, env.from,
                 {{"to", env.to}});
    }
    // Duplicate copy scheduled first to keep the fault-RNG draw order of
    // schedule_delivery (reorder jitter) identical to the pre-span code.
    // Its frame is a copy of the original's buffer (empty when the
    // transport frames nothing), its head still to be written.
    Envelope dup = env;
    dup.chaos_duplicate = true;
    if (sr.enabled()) {
      dup.span.span = sr.open(obs::SpanKind::kLink, dup.kind, dup.from,
                              dup.span.round, dup.span.span);
    }
    schedule_delivery(std::move(dup), f, Bytes(frame.bytes()));
  }
  if (sr.enabled()) {
    // Each in-flight copy gets its own link span: open at send, closed at
    // delivery, parented to whatever span the sender was inside.
    env.span.span = sr.open(obs::SpanKind::kLink, env.kind, env.from,
                            env.span.round, env.span.span);
  }
  schedule_delivery(std::move(env), f, frame.take());
}

ByteSpan Network::verify_encoding(const Envelope& env, KindSlot& k,
                                  ByteWriter& frame) {
  const Codec* codec = codec_of(k);
  if (codec == nullptr) {
    // Raw / test-only kind: nothing to check on the simulator, a hard
    // error on a real transport, where only canonical frames travel.
    P2PFL_CHECK_MSG(transport_.deterministic(),
                    "kind '" + env.kind +
                        "' has no registered codec; only canonical codec "
                        "frames may cross a real transport");
    return {};
  }
  // A transport that frames payloads gets the encoding behind the room
  // its frame head takes, in a buffer of its own; otherwise it lands in
  // verify_buf_, reused for every send.
  const std::size_t head = k.frame_head;
  ByteWriter& out = head > 0 ? frame : verify_buf_;
  out.clear();
  if (head > 0) {
    // Sized once, to the head and the payload the charge declares: a
    // right charge fills it exactly, and a wrong one fails the check
    // below (a size no u32 frame length can carry reserves nothing, so
    // the check is what reports it).
    const std::int64_t declared =
        static_cast<std::int64_t>(env.wire_bytes) - env.modeled_delta;
    if (declared >= 0 &&
        declared <= std::numeric_limits<std::uint32_t>::max()) {
      out.reserve(head + static_cast<std::size_t>(declared));
    }
    out.pad(head);
  }
  P2PFL_CHECK_MSG(codec->encode_to(env.body, out),
                  "payload type does not match the codec for kind '" +
                      env.kind + "'");
  const std::size_t encoded = out.size() - head;
  const std::int64_t charged = static_cast<std::int64_t>(env.wire_bytes);
  const std::int64_t actual =
      static_cast<std::int64_t>(encoded) + env.modeled_delta;
  P2PFL_CHECK_MSG(charged == actual,
                  "charged wire_bytes " + std::to_string(env.wire_bytes) +
                      " for kind '" + env.kind + "' != encoded size " +
                      std::to_string(encoded) + " + modeled_delta " +
                      std::to_string(env.modeled_delta));
  return ByteSpan(out.bytes()).subspan(head);
}

void Network::maybe_corrupt(Envelope& env, ByteSpan encoded, bool flip,
                            bool truncate) {
  if (encoded.empty()) return;  // only real encodings can be damaged
  Bytes wire(encoded.begin(), encoded.end());
  if (truncate && !wire.empty()) {
    // Random strict prefix (possibly empty) — strict decoders reject it.
    wire.resize(fault_rng_.index(wire.size()));
  }
  if (flip && !wire.empty()) {
    const std::size_t bit = fault_rng_.index(wire.size() * 8);
    wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  env.body = CorruptPayload{std::move(wire)};
  transport_.obs().metrics.counter("net.chaos.corrupted").add(1);
  obs::TraceStream& tr = transport_.obs().trace;
  if (tr.category_enabled("net")) {
    tr.instant("net", "net.chaos_corrupt " + env.kind, env.from,
               {{"to", env.to}});
  }
}

void Network::transport_deliver(Envelope& env) {
  obs::SpanRecorder& sr = transport_.obs().spans;
  const obs::SpanId link = sr.enabled() ? env.span.span : obs::kNoSpan;
  if (crashed_.count(env.to) > 0) {  // lost in flight
    count_drop(kReceiverCrashed);
    if (link != obs::kNoSpan) sr.close_aborted(link);
    return;
  }
  if (env.dest_incarnation != incarnation(env.to)) {
    // Addressed to a process that has since died: even though a
    // same-numbered peer is back (possibly with wiped state), this
    // message belongs to its predecessor's TCP connections.
    count_drop(kStaleIncarnation);
    if (link != obs::kNoSpan) sr.close_aborted(link);
    return;
  }
  auto it = endpoints_.find(env.to);
  if (it == endpoints_.end()) {  // nobody listening
    count_drop(kUnattached);
    if (link != obs::kNoSpan) sr.close_aborted(link);
    return;
  }
  // Envelopes this network sent carry its id; decoded frames do not.
  if (env.kind_id == kNoKind) env.kind_id = intern(env.kind);
  P2PFL_CHECK_MSG(env.kind_id < kinds_.size(),
                  "envelope carries a kind id this network never issued");
  KindSlot& k = kinds_[env.kind_id];
  // A chaos-corrupted message carries its damaged real encoding; the
  // receiving side of the network decodes it back to a typed payload.
  // Failure means the receiver rejected the frame: dropped before any
  // delivered accounting, under its own drop reason.
  const Envelope* msg = &env;
  Envelope repaired;
  if (const CorruptPayload* cp = payload<CorruptPayload>(env.body)) {
    const Codec* codec = codec_of(k);
    std::optional<std::any> decoded =
        codec != nullptr ? codec->decode(cp->wire) : std::nullopt;
    if (!decoded.has_value()) {
      count_drop(kCorrupt);
      obs::TraceStream& tr = transport_.obs().trace;
      if (tr.category_enabled("net")) {
        tr.instant("net", "net.drop_corrupt " + env.kind, env.to,
                   {{"from", env.from}});
      }
      if (link != obs::kNoSpan) sr.close_aborted(link);
      return;
    }
    repaired = env;
    repaired.body = std::move(*decoded);
    msg = &repaired;
  }
  if (env.from != env.to) {
    if (env.chaos_duplicate) {
      // Chaos duplicate: delivered to the actor like any message, but
      // accounted under a distinct label so per-kind delivered bytes
      // stay equal to the Eq. (4)/(5) protocol counts.
      stats_.record_duplicate_delivered(env.kind, env.wire_bytes,
                                        env.payload_bytes);
      transport_.obs().metrics.counter("net.delivered.dup.messages").add(1);
      transport_.obs()
          .metrics.counter("net.delivered.dup.bytes")
          .add(env.wire_bytes);
      obs::TraceStream& tr = transport_.obs().trace;
      if (tr.category_enabled("net")) {
        tr.instant("net", "net.deliver_dup " + env.kind, env.to,
                   {{"from", env.from}, {"bytes", env.wire_bytes}});
      }
    } else {
      stats_.delivered.add(env.wire_bytes, env.payload_bytes);
      if (k.delivered == nullptr) {
        k.delivered = &stats_.delivered_by_kind[*k.kind];
      }
      k.delivered->add(env.wire_bytes, env.payload_bytes);
      m_delivered_msgs_.add(1);
      m_delivered_bytes_.add(env.wire_bytes);
      m_delivered_payload_.add(env.payload_bytes);
      if (k.delivered_bytes == nullptr) {
        k.delivered_bytes = &transport_.obs().metrics.counter(
            "net.delivered.bytes." + *k.kind);
      }
      k.delivered_bytes->add(env.wire_bytes);
      obs::TraceStream& tr = transport_.obs().trace;
      if (tr.category_enabled("net")) {
        tr.instant("net", "net.deliver " + env.kind, env.to,
                   {{"from", env.from}, {"bytes", env.wire_bytes}});
      }
    }
  }
  if (link != obs::kNoSpan) {
    // Close the wire span, then run the handler with it on the context
    // stack: spans the handler opens become children of this delivery,
    // and waits the handler resolves can record it as their closer.
    sr.close(link);
    sr.push(link);
    it->second->deliver(*msg);
    sr.pop();
    return;
  }
  it->second->deliver(*msg);
}

void Network::transport_peer_up(PeerId peer) {
  transport_.obs().metrics.counter("net.transport.peer_up").add(1);
  obs::TraceStream& tr = transport_.obs().trace;
  if (tr.category_enabled("net")) {
    tr.instant("net", "net.peer_up", peer);
  }
}

void Network::transport_peer_down(PeerId peer, const char* reason) {
  transport_.obs().metrics.counter("net.transport.peer_down").add(1);
  obs::TraceStream& tr = transport_.obs().trace;
  if (tr.category_enabled("net")) {
    tr.instant("net", std::string("net.peer_down ") + reason, peer);
  }
}

void Network::crash(PeerId peer) {
  if (crashed_.insert(peer).second) incarnation_[peer] += 1;
}

std::uint64_t Network::incarnation(PeerId peer) const {
  auto it = incarnation_.find(peer);
  return it == incarnation_.end() ? 0 : it->second;
}

void Network::restore(PeerId peer) { crashed_.erase(peer); }

bool Network::crashed(PeerId peer) const { return crashed_.count(peer) > 0; }

void Network::block_link(PeerId from, PeerId to) {
  blocked_.insert(link_key(from, to));
}

void Network::unblock_link(PeerId from, PeerId to) {
  blocked_.erase(link_key(from, to));
}

void Network::set_link_delay(PeerId from, PeerId to, SimDuration extra) {
  P2PFL_CHECK(extra >= 0);
  extra_delay_[link_key(from, to)] = extra;
}

void Network::clear_link_delay(PeerId from, PeerId to) {
  extra_delay_.erase(link_key(from, to));
}

}  // namespace p2pfl::net
