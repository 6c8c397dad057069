#include "core/wire.hpp"

namespace p2pfl::core::wire {

namespace {

template <typename T, typename Fn>
std::optional<T> guarded(const Bytes& b, Fn fn) {
  ByteReader r(b);
  T out = fn(r);
  if (!r.complete()) return std::nullopt;
  return out;
}

}  // namespace

void encode_to(const AggUploadMsg& m, ByteWriter& w) {
  w.u64(m.round);
  w.u32(m.group);
  w.u32(m.weight);
  w.vec_f32(m.model);
}

std::optional<AggUploadMsg> decode_upload(const Bytes& b) {
  return guarded<AggUploadMsg>(b, [](ByteReader& r) {
    AggUploadMsg m;
    m.round = r.u64();
    m.group = r.u32();
    m.weight = r.u32();
    m.model = r.vec_f32();
    return m;
  });
}

void encode_to(const AggResultMsg& m, ByteWriter& w) {
  w.u64(m.round);
  w.vec_f32(m.model);
}

std::optional<AggResultMsg> decode_result(const Bytes& b) {
  return guarded<AggResultMsg>(b, [](ByteReader& r) {
    AggResultMsg m;
    m.round = r.u64();
    m.model = r.vec_f32();
    return m;
  });
}

void encode_to(const JoinRequestMsg& m, ByteWriter& w) {
  w.u32(m.candidate);
  w.u32(m.stale_representative);
}

std::optional<JoinRequestMsg> decode_join(const Bytes& b) {
  return guarded<JoinRequestMsg>(b, [](ByteReader& r) {
    JoinRequestMsg m;
    m.candidate = r.u32();
    m.stale_representative = r.u32();
    return m;
  });
}

void encode_to(const RejoinRequestMsg& m, ByteWriter& w) {
  w.u32(m.peer);
  w.u32(m.subgroup);
  w.u64(m.incarnation);
}

std::optional<RejoinRequestMsg> decode_rejoin(const Bytes& b) {
  return guarded<RejoinRequestMsg>(b, [](ByteReader& r) {
    RejoinRequestMsg m;
    m.peer = r.u32();
    m.subgroup = r.u32();
    m.incarnation = r.u64();
    return m;
  });
}

void encode_to(const ModelPullMsg& m, ByteWriter& w) {
  w.u32(m.peer);
  w.u64(m.last_round);
}

std::optional<ModelPullMsg> decode_pull(const Bytes& b) {
  return guarded<ModelPullMsg>(b, [](ByteReader& r) {
    ModelPullMsg m;
    m.peer = r.u32();
    m.last_round = r.u64();
    return m;
  });
}

net::WireSize upload_wire(std::uint64_t payload, std::size_t dim) {
  net::WireSize s;
  s.payload = payload;
  s.wire = kUploadHeader + payload;
  s.modeled = static_cast<std::int64_t>(payload) -
              static_cast<std::int64_t>(4 * dim);
  return s;
}

net::WireSize result_wire(std::uint64_t payload, std::size_t dim) {
  net::WireSize s;
  s.payload = payload;
  s.wire = kResultHeader + payload;
  s.modeled = static_cast<std::int64_t>(payload) -
              static_cast<std::int64_t>(4 * dim);
  return s;
}

namespace {

secagg::Vector sample_vector(Rng& rng, std::size_t dim) {
  secagg::Vector v(dim);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

AggUploadMsg sample_upload(Rng& rng, const net::WireSample& s) {
  AggUploadMsg m;
  m.round = s.round;
  m.group = static_cast<SubgroupId>(rng.index(s.n));
  m.weight = static_cast<std::uint32_t>(rng.index(s.n) + 1);
  m.model = sample_vector(rng, s.dim);
  return m;
}

AggResultMsg sample_result(Rng& rng, const net::WireSample& s) {
  AggResultMsg m;
  m.round = s.round;
  m.model = sample_vector(rng, s.dim);
  return m;
}

JoinRequestMsg sample_join(Rng& rng, const net::WireSample& s) {
  JoinRequestMsg m;
  m.candidate = static_cast<PeerId>(rng.index(s.n));
  m.stale_representative =
      rng.chance(0.5) ? static_cast<PeerId>(rng.index(s.n)) : kNoPeer;
  return m;
}

bool eq_upload(const AggUploadMsg& a, const AggUploadMsg& b) {
  return a.round == b.round && a.group == b.group && a.weight == b.weight &&
         a.model == b.model;
}

bool eq_result(const AggResultMsg& a, const AggResultMsg& b) {
  return a.round == b.round && a.model == b.model;
}

bool eq_join(const JoinRequestMsg& a, const JoinRequestMsg& b) {
  return a.candidate == b.candidate &&
         a.stale_representative == b.stale_representative;
}

RejoinRequestMsg sample_rejoin(Rng& rng, const net::WireSample& s) {
  RejoinRequestMsg m;
  m.peer = static_cast<PeerId>(rng.index(s.n));
  m.subgroup = static_cast<SubgroupId>(rng.index(s.k > 0 ? s.k : 1));
  m.incarnation = rng.index(8);
  return m;
}

ModelPullMsg sample_pull(Rng& rng, const net::WireSample& s) {
  ModelPullMsg m;
  m.peer = static_cast<PeerId>(rng.index(s.n));
  m.last_round = s.round > 0 ? rng.index(s.round) : 0;
  return m;
}

bool eq_rejoin(const RejoinRequestMsg& a, const RejoinRequestMsg& b) {
  return a.peer == b.peer && a.subgroup == b.subgroup &&
         a.incarnation == b.incarnation;
}

bool eq_pull(const ModelPullMsg& a, const ModelPullMsg& b) {
  return a.peer == b.peer && a.last_round == b.last_round;
}

}  // namespace

void register_codecs() {
  static const bool once = [] {
    auto& reg = net::CodecRegistry::global();
    reg.add(net::make_codec<AggUploadMsg>("agg:upload", &encode_to,
                                          &decode_upload, &sample_upload,
                                          &eq_upload));
    reg.add(net::make_codec<AggResultMsg>("agg:result", &encode_to,
                                          &decode_result, &sample_result,
                                          &eq_result));
    reg.add(net::make_codec<AggResultMsg>("ml:result", &encode_to,
                                          &decode_result, &sample_result,
                                          &eq_result));
    reg.add(net::make_codec<JoinRequestMsg>("join", &encode_to, &decode_join,
                                            &sample_join, &eq_join));
    reg.add(net::make_codec<RejoinRequestMsg>("member:rejoin", &encode_to,
                                              &decode_rejoin, &sample_rejoin,
                                              &eq_rejoin));
    reg.add(net::make_codec<ModelPullMsg>("member:pull", &encode_to,
                                          &decode_pull, &sample_pull,
                                          &eq_pull));
    return true;
  }();
  (void)once;
}

}  // namespace p2pfl::core::wire
