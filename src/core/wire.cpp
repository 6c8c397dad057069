#include "core/wire.hpp"

namespace p2pfl::core::wire {

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

}  // namespace

void register_codecs() {
  static const bool once = [] {
    auto& reg = net::CodecRegistry::global();
    reg.add(net::make_codec("agg:upload", &sample_upload));
    reg.add(net::make_codec("agg:result", &sample_result));
    reg.add(net::make_codec("ml:result", &sample_result));
    reg.add(net::make_codec("join", &sample_join));
    reg.add(net::make_codec("member:rejoin", &sample_rejoin));
    reg.add(net::make_codec("member:pull", &sample_pull));
    return true;
  }();
  (void)once;
}

}  // namespace p2pfl::core::wire
