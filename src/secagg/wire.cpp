#include "secagg/wire.hpp"

#include <set>

namespace p2pfl::secagg::wire {

namespace {

template <typename T, typename Fn>
std::optional<T> guarded(const Bytes& b, Fn fn) {
  ByteReader r(b);
  T out = fn(r);
  if (!r.complete()) return std::nullopt;
  return out;
}

}  // namespace

void encode_to(const SacShareMsg& m, ByteWriter& w) {
  w.u64(m.round);
  w.u32(m.from_pos);
  w.u32(static_cast<std::uint32_t>(m.parts.size()));
  for (const auto& [idx, data] : m.parts) {
    w.u32(idx);
    w.vec_f32(data);
  }
  // Detection-mode commitment rides as a trailer so non-detecting
  // rounds keep the exact historical encoding (and byte accounting).
  if (!m.commit.empty()) {
    w.u32(static_cast<std::uint32_t>(m.commit.size()));
    for (std::uint64_t d : m.commit) w.u64(d);
  }
}

std::optional<SacShareMsg> decode_share(const Bytes& b) {
  return guarded<SacShareMsg>(b, [](ByteReader& r) {
    SacShareMsg m;
    m.round = r.u64();
    m.from_pos = r.u32();
    const std::uint32_t parts = r.u32();
    // Gate on ok(): each successful part consumes >= 8 bytes, so a
    // corrupted count cannot drive an unbounded loop.
    for (std::uint32_t i = 0; i < parts && r.ok(); ++i) {
      const std::uint32_t idx = r.u32();
      m.parts.emplace_back(idx, r.vec_f32());
    }
    if (r.ok() && !r.exhausted()) {
      const std::uint32_t entries = r.u32();
      for (std::uint32_t i = 0; i < entries && r.ok(); ++i) {
        m.commit.push_back(r.u64());
      }
    }
    return m;
  });
}

void encode_to(const SacSubtotalMsg& m, ByteWriter& w) {
  w.u64(m.round);
  w.u32(m.idx);
  w.vec_f32(m.value);
}

std::optional<SacSubtotalMsg> decode_subtotal(const Bytes& b) {
  return guarded<SacSubtotalMsg>(b, [](ByteReader& r) {
    SacSubtotalMsg m;
    m.round = r.u64();
    m.idx = r.u32();
    m.value = r.vec_f32();
    return m;
  });
}

void encode_to(const SacSubtotalReq& m, ByteWriter& w) {
  w.u64(m.round);
  w.u32(m.idx);
  w.u32(m.reply_to_pos);
}

std::optional<SacSubtotalReq> decode_subtotal_req(const Bytes& b) {
  return guarded<SacSubtotalReq>(b, [](ByteReader& r) {
    SacSubtotalReq m;
    m.round = r.u64();
    m.idx = r.u32();
    m.reply_to_pos = r.u32();
    return m;
  });
}

void encode_to(const SacShareReq& m, ByteWriter& w) {
  w.u64(m.round);
  w.u32(m.reply_to_pos);
}

std::optional<SacShareReq> decode_share_req(const Bytes& b) {
  return guarded<SacShareReq>(b, [](ByteReader& r) {
    SacShareReq m;
    m.round = r.u64();
    m.reply_to_pos = r.u32();
    return m;
  });
}

void encode_to(const SacCommitEchoMsg& m, ByteWriter& w) {
  w.u64(m.round);
  w.u32(m.from_pos);
  w.u32(static_cast<std::uint32_t>(m.digests.size()));
  for (std::uint64_t d : m.digests) w.u64(d);
  w.u32(static_cast<std::uint32_t>(m.bad.size()));
  for (std::uint8_t f : m.bad) w.u8(f);
}

std::optional<SacCommitEchoMsg> decode_commit_echo(const Bytes& b) {
  return guarded<SacCommitEchoMsg>(b, [](ByteReader& r) {
    SacCommitEchoMsg m;
    m.round = r.u64();
    m.from_pos = r.u32();
    const std::uint32_t nd = r.u32();
    for (std::uint32_t i = 0; i < nd && r.ok(); ++i) {
      m.digests.push_back(r.u64());
    }
    const std::uint32_t nb = r.u32();
    for (std::uint32_t i = 0; i < nb && r.ok(); ++i) {
      m.bad.push_back(r.u8());
    }
    return m;
  });
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t share_digest(const Vector& share) {
  return fnv1a(share.data(), share.size() * sizeof(float));
}

std::uint64_t commit_digest(const std::vector<std::uint64_t>& commit) {
  return fnv1a(commit.data(), commit.size() * sizeof(std::uint64_t));
}

net::WireSize share_wire(std::size_t parts, std::uint64_t payload_each,
                         std::size_t dim, std::size_t commit_entries) {
  net::WireSize s;
  s.payload = parts * payload_each;
  s.wire = kShareHeader + parts * kPerPartHeader + s.payload;
  if (commit_entries > 0) {
    s.wire += kCommitPrefix + commit_entries * kCommitPerShare;
  }
  // Real encoding carries 4*dim data bytes per part; the charge carries
  // payload_each (they differ only under the modeled-CNN override).
  s.modeled = static_cast<std::int64_t>(parts) *
              (static_cast<std::int64_t>(payload_each) -
               static_cast<std::int64_t>(4 * dim));
  return s;
}

net::WireSize echo_wire(std::size_t positions) {
  net::WireSize s;
  s.payload = 0;
  s.wire = kEchoHeader + positions * kEchoPerPos;
  return s;
}

net::WireSize subtotal_wire(std::uint64_t payload, std::size_t dim) {
  net::WireSize s;
  s.payload = payload;
  s.wire = kSubtotalHeader + payload;
  s.modeled = static_cast<std::int64_t>(payload) -
              static_cast<std::int64_t>(4 * dim);
  return s;
}

namespace {

Vector sample_vector(Rng& rng, std::size_t dim) {
  Vector v(dim);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

SacShareMsg sample_share(Rng& rng, const net::WireSample& s) {
  SacShareMsg m;
  m.round = s.round;
  m.from_pos = static_cast<std::uint32_t>(rng.index(s.n));
  const std::size_t parts = s.n >= s.k ? s.n - s.k + 1 : 1;
  for (std::size_t i = 0; i < parts; ++i) {
    m.parts.emplace_back(static_cast<std::uint32_t>(rng.index(s.n)),
                         sample_vector(rng, s.dim));
  }
  // Exercise both framings: with and without the detection trailer.
  if (rng.chance(0.5)) {
    for (std::size_t i = 0; i < s.n; ++i) m.commit.push_back(rng.next_u64());
  }
  return m;
}

SacCommitEchoMsg sample_commit_echo(Rng& rng, const net::WireSample& s) {
  SacCommitEchoMsg m;
  m.round = s.round;
  m.from_pos = static_cast<std::uint32_t>(rng.index(s.n));
  for (std::size_t i = 0; i < s.n; ++i) {
    m.digests.push_back(rng.chance(0.8) ? rng.next_u64() : 0);
    m.bad.push_back(rng.chance(0.1) ? 1 : 0);
  }
  return m;
}

SacSubtotalMsg sample_subtotal(Rng& rng, const net::WireSample& s) {
  SacSubtotalMsg m;
  m.round = s.round;
  m.idx = static_cast<std::uint32_t>(rng.index(s.n));
  m.value = sample_vector(rng, s.dim);
  return m;
}

SacSubtotalReq sample_subtotal_req(Rng& rng, const net::WireSample& s) {
  SacSubtotalReq m;
  m.round = s.round;
  m.idx = static_cast<std::uint32_t>(rng.index(s.n));
  m.reply_to_pos = static_cast<std::uint32_t>(rng.index(s.n));
  return m;
}

SacShareReq sample_share_req(Rng& rng, const net::WireSample& s) {
  SacShareReq m;
  m.round = s.round;
  m.reply_to_pos = static_cast<std::uint32_t>(rng.index(s.n));
  return m;
}

bool eq_share(const SacShareMsg& a, const SacShareMsg& b) {
  return a.round == b.round && a.from_pos == b.from_pos &&
         a.parts == b.parts && a.commit == b.commit;
}

bool eq_commit_echo(const SacCommitEchoMsg& a, const SacCommitEchoMsg& b) {
  return a.round == b.round && a.from_pos == b.from_pos &&
         a.digests == b.digests && a.bad == b.bad;
}

bool eq_subtotal(const SacSubtotalMsg& a, const SacSubtotalMsg& b) {
  return a.round == b.round && a.idx == b.idx && a.value == b.value;
}

bool eq_subtotal_req(const SacSubtotalReq& a, const SacSubtotalReq& b) {
  return a.round == b.round && a.idx == b.idx &&
         a.reply_to_pos == b.reply_to_pos;
}

bool eq_share_req(const SacShareReq& a, const SacShareReq& b) {
  return a.round == b.round && a.reply_to_pos == b.reply_to_pos;
}

}  // namespace

void register_codecs(const std::string& family) {
  static std::set<std::string> done;
  if (!done.insert(family).second) return;
  auto& reg = net::CodecRegistry::global();
  reg.add(net::make_codec<SacShareMsg>(family + ":share", &encode_to,
                                       &decode_share, &sample_share,
                                       &eq_share));
  reg.add(net::make_codec<SacSubtotalMsg>(family + ":subtotal", &encode_to,
                                          &decode_subtotal, &sample_subtotal,
                                          &eq_subtotal));
  reg.add(net::make_codec<SacSubtotalReq>(
      family + ":request", &encode_to, &decode_subtotal_req,
      &sample_subtotal_req, &eq_subtotal_req));
  reg.add(net::make_codec<SacShareReq>(family + ":share_req", &encode_to,
                                       &decode_share_req, &sample_share_req,
                                       &eq_share_req));
  reg.add(net::make_codec<SacCommitEchoMsg>(
      family + ":echo", &encode_to, &decode_commit_echo, &sample_commit_echo,
      &eq_commit_echo));
}

}  // namespace p2pfl::secagg::wire
