#include "secagg/wire.hpp"

#include <set>

namespace p2pfl::secagg::wire {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a of `len` bytes, continuing the digest `h`.
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = kEmptyShareDigest) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t share_digest(std::span<const float> share,
                           std::uint64_t digest) {
  return fnv1a(share.data(), share.size() * sizeof(float), digest);
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

}  // namespace

void register_codecs(const std::string& family) {
  static std::set<std::string> done;
  if (!done.insert(family).second) return;
  auto& reg = net::CodecRegistry::global();
  reg.add(net::make_codec(family + ":share", &sample_share));
  reg.add(net::make_codec(family + ":subtotal", &sample_subtotal));
  reg.add(net::make_codec(family + ":request", &sample_subtotal_req));
  reg.add(net::make_codec(family + ":share_req", &sample_share_req));
  reg.add(net::make_codec(family + ":echo", &sample_commit_echo));
}

}  // namespace p2pfl::secagg::wire
