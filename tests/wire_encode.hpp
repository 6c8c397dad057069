// Test helper: the canonical encoding of any protocol message in a fresh
// buffer, through its wire layer's encode_to overload.
#pragma once

#include "common/serialize.hpp"
#include "core/wire.hpp"
#include "raft/wire.hpp"
#include "secagg/wire.hpp"

namespace p2pfl {

template <typename T>
Bytes wire_encode(const T& m) {
  using core::wire::encode_to;
  using raft::wire::encode_to;
  using secagg::wire::encode_to;
  ByteWriter w;
  encode_to(m, w);
  return w.take();
}

}  // namespace p2pfl
