// Test helper: the canonical encoding of any protocol message in a fresh
// buffer, by its fields() layout.
#pragma once

#include "common/serialize.hpp"

namespace p2pfl {

template <typename T>
Bytes wire_encode(const T& m) {
  ByteWriter w;
  w(m);
  return w.take();
}

}  // namespace p2pfl
