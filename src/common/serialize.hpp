// Tiny binary serialization used for every protocol wire format.
//
// The writer/reader pair gives a fixed little-endian encoding shared by
// the Raft log commands, the Raft RPC codecs (raft/wire) and the
// SAC / aggregation-layer codecs (secagg/wire, core/wire), so a restarted
// or newly elected peer decodes exactly what was committed and the
// network's byte accounting can be checked against real encodings.
//
// ByteReader is strict and non-throwing: every read is bounds-checked,
// and the first out-of-range read latches a sticky failure (`ok()`
// becomes false, subsequent reads return zero values). Decoders accept a
// buffer only when `ok() && exhausted()` — truncated, oversized or
// length-corrupted input can never read out of bounds or allocate from
// an unvalidated length field.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace p2pfl {

using Bytes = std::vector<std::uint8_t>;

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void str(const std::string& s);
  /// Length-prefixed byte string (u32 count + raw bytes).
  void blob(const Bytes& b);
  /// Length-prefixed f32 vector (u32 count + 4 bytes per element).
  void vec_f32(const std::vector<float>& v);

  template <typename T>
  void vec_u32(const std::vector<T>& v) {
    static_assert(sizeof(T) <= sizeof(std::uint32_t),
                  "vec_u32 would silently narrow elements wider than 32 "
                  "bits; add a wider vector encoding instead");
    u32(static_cast<std::uint32_t>(v.size()));
    for (const T& x : v) u32(static_cast<std::uint32_t>(x));
  }

  /// Overwrite the u32 at byte offset `at` (written earlier with u32),
  /// e.g. a length prefix known only after what follows it is written.
  void patch_u32(std::size_t at, std::uint32_t v);

  const Bytes& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  /// Empty the buffer but keep its capacity, so a writer reused for
  /// every message stops allocating once it has held the largest one.
  void clear() { buf_.clear(); }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const Bytes& buf) : buf_(buf) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::string str();
  Bytes blob();
  std::vector<float> vec_f32();

  template <typename T>
  std::vector<T> vec_u32() {
    const std::uint32_t n = u32();
    // Validate the claimed length against the remaining bytes BEFORE
    // reserving: a corrupted count must not trigger a giant allocation.
    if (!need(static_cast<std::size_t>(n) * 4)) return {};
    std::vector<T> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(static_cast<T>(u32()));
    return v;
  }

  /// All reads so far were in bounds. Latches false on the first
  /// truncated read; later reads return zero values.
  bool ok() const { return ok_; }
  bool exhausted() const { return pos_ == buf_.size(); }
  /// The decode contract: every byte consumed, no read out of bounds.
  bool complete() const { return ok_ && exhausted(); }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  bool need(std::size_t n);

  const Bytes& buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace p2pfl
