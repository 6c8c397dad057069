// Tiny binary serialization used for every protocol wire format.
//
// The writer/reader pair gives a fixed little-endian encoding shared by
// the Raft RPCs and log entries (raft/wire, the WAL), the SAC and
// aggregation-layer messages (secagg/wire, core/wire) and the TCP frame
// header, so a restarted or newly elected peer decodes exactly what was
// committed and the network's byte accounting can be checked against
// real encodings.
//
// A message states its layout once, as a static `fields(m, io)` that
// passes its members to `io` in wire order; `w(m)` on a ByteWriter
// encodes it and `r(m)` on a ByteReader decodes it, by these rules:
// bool, 1-byte integers and enums -> u8; 4-byte integers -> u32; 8-byte
// integers -> u64; std::string -> str; Bytes -> blob; a float vector ->
// vec_f32; a vector of 4-byte integers -> vec_u32; any other vector ->
// u32 count then its elements; std::pair -> its two members; a struct
// -> its fields(). `io.trailer(v)` writes a vector only when it is
// non-empty and reads it only when bytes remain.
//
// ByteReader is strict and non-throwing: every read is bounds-checked,
// and the first out-of-range read latches a sticky failure (`ok()`
// becomes false, subsequent reads return zero values). decode_wire
// accepts a buffer only when `ok() && exhausted()` — truncated,
// oversized or length-corrupted input can never read out of bounds or
// allocate from an unvalidated length field. A reader views bytes it
// does not own (a span, which a Bytes converts to), so a frame is
// decoded where it was received.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace p2pfl {

using Bytes = std::vector<std::uint8_t>;
/// Bytes viewed in place (a Bytes converts implicitly).
using ByteSpan = std::span<const std::uint8_t>;

/// Integers and enums, encoded by width (u8 / u32 / u64).
template <typename T>
concept WireScalar = std::is_integral_v<T> || std::is_enum_v<T>;

/// A message with a wire layout: `T::fields(m, io)` lists its members.
template <typename T, typename IO>
concept WireFields =
    requires(T& m, IO& io) { std::remove_const_t<T>::fields(m, io); };

/// Vector elements written as one vec_u32.
template <typename T>
inline constexpr bool kIsU32 = std::is_integral_v<T> && sizeof(T) == 4;

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void str(const std::string& s);
  /// Length-prefixed byte string (u32 count + raw bytes).
  void blob(ByteSpan b);
  /// Length-prefixed f32 vector (u32 count + 4 bytes per element).
  void vec_f32(std::span<const float> v);

  template <typename T>
  void vec_u32(const std::vector<T>& v) {
    static_assert(sizeof(T) <= sizeof(std::uint32_t),
                  "vec_u32 would silently narrow elements wider than 32 "
                  "bits; add a wider vector encoding instead");
    u32(static_cast<std::uint32_t>(v.size()));
    for (const T& x : v) u32(static_cast<std::uint32_t>(x));
  }

  /// Append `n` zero bytes, room that is filled in later in place (e.g.
  /// a frame's head, in front of the payload encoded after it).
  void pad(std::size_t n) { buf_.resize(buf_.size() + n); }

  /// Append each value by the layout rules in the header comment.
  template <typename... Ts>
  void operator()(const Ts&... vs) {
    (put(vs), ...);
  }
  /// An optional trailing vector: written only when non-empty.
  template <typename T>
  void trailer(const std::vector<T>& v) {
    if (!v.empty()) put(v);
  }

  const Bytes& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  /// Allocate room for `n` bytes in all, so a writer whose final size is
  /// known up front fills one exact buffer.
  void reserve(std::size_t n) { buf_.reserve(n); }
  /// Empty the buffer but keep its capacity, so a writer reused for
  /// every message stops allocating once it has held the largest one.
  void clear() { buf_.clear(); }
  Bytes take() { return std::move(buf_); }

 private:
  template <WireScalar T>
  void put(T v) {
    if constexpr (sizeof(T) == 1) {
      u8(static_cast<std::uint8_t>(v));
    } else if constexpr (sizeof(T) == 4) {
      u32(static_cast<std::uint32_t>(v));
    } else {
      static_assert(sizeof(T) == 8, "no wire encoding for this width");
      u64(static_cast<std::uint64_t>(v));
    }
  }
  void put(const std::string& s) { str(s); }
  void put(const Bytes& b) { blob(b); }
  void put(const std::vector<float>& v) { vec_f32(v); }
  template <typename T>
  void put(const std::vector<T>& v) {
    if constexpr (kIsU32<T>) {
      vec_u32(v);
    } else {
      u32(static_cast<std::uint32_t>(v.size()));
      for (const T& x : v) put(x);
    }
  }
  template <typename A, typename B>
  void put(const std::pair<A, B>& p) {
    put(p.first);
    put(p.second);
  }
  template <typename T>
    requires WireFields<const T, ByteWriter>
  void put(const T& m) {
    T::fields(m, *this);
  }

  Bytes buf_;
};

class ByteReader {
 public:
  /// Reads `buf`, which must outlive the reader.
  explicit ByteReader(ByteSpan buf) : buf_(buf) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::string str();
  Bytes blob();
  /// A blob's bytes where they lie in the reader's buffer (empty after a
  /// failed read).
  ByteSpan blob_view();
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

  /// Read into each value by the layout rules in the header comment.
  template <typename... Ts>
  void operator()(Ts&... vs) {
    (get(vs), ...);
  }
  /// An optional trailing vector: read only when bytes remain.
  template <typename T>
  void trailer(std::vector<T>& v) {
    if (ok() && !exhausted()) get(v);
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

  template <WireScalar T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = u8() != 0;
    } else if constexpr (sizeof(T) == 1) {
      v = static_cast<T>(u8());
    } else if constexpr (sizeof(T) == 4) {
      v = static_cast<T>(u32());
    } else {
      static_assert(sizeof(T) == 8, "no wire encoding for this width");
      v = static_cast<T>(u64());
    }
  }
  void get(std::string& s) { s = str(); }
  void get(Bytes& b) { b = blob(); }
  void get(std::vector<float>& v) { v = vec_f32(); }
  template <typename T>
  void get(std::vector<T>& v) {
    if constexpr (kIsU32<T>) {
      v = vec_u32<T>();
    } else {
      // The one gated loop over a counted vector: every element consumes
      // at least one byte, so a corrupted count runs out of input rather
      // than driving a huge loop, and nothing is reserved from it.
      const std::uint32_t n = u32();
      v.clear();
      for (std::uint32_t i = 0; i < n && ok(); ++i) get(v.emplace_back());
    }
  }
  template <typename A, typename B>
  void get(std::pair<A, B>& p) {
    get(p.first);
    get(p.second);
  }
  template <typename T>
    requires WireFields<T, ByteReader>
  void get(T& m) {
    T::fields(m, *this);
  }

  ByteSpan buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// The encoding of any value with a wire layout, in a fresh buffer.
template <typename T>
Bytes encode_wire(const T& m) {
  ByteWriter w;
  w(m);
  return w.take();
}

/// The strict decoder of any value with a wire layout: nullopt unless
/// the whole buffer is consumed without an out-of-range read.
template <typename T>
std::optional<T> decode_wire(ByteSpan b) {
  ByteReader r(b);
  T m{};
  r(m);
  if (!r.complete()) return std::nullopt;
  return m;
}

}  // namespace p2pfl
