#include "common/serialize.hpp"

#include <bit>

namespace p2pfl {

namespace {

// Host order <-> little-endian (the identity on little-endian hosts), so
// the bulk float loops below copy whole 32-bit words.
constexpr std::uint32_t host_le(std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = (v >> 24) | ((v >> 8) & 0xff00u) | ((v << 8) & 0xff0000u) | (v << 24);
  }
  return v;
}

}  // namespace

void ByteWriter::u32(std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  buf_.insert(buf_.end(), b, b + 4);
}

void ByteWriter::u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  buf_.insert(buf_.end(), b, b + 8);
}

void ByteWriter::patch_u32(std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::blob(ByteSpan b) {
  u32(static_cast<std::uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void ByteWriter::vec_f32(const std::vector<float>& v) {
  static_assert(sizeof(float) == sizeof(std::uint32_t));
  u32(static_cast<std::uint32_t>(v.size()));
  // Payloads run to millions of floats: each byte is written once, never
  // zero-filled first. A little-endian host's floats are their wire bytes.
  if constexpr (std::endian::native == std::endian::little) {
    const auto* in = reinterpret_cast<const std::uint8_t*>(v.data());
    buf_.insert(buf_.end(), in, in + 4 * v.size());
  } else {
    const std::size_t at = buf_.size();
    buf_.resize(at + 4 * v.size());
    std::uint8_t* out = buf_.data() + at;
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::uint32_t bits;
      std::memcpy(&bits, v.data() + i, sizeof(bits));
      bits = host_le(bits);
      std::memcpy(out + 4 * i, &bits, sizeof(bits));
    }
  }
}

bool ByteReader::need(std::size_t n) {
  if (!ok_ || n > buf_.size() - pos_) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::u8() {
  if (!need(1)) return 0;
  return buf_[pos_++];
}

std::uint32_t ByteReader::u32() {
  if (!need(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  if (!need(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  if (!need(n)) return {};
  std::string s(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return s;
}

Bytes ByteReader::blob() {
  const ByteSpan b = blob_view();
  return Bytes(b.begin(), b.end());
}

ByteSpan ByteReader::blob_view() {
  const std::uint32_t n = u32();
  if (!need(n)) return {};
  const ByteSpan b = buf_.subspan(pos_, n);
  pos_ += n;
  return b;
}

std::vector<float> ByteReader::vec_f32() {
  const std::uint32_t n = u32();
  // One bounds check for the whole vector, before anything is allocated.
  if (!need(static_cast<std::size_t>(n) * 4)) return {};
  std::vector<float> v(n);
  const std::uint8_t* in = buf_.data() + pos_;
  float* out = v.data();
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, in + 4 * i, sizeof(bits));
    bits = host_le(bits);
    std::memcpy(out + i, &bits, sizeof(bits));
  }
  pos_ += static_cast<std::size_t>(n) * 4;
  return v;
}

}  // namespace p2pfl
