#include "common/serialize.hpp"

#include <bit>
#include <iterator>

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

// The floats of a little-endian byte run, read one 4-byte word at a time
// (the bytes need not be aligned for float). A vector built from two of
// these writes each element once, never value-initialized first.
class LeFloatIterator {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = float;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = float;

  explicit LeFloatIterator(const std::uint8_t* at) : at_(at) {}
  float operator*() const {
    std::uint32_t bits;
    std::memcpy(&bits, at_, sizeof(bits));
    return std::bit_cast<float>(host_le(bits));
  }
  LeFloatIterator& operator++() {
    at_ += 4;
    return *this;
  }
  difference_type operator-(const LeFloatIterator& o) const {
    return (at_ - o.at_) / 4;
  }
  bool operator==(const LeFloatIterator& o) const { return at_ == o.at_; }

 private:
  const std::uint8_t* at_;
};

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

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::blob(ByteSpan b) {
  u32(static_cast<std::uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void ByteWriter::vec_f32(std::span<const float> v) {
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
  const std::uint8_t* in = buf_.data() + pos_;
  pos_ += static_cast<std::size_t>(n) * 4;
  return std::vector<float>(LeFloatIterator(in),
                            LeFloatIterator(in + std::size_t{4} * n));
}

}  // namespace p2pfl
