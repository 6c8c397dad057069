// Additive secret sharing (Alg. 1 of the paper).
//
// A model (flattened weight vector) is split into N shares that sum back
// to the original. Two schemes are provided:
//
//  * kProportional — the literal Alg. 1: draw N random numbers, normalize
//    them to fractions, scale the secret. We apply it per element (each
//    weight gets its own random fractions), which is what the underlying
//    SAC baseline (Wink & Nochta) requires for the shares to look random;
//    applying one scalar fraction to the whole tensor would hand every
//    peer a scaled copy of the model.
//  * kUniformMask — classical additive masking: N−1 shares are uniform
//    noise in [−kMaskRange, kMaskRange), the last is the secret minus
//    their sum. Included because it is the textbook additive scheme ([13]
//    in the paper) and has better numerical behaviour for large N.
//
// Shares are the unit of the k-out-of-n replication in Alg. 4: share
// *placement* (which consecutive shares go to which peer) lives in
// sac.hpp; this header only creates and sums shares.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace p2pfl::secagg {

/// A flattened model / share. float matches the 4-byte parameters the
/// paper's cost analysis assumes (1.25M params = 40 Mb).
using Vector = std::vector<float>;

/// One share's elements, immutable and reference-counted: every share
/// bundle part that carries the share refers to the same elements, a
/// copy is one more reference, and the last one frees them. Built from a
/// Vector (whose elements it takes over, not copies) or from elements
/// written before they are handed over, possibly a row of a larger
/// buffer that the reference keeps alive. It reads as a contiguous range
/// of const float (a std::span<const float> converts from it), encodes as
/// the Vector with its elements does and compares by content.
class Share {
 public:
  Share() = default;
  /// Implicit: a bundle part is built straight from a Vector.
  Share(Vector v);
  Share(std::shared_ptr<const float[]> data, std::size_t size)
      : data_(std::move(data)), size_(size) {}

  const float* data() const { return data_.get(); }
  std::size_t size() const { return size_; }
  const float* begin() const { return data(); }
  const float* end() const { return data() + size_; }

  bool operator==(const Share& other) const;

  static void fields(const Share& m, ByteWriter& w) { w.vec_f32(m); }
  static void fields(Share& m, ByteReader& r) { m = Share(r.vec_f32()); }

 private:
  std::shared_ptr<const float[]> data_;
  std::size_t size_ = 0;
};

enum class SplitScheme {
  kProportional,  // per-element normalized random fractions (Alg. 1)
  kUniformMask,   // additive masking with uniform noise
};

/// Amplitude of the kUniformMask noise shares.
inline constexpr double kMaskRange = 1.0;

/// Elements per block of a split: the secret is split kSplitBlock
/// elements at a time, each block's randomness drawn in one run.
inline constexpr std::size_t kSplitBlock = 256;

/// The block kernel of a split, shared by divide(), the streamed SAC
/// (sac.hpp) and the actor (sac_actor.hpp). A splitter owns the generator
/// private to one split of a secret into n shares: xoshiro256+, seeded by
/// exactly one rng.next_u64(). It splits the secret one block at a time,
/// in order, and writes each block's n shares wherever the caller points,
/// so splitting a secret block by block yields divide()'s shares bit for
/// bit. A copy continues the same sequence on its own, which lets each
/// thread stream its own range of blocks.
class ShareSplitter {
 public:
  ShareSplitter(std::size_t n, SplitScheme scheme, Rng& rng);

  /// Splits the next block `x` (1 to kSplitBlock elements, a full block
  /// unless it ends the secret): share i of x[e] goes to shares[i][e].
  /// `work` is scratch the call sizes to at most n·kSplitBlock doubles;
  /// nothing in it carries over between calls.
  void split(std::span<const float> x, std::span<float* const> shares,
             std::vector<double>& work);

  /// Splits the next blocks, x.size() elements of full blocks and, if it
  /// ends the secret, one partial block: share i of x[e] goes to
  /// shares[i][e]. Writes split()'s shares and leaves the splitter where
  /// split() over each block in turn would. On an x86-64-v4 CPU the
  /// first 8·Q full blocks (Q = full blocks / 8) split as 8 lanes, lane j
  /// over blocks j·Q to j·Q + Q − 1 from this state advanced j·Q blocks;
  /// the other blocks, a run of fewer than 8 full blocks and every CPU
  /// below x86-64-v4 take split(). `work` as for split().
  void split_run(std::span<const float> x, std::span<float* const> shares,
                 std::vector<double>& work);

  /// split_run() without its last rounding, for oracle tests: share i of
  /// x[e] goes to shares[i][e] as the double split() rounds to float,
  /// the product f_i / Σf · x (kProportional) or x minus the masks' sum
  /// (kUniformMask, whose masks are drawn as floats). It runs the same
  /// lanes and blocks as split_run(), so a test can hold the lanes'
  /// double arithmetic to split()'s, which a float share rarely shows.
  void split_run_unrounded(std::span<const float> x,
                           std::span<double* const> shares,
                           std::vector<double>& work);

  /// Advances past `blocks` full blocks without computing their shares:
  /// the n·kSplitBlock (kProportional) or (n−1)·kSplitBlock
  /// (kUniformMask) draws split() makes per block.
  void skip(std::size_t blocks);

 private:
  /// split_run() into shares of type Out: float, or double for the
  /// unrounded shares.
  template <typename Out>
  void run(std::span<const float> x, std::span<Out* const> shares,
           std::vector<double>& work);
  /// split() with share i of x[e] going to shares[i][at + e].
  template <typename Out>
  void split_at(std::span<const float> x, std::span<Out* const> shares,
                std::size_t at, std::vector<double>& work);
  /// The lanes of split_run() over x, 8·q full blocks; false, with
  /// nothing split, on a CPU below x86-64-v4.
  template <typename Out>
  bool split_lanes(std::span<const float> x, std::size_t q,
                   std::span<Out* const> shares);
  std::uint64_t draws_per_block() const;

  std::array<std::uint64_t, 4> state_{};  // xoshiro256+
  std::size_t n_;
  SplitScheme scheme_;
};

/// Split `secret` into n shares that sum (exactly up to FP rounding) to
/// it. n >= 1. Shares all have secret.size() elements.
///
/// Per element, kProportional draws fractions f_i = 0.05 + 0.95·u_i (u_i
/// uniform in [0, 1)) and sets share_i = f_i / Σf · x; kUniformMask draws
/// n−1 masks uniform in [−kMaskRange, kMaskRange) and sets the last share
/// to x minus their sum, taken in double. The randomness comes from a
/// ShareSplitter run over the secret's blocks, so a call advances `rng`
/// by one draw whatever the size of the secret.
std::vector<Vector> divide(std::span<const float> secret, std::size_t n,
                           Rng& rng,
                           SplitScheme scheme = SplitScheme::kProportional);

/// Element-wise in-place accumulate: acc += x.
void accumulate(std::span<double> acc, std::span<const float> x);

/// acc (double) -> Vector, optionally scaled by 1/divisor.
Vector to_vector(std::span<const double> acc, double divisor = 1.0);

}  // namespace p2pfl::secagg
