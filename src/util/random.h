#ifndef LSWC_UTIL_RANDOM_H_
#define LSWC_UTIL_RANDOM_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace lswc {

/// SplitMix64: used to seed other generators and for cheap per-key hashing
/// (e.g., deterministic per-page content seeds).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// Stateless mix of a 64-bit key; deterministic "hash" used to derive
/// per-entity randomness (page content seeds, host labels) without storage.
uint64_t Mix64(uint64_t key);

/// Xoshiro256**: the repo-wide PRNG. Fast, high quality, and deterministic
/// across platforms so that every experiment is exactly reproducible from
/// its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL);

  // The draws below are inline: page rendering makes about two per
  // generated character.

  /// Uniform in [0, 2^64).
  uint64_t NextUint64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0. Uses Lemire's method
  /// (unbiased rejection on the multiply-shift reduction).
  uint64_t UniformUint64(uint64_t bound) {
    assert(bound > 0);
    // Lemire's nearly-divisionless unbiased bounded generation.
    uint64_t x = NextUint64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      const uint64_t threshold = -bound % bound;
      while (l < threshold) {
        x = NextUint64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform in [lo, hi). Requires lo < hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  /// Geometric: number of failures before the first success, success
  /// probability p in (0, 1].
  uint64_t Geometric(double p);

  /// Samples a permutation index via Fisher-Yates on the caller's vector.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformUint64(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// The raw xoshiro256** state, for checkpointing a stream mid-run.
  /// Restoring a captured state resumes the stream at exactly the next
  /// draw — the snapshot subsystem round-trips it bit-for-bit.
  std::array<uint64_t, 4> state() const { return {s_[0], s_[1], s_[2], s_[3]}; }
  void set_state(const std::array<uint64_t, 4>& state) {
    for (size_t i = 0; i < 4; ++i) s_[i] = state[i];
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

/// Zipf(s, n) sampler over {0, 1, ..., n-1}, rank 0 most popular.
///
/// Uses the rejection-inversion method of Hörmann & Derflinger, which is
/// O(1) per sample after O(1) setup, suitable for the web generator's
/// host-size and out-degree draws over millions of samples.
class ZipfDistribution {
 public:
  /// exponent s > 0 (s=1 is the classic web-like distribution), n >= 1.
  ZipfDistribution(double s, uint64_t n);

  /// Draws one rank in [0, n).
  uint64_t Sample(Rng* rng) const;

  double exponent() const { return s_; }
  uint64_t n() const { return n_; }

 private:
  double H(double x) const;
  double HInverse(double x) const;

  double s_;
  uint64_t n_;
  double h_x1_;
  double h_n_;
  double t_;  // Threshold used by the rejection step.
};

}  // namespace lswc

#endif  // LSWC_UTIL_RANDOM_H_
