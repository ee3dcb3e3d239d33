#include "util/random.h"

#include <cassert>
#include <cmath>

namespace lswc {

uint64_t Mix64(uint64_t key) {
  uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.Next();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo < hi);
  return lo + static_cast<int64_t>(
                  UniformUint64(static_cast<uint64_t>(hi - lo)));
}

uint64_t Rng::Geometric(double p) {
  assert(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 0;
  const double u = UniformDouble();
  // floor(log(1-u)/log(1-p)) with 1-u in (0,1].
  return static_cast<uint64_t>(std::log1p(-u) / std::log1p(-p));
}

ZipfDistribution::ZipfDistribution(double s, uint64_t n) : s_(s), n_(n) {
  assert(s > 0.0);
  assert(n >= 1);
  h_x1_ = H(1.5) - 1.0;
  h_n_ = H(static_cast<double>(n) + 0.5);
  t_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -s_));
}

// H(x) = integral of x^-s; antiderivative used by rejection inversion.
double ZipfDistribution::H(double x) const {
  if (s_ == 1.0) return std::log(x);
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfDistribution::HInverse(double x) const {
  if (s_ == 1.0) return std::exp(x);
  return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
}

uint64_t ZipfDistribution::Sample(Rng* rng) const {
  if (n_ == 1) return 0;
  while (true) {
    const double u = h_n_ + rng->UniformDouble() * (h_x1_ - h_n_);
    const double x = HInverse(u);
    double k = std::floor(x + 0.5);
    if (k < 1.0) k = 1.0;
    if (k > static_cast<double>(n_)) k = static_cast<double>(n_);
    if (k - x <= t_ || u >= H(k + 0.5) - std::pow(k, -s_)) {
      return static_cast<uint64_t>(k) - 1;  // 0-based rank.
    }
  }
}

}  // namespace lswc
