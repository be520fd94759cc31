#include "rng/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace rit::rng {

double Rng::uniform_real(double lo, double hi) {
  RIT_CHECK(lo < hi);
  return lo + (hi - lo) * uniform01();
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::exponential(double mean) {
  RIT_CHECK(mean > 0.0);
  // 1 - U in (0, 1], so the log argument never hits zero.
  return -mean * std::log(1.0 - uniform01());
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  std::vector<std::size_t> pool;
  std::vector<std::size_t> out;
  sample_without_replacement_into(n, k, pool, out);
  return out;
}

void Rng::sample_without_replacement_into(std::size_t n, std::size_t k,
                                          std::vector<std::size_t>& pool,
                                          std::vector<std::size_t>& out) {
  RIT_CHECK_MSG(k <= n, "cannot sample " << k << " from " << n);
  pool.resize(n);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  out.clear();
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + uniform_index(n - i);
    std::swap(pool[i], pool[j]);
    out.push_back(pool[i]);
  }
}

GeometricGaps::GeometricGaps(double p) : p_(p), log1m_p_(std::log1p(-p)) {
  RIT_CHECK_MSG(p >= 0.0 && p <= 1.0,
                "success probability " << p << " outside [0,1]");
}

std::uint64_t GeometricGaps::next(Rng& rng, std::uint64_t from,
                                  std::uint64_t end) const {
  if (p_ <= 0.0) return end;
  if (p_ >= 1.0) return std::min(from, end);
  const double u = 1.0 - rng.uniform01();  // (0, 1]
  const double gap = std::floor(std::log(u) / log1m_p_);
  if (from >= end || gap >= static_cast<double>(end - from)) return end;
  return from + static_cast<std::uint64_t>(gap);
}

}  // namespace rit::rng
