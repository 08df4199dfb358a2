#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Quartiles ExclusiveQuartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  if (values.size() == 1) return {values[0], values[0], values[0]};
  std::sort(values.begin(), values.end());
  // CPython's statistics.quantiles, method='exclusive', n=4: integer
  // rescaling of i/4 onto m = len + 1 ranks, clamped to [1, len - 1].
  const long long len = static_cast<long long>(values.size());
  const long long m = len + 1;
  double out[3];
  for (long long i = 1; i <= 3; ++i) {
    long long j = i * m / 4;
    j = std::clamp(j, 1LL, len - 1);
    const long long delta = i * m - j * 4;
    out[i - 1] = (values[static_cast<size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  return {out[0], out[1], out[2]};
}

std::vector<double> BestPerScriptOp(const std::vector<double>& latencies,
                                    int period) {
  const size_t p = static_cast<size_t>(std::max(1, period));
  std::vector<double> best(latencies.begin(),
                           latencies.begin() + std::min(p, latencies.size()));
  for (size_t i = p; i < latencies.size(); ++i) {
    best[i % p] = std::min(best[i % p], latencies[i]);
  }
  return best;
}

int CountAbove(const std::vector<double>& values, double threshold) {
  return static_cast<int>(
      std::count_if(values.begin(), values.end(),
                    [threshold](double v) { return v > threshold; }));
}

}  // namespace perfbench
