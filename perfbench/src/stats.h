// Order statistics for the benchmark's reports.
#pragma once

#include <vector>

namespace perfbench {

/// The p-th percentile (0 <= p <= 100) by linear interpolation between
/// closest ranks (NumPy's default). Empty input gives 0.
double Percentile(std::vector<double> values, double p);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Quartiles exactly as Python's statistics.quantiles(values, n=4) gives
/// them (its default "exclusive" method), so spreads printed here match
/// the ones computed over repeated runs. Needs at least two values;
/// fewer give all-zero (one value: that value) quartiles.
Quartiles ExclusiveQuartiles(std::vector<double> values);

/// Each script op's lowest latency over the rounds of a run, where op i
/// of the run is script op i % period: min(period, size) values. Rounds
/// lie seconds apart, so the best of them is the op's cost while the host
/// gives the process a full core.
std::vector<double> BestPerScriptOp(const std::vector<double>& latencies,
                                    int period);

/// Number of values strictly above `threshold`.
int CountAbove(const std::vector<double>& values, double threshold);

}  // namespace perfbench
