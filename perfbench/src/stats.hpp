// Order statistics for the benchmark's reports.
//
// Latencies are reported the way the benchmark's contract states them: a
// median plus the highest percentile that still has at least ten samples
// beyond it, each with its sample count. A request that failed or was
// refused has no latency; it counts as +infinity, so it misses every
// latency limit and drags the tail up instead of vanishing from it.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace perfbench {

// Plain percentiles and medians are eimm::percentile / eimm::median
// (support/stats.hpp); this file adds what those do not cover.

/// First, second and third quartile by Python's
/// statistics.quantiles(values, n=4) ("exclusive" method) — the same
/// definition the benchmark's run-to-run spread is judged by. Needs at
/// least two values; with fewer every quartile is the lone value (or 0).
std::array<double, 3> quartiles(std::vector<double> values);

/// Events per second in each full window of `window` seconds over
/// [0, span), given event times in seconds from the start.
std::vector<double> window_rates(const std::vector<double>& times,
                                 double window, double span);

/// Samples a latency distribution must have beyond its reported tail.
inline constexpr std::size_t kMinTailSamples = 10;

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that leaves at
/// least kMinTailSamples samples beyond it among `n`; 0 when even the
/// median does not (n < 20).
double tail_percentile(std::size_t n);

/// One latency distribution: completed samples plus failed requests.
struct LatencySummary {
  std::size_t samples = 0;    ///< completed requests
  std::size_t failures = 0;   ///< failed or refused requests
  double p50 = 0.0;           ///< median over samples + failures
  double tail_pct = 0.0;      ///< which percentile `tail` is (0 = none)
  double tail = 0.0;          ///< value at tail_pct
  double p95 = 0.0;           ///< 95th percentile, whatever the count
  double p99 = 0.0;           ///< 99th percentile, whatever the count

  /// Requests slower than `limit` — every failure included.
  [[nodiscard]] std::size_t misses(double limit) const;
  std::vector<double> sorted;  ///< all values, failures as +inf
};

/// Summarizes `values` (one per completed request) plus `failures`
/// requests that never completed (each counted as +infinity). Unlike
/// eimm::percentile, its percentiles stay +infinity, never NaN, when
/// they fall on or next to a failure.
LatencySummary summarize(std::vector<double> values, std::size_t failures);

}  // namespace perfbench
