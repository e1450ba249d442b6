#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace perfbench {

namespace {

/// Linear interpolation between closest ranks, as eimm::percentile, but
/// +infinity-safe: it never multiplies an infinite value by a zero weight.
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || sorted[lo] == sorted[hi]) return sorted[lo];
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

std::array<double, 3> quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 2) {
    const double only = n == 1 ? values[0] : 0.0;
    return {only, only, only};
  }
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i of 4 sits
  // at rank i*m/4 (1-based), interpolated with exact integer weights.
  // The weight delta can be negative (extrapolation below the first
  // value for tiny n), so the rank arithmetic is signed.
  std::array<double, 3> out{};
  const auto len = static_cast<std::int64_t>(n);
  const std::int64_t m = len + 1;
  for (std::int64_t i = 1; i <= 3; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, len - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    const auto lo = static_cast<std::size_t>(j - 1);
    out[static_cast<std::size_t>(i - 1)] =
        (values[lo] * (4.0 - delta) + values[lo + 1] * delta) / 4.0;
  }
  return out;
}

std::vector<double> window_rates(const std::vector<double>& times,
                                 double window, double span) {
  const auto windows = static_cast<std::size_t>(span / window);
  std::vector<double> counts(windows, 0.0);
  for (const double t : times) {
    if (t < 0.0) continue;
    const auto w = static_cast<std::size_t>(t / window);
    if (w < windows) counts[w] += 1.0;
  }
  for (double& c : counts) c /= window;
  return counts;
}

double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
    if (beyond + 1e-9 >= static_cast<double>(kMinTailSamples)) return p;
  }
  return 0.0;
}

std::size_t LatencySummary::misses(double limit) const {
  return static_cast<std::size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), limit));
}

LatencySummary summarize(std::vector<double> values, std::size_t failures) {
  LatencySummary s;
  s.samples = values.size();
  s.failures = failures;
  values.insert(values.end(), failures,
                std::numeric_limits<double>::infinity());
  std::sort(values.begin(), values.end());
  s.p50 = quantile_sorted(values, 0.5);
  s.p95 = quantile_sorted(values, 0.95);
  s.p99 = quantile_sorted(values, 0.99);
  s.tail_pct = tail_percentile(values.size());
  s.tail = s.tail_pct > 0 ? quantile_sorted(values, s.tail_pct / 100.0) : 0.0;
  s.sorted = std::move(values);
  return s;
}

}  // namespace perfbench
