// Per-layer self times from one traced iteration.
//
// The benchmark wraps each library call it makes in an obs::TraceSpan
// (bench.iteration > workloads.make, core.build_pool, seedselect.final);
// the spans the library emits itself (martingale.round, sampling.generate,
// selection.probe, selection.select) nest under them in the same trace.
// A span's self time is its duration minus the part of it that its child
// spans cover. Every span's self time is charged to a layer metric — the
// span's own, or the nearest enclosing span's when the name has none —
// so within one iteration the layer self times add up to the iteration's
// wall time, the root's self time being bench.unaccounted_s.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One complete trace event ("ph":"X"), times in microseconds.
struct Span {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;

  [[nodiscard]] double end_us() const noexcept { return start_us + dur_us; }
};

/// Parses the Chrome trace-event JSON obs::write_trace_json produces.
std::vector<Span> parse_trace(std::string_view json);

/// `parent`'s duration minus the length of the union of the child
/// intervals, each clipped to the parent. Overlapping children are
/// counted once.
double self_time_us(const Span& parent, const std::vector<Span>& children);

/// The layer metric a span name charges its self time to ("" = inherit
/// the enclosing span's).
std::string_view layer_of(std::string_view span_name);

/// Whether a span named `name` lies inside `root`, on the root's thread.
bool encloses_span(const Span& root, const std::vector<Span>& spans,
                   std::string_view name);

/// Layer self times, in seconds, of the iteration rooted at `root`:
/// spans on the root's thread that lie inside it form the tree. The
/// values sum to root.dur_us / 1e6.
std::map<std::string, double> layer_self_seconds(
    const Span& root, const std::vector<Span>& spans);

}  // namespace perfbench
