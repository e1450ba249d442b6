#include "trace_accounting.hpp"

#include <algorithm>
#include <functional>

#include "support/json_parse.hpp"

namespace perfbench {

std::vector<Span> parse_trace(std::string_view json) {
  const eimm::JsonValue doc = eimm::parse_json(json);
  std::vector<Span> spans;
  for (const eimm::JsonValue& event : doc.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() != "X") continue;
    Span span;
    span.name = event.at("name").as_string();
    span.start_us = event.at("ts").as_number();
    span.dur_us = event.at("dur").as_number();
    span.tid = static_cast<int>(event.at("tid").as_number());
    spans.push_back(std::move(span));
  }
  return spans;
}

double self_time_us(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<double, double>> intervals;
  for (const Span& child : children) {
    const double lo = std::max(child.start_us, parent.start_us);
    const double hi = std::min(child.end_us(), parent.end_us());
    if (hi > lo) intervals.emplace_back(lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double run_lo = 0.0;
  double run_hi = 0.0;
  bool open = false;
  for (const auto& [lo, hi] : intervals) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return std::max(0.0, parent.dur_us - covered);
}

std::string_view layer_of(std::string_view span_name) {
  static const std::pair<std::string_view, std::string_view> kLayers[] = {
      {"bench.iteration", "bench.unaccounted_s"},
      {"workloads.make", "workloads.make_s"},
      {"core.build_pool", "core.other_s"},
      {"martingale.round", "core.other_s"},
      {"sampling.generate", "rrr.generate_s"},
      {"selection.probe", "seedselect.probe_s"},
      {"seedselect.final", "seedselect.final_s"},
  };
  for (const auto& [name, layer] : kLayers) {
    if (name == span_name) return layer;
  }
  return "";
}

bool encloses_span(const Span& root, const std::vector<Span>& spans,
                   std::string_view name) {
  return std::any_of(spans.begin(), spans.end(), [&](const Span& s) {
    return s.name == name && s.tid == root.tid &&
           s.start_us >= root.start_us && s.end_us() <= root.end_us();
  });
}

std::map<std::string, double> layer_self_seconds(
    const Span& root, const std::vector<Span>& spans) {
  // The root's subtree: same thread, inside [start, end]. Sorting by
  // (start asc, duration desc) puts every parent before its children.
  std::vector<const Span*> tree;
  for (const Span& s : spans) {
    const bool is_root = s.name == root.name &&
                         s.start_us == root.start_us &&
                         s.dur_us == root.dur_us;
    if (s.tid == root.tid && !is_root && s.start_us >= root.start_us &&
        s.end_us() <= root.end_us()) {
      tree.push_back(&s);
    }
  }
  std::sort(tree.begin(), tree.end(), [](const Span* a, const Span* b) {
    if (a->start_us != b->start_us) return a->start_us < b->start_us;
    return a->dur_us > b->dur_us;
  });

  std::map<std::string, double> out;
  // Depth-first walk over the sorted list: the next spans inside `node`
  // are its descendants; the ones not inside a sibling are its children.
  std::size_t next = 0;
  std::function<void(const Span&, std::string_view)> visit =
      [&](const Span& node, std::string_view inherited) {
        std::string_view layer = layer_of(node.name);
        if (layer.empty()) layer = inherited;
        std::vector<Span> children;
        while (next < tree.size() &&
               tree[next]->start_us < node.end_us() &&
               tree[next]->end_us() <= node.end_us()) {
          const Span& child = *tree[next++];
          children.push_back(child);
          visit(child, layer);
        }
        out[std::string(layer)] += self_time_us(node, children) / 1e6;
      };
  visit(root, "bench.unaccounted_s");
  return out;
}

}  // namespace perfbench
