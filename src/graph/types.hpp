// Fundamental graph types. Vertex ids are 32-bit (the paper's largest
// graph, twitter7, has 41.6M vertices — well within range); edge ids are
// 64-bit (twitter7 has 1.47B edges).
#pragma once

#include <cstdint>

namespace eimm {

using VertexId = std::uint32_t;
using EdgeId = std::uint64_t;
/// RRR-set (sketch) ids are dense [0, set count); 32 bits bounds a pool
/// at ~4.3B sets, far above the 2^22 default generation cap.
using SketchId = std::uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// A directed edge (src -> dst) with an optional diffusion weight.
/// For the IC model the weight is an activation probability p(u,v) ∈ [0,1];
/// for LT it is the in-edge weight w(u,v) with Σ_u w(u,v) ≤ 1.
struct WeightedEdge {
  VertexId src = 0;
  VertexId dst = 0;
  float weight = 1.0f;

  friend bool operator==(const WeightedEdge&, const WeightedEdge&) = default;
};

}  // namespace eimm
