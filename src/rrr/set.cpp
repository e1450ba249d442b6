#include "rrr/set.hpp"

#include "support/macros.hpp"

namespace eimm {

RRRSet RRRSet::make_adaptive(std::vector<VertexId> vertices,
                             VertexId num_vertices,
                             double threshold_fraction) {
  if (vertices.size() >= bitmap_cutoff(num_vertices, threshold_fraction) &&
      num_vertices > 0) {
    return make_bitmap(vertices, num_vertices);
  }
  return make_vector(std::move(vertices));
}

RRRSet RRRSet::make_vector(std::vector<VertexId> vertices) {
  std::sort(vertices.begin(), vertices.end());
  RRRSet set;
  set.repr_ = RRRRepr::kVector;
  set.size_ = vertices.size();
  set.vertices_ = std::move(vertices);
  return set;
}

RRRSet RRRSet::make_bitmap(const std::vector<VertexId>& vertices,
                           VertexId num_vertices) {
  RRRSet set;
  set.repr_ = RRRRepr::kBitmap;
  set.bits_ = DynamicBitset(num_vertices);
  for (const VertexId v : vertices) {
    EIMM_CHECK(v < num_vertices, "vertex id out of bitmap range");
    set.bits_.set(v);
  }
  set.size_ = set.bits_.count();  // dedups
  return set;
}

std::vector<VertexId> RRRSet::to_vector() const {
  if (repr_ == RRRRepr::kVector) return vertices_;
  std::vector<VertexId> out;
  out.reserve(size_);
  bits_.for_each_set([&](std::size_t i) { out.push_back(static_cast<VertexId>(i)); });
  return out;
}

}  // namespace eimm
