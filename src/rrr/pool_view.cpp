#include "rrr/pool_view.hpp"

#include <algorithm>

#include "support/macros.hpp"

namespace eimm {

ShardArena::Ref ShardArena::reserve(std::size_t len, bool align8) {
  // Advance through existing chunks (reset() reuse) before mapping new
  // ones; a run never spans chunks. Chunk bases are page-aligned, so an
  // even unit offset is 8-byte aligned.
  const auto start = [&] {
    return align8 ? (head_used_ + 1) & ~std::size_t{1} : head_used_;
  };
  while (cursor_ < chunks_.size() &&
         start() + len > chunks_[cursor_].bytes() / sizeof(VertexId)) {
    ++cursor_;
    head_used_ = 0;
  }
  if (cursor_ >= chunks_.size()) {
    const std::size_t capacity = std::max(chunk_vertices_, len);
    chunks_.emplace_back(capacity * sizeof(VertexId), MemPolicy::kLocal);
    cursor_ = chunks_.size() - 1;
    head_used_ = 0;
  }
  head_used_ = start();
  Ref ref;
  ref.chunk = static_cast<std::uint32_t>(cursor_);
  ref.pos = static_cast<std::uint32_t>(head_used_);
  ref.len = static_cast<std::uint32_t>(len);
  head_used_ += len;
  ++runs_;
  staged_units_ += len;
  return ref;
}

ShardArena::Ref ShardArena::allocate(std::size_t len,
                                     std::span<VertexId>& out) {
  const Ref ref = reserve(len, false);
  out = {static_cast<VertexId*>(chunks_[ref.chunk].data()) + ref.pos, len};
  return ref;
}

std::span<std::uint64_t> ShardArena::allocate_bitmap(std::size_t words) {
  const Ref ref = reserve(2 * words, true);
  auto* base = reinterpret_cast<std::uint64_t*>(
      static_cast<VertexId*>(chunks_[ref.chunk].data()) + ref.pos);
  std::fill(base, base + words, std::uint64_t{0});
  return {base, words};
}

ShardArena::Ref ShardArena::append(std::span<const VertexId> vertices) {
  std::span<VertexId> dest;
  const Ref ref = allocate(vertices.size(), dest);
  std::copy(vertices.begin(), vertices.end(), dest.begin());
  return ref;
}

std::span<const VertexId> ShardArena::view(const Ref& ref) const noexcept {
  const auto* base = static_cast<const VertexId*>(chunks_[ref.chunk].data());
  return {base + ref.pos, ref.len};
}

void ShardArena::reset() noexcept {
  cursor_ = 0;
  head_used_ = 0;
}

std::uint64_t ShardArena::mapped_bytes() const noexcept {
  std::uint64_t bytes = 0;
  for (const NumaBuffer& c : chunks_) bytes += c.bytes();
  return bytes;
}

void SegmentedPool::resize(std::size_t count) {
  EIMM_CHECK(count >= entries_.size(), "SegmentedPool never shrinks");
  entries_.resize(count);
}

void SegmentedPool::ensure_workers(std::size_t workers) {
  if (arenas_.size() < workers) arenas_.resize(workers);
}

std::size_t SegmentedPool::bitmap_count() const noexcept {
  std::size_t count = 0;
  for (const Entry& e : entries_) count += e.bitmap ? 1 : 0;
  return count;
}

std::uint64_t SegmentedPool::staged_bytes() const noexcept {
  std::uint64_t bytes = 0;
  for (const ShardArena& a : arenas_) bytes += a.staged_bytes();
  return bytes;
}

std::uint64_t SegmentedPool::mapped_bytes() const noexcept {
  std::uint64_t bytes = 0;
  for (const ShardArena& a : arenas_) bytes += a.mapped_bytes();
  return bytes;
}

std::uint64_t RRRPoolView::total_vertices() const noexcept {
  if (comp_ != nullptr) return comp_->total_vertices();
  if (segments_ == nullptr) return 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < segments_->size(); ++i) {
    total += (*segments_)[i].size();
  }
  return total;
}

std::size_t RRRPoolView::bitmap_count() const noexcept {
  return segments_ != nullptr ? segments_->bitmap_count() : 0;
}

std::uint64_t RRRPoolView::memory_bytes() const noexcept {
  if (comp_ != nullptr) return comp_->memory_bytes();
  return segments_ != nullptr ? segments_->memory_bytes() : 0;
}

FlatPool RRRPoolView::flatten() const {
  FlatPool flat;
  flat.num_vertices = num_vertices();
  const std::size_t count = size();
  flat.offsets.resize(count + 1);
  flat.offsets[0] = 0;
  for (std::size_t i = 0; i < count; ++i) {
    flat.offsets[i + 1] = flat.offsets[i] + (*this)[i].size();
  }
  flat.vertices.resize(flat.offsets.back());
#pragma omp parallel for schedule(dynamic, 64)
  for (std::size_t i = 0; i < count; ++i) {
    auto out = flat.vertices.begin() +
               static_cast<std::ptrdiff_t>(flat.offsets[i]);
    (*this)[i].for_each([&](VertexId v) { *out++ = v; });
  }
  return flat;
}

}  // namespace eimm
