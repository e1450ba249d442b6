// Storage for sampled RRR sets.
//
// Every build stages its sets straight into the storage selection
// reads (rrr/sharded.hpp); no contiguous image is built and no payload
// is copied between sampling and selection:
//
//   ShardArena     — worker-private staging storage (page-aligned
//                    mbind(kLocal) NumaBuffer chunks). reset() rewinds
//                    the write cursor while KEEPING the mapped chunks,
//                    so later rounds reuse the same pages instead of
//                    mapping fresh ones.
//   SegmentedPool  — the pool format that survives into selection:
//                    per-worker arenas owning the staged sets, plus one
//                    entry per global RRR slot. A slot holds one of the
//                    paper's adaptive pair (§IV-C): a sorted vertex run
//                    (sparse sets) or a bitmap run of ceil(|V|/64)
//                    64-bit words (sets at or above bitmap_cutoff(|V|)).
//   RRRSetView     — one RRR set, whichever storage backs it: a sorted
//                    arena run, an arena bitmap run, or a gap-coded
//                    CompressedPool slot.
//   RRRPoolView    — the pool abstraction every selection-side consumer
//                    (seedselect kernels, SelectionEngine, coverage
//                    probing, serve/SketchStore freezing, cachesim)
//                    accepts: a SegmentedPool or a CompressedPool,
//                    behind one slot-addressed surface.
//
// Determinism: slot content is identical under both backings (runs are
// sorted; bitmap runs and compressed slots enumerate ascending), so
// selection over either view is bit-identical to selection over the
// flattened pool — enforced by tests/rrr/pool_view and the ctest -L
// statcheck view sweep. flatten() stays available for consumers that
// genuinely need the contiguous CSR image (snapshot serialization);
// everything else reads in place.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "numa/alloc.hpp"
#include "rrr/compressed_pool.hpp"
#include "support/bits.hpp"

namespace eimm {

/// Flat CSR image of a pool: set `i` owns the ascending vertex run
/// `vertices[offsets[i] .. offsets[i+1])`. This is the frozen layout the
/// serve/ subsystem snapshots — one allocation per array, so it
/// serializes cleanly.
struct FlatPool {
  VertexId num_vertices = 0;
  std::vector<std::uint64_t> offsets;  // size() == set count + 1
  std::vector<VertexId> vertices;      // ascending within each set
};

/// How a set's members are physically stored. kVector (a sorted run)
/// and kBitmap (a bitmap run) are the paper's adaptive pair; kCompressed
/// marks gap-coded CompressedPool slots — the selection kernels route
/// bitmap and compressed sets through their generic for_each/contains
/// path (decode on enumerate), never the vertices() span fast path.
enum class RRRRepr { kVector, kBitmap, kCompressed };

/// Member count at which a set over `num_vertices` vertices crosses to
/// the bitmap side: sets of at least this size are dense. |V|/32 is
/// where a bitmap (1 bit per vertex) becomes smaller than a sorted run
/// (4-byte ids).
[[nodiscard]] constexpr std::size_t bitmap_cutoff(
    VertexId num_vertices) noexcept {
  return num_vertices / 32;
}

/// Worker-private staging storage for sampled sets: page-aligned
/// NumaBuffer chunks requested kLocal, so the pages land on the sampling
/// worker's own domain under first-touch. Single-writer; a run never
/// spans chunks, so view() is one contiguous span.
class ShardArena {
 public:
  /// Handle to one staged run.
  struct Ref {
    std::uint32_t chunk = 0;
    std::uint32_t pos = 0;
    std::uint32_t len = 0;
  };

  /// `chunk_vertices` is the default chunk capacity; runs larger than it
  /// get a dedicated exactly-sized chunk.
  explicit ShardArena(std::size_t chunk_vertices = std::size_t{1} << 18)
      : chunk_vertices_(chunk_vertices == 0 ? 1 : chunk_vertices) {}

  Ref append(std::span<const VertexId> vertices);

  /// Reserves an uninitialized run of `len` vertices, returning its ref
  /// and a writable span the caller must fill before the run is read.
  /// Same placement rules as append (a run never spans chunks); the
  /// fused sampler uses this to scatter lane members straight into the
  /// arena with no intermediate buffer.
  Ref allocate(std::size_t len, std::span<VertexId>& out);

  /// Reserves a zeroed bitmap run of `words` 64-bit words, 8-byte
  /// aligned inside its chunk. Counts as one staged run.
  std::span<std::uint64_t> allocate_bitmap(std::size_t words);

  [[nodiscard]] std::span<const VertexId> view(const Ref& ref) const noexcept;

  /// Rewinds the write cursor to the first chunk while KEEPING every
  /// mapped NumaBuffer chunk — the next round's appends reuse the pages
  /// (and their NUMA placement) instead of re-mapping. Staged runs become
  /// invalid; cumulative staged accounting is preserved.
  void reset() noexcept;

  /// Bytes of mapped staging memory currently held (diagnostics).
  [[nodiscard]] std::uint64_t mapped_bytes() const noexcept;
  /// Cumulative payload bytes staged since construction (survives
  /// reset() — reuse shows up as staged_bytes growing past mapped_bytes).
  [[nodiscard]] std::uint64_t staged_bytes() const noexcept {
    return staged_units_ * sizeof(VertexId);
  }
  /// Staged runs since construction (survives reset()).
  [[nodiscard]] std::uint64_t runs() const noexcept { return runs_; }

 private:
  /// Places `len` 4-byte units in the cursor chunk, starting at an even
  /// unit when `align8` is set; returns the run's ref.
  Ref reserve(std::size_t len, bool align8);

  std::size_t chunk_vertices_;
  std::vector<NumaBuffer> chunks_;
  std::size_t cursor_ = 0;         // chunk currently written
  std::size_t head_used_ = 0;      // 4-byte units used in the cursor chunk
  std::uint64_t runs_ = 0;
  std::uint64_t staged_units_ = 0;
};

/// One RRR set behind the view: a sorted arena run, an arena bitmap run,
/// or a gap-coded CompressedPool slot. Same observable
/// surface every way — ascending for_each enumeration, exact contains —
/// so the selection kernels produce identical seed sequences no matter
/// which storage backs the pool. Compressed slots report repr() ==
/// kCompressed and bitmap runs kBitmap, which routes the kernels to the
/// generic for_each/contains path (the vertices() span fast path exists
/// for kVector only).
class RRRSetView {
 public:
  RRRSetView() = default;
  /*implicit*/ RRRSetView(std::span<const VertexId> run) noexcept
      : run_(run) {}
  /*implicit*/ RRRSetView(const CompressedSlot& slot) noexcept
      : kind_(Kind::kCompressed), comp_(slot) {}

  /// A bitmap run: bit v of `words` (ceil(num_vertices / 64) words) is
  /// set iff v is a member; `members` is the number of set bits.
  [[nodiscard]] static RRRSetView bitmap(const std::uint64_t* words,
                                         VertexId num_vertices,
                                         std::size_t members) noexcept {
    RRRSetView view;
    view.kind_ = Kind::kBitmap;
    view.bits_ = num_vertices;
    view.words_ = words;
    view.run_ = {static_cast<const VertexId*>(nullptr), members};
    return view;
  }

  /// kVector for arena runs (they are sorted vertex runs by contract),
  /// kBitmap for arena bitmap runs, kCompressed for CompressedPool slots.
  [[nodiscard]] RRRRepr repr() const noexcept {
    switch (kind_) {
      case Kind::kBitmap: return RRRRepr::kBitmap;
      case Kind::kCompressed: return RRRRepr::kCompressed;
      case Kind::kRun: break;
    }
    return RRRRepr::kVector;
  }

  /// Member count (a bitmap run keeps it beside its words).
  [[nodiscard]] std::size_t size() const noexcept {
    switch (kind_) {
      case Kind::kCompressed: return comp_.count;
      case Kind::kRun:
      case Kind::kBitmap: break;
    }
    return run_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Sorted-member span; valid only when repr() == kVector (the
  /// baseline binary-search kernel reads it directly). Empty for bitmap
  /// runs and compressed slots — they have no materialized member list.
  [[nodiscard]] std::span<const VertexId> vertices() const noexcept {
    return kind_ == Kind::kRun ? run_ : std::span<const VertexId>{};
  }

  /// Membership. May throw CheckError for a compressed slot whose
  /// payload is corrupt (bounds-checked decode) — hence not noexcept.
  [[nodiscard]] bool contains(VertexId v) const {
    switch (kind_) {
      case Kind::kBitmap:
        return v < bits_ && ((words_[v >> 6] >> (v & 63)) & 1) != 0;
      case Kind::kCompressed: return comp_.contains(v);
      case Kind::kRun: break;
    }
    return std::binary_search(run_.begin(), run_.end(), v);
  }

  /// Invokes fn(vertex) for every member in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    switch (kind_) {
      case Kind::kBitmap: {
        const std::size_t words = words_for_bits(bits_);
        for (std::size_t w = 0; w < words; ++w) {
          for_each_set_bit(words_[w], w * 64, [&](std::size_t i) {
            fn(static_cast<VertexId>(i));
          });
        }
        return;
      }
      case Kind::kCompressed: comp_.for_each(std::forward<Fn>(fn)); return;
      case Kind::kRun: break;
    }
    for (const VertexId v : run_) fn(v);
  }

 private:
  enum class Kind : std::uint8_t { kRun, kBitmap, kCompressed };

  Kind kind_ = Kind::kRun;
  VertexId bits_ = 0;                    // kBitmap: |V|
  const std::uint64_t* words_ = nullptr;  // kBitmap
  std::span<const VertexId> run_;        // kRun; kBitmap: size only
  CompressedSlot comp_;                  // kCompressed
};

/// The pool format every build fills and selection reads in place: slot
/// i is a sorted vertex run or a bitmap run staged in one of the
/// per-worker arenas, addressed by a raw entry. The arenas are owned
/// here, so the staged pages live exactly as long as the pool — a
/// SegmentedPool can be moved into a SketchStore and keep serving.
///
/// Concurrency contract: ensure_workers()/resize() are driver-side
/// (serial); workers then fill DISJOINT slots through their own
/// arena(w) + set_run/set_bitmap(i, ...).
class SegmentedPool {
 public:
  SegmentedPool() = default;
  explicit SegmentedPool(VertexId num_vertices)
      : num_vertices_(num_vertices) {}

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return num_vertices_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Grows the slot table to `count` entries (never shrinks).
  void resize(std::size_t count);

  /// Grows the per-worker arena set to at least `workers` arenas. Must
  /// not run concurrently with arena()/set_run()/set_bitmap().
  void ensure_workers(std::size_t workers);
  [[nodiscard]] std::size_t num_workers() const noexcept {
    return arenas_.size();
  }
  [[nodiscard]] ShardArena& arena(std::size_t worker) noexcept {
    return arenas_[worker];
  }

  /// Records slot `i` as the sorted run `run`, which must point into one
  /// of this pool's arenas and stay valid for the pool's lifetime
  /// (arenas are never reset while entries reference them).
  void set_run(std::size_t i, std::span<const VertexId> run) noexcept {
    entries_[i] = Entry{run.data(), static_cast<std::uint32_t>(run.size()),
                        false};
  }

  /// Records slot `i` as a bitmap run: `words` (ceil(num_vertices / 64)
  /// words, from this pool's arenas) with `members` bits set.
  void set_bitmap(std::size_t i, const std::uint64_t* words,
                  std::size_t members) noexcept {
    entries_[i] = Entry{words, static_cast<std::uint32_t>(members), true};
  }

  /// Slot `i`'s set.
  [[nodiscard]] RRRSetView operator[](std::size_t i) const noexcept {
    const Entry& e = entries_[i];
    if (e.bitmap) {
      return RRRSetView::bitmap(static_cast<const std::uint64_t*>(e.data),
                                num_vertices_, e.size);
    }
    return RRRSetView(
        std::span<const VertexId>(static_cast<const VertexId*>(e.data), e.size));
  }

  /// Slots held as bitmap runs.
  [[nodiscard]] std::size_t bitmap_count() const noexcept;

  /// Cumulative payload / currently-mapped staging bytes over all arenas.
  [[nodiscard]] std::uint64_t staged_bytes() const noexcept;
  [[nodiscard]] std::uint64_t mapped_bytes() const noexcept;
  /// Mapped arena bytes plus the slot table.
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return mapped_bytes() + entries_.capacity() * sizeof(Entry);
  }

  /// Rewinds every arena's write cursor (chunks and their NUMA placement
  /// are KEPT — see ShardArena::reset()). Used by the compressed-pool
  /// hand-off: once a round's sets are encoded into the CompressedPool,
  /// the staging pages are recycled for the next round, bounding raw
  /// staging memory to one round instead of the whole pool. Every staged
  /// set (and the entry table) becomes invalid.
  void reset_arenas() noexcept {
    for (ShardArena& a : arenas_) a.reset();
  }

 private:
  struct Entry {
    const void* data = nullptr;  // VertexId run, or 64-bit bitmap words
    std::uint32_t size = 0;      // members
    bool bitmap = false;
  };

  VertexId num_vertices_ = 0;
  std::vector<Entry> entries_;
  std::vector<ShardArena> arenas_;
};

/// Non-owning, slot-addressed view over either pool storage. Implicit
/// construction keeps every pool call site source-compatible; the
/// referenced pool must outlive the view (same contract as std::span).
class RRRPoolView {
 public:
  RRRPoolView() = default;
  /*implicit*/ RRRPoolView(const SegmentedPool& segments) noexcept
      : segments_(&segments) {}
  /*implicit*/ RRRPoolView(const CompressedPool& comp) noexcept
      : comp_(&comp) {}

  [[nodiscard]] bool segmented() const noexcept { return segments_ != nullptr; }
  /// True when the backing is a CompressedPool (gap-coded slots).
  [[nodiscard]] bool compressed() const noexcept { return comp_ != nullptr; }
  /// The compressed backing, or nullptr (snapshot adoption seam).
  [[nodiscard]] const CompressedPool* compressed_pool() const noexcept {
    return comp_;
  }

  [[nodiscard]] VertexId num_vertices() const noexcept {
    if (segments_ != nullptr) return segments_->num_vertices();
    return comp_ != nullptr ? comp_->num_vertices() : 0;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    if (segments_ != nullptr) return segments_->size();
    return comp_ != nullptr ? comp_->size() : 0;
  }

  [[nodiscard]] RRRSetView operator[](std::size_t i) const noexcept {
    if (segments_ != nullptr) return (*segments_)[i];
    return RRRSetView(comp_->slot(i));
  }

  /// Sum of set sizes (== total counter increments during a build).
  [[nodiscard]] std::uint64_t total_vertices() const noexcept;
  /// Sets held as bitmap runs.
  [[nodiscard]] std::size_t bitmap_count() const noexcept;
  /// Footprint of the backing storage: mapped arena bytes plus the slot
  /// table, or the compressed pool's resident bytes.
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept;

  /// Copies every set into one contiguous CSR image — the ONLY remaining
  /// payload copy on the data path, kept for snapshot serialization and
  /// cross-backing equality checks. Parallel fill; bitmap runs expand to
  /// sorted runs.
  [[nodiscard]] FlatPool flatten() const;

 private:
  const SegmentedPool* segments_ = nullptr;
  const CompressedPool* comp_ = nullptr;
};

}  // namespace eimm
