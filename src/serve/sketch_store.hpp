// SketchStore — the frozen, queryable image of one IMM build.
//
// The paper's asymmetry (sampling dominates, selection is cheap) is also
// a serving opportunity: generate the RRR sketches ONCE with the full
// martingale machinery, then answer many independent seed-selection
// queries against the frozen pool without regeneration — the same
// build/serve split HBMax exploits by compressing RRR state for reuse.
//
// The store holds two immutable CSR indexes over the same pool:
//   sketch → member vertices   (the flattened pool; drives decrements)
//   vertex → covering sketches (the inverted index; after a pick, jump
//                               straight to the covered sketches instead
//                               of scanning all θ sets)
// plus the precomputed unconstrained greedy sequence up to the build-time
// cap k_max, so plain top-k queries are an O(k) prefix read.
//
// Zero-copy freezing: build() takes ownership of the PoolBuild's storage
// and serves sketch() spans straight from it — the sorted arena runs of
// the sharded SegmentedPool (only bitmap runs are expanded, into one
// side array), or the gap-coded CompressedPool as is. The contiguous
// CSR image is NOT materialized at build time; flatten is deferred to
// save() (or an explicit materialize_flat()), so build-and-query-only
// workloads never pay the copy.
//
// Snapshots (magic "EIMMSKS") share one page-aligned section-table
// layout: a header + section table (id, CRC slot, offset, length; every
// section offset 4096-aligned) followed by the raw arrays, INCLUDING the
// derived inverted index and default greedy sequence. Three revisions
// of it are read:
//   v2 — the raw layout: seven sections, the sketch payload as flat
//        vertex ids.
//   v3 — v2's layout with a COMPRESSED sketch payload: the sketch-
//        vertices section holds the delta-varint gap streams of all
//        sketches back to back (rrr/gap_codec.hpp — always plain
//        varints on disk; a Huffman-backed store transcodes at save),
//        and an eighth section carries the per-sketch byte offsets.
//        Loads keep the payload compressed and serve queries decode-on-
//        enumerate, so snapshot size AND serving RSS drop together.
//   v4 — the v2/v3 layout with INTEGRITY CHECKSUMS: each section-table
//        entry's CRC slot (zero in v2/v3) carries the CRC32C of that
//        section's payload bytes (7 sections = raw, 8 = compressed; the
//        table is otherwise bit-identical). The only format written.
// One parser reads every revision from one of two byte sources. An mmap
// load (the default) maps the file read-only and serves every array
// straight from the mapping — zero pool copies, cold start O(section
// table) — so N serving processes share one page-cache copy of the
// sketch data; it verifies v4 checksums lazily by default (at first
// QueryEngine construction) or eagerly/never per
// SnapshotLoadOptions::checksums. A stream load reads the file (or an
// istream) into an owned page-aligned buffer and runs the same parser
// over it, verifying checksums and the payload up front. A mismatch
// surfaces as typed bin::FormatError with section+offset — a flipped
// bit is never served. The v1 stream format is no longer read.
//
// Everything is read-only after build/load — queries allocate their own
// scratch (see QueryEngine) — so any number of threads can serve from one
// store concurrently. save→load→save is bit-identical under both load
// paths, and a deferred-backing store compares equal (operator== is
// logical, not representational) to its own loaded snapshot.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/imm.hpp"
#include "graph/types.hpp"
#include "io/mmap.hpp"
#include "rrr/compressed_pool.hpp"
#include "rrr/pool_view.hpp"
#include "support/macros.hpp"

namespace eimm {

/// Build provenance carried in every snapshot: enough to reproduce the
/// store (workload + seed + accuracy) and to label benchmark output.
struct SketchStoreMeta {
  std::string workload;  // free-form dataset label
  std::string model;     // "IC" | "LT"
  std::uint64_t rng_seed = 0;
  double epsilon = 0.0;
  std::uint64_t theta = 0;  // martingale θ the build requested
  bool theta_capped = false;

  friend bool operator==(const SketchStoreMeta&,
                         const SketchStoreMeta&) = default;
};

/// Where load_file() takes the snapshot bytes from; both run one parser.
enum class SnapshotLoadMode {
  kMap,     ///< serve straight from a read-only mapping (the default)
  kStream,  ///< read the file into an owned buffer (verified up front)
};

/// When an mmap load of a v4 snapshot verifies the per-section CRC32C
/// checksums (stream loads always verify eagerly — the bytes are in hand).
enum class ChecksumMode {
  kLazy,   ///< defer to verify_checksums() — first QueryEngine ctor —
           ///< keeping the O(table) mmap cold start
  kEager,  ///< verify every section at load time
  kOff,    ///< skip (diagnostics over known-corrupt files)
};

struct SnapshotLoadOptions {
  SnapshotLoadMode mode = SnapshotLoadMode::kMap;
  /// Adds the O(pool) scans the mmap path skips by default: per-member
  /// range/ordering checks plus recompute-and-compare of the derived
  /// inverted index and default greedy sequence. Stream loads always
  /// validate the primary payload; deep validation adds the derived-
  /// state cross-check there too (and forces checksum verification
  /// first on v4 files).
  bool deep_validate = false;
  /// v4 checksum handling on the mmap path.
  ChecksumMode checksums = ChecksumMode::kLazy;
};

/// What a load cost — the acceptance counters for the zero-copy path.
struct SnapshotLoadStats {
  std::uint32_t version = 0;
  bool mmap_backed = false;
  std::uint64_t file_bytes = 0;
  /// Bytes mapped read-only (the whole file on the mmap path, else 0).
  std::uint64_t bytes_mapped = 0;
  /// Bytes copied into the owned buffer (the whole file on the stream
  /// path) — 0 on the mmap path (nothing but the meta strings is
  /// duplicated).
  std::uint64_t bytes_copied = 0;
  bool deep_validated = false;
  /// v3 accounting: the payload stayed gap-coded through the load.
  bool compressed = false;
  /// Bytes of the compressed sketch payload (0 for a raw payload).
  std::uint64_t compressed_payload_bytes = 0;
  /// The snapshot carries per-section CRC32C checksums (v4).
  bool checksummed = false;
  /// Checksums were verified DURING the load (stream / eager mmap). A
  /// lazy mmap load leaves this false; see checksums_pending().
  bool checksums_verified = false;
};

/// Snapshot writer knobs (see save()).
struct SnapshotSaveOptions {
  /// Write the compressed-payload layout. Works from any backing: a
  /// compressed store's varint payload is written as-is, a Huffman-
  /// backed one transcodes, a raw one encodes at save time.
  bool compress = false;
};

class SketchStore {
 public:
  /// Runs the sampling phase (identical to run_imm with Engine::kEfficient
  /// and the same options) and freezes the resulting build WITHOUT
  /// flattening it (see from_build). options.k is the build-time query
  /// cap: queries may ask for any k ≤ k_max. The cap is clamped to |V|
  /// (greedy can never return more seeds).
  static SketchStore build(const DiffusionGraph& graph,
                           const ImmOptions& options,
                           std::string workload_label = "");

  /// Zero-copy freeze: takes ownership of the build's storage (the
  /// CompressedPool on a pool-compressed build, the SegmentedPool
  /// arenas otherwise) and serves sketches in place. Sorted runs are
  /// pointed at; only bitmap runs are expanded; the contiguous image is
  /// deferred to save(). A compressed build stays compressed: queries
  /// decode on enumerate (see for_each_member).
  static SketchStore from_build(PoolBuild&& build, std::size_t k_max,
                                SketchStoreMeta meta = {});

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return num_vertices_;
  }
  [[nodiscard]] std::uint64_t num_sketches() const noexcept {
    return num_sketches_;
  }
  [[nodiscard]] std::size_t k_max() const noexcept { return k_max_; }
  [[nodiscard]] const SketchStoreMeta& meta() const noexcept { return meta_; }

  /// Member vertices of sketch `s`, ascending — served from the flat
  /// image (owned or mmap'ed) when one exists, otherwise straight from
  /// the owned backing storage (zero-copy). Compressed stores have no
  /// materialized members to span — this throws CheckError there; use
  /// for_each_member (works over every backing) or materialize_flat().
  [[nodiscard]] std::span<const VertexId> sketch(SketchId s) const {
    EIMM_CHECK(!compressed_,
               "sketch() spans are unavailable on a compressed store; "
               "enumerate with for_each_member() or materialize_flat()");
    const std::uint64_t len = sketch_offsets_[s + 1] - sketch_offsets_[s];
    if (flat_) {
      return {sketch_vertices_.data() + sketch_offsets_[s], len};
    }
    return {entry_ptrs_[s], len};
  }

  /// Invokes fn(vertex) for every member of sketch `s` in ascending
  /// order, whatever the backing — the enumeration surface query
  /// kernels use so compressed and raw stores serve identically. May
  /// throw CheckError on a corrupt compressed payload.
  template <typename Fn>
  void for_each_member(SketchId s, Fn&& fn) const {
    if (compressed_) {
      comp_slot(s).for_each(std::forward<Fn>(fn));
      return;
    }
    for (const VertexId v : sketch(s)) fn(v);
  }

  /// Member count of sketch `s` (cheap for every backing).
  [[nodiscard]] std::uint64_t member_count(SketchId s) const noexcept {
    return sketch_offsets_[s + 1] - sketch_offsets_[s];
  }

  /// True when a contiguous CSR image backs sketch() (always after
  /// load(); after build() only once save()/materialize_flat() ran).
  [[nodiscard]] bool flat() const noexcept { return flat_; }

  /// True when the sketch payload is gap-coded (compressed build or v3
  /// snapshot) and queries decode on enumerate.
  [[nodiscard]] bool compressed() const noexcept { return compressed_; }
  /// Bytes of the gap-coded payload (0 when not compressed).
  [[nodiscard]] std::uint64_t compressed_payload_bytes() const noexcept {
    return compressed_ ? comp_offsets_.back() : 0;
  }

  /// Builds the contiguous image from the backing storage (decoding a
  /// compressed payload), switches sketch() to serve from it, and
  /// releases the backing (idempotent; a no-op on loaded uncompressed
  /// stores, which are flat by nature).
  /// NOT safe against concurrent readers: it frees the storage deferred
  /// sketch() spans point into, so call it before publishing the store
  /// to serving threads (or rely on save(), which assembles a transient
  /// payload without touching the backing). Useful to pay the copy once
  /// before repeated save()s.
  void materialize_flat();

  /// Sketches covering vertex `v`, ascending.
  [[nodiscard]] std::span<const SketchId> covering(VertexId v) const noexcept {
    return {node_sketches_.data() + node_offsets_[v],
            node_sketches_.data() + node_offsets_[v + 1]};
  }

  /// Number of sketches covering `v` — exactly the initial value of the
  /// Algorithm 2 vertex-occurrence counter.
  [[nodiscard]] std::uint64_t degree(VertexId v) const noexcept {
    return node_offsets_[v + 1] - node_offsets_[v];
  }

  /// The unconstrained greedy sequence (≤ k_max seeds; shorter when the
  /// pool is exhausted first) and each seed's marginal coverage.
  [[nodiscard]] std::span<const VertexId> default_seeds() const noexcept {
    return default_seeds_;
  }
  [[nodiscard]] std::span<const std::uint64_t> default_marginals()
      const noexcept {
    return default_marginals_;
  }

  /// Owned footprint, including a stream load's snapshot buffer
  /// (mmap-served arrays are NOT counted — they are shared page cache;
  /// see mapped_bytes()).
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept;
  /// Bytes served from the read-only snapshot mapping (0 unless
  /// mmap-loaded).
  [[nodiscard]] std::uint64_t mapped_bytes() const noexcept {
    return mapping_.owned() ? 0 : mapping_.size();
  }

  // --- Snapshots (eimm::bin format, magic "EIMMSKS") ---
  /// Writes the v4 section-table format: seven sections, or eight with
  /// the compressed payload when options.compress is set.
  void save(std::ostream& os, SnapshotSaveOptions options = {}) const;
  /// save() into `<path>.tmp.<pid>.<n>` (created with O_EXCL; `n` is a
  /// process-wide call counter, so concurrent saves to one path never
  /// share a temp file), then rename(2) over `path`, so stores mapped
  /// from the old file keep serving it. The temp file is removed when any
  /// later step fails. No fsync: the rename is atomic against readers,
  /// not durable against a power cut.
  void save_file(const std::string& path,
                 SnapshotSaveOptions options = {}) const;
  /// Reads the whole stream into an owned buffer and parses it like a
  /// kStream load_file().
  static SketchStore load(std::istream& is);
  /// Loads `path` per options.mode: mapped read-only (kMap) or read into
  /// an owned buffer (kStream); both run the same parser and checks.
  static SketchStore load_file(const std::string& path,
                               SnapshotLoadOptions options = {});

  /// What the most recent load cost; zeroed on built stores.
  [[nodiscard]] const SnapshotLoadStats& load_stats() const noexcept {
    return load_stats_;
  }

  /// Verifies any deferred v4 section checksums (lazy mmap loads).
  /// Idempotent and safe under concurrency; a no-op when nothing is
  /// pending. Throws bin::FormatError naming the corrupt section — and
  /// stays retryable: a failed verification leaves the store pending.
  /// QueryEngine construction calls this, so a serving path never
  /// answers from unverified bytes.
  void verify_checksums() const;
  /// True while a lazy mmap load still has unverified checksums.
  [[nodiscard]] bool checksums_pending() const noexcept;

  /// Logical equality: same shape, meta, and per-sketch members —
  /// independent of which storage backs each side, so a deferred store
  /// equals its own loaded (flat or mmap'ed) snapshot.
  friend bool operator==(const SketchStore& a, const SketchStore& b);

 private:
  SketchStore() = default;

  /// Derives the inverted index and the default greedy sequence from the
  /// sketch members (build paths — snapshots carry the derived arrays).
  /// Reads through sketch(), so it works over flat and deferred backings
  /// alike.
  void finalize();

  /// Assembles the contiguous payload from sketch() spans (the deferred
  /// flatten, shared by save() and materialize_flat()).
  [[nodiscard]] std::vector<VertexId> assemble_payload() const;

  /// O(sections + offsets + |V| + k) shape checks shared by every load
  /// path; throws on any inconsistency between counts, offsets and
  /// section lengths.
  void validate_structure() const;
  /// O(pool) scans: sketch members strictly ascending and < |V|, node
  /// index entries < num_sketches (stream loads always; mmap on
  /// deep_validate).
  void validate_payload() const;
  /// Recomputes the inverted index and the default greedy sequence from
  /// the primary data and compares them to the loaded arrays
  /// (deep_validate only).
  void validate_derived() const;

  /// The snapshot parser: checks the header and section table, serves
  /// every array from `image` (a shared mapping or an owned buffer),
  /// then verifies and validates per `options`. An owned image is always
  /// verified and payload-validated at load.
  static SketchStore load_image(MappedFile image, const std::string& source,
                                SnapshotLoadOptions options);

  /// Slot view of a compressed sketch (compressed_ only): through the
  /// adopted CompressedPool when one backs the store (build path — may
  /// be Huffman-coded), else over the snapshot's varint payload spans.
  [[nodiscard]] CompressedSlot comp_slot(SketchId s) const noexcept {
    if (backing_cpool_.size() > 0) return backing_cpool_.slot(s);
    return CompressedSlot{
        comp_payload_.data() + comp_offsets_[s],
        comp_offsets_[s + 1] - comp_offsets_[s],
        static_cast<std::uint32_t>(sketch_offsets_[s + 1] -
                                   sketch_offsets_[s]),
        nullptr};
  }

  VertexId num_vertices_ = 0;
  std::uint64_t num_sketches_ = 0;
  std::uint64_t k_max_ = 0;
  SketchStoreMeta meta_;
  SnapshotLoadStats load_stats_;

  // Owned storage of built stores; the vectors stay empty on loaded
  // stores, whose views point into mapping_.
  std::vector<std::uint64_t> sketch_offsets_own_;
  std::vector<VertexId> sketch_vertices_own_;
  std::vector<std::uint64_t> node_offsets_own_;
  std::vector<SketchId> node_sketches_own_;
  std::vector<VertexId> default_seeds_own_;
  std::vector<std::uint64_t> default_marginals_own_;

  // The read surface every accessor serves from: spans into the owned
  // vectors OR into mapping_. Both survive moves of the store — heap and
  // mmap allocations never relocate.
  std::span<const std::uint64_t> sketch_offsets_;  // num_sketches_ + 1
  std::span<const VertexId> sketch_vertices_;      // valid iff flat_
  std::span<const std::uint64_t> node_offsets_;    // num_vertices_ + 1
  std::span<const SketchId> node_sketches_;
  std::span<const VertexId> default_seeds_;
  std::span<const std::uint64_t> default_marginals_;

  bool flat_ = false;
  /// Deferred backing (used iff !flat_ && !compressed_): per-sketch
  /// member pointers into the owned storage below.
  std::vector<const VertexId*> entry_ptrs_;
  SegmentedPool backing_segments_;
  std::vector<VertexId> bitmap_expansion_;  // expanded bitmap sets only

  /// Compressed backing (used iff compressed_). Build path: the adopted
  /// CompressedPool (varint or Huffman). Snapshot path: varint payload
  /// + byte offsets served from mapping_; comp_offsets_/comp_payload_
  /// always point at whichever storage is live.
  bool compressed_ = false;
  CompressedPool backing_cpool_;
  std::span<const std::uint64_t> comp_offsets_;  // num_sketches_ + 1
  std::span<const std::uint8_t> comp_payload_;

  /// v4 checksum state of a load: the section list with expected CRCs,
  /// verified once — at load (eager, stream) or on first demand (lazy).
  /// Held through a shared_ptr so the store stays movable (the sections
  /// point into mapping_, whose pages never relocate on move).
  struct PendingChecksums;
  std::shared_ptr<PendingChecksums> pending_checksums_;

  /// Keeps the snapshot pages alive for loaded stores: the shared file
  /// mapping, or a stream load's owned buffer.
  MappedFile mapping_;
};

}  // namespace eimm
