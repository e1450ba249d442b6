// The two Find_Most_Influential_Set kernels.
//
// ripples_select_t — the baseline strategy the paper profiles (§II-B,
// Challenge 1): vertices are partitioned across threads; every thread
// scans EVERY sorted RRR set and binary-searches the portion that
// intersects its vertex range, maintaining thread-local counters. After
// each pick, every thread again scans every surviving set containing the
// seed to decrement its own counters. Memory traffic:
// O(log(avg |R|) · θ · p).
//
// efficient_select_t — EfficientIMM's Algorithm 2: RRR sets are
// partitioned across threads; each member vertex increments one shared
// 64-bit atomic counter; the arg-max is a two-step parallel reduction;
// after each pick the counter is either decremented over covered sets or
// rebuilt from the survivors — whichever touches fewer vertices
// (§IV-C "Adaptive Vertex Occurrence Counter Update"). The decrement
// branch finds the covered sets without a scan over all θ: the pool is
// split at the §IV-C bitmap crossover (bitmap_cutoff(|V|)). Sparse sets
// (below it) go into a CSR vertex→set-id CoverIndex, so the sets
// covering the seed are exactly index[seed]; dense sets (at or above it)
// stay on a short scan list tested with contains(), a single bit test
// for bitmap sets. A round's decrement therefore touches |index[seed]| +
// |scan list| sets, not θ. Compressed pools index nothing — every slot
// stays on the scan list, so their resident bytes do not grow.
//
// The index covers a prefix of the pool's slots. A plain call rebuilds it
// from slot 0; a call with SelectionOptions::cover_append_only (the
// SelectionWorkspace bound to a build's append-only pool — the
// martingale probe loop) keeps the index of the slots it already covers
// and indexes only the sets appended since, into the same single CSR.
// Both go through detail::build_cover_index.
//
// The kernel is additionally templated on the Counters layout: the flat
// CounterArray (the paper's shared atomic array) or the NUMA
// ShardedCounterArray (per-domain replicas, updates to the caller's home
// replica, summed hierarchical arg-max). Workers resolve a CounterSlab
// view once per parallel region; both layouts produce bit-identical seed
// sequences.
//
// Both kernels are templated on a Mem policy that observes every data
// access (counters, set payloads, index reads); NullMem compiles to
// nothing, and src/cachesim provides a tracing policy that feeds the
// L1/L2 model for the Table IV reproduction. Both read the pool through
// an RRRPoolView (rrr/pool_view.hpp): the sharded sampler's arena
// segments in place, or a gap-coded CompressedPool. Both kernels break
// counter ties toward the lowest vertex id, so they return identical
// seed sequences on the same pool content, whichever storage backs it —
// a cross-validation the test suite enforces.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "runtime/atomic_counters.hpp"
#include "runtime/partition.hpp"
#include "runtime/reduction.hpp"
#include "runtime/work_queue.hpp"
#include "rrr/pool_view.hpp"
#include "support/macros.hpp"

namespace eimm {

/// Memory-access observer that observes nothing (production path).
struct NullMem {
  static constexpr bool kTracing = false;
  static void touch(const void* addr, std::size_t bytes) noexcept {
    EIMM_UNUSED(addr);
    EIMM_UNUSED(bytes);
  }
};

/// Vertex→set index the efficient kernel retires covered sets through,
/// over the pool's slots [0, indexed). Sets below the bitmap crossover
/// are listed under each of their members; the rest go on `scan`. It
/// grows in place when an append-only pool grows (the martingale rounds)
/// and stays one CSR however many times it grew.
/// Memory: 4 B per sparse member plus 8 B per vertex.
struct CoverIndex {
  /// |V|+1 CSR offsets into `sets`; empty when nothing is indexed.
  std::vector<std::uint64_t> offsets;
  /// Ids of the sparse sets containing each vertex, grouped by vertex.
  std::vector<SketchId> sets;
  /// Ids of the dense sets, ascending; tested with contains() per round.
  std::vector<SketchId> scan;
  /// Every slot is on the scan list (compressed pools); `scan` stays
  /// empty and the kernel scans ids 0..θ-1 directly.
  bool scan_all = false;
  /// Pool slots covered so far; the next build indexes [indexed, θ).
  std::size_t indexed = 0;
  /// Vertex count of the indexed pool (0 while nothing is indexed).
  VertexId num_vertices = 0;

  /// Forgets every indexed slot, keeping the buffers' capacity.
  void clear() noexcept {
    offsets.clear();
    sets.clear();
    scan.clear();
    scan_all = false;
    indexed = 0;
    num_vertices = 0;
  }
};

struct SelectionOptions {
  std::size_t k = 50;
  /// Choose decrement-vs-rebuild per round (EfficientIMM §IV-C). When
  /// false, always decrement (the non-adaptive ablation of Fig. 5).
  bool adaptive_update = true;
  /// Skip the initial counter build because the generation kernel already
  /// incremented counters in place (kernel fusion, Algorithm 3).
  bool counters_prebuilt = false;
  /// Distribute RRR-set batches through the stealing JobPool instead of a
  /// static split (§IV-C "Dynamic Job Balancing").
  bool dynamic_balance = true;
  /// Jobs per batch for the JobPool.
  std::size_t batch_size = 64;
  /// Optional per-vertex eligibility mask (size ≥ the counter array's
  /// size): vertices with a zero entry are never picked as seeds, though
  /// their counters are still maintained. Pool-level constrained
  /// selection; also the reference the serve/ QueryEngine's constrained
  /// kernel is cross-validated against
  /// (tests/serve/query_engine_test.cpp).
  const std::vector<std::uint8_t>* eligible = nullptr;
  /// Reusable per-set alive-flag storage: when non-null the kernel uses
  /// (and fully re-initializes) this vector instead of allocating its
  /// own — the SelectionWorkspace reuse path for the martingale probe
  /// loop. Contents on return are the final alive flags.
  std::vector<std::uint8_t>* alive_scratch = nullptr;
  /// Reusable CoverIndex storage for the efficient kernel (same reuse
  /// path; ignored by ripples). Rebuilt from scratch on every call
  /// unless `cover_append_only` is set.
  CoverIndex* cover_scratch = nullptr;
  /// `cover_scratch` indexes a prefix of THIS pool, which only ever grew
  /// by appending slots since: keep that prefix and index only the new
  /// slots. Raises CheckError when the pool is smaller than the indexed
  /// prefix or has a different vertex count. Set by a SelectionWorkspace
  /// bound to a build's append-only pool, never by hand.
  bool cover_append_only = false;
};

struct SelectionResult {
  std::vector<VertexId> seeds;
  /// Counter value of each seed at pick time (its marginal coverage).
  std::vector<std::uint64_t> marginal_coverage;
  /// Number of RRR sets covered by the final seed set.
  std::uint64_t covered_sets = 0;
  /// Pool size at selection time (θ).
  std::uint64_t total_sets = 0;
  /// How many rounds chose rebuild over decrement (diagnostics).
  std::uint32_t rebuild_rounds = 0;

  /// F(S): fraction of RRR sets covered — the martingale estimator input.
  [[nodiscard]] double coverage_fraction() const noexcept {
    return total_sets ? static_cast<double>(covered_sets) /
                            static_cast<double>(total_sets)
                      : 0.0;
  }
};

namespace detail {

/// Raises CheckError unless `num_sets` slots can all be named by a
/// 32-bit set id (the cover index stores SketchIds).
inline void check_set_ids(std::size_t num_sets) {
  EIMM_CHECK(num_sets < std::numeric_limits<SketchId>::max(),
             "pool too large for 32-bit set ids");
}

/// Traced iteration over one RRR set: touches the payload the way the
/// real representation lays it out (vector elements or bitmap words).
template <typename Mem, typename Fn>
void for_each_traced(const RRRSetView& set, Fn&& fn) {
  if (set.repr() == RRRRepr::kVector) {
    const auto& verts = set.vertices();
    for (const VertexId v : verts) {
      Mem::touch(&v, sizeof(VertexId));
      fn(v);
    }
  } else {
    // Bitmap: the kernel streams whole words and expands set bits.
    set.for_each([&](VertexId v) {
      Mem::touch(&v, sizeof(std::uint64_t));
      fn(v);
    });
  }
}

/// Traced membership test (binary search probes / single bit test).
template <typename Mem>
bool contains_traced(const RRRSetView& set, VertexId v) {
  if (set.repr() == RRRRepr::kVector) {
    const auto& verts = set.vertices();
    std::size_t lo = 0, hi = verts.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      Mem::touch(verts.data() + mid, sizeof(VertexId));
      if (verts[mid] < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo < verts.size() && verts[lo] == v;
  }
  Mem::touch(&set, sizeof(std::uint64_t));
  return set.contains(v);
}

/// Brings `index` up to date with `pool` (see CoverIndex): indexes the
/// slots [index.indexed, θ) into the existing CSR, so a cleared index is
/// built from scratch and a bound one only grows by the appended sets.
///
/// The vertices are cut into buckets of consecutive ids, several per
/// thread, and every write to the CSR is made by the one thread that
/// owns the vertex's bucket: no atomics, and no two threads storing
/// into the same run. Two passes over the new slots, one ascending block
/// per thread, count and then copy each new (member, set id) pair into
/// its bucket's list. Bucket-parallel passes over those lists count the
/// new members per vertex and, after one serial pass over |V| that turns
/// the counts into the grown offsets and slides each indexed run to its
/// new start, scatter the set ids. Lists hold their pairs in slot order,
/// so every run ends up ascending and the index does not depend on the
/// schedule. Temporary memory: 8 B per new sparse member. Requires
/// θ < 2^32 (the kernel checks it): a vertex's old and new run lengths
/// share one 64-bit word while counting.
template <typename Mem>
void build_cover_index(const RRRPoolView& pool, CoverIndex& index) {
  const std::size_t num_sets = pool.size();
  const VertexId n = pool.num_vertices();
  const bool compressed = pool.compressed();
  if (index.indexed == 0) {
    index.clear();
    index.num_vertices = n;
    index.scan_all = compressed;
    if (!compressed) index.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  }
  EIMM_CHECK(index.num_vertices == n && index.scan_all == compressed,
             "cover index was built over a pool of another shape");
  EIMM_CHECK(num_sets >= index.indexed,
             "pool smaller than the slots its cover index covers");
  const std::size_t begin = index.indexed;
  index.indexed = num_sets;
  if (index.scan_all || begin == num_sets) return;

  const std::size_t cutoff = bitmap_cutoff(n);
  std::uint64_t* offsets = index.offsets.data();
  const std::uint64_t old_members = offsets[n];
  const auto parts = static_cast<std::size_t>(omp_get_max_threads());
  const std::size_t buckets =
      std::max<std::size_t>(1, std::min<std::size_t>(8 * parts, n));
  const std::size_t width =
      std::max<std::size_t>(1, (n + buckets - 1) / buckets);
  // Calls fn(v, i) once per distinct member v of every sparse set i in
  // the part's block of new slots; dense ids go onto `dense`.
  const auto for_each_part_member = [&](std::size_t part,
                                        std::vector<SketchId>* dense,
                                        auto&& fn) {
    const auto [lo, hi] = block_range(num_sets - begin, parts, part);
    for (std::size_t i = begin + lo; i < begin + hi; ++i) {
      const auto& set = pool[i];
      if (set.size() >= cutoff) {
        if (dense != nullptr) dense->push_back(static_cast<SketchId>(i));
        continue;
      }
      VertexId prev = kInvalidVertex;
      for_each_traced<Mem>(set, [&](VertexId v) {
        if (v == prev) return;  // a vector set may list a vertex twice
        prev = v;
        fn(v, static_cast<SketchId>(i));
      });
    }
  };

  // Pass 1: dense ids onto per-part lists (concatenated in part order,
  // they keep the scan list sorted, and every new id tops the old ones);
  // new members counted per part and bucket.
  std::vector<std::vector<SketchId>> dense(parts);
  std::vector<std::uint64_t> cursor(parts * buckets, 0);  // part-major
#pragma omp parallel for schedule(static, 1)
  for (std::size_t part = 0; part < parts; ++part) {
    std::uint64_t* count = cursor.data() + part * buckets;
    for_each_part_member(part, &dense[part],
                         [&](VertexId v, SketchId) { ++count[v / width]; });
  }
  for (const std::vector<SketchId>& part : dense) {
    index.scan.insert(index.scan.end(), part.begin(), part.end());
  }

  // Lists laid out bucket-major, parts in order within a bucket, so
  // bucket b holds [first[b], first[b + 1]) in slot order.
  std::vector<std::uint64_t> first(buckets + 1, 0);
  std::uint64_t added = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    first[b] = added;
    for (std::size_t part = 0; part < parts; ++part) {
      const std::uint64_t count = cursor[part * buckets + b];
      cursor[part * buckets + b] = added;
      added += count;
    }
  }
  first[buckets] = added;
  // Grown before the lists exist, so the old id buffer is gone by then.
  index.sets.resize(old_members + added);
  SketchId* sets = index.sets.data();

  // Pass 2: copy the new pairs into their buckets' lists.
  std::vector<std::pair<VertexId, SketchId>> lists(added);
#pragma omp parallel for schedule(static, 1)
  for (std::size_t part = 0; part < parts; ++part) {
    std::uint64_t* next = cursor.data() + part * buckets;
    for_each_part_member(part, nullptr, [&](VertexId v, SketchId i) {
      lists[next[v / width]++] = {v, i};
    });
  }
  // Runs fn(v, id) over every new pair, each bucket on one thread.
  const auto for_each_new_pair = [&](auto&& fn) {
#pragma omp parallel for schedule(dynamic, 1)
    for (std::size_t b = 0; b < buckets; ++b) {
      for (std::uint64_t j = first[b]; j < first[b + 1]; ++j) {
        Mem::touch(lists.data() + j, sizeof(lists[j]));
        fn(lists[j].first, lists[j].second);
      }
    }
  };

  // Offsets → run lengths in place: offsets[v + 1] = |run of v|. Each
  // thread owns one block of vertices and reads its left boundary before
  // the barrier, ahead of the neighbour block's writes.
  if (old_members != 0) {
#pragma omp parallel
    {
      const auto [lo, hi] =
          block_range(n, static_cast<std::size_t>(omp_get_num_threads()),
                      static_cast<std::size_t>(omp_get_thread_num()));
      std::uint64_t prev = offsets[lo];
#pragma omp barrier
      for (std::size_t v = lo; v < hi; ++v) {
        const std::uint64_t end = offsets[v + 1];
        offsets[v + 1] = end - prev;
        prev = end;
      }
    }
  }

  // Pass 3: new member counts into the high half of offsets[v + 1].
  constexpr std::uint64_t kNewMember = std::uint64_t{1} << 32;
  for_each_new_pair([&](VertexId v, SketchId) {
    Mem::touch(offsets + v + 1, sizeof(std::uint64_t));
    offsets[v + 1] += kNewMember;
  });

  // Lengths → grown offsets, walking down from the end so each indexed
  // run slides right to its new start before anything lands on it.
  // offsets[v + 1] becomes v's write cursor: the end of its indexed run.
  std::uint64_t new_end = old_members + added;
  std::uint64_t old_end = old_members;
  for (std::size_t v = n; v-- > 0;) {
    const std::uint64_t old_len = offsets[v + 1] & (kNewMember - 1);
    const std::uint64_t new_len = offsets[v + 1] >> 32;
    const std::uint64_t new_begin = new_end - old_len - new_len;
    old_end -= old_len;
    if (old_len != 0 && new_begin != old_end) {
      std::copy_backward(sets + old_end, sets + old_end + old_len,
                         sets + new_begin + old_len);
    }
    offsets[v + 1] = new_begin + old_len;
    new_end = new_begin;
  }

  // Pass 4: scatter the new ids; each cursor ends at offsets[v + 1]'s
  // final value, the end of v's grown run.
  for_each_new_pair([&](VertexId v, SketchId id) {
    Mem::touch(offsets + v + 1, sizeof(std::uint64_t));
    const std::uint64_t pos = offsets[v + 1]++;
    Mem::touch(sets + pos, sizeof(SketchId));
    sets[pos] = id;
  });
}

/// Arg-max over either counter layout. The production path uses the
/// layout's parallel reduction (two-step flat, hierarchical sharded);
/// the traced path scans serially so every counter read reaches the
/// cache model.
template <typename Mem, typename Counters>
ArgMaxResult argmax_counters(const Counters& counters,
                             const std::uint8_t* eligible = nullptr) {
  if constexpr (!Mem::kTracing) {
    return parallel_argmax(counters, eligible);
  } else {
    ArgMaxResult best{0, 0};
    for (std::size_t i = 0; i < counters.size(); ++i) {
      if (eligible != nullptr && eligible[i] == 0) continue;
      Mem::touch(&counters, sizeof(std::uint64_t));
      const std::uint64_t v = counters.get(i);
      if (v > best.value) {
        best.value = v;
        best.index = i;
      }
    }
    return best;
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// EfficientIMM kernel (Algorithm 2)
// ---------------------------------------------------------------------------

template <typename Mem = NullMem, typename Counters = CounterArray>
SelectionResult efficient_select_t(const RRRPoolView& pool,
                                   Counters& counters,
                                   const SelectionOptions& options) {
  const std::size_t num_sets = pool.size();
  const VertexId n = pool.num_vertices();
  EIMM_CHECK(counters.size() >= n, "counter array smaller than vertex count");
  EIMM_CHECK(options.k > 0, "k must be positive");
  detail::check_set_ids(num_sets);
  const std::uint8_t* eligible = nullptr;
  if (options.eligible != nullptr) {
    // The arg-max scans the whole counter array, so the mask must cover
    // every counter slot, not just |V|.
    EIMM_CHECK(options.eligible->size() >= counters.size(),
               "eligibility mask smaller than counter array");
    eligible = options.eligible->data();
  }

  SelectionResult result;
  result.total_sets = num_sets;
  // Alive flags: workspace-provided scratch (assign() fully resets it, so
  // a reused buffer starts every call from the all-alive state) or a
  // call-local vector.
  std::vector<std::uint8_t> own_alive;
  std::vector<std::uint8_t>& alive =
      options.alive_scratch != nullptr ? *options.alive_scratch : own_alive;
  alive.assign(num_sets, 1);

  CoverIndex own_cover;
  CoverIndex& cover =
      options.cover_scratch != nullptr ? *options.cover_scratch : own_cover;
  if (!options.cover_append_only) cover.clear();
  detail::build_cover_index<Mem>(pool, cover);
  const std::size_t scan_count =
      cover.scan_all ? num_sets : cover.scan.size();

  const auto workers = static_cast<std::size_t>(omp_get_max_threads());

  // Initial counter build (skipped under kernel fusion): partition the
  // RRR sets, broadcast each member into the worker's counter slab (the
  // one shared array, or its home NUMA replica under the sharded layout).
  if (!options.counters_prebuilt) {
    if (options.dynamic_balance) {
      JobPool jobs(num_sets, options.batch_size, workers);
#pragma omp parallel
      {
        CounterSlab slab = counters.local();
        const auto wid = static_cast<std::size_t>(omp_get_thread_num());
        for (JobBatch batch = jobs.next(wid); !batch.empty();
             batch = jobs.next(wid)) {
          for (std::size_t i = batch.begin; i < batch.end; ++i) {
            detail::for_each_traced<Mem>(pool[i], [&](VertexId v) {
              Mem::touch(&counters, sizeof(std::uint64_t));
              slab.increment(v);
            });
          }
        }
      }
    } else {
#pragma omp parallel
      {
        CounterSlab slab = counters.local();
#pragma omp for schedule(static)
        for (std::size_t i = 0; i < num_sets; ++i) {
          detail::for_each_traced<Mem>(pool[i], [&](VertexId v) {
            Mem::touch(&counters, sizeof(std::uint64_t));
            slab.increment(v);
          });
        }
      }
    }
  }

  std::uint64_t alive_count = num_sets;
  const std::size_t rounds = std::min<std::size_t>(options.k, n);
  for (std::size_t round = 0; round < rounds; ++round) {
    const ArgMaxResult best = detail::argmax_counters<Mem>(counters, eligible);
    if (best.value == 0) break;  // no eligible vertex covers an alive set
    const auto seed = static_cast<VertexId>(best.index);
    result.seeds.push_back(seed);
    result.marginal_coverage.push_back(best.value);

    // The counter value of the winner IS the number of alive sets the
    // seed covers — no survey pass needed. Decrementing touches the
    // covered sets, rebuilding touches the survivors: pick whichever is
    // the smaller side (§IV-C "Adaptive Vertex Occurrence Counter
    // Update"). This is exactly where skewed datasets explode: the first
    // seeds cover most of the pool, so decrement does nearly all the
    // work just to throw it away, while rebuild touches almost nothing.
    const std::uint64_t covered_count = best.value;
    result.covered_sets += covered_count;
    const bool rebuild =
        options.adaptive_update && 2 * covered_count > alive_count;
    alive_count -= covered_count;

    if (rebuild) {
      ++result.rebuild_rounds;
      // Rebuild: zero the counter, re-broadcast only the survivors.
      counters.reset();
#pragma omp parallel
      {
        CounterSlab slab = counters.local();
#pragma omp for schedule(dynamic, 16)
        for (std::size_t i = 0; i < num_sets; ++i) {
          if (!alive[i]) continue;
          if (detail::contains_traced<Mem>(pool[i], seed)) {
            alive[i] = 0;
            continue;
          }
          detail::for_each_traced<Mem>(pool[i], [&](VertexId v) {
            Mem::touch(&counters, sizeof(std::uint64_t));
            slab.increment(v);
          });
        }
      }
    } else {
      // Decrement: remove each covered set's contribution. The covered
      // sparse sets are exactly index[seed]; dense ones are found by
      // testing the scan list. Under the sharded layout the decrement
      // lands on the DECREMENTING thread's home replica — possibly not
      // the one the matching increment hit; the summed view stays exact
      // either way (modular arithmetic, see atomic_counters.hpp), which
      // is what makes the §IV-C adaptive update shard-layout-agnostic.
      std::uint64_t first = 0;
      std::uint64_t last = 0;
      if (!cover.scan_all && seed < n) {
        Mem::touch(cover.offsets.data() + seed, 2 * sizeof(std::uint64_t));
        first = cover.offsets[seed];
        last = cover.offsets[seed + 1];
      }
#pragma omp parallel
      {
        CounterSlab slab = counters.local();
        const auto retire = [&](std::size_t i) {
          alive[i] = 0;
          detail::for_each_traced<Mem>(pool[i], [&](VertexId v) {
            Mem::touch(&counters, sizeof(std::uint64_t));
            slab.decrement(v);
          });
        };
        // Sparse and dense sets are disjoint, so the two loops never
        // retire the same set and need no barrier between them.
#pragma omp for schedule(dynamic, 16) nowait
        for (std::uint64_t j = first; j < last; ++j) {
          Mem::touch(cover.sets.data() + j, sizeof(SketchId));
          const std::size_t i = cover.sets[j];
          if (alive[i]) retire(i);
        }
#pragma omp for schedule(dynamic, 16)
        for (std::size_t j = 0; j < scan_count; ++j) {
          if (!cover.scan_all) {
            Mem::touch(cover.scan.data() + j, sizeof(SketchId));
          }
          const std::size_t i = cover.scan_all ? j : cover.scan[j];
          if (!alive[i]) continue;
          if (!detail::contains_traced<Mem>(pool[i], seed)) continue;
          retire(i);
        }
      }
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Ripples baseline kernel (§II-B)
// ---------------------------------------------------------------------------

template <typename Mem = NullMem>
SelectionResult ripples_select_t(const RRRPoolView& pool,
                                 const SelectionOptions& options) {
  const std::size_t num_sets = pool.size();
  const VertexId n = pool.num_vertices();
  EIMM_CHECK(options.k > 0, "k must be positive");

  SelectionResult result;
  result.total_sets = num_sets;
  std::vector<std::uint8_t> own_alive;
  std::vector<std::uint8_t>& alive =
      options.alive_scratch != nullptr ? *options.alive_scratch : own_alive;
  alive.assign(num_sets, 1);

  // Thread-local counters over a static vertex partition. Stored as one
  // flat array indexed by vertex: thread t owns [vl, vh) and only touches
  // its own slice, mimicking Ripples' per-thread counter vectors.
  std::vector<std::uint64_t> local_counters(n, 0);

  // Initial count: EVERY thread traverses EVERY RRR set and uses binary
  // search to find the slice of the (sorted) set that intersects its
  // vertex range — the access pattern Challenge 1 blames.
#pragma omp parallel
  {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    const auto nthreads = static_cast<std::size_t>(omp_get_num_threads());
    const auto [vl, vh] = block_range(n, nthreads, tid);
    for (std::size_t i = 0; i < num_sets; ++i) {
      const auto& set = pool[i];
      if (set.repr() == RRRRepr::kVector) {
        const auto& verts = set.vertices();
        // Binary search for the lower bound of the thread's range...
        std::size_t lo = 0, hi = verts.size();
        while (lo < hi) {
          const std::size_t mid = lo + (hi - lo) / 2;
          Mem::touch(verts.data() + mid, sizeof(VertexId));
          if (verts[mid] < vl) lo = mid + 1;
          else hi = mid;
        }
        // ...then walk members inside [vl, vh).
        for (std::size_t j = lo; j < verts.size() && verts[j] < vh; ++j) {
          Mem::touch(verts.data() + j, sizeof(VertexId));
          Mem::touch(local_counters.data() + verts[j], sizeof(std::uint64_t));
          local_counters[verts[j]]++;
        }
      } else {
        set.for_each([&](VertexId v) {
          if (v >= vl && v < vh) {
            Mem::touch(local_counters.data() + v, sizeof(std::uint64_t));
            local_counters[v]++;
          }
        });
      }
    }
  }

  const std::size_t rounds = std::min<std::size_t>(options.k, n);
  for (std::size_t round = 0; round < rounds; ++round) {
    // Reduce the per-thread maxima (lowest-id tie-break, same as the
    // efficient kernel, so seed sequences are comparable).
    ArgMaxResult best{0, 0};
    for (VertexId v = 0; v < n; ++v) {
      Mem::touch(local_counters.data() + v, sizeof(std::uint64_t));
      if (local_counters[v] > best.value) {
        best.value = local_counters[v];
        best.index = v;
      }
    }
    if (best.value == 0) break;
    const auto seed = static_cast<VertexId>(best.index);
    result.seeds.push_back(seed);
    result.marginal_coverage.push_back(best.value);

    // Decrement pass: every thread re-scans every alive set, binary-
    // searching for the seed; sets containing it are retired and their
    // members' counters (within the thread's range) decremented.
    std::uint64_t covered_count = 0;
#pragma omp parallel reduction(+ : covered_count)
    {
      const auto tid = static_cast<std::size_t>(omp_get_thread_num());
      const auto nthreads = static_cast<std::size_t>(omp_get_num_threads());
      const auto [vl, vh] = block_range(n, nthreads, tid);
      for (std::size_t i = 0; i < num_sets; ++i) {
        if (!alive[i]) continue;
        if (!detail::contains_traced<Mem>(pool[i], seed)) continue;
        if (tid == 0) ++covered_count;  // count each set once
        const auto& set = pool[i];
        if (set.repr() == RRRRepr::kVector) {
          const auto& verts = set.vertices();
          std::size_t lo = 0, hi = verts.size();
          while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            Mem::touch(verts.data() + mid, sizeof(VertexId));
            if (verts[mid] < vl) lo = mid + 1;
            else hi = mid;
          }
          for (std::size_t j = lo; j < verts.size() && verts[j] < vh; ++j) {
            Mem::touch(verts.data() + j, sizeof(VertexId));
            Mem::touch(local_counters.data() + verts[j],
                       sizeof(std::uint64_t));
            local_counters[verts[j]]--;
          }
        } else {
          set.for_each([&](VertexId v) {
            if (v >= vl && v < vh) {
              Mem::touch(local_counters.data() + v, sizeof(std::uint64_t));
              local_counters[v]--;
            }
          });
        }
      }
      // Retire covered sets after all threads finished decrementing.
#pragma omp barrier
#pragma omp for schedule(static)
      for (std::size_t i = 0; i < num_sets; ++i) {
        if (alive[i] && detail::contains_traced<Mem>(pool[i], seed)) {
          alive[i] = 0;
        }
      }
    }
    result.covered_sets += covered_count;
  }
  return result;
}

/// Production-path wrappers (NullMem), defined in select.cpp.
SelectionResult efficient_select(const RRRPoolView& pool,
                                 CounterArray& counters,
                                 const SelectionOptions& options);
SelectionResult ripples_select(const RRRPoolView& pool,
                               const SelectionOptions& options);

}  // namespace eimm
