// The efficient kernel's covered-set index: the decrement branch finds
// the sets covering a seed through a vertex→set CSR over the sparse sets
// plus a scan list of the dense ones. These tests pin the split rule at
// the bitmap crossover and cross-validate the kernel on a pool whose set
// sizes straddle it, across every backing and counter layout, against
// the Ripples scan baseline and the serve-side store kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "rrr/compressed_pool.hpp"
#include "rrr/pool_view.hpp"
#include "seedselect/engine.hpp"
#include "seedselect/select.hpp"
#include "serve/query_engine.hpp"
#include "serve/sketch_store.hpp"
#include "support/macros.hpp"

namespace eimm {
namespace {

constexpr VertexId kVertices = 640;  // bitmap_cutoff(640) == 20
constexpr VertexId kHub = 7;         // in most sets: forces a rebuild round

std::vector<VertexId> random_members(std::mt19937& rng, std::size_t size,
                                     bool with_hub) {
  std::set<VertexId> members;
  if (with_hub) members.insert(kHub);
  std::uniform_int_distribution<VertexId> pick(0, kVertices - 1);
  // A skewed draw (half the picks from the first 40 vertices) gives the
  // greedy real marginals to rank after the hub.
  while (members.size() < size) {
    const VertexId v = pick(rng);
    members.insert(members.size() % 2 == 0 ? v % 40 : v);
  }
  return {members.begin(), members.end()};
}

/// Sets of size cutoff−1, cutoff and cutoff+1 as sorted vectors, bitmap
/// sets well above the cutoff, and one-member sets; the hub sits in
/// about 60 % of them.
RRRPool straddling_pool() {
  const std::size_t cutoff = bitmap_cutoff(kVertices);
  std::mt19937 rng(2024);
  std::bernoulli_distribution hub(0.6);
  std::vector<RRRSet> sets;
  for (const std::size_t size : {cutoff - 1, cutoff, cutoff + 1}) {
    for (int i = 0; i < 30; ++i) {
      sets.push_back(RRRSet::make_vector(random_members(rng, size, hub(rng))));
    }
  }
  for (int i = 0; i < 12; ++i) {
    sets.push_back(
        RRRSet::make_bitmap(random_members(rng, 2 * cutoff + i, hub(rng)),
                            kVertices));
  }
  std::uniform_int_distribution<VertexId> single(0, 60);
  for (int i = 0; i < 150; ++i) {
    sets.push_back(RRRSet::make_vector({hub(rng) ? kHub : single(rng)}));
  }
  // Interleave so sparse and dense ids mix across the slot range.
  std::shuffle(sets.begin(), sets.end(), rng);
  RRRPool pool(kVertices);
  pool.resize(sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) pool[i] = std::move(sets[i]);
  return pool;
}

SegmentedPool segment(const RRRPool& pool) {
  SegmentedPool segments(pool.num_vertices());
  segments.resize(pool.size());
  segments.ensure_workers(3);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ShardArena& arena = segments.arena(i % 3);
    segments.set_run(i, arena.view(arena.append(pool[i].to_vector())));
  }
  return segments;
}

CompressedPool compress(const RRRPool& pool) {
  CompressedPool comp(pool.num_vertices());
  comp.append(RRRPoolView(pool), 0, pool.size());
  return comp;
}

CounterArray prebuilt_counters(const RRRPool& pool) {
  CounterArray counters(pool.num_vertices());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i].for_each([&](VertexId v) { counters.increment(v); });
  }
  return counters;
}

struct Expected {
  std::vector<VertexId> seeds;
  std::vector<std::uint64_t> marginals;
  std::uint64_t covered = 0;
};

void expect_same(const SelectionResult& got, const Expected& want,
                 const char* what) {
  EXPECT_EQ(got.seeds, want.seeds) << what;
  EXPECT_EQ(got.marginal_coverage, want.marginals) << what;
  EXPECT_EQ(got.covered_sets, want.covered) << what;
}

/// Runs the efficient kernel over every backing and both counter
/// layouts and checks each against `want`. Returns the rebuild rounds
/// the flat legacy run took (identical on every run by construction).
std::uint32_t check_all_backings(const RRRPool& pool,
                                 const SelectionOptions& options,
                                 const Expected& want, bool prebuilt) {
  const SegmentedPool segments = segment(pool);
  const CompressedPool comp = compress(pool);
  const CounterArray base = prebuilt_counters(pool);
  std::uint32_t rebuilds = 0;
  for (const RRRPoolView view :
       {RRRPoolView(pool), RRRPoolView(segments), RRRPoolView(comp)}) {
    SelectionOptions opt = options;
    opt.counters_prebuilt = prebuilt;

    CounterArray flat(pool.num_vertices());
    if (prebuilt) {
      for (std::size_t v = 0; v < flat.size(); ++v) flat.set(v, base.get(v));
    }
    const SelectionResult f = efficient_select_t<NullMem>(view, flat, opt);
    expect_same(f, want, "flat counters");
    if (!view.segmented() && !view.compressed()) rebuilds = f.rebuild_rounds;

    ShardedCounterArray sharded(pool.num_vertices(), 3);
    if (prebuilt) sharded.load_base(base);
    expect_same(
        efficient_select_t<NullMem, ShardedCounterArray>(view, sharded, opt),
        want, "sharded counters");
  }
  return rebuilds;
}

Expected from(const SelectionResult& r) {
  return {r.seeds, r.marginal_coverage, r.covered_sets};
}

Expected from(const QueryResult& r) {
  return {r.seeds, r.marginal_coverage, r.covered_sketches};
}

TEST(CoverIndex, SplitsAtTheBitmapCrossover) {
  const RRRPool pool = straddling_pool();
  const std::size_t cutoff = bitmap_cutoff(kVertices);
  CoverIndex index;
  detail::build_cover_index<NullMem>(RRRPoolView(pool), index);

  ASSERT_FALSE(index.scan_all);
  ASSERT_EQ(index.offsets.size(), kVertices + 1u);
  std::vector<SketchId> dense;
  std::vector<std::set<SketchId>> covering(kVertices);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (pool[i].size() >= cutoff) {
      dense.push_back(static_cast<SketchId>(i));
    } else {
      pool[i].for_each([&](VertexId v) {
        covering[v].insert(static_cast<SketchId>(i));
      });
    }
  }
  EXPECT_EQ(index.scan, dense);
  EXPECT_EQ(index.sets.size(), index.offsets.back());
  for (VertexId v = 0; v < kVertices; ++v) {
    const std::set<SketchId> got(index.sets.begin() + index.offsets[v],
                                 index.sets.begin() + index.offsets[v + 1]);
    EXPECT_EQ(got, covering[v]) << "vertex " << v;
    EXPECT_EQ(got.size(), index.offsets[v + 1] - index.offsets[v])
        << "vertex " << v << " lists a set twice";
  }
}

TEST(CoverIndex, CompressedPoolsIndexNothing) {
  const RRRPool pool = straddling_pool();
  const CompressedPool comp = compress(pool);
  CoverIndex index;
  detail::build_cover_index<NullMem>(RRRPoolView(comp), index);
  EXPECT_TRUE(index.scan_all);
  EXPECT_TRUE(index.offsets.empty());
  EXPECT_TRUE(index.sets.empty());
  EXPECT_TRUE(index.scan.empty());
}

TEST(CoverIndex, SegmentedRunsAboveTheCutoffStayOnTheScanList) {
  // Segmented pools hold every set as a sorted run, bitmaps included:
  // the split goes by size, so the large runs are still scanned.
  const RRRPool pool = straddling_pool();
  const SegmentedPool segments = segment(pool);
  CoverIndex from_pool;
  CoverIndex from_segments;
  detail::build_cover_index<NullMem>(RRRPoolView(pool), from_pool);
  detail::build_cover_index<NullMem>(RRRPoolView(segments), from_segments);
  EXPECT_EQ(from_segments.scan, from_pool.scan);
  EXPECT_EQ(from_segments.offsets, from_pool.offsets);
}

TEST(CoverIndex, AdaptiveUpdateMatchesRipplesAndStoreOnEveryBacking) {
  const RRRPool pool = straddling_pool();
  SelectionOptions options;
  options.k = 12;
  const Expected ripples = from(ripples_select_t<NullMem>(pool, options));
  const SketchStore store = SketchStore::from_pool(pool, options.k);
  QueryOptions query;
  query.k = options.k;
  const Expected served = from(select_from_store(store, query));
  EXPECT_EQ(served.seeds, ripples.seeds);
  EXPECT_EQ(served.marginals, ripples.marginals);
  EXPECT_EQ(served.covered, ripples.covered);

  // The hub covers ~60 % of the sets, so round one rebuilds and the
  // later rounds decrement through the index.
  const std::uint32_t rebuilds =
      check_all_backings(pool, options, ripples, /*prebuilt=*/false);
  EXPECT_GE(rebuilds, 1u);
  EXPECT_LT(rebuilds, ripples.seeds.size());
  EXPECT_EQ(ripples.seeds.front(), kHub);
}

TEST(CoverIndex, AlwaysDecrementMatchesRipples) {
  const RRRPool pool = straddling_pool();
  SelectionOptions options;
  options.k = 12;
  options.adaptive_update = false;
  const Expected ripples = from(ripples_select_t<NullMem>(pool, options));
  EXPECT_EQ(check_all_backings(pool, options, ripples, false), 0u);
}

TEST(CoverIndex, PrebuiltCountersMatchRipples) {
  const RRRPool pool = straddling_pool();
  for (const bool adaptive : {true, false}) {
    SelectionOptions options;
    options.k = 12;
    options.adaptive_update = adaptive;
    const Expected ripples = from(ripples_select_t<NullMem>(pool, options));
    check_all_backings(pool, options, ripples, /*prebuilt=*/true);
  }
}

TEST(CoverIndex, EligibleMaskMatchesTheStoreBlacklist) {
  const RRRPool pool = straddling_pool();
  const std::vector<VertexId> forbidden = {kHub, 0, 3, 11, 25};
  std::vector<std::uint8_t> mask(kVertices, 1);
  for (const VertexId v : forbidden) mask[v] = 0;

  const SketchStore store = SketchStore::from_pool(pool, 10);
  QueryOptions query;
  query.k = 10;
  query.forbidden = forbidden;
  const Expected served = from(select_from_store(store, query));
  ASSERT_FALSE(served.seeds.empty());

  for (const bool adaptive : {true, false}) {
    SelectionOptions options;
    options.k = 10;
    options.adaptive_update = adaptive;
    options.eligible = &mask;
    check_all_backings(pool, options, served, /*prebuilt=*/false);
  }
}

TEST(CoverIndex, ReusedWorkspaceMatchesAFreshIndex) {
  // The workspace keeps the index buffers across calls; a call over a
  // smaller pool after a larger one must not see stale entries.
  const RRRPool pool = straddling_pool();
  RRRPool half(kVertices);
  half.resize(pool.size() / 2);
  for (std::size_t i = 0; i < half.size(); ++i) half[i] = pool[i];

  SelectionEngineConfig config;
  config.counter_shards = 1;
  config.pin = PinMode::kNone;
  const SelectionEngine engine(config);
  SelectionOptions options;
  options.k = 8;
  SelectionWorkspace ws;
  engine.select(SelectionKernel::kEfficient, pool, options, nullptr, &ws);
  const SelectionResult reused =
      engine.select(SelectionKernel::kEfficient, half, options, nullptr, &ws);
  const Expected ripples = from(ripples_select_t<NullMem>(half, options));
  expect_same(reused, ripples, "reused workspace");
}

RRRPool prefix_of(const RRRPool& pool, std::size_t count) {
  RRRPool prefix(pool.num_vertices());
  prefix.resize(count);
  for (std::size_t i = 0; i < count; ++i) prefix[i] = pool[i];
  return prefix;
}

/// Same slots, same scan list, and each vertex's run holding the same
/// set ids, compared as sorted multisets. The build also promises each
/// run ascending, whatever the schedule; that is checked on `got`.
void expect_same_index(const CoverIndex& got, const CoverIndex& want,
                       const std::string& what) {
  EXPECT_EQ(got.indexed, want.indexed) << what;
  EXPECT_EQ(got.num_vertices, want.num_vertices) << what;
  EXPECT_EQ(got.scan_all, want.scan_all) << what;
  EXPECT_EQ(got.scan, want.scan) << what;
  ASSERT_EQ(got.offsets, want.offsets) << what;
  ASSERT_EQ(got.sets.size(), want.sets.size()) << what;
  for (std::size_t v = 0; v + 1 < want.offsets.size(); ++v) {
    std::vector<SketchId> a(got.sets.begin() + got.offsets[v],
                            got.sets.begin() + got.offsets[v + 1]);
    std::vector<SketchId> b(want.sets.begin() + want.offsets[v],
                            want.sets.begin() + want.offsets[v + 1]);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()))
        << what << ": vertex " << v;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << what << ": vertex " << v;
  }
}

// Growth steps over the straddling pool: a repeated size (nothing
// appended) and a step that appends a single set included.
constexpr std::size_t kSteps[] = {1, 40, 40, 41, 120, 200};

TEST(CoverIndex, IndexGrownInStepsEqualsAFreshIndex) {
  const RRRPool pool = straddling_pool();
  std::vector<std::size_t> steps(std::begin(kSteps), std::end(kSteps));
  steps.push_back(pool.size());
  for (const bool segmented : {false, true}) {
    CoverIndex grown;
    for (const std::size_t count : steps) {
      const RRRPool prefix = prefix_of(pool, count);
      const SegmentedPool segments = segment(prefix);
      const RRRPoolView view =
          segmented ? RRRPoolView(segments) : RRRPoolView(prefix);
      detail::build_cover_index<NullMem>(view, grown);
      CoverIndex fresh;
      detail::build_cover_index<NullMem>(view, fresh);
      expect_same_index(grown, fresh,
                        std::string(segmented ? "segmented" : "pool") +
                            " at " + std::to_string(count) + " sets");
    }
  }
}

TEST(CoverIndex, BoundWorkspaceSelectsLikeAFreshIndexAsThePoolGrows) {
  const RRRPool pool = straddling_pool();
  std::vector<std::size_t> steps(std::begin(kSteps), std::end(kSteps));
  steps.push_back(pool.size());
  for (const int shards : {1, 3}) {
    SelectionEngineConfig config;
    config.counter_shards = shards;
    config.pin = PinMode::kNone;
    const SelectionEngine engine(config);
    SelectionOptions options;
    options.k = 8;
    SelectionWorkspace ws;
    ws.bind_append_only();
    for (const std::size_t count : steps) {
      const RRRPool prefix = prefix_of(pool, count);
      const std::string what = "shards " + std::to_string(shards) + " at " +
                               std::to_string(count) + " sets";
      const SelectionResult bound = engine.select(
          SelectionKernel::kEfficient, prefix, options, nullptr, &ws);
      expect_same(bound, from(ripples_select_t<NullMem>(prefix, options)),
                  what.c_str());
      CoverIndex fresh;
      detail::build_cover_index<NullMem>(RRRPoolView(prefix), fresh);
      expect_same_index(ws.cover_index(), fresh, what);
    }
    EXPECT_EQ(ws.counter_allocations(), 1u);
  }
}

TEST(CoverIndex, BoundWorkspaceRejectsAPoolOfTheWrongShape) {
  const RRRPool pool = straddling_pool();
  const RRRPool half = prefix_of(pool, pool.size() / 2);
  SelectionEngineConfig config;
  config.counter_shards = 1;
  config.pin = PinMode::kNone;
  const SelectionEngine engine(config);
  SelectionOptions options;
  options.k = 4;

  SelectionWorkspace ws;
  ws.bind_append_only();
  engine.select(SelectionKernel::kEfficient, pool, options, nullptr, &ws);
  // Smaller than the indexed prefix: the pool is not the one it grew from.
  EXPECT_THROW(engine.select(SelectionKernel::kEfficient, half, options,
                             nullptr, &ws),
               CheckError);

  SelectionWorkspace other;
  other.bind_append_only();
  engine.select(SelectionKernel::kEfficient, half, options, nullptr, &other);
  RRRPool wider(kVertices + 1);
  wider.resize(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) wider[i] = pool[i];
  EXPECT_THROW(engine.select(SelectionKernel::kEfficient, wider, options,
                             nullptr, &other),
               CheckError);

  // An unbound workspace rebuilds per call, so any pool goes.
  SelectionWorkspace unbound;
  engine.select(SelectionKernel::kEfficient, pool, options, nullptr,
                &unbound);
  EXPECT_NO_THROW(engine.select(SelectionKernel::kEfficient, half, options,
                                nullptr, &unbound));
}

/// A pool that claims more sets than a 32-bit set id can name. The
/// kernel must refuse it before touching any slot.
struct OversizedPool {
  std::size_t count;
  [[nodiscard]] std::size_t size() const noexcept { return count; }
  [[nodiscard]] VertexId num_vertices() const noexcept { return 4; }
  const RRRSet& operator[](std::size_t) const noexcept {
    static const RRRSet empty;
    return empty;
  }
};

TEST(CoverIndex, SetIdOverflowRaisesCheckError) {
  CounterArray counters(4);
  SelectionOptions options;
  options.k = 1;
  for (const std::size_t count :
       {std::size_t{std::numeric_limits<SketchId>::max()},
        std::size_t{std::numeric_limits<SketchId>::max()} + 1}) {
    EXPECT_THROW(efficient_select_t<NullMem>(OversizedPool{count}, counters,
                                             options),
                 CheckError)
        << count;
  }
}

}  // namespace
}  // namespace eimm
