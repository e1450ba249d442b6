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
#include "test_util.hpp"

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

/// One set of the straddling pool, and whether it is a bitmap run.
struct StraddlingSet {
  std::vector<VertexId> members;
  bool bitmap = false;
};

/// Sets of size cutoff−1, cutoff and cutoff+1 as sorted runs, bitmap
/// runs well above the cutoff, and one-member sets; the hub sits in
/// about 60 % of them.
std::vector<StraddlingSet> straddling_sets() {
  const std::size_t cutoff = bitmap_cutoff(kVertices);
  std::mt19937 rng(2024);
  std::bernoulli_distribution hub(0.6);
  std::vector<StraddlingSet> sets;
  for (const std::size_t size : {cutoff - 1, cutoff, cutoff + 1}) {
    for (int i = 0; i < 30; ++i) {
      sets.push_back({random_members(rng, size, hub(rng))});
    }
  }
  for (int i = 0; i < 12; ++i) {
    sets.push_back({random_members(rng, 2 * cutoff + i, hub(rng)), true});
  }
  std::uniform_int_distribution<VertexId> single(0, 60);
  for (int i = 0; i < 150; ++i) {
    sets.push_back({{hub(rng) ? kHub : single(rng)}});
  }
  // Interleave so sparse and dense ids mix across the slot range.
  std::shuffle(sets.begin(), sets.end(), rng);
  return sets;
}

/// The first `count` straddling sets (all of them by default) over
/// `n` vertices, in one arena.
SegmentedPool straddling_pool(
    std::size_t count = std::numeric_limits<std::size_t>::max(),
    VertexId n = kVertices) {
  const std::vector<StraddlingSet> sets = straddling_sets();
  count = std::min(count, sets.size());
  SegmentedPool pool(n);
  pool.resize(count);
  pool.ensure_workers(1);
  for (std::size_t i = 0; i < count; ++i) {
    testing::store_set(pool, i, sets[i].members,
                       sets[i].bitmap ? 0 : testing::kRunsOnly);
  }
  return pool;
}

/// The same sets, every one a sorted run, spread over three arenas.
SegmentedPool segment(const RRRPoolView& pool) {
  SegmentedPool segments(pool.num_vertices());
  segments.resize(pool.size());
  segments.ensure_workers(3);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ShardArena& arena = segments.arena(i % 3);
    segments.set_run(
        i, arena.view(arena.append(testing::members_of(pool[i]))));
  }
  return segments;
}

CompressedPool compress(const RRRPoolView& pool) {
  CompressedPool comp(pool.num_vertices());
  comp.append(pool, 0, pool.size());
  return comp;
}

CounterArray prebuilt_counters(const RRRPoolView& pool) {
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

/// Runs the efficient kernel over every backing — the pool itself, its
/// sets as sorted runs over three arenas, and its compressed form — and
/// both counter layouts, and checks each against `want`. Returns the
/// rebuild rounds the flat run over `pool` took (identical on every run
/// by construction).
std::uint32_t check_all_backings(const SegmentedPool& pool,
                                 const SelectionOptions& options,
                                 const Expected& want, bool prebuilt) {
  const SegmentedPool segments = segment(pool);
  const CompressedPool comp = compress(pool);
  const CounterArray base = prebuilt_counters(pool);
  std::uint32_t rebuilds = 0;
  bool first = true;
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
    if (first) rebuilds = f.rebuild_rounds;
    first = false;

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
  const SegmentedPool pool = straddling_pool();
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
  const SegmentedPool pool = straddling_pool();
  const CompressedPool comp = compress(pool);
  CoverIndex index;
  detail::build_cover_index<NullMem>(RRRPoolView(comp), index);
  EXPECT_TRUE(index.scan_all);
  EXPECT_TRUE(index.offsets.empty());
  EXPECT_TRUE(index.sets.empty());
  EXPECT_TRUE(index.scan.empty());
}

TEST(CoverIndex, SegmentedRunsAboveTheCutoffStayOnTheScanList) {
  // Here every set is a sorted run, the former bitmap runs included:
  // the split goes by size, so the large runs are still scanned.
  const SegmentedPool pool = straddling_pool();
  const SegmentedPool segments = segment(pool);
  CoverIndex mixed;
  CoverIndex runs;
  detail::build_cover_index<NullMem>(RRRPoolView(pool), mixed);
  detail::build_cover_index<NullMem>(RRRPoolView(segments), runs);
  EXPECT_EQ(runs.scan, mixed.scan);
  EXPECT_EQ(runs.offsets, mixed.offsets);
}

TEST(CoverIndex, AdaptiveUpdateMatchesRipplesAndStoreOnEveryBacking) {
  const SegmentedPool pool = straddling_pool();
  SelectionOptions options;
  options.k = 12;
  const Expected ripples = from(ripples_select_t<NullMem>(pool, options));
  const SketchStore store = testing::freeze(straddling_pool(), options.k);
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
  const SegmentedPool pool = straddling_pool();
  SelectionOptions options;
  options.k = 12;
  options.adaptive_update = false;
  const Expected ripples = from(ripples_select_t<NullMem>(pool, options));
  EXPECT_EQ(check_all_backings(pool, options, ripples, false), 0u);
}

TEST(CoverIndex, PrebuiltCountersMatchRipples) {
  const SegmentedPool pool = straddling_pool();
  for (const bool adaptive : {true, false}) {
    SelectionOptions options;
    options.k = 12;
    options.adaptive_update = adaptive;
    const Expected ripples = from(ripples_select_t<NullMem>(pool, options));
    check_all_backings(pool, options, ripples, /*prebuilt=*/true);
  }
}

TEST(CoverIndex, EligibleMaskMatchesTheStoreBlacklist) {
  const SegmentedPool pool = straddling_pool();
  const std::vector<VertexId> forbidden = {kHub, 0, 3, 11, 25};
  std::vector<std::uint8_t> mask(kVertices, 1);
  for (const VertexId v : forbidden) mask[v] = 0;

  const SketchStore store = testing::freeze(straddling_pool(), 10);
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
  const SegmentedPool pool = straddling_pool();
  const SegmentedPool half = straddling_pool(pool.size() / 2);

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
  const SegmentedPool pool = straddling_pool();
  std::vector<std::size_t> steps(std::begin(kSteps), std::end(kSteps));
  steps.push_back(pool.size());
  for (const bool segmented : {false, true}) {
    CoverIndex grown;
    for (const std::size_t count : steps) {
      const SegmentedPool prefix = straddling_pool(count);
      const SegmentedPool segments = segment(prefix);
      const RRRPoolView view =
          segmented ? RRRPoolView(segments) : RRRPoolView(prefix);
      detail::build_cover_index<NullMem>(view, grown);
      CoverIndex fresh;
      detail::build_cover_index<NullMem>(view, fresh);
      expect_same_index(grown, fresh,
                        std::string(segmented ? "runs" : "pool") +
                            " at " + std::to_string(count) + " sets");
    }
  }
}

TEST(CoverIndex, BoundWorkspaceSelectsLikeAFreshIndexAsThePoolGrows) {
  const SegmentedPool pool = straddling_pool();
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
      const SegmentedPool prefix = straddling_pool(count);
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
  const SegmentedPool pool = straddling_pool();
  const SegmentedPool half = straddling_pool(pool.size() / 2);
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
  const SegmentedPool wider = straddling_pool(pool.size(), kVertices + 1);
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

TEST(CoverIndex, SetIdOverflowRaisesCheckError) {
  // The efficient kernel refuses a pool whose slots a 32-bit set id
  // cannot all name, before touching any slot.
  EXPECT_NO_THROW(detail::check_set_ids(
      std::size_t{std::numeric_limits<SketchId>::max()} - 1));
  for (const std::size_t count :
       {std::size_t{std::numeric_limits<SketchId>::max()},
        std::size_t{std::numeric_limits<SketchId>::max()} + 1}) {
    EXPECT_THROW(detail::check_set_ids(count), CheckError) << count;
  }
}

}  // namespace
}  // namespace eimm
