#include "serve/query_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "seedselect/select.hpp"
#include "support/macros.hpp"
#include "test_util.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

SketchStore make_sampled_store(const std::string& workload,
                               DiffusionModel model, std::size_t sets,
                               std::size_t k_max, std::uint64_t seed = 42) {
  const DiffusionGraph g = make_workload_with_weights(workload, model, 0.01);
  return testing::freeze(testing::sample_pool(g, model, sets, seed), k_max);
}

TEST(QueryEngine, TopKPrefixMatchesLiveKernel) {
  const SketchStore store = make_sampled_store(
      "com-Amazon", DiffusionModel::kIndependentCascade, 250, 10);
  const QueryEngine engine(store);

  for (std::size_t k = 1; k <= 10; ++k) {
    QueryOptions q;
    q.k = k;
    const QueryResult cached = engine.top_k(k);
    const QueryResult live = engine.select(q);
    EXPECT_EQ(cached.seeds, live.seeds) << "k=" << k;
    EXPECT_EQ(cached.marginal_coverage, live.marginal_coverage) << "k=" << k;
    EXPECT_EQ(cached.covered_sketches, live.covered_sketches) << "k=" << k;
    EXPECT_DOUBLE_EQ(cached.estimated_spread, live.estimated_spread)
        << "k=" << k;
  }
}

TEST(QueryEngine, SmallerKIsAPrefixOfLargerK) {
  const SketchStore store = make_sampled_store(
      "com-DBLP", DiffusionModel::kIndependentCascade, 250, 8);
  const QueryEngine engine(store);
  const QueryResult full = engine.top_k(8);
  const QueryResult three = engine.top_k(3);
  ASSERT_LE(three.seeds.size(), full.seeds.size());
  EXPECT_TRUE(std::equal(three.seeds.begin(), three.seeds.end(),
                         full.seeds.begin()));
}

TEST(QueryEngine, BlacklistExcludesSeeds) {
  const SketchStore store = make_sampled_store(
      "com-Amazon", DiffusionModel::kIndependentCascade, 250, 6);
  const QueryEngine engine(store);
  const QueryResult unconstrained = engine.top_k(6);
  ASSERT_GE(unconstrained.seeds.size(), 2u);

  QueryOptions q;
  q.k = 6;
  q.forbidden = {unconstrained.seeds[0], unconstrained.seeds[1]};
  const QueryResult constrained = engine.select(q);
  for (const VertexId banned : q.forbidden) {
    EXPECT_EQ(std::count(constrained.seeds.begin(), constrained.seeds.end(),
                         banned),
              0);
  }
  // Banning the top picks can only lose coverage.
  EXPECT_LE(constrained.covered_sketches, unconstrained.covered_sketches);
}

TEST(QueryEngine, WhitelistRestrictsSeeds) {
  const SketchStore store = make_sampled_store(
      "com-DBLP", DiffusionModel::kIndependentCascade, 250, 5);
  const QueryEngine engine(store);

  QueryOptions q;
  q.k = 5;
  for (VertexId v = 0; v < store.num_vertices() / 3; ++v) {
    q.candidates.push_back(v);
  }
  const QueryResult result = engine.select(q);
  EXPECT_FALSE(result.seeds.empty());
  for (const VertexId s : result.seeds) {
    EXPECT_LT(s, store.num_vertices() / 3);
  }
}

TEST(QueryEngine, BlacklistWinsOverWhitelist) {
  const SketchStore store = make_sampled_store(
      "com-Amazon", DiffusionModel::kIndependentCascade, 200, 4);
  const QueryEngine engine(store);

  QueryOptions allowed_only;
  allowed_only.k = 1;
  allowed_only.candidates = {engine.top_k(1).seeds[0]};
  ASSERT_EQ(engine.select(allowed_only).seeds.size(), 1u);

  QueryOptions contradictory = allowed_only;
  contradictory.forbidden = contradictory.candidates;
  EXPECT_TRUE(engine.select(contradictory).seeds.empty());
}

TEST(QueryEngine, ConstrainedQueryMatchesEfficientSelectWithMask) {
  // Cross-validation: the serving kernel and the seedselect kernel with
  // an eligibility mask must agree seed-for-seed on the same pool.
  const DiffusionGraph g = make_workload_with_weights(
      "com-YouTube", DiffusionModel::kIndependentCascade, 0.01);
  const auto sample = [&] {
    return testing::sample_pool(g, DiffusionModel::kIndependentCascade, 300,
                                5);
  };
  const SegmentedPool pool = sample();
  const std::size_t k = 6;
  const SketchStore store = testing::freeze(sample(), k);
  const QueryEngine engine(store);

  QueryOptions q;
  q.k = k;
  q.forbidden = {engine.top_k(1).seeds[0], 3, 11};
  const QueryResult served = engine.select(q);

  std::vector<std::uint8_t> eligible(pool.num_vertices(), 1);
  for (const VertexId v : q.forbidden) eligible[v] = 0;
  CounterArray counters(pool.num_vertices());
  SelectionOptions sopt;
  sopt.k = k;
  sopt.eligible = &eligible;
  const SelectionResult direct = efficient_select(pool, counters, sopt);

  EXPECT_EQ(served.seeds, direct.seeds);
  EXPECT_EQ(served.marginal_coverage, direct.marginal_coverage);
  EXPECT_EQ(served.covered_sketches, direct.covered_sets);
}

TEST(QueryEngine, EvaluateMatchesBruteForceUnion) {
  const DiffusionGraph g = make_workload_with_weights(
      "com-DBLP", DiffusionModel::kIndependentCascade, 0.01);
  const auto sample = [&] {
    return testing::sample_pool(g, DiffusionModel::kIndependentCascade, 200,
                                31);
  };
  const SegmentedPool pool = sample();
  const SketchStore store = testing::freeze(sample(), 4);
  const QueryEngine engine(store);

  const std::vector<VertexId> seeds = {5, 9, 5, 40};  // duplicate on purpose
  const MarginalGainResult eval = engine.evaluate(seeds);

  std::vector<std::uint8_t> covered(pool.size(), 0);
  std::uint64_t total = 0;
  std::vector<std::uint64_t> expected_gains;
  for (const VertexId v : seeds) {
    std::uint64_t gain = 0;
    for (std::size_t s = 0; s < pool.size(); ++s) {
      if (covered[s] == 0 && pool[s].contains(v)) {
        covered[s] = 1;
        ++gain;
      }
    }
    expected_gains.push_back(gain);
    total += gain;
  }
  EXPECT_EQ(eval.incremental_coverage, expected_gains);
  EXPECT_EQ(eval.covered_sketches, total);
  EXPECT_EQ(eval.incremental_coverage[2], 0u);  // duplicate adds nothing
}

TEST(QueryEngine, EvaluateOfGreedySeedsMatchesQueryCoverage) {
  const SketchStore store = make_sampled_store(
      "com-Amazon", DiffusionModel::kIndependentCascade, 250, 5);
  const QueryEngine engine(store);
  const QueryResult top = engine.top_k(5);
  const MarginalGainResult eval = engine.evaluate(top.seeds);
  EXPECT_EQ(eval.covered_sketches, top.covered_sketches);
  EXPECT_EQ(eval.incremental_coverage,
            std::vector<std::uint64_t>(top.marginal_coverage.begin(),
                                       top.marginal_coverage.end()));
}

TEST(QueryEngine, BatchMatchesSerialAnswers) {
  const SketchStore store = make_sampled_store(
      "com-DBLP", DiffusionModel::kIndependentCascade, 250, 8);
  const QueryEngine engine(store);

  std::vector<QueryOptions> queries;
  for (std::size_t i = 0; i < 40; ++i) {
    QueryOptions q;
    q.k = 1 + (i % 8);
    if (i % 3 == 1) q.forbidden = {static_cast<VertexId>(i)};
    if (i % 5 == 2) {
      for (VertexId v = 0; v < store.num_vertices() / 2; ++v) {
        q.candidates.push_back(v);
      }
    }
    queries.push_back(std::move(q));
  }

  const std::vector<QueryResult> batch1 = engine.run_batch(queries, 1);
  const std::vector<QueryResult> batch4 = engine.run_batch(queries, 4);
  ASSERT_EQ(batch1.size(), queries.size());
  ASSERT_EQ(batch4.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryResult serial = engine.answer(queries[i]);
    EXPECT_EQ(batch1[i].seeds, serial.seeds) << "query " << i;
    EXPECT_EQ(batch4[i].seeds, serial.seeds) << "query " << i;
    EXPECT_EQ(batch4[i].covered_sketches, serial.covered_sketches)
        << "query " << i;
  }
}

TEST(QueryEngine, RejectsInvalidQueries) {
  const SketchStore store = make_sampled_store(
      "com-Amazon", DiffusionModel::kIndependentCascade, 100, 4);
  const QueryEngine engine(store);

  QueryOptions zero_k;
  zero_k.k = 0;
  EXPECT_THROW(engine.select(zero_k), CheckError);
  EXPECT_THROW(engine.top_k(0), CheckError);

  QueryOptions above_cap;
  above_cap.k = store.k_max() + 1;
  EXPECT_THROW(engine.select(above_cap), CheckError);
  EXPECT_THROW(engine.top_k(store.k_max() + 1), CheckError);

  QueryOptions bad_candidate;
  bad_candidate.k = 1;
  bad_candidate.candidates = {store.num_vertices()};
  EXPECT_THROW(engine.select(bad_candidate), CheckError);

  QueryOptions bad_forbidden;
  bad_forbidden.k = 1;
  bad_forbidden.forbidden = {store.num_vertices() + 7};
  EXPECT_THROW(engine.select(bad_forbidden), CheckError);

  EXPECT_THROW(engine.evaluate({store.num_vertices()}), CheckError);
}

TEST(QueryEngine, BatchPropagatesInvalidQueryAsCatchableError) {
  // run_batch pre-validates serially, so a malformed query surfaces as
  // the same catchable CheckError a serial answer() call produces
  // (never an exception escaping the OpenMP region).
  const SketchStore store = make_sampled_store(
      "com-Amazon", DiffusionModel::kIndependentCascade, 100, 4);
  const QueryEngine engine(store);

  QueryOptions good;
  good.k = 2;
  QueryOptions bad;
  bad.k = store.k_max() + 1;
  EXPECT_THROW(engine.run_batch({good, bad, good}, 2), CheckError);

  QueryOptions bad_vertex;
  bad_vertex.k = 1;
  bad_vertex.forbidden = {store.num_vertices()};
  EXPECT_THROW(engine.run_batch({bad_vertex}, 1), CheckError);
}

}  // namespace
}  // namespace eimm
