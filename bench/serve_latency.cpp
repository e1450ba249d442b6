// serve_latency — request-latency percentiles vs offered load, through
// the sketch_server admission/batching layer, for mmap- vs stream-loaded
// snapshots.
//
// Builds a store once, saves a v4 snapshot, then for each load mode:
//   1. cold-start: time load_file() (best of EIMM_BENCH_REPS) and record
//      the SnapshotLoadStats byte accounting — the mmap row must show
//      bytes_copied == 0 (the zero-copy acceptance counter) and a
//      cold start independent of the pool size;
//   2. seed equality: the loaded store's default sequence must match the
//      in-memory build exactly (the bench FAILS otherwise — a load path
//      that serves different seeds is a bug, not a data point);
//   3. latency sweep: an open-loop Poisson-less (fixed-interval) arrival
//      schedule at each offered QPS, fanned over a client thread pool,
//      every request submitted through a BatchingExecutor exactly like
//      sketch_server's connections do. Reports p50/p99 of the
//      submit→result latency, achieved QPS, timeouts and cache hits.
//
// Emits BENCH_serve_latency.json via io/json_log.
//
// Extra knobs on top of the common EIMM_* set:
//   EIMM_SERVE_WORKLOAD  store workload (default com-Amazon)
//   EIMM_LAT_QPS         comma-separated offered-QPS sweep
//                        (default "50,200,800")
//   EIMM_LAT_SECONDS     seconds per QPS point (default 2)
//   EIMM_LAT_CLIENTS     client threads (default 16)
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "io/json_log.hpp"
#include "serve/server.hpp"
#include "serve/sketch_store.hpp"
#include "support/env.hpp"
#include "support/timer.hpp"

using namespace eimm;
using namespace eimm::bench;

namespace {

std::vector<double> parse_qps_list(const std::string& spec) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string token = spec.substr(pos, comma - pos);
    if (!token.empty()) out.push_back(std::atof(token.c_str()));
    pos = comma + 1;
  }
  return out;
}

/// Same serving mix as serve_throughput, cycling a bounded set of
/// constrained variants so the hot-query cache sees repeats (as real
/// serving traffic does).
std::vector<QueryOptions> make_query_mix(const SketchStore& store,
                                         std::size_t count) {
  const std::span<const VertexId> defaults = store.default_seeds();
  std::vector<QueryOptions> queries(count);
  for (std::size_t i = 0; i < count; ++i) {
    QueryOptions& q = queries[i];
    q.k = 1 + (i % store.k_max());
    if (i % 4 == 1 && !defaults.empty()) {
      // 8 distinct blacklist variants — enough to exercise the kernel,
      // few enough that the LRU cache converts the tail into hits.
      const std::size_t banned = 1 + (i % std::min<std::size_t>(
                                              8, defaults.size()));
      q.k = 1 + (banned % store.k_max());
      q.forbidden.assign(
          defaults.begin(),
          defaults.begin() + static_cast<std::ptrdiff_t>(banned));
    }
  }
  return queries;
}

struct SweepPoint {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t cache_hits = 0;
};

/// Open-loop fixed-interval arrivals at `offered_qps` for `seconds`,
/// split round-robin over `clients` threads. Each client sleeps until
/// its next scheduled arrival, submits, and blocks on the future (so a
/// slow kernel shows up as LATENCY, while the arrival clock keeps
/// running — the open-loop property that makes overload visible).
SweepPoint run_sweep_point(const QueryEngine& engine,
                           const std::vector<QueryOptions>& mix,
                           double offered_qps, double seconds, int clients) {
  ExecutorOptions exec_options;
  BatchingExecutor executor(engine, exec_options);
  const auto total = static_cast<std::size_t>(offered_qps * seconds);
  const std::chrono::duration<double> interval(1.0 / offered_qps);
  const std::chrono::milliseconds timeout(2000);

  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::atomic<std::uint64_t> timeouts{0};
  const auto start = std::chrono::steady_clock::now();

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      std::vector<double>& mine = latencies[static_cast<std::size_t>(c)];
      for (std::size_t i = static_cast<std::size_t>(c); i < total;
           i += static_cast<std::size_t>(clients)) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        interval * static_cast<double>(i)));
        const auto submitted = std::chrono::steady_clock::now();
        try {
          std::future<QueryResult> f =
              executor.submit(mix[i % mix.size()]);
          if (f.wait_for(timeout) != std::future_status::ready) {
            timeouts.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          (void)f.get();
          const std::chrono::duration<double, std::milli> ms =
              std::chrono::steady_clock::now() - submitted;
          mine.push_back(ms.count());
        } catch (const OverloadError&) {
          timeouts.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  executor.stop();

  std::vector<double> all;
  for (const auto& part : latencies) {
    all.insert(all.end(), part.begin(), part.end());
  }
  SweepPoint point;
  point.offered_qps = offered_qps;
  point.requests = total;
  point.timeouts = timeouts.load();
  point.cache_hits = executor.stats().cache_hits;
  point.achieved_qps = wall.count() > 0
                           ? static_cast<double>(all.size()) / wall.count()
                           : 0.0;
  if (!all.empty()) {
    const auto p50 = all.begin() + static_cast<std::ptrdiff_t>(
                                       (all.size() - 1) / 2);
    std::nth_element(all.begin(), p50, all.end());
    point.p50_ms = *p50;
    const auto p99 = all.begin() + static_cast<std::ptrdiff_t>(
                                       (all.size() - 1) * 99 / 100);
    std::nth_element(all.begin(), p99, all.end());
    point.p99_ms = *p99;
  }
  return point;
}

}  // namespace

int main() {
  const BenchConfig config = load_config();
  print_banner("serve_latency — snapshot load modes + serving latency",
               config);

  const std::string workload =
      env_string("EIMM_SERVE_WORKLOAD").value_or("com-Amazon");
  const std::vector<double> qps_sweep = parse_qps_list(
      env_string("EIMM_LAT_QPS").value_or("50,200,800"));
  const double seconds = env_double("EIMM_LAT_SECONDS", 2.0);
  const int clients = static_cast<int>(env_int("EIMM_LAT_CLIENTS", 16));

  const DiffusionGraph graph =
      load_workload(config, workload, DiffusionModel::kIndependentCascade);
  const ImmOptions options = imm_options(
      config, DiffusionModel::kIndependentCascade, config.max_threads);
  const SketchStore built = SketchStore::build(graph, options, workload);

  const std::string snapshot =
      (std::filesystem::temp_directory_path() /
       ("eimm_latency_" + std::to_string(::getpid()) + ".sks"))
          .string();
  built.save_file(snapshot);
  std::printf("store: %s |V|=%u sketches=%llu — snapshot %s\n\n",
              workload.c_str(), built.num_vertices(),
              static_cast<unsigned long long>(built.num_sketches()),
              snapshot.c_str());

  std::vector<LatencyBenchResult> rows;
  int failures = 0;
  for (const SnapshotLoadMode mode :
       {SnapshotLoadMode::kMap, SnapshotLoadMode::kStream}) {
    const char* mode_name =
        mode == SnapshotLoadMode::kMap ? "mmap" : "stream";
    SnapshotLoadOptions load_options;
    load_options.mode = mode;

    const double cold = best_seconds(config.reps, [&] {
      Timer timer;
      const SketchStore reloaded = SketchStore::load_file(snapshot,
                                                          load_options);
      return reloaded.num_sketches() == built.num_sketches()
                 ? timer.seconds()
                 : timer.seconds() + 1e9;
    });
    const SketchStore store = SketchStore::load_file(snapshot, load_options);
    const SnapshotLoadStats& stats = store.load_stats();
    std::printf("%s: cold start %.4fs, %.1f MiB mapped, %.1f MiB copied\n",
                mode_name, cold,
                static_cast<double>(stats.bytes_mapped) / (1024.0 * 1024.0),
                static_cast<double>(stats.bytes_copied) / (1024.0 * 1024.0));

    // A load path that serves different seeds is a correctness bug; the
    // bench fails loudly rather than reporting its latency.
    if (!std::ranges::equal(store.default_seeds(), built.default_seeds()) ||
        !(store == built)) {
      std::fprintf(stderr,
                   "FAIL: %s-loaded store disagrees with the build\n",
                   mode_name);
      ++failures;
      continue;
    }
    if (mode == SnapshotLoadMode::kMap && stats.bytes_copied != 0) {
      std::fprintf(stderr,
                   "FAIL: mmap load copied %llu bytes (expected 0)\n",
                   static_cast<unsigned long long>(stats.bytes_copied));
      ++failures;
      continue;
    }

    const QueryEngine engine(store);
    const std::vector<QueryOptions> mix = make_query_mix(store, 256);
    std::printf("%8s %12s %10s %10s %9s %9s %10s\n", "offered", "achieved",
                "p50 ms", "p99 ms", "requests", "timeouts", "cache hits");
    for (const double qps : qps_sweep) {
      if (qps <= 0) continue;
      const SweepPoint point =
          run_sweep_point(engine, mix, qps, seconds, clients);
      std::printf("%8.0f %12.1f %10.3f %10.3f %9llu %9llu %10llu\n",
                  point.offered_qps, point.achieved_qps, point.p50_ms,
                  point.p99_ms,
                  static_cast<unsigned long long>(point.requests),
                  static_cast<unsigned long long>(point.timeouts),
                  static_cast<unsigned long long>(point.cache_hits));

      LatencyBenchResult row;
      row.workload = workload;
      row.load_mode = mode_name;
      row.cold_start_seconds = cold;
      row.bytes_mapped = stats.bytes_mapped;
      row.bytes_copied = stats.bytes_copied;
      row.offered_qps = point.offered_qps;
      row.achieved_qps = point.achieved_qps;
      row.p50_ms = point.p50_ms;
      row.p99_ms = point.p99_ms;
      row.requests = point.requests;
      row.timeouts = point.timeouts;
      row.cache_hits = point.cache_hits;
      rows.push_back(row);
    }
    std::printf("\n");
  }

  std::filesystem::remove(snapshot);
  const std::string path = write_latency_bench_json_file(
      bench_json_path("BENCH_serve_latency.json"), rows);
  std::printf("results: %s\n", path.c_str());
  return failures == 0 ? 0 : 1;
}
