#include "pipeline.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "core/imm.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_info.hpp"
#include "seedselect/engine.hpp"
#include "serve/server.hpp"
#include "simulate/spread.hpp"
#include "stats.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"
#include "trace_accounting.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

using eimm::DiffusionGraph;
using eimm::DiffusionModel;
using eimm::QueryEngine;
using eimm::SketchStore;
using eimm::VertexId;
using Clock = std::chrono::steady_clock;

namespace {

// --- Fixed workload parameters (the paper's evaluation settings) ---
constexpr std::size_t kSeedBudget = 50;
constexpr double kEpsilon = 0.5;
/// Tags of the independent RNG streams derived from --seed.
enum Stream : std::uint64_t {
  kImmStream = 0x1BB,        // ImmOptions::rng_seed
  kReferenceStream = 0x7E7,  // the Ripples reference run
  kSpreadStream = 0x5D,      // Monte-Carlo cascades
  kHotSetStream = 0x407,     // the query mix's shared hot selects
  kOpenLoopStream = 0x0BE,   // the open loop's requests
  kClosedLoopStream = 0xC10,
  kVerbStream = 0x7E,        // the per-verb round trips
};
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Open-loop arrival rate, queries per second: slow enough that a dense
/// store's 20-40 ms select ends before the top-k two slots after it (36 ms
/// later) reaches the executor; see QueryMix.
constexpr double kOpenLoopQps = 55.0;
/// Monte-Carlo cascades per spread estimate. LT cascades reach ~1 % of
/// the graph, so their spread estimate is noisy relative to its mean and
/// cheap; IC cascades reach most of it, so fewer give the same precision.
constexpr int kSpreadSamplesIc = 2000;
constexpr int kSpreadSamplesLt = 20000;
/// A spread ratio below this fails the quality check.
constexpr double kMinSpreadRatio = 0.9;
/// Generator lateness (p99, ms) above which the open loop fell behind.
/// Latency is timed from the due time, so a brief stall that delays a
/// few sends is still measured honestly; a lateness this large means the
/// nproc connections could not keep up with the schedule.
constexpr double kMaxGenLagMs = 200.0;
/// Client-side deadline per request; longer than the server's.
constexpr auto kClientDeadline = std::chrono::milliseconds(5000);
/// serve.query_qps is the median of the closed loop's completion rates
/// over windows of this length, so a transient host stall moves it little.
constexpr double kQpsWindowS = 0.5;
/// Share of an untraced run's --seconds spent in back-to-back run_imm.
constexpr double kImmShare = 0.8;
/// Shares of a traced run's --seconds for its serving phases: the open
/// loop over the socket, the same loop's first part against the bare
/// executor, the closed loop, and direct store selects.
constexpr double kOpenShare = 0.65;
constexpr double kTracedExecutorShare = 0.2;
constexpr double kClosedShare = 0.15;
constexpr double kTracedSelectShare = 0.1;
/// Spans the library emits inside every traced iteration. A missing one
/// means its time went unseen into an enclosing layer.
constexpr const char* kLibrarySpans[] = {"martingale.round", "sampling.generate",
                                         "selection.probe", "selection.select"};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

eimm::ImmOptions imm_options(const RunConfig& config) {
  eimm::ImmOptions options;
  options.k = kSeedBudget;
  options.epsilon = kEpsilon;
  options.model = config.spec.model;
  options.threads = config.threads;
  options.rng_seed = eimm::hash_combine64(config.seed, kImmStream);
  return options;
}

DiffusionGraph make_graph(const RunConfig& config) {
  return eimm::make_workload_with_weights(config.spec.dataset,
                                          config.spec.model,
                                          config.spec.scale, config.seed);
}

/// getrusage(RUSAGE_SELF) snapshot plus wall time.
struct Usage {
  double wall = 0.0;
  double cpu = 0.0;
  double minflt = 0.0;
  double nivcsw = 0.0;

  static Usage now() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.wall = std::chrono::duration<double>(Clock::now().time_since_epoch())
                 .count();
    u.cpu = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
    u.minflt = static_cast<double>(ru.ru_minflt);
    u.nivcsw = static_cast<double>(ru.ru_nivcsw);
    return u;
  }
  Usage operator-(const Usage& o) const {
    return {wall - o.wall, cpu - o.cpu, minflt - o.minflt, nivcsw - o.nivcsw};
  }
};

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The final selection exactly as run_imm configures it for the
/// efficient engine (core/imm.cpp: make_selection_engine and
/// select_over_build), over the build's own counters and workspace.
eimm::SelectionResult select_like_run_imm(eimm::PoolBuild& build,
                                          const eimm::ImmOptions& options) {
  eimm::SelectionEngineConfig config;
  config.counter_shards =
      options.numa_aware ? eimm::resolve_counter_shards(options.counter_shards)
                         : 1;
  config.counter_policy = options.numa_aware ? eimm::MemPolicy::kInterleave
                                             : eimm::MemPolicy::kDefault;
  const eimm::SelectionEngine engine(config);
  eimm::SelectionOptions sopt;
  sopt.k = options.k;
  sopt.adaptive_update = options.adaptive_update;
  sopt.dynamic_balance = options.dynamic_balance;
  sopt.batch_size = options.batch_size;
  return engine.select(
      eimm::SelectionKernel::kEfficient, build.view(), sopt,
      build.counters_prebuilt ? &build.base_counters : nullptr,
      &build.workspace);
}

// --- Serving clients ---

struct Reply {
  bool ok = false;
  std::uint64_t digest = 0;
  std::string error;
};

/// One client session: answers a request or reports why it failed.
using Op = std::function<Reply(const Request&)>;
/// Makes one session per worker thread.
using OpFactory = std::function<Op()>;

eimm::MarginalGainResult evaluate_over_wire(eimm::SketchClient& client,
                                            const std::vector<VertexId>& seeds) {
  eimm::wire::WireWriter w;
  w.u8(static_cast<std::uint8_t>(eimm::wire::Verb::kEvaluate));
  w.ids(seeds);
  std::vector<std::uint8_t> response = client.roundtrip(w.bytes());
  eimm::wire::WireReader r(response);
  const auto status = static_cast<eimm::wire::Status>(r.u8());
  if (status != eimm::wire::Status::kOk) {
    throw eimm::CheckError("evaluate answered with status " +
                           std::to_string(static_cast<int>(status)));
  }
  eimm::MarginalGainResult out;
  out.incremental_coverage = r.counts(r.u32());
  out.covered_sketches = r.u64();
  out.total_sketches = r.u64();
  out.estimated_spread = r.f64();
  r.expect_done();
  return out;
}

std::string failure_kind(const std::exception& e) {
  if (dynamic_cast<const eimm::ServerOverloadedError*>(&e)) return "overload";
  if (dynamic_cast<const eimm::ServerTimeoutError*>(&e)) return "timeout";
  if (dynamic_cast<const eimm::TransportError*>(&e)) return "transport";
  if (dynamic_cast<const eimm::DeadlineExceededError*>(&e)) return "timeout";
  return std::string("error: ") + e.what();
}

OpFactory socket_sessions(const std::string& socket_path) {
  return [socket_path]() -> Op {
    eimm::RetryOptions retry;
    retry.deadline = kClientDeadline;
    auto client = std::make_shared<std::unique_ptr<eimm::SketchClient>>();
    return [socket_path, retry, client](const Request& request) -> Reply {
      try {
        if (!*client) {
          *client = std::make_unique<eimm::SketchClient>(socket_path, retry);
        }
        eimm::SketchClient& c = **client;
        switch (request.verb) {
          case Request::Verb::kTopK:
            return {true, digest(c.top_k(request.query.k)), ""};
          case Request::Verb::kSelect:
            return {true, digest(c.select(request.query)), ""};
          case Request::Verb::kEvaluate:
            return {true, digest(evaluate_over_wire(c, request.seeds)), ""};
        }
        return {false, 0, "unknown verb"};
      } catch (const std::exception& e) {
        client->reset();  // reconnect before the next request
        return {false, 0, failure_kind(e)};
      }
    };
  };
}

/// The server's work without the socket: queries through the executor,
/// evaluate inline as the server's connection threads run it.
OpFactory executor_sessions(eimm::BatchingExecutor& executor,
                            const QueryEngine& engine) {
  return [&executor, &engine]() -> Op {
    return [&executor, &engine](const Request& request) -> Reply {
      try {
        if (request.verb == Request::Verb::kEvaluate) {
          return {true, digest(engine.evaluate(request.seeds)), ""};
        }
        eimm::QueryOptions query = request.query;
        if (request.verb == Request::Verb::kTopK) query = {request.query.k, {}, {}};
        std::future<eimm::QueryResult> f = executor.submit(std::move(query));
        if (f.wait_for(kClientDeadline) != std::future_status::ready) {
          return {false, 0, "timeout"};
        }
        return {true, digest(f.get()), ""};
      } catch (const eimm::OverloadError&) {
        return {false, 0, "overload"};
      } catch (const std::exception& e) {
        return {false, 0, failure_kind(e)};
      }
    };
  };
}

struct Sample {
  double latency_ms = 0.0;  ///< completion minus due time
  double lag_ms = 0.0;      ///< send minus due time
  Reply reply;
};

/// Open loop: request i is due at start + i/qps, whether or not earlier
/// requests have completed. `workers` sessions take the next due request
/// as they come free, so a stall shows as lateness of later requests.
std::vector<Sample> run_open_loop(const std::vector<Request>& requests,
                                  double qps, int workers,
                                  const OpFactory& sessions) {
  std::vector<Sample> samples(requests.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> pool;
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      Op op = sessions();
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= requests.size()) return;
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / qps));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        Sample& s = samples[i];
        s.reply = op(requests[i]);
        s.latency_ms = ms_between(due, Clock::now());
        s.lag_ms = ms_between(due, sent);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return samples;
}

struct ClosedLoop {
  std::vector<std::pair<Request, Reply>> exchanges;
  /// Completion time of each answered request, seconds from the start.
  std::vector<double> completions;
};

/// Closed loop: each of `workers` sessions sends its next request as
/// soon as the previous reply arrives, for `seconds`.
ClosedLoop run_closed_loop(const SketchStore& store, std::uint64_t hot_seed,
                           std::uint64_t seed, int workers, double seconds,
                           const OpFactory& sessions) {
  std::vector<std::vector<std::pair<Request, Reply>>> parts(
      static_cast<std::size_t>(workers));
  std::vector<std::vector<double>> done(static_cast<std::size_t>(workers));
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> pool;
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      Op op = sessions();
      QueryMix mix(store, hot_seed,
                   eimm::hash_combine64(seed, static_cast<std::uint64_t>(w)));
      auto& mine = parts[static_cast<std::size_t>(w)];
      while (Clock::now() < end) {
        Request request = mix.next();
        Reply reply = op(request);
        if (reply.ok) {
          done[static_cast<std::size_t>(w)].push_back(seconds_since(start));
        }
        mine.emplace_back(std::move(request), std::move(reply));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  ClosedLoop out;
  for (auto& part : parts) {
    for (auto& exchange : part) out.exchanges.push_back(std::move(exchange));
  }
  for (const auto& times : done) {
    out.completions.insert(out.completions.end(), times.begin(), times.end());
  }
  return out;
}

/// Checks every reply against the in-process engine; failed requests
/// count as failures of their kind.
void check_replies(ReplyChecker& checker,
                   const std::vector<std::pair<const Request*, const Reply*>>&
                       exchanges,
                   int threads, Tally& tally) {
  std::vector<const Request*> answered;
  for (const auto& [request, reply] : exchanges) {
    if (reply->ok) answered.push_back(request);
  }
  checker.prefetch(answered, threads);
  for (const auto& [request, reply] : exchanges) {
    if (!reply->ok) {
      tally.record(false, "request failed: " + reply->error);
    } else {
      tally.record(checker.matches(*request, reply->digest),
                   "reply differs from QueryEngine::answer for " +
                       request->key().substr(0, 80));
    }
  }
}

std::vector<Request> make_requests(const SketchStore& store,
                                   std::uint64_t hot_seed, std::uint64_t seed,
                                   std::size_t count) {
  QueryMix mix(store, hot_seed, seed);
  std::vector<Request> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(mix.next());
  return out;
}

double constrained_share(const std::vector<Request>& requests) {
  std::size_t constrained = 0;
  for (const Request& r : requests) {
    constrained += r.verb == Request::Verb::kSelect ? 1 : 0;
  }
  return requests.empty() ? 0.0
                          : static_cast<double>(constrained) /
                                static_cast<double>(requests.size());
}

LatencySummary latency_of(const std::vector<Sample>& samples,
                          double scale = 1.0) {
  std::vector<double> ok;
  std::size_t failed = 0;
  for (const Sample& s : samples) {
    if (s.reply.ok) {
      ok.push_back(s.latency_ms * scale);
    } else {
      ++failed;
    }
  }
  return summarize(std::move(ok), failed);
}

std::string describe(const LatencySummary& s, const char* unit) {
  std::ostringstream os;
  os << "p50 " << s.p50 << " " << unit << ", p95 " << s.p95 << " " << unit
     << ", p99 " << s.p99 << " " << unit
     << " (n=" << s.samples << ", failed=" << s.failures
     << "; highest percentile with >=10 samples beyond: p" << s.tail_pct
     << " = " << s.tail << " " << unit << ")";
  return os.str();
}

std::string snapshot_path(const RunConfig& config) {
  return config.work_dir + "/" + config.spec.name + "-" +
         std::to_string(::getpid()) + ".sks";
}

struct Setup {
  DiffusionGraph graph;
  std::optional<SketchStore> built;
  std::vector<double> seconds;  // one per repetition
  double store_build_s = 0.0;
  double save_s = 0.0;
};

/// Writes the snapshot's dirty pages to disk, so that background
/// writeback does not run during the measured phases.
void flush_to_disk(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw eimm::CheckError("cannot open " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw eimm::CheckError("fsync failed on " + path);
}

/// Workload generation, store build and snapshot save, `reps` times;
/// the last repetition's graph and store are kept.
Setup run_setup(const RunConfig& config, const eimm::ImmOptions& options,
                const std::string& snapshot, int reps) {
  Setup setup;
  for (int r = 0; r < reps; ++r) {
    setup.built.reset();
    const Clock::time_point t0 = Clock::now();
    setup.graph = make_graph(config);
    const Clock::time_point t1 = Clock::now();
    setup.built.emplace(
        SketchStore::build(setup.graph, options, config.spec.name));
    const Clock::time_point t2 = Clock::now();
    setup.built->save_file(snapshot);
    const Clock::time_point t3 = Clock::now();
    setup.seconds.push_back(ms_between(t0, t3) / 1e3);
    setup.store_build_s = ms_between(t1, t2) / 1e3;
    setup.save_s = ms_between(t2, t3) / 1e3;
  }
  flush_to_disk(snapshot);
  return setup;
}

void add_provenance(RunReport& report, const eimm::ImmResult& result,
                    const DiffusionGraph& graph) {
  auto& p = report.provenance;
  p.emplace_back("vertices", std::to_string(graph.num_vertices()));
  p.emplace_back("edges", std::to_string(graph.num_edges()));
  p.emplace_back("threads_used", std::to_string(result.threads_used));
  p.emplace_back("shards_used", std::to_string(result.shards_used));
  p.emplace_back("counter_shards_used",
                 std::to_string(result.counter_shards_used));
  p.emplace_back("fused_sampling_used",
                 result.fused_sampling_used ? "true" : "false");
  p.emplace_back("pool_compression_used",
                 std::string(eimm::to_string(result.pool_compression_used)));
  p.emplace_back("theta", std::to_string(result.theta));
  p.emplace_back("rrr_sets", std::to_string(result.num_rrr_sets));
  p.emplace_back("bitmap_sets", std::to_string(result.bitmap_sets));
  // An input property, not a metric (0 on LT pools): the share of RRR sets
  // stored as bitmaps, which a claim about adaptive representation cites.
  p.emplace_back("rrr_bitmap_share",
                 std::to_string(result.num_rrr_sets > 0
                                    ? static_cast<double>(result.bitmap_sets) /
                                          static_cast<double>(result.num_rrr_sets)
                                    : 0.0));
}

/// Spread of `seeds` over the spread of an independent Ripples-engine
/// IMM run on the same graph, with common Monte-Carlo random numbers.
double spread_ratio(const DiffusionGraph& graph,
                    const eimm::ImmOptions& options,
                    const std::vector<VertexId>& seeds, std::uint64_t seed,
                    Tally& tally) {
  eimm::ImmOptions reference = options;
  reference.rng_seed = eimm::hash_combine64(options.rng_seed, kReferenceStream);
  const eimm::ImmResult ripples =
      eimm::run_imm(graph, reference, eimm::Engine::kRipples);
  tally.record(!ripples.theta_capped,
               "reference run hit max_rrr_sets (theta capped)");
  eimm::SpreadOptions spread;
  spread.num_samples = options.model == DiffusionModel::kLinearThreshold
                           ? kSpreadSamplesLt
                           : kSpreadSamplesIc;
  spread.rng_seed = eimm::hash_combine64(seed, kSpreadStream);
  const double ours =
      eimm::estimate_spread(graph.forward, options.model, seeds, spread);
  const double theirs = eimm::estimate_spread(graph.forward, options.model,
                                              ripples.seeds, spread);
  const double ratio = theirs > 0 ? ours / theirs : 0.0;
  tally.record(ratio >= kMinSpreadRatio,
               "spread ratio " + std::to_string(ratio) + " below " +
                   std::to_string(kMinSpreadRatio));
  return ratio;
}

eimm::ServerOptions server_options(const RunConfig& config) {
  eimm::ServerOptions options;
  options.socket_path =
      config.work_dir + "/srv-" + std::to_string(::getpid()) + ".sock";
  options.executor.threads = config.threads;
  return options;
}

/// Checks a loaded store: equal to the built one, mmap-backed, no copy.
void check_loaded(const SketchStore& loaded, const SketchStore& built,
                  Tally& tally) {
  tally.record(loaded == built, "loaded store differs from the built one");
  tally.record(loaded.load_stats().mmap_backed, "snapshot load was not mmap");
  tally.record(loaded.load_stats().bytes_copied == 0,
               "mmap load copied " +
                   std::to_string(loaded.load_stats().bytes_copied) +
                   " bytes");
}

using Exchanges = std::vector<std::pair<const Request*, const Reply*>>;

Exchanges open_loop_exchanges(const std::vector<Request>& requests,
                              const std::vector<Sample>& samples) {
  Exchanges out;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out.emplace_back(&requests[i], &samples[i].reply);
  }
  return out;
}

double gen_lag_p99(const std::vector<Sample>& samples) {
  std::vector<double> lags;
  for (const Sample& s : samples) lags.push_back(s.lag_ms);
  return eimm::percentile(std::move(lags), 99.0);
}

// --- The untraced run: end-to-end metrics ---

RunReport run_untraced(const RunConfig& config) {
  RunReport report;
  Tally& tally = report.tally;
  const eimm::ImmOptions options = imm_options(config);
  const std::string snapshot = snapshot_path(config);
  const double seconds = config.seconds;

  Setup setup = run_setup(config, options, snapshot, kSetupReps);
  const DiffusionGraph& graph = setup.graph;

  // Cold start: mmap load → QueryEngine (settles the lazy checksums) →
  // first answered query. The query is the mix's first top-k on every
  // seed: the mix's first request is a 20-40 ms select on a fifth of the
  // seeds, which would make the metric bimodal across seeds.
  QueryMix mix(*setup.built, eimm::hash_combine64(config.seed, kHotSetStream),
               eimm::hash_combine64(config.seed, kOpenLoopStream));
  Request first_query = mix.next();
  while (first_query.verb != Request::Verb::kTopK) first_query = mix.next();
  const std::uint64_t built_answer =
      answer_digest(QueryEngine(*setup.built), first_query);
  std::vector<double> cold;
  std::optional<SketchStore> loaded;
  const auto cold_start = [&] {
    const Clock::time_point t0 = Clock::now();
    loaded.emplace(SketchStore::load_file(
        snapshot, {eimm::SnapshotLoadMode::kMap, false,
                   eimm::ChecksumMode::kLazy}));
    const QueryEngine engine(*loaded);
    const std::uint64_t answer = answer_digest(engine, first_query);
    cold.push_back(seconds_since(t0));
    tally.record(answer == built_answer,
                 "first answer after load differs from the built store's");
  };

  // IMM: run_imm back to back for a share of the run (at least 3 calls),
  // each followed by one cold start, so that both medians cover the whole
  // window rather than one moment of the host's load. The loaded store is
  // dropped before the next call, so the peak RSS stays that of one phase.
  std::vector<double> imm_seconds;
  eimm::ImmResult first;
  const Clock::time_point imm_start = Clock::now();
  while (imm_seconds.size() < 3 ||
         seconds_since(imm_start) < kImmShare * seconds) {
    loaded.reset();
    const Clock::time_point t0 = Clock::now();
    eimm::ImmResult result =
        eimm::run_imm(graph, options, eimm::Engine::kEfficient);
    imm_seconds.push_back(seconds_since(t0));
    tally.record(!result.theta_capped,
                 "run_imm hit max_rrr_sets (theta capped)");
    if (imm_seconds.size() == 1) {
      first = std::move(result);
      tally.record(same_seeds(first.seeds, setup.built->default_seeds()),
                   "run_imm seeds differ from the built store's");
    } else {
      tally.record(same_seeds(result.seeds, first.seeds),
                   "run_imm seeds differ between calls");
    }
    cold_start();
  }
  add_provenance(report, first, graph);
  check_loaded(*loaded, *setup.built, tally);
  const double rss = peak_rss_mb();
  std::filesystem::remove(snapshot);

  const double ratio = spread_ratio(graph, options, first.seeds, config.seed,
                                    tally);
  const LatencySummary imm = summarize(imm_seconds, 0);
  report.provenance.emplace_back("imm_calls", std::to_string(imm.samples));
  report.provenance.emplace_back("imm_latency", describe(imm, "s"));
  const std::array<double, 3> q = quartiles(imm_seconds);
  report.provenance.emplace_back(
      "imm_quartiles_s", std::to_string(q[0]) + " " + std::to_string(q[1]) +
                             " " + std::to_string(q[2]));
  const std::array<double, 3> c = quartiles(cold);
  report.provenance.emplace_back("cold_starts", std::to_string(cold.size()));
  report.provenance.emplace_back(
      "cold_start_quartiles_s", std::to_string(c[0]) + " " +
                                    std::to_string(c[1]) + " " +
                                    std::to_string(c[2]));
  report.metrics = {
      {"imm_s", imm.p50, "s"},
      {"spread_ratio", ratio, "ratio"},
      {"setup_s", eimm::median(setup.seconds), "s"},
      {"peak_rss_mb", rss, "MiB"},
      {"cold_start_s", eimm::median(cold), "s"},
  };
  return report;
}

// --- The traced run: per-layer metrics ---

/// Everything one traced iteration measures besides its spans.
struct Iteration {
  Usage build_pool;
  Usage final_select;
  std::uint64_t rounds = 0;
  std::uint64_t theta = 0;
  std::uint64_t sets = 0;
  std::uint64_t entries = 0;
  std::uint64_t pool_bytes = 0;
  std::uint32_t rebuild_rounds = 0;
  std::vector<VertexId> seeds;
};

Iteration traced_iteration(const RunConfig& config,
                           const eimm::ImmOptions& options) {
  Iteration it;
  DiffusionGraph graph;
  eimm::PoolBuild build;
  eimm::SelectionResult final_selection;
  {
    eimm::obs::TraceSpan root("bench.iteration");
    {
      eimm::obs::TraceSpan span("workloads.make");
      graph = make_graph(config);
    }
    const Usage u0 = Usage::now();
    {
      eimm::obs::TraceSpan span("core.build_pool");
      build = eimm::build_rrr_pool(graph, options, eimm::Engine::kEfficient);
    }
    const Usage u1 = Usage::now();
    {
      eimm::obs::TraceSpan span("seedselect.final");
      // run_imm holds this scope across its final selection too.
      const eimm::ThreadCountScope threads(options.threads);
      final_selection = select_like_run_imm(build, options);
    }
    const Usage u2 = Usage::now();
    it.build_pool = u1 - u0;
    it.final_select = u2 - u1;
  }
  const eimm::RRRPoolView view = build.view();
  it.rounds = build.iterations.size();
  it.theta = build.theta;
  it.sets = view.size();
  it.entries = view.total_vertices();
  it.pool_bytes = view.memory_bytes();
  it.rebuild_rounds = final_selection.rebuild_rounds;
  it.seeds = std::move(final_selection.seeds);
  return it;
}

RunReport run_traced(const RunConfig& config) {
  RunReport report;
  Tally& tally = report.tally;
  const eimm::ImmOptions options = imm_options(config);
  const std::string snapshot = snapshot_path(config);
  const double seconds = config.seconds;
  constexpr int kIterations = 3;

  Setup setup = run_setup(config, options, snapshot, 1);

  // Untraced run_imm calls (the trace-overhead baseline and the reference
  // seeds) alternate with traced iterations, so drift in the host's speed
  // reaches both sides alike. Events stay buffered while tracing is off.
  const std::string trace_file = config.work_dir + "/trace-" +
                                 config.spec.name + "-" +
                                 std::to_string(config.seed) + ".json";
  eimm::obs::reset_trace_events();
  std::vector<double> untraced;
  eimm::ImmResult reference;
  std::vector<Iteration> iterations;
  for (int r = 0; r < kIterations; ++r) {
    const Clock::time_point t0 = Clock::now();
    eimm::ImmResult result =
        eimm::run_imm(setup.graph, options, eimm::Engine::kEfficient);
    untraced.push_back(seconds_since(t0));
    tally.record(!result.theta_capped,
                 "run_imm hit max_rrr_sets (theta capped)");
    if (r == 0) {
      add_provenance(report, result, setup.graph);
      reference = std::move(result);
    }
    eimm::obs::set_trace_path(trace_file);
    iterations.push_back(traced_iteration(config, options));
    eimm::obs::set_trace_path("");
    const Iteration& it = iterations.back();
    tally.record(same_seeds(it.seeds, reference.seeds),
                 "traced build_rrr_pool + select seeds differ from run_imm");
    tally.record(it.rounds == reference.iterations.size() &&
                     it.theta == reference.theta,
                 "traced rounds/theta " + std::to_string(it.rounds) + "/" +
                     std::to_string(it.theta) + " differ from run_imm's " +
                     std::to_string(reference.iterations.size()) + "/" +
                     std::to_string(reference.theta));
  }
  eimm::obs::set_trace_path(trace_file);

  // Serving layers, traced.
  const std::uint64_t hot_seed = eimm::hash_combine64(config.seed, kHotSetStream);
  // The socket loop replays the untraced run's open loop; the executor
  // loop replays its first part.
  const std::vector<Request> requests = make_requests(
      *setup.built, hot_seed, eimm::hash_combine64(config.seed, kOpenLoopStream),
      static_cast<std::size_t>(kOpenLoopQps * kOpenShare * seconds));
  const std::vector<Request> exec_requests(
      requests.begin(),
      requests.begin() + static_cast<std::ptrdiff_t>(
                             kOpenLoopQps * kTracedExecutorShare * seconds));

  Clock::time_point t0 = Clock::now();
  std::shared_ptr<const SketchStore> loaded;
  {
    eimm::obs::TraceSpan span("io.mmap_load");
    loaded = std::make_shared<const SketchStore>(SketchStore::load_file(
        snapshot, {eimm::SnapshotLoadMode::kMap, false,
                   eimm::ChecksumMode::kLazy}));
  }
  const double mmap_load_s = seconds_since(t0);
  t0 = Clock::now();
  std::optional<QueryEngine> engine;
  {
    eimm::obs::TraceSpan span("serve.verify");
    engine.emplace(*loaded);
  }
  const double verify_s = seconds_since(t0);
  t0 = Clock::now();
  {
    eimm::obs::TraceSpan span("io.stream_load");
    const SketchStore streamed = SketchStore::load_file(
        snapshot, {eimm::SnapshotLoadMode::kStream, false,
                   eimm::ChecksumMode::kLazy});
    tally.record(streamed == *setup.built,
                 "stream-loaded store differs from the built one");
  }
  const double stream_load_s = seconds_since(t0);
  check_loaded(*loaded, *setup.built, tally);
  const std::uint64_t store_bytes = setup.built->memory_bytes();
  setup.built.reset();
  std::filesystem::remove(snapshot);

  // Direct store-kernel selects on one thread, for a bounded time.
  std::vector<double> select_us;
  {
    eimm::obs::TraceSpan span("seedselect.store_select");
    const Clock::time_point start = Clock::now();
    for (const Request& r : requests) {
      if (r.verb != Request::Verb::kSelect) continue;
      if (select_us.size() >= 20 &&
          seconds_since(start) > kTracedSelectShare * seconds) {
        break;
      }
      const Clock::time_point s0 = Clock::now();
      const eimm::QueryResult result = engine->select(r.query);
      select_us.push_back(ms_between(s0, Clock::now()) * 1e3);
      (void)result;
    }
  }

  // The executor alone, at the same rate as the socket loop.
  std::vector<Sample> exec_samples;
  eimm::BatchingExecutor::Stats exec_stats;
  {
    eimm::obs::TraceSpan span("serve.executor_loop");
    eimm::ExecutorOptions exec_options;
    exec_options.threads = config.threads;
    eimm::BatchingExecutor executor(*engine, exec_options);
    exec_samples = run_open_loop(exec_requests, kOpenLoopQps, config.threads,
                                 executor_sessions(executor, *engine));
    executor.stop();
    exec_stats = executor.stats();
  }

  // The socket path: the open loop, then one client per verb.
  std::vector<Sample> open;
  ClosedLoop closed;
  std::vector<double> ping_us;
  std::vector<double> topk_us;
  std::vector<double> eval_us;
  std::vector<Request> verb_requests;
  std::vector<Reply> verb_replies;
  eimm::BatchingExecutor::Stats server_exec;
  eimm::QueryCache::Stats server_cache;
  std::uint64_t server_timeouts = 0;
  {
    eimm::SketchServer server(loaded, server_options(config));
    server.start();
    const OpFactory sessions = socket_sessions(server.socket_path());
    {
      eimm::obs::TraceSpan span("serve.open_loop");
      open = run_open_loop(requests, kOpenLoopQps, config.threads, sessions);
    }
    server_exec = server.executor_stats();
    server_cache = server.cache_stats();
    server_timeouts = server.timeouts();
    {
      eimm::obs::TraceSpan span("serve.closed_loop");
      closed = run_closed_loop(*loaded, hot_seed,
                               eimm::hash_combine64(config.seed, kClosedLoopStream),
                               config.threads, kClosedShare * seconds,
                               sessions);
    }
    eimm::obs::TraceSpan span("serve.verbs");
    eimm::RetryOptions retry;
    retry.deadline = kClientDeadline;
    eimm::SketchClient client(server.socket_path(), retry);
    const Op op = sessions();
    QueryMix mix(*loaded, hot_seed, eimm::hash_combine64(config.seed, kVerbStream));
    for (int i = 0; i < 200; ++i) {
      Clock::time_point s0 = Clock::now();
      client.ping();
      ping_us.push_back(ms_between(s0, Clock::now()) * 1e3);
      Request topk;
      topk.query.k = 1 + static_cast<std::size_t>(i) % loaded->k_max();
      s0 = Clock::now();
      verb_replies.push_back(op(topk));
      topk_us.push_back(ms_between(s0, Clock::now()) * 1e3);
      verb_requests.push_back(std::move(topk));
      Request eval = mix.next();
      while (eval.verb != Request::Verb::kEvaluate) eval = mix.next();
      s0 = Clock::now();
      verb_replies.push_back(op(eval));
      eval_us.push_back(ms_between(s0, Clock::now()) * 1e3);
      verb_requests.push_back(std::move(eval));
    }
    server.stop();
  }

  // The trace: per-layer self times of each iteration, written once.
  std::ostringstream trace_json;
  eimm::obs::write_trace_json(trace_json);
  eimm::obs::flush_trace();
  eimm::obs::set_trace_path("");  // nothing more to write at exit
  const std::vector<Span> spans = parse_trace(trace_json.str());
  std::vector<const Span*> roots;
  for (const Span& s : spans) {
    if (s.name == "bench.iteration") roots.push_back(&s);
  }
  tally.record(roots.size() == iterations.size(),
               "trace holds " + std::to_string(roots.size()) +
                   " iterations, expected " +
                   std::to_string(iterations.size()));
  std::vector<std::map<std::string, double>> layers;
  std::vector<double> iteration_s;
  for (const Span* root : roots) {
    layers.push_back(layer_self_seconds(*root, spans));
    iteration_s.push_back(root->dur_us / 1e6);
    for (const char* name : kLibrarySpans) {
      tally.record(encloses_span(*root, spans, name),
                   std::string("no ") + name +
                       " span inside a traced iteration");
    }
  }
  tally.record(std::any_of(spans.begin(), spans.end(),
                           [](const Span& s) { return s.name == "serve.batch"; }),
               "no serve.batch span in the trace");
  // Per-layer rows come from ONE iteration: the median by wall time.
  std::vector<std::size_t> order(roots.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return iteration_s[a] < iteration_s[b];
  });
  const std::size_t pick = order.empty() ? 0 : order[order.size() / 2];
  const Iteration& it = iterations[std::min(pick, iterations.size() - 1)];
  std::map<std::string, double> self =
      layers.empty() ? std::map<std::string, double>{} : layers[pick];
  std::vector<double> traced_imm;
  for (const Iteration& i : iterations) {
    traced_imm.push_back(i.build_pool.wall + i.final_select.wall);
  }

  // Reply checks for the traced serving loops.
  ReplyChecker checker(*engine);
  Exchanges exchanges = open_loop_exchanges(requests, open);
  for (std::size_t i = 0; i < exec_samples.size(); ++i) {
    exchanges.emplace_back(&exec_requests[i], &exec_samples[i].reply);
  }
  for (std::size_t i = 0; i < verb_requests.size(); ++i) {
    exchanges.emplace_back(&verb_requests[i], &verb_replies[i]);
  }
  for (const auto& [request, reply] : closed.exchanges) {
    exchanges.emplace_back(&request, &reply);
  }
  check_replies(checker, exchanges, config.threads, tally);

  const LatencySummary query = latency_of(open);
  const LatencySummary client = latency_of(open, 1e3);
  const LatencySummary executor = latency_of(exec_samples, 1e3);
  const LatencySummary store_select = summarize(select_us, 0);
  const double lag = gen_lag_p99(open);
  tally.record(lag <= kMaxGenLagMs,
               "open-loop generator fell behind: p99 lateness " +
                   std::to_string(lag) + " ms");
  tally.record(server_exec.rejected == 0,
               "the server rejected " + std::to_string(server_exec.rejected) +
                   " queries (overload)");
  tally.record(server_timeouts == 0,
               "the server timed out " + std::to_string(server_timeouts) +
                   " queries");
  const double deadline_ms = std::chrono::duration<double, std::milli>(
                                 server_options(config).request_timeout)
                                 .count();
  report.provenance.emplace_back("query_latency", describe(query, "ms"));
  report.provenance.emplace_back("queries_over_the_server_deadline",
                                 std::to_string(query.misses(deadline_ms)));
  report.provenance.emplace_back("server_rejected",
                                 std::to_string(server_exec.rejected));
  report.provenance.emplace_back("server_timeouts",
                                 std::to_string(server_timeouts));
  report.provenance.emplace_back(
      "client_vs_executor_p50_us",
      std::to_string(client.p50) + " " + std::to_string(executor.p50));
  report.provenance.emplace_back("closed_loop_queries",
                                 std::to_string(closed.exchanges.size()));
  report.provenance.emplace_back("executor_latency_us",
                                 describe(executor, "us"));
  report.provenance.emplace_back("store_select_us",
                                 describe(store_select, "us"));
  // A count that is 0 on LT pools, so not a metric.
  report.provenance.emplace_back("seedselect_rebuild_rounds",
                                 std::to_string(it.rebuild_rounds));
  report.provenance.emplace_back("trace_file", trace_file);

  const double generate_s = self["rrr.generate_s"];
  const double lookups =
      static_cast<double>(server_cache.hits + server_cache.misses);
  report.metrics = {
      {"workloads.make_s", self["workloads.make_s"], "s"},
      {"core.build_pool_s", it.build_pool.wall, "s"},
      {"core.build_pool_cpu_s", it.build_pool.cpu, "s"},
      {"core.build_pool_minflt", it.build_pool.minflt, "count"},
      {"core.build_pool_nivcsw", it.build_pool.nivcsw, "count"},
      {"core.other_s", self["core.other_s"], "s"},
      {"core.rounds", static_cast<double>(it.rounds), "count"},
      {"core.theta", static_cast<double>(it.theta), "count"},
      {"rrr.generate_s", generate_s, "s"},
      {"rrr.sets_per_s",
       generate_s > 0 ? static_cast<double>(it.sets) / generate_s : 0.0,
       "1/s"},
      {"rrr.entries_per_s",
       generate_s > 0 ? static_cast<double>(it.entries) / generate_s : 0.0,
       "1/s"},
      {"rrr.sets", static_cast<double>(it.sets), "count"},
      {"rrr.entries", static_cast<double>(it.entries), "count"},
      {"rrr.pool_bytes", static_cast<double>(it.pool_bytes), "bytes"},
      {"seedselect.probe_s", self["seedselect.probe_s"], "s"},
      {"seedselect.final_s", self["seedselect.final_s"], "s"},
      {"seedselect.final_cpu_s", it.final_select.cpu, "s"},
      {"seedselect.store_select_p50_us", store_select.p50, "us"},
      {"seedselect.store_select_p99_us", store_select.p99, "us"},
      {"serve.topk_us", eimm::median(topk_us), "us"},
      {"serve.evaluate_us", eimm::median(eval_us), "us"},
      {"serve.ping_us", eimm::median(ping_us), "us"},
      {"serve.executor_p50_us", executor.p50, "us"},
      {"serve.executor_p99_us", executor.p99, "us"},
      {"serve.queue_wait_us", exec_stats.queue_wait_us.quantile(0.5), "us"},
      {"serve.batch_size", exec_stats.batch_size.mean(), "count"},
      {"serve.cache_hit_ratio",
       lookups > 0 ? static_cast<double>(server_cache.hits) / lookups : 0.0,
       "ratio"},
      {"serve.constrained_share", constrained_share(requests), "ratio"},
      {"serve.store_build_s", setup.store_build_s, "s"},
      {"serve.store_bytes", static_cast<double>(store_bytes), "bytes"},
      {"serve.gen_lag_ms", lag, "ms"},
      {"serve.query_p50_ms", query.p50, "ms"},
      {"serve.query_p95_ms", query.p95, "ms"},
      {"serve.query_p99_ms", query.p99, "ms"},
      {"serve.query_qps",
       eimm::median(window_rates(closed.completions, kQpsWindowS,
                           kClosedShare * seconds)),
       "1/s"},
      {"serve.verify_s", verify_s, "s"},
      {"io.mmap_load_s", mmap_load_s, "s"},
      {"io.stream_load_s", stream_load_s, "s"},
      {"io.save_s", setup.save_s, "s"},
      {"bench.trace_overhead", eimm::median(traced_imm) / eimm::median(untraced),
       "ratio"},
      {"bench.unaccounted_s", self["bench.unaccounted_s"], "s"},
      {"bench.iteration_s",
       iteration_s.empty() ? 0.0 : iteration_s[pick], "s"},
  };
  return report;
}

}  // namespace

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"imm-ic-dense", "soc-Pokec", DiffusionModel::kIndependentCascade, 0.3},
      {"imm-lt-sparse", "as-Skitter", DiffusionModel::kLinearThreshold, 1.0},
      {"serve-mixed", "com-Amazon", DiffusionModel::kIndependentCascade, 0.3},
  };
  return specs;
}

const WorkloadSpec* find_workload_spec(std::string_view name) {
  for (const WorkloadSpec& spec : workload_specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

void Tally::record(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

QueryMix::QueryMix(const SketchStore& store, std::uint64_t hot_seed,
                   std::uint64_t seed)
    : num_vertices_(store.num_vertices()),
      k_max_(store.k_max()),
      defaults_(store.default_seeds().begin(), store.default_seeds().end()),
      rng_(seed),
      position_(seed % kCycle) {
  eimm::Xoshiro256 hot_rng(hot_seed);
  for (std::size_t i = 0; i < kHotVariants; ++i) {
    hot_.push_back(fresh_select(hot_rng));
  }
}

Request QueryMix::fresh_select(eimm::Xoshiro256& rng) {
  Request r;
  r.verb = Request::Verb::kSelect;
  r.query.k = 1 + rng.next_bounded(k_max_);
  if (rng.next_bool(0.5) && !defaults_.empty()) {
    // Blacklist: a few of the top seeds plus a few random vertices.
    const std::size_t banned = 1 + rng.next_bounded(
                                       std::min<std::size_t>(8, defaults_.size()));
    for (std::size_t i = 0; i < banned; ++i) {
      r.query.forbidden.push_back(defaults_[rng.next_bounded(defaults_.size())]);
    }
    const std::size_t extra = rng.next_bounded(9);
    for (std::size_t i = 0; i < extra; ++i) {
      r.query.forbidden.push_back(
          static_cast<VertexId>(rng.next_bounded(num_vertices_)));
    }
  } else {
    // Whitelist: seeds only from 64 random candidates.
    for (int i = 0; i < 64; ++i) {
      r.query.candidates.push_back(
          static_cast<VertexId>(rng.next_bounded(num_vertices_)));
    }
  }
  return r;
}

Request QueryMix::next() {
  // A fixed cycle of five, random in content: select, evaluate, then three
  // top-k requests. At the open loop's rate a select finishes before the
  // next top-k queues behind it (evaluate runs inline, off the executor),
  // so p50 measures the top-k path and p99 the store kernel, not how often
  // a random order happened to queue one request behind another.
  Request r;
  switch (position_++ % kCycle) {
    case 0:
      r = rng_.next_bool(0.25) ? hot_[rng_.next_bounded(hot_.size())]
                               : fresh_select(rng_);
      break;
    case 1: {
      r.verb = Request::Verb::kEvaluate;
      const std::size_t size = 1 + rng_.next_bounded(k_max_);
      for (std::size_t i = 0; i < size; ++i) {
        r.seeds.push_back(
            static_cast<VertexId>(rng_.next_bounded(num_vertices_)));
      }
      break;
    }
    default:
      r.verb = Request::Verb::kTopK;
      r.query.k = 1 + rng_.next_bounded(k_max_);
  }
  return r;
}

RunReport run_workload(const RunConfig& config) {
  return config.trace ? run_traced(config) : run_untraced(config);
}

}  // namespace perfbench
