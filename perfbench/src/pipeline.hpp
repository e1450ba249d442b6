// The benchmark pipeline every workload runs.
//
// Untraced run (end-to-end metrics):
//   set-up      make_workload_with_weights → SketchStore::build → save_file
//   IMM         run_imm, back to back for most of the run, each call
//               followed by one cold start:
//               load_file (mmap) → QueryEngine → first answer
//   checks      seeds, the loaded store against the built one, and the
//               seeds' Monte-Carlo spread against an independent
//               Ripples-engine run on the same graph
// Traced run (per-layer metrics): traced build_rrr_pool + select
// iterations, loads, and the serving loops — an open loop at a fixed rate
// against a bare BatchingExecutor and against an in-process SketchServer
// over AF_UNIX, and a closed loop of nproc clients — with every reply
// checked against QueryEngine (see trace_accounting.hpp for the layers).
//
// Workloads differ only in their input graph and diffusion model, so each
// one stresses a different layer of the same program.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check.hpp"
#include "diffusion/model.hpp"
#include "serve/sketch_store.hpp"
#include "support/rng.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;     ///< benchmark workload name
  std::string dataset;  ///< eimm workload registry name
  eimm::DiffusionModel model = eimm::DiffusionModel::kIndependentCascade;
  double scale = 1.0;
};

const std::vector<WorkloadSpec>& workload_specs();
const WorkloadSpec* find_workload_spec(std::string_view name);

/// Largest --seconds a run takes: the whole run, set-up and checks
/// included, must end within the 170 s run.py allows the driver.
inline constexpr int kMaxSeconds = 120;

struct RunConfig {
  WorkloadSpec spec;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  int threads = 1;
  std::string work_dir;  ///< snapshots, the socket and the trace go here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operations attempted and failed; a failure is a wrong answer, a
/// timeout, an overload, a transport error or a failed check.
class Tally {
 public:
  /// Counts one operation; records `what` when it failed.
  void record(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  // first few messages only
};

struct RunReport {
  Tally tally;
  std::vector<Metric> metrics;
  /// Resolved configuration and input shape, printed before the result.
  std::vector<std::pair<std::string, std::string>> provenance;
};

RunReport run_workload(const RunConfig& config);

/// The seeded serving mix: 60 % unconstrained top-k, 20 % evaluate and
/// 20 % blacklist or whitelist selects, in a fixed cycle whose phase the
/// seed sets (so closed-loop clients do not start in step). A quarter of
/// the selects come from a small hot set shared by every client of one
/// run (cache hits); the rest are fresh and miss the cache.
class QueryMix {
 public:
  /// `hot_seed` fixes the hot set, `seed` this client's stream.
  QueryMix(const eimm::SketchStore& store, std::uint64_t hot_seed,
           std::uint64_t seed);

  Request next();

  static constexpr std::size_t kHotVariants = 8;
  static constexpr std::uint64_t kCycle = 5;

 private:
  Request fresh_select(eimm::Xoshiro256& rng);

  eimm::VertexId num_vertices_;
  std::size_t k_max_;
  std::vector<eimm::VertexId> defaults_;
  std::vector<Request> hot_;
  eimm::Xoshiro256 rng_;
  std::uint64_t position_;  ///< place in the cycle; the seed sets the phase
};

}  // namespace perfbench
