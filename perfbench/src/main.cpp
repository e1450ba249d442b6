// perfbench_driver — runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds N --trace 0|1
//                    --work-dir DIR [--source-id TEXT]
//
// Human-readable lines come first; the last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exit code 0 means the run finished and was measured;
// a failed correctness check still exits 0 but reports correct=false.
// Bad arguments, a path-changing EIMM_* variable or a non-Release build
// exit 2 without a result.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "host.hpp"
#include "pipeline.hpp"
#include "support/json.hpp"

namespace {

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  if (text.empty() || text.size() > 20 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    throw UsageError(flag + " needs a non-negative integer, got '" + text +
                     "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') {
    throw UsageError(flag + " is out of range: '" + text + "'");
  }
  return value;
}

perfbench::RunConfig parse_args(int argc, char** argv, std::string& source_id) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--work-dir" && flag != "--source-id") {
      throw UsageError("unknown argument '" + flag + "'");
    }
    if (i + 1 >= argc) throw UsageError(flag + " needs a value");
    if (!flags.emplace(flag, argv[i + 1]).second) {
      throw UsageError(flag + " given twice");
    }
  }
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace", "--work-dir"}) {
    if (!flags.contains(required)) {
      throw UsageError(std::string("missing ") + required);
    }
  }
  perfbench::RunConfig config;
  const perfbench::WorkloadSpec* spec =
      perfbench::find_workload_spec(flags["--workload"]);
  if (spec == nullptr) {
    std::string known;
    for (const auto& s : perfbench::workload_specs()) known += " " + s.name;
    throw UsageError("unknown workload '" + flags["--workload"] +
                     "' (known:" + known + ")");
  }
  config.spec = *spec;
  config.seed = parse_u64("--seed", flags["--seed"]);
  const std::uint64_t seconds = parse_u64("--seconds", flags["--seconds"]);
  if (seconds < 1 || seconds > perfbench::kMaxSeconds) {
    throw UsageError("--seconds must be in [1, " +
                     std::to_string(perfbench::kMaxSeconds) + "]");
  }
  config.seconds = static_cast<int>(seconds);
  const std::string& trace = flags["--trace"];
  if (trace != "0" && trace != "1") throw UsageError("--trace must be 0 or 1");
  config.trace = trace == "1";
  config.work_dir = flags["--work-dir"];
  if (!std::filesystem::is_directory(config.work_dir)) {
    throw UsageError("--work-dir '" + config.work_dir + "' is not a directory");
  }
  source_id = flags.contains("--source-id") ? flags["--source-id"] : "unknown";
  return config;
}

std::string json_string(const std::string& text) {
  return "\"" + eimm::JsonWriter::escape(text) + "\"";
}

/// The result line. A non-finite value (a failed tail) is written as the
/// largest double: the result must hold a number, and JSON has no infinity.
void write_result(const perfbench::RunReport& report) {
  const perfbench::Tally& tally = report.tally;
  eimm::JsonWriter json(std::cout, /*pretty=*/false);
  json.begin_object()
      .kv("correct", tally.failed() == 0)
      .kv("attempted", tally.attempted())
      .kv("failed", tally.failed())
      .key("metrics")
      .begin_object();
  for (const perfbench::Metric& m : report.metrics) {
    json.key(m.name)
        .begin_object()
        .kv("value", std::isfinite(m.value)
                         ? m.value
                         : std::numeric_limits<double>::max())
        .kv("unit", m.unit)
        .end_object();
  }
  json.end_object().end_object();
  std::cout << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string source_id;
  try {
    config = parse_args(argc, argv, source_id);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
  const std::vector<std::string> env = perfbench::set_path_changing_env();
  if (!env.empty()) {
    std::string names;
    for (const std::string& name : env) names += " " + name;
    std::fprintf(stderr,
                 "perfbench_driver: refusing to run with%s set (it changes "
                 "the measured path)\n",
                 names.c_str());
    return 2;
  }
  const perfbench::HostInfo host = perfbench::probe_host();
  if (const std::string why = perfbench::build_refusal(host); !why.empty()) {
    std::fprintf(stderr, "perfbench_driver: refusing to measure a %s\n",
                 why.c_str());
    return 2;
  }
  config.threads = host.nproc > 0 ? host.nproc : 1;

  std::printf("# workload %s (%s %s, scale %g), seed %llu, %d s, trace %d\n",
              config.spec.name.c_str(), config.spec.dataset.c_str(),
              config.spec.model == eimm::DiffusionModel::kLinearThreshold
                  ? "LT"
                  : "IC",
              config.spec.scale,
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf(
      "# host {\"nproc\": %d, \"numa_nodes\": %d, \"pmu\": %s, "
      "\"cpu_model\": %s, \"build_type\": %s, \"source_id\": %s}\n",
      host.nproc, host.numa_nodes, host.pmu ? "true" : "false",
      json_string(host.cpu_model).c_str(), json_string(host.build_type).c_str(),
      json_string(source_id).c_str());
  std::fflush(stdout);

  perfbench::RunReport report;
  try {
    report = perfbench::run_workload(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: run failed: %s\n", e.what());
    return 1;
  }

  for (const auto& [key, value] : report.provenance) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
  }
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("%-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const perfbench::Tally& tally = report.tally;
  std::printf("error_rate %.6g (%llu failed of %llu attempted)\n",
              static_cast<double>(tally.failed()) /
                  static_cast<double>(std::max<std::uint64_t>(
                      tally.attempted(), 1)),
              static_cast<unsigned long long>(tally.failed()),
              static_cast<unsigned long long>(tally.attempted()));
  for (const std::string& failure : tally.failures()) {
    std::printf("# FAILED: %s\n", failure.c_str());
  }

  std::fflush(stdout);
  write_result(report);
  return 0;
}
