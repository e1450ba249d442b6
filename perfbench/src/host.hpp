// Provenance and isolation: what the benchmark ran on, and refusal to run
// where the measured path is not the default one.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct HostInfo {
  int nproc = 0;
  int numa_nodes = 0;
  bool pmu = false;  ///< a hardware cycles counter opens
  std::string cpu_model;
  std::string build_type;
  bool sanitized = false;
};

HostInfo probe_host();

/// EIMM_* variables that change the measured path; the benchmark
/// refuses to run while any of them is set.
const std::vector<std::string>& path_changing_env();

/// The names from path_changing_env() that are set in the environment.
std::vector<std::string> set_path_changing_env();

/// Why this build must not be measured ("" when it may).
std::string build_refusal(const HostInfo& host);

}  // namespace perfbench
