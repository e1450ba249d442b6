#include "host.hpp"

#include <linux/perf_event.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "numa/topology.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

bool hardware_counter_opens() {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof attr;
  attr.config = PERF_COUNT_HW_CPU_CYCLES;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = ::syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0) return false;
  ::close(static_cast<int>(fd));
  return true;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

/// CPUs this process may run on, as nproc counts them.
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

bool built_with_sanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

}  // namespace

HostInfo probe_host() {
  HostInfo host;
  host.nproc = usable_cpus();
  host.numa_nodes = eimm::numa_topology().num_nodes();
  host.pmu = hardware_counter_opens();
  host.cpu_model = cpu_model();
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.sanitized = built_with_sanitizer() || PERFBENCH_EIMM_SANITIZE;
  return host;
}

const std::vector<std::string>& path_changing_env() {
  static const std::vector<std::string> names = {
      "EIMM_FUSED",     "EIMM_SHARDS",     "EIMM_COUNTER_SHARDS",
      "EIMM_POOL_COMPRESS", "EIMM_TRACE",  "EIMM_FAILPOINTS",
      "EIMM_PIN",       "EIMM_METRICS"};
  return names;
}

std::vector<std::string> set_path_changing_env() {
  std::vector<std::string> set;
  for (const std::string& name : path_changing_env()) {
    if (std::getenv(name.c_str()) != nullptr) set.push_back(name);
  }
  return set;
}

std::string build_refusal(const HostInfo& host) {
  if (host.sanitized) return "sanitizer build";
  if (host.build_type != "Release") {
    return "build type '" + host.build_type + "' (Release required)";
  }
#ifndef NDEBUG
  return "assertions enabled (NDEBUG unset)";
#else
  return "";
#endif
}

}  // namespace perfbench
