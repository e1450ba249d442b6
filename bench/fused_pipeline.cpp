// fused_pipeline — end-to-end sampling+selection wall time of the
// zero-copy data path at one shard and at several:
//
//   flat          — shards=1: the whole round sampled as one shard.
//   sharded-view  — shards>1: per-domain staging arenas consumed IN
//                   PLACE through RRRPoolView.
//
// Every row reports the arena byte accounting (staged / mapped), the
// workspace counter-layout allocation count (contract: 1 per run), and a
// seed bit-match flag against the flat reference; the binary exits
// non-zero if any variant's seeds deviate or a run allocates a counter
// layout other than once. Emits a human table plus machine-readable
// BENCH_pipeline.json via io/json_log.
//
// Extra knobs on top of the common EIMM_* set:
//   EIMM_PIPELINE_WORKLOAD  workload to run (default com-DBLP)
//   EIMM_PIPELINE_SHARDS    shard count for the sharded rows (default
//                           max(4, detected NUMA domains))
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/imm.hpp"
#include "io/json_log.hpp"
#include "numa/topology.hpp"
#include "support/env.hpp"
#include "support/table.hpp"

using namespace eimm;
using namespace eimm::bench;

namespace {

PipelineBenchResult row_from_run(const std::string& workload,
                                 const std::string& path, int shards,
                                 const ImmResult& run) {
  PipelineBenchResult row;
  row.workload = workload;
  row.path = path;
  row.shards = shards;
  row.threads = run.threads_used;
  row.total_seconds = run.breakdown.total_seconds;
  row.sampling_seconds = run.breakdown.sampling_seconds;
  row.selection_seconds = run.breakdown.selection_seconds;
  row.num_rrr_sets = run.num_rrr_sets;
  row.staged_bytes = run.staged_bytes;
  row.mapped_bytes = run.mapped_bytes;
  row.workspace_counter_allocs = run.counter_layout_allocations;
  return row;
}

}  // namespace

int main() {
  const BenchConfig config = load_config();
  print_banner("fused_pipeline — zero-copy sampling→selection data path",
               config);

  const std::string workload =
      env_string("EIMM_PIPELINE_WORKLOAD").value_or("com-DBLP");
  const int domains = numa_topology().num_nodes();
  const int shards = static_cast<int>(
      env_int("EIMM_PIPELINE_SHARDS", std::max(4, domains)));

  const DiffusionGraph graph =
      load_workload(config, workload, DiffusionModel::kIndependentCascade);
  ImmOptions options = imm_options(
      config, DiffusionModel::kIndependentCascade, config.max_threads);

  std::vector<PipelineBenchResult> rows;

  // --- flat reference: shards = 1 ---
  options.shards = 1;
  const ImmResult flat = run_efficient_imm(graph, options);
  rows.push_back(row_from_run(workload, "flat", 1, flat));

  // --- sharded-view: one staging arena set per domain ---
  options.shards = shards;
  const ImmResult view = run_efficient_imm(graph, options);
  {
    PipelineBenchResult row = row_from_run(workload, "sharded-view",
                                           shards, view);
    row.seeds_match_flat = view.seeds == flat.seeds;
    rows.push_back(row);
  }

  AsciiTable table({"Path", "Shards", "Total s", "Sample s", "Select s",
                    "Staged MB", "Mapped MB", "Ctr allocs", "Seeds=flat"});
  for (const PipelineBenchResult& row : rows) {
    table.new_row()
        .add(row.path)
        .add(static_cast<std::uint64_t>(row.shards))
        .add(row.total_seconds, 3)
        .add(row.sampling_seconds, 3)
        .add(row.selection_seconds, 3)
        .add(static_cast<double>(row.staged_bytes) / 1e6, 2)
        .add(static_cast<double>(row.mapped_bytes) / 1e6, 2)
        .add(row.workspace_counter_allocs)
        .add(row.seeds_match_flat ? "yes" : "NO");
  }
  table.set_title("Fused pipeline: " + workload + " (" +
                  std::to_string(domains) + " NUMA domain(s), " +
                  std::to_string(flat.num_rrr_sets) + " RRR sets)");
  table.print(std::cout);

  const std::string path = write_pipeline_bench_json_file(
      bench_json_path("BENCH_pipeline.json"), domains, rows);
  std::printf("\nresults: %s\n", path.c_str());

  bool ok = true;
  for (const PipelineBenchResult& row : rows) {
    ok = ok && row.seeds_match_flat;
    // Every row runs the efficient kernel through a workspace: exactly
    // one layout allocation (0 would mean the workspace silently
    // stopped being used — a regression, not a win).
    ok = ok && row.workspace_counter_allocs == 1;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "ERROR: pipeline contract violated (seed mismatch or "
                 "counter layout allocated other than once)\n");
    return 1;
  }
  return 0;
}
