// Fig. 2 reproduction: "Ripples Runtime Breakdown" on web-Google.
//
// Splits each Ripples-strategy run into Generate_RRRsets vs
// Find_Most_Influential_Set vs other, across the thread sweep and both
// models. The paper's point: the two kernels dominate, and the selection
// share *grows* with the thread count (it stops scaling first). The
// Ripples engine selects again after the probes, so FindMostInfluential
// always includes a final selection here (the efficient engine may reuse
// its last probe instead; see PhaseBreakdown).
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "support/table.hpp"

int main() {
  using namespace eimm;
  using namespace eimm::bench;

  const BenchConfig config = load_config();
  print_banner("Fig. 2: Ripples-strategy runtime breakdown (web-Google)",
               config);

  for (const DiffusionModel model : {DiffusionModel::kIndependentCascade,
                                     DiffusionModel::kLinearThreshold}) {
    const DiffusionGraph graph = load_workload(config, "web-Google", model);
    AsciiTable table({"Threads", "Total (s)", "GenerateRRRsets (s)",
                      "FindMostInfluential (s)", "Other (s)", "Select %"});
    for (const int threads : thread_sweep(config.max_threads)) {
      const ImmOptions opt = imm_options(config, model, threads);
      const ImmResult result = run_baseline_imm(graph, opt);
      const PhaseBreakdown& b = result.breakdown;
      table.new_row()
          .add(threads)
          .add(b.total_seconds, 3)
          .add(b.sampling_seconds, 3)
          .add(b.selection_seconds, 3)
          .add(b.other_seconds(), 3)
          .add(100.0 * b.selection_seconds / b.total_seconds, 0);
    }
    table.set_title(std::string("Fig. 2 — breakdown, ") +
                    std::string(to_string(model)) + " model");
    table.print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "Shape check: Generate_RRRsets + Find_Most_Influential_Set dominate\n"
      "the runtime; the selection share grows with the thread count.\n");
  return 0;
}
