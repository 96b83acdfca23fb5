// Fig. 6 — accuracy with pre-deployment faults PLUS 1% additional
// post-deployment faults accumulating uniformly across epochs (worst case:
// wear adds faults after every epoch).
//
//   (a) SA0:SA1 = 9:1    (b) SA0:SA1 = 1:1
//
// Workloads: PPI (GAT), Reddit (GCN), Amazon2M (SAGE); pre-deployment
// densities 1/2/3%. The grid is the built-in "fig6" plan
// (sim/builtin_plans.hpp), run in parallel by SimSession and laid out by the
// pivot sink. Expected shape: FARe loses at most ~2% (paper: 1.9%) thanks
// to the per-epoch BIST rescan + row re-permutation; NR loses up to ~15%.
#include <iostream>

#include "sim/builtin_plans.hpp"
#include "sim/result_sink.hpp"
#include "sim/session.hpp"

int main() {
    using namespace fare;
    const ExperimentPlan plan = bench_plan("fig6");

    SessionOptions options;
    options.progress = &std::cout;
    SimSession session(options);
    session.add_sink(std::make_unique<JsonLinesSink>());
    auto& pivot = static_cast<PivotSink&>(
        session.add_sink(std::make_unique<PivotSink>()));
    std::cout << "Fig. 6 grid: " << plan.size() << " cells on "
              << session.threads() << " threads\n";
    session.run(plan);

    for (const PivotSink::Panel& panel : pivot.panels()) {
        const char* caption = panel.sa1_fraction < 0.25 ? "(a) 9:1" : "(b) 1:1";
        std::cout << "\n=== Fig. 6" << caption
                  << " SA0:SA1 — pre + 1% post-deployment faults ===\n\n"
                  << panel.table.to_ascii() << '\n';
    }
    return 0;
}
