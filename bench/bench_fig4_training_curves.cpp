// Fig. 4 — training-accuracy curves without/with FARe under varying
// pre-deployment fault densities (Reddit, GCN, SA0:SA1 = 9:1): the built-in
// "fig4" plan (sim/builtin_plans.hpp).
//
// Paper shape: fault-unaware curves destabilise and diverge from the
// fault-free curve as density grows; FARe's curves overlap the fault-free
// one at every density.
#include <iostream>

#include "common/table.hpp"
#include "sim/builtin_plans.hpp"
#include "sim/result_sink.hpp"
#include "sim/session.hpp"

int main() {
    using namespace fare;
    std::cout << "=== Fig. 4: training accuracy vs epoch, Reddit (GCN), 9:1 ===\n\n";

    const ExperimentPlan plan = bench_plan("fig4");
    SessionOptions options;
    options.progress = &std::cout;
    SimSession session(options);
    // Streaming sink: cells reach the BENCH_*.json.tmp staging file as they
    // finish; the final file is published atomically at plan end.
    session.add_sink(std::make_unique<JsonLinesSink>()).streaming();
    const ResultSet results = session.run(plan);

    struct Curve {
        std::string label;
        const std::vector<EpochStats>* stats;
    };
    std::vector<Curve> curves{
        {"fault-free",
         &results.at(plan.cells.front().workload, Scheme::kFaultFree)
              .run.train.curve}};
    for (const Scheme scheme : {Scheme::kFaultUnaware, Scheme::kFARe})
        for (const CellResult& cell : results)
            if (cell.spec.scheme == scheme)
                curves.push_back({std::string(scheme_name(scheme)) + " " +
                                      fmt_pct(cell.spec.faults.density, 0),
                                  &cell.run.train.curve});

    std::vector<std::string> header{"Epoch"};
    for (const auto& c : curves) header.push_back(c.label);
    Table t(header);
    const std::size_t epochs = curves.front().stats->size();
    for (std::size_t e = 0; e < epochs; e += 2) {  // every 2nd epoch
        std::vector<std::string> row{std::to_string(e + 1)};
        for (const auto& c : curves)
            row.push_back(fmt((*c.stats)[e].train_accuracy, 3));
        t.add_row(row);
    }
    std::cout << t.to_ascii()
              << "\nExpected shape: (a) fault-unaware columns fall further below\n"
                 "fault-free as density rises (unstable training); (b) FARe\n"
                 "columns track the fault-free column at every density.\n";
    return 0;
}
