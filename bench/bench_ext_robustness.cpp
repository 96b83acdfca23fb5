// Extension experiments beyond the paper's evaluation (DESIGN.md §5):
//
//   E1. Hardware-redundancy baseline [8] (Table I's first row) added to the
//       accuracy comparison: spare columns repair the worst-faulted columns
//       at a provisioned area/energy premium.
//   E2. Energy comparison: normalized training energy per scheme from the
//       first-order energy model (MVM waves, ADC samples, cell writes, host
//       computation, redundancy premium).
//   E3. Conductance-variation robustness: multiplicative Gaussian read noise
//       on top of 3% SAFs — does FARe's margin survive a second
//       non-ideality?
//   E4. Deployment (inference-side) scenario: train on ideal hardware, then
//       run inference on the faulty chip under each scheme's mapping.
//
// E1, E3 and E4 render the built-in "redundant_cols", "read_noise" and
// "deployment" plans (sim/builtin_plans.hpp) on a shared SimSession; the
// JSON sink writes one BENCH_<plan>.json per plan.
#include <iostream>

#include "common/table.hpp"
#include "sim/builtin_plans.hpp"
#include "sim/result_sink.hpp"
#include "sim/session.hpp"

int main() {
    using namespace fare;
    SessionOptions options;
    options.progress = &std::cout;
    SimSession session(options);
    session.add_sink(std::make_unique<JsonLinesSink>());

    std::cout << "=== E1: redundant-column baseline, Reddit (GCN), 1:1 ===\n\n";
    {
        const ResultSet results = session.run(bench_plan("redundant_cols"));
        const WorkloadSpec& workload = results.cells.front().spec.workload;

        Table t({"Density", "fault-unaware", "Redundant Columns (15% spares)",
                 "FARe"});
        for (const CellResult& unaware : results) {
            if (unaware.spec.scheme != Scheme::kFaultUnaware) continue;
            const double density = unaware.spec.faults.density;
            t.add_row(
                {fmt_pct(density, 0), fmt(unaware.accuracy(), 3),
                 fmt(results.accuracy(workload, Scheme::kRedundantCols, density), 3),
                 fmt(results.accuracy(workload, Scheme::kFARe, density), 3)});
        }
        std::cout << "(fault-free reference: "
                  << fmt(results.accuracy(workload, Scheme::kFaultFree), 3)
                  << ")\n"
                  << t.to_ascii() << '\n';
    }

    std::cout << "=== E2: normalized training energy (paper-scale model) ===\n\n";
    {
        TimingModel model;
        Table t({"Workload", "fault-free", "NR", "Weight Clipping", "FARe",
                 "Redundant Columns"});
        for (const WorkloadSpec& w : fig7_workloads()) {
            const WorkloadTiming timing = w.paper_scale_timing();
            t.add_row({w.label(),
                       fmt(model.normalized_energy(Scheme::kFaultFree, timing), 3),
                       fmt(model.normalized_energy(Scheme::kNeuronReorder, timing), 2),
                       fmt(model.normalized_energy(Scheme::kClippingOnly, timing), 3),
                       fmt(model.normalized_energy(Scheme::kFARe, timing), 3),
                       fmt(model.normalized_energy(Scheme::kRedundantCols, timing), 2)});
        }
        std::cout << t.to_ascii()
                  << "\nNR pays extra write energy (full weight rewrite per batch);\n"
                     "redundant columns pay the provisioned spare premium; FARe's\n"
                     "host mapping energy is negligible.\n\n";
    }

    std::cout << "=== E3: read-noise robustness, Reddit (GCN), 3% SAFs, 1:1 ===\n\n";
    {
        // Noise-major, then scheme: each sigma is a (fault-unaware, FARe)
        // cell pair.
        const ResultSet results = session.run(bench_plan("read_noise"));

        Table t({"Noise sigma", "fault-unaware", "FARe", "FARe drop vs clean"});
        double fare_clean = 0.0;
        for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
            const double sigma = results.cells[i].spec.faults.read_noise_sigma;
            const double fu = results.cells[i].accuracy();
            const double fare = results.cells[i + 1].accuracy();
            if (sigma == 0.0) fare_clean = fare;
            t.add_row({fmt_pct(sigma, 0), fmt(fu, 3), fmt(fare, 3),
                       fmt_pct(fare_clean - fare, 1)});
        }
        std::cout << t.to_ascii() << '\n';
    }

    std::cout << "=== E4: deploy host-trained model onto the faulty chip ===\n\n";
    {
        const ResultSet results = session.run(bench_plan("deployment"));

        Table t({"Scheme", "Trained (ideal)", "Deployed (5% faults, 1:1)", "Loss"});
        for (const CellResult& cell : results) {
            const DeploymentResult& r = cell.deployment;
            t.add_row({scheme_name(cell.spec.scheme), fmt(r.trained_accuracy, 3),
                       fmt(r.deployed_accuracy, 3),
                       fmt_pct(r.trained_accuracy - r.deployed_accuracy, 1)});
        }
        std::cout << t.to_ascii()
                  << "\nDeployment is harder than fault-aware training: no\n"
                     "backprop compensation is available, so everything rests on\n"
                     "the mapping + clipping. FARe still retains most accuracy.\n";
    }
    return 0;
}
