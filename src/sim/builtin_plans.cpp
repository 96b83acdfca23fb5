#include "sim/builtin_plans.hpp"

#include <cstdlib>
#include <utility>

#include "common/error.hpp"
#include "sim/registry.hpp"

namespace fare {
namespace {

/// Plans are plain values: `a`'s cells followed by `b`'s, under `a`'s name.
ExperimentPlan concat(ExperimentPlan a, const ExperimentPlan& b) {
    a.cells.insert(a.cells.end(), b.cells.begin(), b.cells.end());
    return a;
}

}  // namespace

const std::vector<NamedPlan>& builtin_plans() {
    static const std::vector<NamedPlan> kPlans = {
        {"smoke",
         "PPI (GCN), 2 densities x {fault-free, fault-unaware, FARe}, "
         "2 epochs — seconds; the CI shard-smoke plan",
         [] {
             return SweepBuilder("smoke")
                 .workload(find_workload("PPI", GnnKind::kGCN))
                 .densities({0.01, 0.05})
                 .sa1_fraction(0.5)
                 .schemes({Scheme::kFaultFree, Scheme::kFaultUnaware,
                           Scheme::kFARe})
                 .epochs(2)
                 .build();
         }},
        {"seed_stats",
         "PPI (GCN) @ 3% faults, {fault-unaware, FARe} x seeds "
         "{1,2,3} — pair with --stats for mean/sigma error bars",
         [] {
             return SweepBuilder("seed_stats")
                 .workload(find_workload("PPI", GnnKind::kGCN))
                 .density(0.03)
                 .sa1_fraction(0.5)
                 .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
                 .seeds({1, 2, 3})
                 .epochs(2)
                 .build();
         }},
        {"read_noise",
         "Reddit (GCN), 3% SAFs, read-noise sigma axis "
         "{0, 2%, 5%, 10%} x {fault-unaware, FARe} — bench_ext_robustness E3",
         [] {
             return SweepBuilder("read_noise")
                 .workload(find_workload("Reddit", GnnKind::kGCN))
                 .scenario(FaultScenario::pre_deployment(0.03, 0.5))
                 .noise_sigmas({0.0, 0.02, 0.05, 0.1})
                 .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
                 .epochs(40)
                 .build();
         }},
        {"wear_arrival",
         "PPI (GCN), 1% SAFs + live wear: endurance mean {40k,80k,160k} x "
         "hot-spot fraction {0,25%} x {fault-unaware, FARe}, arrivals every "
         "2 steps — the bench_wear_arrival sweep",
         [] {
             // Live wear study: training on PPI charges each in-use crossbar
             // writes_per_step = 1000 array writes per optimizer step (10
             // steps per epoch at the registry's batch configuration), so
             // over the pinned 3-epoch budget a crossbar accumulates ~30k
             // writes plus BIST traffic. The endurance axis brackets that
             // horizon (Weibull shape 2): a 40k-mean device loses roughly a
             // third of its in-use cells mid-run, 80k around a tenth, 160k a
             // few percent. Hot spots concentrate the same wear budget into
             // a quarter of the crossbars at 8x severity. Arrivals land
             // every 2 training steps (mid-epoch), not just at epoch ends.
             WearSpec wear;
             wear.weibull_shape = 2.0;
             wear.hot_spot_severity = 8.0;
             wear.writes_per_step = 1000;
             FaultScenario scenario = FaultScenario::pre_deployment(0.01, 0.5);
             scenario.with_wear(wear).with_arrival_period(2);
             return SweepBuilder("wear_arrival")
                 .workload(find_workload("PPI", GnnKind::kGCN))
                 .scenario(scenario)
                 .endurance_means({40e3, 80e3, 160e3})
                 .hot_spot_fractions({0.0, 0.25})
                 .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
                 .epochs(3)
                 .build();
         }},
        {"online_tolerance",
         "PPI (GCN), live wear + soft-error arrivals, detect period {2,8} x "
         "{fault-unaware, FARe, online FARe, online naive} — the "
         "bench_online_tolerance frontier",
         [] {
             // The wear_arrival damage model (endurance 40k mean so wear
             // bites mid-run, hot spots concentrating it 8x into a quarter
             // of the crossbars) plus a soft-error stream — re-formable
             // stuck-ats arriving at every mid-epoch checkpoint. The offline
             // schemes see all of it as permanent damage they can only remap
             // around or clip; the online schemes march a rotating window
             // every detect_period steps, re-form the soft faults, and
             // substitute spare columns under the hard ones — paying
             // march/readback time and re-programming wear for the
             // privilege. The detect-period axis {2, 8} spans eager vs lazy
             // detection; the non-online schemes' cell keys normalise the
             // online policy away, so they run once per scheme, not once
             // per axis value.
             WearSpec wear;
             wear.endurance_mean_writes = 40e3;
             wear.weibull_shape = 2.0;
             wear.hot_spot_fraction = 0.25;
             wear.hot_spot_severity = 8.0;
             wear.writes_per_step = 1000;
             FaultScenario scenario = FaultScenario::pre_deployment(0.01, 0.5);
             scenario.with_wear(wear).with_arrival_period(2).with_soft_errors(
                 0.004);
             HardwareOverrides hw;
             hw.online.detect_period_batches = 2;  // overwritten by the axis
             hw.online.march_window = 8;
             hw.online.spare_columns = 4;
             hw.online.readback_tolerance = 0.05;
             return SweepBuilder("online_tolerance")
                 .workload(find_workload("PPI", GnnKind::kGCN))
                 .scenario(scenario)
                 .hardware(hw)
                 .detect_periods({2, 8})
                 .schemes({Scheme::kFaultUnaware, Scheme::kFARe,
                           Scheme::kOnlineFARe, Scheme::kOnlineNaive})
                 .epochs(3)
                 .build();
         }},
        {"partition_sweep",
         "PPI (GCN) @ 3% faults on a 4-tile chip with partition-aware "
         "mapping, partitioner {multilevel, fennel, weighted-ldg} x "
         "partition count {8, 40} x {fault-unaware, FARe} — partition "
         "quality vs accuracy vs off-tile traffic",
         [] {
             // A multi-tile chip with a pool spanning the tiles: the only
             // topology where the cut can show up as inter-tile traffic and
             // partition-aware mapping has crossbars to steer towards.
             HardwareOverrides hw;
             hw.num_tiles = 4;
             hw.max_adjacency_pool = 256;
             hw.partition_aware_mapping = true;
             return SweepBuilder("partition_sweep")
                 .workload(find_workload("PPI", GnnKind::kGCN))
                 .scenario(FaultScenario::pre_deployment(0.03, 0.5))
                 .hardware(hw)
                 .partitioners({"multilevel", "fennel", "weighted-ldg"})
                 .partition_counts({8, 40})
                 .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
                 .epochs(2)
                 .build();
         }},
        {"transformer_sweep",
         "SeqCls (Transformer), 2 densities x {fault-free, fault-unaware, "
         "FARe} x prune fraction {0, 25%} — the transformer family on the "
         "same crossbar fabric, with significance pruning relaxing the "
         "fault-matching objective",
         [] {
             return SweepBuilder("transformer_sweep")
                 .workload(find_workload("transformer", "SeqCls"))
                 .densities({0.03, 0.08})
                 .sa1_fraction(0.5)
                 .prune_fractions({0.0, 0.25})
                 .schemes({Scheme::kFaultFree, Scheme::kFaultUnaware,
                           Scheme::kFARe})
                 .epochs(2)
                 .build();
         }},
        {"fig5",
         "the full Fig. 5 accuracy grid (180 cells) — the sweep worth "
         "sharding across machines; bench_fig5_accuracy",
         [] {
             return SweepBuilder("fig5")
                 .workloads(fig5_workloads())
                 .densities({0.01, 0.03, 0.05})
                 .sa1_fractions({0.1, 0.5})
                 .schemes(figure_schemes())
                 .epochs(40)
                 .build();
         }},
        {"fig3",
         "Amazon2M (SAGE) @ 5%, fault-unaware, SA0-only vs SA1-only faults on "
         "the weights and on the adjacency separately — bench_fig3_saf_impact",
         [] {
             FaultScenario faults = FaultScenario::pre_deployment(0.05, 0.0);
             SweepBuilder fig3("fig3");
             fig3.workload(find_workload("Amazon2M", GnnKind::kSAGE))
                 .scenario(faults.on_weights_only())
                 .sa1_fractions({0.0, 1.0})
                 .schemes({Scheme::kFaultFree, Scheme::kFaultUnaware})
                 .epochs(40);
             // The two phase restrictions, weight cells first.
             ExperimentPlan weights = fig3.build();
             return concat(std::move(weights),
                           fig3.scenario(faults.on_adjacency_only())
                               .scheme(Scheme::kFaultUnaware)
                               .build());
         }},
        {"fig4",
         "Reddit (GCN), 3 densities @ 9:1 x {fault-free, fault-unaware, FARe} "
         "with per-epoch training curves — bench_fig4_training_curves",
         [] {
             return SweepBuilder("fig4")
                 .workload(find_workload("Reddit", GnnKind::kGCN))
                 .densities({0.01, 0.03, 0.05})
                 .sa1_fraction(0.1)
                 .schemes({Scheme::kFaultFree, Scheme::kFaultUnaware,
                           Scheme::kFARe})
                 .record_curve(true)
                 .epochs(40)
                 .build();
         }},
        {"fig6",
         "the Fig. 6 grid (90 cells): Fig. 5's schemes on 3 workloads, "
         "pre-deployment densities {1,2,3}% plus 1% post-deployment faults "
         "over the run — bench_fig6_postdeploy",
         [] {
             // +1% over the whole run (post_epochs 0 = spread across the
             // full training run). The SA1 ratio of the wear stream follows
             // the per-cell pre-deployment ratio — the builder mirrors it.
             FaultScenario post_deployment;
             post_deployment.with_post_deployment(0.01);
             return SweepBuilder("fig6")
                 .workloads(fig6_workloads())
                 .scenario(post_deployment)
                 .densities({0.01, 0.02, 0.03})
                 .sa1_fractions({0.1, 0.5})
                 .schemes(figure_schemes())
                 .epochs(40)
                 .build();
         }},
        {"redundant_cols",
         "Reddit (GCN), 3 densities @ 1:1 x {fault-free, fault-unaware, "
         "redundant columns, FARe} — bench_ext_robustness E1",
         [] {
             return SweepBuilder("redundant_cols")
                 .workload(find_workload("Reddit", GnnKind::kGCN))
                 .densities({0.01, 0.03, 0.05})
                 .sa1_fraction(0.5)
                 .schemes({Scheme::kFaultFree, Scheme::kFaultUnaware,
                           Scheme::kRedundantCols, Scheme::kFARe})
                 .epochs(40)
                 .build();
         }},
        {"deployment",
         "Reddit (GCN) trained on ideal hardware, deployed onto a 5%, 1:1 "
         "faulty chip under each mitigation scheme — bench_ext_robustness E4",
         [] {
             return SweepBuilder("deployment")
                 .workload(find_workload("Reddit", GnnKind::kGCN))
                 .density(0.05)
                 .sa1_fraction(0.5)
                 .schemes({Scheme::kFaultUnaware, Scheme::kNeuronReorder,
                           Scheme::kClippingOnly, Scheme::kRedundantCols,
                           Scheme::kFARe})
                 .mode(CellMode::kDeploy)
                 .epochs(40)
                 .build();
         }},
        {"sa1_weighting",
         "Reddit (GCN) @ 5%, 1:1, FARe with SA1-weighted vs equal row-"
         "matching weights — bench_ablation_mapper's accuracy ablation",
         [] {
             SweepBuilder ablation("sa1_weighting");
             ablation.workload(find_workload("Reddit", GnnKind::kGCN))
                 .density(0.05)
                 .sa1_fraction(0.5)
                 .scheme(Scheme::kFARe)
                 .epochs(40);
             ExperimentPlan weighted = ablation.build();
             HardwareOverrides unweighted;
             unweighted.match_weights = {1.0, 1.0};
             return concat(std::move(weighted),
                           ablation.hardware(unweighted).build());
         }},
    };
    return kPlans;
}

ExperimentPlan find_builtin_plan(const std::string& name) {
    for (const NamedPlan& plan : builtin_plans())
        if (name == plan.name) return plan.build();
    std::string known;
    for (const NamedPlan& plan : builtin_plans())
        known += std::string(known.empty() ? "" : ", ") + plan.name;
    throw InvalidArgument("unknown plan '" + name + "' (known: " + known + ")");
}

void override_epochs(ExperimentPlan& plan, std::size_t epochs) {
    for (CellSpec& cell : plan.cells) cell.epochs = epochs;
}

ExperimentPlan bench_plan(const std::string& name) {
    ExperimentPlan plan = find_builtin_plan(name);
    if (std::getenv("FARE_EPOCHS"))
        override_epochs(plan, default_experiment_epochs());
    return plan;
}

}  // namespace fare
