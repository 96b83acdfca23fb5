#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>
#include <sched.h>

#include "sim/builtin_plans.hpp"

namespace farebench {

namespace {

/// The Fig. 5 cells at 3% density, 50% SA1: six GNN workloads x five
/// figure schemes.
void fig5_slice(fare::ExperimentPlan& plan) {
    std::erase_if(plan.cells, [](const fare::CellSpec& cell) {
        return cell.faults.density != 0.03 || cell.faults.sa1_fraction != 0.5;
    });
}

void whole_plan(fare::ExperimentPlan&) {}

/// The transformer sweep at the registry's default budget of 40 epochs
/// instead of the plan's 2 (pinned here, not read from FARE_EPOCHS).
void transformer_40ep(fare::ExperimentPlan& plan) {
    for (fare::CellSpec& cell : plan.cells) cell.epochs = 40;
}

}  // namespace

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> kWorkloads = {
        {"fig5_slice", "fig5", "fig5_slice", false, fig5_slice},
        {"fig5_slice_x4", "fig5", "fig5_slice", true, fig5_slice},
        {"online_tolerance", "online_tolerance", "online_tolerance", false, whole_plan},
        {"transformer_sweep_40ep", "transformer_sweep", "transformer_sweep_40ep", false,
         transformer_40ep},
    };
    return kWorkloads;
}

const Workload& find_workload(const std::string& name) {
    std::string known;
    for (const Workload& w : workloads()) {
        if (name == w.name) return w;
        known += std::string(known.empty() ? "" : ", ") + w.name;
    }
    throw std::invalid_argument("unknown workload '" + name + "' (known: " + known + ")");
}

fare::ExperimentPlan build_plan(const Workload& workload, std::uint64_t seed,
                                std::optional<std::size_t> epochs) {
    fare::ExperimentPlan plan = fare::find_builtin_plan(workload.plan);
    workload.derive(plan);
    if (plan.empty())
        throw std::runtime_error(std::string("workload ") + workload.name +
                                 " selects no cells of plan " + workload.plan);
    std::vector<fare::CellSpec> base;
    base.swap(plan.cells);
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
        // Wraps; 0 for trial 0 at the default seed.
        const std::uint64_t shift = seed - kDefaultSeed + trial * kTrialSeedStride;
        for (fare::CellSpec cell : base) {
            if (epochs) cell.epochs = *epochs;
            if (shift != 0) {
                cell.hardware_seed = cell.hardware_seed.value_or(cell.seed);
                cell.seed += shift;
            }
            plan.cells.push_back(std::move(cell));
        }
    }
    return plan;
}

std::size_t host_nproc() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

std::size_t session_width(const Workload& workload) {
    return workload.pooled ? std::min<std::size_t>(4, host_nproc()) : 1;
}

}  // namespace farebench
