// Registry of named, self-contained experiment plans shared by the fare-run
// shard driver and the benches: every paper figure and extension study a
// bench renders is defined here, once. A built-in plan pins everything that
// affects cell keys (epoch budgets included), so N shard processes — or a
// bench and a fare-run invocation — agree on the plan without sharing an
// environment, and a sharded run merges bit-identical to a single-process
// run.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/plan.hpp"

namespace fare {

struct NamedPlan {
    const char* name;
    const char* description;
    ExperimentPlan (*build)();
};

/// All built-in plans, in listing order.
const std::vector<NamedPlan>& builtin_plans();

/// Build a plan by name. Throws InvalidArgument listing the known names.
ExperimentPlan find_builtin_plan(const std::string& name);

/// Pin every cell of `plan` to `epochs` training epochs (fare-run --epochs).
void override_epochs(ExperimentPlan& plan, std::size_t epochs);

/// find_builtin_plan(name) as the figure benches run it: a set FARE_EPOCHS
/// (validated by default_experiment_epochs()) overrides every cell's pinned
/// budget, so `FARE_EPOCHS=2 ./bench_fig5_accuracy` stays a quick pass.
ExperimentPlan bench_plan(const std::string& name);

}  // namespace fare
