// The benchmark's workloads, each derived from a built-in plan through the
// public plan API (find_builtin_plan + cell filters / CellSpec rewrites), so
// the benchmark follows the real plan definitions instead of forking them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/plan.hpp"

namespace farebench {

/// Workload seed that leaves every cell's seed as the built-in plan sets it.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Training seeds every workload's plan is run at (see build_plan). The host
/// work of a cell depends on its training seed (denormal floats in training,
/// matching effort), so a plan that trains several seeds reports the mean of
/// that dependence instead of one draw.
inline constexpr std::size_t kTrials = 3;

/// Distance between the CellSpec::seed of consecutive trials, wide enough
/// that the trials of nearby workload seeds never coincide.
inline constexpr std::uint64_t kTrialSeedStride = 1000;

struct Workload {
    const char* name;
    const char* plan;    ///< built-in plan the cells come from
    /// Digest file stem under the digest directory. fig5_slice_x4 shares
    /// fig5_slice's: serial and pooled runs must agree byte for byte.
    const char* digest;
    bool pooled;         ///< session width min(4, nproc) instead of 1
    void (*derive)(fare::ExperimentPlan& plan);
};

const std::vector<Workload>& workloads();

/// Throws std::invalid_argument listing the known names.
const Workload& find_workload(const std::string& name);

/// The workload's plan at `seed`: the derived cells once per trial, kTrials
/// times, trial 0 first. Every cell's CellSpec::seed, which seeds the
/// dataset and the training streams, is shifted by
/// seed - kDefaultSeed + trial * kTrialSeedStride, while its fault-injection
/// seed (CellSpec::hardware_seed) stays what the built-in plan gives it. So
/// trial 0 at kDefaultSeed is the built-in plan exactly, and other seeds and
/// trials train other graphs and streams on the same faulty chip. The chip
/// stays fixed because its draw sets how much matching, wear and repair work
/// a run does: on online_tolerance two chips differ by 45% in host time.
/// `epochs` overrides every cell's epoch budget (self-test sizes).
fare::ExperimentPlan build_plan(const Workload& workload, std::uint64_t seed,
                                std::optional<std::size_t> epochs);

/// CPUs this process may run on (what `nproc` prints).
std::size_t host_nproc();

/// Cell-executor width the workload's session uses.
std::size_t session_width(const Workload& workload);

}  // namespace farebench
