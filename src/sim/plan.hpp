// Declarative experiment description: a CellSpec is one simulation cell of
// the paper's evaluation grid (workload x scheme x fault scenario x chip x
// seed), an ExperimentPlan is an ordered list of cells, and SweepBuilder
// cross-products axis lists into a plan — replacing the hand-rolled nested
// loops the benches used to carry. Execution lives in sim/session.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fare/scenario.hpp"
#include "sim/registry.hpp"

namespace fare {

/// What the cell measures.
enum class CellMode {
    kTrain,   ///< train on the (possibly faulty) chip — Figs. 4-6
    kDeploy,  ///< train on ideal hardware, evaluate on the faulty chip (E4)
};
const char* cell_mode_name(CellMode mode);

/// One cell of the evaluation grid. A CellSpec is a pure value: running the
/// same spec twice (on any thread) produces bit-identical results, which is
/// what makes parallel execution and memoization safe.
struct CellSpec {
    WorkloadSpec workload;
    Scheme scheme = Scheme::kFaultFree;
    FaultScenario faults;
    HardwareOverrides hardware;
    std::uint64_t seed = 1;
    /// Seed for the chip's fault injection when it should differ from the
    /// dataset/training seed — e.g. re-drawing fault maps across wear stages
    /// while training on the same graph. Unset: follows `seed`.
    std::optional<std::uint64_t> hardware_seed;
    CellMode mode = CellMode::kTrain;
    bool record_curve = false;
    /// Override the registry's epoch count (FARE_EPOCHS default) if set.
    std::optional<std::size_t> epochs;
    /// Partitioning algorithm override by registry name (graph/partitioner.hpp);
    /// "" = the workload default ("multilevel"). Appended to key() only when
    /// non-default so legacy memo keys stay byte-stable.
    std::string partitioner;
    /// Cluster-partition count override; 0 = the workload default. When set,
    /// partitions_per_batch is clamped to it. Key-inert while 0.
    int partition_count = 0;

    /// Training configuration implied by the spec (registry defaults plus
    /// the record_curve / epochs overrides).
    TrainConfig train_config() const;

    /// Human-readable cell coordinates, e.g.
    /// "Reddit (GCN) / FARe / d=3% sa1=50% / seed 1".
    std::string label() const;

    /// Canonical memoization key: two specs with equal keys produce
    /// bit-identical results. Fault-free cells normalise the scenario and
    /// chip knobs away (ideal hardware ignores both), so the fault-free
    /// reference is computed once per workload and shared across every
    /// density row that lists Scheme::kFaultFree.
    std::string key() const;
};

/// An ordered list of cells, executed (and reported) in plan order.
struct ExperimentPlan {
    std::string name;  ///< used for sink file names, e.g. BENCH_<name>.json
    std::vector<CellSpec> cells;

    std::size_t size() const { return cells.size(); }
    bool empty() const { return cells.empty(); }
};

/// Cross-product builder over the evaluation axes. Each axis setter replaces
/// that axis's value list (the workload setters append instead); an unset
/// axis keeps the scenario / hardware / spec templates' value, so a builder
/// with only a workload and a scheme yields exactly one cell. Axis values are
/// validated when set, template values that reach the cells at build(). Knobs
/// no axis covers (clustering, post-deployment stream, clip threshold,
/// arrival cadence, spare columns, ...) ride on the `.scenario()` /
/// `.hardware()` templates.
///
/// Enumeration order is deterministic: workload-major, then density, then
/// SA1 fraction, then read-noise sigma, then write-endurance mean, then
/// hot-spot fraction, then detect period, then partitioner, then partition
/// count, then prune fraction, then scheme, then seed — the row/column order
/// the paper's tables use.
class SweepBuilder {
public:
    explicit SweepBuilder(std::string name);

    SweepBuilder& workload(const WorkloadSpec& w);
    SweepBuilder& workloads(const std::vector<WorkloadSpec>& w);
    /// Appends every workload registered by each named family
    /// (nn/model_family.hpp), so `.model_families({"gnn", "transformer"})`
    /// sweeps the union of both families' workloads. Unknown names fail
    /// immediately, listing the registered families.
    SweepBuilder& model_families(const std::vector<std::string>& names);
    SweepBuilder& scheme(Scheme s);
    SweepBuilder& schemes(const std::vector<Scheme>& s);
    SweepBuilder& density(double d);
    SweepBuilder& densities(const std::vector<double>& d);
    SweepBuilder& sa1_fraction(double f);
    SweepBuilder& sa1_fractions(const std::vector<double>& f);
    /// Multiplicative read-noise sigma axis (extension E3).
    SweepBuilder& noise_sigmas(const std::vector<double>& sigmas);
    /// Write-endurance mean axis (live wear; 0 = wear disabled for that
    /// row). Shape / severity / step charge come from the template's wear
    /// block.
    SweepBuilder& endurance_means(const std::vector<double>& writes);
    /// Endurance hot-spot fraction axis.
    SweepBuilder& hot_spot_fractions(const std::vector<double>& fractions);
    /// Online detection cadence axis in training steps (0 = online policy
    /// disabled for that row). Only the online schemes consult it — other
    /// schemes' cell keys normalise the policy away, so shared rows dedupe.
    SweepBuilder& detect_periods(const std::vector<std::size_t>& steps);
    /// Cluster-partitioner axis by registry name ("" = workload default),
    /// checked against registered_partitioners().
    SweepBuilder& partitioners(const std::vector<std::string>& names);
    /// Cluster-partition count axis (0 = workload default).
    SweepBuilder& partition_counts(const std::vector<int>& k);
    /// Significance-pruning axis: fraction of smallest-|w| weights per
    /// matrix forced to zero on the crossbars, which relaxes the fault
    /// matching objective (faults under pruned cells are harmless — see
    /// HardwareOverrides::prune_fraction). 0 = no pruning; key-inert at 0.
    SweepBuilder& prune_fractions(const std::vector<double>& fractions);
    SweepBuilder& seed(std::uint64_t s);
    SweepBuilder& seeds(const std::vector<std::uint64_t>& s);

    /// Scenario template: the fault axes overwrite their fields per cell;
    /// everything else (post-deployment arrival, phase restriction,
    /// clustering, wear shape) is copied through. While the template has
    /// post_sa1_follows_pre set (the default), every cell's wear-stream
    /// ratio mirrors its SA1 fraction, swept or not.
    SweepBuilder& scenario(const FaultScenario& base);
    SweepBuilder& hardware(const HardwareOverrides& hw);
    SweepBuilder& mode(CellMode m);
    SweepBuilder& record_curve(bool on);
    SweepBuilder& epochs(std::size_t e);

    /// Number of cells build() will produce.
    std::size_t size() const;

    ExperimentPlan build() const;

private:
    /// Axis slots in enumeration order (the last one spins fastest).
    enum Axis {
        kWorkload, kDensity, kSa1, kNoise, kEndurance, kHotSpot, kDetectPeriod,
        kPartitioner, kPartitionCount, kPrune, kScheme, kSeed, kAxisCount
    };
    using Setter = std::function<void(CellSpec&)>;

    /// Replaces `slot` with one setter per value; `check(v)` returns "" for
    /// a valid value, else what is wrong with it.
    template <class T, class Check, class Set>
    SweepBuilder& axis(Axis slot, const std::vector<T>& values, Check check,
                       Set set);

    std::string name_;
    std::array<std::vector<Setter>, kAxisCount> axes_;
    /// Template cell every built cell starts from (scenario, hardware,
    /// mode, record_curve and epochs).
    CellSpec base_;
};

}  // namespace fare
