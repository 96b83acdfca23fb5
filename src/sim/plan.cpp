#include "sim/plan.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/table.hpp"
#include "graph/partitioner.hpp"
#include "nn/model_family.hpp"

namespace fare {

const char* cell_mode_name(CellMode mode) {
    return mode == CellMode::kTrain ? "train" : "deploy";
}

TrainConfig CellSpec::train_config() const {
    TrainConfig tc = workload.train_config(seed);
    tc.record_curve = record_curve;
    if (epochs) tc.epochs = *epochs;
    if (!partitioner.empty()) tc.partitioner = partitioner;
    if (partition_count > 0) {
        // Preserve the workload's per-batch share of the graph: fewer, larger
        // partitions shrink partitions_per_batch proportionally (else a
        // coarse count hands the hardware batches whose adjacency grids
        // overflow the crossbar pool), and a finer count scales it back up.
        if (tc.num_partitions > 0)
            tc.partitions_per_batch = std::max(
                1, tc.partitions_per_batch * partition_count /
                       tc.num_partitions);
        tc.num_partitions = partition_count;
        tc.partitions_per_batch =
            std::min(tc.partitions_per_batch, partition_count);
    }
    return tc;
}

std::string CellSpec::label() const {
    std::ostringstream os;
    os << workload.label() << " / " << scheme_name(scheme);
    if (scheme != Scheme::kFaultFree) {
        os << " / d=" << fmt_pct(faults.density, 0)
           << " sa1=" << fmt_pct(faults.sa1_fraction, 0);
        if (faults.post_total_density > 0.0)
            os << " post=" << fmt_pct(faults.post_total_density, 0);
        if (faults.wear.enabled()) {
            os << " endur=" << faults.wear.endurance_mean_writes;
            if (faults.wear.hot_spot_fraction > 0.0)
                os << " hot=" << fmt_pct(faults.wear.hot_spot_fraction, 0);
        }
        if (scheme_is_online(scheme) && hardware.online.enabled())
            os << " dp=" << hardware.online.detect_period_batches
               << " sc=" << hardware.online.spare_columns;
    }
    if (!partitioner.empty() || partition_count > 0) {
        os << " / part=" << (partitioner.empty() ? "default" : partitioner);
        if (partition_count > 0) os << 'x' << partition_count;
    }
    if (mode == CellMode::kDeploy) os << " / deploy";
    os << " / seed " << seed;
    return os.str();
}

std::string CellSpec::key() const {
    // Ideal hardware ignores the scenario and chip knobs entirely; collapse
    // them so every density row's fault-free entry shares one cached run.
    const bool ideal = scheme == Scheme::kFaultFree;
    // Only the online schemes consult the online policy: normalise it away
    // for everyone else so a sweep over detect periods / spare columns /
    // readback tolerances shares one cached run per non-online scheme.
    HardwareOverrides hw = hardware;
    if (!scheme_is_online(scheme)) hw.online = OnlinePolicySpec{};
    std::ostringstream os;
    // Epochs are recorded post-resolution (the FARE_EPOCHS default included)
    // so a session outliving an env change never serves a stale budget.
    os << "w=" << workload.dataset << '/' << workload.model_name()
       << "|s=" << scheme_name(scheme) << "|m=" << cell_mode_name(mode)
       << "|seed=" << seed << "|curve=" << record_curve
       << "|epochs=" << train_config().epochs
       << "|" << (ideal ? std::string("ideal")
                        : "hwseed=" + std::to_string(hardware_seed.value_or(seed)) +
                              "|" + faults.key() + "|" + hw.key());
    // The partitioning block is appended only when overridden: every legacy
    // key stays byte-stable.
    if (!partitioner.empty() || partition_count > 0)
        os << "|part=" << partitioner << '/' << partition_count;
    // Same convention for the model-family tag: "gnn" (the only family the
    // legacy keys could describe) stays implicit.
    if (workload.family != "gnn") os << "|model=" << workload.family;
    return os.str();
}

namespace {

// Value checks: each returns "" for a valid value, else what is wrong with
// it. The axis setters and the template check share them, so an axis value
// and a template value fail with the same message.
constexpr auto kAnyValue = [](const auto&) { return ""; };
const char* unless(bool ok, const char* complaint) { return ok ? "" : complaint; }
const char* density_problem(double v) {
    return unless(v >= 0.0 && v <= 1.0, "fault density outside [0,1]");
}
const char* sa1_problem(double v) {
    return unless(v >= 0.0 && v <= 1.0, "SA1 fraction outside [0,1]");
}
const char* noise_problem(double v) {
    return unless(v >= 0.0, "read-noise sigma must be >= 0");
}
const char* endurance_problem(double v) {
    return unless(v >= 0.0, "endurance mean must be >= 0");
}
const char* hot_spot_problem(double v) {
    return unless(v >= 0.0 && v <= 1.0, "hot-spot fraction outside [0,1]");
}
std::string partitioner_problem(const std::string& v) {
    if (v.empty()) return std::string();
    const auto found = try_find_partitioner(v);
    return found.ok() ? std::string() : found.error();
}
const char* partition_count_problem(int v) {
    return unless(v >= 0, "partition count must be >= 0");
}
const char* prune_problem(double v) {
    return unless(v >= 0.0 && v < 1.0, "prune fraction outside [0,1)");
}

/// Checks every range-limited value of `cell`, swept or template-only.
std::string cell_problem(const CellSpec& cell) {
    const FaultScenario& f = cell.faults;
    const HardwareOverrides& hw = cell.hardware;
    for (const char* problem :
         {density_problem(f.density), sa1_problem(f.sa1_fraction),
          unless(f.post_total_density >= 0.0 && f.post_total_density <= 1.0,
                 "post-deployment density outside [0,1]"),
          noise_problem(f.read_noise_sigma),
          endurance_problem(f.wear.endurance_mean_writes),
          hot_spot_problem(f.wear.hot_spot_fraction),
          unless(hw.clip_threshold > 0.0f, "clip threshold must be > 0"),
          unless(hw.spare_column_fraction >= 0.0 && hw.spare_column_fraction <= 1.0,
                 "spare column fraction outside [0,1]"),
          unless(hw.online.readback_tolerance >= 0.0,
                 "readback tolerance must be >= 0"),
          partition_count_problem(cell.partition_count),
          prune_problem(hw.prune_fraction)})
        if (*problem) return problem;
    return partitioner_problem(cell.partitioner);
}

}  // namespace

SweepBuilder::SweepBuilder(std::string name) : name_(std::move(name)) {}

template <class T, class Check, class Set>
SweepBuilder& SweepBuilder::axis(Axis slot, const std::vector<T>& values,
                                 Check check, Set set) {
    // An empty list would silently collapse the axis to the template value.
    FARE_CHECK(!values.empty(), "sweep '" + name_ + "': empty axis");
    std::vector<Setter>& setters = axes_[slot];
    setters.clear();
    for (const T& v : values) {
        // Catch typo'd axis values here, not mid-sweep on a worker.
        const std::string problem = check(v);
        FARE_CHECK(problem.empty(), "sweep '" + name_ + "': " + problem);
        setters.push_back([set, v](CellSpec& cell) { set(cell, v); });
    }
    return *this;
}

SweepBuilder& SweepBuilder::workload(const WorkloadSpec& w) {
    return workloads({w});
}
SweepBuilder& SweepBuilder::workloads(const std::vector<WorkloadSpec>& w) {
    for (const WorkloadSpec& spec : w)
        axes_[kWorkload].push_back([spec](CellSpec& cell) { cell.workload = spec; });
    return *this;
}
SweepBuilder& SweepBuilder::model_families(const std::vector<std::string>& names) {
    for (const std::string& name : names) {
        const auto fam = try_find_model_family(name);
        FARE_CHECK(fam.ok(), "sweep '" + name_ + "': " + fam.error());
        workloads(fam.value()->workloads());
    }
    return *this;
}
SweepBuilder& SweepBuilder::scheme(Scheme s) { return schemes({s}); }
SweepBuilder& SweepBuilder::schemes(const std::vector<Scheme>& s) {
    return axis(kScheme, s, kAnyValue,
                [](CellSpec& cell, Scheme v) { cell.scheme = v; });
}
SweepBuilder& SweepBuilder::density(double d) { return densities({d}); }
SweepBuilder& SweepBuilder::densities(const std::vector<double>& d) {
    return axis(kDensity, d, density_problem,
                [](CellSpec& cell, double v) { cell.faults.density = v; });
}
SweepBuilder& SweepBuilder::sa1_fraction(double f) { return sa1_fractions({f}); }
SweepBuilder& SweepBuilder::sa1_fractions(const std::vector<double>& f) {
    return axis(kSa1, f, sa1_problem,
                [](CellSpec& cell, double v) { cell.faults.sa1_fraction = v; });
}
SweepBuilder& SweepBuilder::noise_sigmas(const std::vector<double>& sigmas) {
    return axis(kNoise, sigmas, noise_problem,
                [](CellSpec& cell, double v) { cell.faults.read_noise_sigma = v; });
}
SweepBuilder& SweepBuilder::endurance_means(const std::vector<double>& writes) {
    return axis(kEndurance, writes, endurance_problem, [](CellSpec& cell, double v) {
        cell.faults.wear.endurance_mean_writes = v;
    });
}
SweepBuilder& SweepBuilder::hot_spot_fractions(const std::vector<double>& fractions) {
    return axis(kHotSpot, fractions, hot_spot_problem,
                [](CellSpec& cell, double v) { cell.faults.wear.hot_spot_fraction = v; });
}
SweepBuilder& SweepBuilder::detect_periods(const std::vector<std::size_t>& steps) {
    return axis(kDetectPeriod, steps, kAnyValue, [](CellSpec& cell, std::size_t v) {
        cell.hardware.online.detect_period_batches = v;
    });
}
SweepBuilder& SweepBuilder::partitioners(const std::vector<std::string>& names) {
    return axis(kPartitioner, names, partitioner_problem,
                [](CellSpec& cell, const std::string& v) { cell.partitioner = v; });
}
SweepBuilder& SweepBuilder::partition_counts(const std::vector<int>& k) {
    return axis(kPartitionCount, k, partition_count_problem,
                [](CellSpec& cell, int v) { cell.partition_count = v; });
}
SweepBuilder& SweepBuilder::prune_fractions(const std::vector<double>& fractions) {
    return axis(kPrune, fractions, prune_problem,
                [](CellSpec& cell, double v) { cell.hardware.prune_fraction = v; });
}
SweepBuilder& SweepBuilder::seed(std::uint64_t s) { return seeds({s}); }
SweepBuilder& SweepBuilder::seeds(const std::vector<std::uint64_t>& s) {
    return axis(kSeed, s, kAnyValue,
                [](CellSpec& cell, std::uint64_t v) { cell.seed = v; });
}
SweepBuilder& SweepBuilder::scenario(const FaultScenario& base) {
    base_.faults = base;
    return *this;
}
SweepBuilder& SweepBuilder::hardware(const HardwareOverrides& hw) {
    base_.hardware = hw;
    return *this;
}
SweepBuilder& SweepBuilder::mode(CellMode m) {
    base_.mode = m;
    return *this;
}
SweepBuilder& SweepBuilder::record_curve(bool on) {
    base_.record_curve = on;
    return *this;
}
SweepBuilder& SweepBuilder::epochs(std::size_t e) {
    base_.epochs = e;
    return *this;
}

std::size_t SweepBuilder::size() const {
    std::size_t cells = 1;
    for (const std::vector<Setter>& setters : axes_)
        cells *= std::max<std::size_t>(1, setters.size());
    return cells;
}

ExperimentPlan SweepBuilder::build() const {
    FARE_CHECK(!axes_[kWorkload].empty(), "sweep '" + name_ + "' has no workloads");

    ExperimentPlan plan;
    plan.name = name_;
    const std::size_t cells = size();
    plan.cells.reserve(cells);
    // Index-odometer over the slots: the rightmost axis spins fastest, which
    // keeps the documented workload-major order.
    std::array<std::size_t, kAxisCount> index{};
    for (std::size_t produced = 0; produced < cells; ++produced) {
        CellSpec& cell = plan.cells.emplace_back(base_);
        for (std::size_t a = 0; a < kAxisCount; ++a)
            if (!axes_[a].empty()) axes_[a][index[a]](cell);
        // The wear stream's ratio follows the cell's SA1 fraction, whether
        // the SA1 axis set it or the scenario template did.
        if (cell.faults.post_sa1_follows_pre)
            cell.faults.post_sa1_fraction = cell.faults.sa1_fraction;
        // The first cell holds every template value that reaches the plan
        // (each swept field carries its first, already checked, axis value),
        // so checking it checks the templates for every cell.
        if (produced == 0) {
            const std::string problem = cell_problem(cell);
            FARE_CHECK(problem.empty(), "sweep '" + name_ + "': " + problem);
        }
        for (std::size_t a = kAxisCount; a-- > 0;) {
            if (++index[a] < axes_[a].size()) break;
            index[a] = 0;
        }
    }
    return plan;
}

}  // namespace fare
