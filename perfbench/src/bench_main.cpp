// fare_perfbench: end-to-end sweep benchmark over built-in plans.
//
//   fare_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--epochs E] [--write-digest]
//
// --trace 0 runs the workload's plan untraced, each time on a fresh
// SimSession, for about S seconds and reports the end-to-end metrics (medians
// over the repeats). --trace 1 runs pairs of one untraced run and one traced
// run, which drives every unique cell through the traced path (trace.hpp),
// for about S seconds and reports per-layer host time and counts. Either way
// every cell's canonical record is checked: repeats, the pooled runs of the
// pooled workload and the traced runs must match the first untraced run (for
// the pooled workload, a serial run) byte for byte, and at the default seed
// and plan epochs the first run must match the committed digest in
// kDigestDir. Paths are relative to the
// repository root, the working directory perfbench/run.py runs this from.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/run.py builds this binary and is the entry point.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "records.hpp"
#include "sim/session.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace farebench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Start another run only if it should end by the deadline. The first run
/// always happens, so a plan longer than `seconds` runs once.
bool another_run(Clock::time_point t0, double last_run_s, double seconds) {
    return seconds_since(t0) + last_run_s <= seconds;
}

const std::string kDigestDir = "perfbench/digests";
const std::string kSpansDir = ".bench_build/spans";

/// Set-up takes tens of microseconds, so one set-up sample is the mean over
/// a batch, taken every kSetupPeriod while the plan runs (SetupSampler).
constexpr int kSetupBatch = 10;
constexpr std::chrono::milliseconds kSetupPeriod{100};

struct Options {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::optional<std::size_t> epochs;
    bool write_digest = false;
};

int usage(const char* why) {
    std::cerr << "fare_perfbench: " << why << "\n"
              << "usage: fare_perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--epochs E] [--write-digest]\nworkloads:";
    for (const Workload& w : workloads()) std::cerr << ' ' << w.name;
    std::cerr << '\n';
    return 2;
}

std::optional<Options> parse(int argc, char** argv, std::string& error) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--write-digest") {
            o.write_digest = true;
            continue;
        }
        if (i + 1 >= argc) {
            error = "missing value for " + arg;
            return std::nullopt;
        }
        const std::string value = argv[++i];
        if (arg != "--workload" && value.starts_with('-')) {
            error = "bad value for " + arg + ": " + value;
            return std::nullopt;
        }
        try {
            if (arg == "--workload") o.workload = value;
            else if (arg == "--seed") o.seed = std::stoull(value);
            else if (arg == "--seconds") o.seconds = std::stod(value);
            else if (arg == "--trace") o.trace = std::stoi(value) != 0;
            else if (arg == "--epochs") o.epochs = std::stoull(value);
            else {
                error = "unknown option " + arg;
                return std::nullopt;
            }
        } catch (const std::exception&) {
            error = "bad value for " + arg + ": " + value;
            return std::nullopt;
        }
    }
    if (o.workload.empty()) {
        error = "--workload is required";
        return std::nullopt;
    }
    if (o.epochs && *o.epochs == 0) {
        error = "--epochs must be positive";
        return std::nullopt;
    }
    return o;
}

double median(std::vector<double> v) {
    if (v.empty()) return std::nan("");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + '"';
}

std::string json_number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/// Correctness bookkeeping: cells attempted / failed and why.
struct Gate {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;

    void problem(const std::string& what) {
        problems.push_back(what);
        std::cerr << "fare_perfbench: FAILED: " << what << '\n';
    }

    /// Count one checked execution of the plan, failing cell i unless ok(i).
    template <typename Ok>
    void check(const std::vector<std::string>& records, const std::string& what, Ok ok) {
        attempted += records.size();
        std::size_t bad = 0;
        std::size_t first = 0;
        for (std::size_t i = 0; i < records.size(); ++i)
            if (!ok(i) && bad++ == 0) first = i;
        if (bad > 0) {
            failed += bad;
            problem(what + ": " + std::to_string(bad) + " cell(s) differ, first at index " +
                    std::to_string(first) + ": " + records[first]);
        }
    }

    /// Records of one execution against the reference, byte for byte.
    void compare(const std::vector<std::string>& got, const std::vector<std::string>& want,
                 const std::string& what) {
        if (got.size() != want.size())
            problem(what + ": " + std::to_string(got.size()) + " records, expected " +
                    std::to_string(want.size()));
        check(got, what, [&](std::size_t i) { return i < want.size() && got[i] == want[i]; });
    }
};

/// A plan and the session that will run it. Building both is the set-up a
/// sweep pays before its first cell is dispatched.
struct Prepared {
    fare::ExperimentPlan plan;
    std::unique_ptr<fare::SimSession> session;
    double setup_s = 0.0;
};

Prepared prepare(const Workload& w, const Options& o, std::size_t width) {
    const Clock::time_point t0 = Clock::now();
    Prepared p;
    p.plan = build_plan(w, o.seed, o.epochs);
    fare::SessionOptions options;
    options.threads = width;
    p.session = std::make_unique<fare::SimSession>(options);
    p.setup_s = seconds_since(t0);
    return p;
}

/// Samples set-up cost on a side thread while the measured runs go. On a
/// shared host the speed of one core changes from second to second, so a
/// burst of set-ups taken at one moment reads that moment's speed; samples
/// spread over the run average it the way wall_s does.
class SetupSampler {
public:
    SetupSampler(const Workload& w, const Options& o, std::size_t width)
        : thread_([this, &w, &o, width] { loop(w, o, width); }) {}
    ~SetupSampler() { join(); }
    SetupSampler(const SetupSampler&) = delete;
    SetupSampler& operator=(const SetupSampler&) = delete;

    /// Stop sampling; returns the samples (at least one). Rethrows a failure
    /// of the sampling thread.
    std::vector<double> stop() {
        join();
        if (error_) std::rethrow_exception(error_);
        return samples_;
    }

private:
    void join() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable()) thread_.join();
    }

    void loop(const Workload& w, const Options& o, std::size_t width) {
        try {
            std::unique_lock<std::mutex> lock(mutex_);
            do {
                lock.unlock();
                double sum = 0.0;
                for (int i = 0; i < kSetupBatch; ++i) sum += prepare(w, o, width).setup_s;
                lock.lock();
                samples_.push_back(sum / kSetupBatch);
            } while (!cv_.wait_for(lock, kSetupPeriod, [this] { return stop_; }));
        } catch (...) {
            error_ = std::current_exception();
        }
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;               // guarded by mutex_
    std::vector<double> samples_;     // guarded by mutex_
    std::exception_ptr error_;        // read after join
    std::thread thread_;              // last: starts once the members exist
};

/// Outcome of one plan execution, untraced or traced.
struct PlanRun {
    fare::ResultSet results;
    std::vector<std::string> records;
    double wall_s = 0.0;
    double cell_wall_s = 0.0;  ///< sum over executed cells
    std::size_t executed = 0;
    std::size_t memo_hits = 0;
};

PlanRun run_untraced(Prepared& p) {
    PlanRun r;
    const Clock::time_point t0 = Clock::now();
    r.results = p.session->run(p.plan);
    r.wall_s = seconds_since(t0);
    for (const fare::CellResult& cell : r.results) {
        if (cell.from_cache) continue;
        ++r.executed;
        r.cell_wall_s += cell.wall_seconds;
    }
    r.memo_hits = p.session->cache_hits();
    r.records = canonical_records(p.plan.name, r.results);
    return r;
}

/// Run every unique cell (by CellSpec::key(), first occurrence) through the
/// traced path on this thread, then fan results out to the plan's cells as
/// SimSession does.
PlanRun run_traced(const fare::ExperimentPlan& plan, Tracer& tracer) {
    PlanRun r;
    std::unordered_map<std::string, std::size_t> job_of_key;
    std::vector<fare::CellResult> jobs;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const fare::CellSpec& spec = plan.cells[i];
        const auto [it, fresh] = job_of_key.emplace(spec.key(), jobs.size());
        fare::CellResult cell;
        if (fresh) {
            tracer.set_cell(static_cast<std::uint32_t>(jobs.size()));
            jobs.push_back(run_cell_traced(spec, tracer));
            cell = jobs.back();
            ++r.executed;
            r.cell_wall_s += cell.wall_seconds;
        } else {
            cell = jobs[it->second];
            cell.from_cache = true;
            cell.wall_seconds = 0.0;
            ++r.memo_hits;
        }
        cell.spec = spec;
        cell.plan_index = i;
        r.results.cells.push_back(std::move(cell));
    }
    r.wall_s = seconds_since(t0);
    r.records = canonical_records(plan.name, r.results);
    return r;
}

/// The first untraced run is the reference every other run is compared to;
/// at the default seed and plan epochs it must also match the digest.
void check_reference(const Workload& w, const Options& o, const PlanRun& ref,
                     Gate& gate) {
    const auto any = [](std::size_t) { return true; };
    if (o.seed != kDefaultSeed || o.epochs) return gate.check(ref.records, "", any);
    const std::string path = kDigestDir + "/" + w.digest + ".txt";
    if (o.write_digest) {
        write_digests(path,
                      std::string("canonical-record FNV-1a digests of workload ") +
                          w.digest + " at seed " + std::to_string(kDefaultSeed) +
                          "; regenerate only for an intended output change",
                      ref.records);
        std::cerr << "fare_perfbench: wrote " << path << '\n';
    }
    std::vector<std::uint64_t> digests;
    try {
        digests = read_digests(path);
    } catch (const std::exception& e) {
        gate.problem(e.what());
    }
    if (digests.size() != ref.records.size())
        gate.problem(path + " holds " + std::to_string(digests.size()) + " digests for " +
                     std::to_string(ref.records.size()) + " cells");
    gate.check(ref.records, "digest " + path, [&](std::size_t i) {
        return i < digests.size() && digests[i] == fnv1a64(ref.records[i]);
    });
}

/// Simulated FARe-over-fault-unaware accuracy gain of each trial.
std::vector<double> acc_gain_per_trial(const PlanRun& run) {
    const std::size_t cells = run.results.size() / kTrials;
    std::vector<double> gains;
    for (std::size_t t = 0; t < kTrials; ++t)
        gains.push_back(fare_acc_gain_pts(run.results, t * cells, cells));
    return gains;
}

/// Untraced end-to-end run (--trace 0).
std::vector<Metric> measure_end_to_end(const Workload& w, const Options& o,
                                       std::size_t width, Gate& gate) {
    // The worker pool lives as long as the process: start it before timing.
    if (width > 1) fare::parallel_for_each(width, width, [](std::size_t) {});
    std::vector<double> walls, rates;
    std::optional<PlanRun> ref;
    SetupSampler sampler(w, o, width);
    const Clock::time_point t0 = Clock::now();
    if (width > 1) {
        // The pooled workload's serial reference comes first and counts
        // against the run's seconds; it also warms the process up.
        fare::ParallelWidthScope pin(1);
        Prepared p = prepare(w, o, 1);
        ref = run_untraced(p);
        check_reference(w, o, *ref, gate);
    }
    do {
        Prepared p = prepare(w, o, width);
        PlanRun run = run_untraced(p);
        walls.push_back(run.wall_s);
        rates.push_back(static_cast<double>(run.executed) / run.wall_s);
        if (!ref) {
            check_reference(w, o, run, gate);
            ref = std::move(run);
        } else {
            gate.compare(run.records, ref->records, width > 1 ? "pooled run" : "repeat run");
        }
    } while (another_run(t0, walls.back(), o.seconds));
    const std::vector<double> setup = sampler.stop();

    // Simulated and deterministic per seed, but it moves by tens of percent
    // between seeds, so it is printed here and gated only through the
    // canonical records; the traced run reports trial 0's as
    // fare.acc_gain_pts.
    std::cout << "runs " << walls.size() << ", wall_s each:";
    for (const double wall : walls) std::cout << ' ' << wall;
    std::cout << "\nset-up samples " << setup.size() << "\nfare_acc_gain_pts per trial:";
    for (const double gain : acc_gain_per_trial(*ref)) std::cout << ' ' << json_number(gain);
    std::cout << " pts (simulated)\n";
    return {
        {"setup_s", median(setup), "s"},
        {"wall_s", median(walls), "s"},
        {"cells_per_s", median(rates), "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
}

/// Pairs of one untraced and one traced run (--trace 1). Pairing keeps the
/// tracing-overhead ratio from mixing two moments of a shared host's speed.
std::vector<Metric> measure_layers(const Workload& w, const Options& o, std::size_t width,
                                   Gate& gate) {
    Tracer tracer;
    std::vector<SpanSummary> summaries;
    std::vector<double> overhead_pct, sim_overhead;
    std::optional<PlanRun> base, traced;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point pair_start;
    do {
        pair_start = Clock::now();
        Prepared p = prepare(w, o, width);
        PlanRun untraced = run_untraced(p);
        if (!base)
            check_reference(w, o, untraced, gate);
        else
            gate.compare(untraced.records, base->records, "repeat run");
        const std::vector<std::string>& want = base ? base->records : untraced.records;
        sim_overhead.push_back(untraced.wall_s -
                               untraced.cell_wall_s / static_cast<double>(width));

        fare::ParallelWidthScope pin(1);
        double serial_wall_s = untraced.wall_s;
        if (width > 1) {
            Prepared serial_setup = prepare(w, o, 1);
            const PlanRun serial = run_untraced(serial_setup);
            gate.compare(serial.records, want, "serial reference");
            serial_wall_s = serial.wall_s;
        }
        tracer.clear();
        traced = run_traced(p.plan, tracer);
        gate.compare(traced->records, want, "traced run");
        summaries.push_back(summarize(tracer.spans()));
        if (!summaries.back().error.empty())
            gate.problem("span check: " + summaries.back().error);
        if (traced->executed != untraced.executed || traced->memo_hits != untraced.memo_hits)
            gate.problem("traced run executed " + std::to_string(traced->executed) +
                         " cells with " + std::to_string(traced->memo_hits) +
                         " memo hits; untraced " + std::to_string(untraced.executed) + " / " +
                         std::to_string(untraced.memo_hits));
        overhead_pct.push_back(
            100.0 * (1e-9 * static_cast<double>(summaries.back().root_ns) / serial_wall_s - 1.0));
        if (!base) base = std::move(untraced);
    } while (another_run(t0, seconds_since(pair_start), o.seconds));
    write_spans(kSpansDir + "/" + w.name + "-seed" + std::to_string(o.seed) + ".csv",
                tracer.spans());

    // Host times: median over traced runs. Counts repeat exactly.
    const auto self_s = [&](SpanKind kind) {
        std::vector<double> v;
        for (const SpanSummary& s : summaries)
            v.push_back(1e-9 * static_cast<double>(s.self_ns[static_cast<std::size_t>(kind)]));
        return median(v);
    };
    const auto calls = [&](SpanKind kind) {
        return static_cast<double>(summaries.front().calls[static_cast<std::size_t>(kind)]);
    };
    std::vector<double> totals;
    for (const SpanSummary& s : summaries) totals.push_back(1e-9 * static_cast<double>(s.root_ns));
    const double total_s = median(totals);

    double bist = 0, wear = 0, rounds = 0, repairs = 0, mapping = 0;
    for (const fare::CellResult& cell : traced->results) {
        if (cell.from_cache) continue;
        bist += static_cast<double>(cell.run.bist_scans);
        wear += static_cast<double>(cell.run.wear_faults);
        rounds += static_cast<double>(cell.run.online.detection_rounds);
        repairs += static_cast<double>(cell.run.online.repair_writes);
        mapping += cell.run.total_mapping_cost;
    }
    const double steps = calls(SpanKind::kReramStepEnd);
    const double models_self = self_s(SpanKind::kModelsRun);
    return {
        {"graph.dataset_s", self_s(SpanKind::kGraphDataset), "s"},
        {"graph.partition_s", self_s(SpanKind::kGraphPartition), "s"},
        {"fare.preprocess_s", self_s(SpanKind::kFarePreprocess), "s"},
        {"fare.adjacency_s", self_s(SpanKind::kFareAdjacency), "s"},
        {"fare.adjacency_calls", calls(SpanKind::kFareAdjacency), "count"},
        {"fare.mapping_cost", mapping, "cost"},
        {"fare.acc_gain_pts", acc_gain_per_trial(*traced).front(), "pts"},
        {"reram.build_s", self_s(SpanKind::kReramBuild), "s"},
        {"reram.bind_s", self_s(SpanKind::kReramBind), "s"},
        {"reram.weights_s", self_s(SpanKind::kReramWeights), "s"},
        {"reram.weights_calls", calls(SpanKind::kReramWeights), "count"},
        {"reram.step_end_s", self_s(SpanKind::kReramStepEnd), "s"},
        {"reram.step_end_calls", steps, "count"},
        {"reram.epoch_end_s", self_s(SpanKind::kReramEpochEnd), "s"},
        {"reram.bist_scans", bist, "count"},
        {"reram.wear_faults", wear, "count"},
        {"reram.detection_rounds", rounds, "count"},
        {"reram.repair_writes", repairs, "count"},
        {"models.init_s", self_s(SpanKind::kModelsDataset) + self_s(SpanKind::kModelsInit), "s"},
        {"models.self_s", models_self, "s"},
        {"models.steps", steps, "count"},
        {"models.host_us_per_step", steps > 0 ? 1e6 * models_self / steps : 0.0, "us"},
        {"models.weight_refreshes_per_step",
         steps > 0 ? calls(SpanKind::kReramWeights) / steps : 0.0, "count/step"},
        {"sim.cells_executed", static_cast<double>(base->executed), "count"},
        {"sim.memo_hits", static_cast<double>(base->memo_hits), "count"},
        {"sim.cell_glue_s", self_s(SpanKind::kCell), "s"},
        {"sim.overhead_s", median(sim_overhead), "s"},
        {"trace.total_s", total_s, "s"},
        {"trace.overhead_pct", median(overhead_pct), "%"},
    };
}

void print_context(const Workload& w, const Options& o, std::size_t width,
                   const fare::ExperimentPlan& plan) {
    std::ostringstream c;
    c << "{\"workload\": " << json_string(w.name) << ", \"plan\": " << json_string(w.plan)
      << ", \"cells\": " << plan.size() << ", \"trials\": " << kTrials
      << ", \"seed\": " << o.seed
      << ", \"epochs\": " << (o.epochs ? std::to_string(*o.epochs) : "\"plan\"")
      << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"seconds\": " << json_number(o.seconds)
      << ", \"session_width\": " << width
      // Serial workloads pin kernels with ParallelWidthScope(1); cells on
      // the session pool never fan out (nested calls run inline).
      << ", \"kernel_width\": 1"
      << ", \"nproc\": " << host_nproc()
      << ", \"simd_detected\": " << json_string(fare::simd::isa_name(fare::simd::detected_isa()))
      << ", \"simd_active\": " << json_string(fare::simd::isa_name(fare::simd::active_isa()))
      << ", \"build_type\": " << json_string(FAREBENCH_BUILD_TYPE)
      << ", \"cxx_flags\": " << json_string(FAREBENCH_CXX_FLAGS)
      << ", \"compiler\": " << json_string(FAREBENCH_COMPILER)
      << ", \"commit\": " << json_string(FAREBENCH_COMMIT) << "}";
    std::cout << "context " << c.str() << '\n';
}

int run(const Options& o) {
    const Workload& w = find_workload(o.workload);
    const std::size_t width = session_width(w);
    // Serial workloads pin the GEMM/aggregation kernels to one worker too;
    // the pooled workload pins only its serial reference and traced runs.
    std::optional<fare::ParallelWidthScope> pin;
    if (width == 1) pin.emplace(1);
    print_context(w, o, width, build_plan(w, o.seed, o.epochs));

    Gate gate;
    std::vector<Metric> metrics;
    try {
        metrics = o.trace ? measure_layers(w, o, width, gate)
                          : measure_end_to_end(w, o, width, gate);
    } catch (const UnsupportedCell& e) {
        std::cerr << "fare_perfbench: refusing workload: " << e.what() << '\n';
        return 1;
    }
    if (o.trace)
        std::cout << "note: reram.step_end_s is one span per on_step_end call; the wear, "
                     "BIST, arrival re-matching and online detect/repair inside it are "
                     "not split (that needs phase timers inside the library)\n";

    for (const Metric& m : metrics) {
        if (!std::isfinite(m.value)) gate.problem("metric " + m.name + " is not finite");
        std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::ostringstream out;
    out << "{\"correct\": " << (gate.problems.empty() ? "true" : "false")
        << ", \"attempted\": " << gate.attempted << ", \"failed\": " << gate.failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        out << (i ? ", " : "") << json_string(m.name)
            << ": {\"value\": " << json_number(std::isfinite(m.value) ? m.value : 0.0)
            << ", \"unit\": " << json_string(m.unit) << "}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
    return 0;
}

}  // namespace
}  // namespace farebench

int main(int argc, char** argv) {
#ifndef NDEBUG
    std::cerr << "fare_perfbench: refusing to report from a build without NDEBUG "
                 "(FARE_DCHECKs would be timed)\n";
    return 3;
#endif
    std::string error;
    const std::optional<farebench::Options> options = farebench::parse(argc, argv, error);
    if (!options) return farebench::usage(error.c_str());
    try {
        return farebench::run(*options);
    } catch (const std::exception& e) {
        std::cerr << "fare_perfbench: " << e.what() << '\n';
        return 1;
    }
}
