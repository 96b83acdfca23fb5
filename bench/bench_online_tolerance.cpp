// Online tolerance frontier: mid-epoch wear + soft-error arrivals with the
// in-training detection/correction engine (reram/online_tolerance.hpp),
// swept over the detection cadence for {fault-unaware, FARe, online FARe,
// online naive}.
//
// The plan is the built-in "online_tolerance" (sim/builtin_plans.hpp), so
// the exact same sweep shards across processes:
//
//   scripts/shard_run.sh online_tolerance 2 merged.json --canonical
//
// merges bit-identical to this bench's single-process run. Expected shape:
// the offline schemes treat every arrival as permanent damage (FARe remaps
// around it, fault-unaware just degrades), while the online schemes re-form
// soft faults and substitute spare columns under hard ones — buying back
// accuracy at a march/readback time cost and re-programming wear that both
// land in the frontier table below. Faster detection (dp=2) pays more
// march time for lower detection latency than lazy detection (dp=8).
//
// Besides the human-readable tables, the bench emits a Google-Benchmark
// shaped JSON (bench/out/BENCH_online_tolerance.json) whose "timings" are
// the *modeled* detection/repair costs — deterministic across machines, so
// the committed BENCH_online_tolerance_postpr.json baseline gates shape
// regressions in CI at ratio ~1.0 rather than measuring host noise.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/table.hpp"
#include "sim/builtin_plans.hpp"
#include "sim/result_sink.hpp"
#include "sim/session.hpp"

namespace {

using namespace fare;

/// First result cell matching scheme (+ detection period for the online
/// family). Throws InvalidArgument when absent.
const CellResult& cell_for(const ResultSet& results, Scheme scheme,
                           std::size_t detect_period = 0) {
    for (const CellResult& r : results.cells) {
        if (r.spec.scheme != scheme) continue;
        if (scheme_is_online(scheme) &&
            r.spec.hardware.online.detect_period_batches != detect_period)
            continue;
        return r;
    }
    throw InvalidArgument("online_tolerance: no cell for scheme " +
                          std::string(scheme_name(scheme)));
}

}  // namespace

int main() {
    const ExperimentPlan plan = find_builtin_plan("online_tolerance");

    SessionOptions options;
    options.progress = &std::cout;
    if (const char* cache_dir = std::getenv("FARE_CACHE_DIR"))
        options.cache_dir = cache_dir;
    SimSession session(options);
    // Cell lines go to an explicitly named file: the plan-derived default
    // (BENCH_online_tolerance.json) is taken by the GBench-shaped summary.
    session.add_sink(std::make_unique<JsonLinesSink>(
                         default_bench_out_path("online_tolerance_cells")))
        .streaming();
    session.add_sink(std::make_unique<PivotSink>(&std::cout));
    std::cout << "online_tolerance sweep: " << plan.size() << " cells on "
              << session.threads() << " threads\n";
    const ResultSet results = session.run(plan);

    const CellResult& unaware = cell_for(results, Scheme::kFaultUnaware);
    const CellResult& fare = cell_for(results, Scheme::kFARe);
    const std::vector<std::size_t> detect_periods = {2, 8};
    const std::vector<Scheme> online_schemes = {Scheme::kOnlineFARe,
                                                Scheme::kOnlineNaive};

    std::cout << "\n=== Online tolerance frontier: accuracy vs detection/"
                 "repair cost (PPI GCN,\n    1% manufacturing SAFs + live "
                 "wear + soft-error arrivals) ===\n\n";
    Table t({"Scheme", "Detect period", "Accuracy", "vs FARe", "Detect (ms)",
             "Repair writes", "Spares used", "Exhausted xbars",
             "Latency (steps)"});
    t.add_row({scheme_name(Scheme::kFaultUnaware), "-",
               fmt(unaware.accuracy(), 3),
               fmt_pct(unaware.accuracy() - fare.accuracy(), 1), "0", "0", "0",
               "0", "-"});
    t.add_row({scheme_name(Scheme::kFARe), "-", fmt(fare.accuracy(), 3), "-",
               "0", "0", "0", "0", "-"});
    double best_online = 0.0;
    for (const Scheme scheme : online_schemes) {
        for (const std::size_t dp : detect_periods) {
            const CellResult& r = cell_for(results, scheme, dp);
            const OnlineToleranceStats& ol = r.run.online;
            // Acceptance gates: every online cell must carry a nonzero
            // detection-time and repair-write cost — a zero means the engine
            // silently stopped charging and the frontier is fiction.
            FARE_CHECK(ol.detect_seconds > 0.0,
                       "online cell has zero detection time");
            FARE_CHECK(ol.repair_writes > 0,
                       "online cell has zero repair writes");
            best_online = std::max(best_online, r.accuracy());
            t.add_row({scheme_name(scheme), std::to_string(dp),
                       fmt(r.accuracy(), 3),
                       fmt_pct(r.accuracy() - fare.accuracy(), 1),
                       fmt(ol.detect_seconds * 1e3, 3),
                       std::to_string(ol.repair_writes),
                       std::to_string(ol.columns_substituted),
                       std::to_string(ol.crossbars_exhausted),
                       fmt(ol.mean_detection_latency_steps(), 1)});
        }
    }
    std::cout << t.to_ascii() << '\n';
    FARE_CHECK(best_online > fare.accuracy(),
               "no online scheme beats FARe-only retraining — the frontier "
               "collapsed; check the online_tolerance plan calibration");
    std::cout << "Best online scheme beats FARe-only retraining by "
              << fmt_pct(best_online - fare.accuracy(), 1)
              << " accuracy under the same arrival schedule.\n";

    // Deterministic modeled-cost summary in Google-Benchmark JSON shape:
    // scripts/check_bench.py gates these against the committed _postpr
    // baseline (ratio ~1.0 on every machine — the costs come from the
    // timing model, not the wall clock).
    std::ostringstream js;
    js << "{\"context\":{\"executable\":\"bench_online_tolerance\"},"
       << "\"benchmarks\":[";
    bool first = true;
    for (const Scheme scheme : online_schemes) {
        for (const std::size_t dp : detect_periods) {
            const OnlineToleranceStats& ol =
                cell_for(results, scheme, dp).run.online;
            const std::string tag =
                std::string(scheme_name(scheme)) + "/dp:" + std::to_string(dp);
            js << (first ? "" : ",") << "{\"name\":\"online_detect/" << tag
               << "\",\"run_type\":\"iteration\",\"real_time\":"
               << fmt_exact(ol.detect_seconds * 1e9)
               << ",\"time_unit\":\"ns\"}"
               << ",{\"name\":\"online_repair/" << tag
               << "\",\"run_type\":\"iteration\",\"real_time\":"
               << fmt_exact((ol.repair_seconds +
                             static_cast<double>(ol.repair_writes) * 1e-9) *
                            1e9)
               << ",\"time_unit\":\"ns\"}";
            first = false;
        }
    }
    js << "]}";
    const std::string summary_path = default_bench_out_path("online_tolerance");
    std::ofstream out(summary_path);
    FARE_CHECK(out.good(), "cannot open " + summary_path);
    out << js.str() << '\n';
    std::cout << "Modeled-cost summary written to " << summary_path << '\n';
    return 0;
}
