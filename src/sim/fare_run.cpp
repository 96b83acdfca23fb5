// fare-run: process-level driver for sharded / resumable plan execution.
//
// One process runs one shard of a built-in plan (the whole plan by default)
// through a SimSession and can persist full-fidelity cell records; a second
// invocation merges N shard record files back into one plan-ordered display
// JSON identical to a single-process run — the multi-process counterpart of
// merge_shards(). scripts/shard_run.sh wires the two together and the CI
// shard-smoke job diffs merged-vs-single output.
//
//   fare-run --plan smoke --shard 0/2 --out shard0.jsonl [--cache-dir DIR]
//   fare-run --merge merged.json shard0.jsonl shard1.jsonl
//
// It is also the fabric coordinator (docs/distributed.md): --listen runs a
// plan on connected fare-worker processes instead of local threads:
//
//   fare-run --plan smoke --listen 127.0.0.1:7500 --min-workers 3 ...
//
// Exit codes: 0 success, 1 execution/merge failure, 2 usage error.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "graph/partitioner.hpp"
#include "net/socket.hpp"
#include "nn/model_family.hpp"
#include "sim/builtin_plans.hpp"
#include "sim/cell_cache.hpp"
#include "sim/remote_executor.hpp"
#include "sim/result_sink.hpp"
#include "sim/scheduler.hpp"
#include "sim/serialization.hpp"
#include "sim/session.hpp"

namespace fare {
namespace {

int usage(std::ostream& os, int code) {
    os << "fare-run — sharded / resumable / distributed experiment-plan "
          "driver\n\n"
          "Run one shard of a built-in plan:\n"
          "  fare-run --plan NAME [options]\n"
          "    --shard I/N      run slice I of N (default 0/1 = whole plan)\n"
          "    --threads N      worker threads (0 = auto / FARE_THREADS)\n"
          "    --simd MODE      kernel table: auto|scalar|avx2|neon (default\n"
          "                     auto = FARE_SIMD env, else best detected ISA;\n"
          "                     results are bit-identical for every mode)\n"
          "    --cache-dir DIR  persistent cell cache: resume interrupted\n"
          "                     sweeps, reuse unchanged cells across runs;\n"
          "                     safe to share between concurrent shard\n"
          "                     processes (per-process segments + dir lock)\n"
          "    --cache-max-bytes N[K|M|G]\n"
          "                     evict least-recently-used cache entries at\n"
          "                     compaction until the cache fits N bytes\n"
          "    --epochs E       override every cell's epoch budget\n"
          "    --out PATH       write full-fidelity cell records (JSONL),\n"
          "                     mergeable with --merge\n"
          "    --json PATH      write display JSON lines (BENCH_* format)\n"
          "    --canonical      zero measured timings / from_cache in --json\n"
          "                     output so runs diff bit-identically\n"
          "    --stats          print seed-replicate mean/sigma table and,\n"
          "                     with --cache-dir, cache lifecycle counters\n"
          "                     (live/dead/superseded/corrupt/evicted)\n"
          "    --stream         print the console table cells as they finish\n"
          "    --quiet          no console table\n"
          "    --progress       print one dot per executed cell\n\n"
          "Run a plan on a fleet of fare-worker processes (the cell cache\n"
          "and all output options behave exactly as in a local run):\n"
          "  fare-run --plan NAME --listen HOST:PORT [options]\n"
          "    --min-workers N  wait for N connected workers before dealing\n"
          "    --port-file P    write the bound port to P (use HOST:0 for\n"
          "                     an ephemeral port)\n"
          "    --heartbeat-timeout-ms N\n"
          "                     a worker silent this long is dead; its\n"
          "                     in-flight cell is re-dealt (default 10000)\n"
          "    --cell-deadline-ms N\n"
          "                     a cell in flight longer than this is dealt\n"
          "                     again to a second worker, first result wins\n"
          "                     (default 0 = off)\n"
          "    --max-attempts N re-deal budget per cell before the plan\n"
          "                     fails (default 4)\n"
          "    --retry-backoff-ms N\n"
          "                     base re-deal delay, doubling per attempt\n"
          "                     (default 200)\n"
          "    --secret S       shared fabric secret (defaults to the\n"
          "                     FARE_FABRIC_SECRET environment variable);\n"
          "                     peers without the matching secret are\n"
          "                     dropped at handshake\n\n"
          "Merge shard record files into plan-ordered display JSON:\n"
          "  fare-run --merge OUT IN1 IN2 ... [--canonical]\n\n"
          "Compact a cell cache in place (drop dead lines, fold segments,\n"
          "apply --cache-max-bytes eviction; fails if the dir is in use):\n"
          "  fare-run --cache-compact --cache-dir DIR [--cache-max-bytes N]\n\n"
          "  fare-run --list-plans   list built-in plans\n"
          "  fare-run --list         list every registry: model families,\n"
          "                          workloads, schemes, partitioners, plans\n";
    return code;
}

/// --list: one stop for every registry-named identifier a plan or CLI flag
/// can reference. The output is the source of truth for "what can I type
/// here" — each section mirrors the error message of the matching lookup.
int list_registries(std::ostream& os) {
    os << "model families:\n";
    for (const ModelFamily* family : registered_model_families())
        os << "  " << family->name() << '\n';
    os << "\nworkloads (--plan cells reference these):\n"
       << workload_usage();
    os << "\nschemes:\n";
    for (const Scheme scheme : all_schemes())
        os << "  " << scheme_name(scheme) << '\n';
    os << "\npartitioners:\n";
    for (const Partitioner* partitioner : registered_partitioners())
        os << "  " << partitioner->name() << '\n';
    os << "\nbuilt-in plans:\n";
    for (const NamedPlan& plan : builtin_plans())
        os << "  " << plan.name << " — " << plan.description << '\n';
    return 0;
}

/// --stream: one display-JSON line per cell, printed the moment the plan
/// prefix up to it completes (ordered-prefix streaming delivery).
class StreamingLineSink final : public ResultSink {
public:
    explicit StreamingLineSink(std::ostream& os) : os_(os) { streaming(); }
    void begin(const ExperimentPlan& plan) override { plan_ = plan.name; }
    void cell(const CellResult& r) override {
        os_ << cell_to_json(plan_, r.plan_index, r) << '\n' << std::flush;
    }

private:
    std::ostream& os_;
    std::string plan_;
};

/// --canonical: zero every measured-time field and the cache flag — the
/// only nondeterministic parts of a cell — so two runs of the same plan
/// (sharded or not) produce byte-identical display JSON.
CellResult canonicalized(CellResult cell, bool canonical) {
    if (canonical) {
        cell.wall_seconds = 0.0;
        cell.from_cache = false;
        cell.run.train.preprocess_seconds = 0.0;
        cell.run.train.train_seconds = 0.0;
    }
    return cell;
}

/// --cache-max-bytes: a byte count with an optional K/M/G suffix.
std::uint64_t parse_bytes(const std::string& s) {
    std::size_t suffix = 0;
    std::uint64_t scale = 1;
    if (!s.empty()) {
        switch (s.back()) {
            case 'K': case 'k': scale = 1ull << 10; suffix = 1; break;
            case 'M': case 'm': scale = 1ull << 20; suffix = 1; break;
            case 'G': case 'g': scale = 1ull << 30; suffix = 1; break;
            default: break;
        }
    }
    const std::string digits = s.substr(0, s.size() - suffix);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
        throw InvalidArgument("bad byte count: '" + s + "'");
    std::uint64_t value = 0;
    try {
        value = std::stoull(digits);
    } catch (const std::out_of_range&) {
        throw InvalidArgument("byte count out of range: '" + s + "'");
    }
    if (scale != 1 && value > UINT64_MAX / scale)
        throw InvalidArgument("byte count out of range: '" + s + "'");
    return value * scale;
}

void print_cache_stats(const DiskCacheStats& s, std::ostream& os) {
    os << "cache: " << s.live_entries << " live entries (" << s.live_bytes
       << " bytes), " << s.dead_bytes << " dead bytes, "
       << s.superseded_lines << " superseded line(s), " << s.corrupt_lines
       << " corrupt line(s) skipped, " << s.evicted_entries
       << " evicted, " << s.segments_merged << " segment(s) merged, "
       << s.compactions << " compaction(s)\n";
}

/// --cache-compact: open the cache, force one compaction, report, exit.
int compact_cache(const std::string& cache_dir, std::uint64_t max_bytes) {
    if (cache_dir.empty()) {
        std::cerr << "fare-run: --cache-compact needs --cache-dir\n\n";
        return usage(std::cerr, 2);
    }
    DiskCacheConfig config;
    config.dir = cache_dir;
    config.max_bytes = max_bytes;
    config.compact_on_close = false;  // explicit verb, explicit compaction
    DiskCellCache cache(config);
    if (!cache.compact()) {
        std::cerr << "fare-run: cache " << cache_dir
                  << " is in use by another process; not compacted\n";
        return 1;
    }
    print_cache_stats(cache.stats(), std::cout);
    return 0;
}

int merge(const std::string& out_path, const std::vector<std::string>& inputs,
          bool canonical) {
    std::map<std::size_t, CellResult> by_index;
    std::string plan_name;
    for (const std::string& input : inputs) {
        std::ifstream in(input);
        if (!in.good()) {
            std::cerr << "fare-run: cannot open " << input << '\n';
            return 1;
        }
        std::string line;
        std::size_t line_no = 0;
        while (std::getline(in, line)) {
            ++line_no;
            if (line.empty()) continue;
            const Expected<CellRecord> record = cell_record_from_json(line);
            if (!record) {
                std::cerr << "fare-run: " << input << ':' << line_no << ": "
                          << record.error() << '\n';
                return 1;
            }
            const CellRecord& rec = record.value();
            if (plan_name.empty()) plan_name = rec.plan;
            if (rec.plan != plan_name) {
                std::cerr << "fare-run: " << input << " is from plan '"
                          << rec.plan << "', expected '" << plan_name << "'\n";
                return 1;
            }
            if (!by_index.emplace(rec.plan_index, rec.result).second) {
                std::cerr << "fare-run: plan cell " << rec.plan_index
                          << " appears in two shards\n";
                return 1;
            }
        }
    }
    if (by_index.empty()) {
        std::cerr << "fare-run: no records to merge\n";
        return 1;
    }
    // Shards jointly cover the plan exactly once: indices must be 0..M-1.
    std::size_t expected = 0;
    for (const auto& [index, cell] : by_index) {
        if (index != expected) {
            std::cerr << "fare-run: plan cell " << expected
                      << " missing from every shard\n";
            return 1;
        }
        ++expected;
    }
    std::ofstream out(out_path, std::ios::trunc);
    if (!out.good()) {
        std::cerr << "fare-run: cannot open " << out_path << '\n';
        return 1;
    }
    for (const auto& [index, cell] : by_index)
        out << cell_to_json(plan_name, index, canonicalized(cell, canonical))
            << '\n';
    std::cout << "merged " << by_index.size() << " cells from " << inputs.size()
              << " shard file(s) into " << out_path << '\n';
    return 0;
}

int parse_ms(const std::string& arg, const std::string& s) {
    const Expected<double> n = parse_double(s);
    if (!n || n.value() < 0 || n.value() > 1e9)
        throw InvalidArgument("bad " + arg + ": '" + s + "'");
    return static_cast<int>(n.value());
}

/// --port-file: how scripts rendezvous with an ephemeral --listen port.
/// Written atomically (tmp + rename) so a watcher never reads half a line.
void write_port_file(const std::string& path, std::uint16_t port) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        FARE_CHECK(out.good(), "cannot open --port-file path: " + path);
        out << port << '\n';
    }
    FARE_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
               "cannot write --port-file: " + path);
}

int run(int argc, char** argv) {
    std::string plan_name, out_path, json_path, merge_out, cache_dir;
    std::vector<std::string> merge_inputs;
    std::string listen_spec, port_file;
    SessionOptions options;
    FabricConfig fabric;
    std::size_t min_workers = 1;
    std::optional<std::size_t> epochs;
    bool canonical = false, stats = false, stream = false, quiet = false;
    bool list_plans = false, merging = false, cache_compact = false;
    std::uint64_t cache_max_bytes = 0;
    if (const char* env_secret = std::getenv("FARE_FABRIC_SECRET"))
        fabric.secret = env_secret;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw InvalidArgument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
        if (arg == "--list") return list_registries(std::cout);
        if (arg == "--list-plans") list_plans = true;
        else if (arg == "--plan") plan_name = value();
        else if (arg == "--shard") {
            Expected<ShardSpec> shard = parse_shard(value());
            if (!shard) throw InvalidArgument(shard.error());
            options.shard = shard.value();
        } else if (arg == "--threads") {
            const Expected<double> n = parse_double(value());
            if (!n || n.value() < 0) throw InvalidArgument("bad --threads");
            options.threads = static_cast<std::size_t>(n.value());
        } else if (arg == "--simd") options.simd = value();
        else if (arg == "--cache-dir") cache_dir = value();
        else if (arg == "--cache-max-bytes") cache_max_bytes = parse_bytes(value());
        else if (arg == "--cache-compact") cache_compact = true;
        else if (arg == "--epochs") {
            const Expected<double> e = parse_double(value());
            if (!e || e.value() < 1) throw InvalidArgument("bad --epochs");
            epochs = static_cast<std::size_t>(e.value());
        } else if (arg == "--out") out_path = value();
        else if (arg == "--json") json_path = value();
        else if (arg == "--canonical") canonical = true;
        else if (arg == "--stats") stats = true;
        else if (arg == "--stream") stream = true;
        else if (arg == "--quiet") quiet = true;
        else if (arg == "--progress") options.progress = &std::cerr;
        else if (arg == "--listen") listen_spec = value();
        else if (arg == "--port-file") port_file = value();
        else if (arg == "--min-workers") {
            const Expected<double> n = parse_double(value());
            if (!n || n.value() < 1) throw InvalidArgument("bad --min-workers");
            min_workers = static_cast<std::size_t>(n.value());
        }
        else if (arg == "--heartbeat-timeout-ms")
            fabric.heartbeat_timeout_ms = parse_ms(arg, value());
        else if (arg == "--cell-deadline-ms")
            fabric.cell_deadline_ms = parse_ms(arg, value());
        else if (arg == "--max-attempts") {
            const Expected<double> n = parse_double(value());
            if (!n || n.value() < 1) throw InvalidArgument("bad --max-attempts");
            fabric.max_attempts = static_cast<int>(n.value());
        }
        else if (arg == "--retry-backoff-ms")
            fabric.retry_backoff_ms = parse_ms(arg, value());
        else if (arg == "--secret") fabric.secret = value();
        else if (arg == "--merge") {
            merging = true;
            merge_out = value();
        } else if (merging && arg.rfind("--", 0) != 0) {
            merge_inputs.push_back(arg);
        } else {
            std::cerr << "fare-run: unknown argument " << arg << "\n\n";
            return usage(std::cerr, 2);
        }
    }

    if (list_plans) {
        for (const NamedPlan& plan : builtin_plans())
            std::cout << plan.name << " — " << plan.description << '\n';
        return 0;
    }
    if (merging) {
        if (merge_inputs.empty()) {
            std::cerr << "fare-run: --merge needs input files\n\n";
            return usage(std::cerr, 2);
        }
        return merge(merge_out, merge_inputs, canonical);
    }
    if (cache_compact) return compact_cache(cache_dir, cache_max_bytes);
    fabric.log = &std::cerr;
    options.cache_dir = cache_dir;
    options.cache_max_bytes = cache_max_bytes;
    if (plan_name.empty()) return usage(std::cerr, 2);

    ExperimentPlan plan = find_builtin_plan(plan_name);
    if (epochs) override_epochs(plan, *epochs);

    // --listen: same session semantics, but cells execute on the connected
    // fare-worker fleet instead of local threads.
    std::unique_ptr<WorkerPool> pool;
    std::unique_ptr<CellExecutor> executor;
    if (!listen_spec.empty()) {
        const Expected<net::Endpoint> endpoint =
            net::parse_endpoint(listen_spec);
        if (!endpoint.ok()) {
            std::cerr << "fare-run: " << endpoint.error() << "\n\n";
            return usage(std::cerr, 2);
        }
        Expected<std::unique_ptr<WorkerPool>> listening = WorkerPool::listen(
            endpoint.value().host, endpoint.value().port, fabric);
        if (!listening.ok()) {
            std::cerr << "fare-run: " << listening.error() << '\n';
            return 1;
        }
        pool = std::move(listening).value();
        if (!port_file.empty()) write_port_file(port_file, pool->port());
        std::cerr << "fare-run: coordinating on " << endpoint.value().host
                  << ':' << pool->port() << ", waiting for " << min_workers
                  << " worker(s)\n";
        pool->wait_for_workers(min_workers);
        executor = std::make_unique<RemoteExecutor>(*pool);
    }

    SimSession session(options, std::move(executor), nullptr);
    if (!quiet) session.add_sink(std::make_unique<ConsoleTableSink>(std::cout));
    if (stream) session.add_sink(std::make_unique<StreamingLineSink>(std::cout));
    if (stats) session.add_sink(std::make_unique<SeedStatsSink>(std::cout));
    const ResultSet results = session.run(plan);

    if (!out_path.empty()) {
        std::ofstream out(out_path, std::ios::trunc);
        FARE_CHECK(out.good(), "cannot open --out path: " + out_path);
        for (const CellResult& cell : results) {
            CellRecord record;
            record.plan = plan.name;
            record.key = cell.spec.key();
            record.plan_index = cell.plan_index;
            record.result = cell;
            out << cell_record_to_json(record) << '\n';
        }
    }
    if (!json_path.empty()) {
        std::ofstream out(json_path, std::ios::trunc);
        FARE_CHECK(out.good(), "cannot open --json path: " + json_path);
        for (const CellResult& cell : results)
            out << cell_to_json(plan.name, cell.plan_index,
                                canonicalized(cell, canonical))
                << '\n';
    }
    // Cache lifecycle report: what this run's disk cache held, reclaimed,
    // and evicted (the constructor's corrupt-line count included, so a
    // resumed sweep can see how much of the log it had to recompute).
    if (stats) {
        std::cout << "simd: " << simd::isa_name(simd::active_isa())
                  << " (detected " << simd::isa_name(simd::detected_isa())
                  << ")\n";
        if (const auto* disk = dynamic_cast<DiskCellCache*>(&session.cache()))
            print_cache_stats(disk->stats(), std::cout);
    }
    std::cerr << "fare-run: plan '" << plan.name << "' shard "
              << options.shard.label() << ": " << results.size()
              << " cells, " << session.cache_hits() << " cache hits\n";
    return 0;
}

}  // namespace
}  // namespace fare

int main(int argc, char** argv) {
    try {
        return fare::run(argc, argv);
    } catch (const fare::InvalidArgument& e) {
        std::cerr << "fare-run: " << e.what() << '\n';
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "fare-run: " << e.what() << '\n';
        return 1;
    }
}
