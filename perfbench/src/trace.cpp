#include "trace.hpp"

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "common/stopwatch.hpp"
#include "fare/baselines.hpp"
#include "fare/fare_trainer.hpp"
#include "fare/scenario.hpp"
#include "models/gnn/trainer.hpp"
#include "models/transformer/seq_dataset.hpp"
#include "models/transformer/transformer_trainer.hpp"
#include "sim/registry.hpp"

namespace farebench {

const char* span_name(SpanKind kind) {
    switch (kind) {
        case SpanKind::kCell: return "cell";
        case SpanKind::kGraphDataset: return "graph.dataset";
        case SpanKind::kGraphPartition: return "graph.partition";
        case SpanKind::kModelsDataset: return "models.dataset";
        case SpanKind::kModelsInit: return "models.init";
        case SpanKind::kReramBuild: return "reram.build";
        case SpanKind::kModelsRun: return "models.run";
        case SpanKind::kReramBind: return "reram.bind";
        case SpanKind::kFarePartitionHints: return "fare.partition_hints";
        case SpanKind::kFarePreprocess: return "fare.preprocess";
        case SpanKind::kReramWeights: return "reram.weights";
        case SpanKind::kFareAdjacency: return "fare.adjacency";
        case SpanKind::kReramStepEnd: return "reram.step_end";
        case SpanKind::kReramEpochEnd: return "reram.epoch_end";
        case SpanKind::kCount: break;
    }
    return "?";
}

Tracer::Scope::Scope(Tracer& tracer, SpanKind kind)
    : tracer_(tracer), index_(static_cast<std::int32_t>(tracer.spans_.size())) {
    tracer_.spans_.push_back({kind, tracer_.open_, tracer_.cell_, now_ns(), 0});
    tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
    Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
    span.end_ns = now_ns();
    tracer_.open_ = span.parent;
}

void TracingHardware::bind_params(const std::vector<fare::Matrix*>& params) {
    Tracer::Scope span(tracer_, SpanKind::kReramBind);
    inner_.bind_params(params);
}

void TracingHardware::preprocess(const std::vector<fare::BitMatrix>& batch_adjacency) {
    Tracer::Scope span(tracer_, SpanKind::kFarePreprocess);
    inner_.preprocess(batch_adjacency);
}

void TracingHardware::set_batch_partitions(
    const std::vector<std::vector<int>>& batch_node_parts) {
    Tracer::Scope span(tracer_, SpanKind::kFarePartitionHints);
    inner_.set_batch_partitions(batch_node_parts);
}

fare::Matrix TracingHardware::effective_weights(std::size_t idx, const fare::Matrix& w) {
    Tracer::Scope span(tracer_, SpanKind::kReramWeights);
    return inner_.effective_weights(idx, w);
}

fare::BitMatrix TracingHardware::effective_adjacency(std::size_t batch_idx,
                                                     const fare::BitMatrix& ideal) {
    Tracer::Scope span(tracer_, SpanKind::kFareAdjacency);
    return inner_.effective_adjacency(batch_idx, ideal);
}

void TracingHardware::on_step_end(std::size_t epoch, std::size_t step,
                                  std::size_t steps_per_epoch) {
    Tracer::Scope span(tracer_, SpanKind::kReramStepEnd);
    inner_.on_step_end(epoch, step, steps_per_epoch);
}

void TracingHardware::on_epoch_end(std::size_t epoch) {
    Tracer::Scope span(tracer_, SpanKind::kReramEpochEnd);
    inner_.on_epoch_end(epoch);
}

namespace {

/// The hardware each family's run_train builds: ideal quantised hardware for
/// the fault-free reference, else the scheme factory over the lowered config.
std::unique_ptr<fare::HardwareModel> build_hardware(const fare::CellSpec& spec,
                                                    const fare::TrainConfig& tc,
                                                    Tracer& tracer) {
    Tracer::Scope span(tracer, SpanKind::kReramBuild);
    if (spec.scheme == fare::Scheme::kFaultFree)
        return std::make_unique<fare::IdealQuantizedHardware>();
    const std::uint64_t hw_seed = spec.hardware_seed.value_or(spec.seed);
    return fare::make_hardware(
        spec.scheme,
        fare::to_hardware_config(spec.faults, spec.hardware, hw_seed, tc.epochs));
}

/// Train with `Trainer` over `data`, its constructor timed as `init_kind`.
template <typename Trainer, typename Data>
void train(const fare::CellSpec& spec, const fare::TrainConfig& tc, const Data& data,
           SpanKind init_kind, Tracer& tracer, fare::SchemeRunResult& out) {
    const std::unique_ptr<fare::HardwareModel> hardware = build_hardware(spec, tc, tracer);
    TracingHardware traced(*hardware, tracer);
    std::optional<Trainer> trainer;
    {
        Tracer::Scope span(tracer, init_kind);
        trainer.emplace(data, tc, &traced);
    }
    {
        Tracer::Scope span(tracer, SpanKind::kModelsRun);
        out.train = trainer->run();
    }
    // No-op for ideal hardware, exactly as the families skip it there.
    fare::harvest_scheme_diagnostics(hardware.get(), out);
}

}  // namespace

fare::CellResult run_cell_traced(const fare::CellSpec& spec, Tracer& tracer) {
    const std::string& family = spec.workload.family;
    if (spec.mode != fare::CellMode::kTrain)
        throw UnsupportedCell("traced run cannot replicate deploy-mode cell " +
                              spec.label());
    if (family != "gnn" && !(family == "transformer" && spec.workload.dataset == "SeqCls"))
        throw UnsupportedCell("traced run cannot replicate family '" + family +
                              "' / dataset '" + spec.workload.dataset + "'");

    fare::CellResult result;
    result.spec = spec;
    result.run.scheme = spec.scheme;
    fare::Stopwatch watch;
    Tracer::Scope cell(tracer, SpanKind::kCell);
    const fare::TrainConfig tc = spec.train_config();
    if (family == "gnn") {
        std::optional<fare::Dataset> dataset;
        {
            Tracer::Scope span(tracer, SpanKind::kGraphDataset);
            dataset.emplace(spec.workload.make_dataset(tc.seed));
        }
        train<fare::Trainer>(spec, tc, *dataset, SpanKind::kGraphPartition, tracer,
                             result.run);
    } else {
        std::optional<fare::SeqDataset> data;
        {
            Tracer::Scope span(tracer, SpanKind::kModelsDataset);
            data.emplace(fare::make_seq_cls(fare::SeqDatasetConfig{}, tc.seed));
        }
        train<fare::TransformerTrainer>(spec, tc, *data, SpanKind::kModelsInit, tracer,
                                        result.run);
    }
    result.wall_seconds = watch.elapsed_ms() / 1e3;
    return result;
}

SpanSummary summarize(const std::vector<Span>& spans) {
    SpanSummary out;
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    const auto fail = [&](std::size_t i, const std::string& why) {
        if (out.error.empty())
            out.error = "span " + std::to_string(i) + " (" + span_name(spans[i].kind) +
                        "): " + why;
    };
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const std::int64_t duration = s.end_ns - s.start_ns;
        if (duration < 0) fail(i, "ends before it starts");
        ++out.calls[static_cast<std::size_t>(s.kind)];
        if (s.parent < 0) {
            if (s.kind != SpanKind::kCell) fail(i, "root span is not a cell");
            out.root_ns += duration;
            continue;
        }
        const auto p = static_cast<std::size_t>(s.parent);
        if (p >= i) {
            fail(i, "parent recorded after child");
            continue;
        }
        const Span& parent = spans[p];
        if (s.cell != parent.cell) fail(i, "parent belongs to another cell");
        if (s.start_ns < parent.start_ns || s.end_ns > parent.end_ns)
            fail(i, "not inside its parent");
        child_ns[p] += duration;
    }
    std::int64_t self_total = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t self = spans[i].end_ns - spans[i].start_ns - child_ns[i];
        if (self < 0) fail(i, "children overlap");
        out.self_ns[static_cast<std::size_t>(spans[i].kind)] += self;
        self_total += self;
    }
    if (out.error.empty() && self_total != out.root_ns)
        out.error = "self times sum to " + std::to_string(self_total) +
                    " ns, root total is " + std::to_string(out.root_ns) + " ns";
    return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
    const std::filesystem::path target(path);
    if (target.has_parent_path()) std::filesystem::create_directories(target.parent_path());
    std::ofstream out(target);
    out << "cell,kind,parent,start_ns,end_ns\n";
    for (const Span& s : spans)
        out << s.cell << ',' << span_name(s.kind) << ',' << s.parent << ','
            << s.start_ns << ',' << s.end_ns << '\n';
    if (!out) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace farebench
