// Host-time tracing for the traced benchmark run, recorded from outside the
// library: the benchmark drives each cell through the same public entry
// points fare::run_cell reaches (dataset factory, make_hardware, the family
// trainer) and interposes TracingHardware between the trainer and the
// hardware, so every HardwareModel virtual call becomes a span. Spans live in
// memory and are written out once the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/hardware_model.hpp"
#include "sim/cell.hpp"

namespace farebench {

/// Span kinds, one per timed boundary. kCell is the root of every cell.
enum class SpanKind : std::uint8_t {
    kCell,              ///< whole cell (root); self time = result assembly
    kGraphDataset,      ///< WorkloadSpec::make_dataset
    kGraphPartition,    ///< fare::Trainer constructor (partition + batches)
    kModelsDataset,     ///< make_seq_cls (transformer family data)
    kModelsInit,        ///< fare::TransformerTrainer constructor
    kReramBuild,        ///< make_hardware / ideal hardware construction
    kModelsRun,         ///< trainer run(); self time = GEMMs, aggregation, Adam
    kReramBind,         ///< HardwareModel::bind_params
    kFarePartitionHints,  ///< HardwareModel::set_batch_partitions
    kFarePreprocess,    ///< HardwareModel::preprocess (fault-aware mapping)
    kReramWeights,      ///< HardwareModel::effective_weights
    kFareAdjacency,     ///< HardwareModel::effective_adjacency
    kReramStepEnd,      ///< HardwareModel::on_step_end
    kReramEpochEnd,     ///< HardwareModel::on_epoch_end
    kCount,
};
inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::kCount);

const char* span_name(SpanKind kind);

struct Span {
    SpanKind kind = SpanKind::kCell;
    std::int32_t parent = -1;  ///< index into the span list, -1 for roots
    std::uint32_t cell = 0;    ///< id of the cell the span belongs to
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// Single-threaded span recorder. Spans nest by construction: a Scope opened
/// while another is open becomes its child.
class Tracer {
public:
    class Scope {
    public:
        Scope(Tracer& tracer, SpanKind kind);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer& tracer_;
        std::int32_t index_;
    };

    /// Subsequent spans belong to cell `id`.
    void set_cell(std::uint32_t id) { cell_ = id; }
    const std::vector<Span>& spans() const { return spans_; }
    void clear() { spans_.clear(); }

private:
    static std::int64_t now_ns() {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    std::vector<Span> spans_;
    std::int32_t open_ = -1;
    std::uint32_t cell_ = 0;
};

/// Forwarding HardwareModel decorator: times every call into `inner` and
/// passes the effective-state version stamps through unchanged (untimed), so
/// the trainer's caches hit and miss exactly as without it.
class TracingHardware final : public fare::HardwareModel {
public:
    TracingHardware(fare::HardwareModel& inner, Tracer& tracer)
        : inner_(inner), tracer_(tracer) {}

    void bind_params(const std::vector<fare::Matrix*>& params) override;
    void preprocess(const std::vector<fare::BitMatrix>& batch_adjacency) override;
    void set_batch_partitions(
        const std::vector<std::vector<int>>& batch_node_parts) override;
    fare::Matrix effective_weights(std::size_t idx, const fare::Matrix& w) override;
    fare::BitMatrix effective_adjacency(std::size_t batch_idx,
                                        const fare::BitMatrix& ideal) override;
    void on_step_end(std::size_t epoch, std::size_t step,
                     std::size_t steps_per_epoch) override;
    void on_epoch_end(std::size_t epoch) override;
    std::uint64_t weights_state_version() const override {
        return inner_.weights_state_version();
    }
    std::uint64_t adjacency_state_version() const override {
        return inner_.adjacency_state_version();
    }

private:
    fare::HardwareModel& inner_;
    Tracer& tracer_;
};

/// A cell the traced path cannot reproduce exactly (deploy mode, a family or
/// dataset it does not know). The benchmark refuses it rather than diverge.
class UnsupportedCell : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// fare::run_cell with spans: same entry points, same seeds, same result
/// fields (wall_seconds included). Throws UnsupportedCell as above.
fare::CellResult run_cell_traced(const fare::CellSpec& spec, Tracer& tracer);

/// Per-kind aggregate of a span list.
struct SpanSummary {
    std::array<std::int64_t, kSpanKinds> self_ns{};  ///< duration minus children
    std::array<std::uint64_t, kSpanKinds> calls{};
    std::int64_t root_ns = 0;  ///< sum of root (cell) durations
    /// Empty when every span lies inside its parent (same cell, started
    /// after it) and the self times sum to root_ns; else the first violation.
    std::string error;
};
SpanSummary summarize(const std::vector<Span>& spans);

/// One span per line: cell,kind,parent,start_ns,end_ns.
void write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace farebench
