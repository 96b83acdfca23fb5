// Mini-batch GNN trainer over (possibly faulty) simulated ReRAM hardware.
//
// Follows the paper's pipeline (Fig. 2): the graph is METIS-partitioned
// once on the host, partitions are grouped into cluster batches, and each
// training step writes the batch's adjacency blocks and the updated weights
// to crossbars, runs aggregation + combination, and backpropagates. The
// HardwareModel decides what the crossbars actually return; the loop itself
// lives in nn/train_loop.hpp.
#pragma once

#include <memory>
#include <vector>

#include "nn/train_loop.hpp"
#include "models/gnn/model.hpp"
#include "graph/dataset.hpp"
#include "graph/subgraph.hpp"

namespace fare {

class Trainer final : public TrainLoop {
public:
    /// `hardware` may be null => ideal (fault-free) hardware. Not owned.
    Trainer(const Dataset& dataset, const TrainConfig& config,
            HardwareModel* hardware = nullptr);

    Model& model() { return *model_; }
    std::size_t num_batches() const override { return batches_.size(); }
    /// Quality report of the partitioning chosen by config.partitioner.
    const PartitionQuality& partition_quality() const { return partition_quality_; }
    /// Ideal adjacency bits per batch (exposed for hardware preprocessing
    /// inspection in tests/examples).
    const std::vector<BitMatrix>& batch_adjacency() const { return batch_bits_; }

private:
    struct BatchData {
        Subgraph sub;
        BatchGraphView ideal_view;
        Matrix features;
        std::vector<int> labels;
        std::vector<bool> train_mask, val_mask, test_mask;
    };

    ParamModel& param_model() override { return *model_; }
    void preprocess(HardwareModel& hardware) override;
    LossResult train_step(std::size_t batch_idx, MetricAccumulator& train_acc) override;
    void evaluate(MetricAccumulator& acc, Split split) override;

    /// Effective adjacency view of a batch, cached per batch keyed on the
    /// hardware's adjacency state version: fault maps only change at epoch
    /// boundaries, so the O(n^2) bits -> CSR rebuild happens once per fault
    /// event instead of once per batch visit.
    const BatchGraphView& effective_view(std::size_t batch_idx, const BatchData& batch);

    std::unique_ptr<Model> model_;
    std::vector<BatchData> batches_;
    std::vector<BitMatrix> batch_bits_;
    std::vector<std::vector<int>> batch_parts_;  ///< per-batch node -> partition

    std::vector<BatchGraphView> view_cache_;
    std::vector<bool> view_cached_;
    std::uint64_t view_cache_version_ = 0;
    bool view_cache_valid_ = false;
};

}  // namespace fare
