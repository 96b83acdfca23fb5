// Mini-batch transformer trainer over (possibly faulty) simulated ReRAM
// hardware — the sequence-family counterpart of models/gnn/trainer.hpp, on
// the same loop (nn/train_loop.hpp). There is no adjacency stream
// (sequences attend densely), so preprocess() is called with an empty batch
// list purely to let the mapper finish its layout.
#pragma once

#include <memory>
#include <vector>

#include "nn/train_loop.hpp"
#include "models/transformer/seq_dataset.hpp"
#include "models/transformer/transformer_model.hpp"

namespace fare {

class TransformerTrainer final : public TrainLoop {
public:
    /// `hardware` may be null => ideal (fault-free) hardware. Not owned.
    /// TrainConfig reuse: hidden -> d_model, num_layers -> blocks; the graph
    /// partitioning knobs are ignored (nothing to partition).
    TransformerTrainer(const SeqDataset& dataset, const TrainConfig& config,
                       HardwareModel* hardware = nullptr);

    TransformerModel& model() { return *model_; }
    std::size_t num_batches() const override { return batches_.size(); }

private:
    ParamModel& param_model() override { return *model_; }
    void preprocess(HardwareModel& hardware) override;
    LossResult train_step(std::size_t batch_idx, MetricAccumulator& train_acc) override;
    void evaluate(MetricAccumulator& acc, Split split) override;

    Matrix forward_batch(const std::vector<std::size_t>& seqs);

    const SeqDataset& dataset_;
    std::unique_ptr<TransformerModel> model_;
    /// Fixed train mini-batches (contiguous chunks; order shuffled per epoch).
    std::vector<std::vector<std::size_t>> batches_;
};

}  // namespace fare
