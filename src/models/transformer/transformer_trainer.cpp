#include "models/transformer/transformer_trainer.hpp"

#include "common/error.hpp"

namespace fare {

namespace {

/// Sequences per mini-batch. Fixed (like the cluster-batch composition in
/// the GNN trainer): the fault-aware mapping is computed once in
/// preprocessing, so batch membership must not change across epochs.
constexpr std::size_t kSequencesPerBatch = 16;

/// Salt of the per-epoch batch-order stream: distinct from the GNN
/// trainer's 0xE70C5 so a GNN and a transformer cell with the same seed stay
/// decorrelated.
constexpr std::uint64_t kShuffleSalt = 0x5EC7A5ULL;

}  // namespace

TransformerTrainer::TransformerTrainer(const SeqDataset& dataset,
                                       const TrainConfig& config,
                                       HardwareModel* hardware)
    : TrainLoop(config, hardware, dataset.num_classes, kShuffleSalt),
      dataset_(dataset) {
    TransformerConfig mc;
    mc.vocab_size = dataset.vocab_size;
    mc.seq_len = dataset.seq_len;
    mc.num_classes = dataset.num_classes;
    mc.d_model = config.hidden;
    mc.num_blocks = config.num_layers;
    mc.seed = config.seed;
    model_ = std::make_unique<TransformerModel>(mc);

    std::vector<std::size_t> train;
    for (std::size_t i = 0; i < dataset.num_sequences(); ++i)
        if (dataset.split[i] == Split::kTrain) train.push_back(i);
    FARE_CHECK(!train.empty(), "dataset has no training sequences");
    for (std::size_t start = 0; start < train.size(); start += kSequencesPerBatch) {
        const std::size_t end = std::min(start + kSequencesPerBatch, train.size());
        batches_.emplace_back(train.begin() + static_cast<std::ptrdiff_t>(start),
                              train.begin() + static_cast<std::ptrdiff_t>(end));
    }
}

Matrix TransformerTrainer::forward_batch(const std::vector<std::size_t>& seqs) {
    std::vector<const std::vector<int>*> toks;
    toks.reserve(seqs.size());
    for (std::size_t s : seqs) toks.push_back(&dataset_.tokens[s]);
    return model_->forward(toks);
}

void TransformerTrainer::preprocess(HardwareModel& hardware) {
    hardware.preprocess({});  // no adjacency stream for sequences
}

LossResult TransformerTrainer::train_step(std::size_t batch_idx,
                                          MetricAccumulator& train_acc) {
    const auto& seqs = batches_[batch_idx];
    const Matrix logits = forward_batch(seqs);
    std::vector<int> labels(seqs.size());
    for (std::size_t i = 0; i < seqs.size(); ++i) labels[i] = dataset_.labels[seqs[i]];
    const std::vector<bool> mask(seqs.size(), true);
    LossResult loss = softmax_cross_entropy(logits, labels, mask);
    if (loss.count == 0) return loss;
    train_acc.update(logits, labels, mask);
    model_->backward(loss.grad);
    return loss;
}

void TransformerTrainer::evaluate(MetricAccumulator& acc, Split split) {
    std::vector<std::size_t> seqs;
    for (std::size_t i = 0; i < dataset_.num_sequences(); ++i)
        if (dataset_.split[i] == split) seqs.push_back(i);
    if (seqs.empty()) return;
    const Matrix logits = forward_batch(seqs);
    std::vector<int> labels(seqs.size());
    for (std::size_t i = 0; i < seqs.size(); ++i) labels[i] = dataset_.labels[seqs[i]];
    acc.update(logits, labels, std::vector<bool>(seqs.size(), true));
}

}  // namespace fare
