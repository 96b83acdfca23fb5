// The training loop every model family runs on (possibly faulty) simulated
// ReRAM hardware — the paper's pipeline (Fig. 2) written once:
//
//   preprocessing:  bind_params, then the family's preprocess (FARe computes
//                   its fault-aware mapping here)
//   every step:     refresh effective weights from the crossbars, forward +
//                   loss + backward (family hook), host-side Adam update,
//                   on_step_end (wear accounting, mid-epoch fault arrival)
//   every epoch:    on_epoch_end (BIST rescan, re-permutation), then the
//                   optional validation curve point
//   finally:        test evaluation on the hardware
//
// A family subclasses TrainLoop and supplies four hooks: its parameter
// surface, its hardware preprocessing, one training step and one evaluation
// pass. Effective weights are recorrupted only when the logical params or
// the hardware's weights_state_version() moved, so an evaluation right after
// a step reuses that step's corruption.
//
// run() and every evaluation compute inside a FlushDenormalsScope
// (common/fp_mode.hpp): subnormal floats flush to zero, on pool helpers too,
// and the caller's FP mode is restored on return.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dataset.hpp"
#include "nn/hardware_model.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/param_model.hpp"
#include "nn/train_types.hpp"

namespace fare {

class TrainLoop {
public:
    virtual ~TrainLoop() = default;

    /// Run the full training loop and final test evaluation.
    TrainResult run();

    /// Copy-out / copy-in of the model's logical parameters, e.g. to deploy
    /// a host-trained model onto (different) faulty hardware.
    std::vector<Matrix> export_params();
    void import_params(const std::vector<Matrix>& params);

    /// Bind + preprocess the attached hardware without training (run() does
    /// this implicitly; needed before evaluate_test_accuracy() on a trainer
    /// that only evaluates).
    void prepare_hardware();

    /// Test accuracy of the current weights on the attached hardware,
    /// without any training.
    double evaluate_test_accuracy();

    /// Fixed mini-batches per epoch (their order is shuffled per epoch).
    virtual std::size_t num_batches() const = 0;

protected:
    /// `hardware` may be null => ideal (fault-free) hardware. Not owned.
    /// `shuffle_salt` is xor-ed into config.seed for the per-epoch batch
    /// order, so families sharing a seed stay decorrelated.
    TrainLoop(const TrainConfig& config, HardwareModel* hardware, int num_classes,
              std::uint64_t shuffle_salt);

    /// The model's logical / gradient / effective parameter lists.
    virtual ParamModel& param_model() = 0;
    /// Family-specific preprocessing after bind_params (adjacency mapping).
    virtual void preprocess(HardwareModel& hardware) = 0;
    /// Forward + loss on batch `batch`; when the batch has supervised rows
    /// (loss.count > 0), also accumulate `train_acc` and backpropagate.
    /// Effective weights are fresh and gradients zeroed on entry.
    virtual LossResult train_step(std::size_t batch, MetricAccumulator& train_acc) = 0;
    /// Forward every example of `split` with the current effective weights
    /// (fresh on entry), accumulating metrics.
    virtual void evaluate(MetricAccumulator& acc, Split split) = 0;

    HardwareModel* const hardware_;
    /// Reported with every TrainResult; graph families fill it in.
    PartitionQuality partition_quality_;

private:
    /// Recorrupt effective weights from the logical params. No-op while
    /// neither the params (stamped by every optimizer step / import) nor the
    /// hardware fault state changed since the last refresh.
    void refresh_effective_weights();
    MetricAccumulator evaluate_split(Split split);

    const TrainConfig config_;
    const int num_classes_;
    const std::uint64_t shuffle_salt_;

    std::uint64_t params_version_ = 1;  // bumped per optimizer step / import
    std::uint64_t refreshed_params_version_ = 0;
    std::uint64_t refreshed_hw_version_ = 0;
    bool weights_refreshed_once_ = false;
};

}  // namespace fare
