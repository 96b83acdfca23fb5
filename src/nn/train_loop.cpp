#include "nn/train_loop.hpp"

#include <numeric>

#include "common/error.hpp"
#include "common/fp_mode.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "nn/optimizer.hpp"

namespace fare {

TrainLoop::TrainLoop(const TrainConfig& config, HardwareModel* hardware,
                     int num_classes, std::uint64_t shuffle_salt)
    : hardware_(hardware),
      config_(config),
      num_classes_(num_classes),
      shuffle_salt_(shuffle_salt) {
    FARE_CHECK(config.epochs >= 1, "need at least one epoch");
}

void TrainLoop::refresh_effective_weights() {
    const std::uint64_t hw_version =
        hardware_ != nullptr ? hardware_->weights_state_version() : 0;
    if (weights_refreshed_once_ && refreshed_params_version_ == params_version_ &&
        refreshed_hw_version_ == hw_version)
        return;  // nothing changed since the last corruption pass

    ParamModel& model = param_model();
    if (hardware_ == nullptr) {
        model.sync_effective();
    } else {
        auto params = model.params();
        auto eff = model.effective_params();
        for (std::size_t i = 0; i < params.size(); ++i)
            *eff[i] = hardware_->effective_weights(i, *params[i]);
    }
    weights_refreshed_once_ = true;
    refreshed_params_version_ = params_version_;
    refreshed_hw_version_ = hw_version;
}

MetricAccumulator TrainLoop::evaluate_split(Split split) {
    FlushDenormalsScope flush;  // also reached outside run(): deployment eval
    refresh_effective_weights();
    MetricAccumulator acc(num_classes_);
    evaluate(acc, split);
    return acc;
}

std::vector<Matrix> TrainLoop::export_params() {
    std::vector<Matrix> out;
    for (Matrix* p : param_model().params()) out.push_back(*p);
    return out;
}

void TrainLoop::import_params(const std::vector<Matrix>& params) {
    auto dst = param_model().params();
    FARE_CHECK(params.size() == dst.size(), "parameter count mismatch on import");
    for (std::size_t i = 0; i < params.size(); ++i) {
        FARE_CHECK(params[i].rows() == dst[i]->rows() &&
                       params[i].cols() == dst[i]->cols(),
                   "parameter shape mismatch on import");
        *dst[i] = params[i];
    }
    ++params_version_;
}

void TrainLoop::prepare_hardware() {
    if (hardware_ == nullptr) return;
    hardware_->bind_params(param_model().params());
    preprocess(*hardware_);
}

double TrainLoop::evaluate_test_accuracy() {
    return evaluate_split(Split::kTest).accuracy();
}

TrainResult TrainLoop::run() {
    // Backpropagation drives gradients subnormal, and subnormal arithmetic
    // is slow; flushing them to zero leaves every canonical output
    // byte-identical (docs/performance.md § Floating-point mode).
    FlushDenormalsScope flush;
    TrainResult result;
    result.partition_quality = partition_quality_;
    Stopwatch prep_watch;
    prepare_hardware();
    result.preprocess_seconds = prep_watch.elapsed_seconds();

    ParamModel& model = param_model();
    Adam optimizer(config_.lr);
    Rng epoch_rng(config_.seed ^ shuffle_salt_);
    Stopwatch train_watch;

    std::vector<std::size_t> order(num_batches());
    std::iota(order.begin(), order.end(), 0u);

    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
        epoch_rng.shuffle(order);
        float loss_acc = 0.0f;
        std::size_t loss_batches = 0;
        MetricAccumulator train_acc(num_classes_);

        for (std::size_t step = 0; step < order.size(); ++step) {
            refresh_effective_weights();
            model.zero_grads();
            const LossResult loss = train_step(order[step], train_acc);
            if (loss.count == 0) continue;
            optimizer.step(model.params(), model.grads());
            ++params_version_;
            // Step hook: write-endurance accounting and mid-epoch fault
            // arrival. A hardware model that changes fault state here bumps
            // its version stamps, so the next refresh recomputes exactly then.
            if (hardware_ != nullptr)
                hardware_->on_step_end(epoch, step, order.size());
            loss_acc += loss.loss;
            ++loss_batches;
        }

        if (hardware_ != nullptr) hardware_->on_epoch_end(epoch);

        if (config_.record_curve) {
            EpochStats stats;
            stats.train_loss = loss_batches ? loss_acc / static_cast<float>(loss_batches)
                                            : 0.0f;
            stats.train_accuracy = train_acc.accuracy();
            stats.val_accuracy = evaluate_split(Split::kVal).accuracy();
            result.curve.push_back(stats);
        }
    }

    const MetricAccumulator test = evaluate_split(Split::kTest);
    result.test_accuracy = test.accuracy();
    result.test_macro_f1 = test.macro_f1();
    result.train_seconds = train_watch.elapsed_seconds();
    return result;
}

}  // namespace fare
