// High-level orchestration: train one (dataset, model, scheme) combination on
// simulated faulty hardware and report the metrics the paper's figures use.
#pragma once

#include <functional>
#include <memory>

#include "fare/baselines.hpp"
#include "fare/scenario.hpp"
#include "models/gnn/trainer.hpp"

namespace fare {

struct SchemeRunResult {
    Scheme scheme = Scheme::kFaultFree;
    TrainResult train;
    /// Mapping quality diagnostics (0 for fault-free).
    double total_mapping_cost = 0.0;
    std::size_t bist_scans = 0;
    /// Cells worn out by the endurance model during the run (0 unless the
    /// scenario enables wear — see FaultScenario::wear).
    std::size_t wear_faults = 0;
    /// Online detection/correction log (all-zero unless the scheme is one of
    /// the online family — see reram/online_tolerance.hpp).
    OnlineToleranceStats online;
    /// Partition-locality diagnostics (0 for fault-free / no partition
    /// hints): fraction of mapped adjacency blocks placed off their home
    /// tile, and the modelled NoC seconds that traffic cost over the run.
    double off_tile_block_fraction = 0.0;
    double inter_tile_seconds = 0.0;
};

/// Copy the scheme-level diagnostics (mapping cost, BIST scans, wear, online
/// stats, tile locality) out of `hardware` if it is a FaultyHardware; no-op
/// for ideal hardware. run_scheme calls it after every run.
void harvest_scheme_diagnostics(HardwareModel* hardware, SchemeRunResult& out);

/// Builds a family's trainer over `hardware` (not owned; never null).
using TrainerFactory = std::function<std::unique_ptr<TrainLoop>(HardwareModel*)>;

/// Factory for a `T(data, train_config, hardware)` trainer. Both arguments
/// are borrowed and must outlive every call.
template <class T, class Data>
TrainerFactory trainer_factory(const Data& data, const TrainConfig& train_config) {
    return [&data, &train_config](HardwareModel* hardware) -> std::unique_ptr<TrainLoop> {
        return std::make_unique<T>(data, train_config, hardware);
    };
}

/// Lower a FaultScenario + chip overrides into the hardware for `scheme`
/// (seeded with `hw_seed`; kFaultFree gets the ideal quantised reference),
/// run the full training loop and final test evaluation, then harvest the
/// scheme diagnostics. Every model family's run_train goes through here.
SchemeRunResult run_scheme(const TrainerFactory& make_trainer, Scheme scheme,
                           const TrainConfig& train_config,
                           const FaultScenario& scenario,
                           const HardwareOverrides& hw_overrides,
                           std::uint64_t hw_seed);

/// GNN spelling: train a `Trainer` over `dataset`.
SchemeRunResult run_scheme(const Dataset& dataset, Scheme scheme,
                           const TrainConfig& train_config,
                           const FaultScenario& scenario,
                           const HardwareOverrides& hw_overrides,
                           std::uint64_t hw_seed);

/// Fault-free reference run (ideal quantised hardware).
SchemeRunResult run_fault_free(const Dataset& dataset, const TrainConfig& train_config);

/// Deployment scenario (extension): train on ideal hardware (e.g. in the
/// cloud), then deploy the trained weights onto a faulty edge accelerator
/// under `scheme`'s mapping and evaluate there — the inference-side
/// counterpart of the paper's training story.
struct DeploymentResult {
    double trained_accuracy = 0.0;   ///< test accuracy on ideal hardware
    double deployed_accuracy = 0.0;  ///< test accuracy on the faulty chip
};
DeploymentResult run_deployment(const TrainerFactory& make_trainer,
                                const TrainConfig& train_config, Scheme scheme,
                                const FaultScenario& scenario,
                                const HardwareOverrides& hw_overrides,
                                std::uint64_t hw_seed);

/// GNN spelling of run_deployment.
DeploymentResult run_deployment(const Dataset& dataset,
                                const TrainConfig& train_config, Scheme scheme,
                                const FaultScenario& scenario,
                                const HardwareOverrides& hw_overrides,
                                std::uint64_t hw_seed);

}  // namespace fare
