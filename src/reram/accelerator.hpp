// The ReRAM PIM accelerator: a pool of tiles with flat crossbar addressing,
// fault injection, BIST scanning and region allocation.
//
// Weight matrices are allocated to a fixed crossbar range once (they stay
// resident across training); adjacency blocks stream through a separate range
// every mini-batch (paper Fig. 2). The accelerator tracks per-crossbar write
// counts so wear-driven post-deployment fault injection has a hook.
#pragma once

#include <cstdint>
#include <vector>

#include "reram/bist.hpp"
#include "reram/tile.hpp"

namespace fare {

class Rng;

struct AcceleratorConfig {
    TileSpec tile;
    int num_tiles = 4;
};

/// Contiguous range of flat crossbar indices reserved for one matrix.
struct CrossbarRange {
    std::size_t first = 0;
    std::size_t count = 0;
};

class Accelerator {
public:
    explicit Accelerator(const AcceleratorConfig& config = {});

    const AcceleratorConfig& config() const { return config_; }
    std::size_t num_crossbars() const;
    std::size_t num_tiles() const { return tiles_.size(); }

    /// Flat indexing across tiles: crossbar i lives in tile i / per_tile.
    Crossbar& crossbar(std::size_t flat_index);
    const Crossbar& crossbar(std::size_t flat_index) const;

    Tile& tile(std::size_t i);

    /// Reserve the next `count` unallocated crossbars. Throws ResourceError
    /// when the pool is exhausted.
    CrossbarRange allocate(std::size_t count);

    /// Crossbars not yet reserved.
    std::size_t crossbars_available() const;

    /// Inject pre-deployment faults into every crossbar
    /// (Poisson-across / uniform-within; see FaultInjectionConfig).
    void inject_pre_deployment_faults(const FaultInjectionConfig& config);

    /// Post-deployment fault arrival: add faults on top of every crossbar's
    /// map in place, in flat order from one stream (inject_additional_faults).
    /// `soft` places re-formable stuck-ats (soft errors, cleared by
    /// Crossbar::reform on the online correction path; schemes without it
    /// see ordinary permanent stuck-ats), otherwise permanent wear faults.
    /// Returns the number of faults added (the Poisson draws may yield zero
    /// — callers skip their BIST refresh then). When `touched` is non-null
    /// the flat indices of crossbars that received at least one fault are
    /// appended to it (online detection-latency bookkeeping).
    std::size_t inject_fault_arrivals(double added_density, double sa1_fraction,
                                      Rng& rng, bool soft,
                                      std::vector<std::size_t>* touched = nullptr);

    /// Run BIST across all crossbars; returns one detected map per crossbar.
    std::vector<FaultMap> bist_scan_all();

    /// Ground-truth fault maps (copies) — used by tests to validate BIST.
    std::vector<FaultMap> true_fault_maps() const;

    /// Total area / peak power of the modelled chip.
    double total_area_mm2() const;
    double peak_power_w() const;

private:
    AcceleratorConfig config_;
    std::vector<Tile> tiles_;
    std::size_t next_free_ = 0;
};

}  // namespace fare
