// Stuck-at-fault (SAF) model for ReRAM crossbars.
//
// Paper §II-A / §V-A: SAFs pin a cell to low resistance (stuck-at-1) or high
// resistance (stuck-at-0); they cluster around fault centres, which the paper
// models as a Poisson distribution of fault counts *across* crossbars with a
// uniform distribution *within* each crossbar, and a configurable SA0:SA1
// ratio (9:1 from characterisation data [6], plus a pessimistic 1:1).
// Pre-deployment faults exist at t = 0-; post-deployment faults accumulate
// with write wear and are injected incrementally between epochs.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace fare {

class Rng;

enum class FaultType : std::uint8_t { kSA0 = 1, kSA1 = 2 };

struct CellFault {
    std::uint16_t row = 0;
    std::uint16_t col = 0;
    FaultType type = FaultType::kSA0;
};

/// Fault map of a single crossbar, stored as three row-major bit planes:
/// SA0, SA1 and soft. Row r owns ceil(cols / 64) 64-bit words in each
/// plane, and column c is bit c % 64 of the row's word c / 64; bits past
/// `cols` in a row's last word stay zero. A faulty cell has exactly one of
/// its SA0/SA1 bits set, and its soft bit marks it re-formable; a healthy
/// cell has all three clear.
///
/// Consumers read the planes in place through set-bit iteration
/// (for_each_fault, for_each_fault_in_row): faults come out in ascending
/// (row, col) order and no consumer builds a copy of the fault list.
/// without_columns() is the one column filter: the redundancy baseline's
/// spare columns (repair_worst_columns) and the online engine's substituted
/// columns (OnlineToleranceEngine::repaired_map) both drop faults through it.
class FaultMap {
public:
    using Word = std::uint64_t;
    static constexpr std::size_t kWordBits = 64;

    FaultMap() = default;
    FaultMap(std::uint16_t rows, std::uint16_t cols);

    std::uint16_t rows() const { return rows_; }
    std::uint16_t cols() const { return cols_; }

    /// Add (or overwrite) a fault at a cell. `soft` marks a transient
    /// (re-formable) stuck-at: it corrupts reads and is BIST-detected exactly
    /// like a hard fault, but a re-forming pulse train (Crossbar::reform)
    /// can clear it. Hard faults are permanent.
    void add(std::uint16_t row, std::uint16_t col, FaultType type,
             bool soft = false);

    /// Remove the fault at a cell (no-op when healthy). Used by the online
    /// correction path after a successful re-form.
    void clear(std::uint16_t row, std::uint16_t col);

    /// Fault at a cell, if any.
    std::optional<FaultType> at(std::uint16_t row, std::uint16_t col) const;

    bool is_faulty(std::uint16_t row, std::uint16_t col) const {
        const std::size_t w = word(row, col);
        return ((sa0_[w] | sa1_[w]) & bit(col)) != 0;
    }

    /// True iff the cell holds a *soft* (re-formable) fault.
    bool is_soft(std::uint16_t row, std::uint16_t col) const {
        return (soft_[word(row, col)] & bit(col)) != 0;
    }

    /// Words per row in each plane: ceil(cols / 64).
    std::size_t words_per_row() const { return words_; }

    /// Row `row` of the SA0 / SA1 plane (words_per_row() words, layout as
    /// above): word-parallel readers AND them against their own bit rows.
    std::span<const Word> sa0_row(std::uint16_t row) const {
        FARE_DCHECK(row < rows_, "row out of range");
        return {sa0_.data() + static_cast<std::size_t>(row) * words_, words_};
    }
    std::span<const Word> sa1_row(std::uint16_t row) const {
        FARE_DCHECK(row < rows_, "row out of range");
        return {sa1_.data() + static_cast<std::size_t>(row) * words_, words_};
    }

    /// Call fn(CellFault) for every fault of one row, in ascending column
    /// order.
    template <typename Fn>
    void for_each_fault_in_row(std::uint16_t row, Fn&& fn) const {
        FARE_DCHECK(row < rows_, "row out of range");
        const std::size_t base = static_cast<std::size_t>(row) * words_;
        for (std::size_t w = 0; w < words_; ++w) {
            const Word sa1 = sa1_[base + w];
            for (Word any = sa0_[base + w] | sa1; any != 0; any &= any - 1) {
                const int b = std::countr_zero(any);
                fn(CellFault{row, static_cast<std::uint16_t>(w * kWordBits + b),
                             ((sa1 >> b) & 1u) != 0 ? FaultType::kSA1
                                                    : FaultType::kSA0});
            }
        }
    }

    /// Call fn(CellFault) for every fault, in ascending (row, col) order.
    template <typename Fn>
    void for_each_fault(Fn&& fn) const {
        for (std::uint16_t r = 0; r < rows_; ++r) for_each_fault_in_row(r, fn);
    }

    /// This map without the faults on the columns flagged in `columns` (one
    /// flag per column). Soft flags of the kept faults are kept.
    FaultMap without_columns(const std::vector<bool>& columns) const;

    /// This map with every soft flag cleared: what a march test detects,
    /// since a soft stuck-at reads exactly like a hard one.
    FaultMap without_soft_flags() const;

    std::size_t num_faults() const { return num_sa0_ + num_sa1_; }
    std::size_t num_sa0() const { return num_sa0_; }
    std::size_t num_sa1() const { return num_sa1_; }
    std::size_t num_soft() const { return num_soft_; }

    /// Fraction of faulty cells.
    double fault_density() const;

private:
    std::size_t word(std::uint16_t r, std::uint16_t c) const {
        FARE_DCHECK(r < rows_ && c < cols_, "fault position out of range");
        return static_cast<std::size_t>(r) * words_ + c / kWordBits;
    }
    static Word bit(std::uint16_t c) { return Word{1} << (c % kWordBits); }

    std::uint16_t rows_ = 0;
    std::uint16_t cols_ = 0;
    std::size_t words_ = 0;
    std::vector<Word> sa0_, sa1_, soft_;  // rows x words_ each
    std::size_t num_sa0_ = 0;
    std::size_t num_sa1_ = 0;
    std::size_t num_soft_ = 0;
};

/// Injection parameters (paper §V-A).
struct FaultInjectionConfig {
    /// Fraction of all cells that are faulty ("fault density").
    double density = 0.05;
    /// Fraction of faults that are SA1 (0.1 => SA0:SA1 = 9:1; 0.5 => 1:1).
    double sa1_fraction = 0.1;
    /// Clustering of faults across crossbars ("fault centers" [6]): each
    /// crossbar's fault count is Poisson with a Gamma-distributed rate of
    /// this shape (a Gamma–Poisson mixture). Small shape => strongly
    /// clustered: many near-clean crossbars, a few fault centers. <= 0
    /// degenerates to a pure Poisson with fixed rate (no clustering).
    double cluster_shape = 1.5;
    std::uint64_t seed = 1;
};

/// Sample fault maps for `num_crossbars` crossbars: Poisson-distributed fault
/// counts across crossbars, uniform placement within each crossbar.
std::vector<FaultMap> inject_faults(std::size_t num_crossbars, std::uint16_t rows,
                                    std::uint16_t cols,
                                    const FaultInjectionConfig& config);

/// Add post-deployment faults on top of one map: `added_density` more of its
/// cells become faulty (skipping already-faulty cells). Returns the number of
/// faults placed; `soft` marks them as re-formable.
std::size_t inject_additional_faults(FaultMap& map, double added_density,
                                     double sa1_fraction, Rng& rng,
                                     bool soft = false);

/// Aggregate density over a set of crossbars.
double mean_fault_density(const std::vector<FaultMap>& maps);

/// Hardware redundancy baseline [8]: replace the `num_spares` columns with
/// the most (SA1-weighted) faults by spare columns, i.e. drop their faults
/// from the map. Spares are assumed fault-free — the usual optimistic
/// assumption for the redundancy baseline.
FaultMap repair_worst_columns(const FaultMap& map, std::size_t num_spares,
                              double sa1_weight = 4.0);

}  // namespace fare
