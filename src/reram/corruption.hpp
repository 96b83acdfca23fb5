// Value-corruption fast path: the effect of stuck cells on stored matrices.
//
// Training applies faults by corrupting the *values* a crossbar would return
// rather than simulating every analog MVM — exactly what the paper's
// PyTorch-on-NeuroSim wrapper does (§V-A). Unit tests assert these functions
// are bit-identical to reading back through reram/mvm_engine.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "numeric/matrix.hpp"
#include "numeric/quantize.hpp"
#include "reram/fault_model.hpp"

namespace fare {

/// Per-weight fault masks covering a (rows x cols*8) cell region that
/// stores a (rows x cols) weight matrix, folded from the bit planes of the
/// per-crossbar fault maps in the same grid layout ProgrammedWeights uses.
/// Only faulty weights are stored.
class WeightFaultGrid {
public:
    WeightFaultGrid() = default;

    /// Build for a (rows x cols) weight matrix from fault maps of the
    /// row-major crossbar grid (same geometry as ProgrammedWeights).
    WeightFaultGrid(std::size_t rows, std::size_t cols,
                    const std::vector<FaultMap>& grid_maps,
                    std::uint16_t xb_rows = 128, std::uint16_t xb_cols = 128);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return rows_ == 0 || cols_ == 0; }

    /// Fault on slice s (0 = MSB slice) of weight (r, c), if any: a binary
    /// search of row r's mask list, then mask_slice_fault.
    std::optional<FaultType> slice_fault(std::size_t r, std::size_t c, int s) const;

    /// Fault on slice s of a weight with masks (and_mask, or_mask): the slice
    /// is faulty iff its two bits are cleared in and_mask, and SA1 iff they
    /// are set in or_mask.
    static std::optional<FaultType> mask_slice_fault(std::uint16_t and_mask,
                                                     std::uint16_t or_mask, int s);

    /// Faulty weights of one physical row: parallel arrays sorted by weight
    /// column, one entry per weight with at least one faulty cell, each
    /// weight's faulty slices already folded into 16-bit AND/OR masks over
    /// the sign-magnitude cell image (a stuck-at-0 slice clears its two
    /// image bits, stuck-at-1 sets them). Pre-folded, structure-of-arrays:
    /// CompiledFaultOverlay compiles by memcpy-ing the mask arrays and
    /// offsetting the columns — corrupt_weights() compiles an overlay on
    /// every call, so this is on the per-batch path.
    struct RowMasks {
        std::span<const std::uint32_t> cols;       ///< weight columns
        std::span<const std::uint16_t> and_masks;  ///< faulty slices cleared
        std::span<const std::uint16_t> or_masks;   ///< SA1 slices set
    };

    /// Pre-folded mask entries of physical row r. Lets CompiledFaultOverlay
    /// compile in O(faulty weights).
    RowMasks row_mask_list(std::size_t r) const {
        const std::size_t b = row_offsets_[r], n = row_offsets_[r + 1] - b;
        return {{fault_cols_.data() + b, n},
                {fault_and_.data() + b, n},
                {fault_or_.data() + b, n}};
    }

    /// Total faulty cells covering the weight region.
    std::size_t num_faults() const { return num_faults_; }

private:
    /// The two sign-magnitude image bits of slice s (0 = MSB slice).
    static std::uint16_t slice_bits(int s) {
        return static_cast<std::uint16_t>(
            0x3u << (kFixedTotalBits - kBitsPerCell * (s + 1)));
    }

    std::size_t rows_ = 0, cols_ = 0;
    // Sparse pre-folded mask index, sorted by (row, weight_col): rows_ + 1
    // offsets into three parallel arrays.
    std::vector<std::size_t> row_offsets_;
    std::vector<std::uint32_t> fault_cols_;
    std::vector<std::uint16_t> fault_and_;
    std::vector<std::uint16_t> fault_or_;
    std::size_t num_faults_ = 0;
};

/// Apply stuck-cell corruption to a single fixed-point value.
std::int16_t corrupt_fixed(std::int16_t q, const WeightFaultGrid& grid, std::size_t r,
                           std::size_t c);

/// Effective weight matrix the tile computes with: quantise -> slice ->
/// stuck-cell overlay -> shift-and-add -> dequantise, then optionally clamp
/// to [-clip, clip] (the 16-bit comparator + 2:1 mux clipping unit).
/// Implemented by compiling a CompiledFaultOverlay on the fly; hot callers
/// that apply the same fault pattern repeatedly (the training loop) should
/// compile once and call CompiledFaultOverlay::apply per batch instead.
Matrix corrupt_weights(const Matrix& w, const WeightFaultGrid& grid,
                       std::optional<float> clip = std::nullopt);

/// Same, but with a logical->physical row permutation applied first (the
/// neuron-reordering baseline moves whole weight rows): logical row r is
/// stored at physical row perm[r].
Matrix corrupt_weights_permuted(const Matrix& w, const WeightFaultGrid& grid,
                                const std::vector<std::uint16_t>& perm,
                                std::optional<float> clip = std::nullopt);

/// Scalar reference implementations (the pre-overlay code path): one checked
/// slice_fault lookup per cell per weight through corrupt_fixed. Kept as the
/// oracle for the overlay-equivalence tests and as the baseline the
/// bench_micro_corruption speedup is measured against. Not for hot loops.
Matrix corrupt_weights_reference(const Matrix& w, const WeightFaultGrid& grid,
                                 std::optional<float> clip = std::nullopt);
Matrix corrupt_weights_permuted_reference(const Matrix& w, const WeightFaultGrid& grid,
                                          const std::vector<std::uint16_t>& perm,
                                          std::optional<float> clip = std::nullopt);

/// Dense binary (size x size) adjacency block (paper: adjacency is stored 1
/// bit per cell), its rows in FaultMap's row word layout: row r owns
/// ceil(size / 64) words, column c is bit c % 64 of the row's word c / 64,
/// and bits at columns >= size stay zero. The row matcher and the corruption
/// pass AND these words against a fault map's planes in place.
class BinaryBlock {
public:
    using Word = FaultMap::Word;

    explicit BinaryBlock(std::uint16_t size);  ///< all zero

    std::uint16_t size() const { return size_; }
    std::size_t words_per_row() const { return words_; }

    std::uint8_t at(std::uint16_t r, std::uint16_t c) const {
        return static_cast<std::uint8_t>((bits_[word(r, c)] >> (c % FaultMap::kWordBits)) & 1u);
    }
    void set(std::uint16_t r, std::uint16_t c, std::uint8_t v) {
        const Word bit = Word{1} << (c % FaultMap::kWordBits);
        if (v != 0) bits_[word(r, c)] |= bit;
        else bits_[word(r, c)] &= ~bit;
    }

    /// Row r's words_per_row() words. Writers through the mutable span keep
    /// the bits at columns >= size zero.
    std::span<const Word> row(std::uint16_t r) const {
        FARE_DCHECK(r < size_, "block row out of range");
        return {bits_.data() + static_cast<std::size_t>(r) * words_, words_};
    }
    std::span<Word> row(std::uint16_t r) {
        FARE_DCHECK(r < size_, "block row out of range");
        return {bits_.data() + static_cast<std::size_t>(r) * words_, words_};
    }

    /// Fraction of ones (the paper's "edge density" of a block).
    double edge_density() const;

    bool operator==(const BinaryBlock&) const = default;

private:
    std::size_t word(std::uint16_t r, std::uint16_t c) const {
        FARE_DCHECK(r < size_ && c < size_, "block cell out of range");
        return static_cast<std::size_t>(r) * words_ + c / FaultMap::kWordBits;
    }

    std::uint16_t size_ = 0;
    std::size_t words_ = 0;
    std::vector<Word> bits_;  // size_ x words_
};

/// Effective adjacency block after storing it on a faulty crossbar with
/// logical row r placed at physical row perm[r]: SA1 adds an edge bit, SA0
/// deletes one (paper Fig. 1b). One word pass per row, (bits & ~sa0) | sa1.
BinaryBlock corrupt_adjacency_block(const BinaryBlock& block, const FaultMap& map,
                                    const std::vector<std::uint16_t>& perm);

/// Identity permutation of length n.
std::vector<std::uint16_t> identity_perm(std::uint16_t n);

}  // namespace fare
