#include "reram/corruption.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "reram/compiled_overlay.hpp"

namespace fare {

WeightFaultGrid::WeightFaultGrid(std::size_t rows, std::size_t cols,
                                 const std::vector<FaultMap>& grid_maps,
                                 std::uint16_t xb_rows, std::uint16_t xb_cols)
    : rows_(rows), cols_(cols) {
    FARE_CHECK(xb_cols % kCellsPerWeight == 0,
               "crossbar width must hold whole weights");
    const std::size_t wpx = static_cast<std::size_t>(xb_cols) / kCellsPerWeight;
    const std::size_t grid_rows = (rows + xb_rows - 1) / xb_rows;
    const std::size_t grid_cols = (cols + wpx - 1) / wpx;
    FARE_CHECK(grid_maps.size() == grid_rows * grid_cols,
               "need one fault map per grid crossbar");

    for (const FaultMap& map : grid_maps)
        FARE_CHECK(map.rows() == xb_rows && map.cols() == xb_cols,
                   "fault map geometry mismatch");

    // Physical row r is row r % xb_rows of grid row r / xb_rows. Walking its
    // grid columns left to right visits the faults in (weight column, slice)
    // order, so each faulty weight's slices arrive adjacent and fold into
    // one AND/OR mask pair over the sign-magnitude cell image.
    row_offsets_.assign(rows + 1, 0);
    for (std::size_t r = 0; r < rows; ++r) {
        const auto map_row = static_cast<std::uint16_t>(r % xb_rows);
        for (std::size_t gc = 0; gc < grid_cols; ++gc) {
            const FaultMap& map = grid_maps[(r / xb_rows) * grid_cols + gc];
            map.for_each_fault_in_row(map_row, [&](const CellFault& f) {
                const std::size_t weight_c = gc * wpx + f.col / kCellsPerWeight;
                if (weight_c >= cols) return;
                if (fault_cols_.size() == row_offsets_[r] ||
                    fault_cols_.back() != weight_c) {
                    fault_cols_.push_back(static_cast<std::uint32_t>(weight_c));
                    fault_and_.push_back(0xFFFFu);
                    fault_or_.push_back(0);
                }
                const std::uint16_t bits = slice_bits(f.col % kCellsPerWeight);
                fault_and_.back() &= static_cast<std::uint16_t>(~bits);
                if (f.type == FaultType::kSA1) fault_or_.back() |= bits;
                ++num_faults_;
            });
        }
        row_offsets_[r + 1] = fault_cols_.size();
    }
}

std::optional<FaultType> WeightFaultGrid::slice_fault(std::size_t r, std::size_t c,
                                                      int s) const {
    FARE_CHECK(r < rows_ && c < cols_ && s >= 0 && s < kCellsPerWeight,
               "slice_fault index out of range");
    const RowMasks row = row_mask_list(r);
    const auto it = std::lower_bound(row.cols.begin(), row.cols.end(), c);
    if (it == row.cols.end() || *it != c) return std::nullopt;
    const auto i = static_cast<std::size_t>(it - row.cols.begin());
    return mask_slice_fault(row.and_masks[i], row.or_masks[i], s);
}

std::optional<FaultType> WeightFaultGrid::mask_slice_fault(std::uint16_t and_mask,
                                                           std::uint16_t or_mask,
                                                           int s) {
    const std::uint16_t bits = slice_bits(s);
    if ((and_mask & bits) != 0) return std::nullopt;
    return (or_mask & bits) == bits ? FaultType::kSA1 : FaultType::kSA0;
}

std::int16_t corrupt_fixed(std::int16_t q, const WeightFaultGrid& grid, std::size_t r,
                           std::size_t c) {
    CellSlices slices = slice_fixed(q);
    for (int s = 0; s < kCellsPerWeight; ++s) {
        const auto fault = grid.slice_fault(r, c, s);
        if (!fault.has_value()) continue;
        slices[static_cast<std::size_t>(s)] =
            (*fault == FaultType::kSA0) ? 0 : 0x3;
    }
    return unslice_fixed(slices);
}

Matrix corrupt_weights(const Matrix& w, const WeightFaultGrid& grid,
                       std::optional<float> clip) {
    // No-permutation fast path: identity placement is the overlay default, so
    // no identity_perm vector is materialised per call.
    return CompiledFaultOverlay(grid, w.rows(), w.cols()).apply(w, clip);
}

Matrix corrupt_weights_permuted(const Matrix& w, const WeightFaultGrid& grid,
                                const std::vector<std::uint16_t>& perm,
                                std::optional<float> clip) {
    FARE_CHECK(perm.size() == w.rows(), "permutation size mismatch");
    return CompiledFaultOverlay(grid, w.rows(), w.cols(), perm).apply(w, clip);
}

Matrix corrupt_weights_reference(const Matrix& w, const WeightFaultGrid& grid,
                                 std::optional<float> clip) {
    return corrupt_weights_permuted_reference(
        w, grid, identity_perm(static_cast<std::uint16_t>(w.rows())), clip);
}

Matrix corrupt_weights_permuted_reference(const Matrix& w, const WeightFaultGrid& grid,
                                          const std::vector<std::uint16_t>& perm,
                                          std::optional<float> clip) {
    FARE_CHECK(grid.rows() >= w.rows() && grid.cols() == w.cols(),
               "fault grid does not cover weight matrix");
    FARE_CHECK(perm.size() == w.rows(), "permutation size mismatch");
    Matrix out(w.rows(), w.cols());
    for (std::size_t r = 0; r < w.rows(); ++r) {
        const std::size_t pr = perm[r];
        FARE_CHECK(pr < grid.rows(), "permutation target out of range");
        for (std::size_t c = 0; c < w.cols(); ++c) {
            const std::int16_t q = float_to_fixed(w(r, c));
            float v = fixed_to_float(corrupt_fixed(q, grid, pr, c));
            if (clip.has_value()) v = std::clamp(v, -*clip, *clip);
            out(r, c) = v;
        }
    }
    return out;
}

BinaryBlock::BinaryBlock(std::uint16_t size)
    : size_(size),
      words_((size + FaultMap::kWordBits - 1) / FaultMap::kWordBits),
      bits_(static_cast<std::size_t>(size) * words_, 0) {}

double BinaryBlock::edge_density() const {
    if (bits_.empty()) return 0.0;
    std::size_t ones = 0;
    for (const Word w : bits_) ones += static_cast<std::size_t>(std::popcount(w));
    return static_cast<double>(ones) /
           (static_cast<double>(size_) * static_cast<double>(size_));
}

BinaryBlock corrupt_adjacency_block(const BinaryBlock& block, const FaultMap& map,
                                    const std::vector<std::uint16_t>& perm) {
    using Word = BinaryBlock::Word;
    FARE_CHECK(map.rows() >= block.size() && map.cols() >= block.size(),
               "fault map smaller than block");
    FARE_CHECK(perm.size() == block.size(), "permutation size mismatch");
    BinaryBlock out(block.size());
    // The map's columns past the block are cut from each row's last word.
    const std::size_t tail = block.size() % FaultMap::kWordBits;
    const Word last = tail == 0 ? ~Word{0} : (Word{1} << tail) - 1;
    for (std::uint16_t r = 0; r < block.size(); ++r) {
        FARE_CHECK(perm[r] < map.rows(), "permutation target out of range");
        const auto bits = block.row(r);
        const auto sa0 = map.sa0_row(perm[r]);
        const auto sa1 = map.sa1_row(perm[r]);
        const auto dst = out.row(r);
        for (std::size_t k = 0; k < dst.size(); ++k) dst[k] = (bits[k] & ~sa0[k]) | sa1[k];
        dst.back() &= last;
    }
    return out;
}

std::vector<std::uint16_t> identity_perm(std::uint16_t n) {
    std::vector<std::uint16_t> perm(n);
    for (std::uint16_t i = 0; i < n; ++i) perm[i] = i;
    return perm;
}

}  // namespace fare
