#include "reram/crossbar.hpp"

#include "common/error.hpp"

namespace fare {

Crossbar::Crossbar(std::uint16_t rows, std::uint16_t cols)
    : rows_(rows),
      cols_(cols),
      cells_(static_cast<std::size_t>(rows) * cols, 0),
      cell_writes_(static_cast<std::size_t>(rows) * cols, 0),
      faults_(rows, cols) {
    FARE_CHECK(rows > 0 && cols > 0, "crossbar dimensions must be positive");
}

void Crossbar::set_fault_map(FaultMap map) {
    FARE_CHECK(map.rows() == rows_ && map.cols() == cols_,
               "fault map dimensions must match crossbar");
    faults_ = std::move(map);
}

std::size_t Crossbar::add_random_faults(double added_density, double sa1_fraction,
                                        Rng& rng, bool soft) {
    return inject_additional_faults(faults_, added_density, sa1_fraction, rng, soft);
}

void Crossbar::program(std::uint16_t row, std::uint16_t col, std::uint8_t level) {
    FARE_CHECK(row < rows_ && col < cols_, "program position out of range");
    FARE_CHECK(level <= max_level(), "level exceeds cell resolution");
    ++writes_;
    const std::uint32_t cell_count = ++cell_writes_[index(row, col)];
    if (cell_count > max_cell_extra_) max_cell_extra_ = cell_count;
    cells_[index(row, col)] = level;  // stuck cells keep their stored value
}

void Crossbar::program_row(std::uint16_t row, const std::vector<std::uint8_t>& levels) {
    FARE_CHECK(levels.size() == cols_, "row width mismatch");
    for (std::uint16_t c = 0; c < cols_; ++c) program(row, c, levels[c]);
}

std::uint8_t Crossbar::read(std::uint16_t row, std::uint16_t col) const {
    FARE_CHECK(row < rows_ && col < cols_, "read position out of range");
    const auto fault = faults_.at(row, col);
    if (fault.has_value())
        return *fault == FaultType::kSA0 ? 0 : max_level();
    return cells_[index(row, col)];
}

std::uint8_t Crossbar::stored(std::uint16_t row, std::uint16_t col) const {
    FARE_CHECK(row < rows_ && col < cols_, "stored position out of range");
    return cells_[index(row, col)];
}

bool Crossbar::reform(std::uint16_t row, std::uint16_t col, std::uint32_t pulses) {
    FARE_CHECK(row < rows_ && col < cols_, "reform position out of range");
    FARE_CHECK(pulses > 0, "reform needs at least one pulse");
    writes_ += pulses;
    const std::uint32_t cell_count = (cell_writes_[index(row, col)] += pulses);
    if (cell_count > max_cell_extra_) max_cell_extra_ = cell_count;
    if (faults_.is_soft(row, col)) faults_.clear(row, col);
    return !faults_.is_faulty(row, col);
}

}  // namespace fare
