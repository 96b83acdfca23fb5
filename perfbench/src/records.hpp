// Canonical cell records and the checks the benchmark builds on them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/cell.hpp"

namespace farebench {

/// Display JSON of every cell (fare::cell_to_json) with the measured fields
/// zeroed — wall time, cache flag, preprocess and train seconds — exactly the
/// bytes `fare-run --canonical` writes. One string per plan cell.
std::vector<std::string> canonical_records(const std::string& plan_name,
                                           const fare::ResultSet& results);

std::uint64_t fnv1a64(const std::string& bytes);

/// Digest file: '#' comment lines, then one "<plan index> <16 hex digits>"
/// line per cell in plan order. read_digests throws if the file is missing
/// or malformed.
std::vector<std::uint64_t> read_digests(const std::string& path);
void write_digests(const std::string& path, const std::string& header,
                   const std::vector<std::string>& records);

/// Mean, over distinct FARe cells among results.cells[first, first + count)
/// that have a fault-unaware cell at the same coordinates there, of FARe
/// minus fault-unaware test accuracy in percentage points. NaN when there is
/// no such pair.
double fare_acc_gain_pts(const fare::ResultSet& results, std::size_t first,
                         std::size_t count);

}  // namespace farebench
