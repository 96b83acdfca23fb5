#include "fare/row_matcher.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "fare/bsuitor.hpp"
#include "fare/hungarian.hpp"

namespace fare {

namespace {

/// Weighted mismatch cost of putting logical block row `r` on physical row
/// `p` of `map` (columns beyond the block are unused cells). Accumulates in
/// ascending column order.
double row_cost(const BinaryBlock& block, std::uint16_t r, const FaultMap& map,
                std::uint16_t p, const RowMatchWeights& weights) {
    double cost = 0.0;
    map.for_each_fault_in_row(p, [&](const CellFault& f) {
        if (f.col >= block.size) return;
        const std::uint8_t bit = block.at(r, f.col);
        if (f.type == FaultType::kSA0 && bit == 1)
            cost += weights.sa0;
        else if (f.type == FaultType::kSA1 && bit == 0)
            cost += weights.sa1;
    });
    return cost;
}

}  // namespace

double mapping_cost(const BinaryBlock& block, const FaultMap& map,
                    const std::vector<std::uint16_t>& perm,
                    const RowMatchWeights& weights) {
    FARE_CHECK(perm.size() == block.size, "perm size mismatch");
    double cost = 0.0;
    for (std::uint16_t r = 0; r < block.size; ++r) {
        FARE_CHECK(perm[r] < map.rows(), "perm target out of range");
        cost += row_cost(block, r, map, perm[r], weights);
    }
    return cost;
}

std::size_t sa1_nonoverlap_count(const BinaryBlock& block, const FaultMap& map,
                                 const std::vector<std::uint16_t>& perm) {
    FARE_CHECK(perm.size() == block.size, "perm size mismatch");
    std::size_t count = 0;
    for (std::uint16_t r = 0; r < block.size; ++r) {
        FARE_CHECK(perm[r] < map.rows(), "perm target out of range");
        map.for_each_fault_in_row(perm[r], [&](const CellFault& f) {
            if (f.col < block.size && f.type == FaultType::kSA1 &&
                block.at(r, f.col) == 0)
                ++count;
        });
    }
    return count;
}

RowMatchResult best_row_permutation(const BinaryBlock& block, const FaultMap& map,
                                    const RowMatchWeights& weights) {
    const std::uint16_t n = block.size;
    const std::uint16_t phys = map.rows();
    FARE_CHECK(phys >= n, "crossbar has fewer rows than the block");

    // Per-physical-row worst-case cost C_p (all faults mismatch) and the
    // benefit of each (logical, physical) pairing: benefit = C_p - cost.
    // Maximising matched benefit minimises total mismatch cost.
    std::vector<double> base(phys, 0.0);
    std::vector<std::uint16_t> faulty_rows;
    for (std::uint16_t p = 0; p < phys; ++p) {
        map.for_each_fault_in_row(p, [&](const CellFault& f) {
            if (f.col < n)
                base[p] += (f.type == FaultType::kSA1) ? weights.sa1 : weights.sa0;
        });
        if (base[p] > 0.0) faulty_rows.push_back(p);
    }

    // Bipartite benefit graph: logical rows [0, n), faulty physical rows
    // [n, n + faulty_rows.size()).
    std::vector<WeightedEdge> edges;
    for (std::size_t fi = 0; fi < faulty_rows.size(); ++fi) {
        const std::uint16_t p = faulty_rows[fi];
        for (std::uint16_t r = 0; r < n; ++r) {
            const double benefit = base[p] - row_cost(block, r, map, p, weights);
            if (benefit > 0.0)
                edges.push_back({r, static_cast<std::uint32_t>(n + fi), benefit});
        }
    }
    const auto total = static_cast<std::uint32_t>(n + faulty_rows.size());
    const BMatching matching =
        bsuitor_match(total, edges, std::vector<std::uint32_t>(total, 1));

    // Assemble the permutation: matched pairs first, then spread the
    // remaining logical rows over the remaining physical rows, cleanest
    // (lowest C_p) first.
    RowMatchResult result;
    result.perm.assign(n, 0);
    std::vector<bool> log_used(n, false), phys_used(phys, false);
    for (std::uint16_t r = 0; r < n; ++r) {
        const auto& partners = matching.partners[r];
        if (partners.empty()) continue;
        const std::uint16_t p = faulty_rows[partners.front() - n];
        result.perm[r] = p;
        log_used[r] = true;
        phys_used[p] = true;
    }
    std::vector<std::uint16_t> free_phys;
    for (std::uint16_t p = 0; p < phys; ++p)
        if (!phys_used[p]) free_phys.push_back(p);
    std::sort(free_phys.begin(), free_phys.end(),
              [&](std::uint16_t a, std::uint16_t b) {
                  if (base[a] != base[b]) return base[a] < base[b];
                  return a < b;
              });
    std::size_t next = 0;
    for (std::uint16_t r = 0; r < n; ++r) {
        if (log_used[r]) continue;
        result.perm[r] = free_phys[next++];
    }

    result.cost = mapping_cost(block, map, result.perm, weights);
    result.sa1_nonoverlap = static_cast<double>(
        sa1_nonoverlap_count(block, map, result.perm));
    return result;
}

RowMatchResult best_row_permutation_exact(const BinaryBlock& block,
                                          const FaultMap& map,
                                          const RowMatchWeights& weights) {
    const std::uint16_t n = block.size;
    const std::uint16_t phys = map.rows();
    FARE_CHECK(phys >= n, "crossbar has fewer rows than the block");

    std::vector<double> cost(static_cast<std::size_t>(n) * phys, 0.0);
    for (std::uint16_t r = 0; r < n; ++r)
        for (std::uint16_t p = 0; p < phys; ++p)
            cost[static_cast<std::size_t>(r) * phys + p] =
                row_cost(block, r, map, p, weights);

    const AssignmentResult assignment = hungarian_min_cost(n, phys, cost);
    RowMatchResult result;
    result.perm.assign(n, 0);
    for (std::uint16_t r = 0; r < n; ++r)
        result.perm[r] = static_cast<std::uint16_t>(assignment.row_to_col[r]);
    result.cost = assignment.total_cost;
    result.sa1_nonoverlap = static_cast<double>(
        sa1_nonoverlap_count(block, map, result.perm));
    return result;
}

}  // namespace fare
