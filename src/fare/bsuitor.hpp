// b-Suitor: half-approximation algorithm for maximum-weight b-matching
// (Khan et al., "Efficient Approximation Algorithms for Weighted b-Matching",
// SIAM SISC 2016 — reference [15] of the paper).
//
// FARe uses it with b = 1 to solve the row-to-row assignment inside cost(i,j)
// (Algorithm 1 line 5): exact Hungarian matching would cost O(n^3) per
// (block, crossbar) pair, while b-Suitor is near-linear in the number of
// candidate edges and guarantees at least half the optimal weight.
// best_row_permutation runs its own bipartite single-slot kernel with this
// function's processing order; this general version is the oracle its
// tests compare against.
#pragma once

#include <cstdint>
#include <vector>

namespace fare {

struct WeightedEdge {
    std::uint32_t u = 0;
    std::uint32_t v = 0;
    double w = 0.0;
};

/// Result of a b-matching: for each vertex, the list of matched partners.
struct BMatching {
    std::vector<std::vector<std::uint32_t>> partners;
    double total_weight = 0.0;

    bool are_matched(std::uint32_t u, std::uint32_t v) const;
};

/// Maximum-weight b-matching on a general graph with `num_vertices` vertices.
/// `capacity[v]` bounds the number of edges matched at v. Edges with
/// non-positive weight are ignored. Guarantees >= 1/2 OPT.
BMatching bsuitor_match(std::uint32_t num_vertices,
                        const std::vector<WeightedEdge>& edges,
                        const std::vector<std::uint32_t>& capacity);

/// Convenience: b = 1 everywhere (classic suitor matching).
BMatching suitor_match(std::uint32_t num_vertices,
                       const std::vector<WeightedEdge>& edges);

}  // namespace fare
