// Dense binary matrix: the host-side image of what the crossbars store for a
// batch adjacency (paper: adjacency matrices are stored 1 bit per cell).
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "graph/csr_graph.hpp"

namespace fare {

struct BitMatrix {
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::vector<std::uint8_t> bits;  // row-major 0/1

    BitMatrix() = default;
    BitMatrix(std::size_t r, std::size_t c) : rows(r), cols(c), bits(r * c, 0) {}

    std::uint8_t at(std::size_t r, std::size_t c) const { return bits[r * cols + c]; }
    void set(std::size_t r, std::size_t c, std::uint8_t v) { bits[r * cols + c] = v; }

    /// Adjacency bit-matrix of a graph (symmetric, no self loops).
    static BitMatrix from_graph(const CSRGraph& g) {
        BitMatrix m(g.num_nodes(), g.num_nodes());
        for (NodeId u = 0; u < g.num_nodes(); ++u)
            for (NodeId v : g.neighbors(u)) m.set(u, v, 1);
        return m;
    }
};

}  // namespace fare
