#include "fare/row_matcher.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "fare/hungarian.hpp"

namespace fare {

namespace {

using Word = FaultMap::Word;

/// Mismatch costs of a block's rows on the rows of one fault map, over the
/// columns the two share: a column outside either never mismatches. Every
/// cost is a sum of w.sa0 / w.sa1 terms, one per flagged fault, added
/// in ascending column order: walking the flagged bits word by word makes
/// the same floating-point additions as a fault-by-fault walk, so the result
/// is bit-identical to it for any weights.
class RowCosts {
public:
    RowCosts(const BinaryBlock& block, const FaultMap& map, const RowMatchWeights& w)
        : block_(block), map_(map), w_(w),
          colmask_(std::min(block.words_per_row(), map.words_per_row()), 0) {
        const std::uint16_t cols = std::min(block.size(), map.cols());
        for (std::uint16_t c = 0; c < cols; ++c)
            colmask_[c / FaultMap::kWordBits] |= Word{1} << (c % FaultMap::kWordBits);
    }

    /// Words per row both layouts have; the shared columns lie within them.
    std::size_t words() const { return colmask_.size(); }
    /// Word k of the shared-column mask.
    Word columns(std::size_t k) const { return colmask_[k]; }

    /// cost(r, p): SA0 under a stored 1 and SA1 under a stored 0 mismatch.
    double operator()(std::uint16_t r, std::uint16_t p) const {
        const auto bits = block_.row(r);
        const auto sa0 = map_.sa0_row(p);
        const auto sa1 = map_.sa1_row(p);
        double total = 0.0;
        for (std::size_t k = 0; k < words(); ++k) {
            const Word ones = sa1[k] & ~bits[k] & colmask_[k];
            for (Word m = (sa0[k] & bits[k]) | ones; m != 0; m &= m - 1)
                total += ((ones >> std::countr_zero(m)) & 1u) != 0 ? w_.sa1 : w_.sa0;
        }
        return total;
    }

    /// Unweighted SA1-inserts-edge mismatches of block row r on row p.
    std::size_t sa1_inserts(std::uint16_t r, std::uint16_t p) const {
        const auto bits = block_.row(r);
        const auto sa1 = map_.sa1_row(p);
        std::size_t count = 0;
        for (std::size_t k = 0; k < words(); ++k)
            count += static_cast<std::size_t>(std::popcount(sa1[k] & ~bits[k] & colmask_[k]));
        return count;
    }

private:
    const BinaryBlock& block_;
    const FaultMap& map_;
    RowMatchWeights w_;
    std::vector<Word> colmask_;  ///< the shared columns
};

/// Position of one vertex in its candidate order (weight desc, partner
/// asc).
struct Cursor {
    double w = 0.0;  ///< weight of the last candidate proposed to
    /// Heaviest weight the next tie group may have: just below w.
    double limit = std::numeric_limits<double>::infinity();
    std::int32_t at = -1;  ///< index of the last candidate; -1 before the first
};

/// Advance `c` to the next candidate in `list` (weights ascending in partner
/// id; only positive weights are candidates) and return its index, or -1
/// when none is left. The rest of the current tie group comes first, then
/// the first index of the heaviest weight below it: the order a stable sort
/// by weight would give, found lazily because a vertex proposes to few
/// candidates and the benefits take few distinct values. Always inlined:
/// it runs once per proposal, and a call costs as much as a short scan.
[[gnu::always_inline]] inline std::int32_t next_candidate(Cursor& c, const double* list,
                                                          std::int32_t len) {
    if (c.at >= 0)
        for (std::int32_t i = c.at + 1; i < len; ++i)
            if (list[i] == c.w) return c.at = i;
    // Branch-free max over the weights in (0, limit], four lanes wide.
    double lane[4] = {0.0, 0.0, 0.0, 0.0};
    std::int32_t i = 0;
    for (; i + 4 <= len; i += 4)
        for (int j = 0; j < 4; ++j) {
            const double x = list[i + j] <= c.limit ? list[i + j] : 0.0;
            lane[j] = x > lane[j] ? x : lane[j];
        }
    for (; i < len; ++i) {
        const double x = list[i] <= c.limit ? list[i] : 0.0;
        lane[0] = x > lane[0] ? x : lane[0];
    }
    const double best = std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
    if (best == 0.0) {
        c = {0.0, 0.0, len};  // exhausted: neither scan can match again
        return -1;
    }
    i = 0;
    while (list[i] != best) ++i;
    c = {best, std::nextafter(best, 0.0), i};
    return i;
}

/// Bipartite benefit graph of logical rows [0, n) against faulty physical
/// rows [0, f): benefit(r, fi) is an edge where positive. Logical rows come
/// in groups with equal costs, group[r]; group 0 may have many members, any
/// other has one. Stored in both layouts, by_group[group[r] * f + fi] and
/// by_col[fi * n + r], so that every vertex reads its candidates, ascending
/// in partner id, contiguously.
struct BenefitGraph {
    std::size_t n = 0, f = 0;
    std::vector<std::size_t> group;
    std::vector<double> by_group, by_col;
};

/// Single-slot suitor matching (b-Suitor with b = 1, Khan et al., SISC 2016)
/// on `g`, vertices numbered as in the generic bsuitor_match: logical row r
/// is vertex r, faulty row fi is vertex n + fi. Returns each logical row's
/// matched faulty row index, or -1.
///
/// The processing order is that of the generic bsuitor_match on the same
/// edge list, and the result depends on it because the tie-breaks are
/// asymmetric: each vertex proposes in (weight desc, partner asc) order; the
/// proposal stack is LIFO, seeded in ascending vertex order; a proposal
/// displaces an equal-weight one only from a higher proposer id; and the
/// suitor pairs are then accepted heaviest-first, ties by (lower, higher)
/// endpoint, while both endpoints are free.
std::vector<std::int32_t> suitor_rows(const BenefitGraph& g) {
    const auto logical = static_cast<std::int32_t>(g.n);
    const auto faulty = static_cast<std::int32_t>(g.f);
    const std::int32_t total = logical + faulty;
    std::vector<Cursor> cursor(static_cast<std::size_t>(total));
    std::vector<double> slot_w(static_cast<std::size_t>(total), 0.0);
    std::vector<std::int32_t> slot_from(static_cast<std::size_t>(total), -1);
    std::vector<std::int32_t> stack(static_cast<std::size_t>(total));
    std::iota(stack.begin(), stack.end(), 0);

    // Group 0 shares one list, so its members share one candidate sequence.
    // It is extended lazily by whichever member first needs its next entry
    // (-1 ends it), and each member keeps only its position in it.
    Cursor shared_cursor;
    std::vector<std::int32_t> shared_order;
    std::vector<std::size_t> shared_at(g.n, 0);

    while (!stack.empty()) {
        const std::int32_t u = stack.back();
        stack.pop_back();
        const auto uu = static_cast<std::size_t>(u);
        const bool is_logical = u < logical;
        const bool shared = is_logical && g.group[uu] == 0;
        const double* list = is_logical ? g.by_group.data() + g.group[uu] * g.f
                                        : g.by_col.data() + (uu - g.n) * g.n;
        const std::int32_t len = is_logical ? faulty : logical;
        const std::int32_t first_partner = is_logical ? logical : 0;
        Cursor& c = shared ? shared_cursor : cursor[uu];
        while (true) {
            std::int32_t i = 0;
            if (shared && shared_at[uu] < shared_order.size()) {
                i = shared_order[shared_at[uu]];
            } else {
                i = next_candidate(c, list, len);
                if (shared) shared_order.push_back(i);
            }
            if (i < 0) break;
            if (shared) ++shared_at[uu];
            const auto v = static_cast<std::size_t>(first_partner + i);
            const double w = list[i];
            const std::int32_t held = slot_from[v];
            if (held < 0 || w > slot_w[v] || (w == slot_w[v] && u > held)) {
                slot_w[v] = w;
                slot_from[v] = u;
                if (held >= 0) stack.push_back(held);
                break;
            }
        }
    }

    // Under equal-weight ties the suitor relation can end asymmetric, so
    // repair: accept the suitor pairs heaviest-first while both ends are free.
    struct Pair {
        double w;
        std::int32_t r, v;
    };
    std::vector<Pair> pairs;
    pairs.reserve(static_cast<std::size_t>(total));
    for (std::int32_t v = 0; v < total; ++v) {
        const std::int32_t s = slot_from[static_cast<std::size_t>(v)];
        if (s < 0) continue;
        if (v < logical) {
            pairs.push_back({slot_w[static_cast<std::size_t>(v)], v, s});
        } else if (slot_from[static_cast<std::size_t>(s)] != v) {  // not mutual
            pairs.push_back({slot_w[static_cast<std::size_t>(v)], s, v});
        }
    }
    std::sort(pairs.begin(), pairs.end(), [](const Pair& x, const Pair& y) {
        if (x.w != y.w) return x.w > y.w;
        return x.r != y.r ? x.r < y.r : x.v < y.v;
    });
    std::vector<std::int32_t> match(g.n, -1);
    std::vector<bool> taken(static_cast<std::size_t>(faulty), false);
    for (const Pair& p : pairs) {
        const auto fi = static_cast<std::size_t>(p.v - logical);
        if (match[static_cast<std::size_t>(p.r)] >= 0 || taken[fi]) continue;
        match[static_cast<std::size_t>(p.r)] = static_cast<std::int32_t>(fi);
        taken[fi] = true;
    }
    return match;
}

}  // namespace

double mapping_cost(const BinaryBlock& block, const FaultMap& map,
                    const std::vector<std::uint16_t>& perm,
                    const RowMatchWeights& weights) {
    FARE_CHECK(perm.size() == block.size(), "perm size mismatch");
    const RowCosts costs(block, map, weights);
    double cost = 0.0;
    for (std::uint16_t r = 0; r < block.size(); ++r) {
        FARE_CHECK(perm[r] < map.rows(), "perm target out of range");
        cost += costs(r, perm[r]);
    }
    return cost;
}

RowMatchResult best_row_permutation(const BinaryBlock& block, const FaultMap& map,
                                    const RowMatchWeights& weights) {
    const std::uint16_t n = block.size();
    const std::uint16_t phys = map.rows();
    FARE_CHECK(phys >= n, "crossbar has fewer rows than the block");
    const RowCosts costs(block, map, weights);
    const std::size_t words = costs.words();

    // Columns where some row has a fault. A logical row storing no 1 on any
    // of them costs every row p exactly p's SA1 sum, as an all-zero row
    // would: all such rows form group 0, a virtual zero row, and every
    // other row is a group of its own.
    std::vector<Word> fault_cols(words, 0);
    for (std::uint16_t p = 0; p < phys; ++p) {
        const auto sa0 = map.sa0_row(p);
        const auto sa1 = map.sa1_row(p);
        for (std::size_t k = 0; k < words; ++k)
            fault_cols[k] |= (sa0[k] | sa1[k]) & costs.columns(k);
    }
    BenefitGraph graph;
    graph.n = n;
    graph.group.assign(n, 0);
    std::vector<std::uint16_t> first_row(1, n);  // one member of each group; n: none
    for (std::uint16_t r = 0; r < n; ++r) {
        const auto bits = block.row(r);
        Word hits = 0;
        for (std::size_t k = 0; k < words; ++k) hits |= bits[k] & fault_cols[k];
        if (hits == 0) {
            first_row[0] = std::min(first_row[0], r);
            continue;
        }
        graph.group[r] = first_row.size();
        first_row.push_back(r);
    }
    const std::size_t groups = first_row.size();
    // The groups' bits transposed: column c's `stride` words hold bit g for
    // each group g that stores a 1 at c.
    const std::size_t stride = (groups + FaultMap::kWordBits - 1) / FaultMap::kWordBits;
    std::vector<Word> group_bits(words * FaultMap::kWordBits * stride, 0);
    for (std::size_t g = 1; g < groups; ++g) {
        const auto bits = block.row(first_row[g]);
        const Word bit = Word{1} << (g % FaultMap::kWordBits);
        for (std::size_t k = 0; k < words; ++k)
            for (Word m = bits[k] & fault_cols[k]; m != 0; m &= m - 1) {
                const std::size_t c = k * FaultMap::kWordBits +
                                      static_cast<std::size_t>(std::countr_zero(m));
                group_bits[c * stride + g / FaultMap::kWordBits] |= bit;
            }
    }

    // One pass per physical row p over its faults in ascending column order.
    // C_p sums every fault's weight: the cost with every fault mismatching.
    // Each group's cost adds, per fault, its weight when the group's bit
    // mismatches it and +0 otherwise. Started at +0, a round-to-nearest sum
    // never reaches -0, so the +0 adds are exact identities and each cost
    // has the bits of the mismatch-only walk (RowCosts). Rows with C_p > 0
    // are the faulty ones; benefit = C_p - cost, and maximising matched
    // benefit minimises total mismatch cost.
    std::vector<double> base(phys, 0.0);
    std::vector<std::uint16_t> faulty_rows;
    graph.by_col.reserve(static_cast<std::size_t>(n) * phys);
    std::vector<simd::SelectTerm> terms;
    std::vector<double> group_cost(groups);
    const simd::SimdKernels& kernels = simd::kernels();
    for (std::uint16_t p = 0; p < phys; ++p) {
        const auto sa0 = map.sa0_row(p);
        const auto sa1 = map.sa1_row(p);
        terms.clear();
        double all = 0.0;
        for (std::size_t k = 0; k < words; ++k) {
            const Word zero_bad = sa0[k] & costs.columns(k);
            const Word one_bad = sa1[k] & costs.columns(k);
            for (Word m = zero_bad | one_bad; m != 0; m &= m - 1) {
                const int b = std::countr_zero(m);
                const bool is_sa1 = ((one_bad >> b) & 1u) != 0;
                all += is_sa1 ? weights.sa1 : weights.sa0;
                const std::size_t c = k * FaultMap::kWordBits + static_cast<std::size_t>(b);
                terms.push_back({group_bits.data() + c * stride,
                                 ((zero_bad >> b) & 1u) != 0 ? weights.sa0 : 0.0,
                                 is_sa1 ? weights.sa1 : 0.0});
            }
        }
        base[p] = all;
        if (!(all > 0.0)) continue;
        faulty_rows.push_back(p);
        kernels.select_sum(terms.data(), terms.size(), group_cost.data(), groups);
        for (std::uint16_t r = 0; r < n; ++r)
            graph.by_col.push_back(all - group_cost[graph.group[r]]);
    }
    graph.f = faulty_rows.size();
    graph.by_group.resize(groups * graph.f);
    for (std::size_t fi = 0; fi < graph.f; ++fi)
        for (std::size_t g = 0; g < groups; ++g)
            if (first_row[g] < n)  // group 0 may have no member
                graph.by_group[g * graph.f + fi] = graph.by_col[fi * graph.n + first_row[g]];
    const std::vector<std::int32_t> match = suitor_rows(graph);

    // Assemble the permutation: matched pairs first, then spread the
    // remaining logical rows over the remaining physical rows, cleanest
    // (lowest C_p) first.
    RowMatchResult result;
    result.perm.assign(n, 0);
    std::vector<bool> phys_used(phys, false);
    for (std::uint16_t r = 0; r < n; ++r) {
        if (match[r] < 0) continue;
        const std::uint16_t p = faulty_rows[static_cast<std::size_t>(match[r])];
        result.perm[r] = p;
        phys_used[p] = true;
    }
    std::vector<std::uint16_t> free_phys;
    for (std::uint16_t p = 0; p < phys; ++p)
        if (!phys_used[p]) free_phys.push_back(p);
    std::stable_sort(free_phys.begin(), free_phys.end(),
                     [&](std::uint16_t a, std::uint16_t b) { return base[a] < base[b]; });
    std::size_t next = 0;
    for (std::uint16_t r = 0; r < n; ++r)
        if (match[r] < 0) result.perm[r] = free_phys[next++];

    std::size_t sa1_inserts = 0;
    for (std::uint16_t r = 0; r < n; ++r) {
        result.cost += costs(r, result.perm[r]);
        sa1_inserts += costs.sa1_inserts(r, result.perm[r]);
    }
    result.sa1_nonoverlap = static_cast<double>(sa1_inserts);
    return result;
}

RowMatchResult best_row_permutation_exact(const BinaryBlock& block,
                                          const FaultMap& map,
                                          const RowMatchWeights& weights) {
    const std::uint16_t n = block.size();
    const std::uint16_t phys = map.rows();
    FARE_CHECK(phys >= n, "crossbar has fewer rows than the block");
    const RowCosts costs(block, map, weights);

    std::vector<double> cost(static_cast<std::size_t>(n) * phys, 0.0);
    for (std::uint16_t r = 0; r < n; ++r)
        for (std::uint16_t p = 0; p < phys; ++p)
            cost[static_cast<std::size_t>(r) * phys + p] = costs(r, p);

    const AssignmentResult assignment = hungarian_min_cost(n, phys, cost);
    RowMatchResult result;
    result.perm.assign(n, 0);
    for (std::uint16_t r = 0; r < n; ++r)
        result.perm[r] = static_cast<std::uint16_t>(assignment.row_to_col[r]);
    result.cost = assignment.total_cost;
    std::size_t sa1_inserts = 0;
    for (std::uint16_t r = 0; r < n; ++r) sa1_inserts += costs.sa1_inserts(r, result.perm[r]);
    result.sa1_nonoverlap = static_cast<double>(sa1_inserts);
    return result;
}

}  // namespace fare
