#include "fare/row_matcher.hpp"

#include "common/error.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <utility>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "fare/bsuitor.hpp"
#include "fare/hungarian.hpp"

namespace fare {
namespace {

/// An (n x n) block from row-major 0/1 values.
BinaryBlock block_of(std::uint16_t n, std::initializer_list<int> bits) {
    BinaryBlock b(n);
    auto it = bits.begin();
    for (std::uint16_t r = 0; r < n; ++r)
        for (std::uint16_t c = 0; c < n; ++c) b.set(r, c, static_cast<std::uint8_t>(*it++));
    return b;
}

BinaryBlock random_block(std::uint16_t n, double density, Rng& rng) {
    BinaryBlock b(n);
    for (std::uint16_t r = 0; r < n; ++r)
        for (std::uint16_t c = 0; c < n; ++c) b.set(r, c, rng.next_bool(density) ? 1 : 0);
    return b;
}

FaultMap random_map(std::uint16_t n, double density, double sa1_frac, Rng& rng) {
    FaultMap map(n, n);
    for (std::uint16_t r = 0; r < n; ++r)
        for (std::uint16_t c = 0; c < n; ++c)
            if (rng.next_bool(density))
                map.add(r, c,
                        rng.next_bool(sa1_frac) ? FaultType::kSA1 : FaultType::kSA0);
    return map;
}

/// cost(r, p): logical row r of `block` on physical row p of `map`, as the
/// mismatch definition in row_matcher.hpp states it.
double mapping_cost_row(const BinaryBlock& block, const FaultMap& map,
                        std::uint16_t r, std::uint16_t p, const RowMatchWeights& w) {
    double cost = 0.0;
    map.for_each_fault_in_row(p, [&](const CellFault& f) {
        if (f.col >= block.size()) return;
        const std::uint8_t bit = block.at(r, f.col);
        if (f.type == FaultType::kSA0 && bit == 1) cost += w.sa0;
        if (f.type == FaultType::kSA1 && bit == 0) cost += w.sa1;
    });
    return cost;
}

/// Unweighted count of SA1-inserts-edge mismatches under perm (the paper's
/// "SA1 non-overlap" used by the crossbar-removal rule), recounted fault by
/// fault: the independent check of RowMatchResult::sa1_nonoverlap.
std::size_t sa1_nonoverlap_count(const BinaryBlock& block, const FaultMap& map,
                                 const std::vector<std::uint16_t>& perm) {
    std::size_t count = 0;
    for (std::uint16_t r = 0; r < block.size(); ++r)
        map.for_each_fault_in_row(perm[r], [&](const CellFault& f) {
            if (f.col < block.size() && f.type == FaultType::kSA1 && block.at(r, f.col) == 0)
                ++count;
        });
    return count;
}

void check_is_permutation(const std::vector<std::uint16_t>& perm, std::uint16_t phys) {
    std::vector<bool> used(phys, false);
    for (auto p : perm) {
        ASSERT_LT(p, phys);
        EXPECT_FALSE(used[p]) << "duplicate target " << p;
        used[p] = true;
    }
}

TEST(MappingCostTest, CountsWeightedMismatches) {
    // Block: row0 = [1, 0]; SA0 under the 1 costs sa0, SA1 under the 0 costs sa1.
    const BinaryBlock block = block_of(2, {1, 0, 0, 0});
    FaultMap map(2, 2);
    map.add(0, 0, FaultType::kSA0);
    map.add(0, 1, FaultType::kSA1);
    const RowMatchWeights w{1.0, 4.0};
    EXPECT_DOUBLE_EQ(mapping_cost(block, map, identity_perm(2), w), 5.0);
    EXPECT_EQ(sa1_nonoverlap_count(block, map, identity_perm(2)), 1u);
    const RowMatchResult r = best_row_permutation(block, map, w);
    EXPECT_EQ(r.sa1_nonoverlap,
              static_cast<double>(sa1_nonoverlap_count(block, map, r.perm)));
}

TEST(MappingCostTest, MatchingBitsCostNothing) {
    const BinaryBlock block = block_of(2, {1, 0, 0, 0});
    FaultMap map(2, 2);
    map.add(0, 0, FaultType::kSA1);  // stored 1, stuck 1
    map.add(0, 1, FaultType::kSA0);  // stored 0, stuck 0
    EXPECT_DOUBLE_EQ(mapping_cost(block, map, identity_perm(2), {}), 0.0);
}

TEST(RowMatcherTest, FindsZeroCostPermutationWhenOneExists) {
    // Construct: physical row 0 has SA1 at col 0; block row 1 has a 1 there.
    // Swapping rows 0 and 1 hides the fault completely.
    const BinaryBlock block = block_of(2, {0, 0, 1, 0});
    FaultMap map(2, 2);
    map.add(0, 0, FaultType::kSA1);
    const RowMatchResult r = best_row_permutation(block, map);
    check_is_permutation(r.perm, 2);
    EXPECT_DOUBLE_EQ(r.cost, 0.0);
    EXPECT_EQ(r.perm[1], 0u);  // block row 1 placed on faulty physical row 0
}

TEST(RowMatcherTest, UsesSpareCleanRows) {
    // 2-row block on a 4-row crossbar whose rows 0 and 1 are poisoned: the
    // matcher should park both block rows on the clean rows 2 and 3.
    const BinaryBlock block(2);
    FaultMap map(4, 4);
    map.add(0, 0, FaultType::kSA1);
    map.add(1, 1, FaultType::kSA1);
    const RowMatchResult r = best_row_permutation(block, map);
    EXPECT_DOUBLE_EQ(r.cost, 0.0);
    EXPECT_GE(r.perm[0], 2u);
    EXPECT_GE(r.perm[1], 2u);
}

TEST(RowMatcherTest, ExactNeverWorseThanApproximate) {
    Rng rng(11);
    for (int trial = 0; trial < 30; ++trial) {
        const std::uint16_t n = 12;
        const BinaryBlock block = random_block(n, 0.15, rng);
        const FaultMap map = random_map(n, 0.1, 0.3, rng);
        const RowMatchResult approx = best_row_permutation(block, map);
        const RowMatchResult exact = best_row_permutation_exact(block, map);
        check_is_permutation(approx.perm, n);
        check_is_permutation(exact.perm, n);
        EXPECT_LE(exact.cost, approx.cost + 1e-9) << "trial " << trial;
        // Evaluated costs agree with mapping_cost.
        EXPECT_DOUBLE_EQ(approx.cost, mapping_cost(block, map, approx.perm, {}));
    }
}

TEST(RowMatcherTest, BothBeatIdentityOnAverage) {
    Rng rng(13);
    double id_total = 0.0, approx_total = 0.0;
    for (int trial = 0; trial < 20; ++trial) {
        const std::uint16_t n = 16;
        const BinaryBlock block = random_block(n, 0.1, rng);
        const FaultMap map = random_map(n, 0.08, 0.3, rng);
        id_total += mapping_cost(block, map, identity_perm(n), {});
        approx_total += best_row_permutation(block, map).cost;
    }
    EXPECT_LT(approx_total, id_total * 0.9);
}

TEST(RowMatcherTest, Sa1WeightingPrefersHidingSa1) {
    // One SA1 and one SA0, exactly one block 1-bit that can hide either:
    // with sa1 >> sa0 the matcher must hide the SA1 fault.
    const BinaryBlock block = block_of(2, {1, 0, 0, 0});  // row 0 has a 1 at col 0
    FaultMap map(2, 2);
    map.add(0, 0, FaultType::kSA0);  // would delete the 1 if row 0 stays
    map.add(1, 0, FaultType::kSA1);  // would insert on a 0
    // Hiding SA1: put block row 0 (the 1) on physical row 1. Residual: SA0
    // under a 0 on row 0 — harmless. Total cost 0.
    const RowMatchResult r = best_row_permutation(block, map, {1.0, 4.0});
    EXPECT_EQ(r.perm[0], 1u);
    EXPECT_DOUBLE_EQ(r.cost, 0.0);
    EXPECT_DOUBLE_EQ(r.sa1_nonoverlap, 0.0);
}

TEST(RowMatcherTest, CleanCrossbarGivesZeroCost) {
    Rng rng(17);
    const BinaryBlock block = random_block(8, 0.2, rng);
    const FaultMap map(8, 8);
    const RowMatchResult r = best_row_permutation(block, map);
    EXPECT_DOUBLE_EQ(r.cost, 0.0);
    check_is_permutation(r.perm, 8);
}

TEST(RowMatcherTest, PermSizeValidated) {
    const BinaryBlock block(4);
    FaultMap map(2, 2);  // smaller than block
    EXPECT_THROW(best_row_permutation(block, map), InvalidArgument);
}

TEST(RowMatcherTest, FaultsPastTheBlockCostNothing) {
    // A 100-row block on a 128x128 crossbar whose faults all lie in columns
    // 100..127: no row of the block can mismatch them.
    Rng rng(29);
    const BinaryBlock block = random_block(100, 0.2, rng);
    FaultMap map(128, 128);
    for (std::uint16_t r = 0; r < 128; ++r)
        for (std::uint16_t c = 100; c < 128; ++c)
            if (rng.next_bool(0.3))
                map.add(r, c, rng.next_bool(0.5) ? FaultType::kSA1 : FaultType::kSA0);
    const RowMatchResult r = best_row_permutation(block, map);
    check_is_permutation(r.perm, 128);
    EXPECT_EQ(r.cost, 0.0);
    EXPECT_EQ(r.sa1_nonoverlap, 0.0);
    EXPECT_EQ(best_row_permutation_exact(block, map).cost, 0.0);
    EXPECT_EQ(mapping_cost(block, map, identity_perm(100), {}), 0.0);
    EXPECT_EQ(sa1_nonoverlap_count(block, map, identity_perm(100)), 0u);
    EXPECT_EQ(r.sa1_nonoverlap,
              static_cast<double>(sa1_nonoverlap_count(block, map, r.perm)));
}

/// Density sweep: the permutation never increases cost vs identity.
class RowMatcherSweep : public ::testing::TestWithParam<double> {};

TEST_P(RowMatcherSweep, NeverWorseThanIdentity) {
    Rng rng(19);
    const std::uint16_t n = 24;
    const BinaryBlock block = random_block(n, 0.12, rng);
    const FaultMap map = random_map(n, GetParam(), 0.5, rng);
    const double id_cost = mapping_cost(block, map, identity_perm(n), {});
    const RowMatchResult r = best_row_permutation(block, map);
    EXPECT_LE(r.cost, id_cost + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Densities, RowMatcherSweep,
                         ::testing::Values(0.01, 0.03, 0.05, 0.1, 0.2));

/// 64-bit FNV-1a, folded one byte at a time (little-endian for words).
void fnv1a(std::uint64_t& h, std::uint64_t word, int bytes) {
    for (int b = 0; b < bytes; ++b) {
        h ^= (word >> (8 * b)) & 0xFFu;
        h *= 1099511628211ull;
    }
}

/// Oracle at the real crossbar height (Tile::crossbar_rows = 128): every
/// b-Suitor permutation is valid and never beats the Hungarian optimum, and
/// one digest over all perms and costs pins the exact output — a faster
/// matcher that moves a single row assignment fails here.
TEST(RowMatcherTest, OracleAtCrossbarBlockSize) {
    constexpr std::uint16_t n = 128;
    constexpr double kBlockDensity = 0.05;
    std::uint64_t digest = 1469598103934665603ull;
    int instance = 0;
    for (const double density : {0.01, 0.03, 0.10}) {
        for (const double sa1 : {0.1, 0.5}) {
            for (std::uint64_t seed = 1; seed <= 4; ++seed, ++instance) {
                Rng rng(seed * 7919 + static_cast<std::uint64_t>(instance));
                const BinaryBlock block = random_block(n, kBlockDensity, rng);
                const FaultMap map = random_map(n, density, sa1, rng);
                const RowMatchResult approx = best_row_permutation(block, map);
                const RowMatchResult exact =
                    best_row_permutation_exact(block, map);
                check_is_permutation(approx.perm, n);
                EXPECT_LE(exact.cost, approx.cost + 1e-9)
                    << "density " << density << " sa1 " << sa1 << " seed "
                    << seed;
                for (const std::uint16_t p : approx.perm) fnv1a(digest, p, 2);
                std::uint64_t cost_bits = 0;
                std::memcpy(&cost_bits, &approx.cost, sizeof(cost_bits));
                fnv1a(digest, cost_bits, 8);
            }
        }
    }
    EXPECT_EQ(instance, 24);
    EXPECT_EQ(digest, 0x1ec270e4cf56b276ull)
        << std::hex << "digest 0x" << digest;
}

/// best_row_permutation as built on the generic bsuitor_match over a
/// WeightedEdge list, with costs walked fault by fault: the oracle that the
/// bipartite suitor kernel must reproduce exactly.
RowMatchResult generic_row_permutation(const BinaryBlock& block, const FaultMap& map,
                                       const RowMatchWeights& w) {
    const std::uint16_t n = block.size();
    const std::uint16_t phys = map.rows();
    std::vector<double> base(phys, 0.0);
    std::vector<std::uint16_t> faulty_rows;
    for (std::uint16_t p = 0; p < phys; ++p) {
        map.for_each_fault_in_row(p, [&](const CellFault& f) {
            if (f.col < n) base[p] += f.type == FaultType::kSA1 ? w.sa1 : w.sa0;
        });
        if (base[p] > 0.0) faulty_rows.push_back(p);
    }
    std::vector<WeightedEdge> edges;
    for (std::size_t fi = 0; fi < faulty_rows.size(); ++fi) {
        const std::uint16_t p = faulty_rows[fi];
        for (std::uint16_t r = 0; r < n; ++r) {
            const double benefit = base[p] - mapping_cost_row(block, map, r, p, w);
            if (benefit > 0.0)
                edges.push_back({r, static_cast<std::uint32_t>(n + fi), benefit});
        }
    }
    const auto total = static_cast<std::uint32_t>(n + faulty_rows.size());
    const BMatching matching =
        bsuitor_match(total, edges, std::vector<std::uint32_t>(total, 1));

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
    std::sort(free_phys.begin(), free_phys.end(), [&](std::uint16_t a, std::uint16_t b) {
        if (base[a] != base[b]) return base[a] < base[b];
        return a < b;
    });
    std::size_t next = 0;
    for (std::uint16_t r = 0; r < n; ++r)
        if (!log_used[r]) result.perm[r] = free_phys[next++];

    for (std::uint16_t r = 0; r < n; ++r)
        result.cost += mapping_cost_row(block, map, r, result.perm[r], w);
    result.sa1_nonoverlap =
        static_cast<double>(sa1_nonoverlap_count(block, map, result.perm));
    return result;
}

/// The bipartite suitor kernel against the generic oracle: the same
/// permutation, the same cost bits and the same SA1 count, for blocks
/// narrower than the 128-row crossbar, fault densities up to 30%, integer
/// and non-integer weights (the last exercises the floating-point order),
/// and all-zero / all-one blocks.
TEST(RowMatcherTest, SuitorKernelMatchesGenericOracle) {
    const std::vector<RowMatchWeights> weight_sets = {{1.0, 4.0}, {1.0, 1.0}, {0.3, 1.7}};
    int instances = 0;
    for (const std::uint16_t n : {64, 100, 128}) {
        for (const double density : {0.0, 0.01, 0.10, 0.30}) {
            for (const double sa1 : {0.1, 0.5}) {
                Rng rng(static_cast<std::uint64_t>(n) * 1000 +
                        static_cast<std::uint64_t>(density * 100) * 10 +
                        static_cast<std::uint64_t>(sa1 * 10));
                const FaultMap map = random_map(128, density, sa1, rng);
                std::vector<BinaryBlock> blocks = {random_block(n, 0.05, rng),
                                                   random_block(n, 0.4, rng),
                                                   random_block(n, 0.0, rng),
                                                   random_block(n, 1.0, rng)};
                for (const BinaryBlock& block : blocks) {
                    for (const RowMatchWeights& w : weight_sets) {
                        const RowMatchResult got = best_row_permutation(block, map, w);
                        const RowMatchResult want = generic_row_permutation(block, map, w);
                        SCOPED_TRACE(::testing::Message()
                                     << "n " << n << " density " << density << " sa1 "
                                     << sa1 << " weights " << w.sa0 << "/" << w.sa1);
                        EXPECT_EQ(got.perm, want.perm);
                        std::uint64_t got_bits = 0, want_bits = 0;
                        std::memcpy(&got_bits, &got.cost, sizeof(got_bits));
                        std::memcpy(&want_bits, &want.cost, sizeof(want_bits));
                        EXPECT_EQ(got_bits, want_bits);
                        EXPECT_EQ(got.sa1_nonoverlap, want.sa1_nonoverlap);
                        ++instances;
                    }
                }
            }
        }
    }
    EXPECT_EQ(instances, 3 * 4 * 2 * 4 * 3);
}

/// A map with faults at `density` on every column except the `clean` ones.
FaultMap map_with_clean_columns(std::uint16_t n, double density, double sa1_frac,
                                const std::vector<bool>& clean, Rng& rng) {
    FaultMap map(n, n);
    for (std::uint16_t r = 0; r < n; ++r)
        for (std::uint16_t c = 0; c < n; ++c)
            if (!clean[c] && rng.next_bool(density))
                map.add(r, c, rng.next_bool(sa1_frac) ? FaultType::kSA1 : FaultType::kSA0);
    return map;
}

/// An adjacency-like n-row block: 45% all-zero rows, 20% rows whose ones
/// sit only on `clean` columns, and the rest random at 10% density, a third
/// of them copies of an earlier random row.
BinaryBlock adjacency_like_block(std::uint16_t n, const std::vector<bool>& clean,
                                 Rng& rng) {
    BinaryBlock b(n);
    std::vector<std::uint16_t> random_rows;
    for (std::uint16_t r = 0; r < n; ++r) {
        const std::uint64_t kind = rng.next_below(20);
        if (kind < 9) continue;  // all zero
        if (kind < 13) {
            for (std::uint16_t c = 0; c < n; ++c)
                if (clean[c] && rng.next_bool(0.3)) b.set(r, c, 1);
        } else if (kind < 16 && !random_rows.empty()) {
            const std::uint16_t src = random_rows[rng.next_below(random_rows.size())];
            for (std::uint16_t c = 0; c < n; ++c) b.set(r, c, b.at(src, c));
        } else {
            for (std::uint16_t c = 0; c < n; ++c)
                if (rng.next_bool(0.1)) b.set(r, c, 1);
            random_rows.push_back(r);
        }
    }
    return b;
}

/// got against the generic oracle: the same permutation, cost bits and SA1
/// count.
void expect_matches_oracle(const BinaryBlock& block, const FaultMap& map,
                           const RowMatchWeights& w) {
    const RowMatchResult got = best_row_permutation(block, map, w);
    const RowMatchResult want = generic_row_permutation(block, map, w);
    EXPECT_EQ(got.perm, want.perm);
    std::uint64_t got_bits = 0, want_bits = 0;
    std::memcpy(&got_bits, &got.cost, sizeof(got_bits));
    std::memcpy(&want_bits, &want.cost, sizeof(want_bits));
    EXPECT_EQ(got_bits, want_bits);
    EXPECT_EQ(got.sa1_nonoverlap, want.sa1_nonoverlap);
}

/// The generic-oracle comparison in the two regimes the matcher's shared
/// slots and shared candidate order are built for, on the scalar and the
/// detected SIMD table: adjacency-like blocks (many all-zero rows, rows
/// whose ones miss every fault column, duplicated rows) on maps with
/// fault-free columns, and worn 128-wide maps at 40% fault density.
TEST(RowMatcherTest, SuitorKernelMatchesGenericOracleOnAdjacencyAndWornMaps) {
    const std::vector<RowMatchWeights> weight_sets = {{1.0, 4.0}, {1.0, 1.0}, {0.3, 1.7}};
    int instances = 0;
    for (const simd::SimdIsa isa : {simd::SimdIsa::kScalar, simd::detected_isa()}) {
        const simd::SimdIsaScope scope(isa);
        for (const std::uint16_t n : {64, 100, 128}) {
            for (const double sa1 : {0.1, 0.5}) {
                Rng rng(static_cast<std::uint64_t>(n) * 31 + static_cast<std::uint64_t>(sa1 * 10));
                std::vector<bool> clean(128, false);
                for (std::size_t c = 0; c < clean.size(); ++c) clean[c] = rng.next_bool(0.25);
                const BinaryBlock adjacency = adjacency_like_block(n, clean, rng);
                std::size_t zero_rows = 0;
                for (std::uint16_t r = 0; r < n; ++r)
                    zero_rows += std::ranges::all_of(adjacency.row(r),
                                                     [](std::uint64_t w) { return w == 0; });
                ASSERT_GE(zero_rows * 10, std::size_t{n} * 4);
                std::vector<std::pair<BinaryBlock, FaultMap>> cases;
                for (const double density : {0.01, 0.10, 0.30})
                    cases.emplace_back(adjacency,
                                       map_with_clean_columns(128, density, sa1, clean, rng));
                const FaultMap worn = random_map(128, 0.40, sa1, rng);
                cases.emplace_back(adjacency, worn);
                cases.emplace_back(random_block(n, 0.05, rng), worn);
                for (const auto& [block, map] : cases) {
                    for (const RowMatchWeights& w : weight_sets) {
                        SCOPED_TRACE(::testing::Message()
                                     << simd::isa_name(isa) << " n " << n << " sa1 " << sa1
                                     << " faults " << map.num_faults() << " weights "
                                     << w.sa0 << "/" << w.sa1);
                        expect_matches_oracle(block, map, w);
                        ++instances;
                    }
                }
            }
        }
    }
    EXPECT_EQ(instances, 2 * 3 * 2 * 5 * 3);
}

/// b-Suitor's half-approximation bound on the benefit graph the matcher
/// solves at crossbar height: logical rows [0, n) against faulty physical
/// rows, benefit(r, p) = C_p - cost(r, p), where C_p is the cost of row p
/// with every fault mismatching. The graph is rebuilt here from that
/// definition; its matching must reproduce best_row_permutation's matched
/// pairs, which ties it to the graph the matcher builds. The optimum is the
/// maximum-weight assignment: Hungarian on negated benefits over all n
/// physical rows (a non-edge costs 0, i.e. leaves the row unmatched).
TEST(RowMatcherTest, BSuitorHalfApproximationOnBenefitGraph) {
    constexpr std::uint16_t n = 128;
    const RowMatchWeights w;
    for (const double density : {0.01, 0.03, 0.10}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            Rng rng(seed * 104729 + static_cast<std::uint64_t>(density * 1000));
            const BinaryBlock block = random_block(n, 0.05, rng);
            const FaultMap map = random_map(n, density, 0.5, rng);

            std::vector<double> base(n, 0.0);
            std::vector<std::uint16_t> faulty_rows;
            for (std::uint16_t p = 0; p < n; ++p) {
                map.for_each_fault_in_row(p, [&](const CellFault& f) {
                    base[p] += f.type == FaultType::kSA1 ? w.sa1 : w.sa0;
                });
                if (base[p] > 0.0) faulty_rows.push_back(p);
            }
            std::vector<WeightedEdge> edges;
            std::vector<double> neg_benefit(static_cast<std::size_t>(n) * n, 0.0);
            for (std::size_t fi = 0; fi < faulty_rows.size(); ++fi) {
                const std::uint16_t p = faulty_rows[fi];
                for (std::uint16_t r = 0; r < n; ++r) {
                    const double benefit =
                        base[p] - mapping_cost_row(block, map, r, p, w);
                    if (benefit <= 0.0) continue;
                    edges.push_back({r, static_cast<std::uint32_t>(n + fi), benefit});
                    neg_benefit[static_cast<std::size_t>(r) * n + p] = -benefit;
                }
            }
            const auto total = static_cast<std::uint32_t>(n + faulty_rows.size());
            const BMatching approx =
                bsuitor_match(total, edges, std::vector<std::uint32_t>(total, 1));
            const double opt = -hungarian_min_cost(n, n, neg_benefit).total_cost;
            EXPECT_GE(approx.total_weight, 0.5 * opt - 1e-9)
                << "density " << density << " seed " << seed;
            EXPECT_LE(approx.total_weight, opt + 1e-9);

            const RowMatchResult matched = best_row_permutation(block, map, w);
            for (std::uint16_t r = 0; r < n; ++r) {
                if (approx.partners[r].empty()) continue;
                EXPECT_EQ(matched.perm[r],
                          faulty_rows[approx.partners[r].front() - n]);
            }
        }
    }
}

}  // namespace
}  // namespace fare
