#include "reram/fault_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace fare {
namespace {

/// Every fault of `map`, in the order set-bit iteration yields them.
std::vector<CellFault> faults_of(const FaultMap& map) {
    std::vector<CellFault> out;
    map.for_each_fault([&](const CellFault& f) { out.push_back(f); });
    return out;
}

/// The same list from a dense (row, col) scan of at().
std::vector<CellFault> dense_scan(const FaultMap& map) {
    std::vector<CellFault> out;
    for (std::uint16_t r = 0; r < map.rows(); ++r)
        for (std::uint16_t c = 0; c < map.cols(); ++c)
            if (const auto t = map.at(r, c)) out.push_back({r, c, *t});
    return out;
}

void expect_same_faults(const std::vector<CellFault>& a,
                        const std::vector<CellFault>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].row, b[i].row) << "fault " << i;
        EXPECT_EQ(a[i].col, b[i].col) << "fault " << i;
        EXPECT_EQ(a[i].type, b[i].type) << "fault " << i;
    }
}

TEST(FaultMapTest, AddAndLookup) {
    FaultMap map(8, 8);
    map.add(1, 2, FaultType::kSA0);
    map.add(3, 4, FaultType::kSA1);
    EXPECT_EQ(map.at(1, 2), FaultType::kSA0);
    EXPECT_EQ(map.at(3, 4), FaultType::kSA1);
    EXPECT_FALSE(map.at(0, 0).has_value());
    EXPECT_EQ(map.num_sa0(), 1u);
    EXPECT_EQ(map.num_sa1(), 1u);
    EXPECT_TRUE(map.is_faulty(1, 2));
    EXPECT_FALSE(map.is_faulty(2, 1));
}

TEST(FaultMapTest, OverwriteUpdatesCounts) {
    FaultMap map(4, 4);
    map.add(0, 0, FaultType::kSA0);
    map.add(0, 0, FaultType::kSA1);
    EXPECT_EQ(map.num_sa0(), 0u);
    EXPECT_EQ(map.num_sa1(), 1u);
    EXPECT_EQ(map.num_faults(), 1u);
}

TEST(FaultMapTest, RowFaultsSortedByColumn) {
    FaultMap map(4, 8);
    map.add(2, 5, FaultType::kSA0);
    map.add(2, 1, FaultType::kSA1);
    map.add(1, 0, FaultType::kSA0);
    std::vector<CellFault> row;
    map.for_each_fault_in_row(2, [&](const CellFault& f) { row.push_back(f); });
    ASSERT_EQ(row.size(), 2u);
    EXPECT_EQ(row[0].col, 1u);
    EXPECT_EQ(row[0].type, FaultType::kSA1);
    EXPECT_EQ(row[1].col, 5u);
    EXPECT_EQ(row[1].type, FaultType::kSA0);
}

TEST(FaultMapTest, AllFaultsComplete) {
    FaultMap map(4, 4);
    map.add(0, 1, FaultType::kSA0);
    map.add(3, 3, FaultType::kSA1);
    EXPECT_EQ(faults_of(map).size(), 2u);
    EXPECT_DOUBLE_EQ(map.fault_density(), 2.0 / 16.0);
}

TEST(FaultMapTest, OverwriteClearAndSoftChangesKeepCounts) {
    FaultMap map(3, 100);
    map.add(1, 70, FaultType::kSA0, /*soft=*/true);
    EXPECT_EQ(map.num_sa0(), 1u);
    EXPECT_EQ(map.num_soft(), 1u);
    // Soft -> hard, SA0 -> SA1 on the same cell.
    map.add(1, 70, FaultType::kSA1);
    EXPECT_EQ(map.num_sa0(), 0u);
    EXPECT_EQ(map.num_sa1(), 1u);
    EXPECT_EQ(map.num_soft(), 0u);
    EXPECT_FALSE(map.is_soft(1, 70));
    // Hard -> soft, same type.
    map.add(1, 70, FaultType::kSA1, /*soft=*/true);
    EXPECT_EQ(map.num_sa1(), 1u);
    EXPECT_EQ(map.num_soft(), 1u);
    EXPECT_TRUE(map.is_soft(1, 70));
    map.add(2, 99, FaultType::kSA0);
    EXPECT_EQ(map.num_faults(), 2u);
    // Clearing drops every plane's bit; clearing a healthy cell is a no-op.
    map.clear(1, 70);
    map.clear(0, 0);
    EXPECT_EQ(map.num_faults(), 1u);
    EXPECT_EQ(map.num_sa1(), 0u);
    EXPECT_EQ(map.num_soft(), 0u);
    EXPECT_FALSE(map.is_faulty(1, 70));
    EXPECT_FALSE(map.is_soft(1, 70));
    EXPECT_EQ(map.at(2, 99), FaultType::kSA0);
    EXPECT_THROW(map.clear(0, 100), InvalidArgument);
}

/// Widths that are not a multiple of 64 leave unused bits in each row's last
/// word; widths of 64 and 128 fill their words exactly.
class FaultMapWidth : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(FaultMapWidth, IterationMatchesDenseScan) {
    const std::uint16_t cols = GetParam();
    FaultMap map(5, cols);
    Rng rng(cols);
    for (int i = 0; i < 3 * cols; ++i) {
        const auto r = static_cast<std::uint16_t>(rng.next_below(5));
        const auto c = static_cast<std::uint16_t>(rng.next_below(cols));
        map.add(r, c, rng.next_bool(0.5) ? FaultType::kSA1 : FaultType::kSA0,
                rng.next_bool(0.3));
    }
    // The last column and both sides of every word boundary.
    map.add(4, static_cast<std::uint16_t>(cols - 1), FaultType::kSA1);
    for (std::uint16_t c = 63; c + 1u < cols; c += 64) {
        map.add(0, c, FaultType::kSA0);
        map.add(0, static_cast<std::uint16_t>(c + 1), FaultType::kSA1, true);
    }
    const std::vector<CellFault> dense = dense_scan(map);
    expect_same_faults(faults_of(map), dense);
    std::size_t sa0 = 0, soft = 0;
    for (const CellFault& f : dense) {
        sa0 += f.type == FaultType::kSA0;
        soft += map.is_soft(f.row, f.col);
    }
    EXPECT_EQ(map.num_faults(), dense.size());
    EXPECT_EQ(map.num_sa0(), sa0);
    EXPECT_EQ(map.num_soft(), soft);
    EXPECT_THROW(map.add(0, cols, FaultType::kSA0), InvalidArgument);
    EXPECT_THROW(map.at(5, 0), InvalidArgument);
}

TEST_P(FaultMapWidth, ColumnFilterKeepsSoftFlagsAndCounts) {
    const std::uint16_t cols = GetParam();
    FaultMap map(4, cols);
    Rng rng(cols + 1u);
    for (int i = 0; i < 2 * cols; ++i)
        map.add(static_cast<std::uint16_t>(rng.next_below(4)),
                static_cast<std::uint16_t>(rng.next_below(cols)),
                rng.next_bool(0.4) ? FaultType::kSA1 : FaultType::kSA0,
                rng.next_bool(0.5));
    std::vector<bool> dropped(cols, false);
    for (std::uint16_t c = 0; c < cols; c += 3) dropped[c] = true;
    const FaultMap kept = map.without_columns(dropped);
    std::vector<CellFault> expected;
    std::size_t sa1 = 0, soft = 0;
    for (const CellFault& f : dense_scan(map)) {
        if (dropped[f.col]) continue;
        expected.push_back(f);
        sa1 += f.type == FaultType::kSA1;
        soft += map.is_soft(f.row, f.col);
        EXPECT_EQ(kept.is_soft(f.row, f.col), map.is_soft(f.row, f.col));
    }
    expect_same_faults(faults_of(kept), expected);
    EXPECT_EQ(kept.num_faults(), expected.size());
    EXPECT_EQ(kept.num_sa1(), sa1);
    EXPECT_EQ(kept.num_soft(), soft);
    // No flagged column keeps everything; a mask of the wrong width is
    // refused.
    const FaultMap same = map.without_columns(std::vector<bool>(cols, false));
    expect_same_faults(faults_of(same), dense_scan(map));
    EXPECT_EQ(same.num_soft(), map.num_soft());
    EXPECT_THROW(map.without_columns(std::vector<bool>(cols + 1u, false)),
                 InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(Widths, FaultMapWidth,
                         ::testing::Values(1, 63, 64, 100, 128, 130));

TEST(FaultMapTest, BoundsChecked) {
    FaultMap map(4, 4);
    EXPECT_THROW(map.add(4, 0, FaultType::kSA0), InvalidArgument);
    EXPECT_THROW(map.at(0, 4), InvalidArgument);
}

TEST(InjectTest, OverallDensityMatchesTarget) {
    FaultInjectionConfig cfg;
    cfg.density = 0.05;
    cfg.sa1_fraction = 0.1;
    cfg.seed = 1;
    const auto maps = inject_faults(64, 128, 128, cfg);
    ASSERT_EQ(maps.size(), 64u);
    EXPECT_NEAR(mean_fault_density(maps), 0.05, 0.012);
}

TEST(InjectTest, Sa1FractionMatches) {
    FaultInjectionConfig cfg;
    cfg.density = 0.05;
    cfg.sa1_fraction = 0.1;
    cfg.seed = 2;
    const auto maps = inject_faults(32, 128, 128, cfg);
    std::size_t sa0 = 0, sa1 = 0;
    for (const auto& m : maps) {
        sa0 += m.num_sa0();
        sa1 += m.num_sa1();
    }
    const double frac = static_cast<double>(sa1) / static_cast<double>(sa0 + sa1);
    EXPECT_NEAR(frac, 0.1, 0.02);
}

TEST(InjectTest, ClusteringCreatesDispersion) {
    // With a Gamma-Poisson mixture (fault centres), the cross-crossbar
    // variance far exceeds a pure Poisson's.
    FaultInjectionConfig clustered;
    clustered.density = 0.05;
    clustered.cluster_shape = 1.5;
    clustered.seed = 3;
    FaultInjectionConfig pure = clustered;
    pure.cluster_shape = 0.0;

    auto spread = [](const std::vector<FaultMap>& maps) {
        double mean = 0.0, var = 0.0;
        for (const auto& m : maps) mean += static_cast<double>(m.num_faults());
        mean /= static_cast<double>(maps.size());
        for (const auto& m : maps) {
            const double d = static_cast<double>(m.num_faults()) - mean;
            var += d * d;
        }
        return var / static_cast<double>(maps.size());
    };
    const auto c = inject_faults(96, 128, 128, clustered);
    const auto p = inject_faults(96, 128, 128, pure);
    EXPECT_GT(spread(c), spread(p) * 10.0);
}

TEST(InjectTest, ClusteringKeepsMeanDensity) {
    FaultInjectionConfig cfg;
    cfg.density = 0.03;
    cfg.cluster_shape = 1.5;
    cfg.seed = 5;
    const auto maps = inject_faults(256, 128, 128, cfg);
    EXPECT_NEAR(mean_fault_density(maps), 0.03, 0.006);
}

TEST(InjectTest, DeterministicPerSeed) {
    FaultInjectionConfig cfg;
    cfg.density = 0.02;
    cfg.seed = 7;
    const auto a = inject_faults(4, 64, 64, cfg);
    const auto b = inject_faults(4, 64, 64, cfg);
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].num_faults(), b[i].num_faults());
        expect_same_faults(faults_of(a[i]), faults_of(b[i]));
    }
}

TEST(InjectTest, InvalidDensityRejected) {
    FaultInjectionConfig cfg;
    cfg.density = 1.5;
    EXPECT_THROW(inject_faults(1, 8, 8, cfg), InvalidArgument);
}

TEST(InjectTest, PostDeploymentAddsOnTop) {
    FaultInjectionConfig cfg;
    cfg.density = 0.02;
    cfg.seed = 9;
    auto maps = inject_faults(16, 128, 128, cfg);
    const double before = mean_fault_density(maps);
    Rng rng(10);
    for (FaultMap& map : maps) inject_additional_faults(map, 0.01, 0.1, rng);
    const double after = mean_fault_density(maps);
    EXPECT_NEAR(after - before, 0.01, 0.004);
}

TEST(InjectTest, ZeroDensityProducesNoFaults) {
    FaultInjectionConfig cfg;
    cfg.density = 0.0;
    const auto maps = inject_faults(4, 32, 32, cfg);
    for (const auto& m : maps) EXPECT_EQ(m.num_faults(), 0u);
}

/// Density sweep: achieved density tracks the target across the paper's
/// 1-5% range.
class DensitySweep : public ::testing::TestWithParam<double> {};

TEST_P(DensitySweep, TrackingAccurate) {
    FaultInjectionConfig cfg;
    cfg.density = GetParam();
    cfg.seed = 21;
    const auto maps = inject_faults(128, 128, 128, cfg);
    EXPECT_NEAR(mean_fault_density(maps), GetParam(), GetParam() * 0.25 + 0.002);
}

INSTANTIATE_TEST_SUITE_P(PaperRange, DensitySweep,
                         ::testing::Values(0.01, 0.02, 0.03, 0.05));

}  // namespace
}  // namespace fare
