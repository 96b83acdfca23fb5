#include "reram/bist.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "reram/fault_model.hpp"

namespace fare {
namespace {

TEST(BistTest, DetectsExactFaultMap) {
    Crossbar xb(32, 32);
    FaultMap truth(32, 32);
    truth.add(0, 0, FaultType::kSA0);
    truth.add(5, 7, FaultType::kSA1);
    truth.add(31, 31, FaultType::kSA0);
    xb.set_fault_map(truth);

    const BistResult result = bist_scan(xb);
    EXPECT_EQ(result.detected.num_faults(), 3u);
    EXPECT_EQ(result.detected.at(0, 0), FaultType::kSA0);
    EXPECT_EQ(result.detected.at(5, 7), FaultType::kSA1);
    EXPECT_EQ(result.detected.at(31, 31), FaultType::kSA0);
    EXPECT_FALSE(result.detected.at(1, 1).has_value());
}

TEST(BistTest, RestoresOriginalContents) {
    Crossbar xb(16, 16);
    FaultMap truth(16, 16);
    truth.add(3, 3, FaultType::kSA1);
    xb.set_fault_map(truth);
    for (std::uint16_t r = 0; r < 16; ++r)
        for (std::uint16_t c = 0; c < 16; ++c)
            xb.program(r, c, static_cast<std::uint8_t>((r + c) % 4));

    bist_scan(xb);
    for (std::uint16_t r = 0; r < 16; ++r)
        for (std::uint16_t c = 0; c < 16; ++c)
            EXPECT_EQ(xb.stored(r, c), static_cast<std::uint8_t>((r + c) % 4));
}

TEST(BistTest, CleanCrossbarScansClean) {
    Crossbar xb(16, 16);
    const BistResult result = bist_scan(xb);
    EXPECT_EQ(result.detected.num_faults(), 0u);
}

TEST(BistTest, CellOpsAccounted) {
    Crossbar xb(8, 8);
    const BistResult result = bist_scan(xb);
    // 2 passes x (write + read) + restore write = 5 ops per cell.
    EXPECT_EQ(result.cell_ops, 8u * 8u * 5u);
}

TEST(BistTest, RandomFaultMapsRecoveredExactly) {
    // Property: for random injected maps, BIST recovers the exact map.
    FaultInjectionConfig cfg;
    cfg.density = 0.08;
    cfg.seed = 17;
    // 100 columns: each row's last fault-map word is partly unused.
    for (const std::uint16_t cols : {64, 100}) {
        for (const auto& truth : inject_faults(4, 64, cols, cfg)) {
            Crossbar xb(64, cols);
            xb.set_fault_map(truth);
            const FaultMap detected = bist_scan(xb).detected;
            ASSERT_EQ(detected.num_faults(), truth.num_faults());
            truth.for_each_fault([&](const CellFault& f) {
                EXPECT_EQ(detected.at(f.row, f.col), f.type);
            });
        }
    }
}

/// The march stepped cell by cell through program()/read(): write 0 and
/// read, write max and read, restore. The computed bist_scan must match it.
BistResult stepped_march(Crossbar& xbar) {
    const std::uint16_t rows = xbar.rows();
    const std::uint16_t cols = xbar.cols();
    BistResult result;
    result.detected = FaultMap(rows, cols);
    std::vector<std::uint8_t> saved(static_cast<std::size_t>(rows) * cols);
    for (std::uint16_t r = 0; r < rows; ++r)
        for (std::uint16_t c = 0; c < cols; ++c)
            saved[static_cast<std::size_t>(r) * cols + c] = xbar.stored(r, c);
    const std::uint8_t hi = Crossbar::max_level();
    for (std::uint16_t r = 0; r < rows; ++r)
        for (std::uint16_t c = 0; c < cols; ++c) {
            xbar.program(r, c, 0);
            if (xbar.read(r, c) != 0) result.detected.add(r, c, FaultType::kSA1);
            result.cell_ops += 2;
        }
    for (std::uint16_t r = 0; r < rows; ++r)
        for (std::uint16_t c = 0; c < cols; ++c) {
            xbar.program(r, c, hi);
            if (xbar.read(r, c) != hi) result.detected.add(r, c, FaultType::kSA0);
            result.cell_ops += 2;
        }
    for (std::uint16_t r = 0; r < rows; ++r)
        for (std::uint16_t c = 0; c < cols; ++c) {
            xbar.program(r, c, saved[static_cast<std::size_t>(r) * cols + c]);
            ++result.cell_ops;
        }
    return result;
}

std::vector<CellFault> fault_list(const FaultMap& map) {
    std::vector<CellFault> out;
    map.for_each_fault([&](const CellFault& f) { out.push_back(f); });
    return out;
}

TEST(BistTest, ComputedMarchMatchesSteppedMarch) {
    FaultInjectionConfig cfg;
    cfg.density = 0.05;
    cfg.sa1_fraction = 0.3;
    cfg.seed = 23;
    Rng rng(29);
    for (const std::uint16_t cols : {64, 100}) {
        for (FaultMap truth : inject_faults(3, 48, cols, cfg)) {
            // Soft faults on top, and a write history with uneven per-cell
            // counts, uniform charges and stored levels.
            truth.add(1, 2, FaultType::kSA1, /*soft=*/true);
            truth.add(7, 9, FaultType::kSA0, /*soft=*/true);
            Crossbar computed(48, cols), stepped(48, cols);
            for (Crossbar* xb : {&computed, &stepped}) {
                xb->set_fault_map(truth);
                xb->add_uniform_writes(5);
            }
            for (int i = 0; i < 500; ++i) {
                const auto r = static_cast<std::uint16_t>(rng.next_below(48));
                const auto c = static_cast<std::uint16_t>(rng.next_below(cols));
                const auto level = static_cast<std::uint8_t>(rng.next_below(4));
                computed.program(r, c, level);
                stepped.program(r, c, level);
            }
            for (int scan = 0; scan < 2; ++scan) {
                const BistResult got = bist_scan(computed);
                const BistResult want = stepped_march(stepped);
                EXPECT_EQ(got.cell_ops, want.cell_ops);
                const auto got_faults = fault_list(got.detected);
                const auto want_faults = fault_list(want.detected);
                ASSERT_EQ(got_faults.size(), want_faults.size());
                for (std::size_t i = 0; i < got_faults.size(); ++i) {
                    EXPECT_EQ(got_faults[i].row, want_faults[i].row);
                    EXPECT_EQ(got_faults[i].col, want_faults[i].col);
                    EXPECT_EQ(got_faults[i].type, want_faults[i].type);
                }
                EXPECT_EQ(got.detected.num_soft(), 0u);
                EXPECT_EQ(computed.total_writes(), stepped.total_writes());
                EXPECT_EQ(computed.max_cell_writes(), stepped.max_cell_writes());
                for (std::uint16_t r = 0; r < 48; ++r)
                    for (std::uint16_t c = 0; c < cols; ++c) {
                        EXPECT_EQ(computed.writes(r, c), stepped.writes(r, c));
                        EXPECT_EQ(computed.stored(r, c), stepped.stored(r, c));
                        EXPECT_EQ(computed.read(r, c), stepped.read(r, c));
                    }
            }
        }
    }
}

}  // namespace
}  // namespace fare
