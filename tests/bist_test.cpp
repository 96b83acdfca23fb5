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

}  // namespace
}  // namespace fare
