#include "reram/accelerator.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace fare {
namespace {

AcceleratorConfig small_config() {
    AcceleratorConfig cfg;
    cfg.tile.crossbars_per_tile = 8;
    cfg.tile.crossbar_rows = 32;
    cfg.tile.crossbar_cols = 32;
    cfg.num_tiles = 2;
    return cfg;
}

TEST(TileTest, SpecDefaultsMatchTableIII) {
    const TileSpec spec;
    EXPECT_EQ(spec.crossbars_per_tile, 96);
    EXPECT_EQ(spec.crossbar_rows, 128);
    EXPECT_EQ(spec.crossbar_cols, 128);
    EXPECT_EQ(spec.bits_per_cell, 2);
    EXPECT_EQ(spec.adc_bits, 8);
    EXPECT_DOUBLE_EQ(spec.power_w, 0.34);
    EXPECT_DOUBLE_EQ(spec.area_mm2, 0.157);
    EXPECT_EQ(spec.cells_per_crossbar(), 128u * 128u);
}

TEST(TileTest, OwnsCrossbars) {
    Tile tile(small_config().tile);
    EXPECT_EQ(tile.num_crossbars(), 8u);
    tile.crossbar(0).program(0, 0, 1);
    EXPECT_EQ(tile.total_writes(), 1u);
    EXPECT_THROW(tile.crossbar(8), InvalidArgument);
}

TEST(AcceleratorTest, FlatCrossbarAddressing) {
    Accelerator acc(small_config());
    EXPECT_EQ(acc.num_crossbars(), 16u);
    EXPECT_EQ(acc.num_tiles(), 2u);
    acc.crossbar(9).program(1, 1, 2);  // lives in tile 1
    EXPECT_EQ(acc.tile(1).total_writes(), 1u);
    EXPECT_EQ(acc.tile(0).total_writes(), 0u);
}

TEST(AcceleratorTest, AllocationIsExclusive) {
    Accelerator acc(small_config());
    const CrossbarRange a = acc.allocate(6);
    const CrossbarRange b = acc.allocate(10);
    EXPECT_EQ(a.first, 0u);
    EXPECT_EQ(b.first, 6u);
    EXPECT_EQ(acc.crossbars_available(), 0u);
    EXPECT_THROW(acc.allocate(1), ResourceError);
}

TEST(AcceleratorTest, FaultInjectionReachesCrossbars) {
    Accelerator acc(small_config());
    FaultInjectionConfig cfg;
    cfg.density = 0.1;
    cfg.seed = 3;
    acc.inject_pre_deployment_faults(cfg);
    std::size_t total = 0;
    for (std::size_t i = 0; i < acc.num_crossbars(); ++i)
        total += acc.crossbar(i).fault_map().num_faults();
    EXPECT_GT(total, 0u);
}

TEST(AcceleratorTest, BistMatchesTruth) {
    Accelerator acc(small_config());
    FaultInjectionConfig cfg;
    cfg.density = 0.05;
    cfg.seed = 5;
    acc.inject_pre_deployment_faults(cfg);
    const auto truth = acc.true_fault_maps();
    const auto detected = acc.bist_scan_all();
    ASSERT_EQ(truth.size(), detected.size());
    for (std::size_t i = 0; i < truth.size(); ++i)
        EXPECT_EQ(truth[i].num_faults(), detected[i].num_faults());
}

TEST(AcceleratorTest, PostDeploymentGrowsFaults) {
    Accelerator acc(small_config());
    FaultInjectionConfig cfg;
    cfg.density = 0.02;
    cfg.seed = 7;
    acc.inject_pre_deployment_faults(cfg);
    const double before = mean_fault_density(acc.true_fault_maps());
    Rng rng(9);
    acc.inject_fault_arrivals(0.02, 0.1, rng, /*soft=*/false);
    const double after = mean_fault_density(acc.true_fault_maps());
    EXPECT_GT(after, before + 0.005);
}

TEST(AcceleratorTest, FaultArrivalsInPlaceMatchTheMapCopies) {
    // Adding faults to each crossbar's map in place draws the stream in the
    // same order as inject_additional_faults over copies of the maps, one
    // map after another.
    for (const bool soft : {false, true}) {
        Accelerator acc(small_config());
        FaultInjectionConfig cfg;
        cfg.density = 0.02;
        cfg.seed = 7;
        acc.inject_pre_deployment_faults(cfg);
        std::vector<FaultMap> copies = acc.true_fault_maps();
        Rng in_place_rng(9), copy_rng(9);
        std::vector<std::size_t> in_place_touched, copy_touched;
        const std::size_t added = acc.inject_fault_arrivals(
            0.001, 0.3, in_place_rng, soft, &in_place_touched);
        std::size_t copy_added = 0;
        for (std::size_t i = 0; i < copies.size(); ++i) {
            const std::size_t placed =
                inject_additional_faults(copies[i], 0.001, 0.3, copy_rng, soft);
            if (placed > 0) copy_touched.push_back(i);
            copy_added += placed;
        }
        EXPECT_EQ(added, copy_added);
        EXPECT_GT(added, 0u);
        EXPECT_EQ(in_place_touched, copy_touched);
        EXPECT_EQ(in_place_rng.next_u64(), copy_rng.next_u64());
        for (std::size_t i = 0; i < copies.size(); ++i) {
            const FaultMap& got = acc.crossbar(i).fault_map();
            ASSERT_EQ(got.num_faults(), copies[i].num_faults());
            EXPECT_EQ(got.num_soft(), copies[i].num_soft());
            copies[i].for_each_fault([&](const CellFault& f) {
                EXPECT_EQ(got.at(f.row, f.col), f.type);
                EXPECT_EQ(got.is_soft(f.row, f.col), copies[i].is_soft(f.row, f.col));
            });
        }
    }
}

TEST(AcceleratorTest, AreaAndPowerRollUp) {
    Accelerator acc(small_config());
    EXPECT_NEAR(acc.total_area_mm2(), 2 * 0.157, 1e-9);
    EXPECT_NEAR(acc.peak_power_w(), 2 * 0.34, 1e-9);
}

TEST(AcceleratorTest, InvalidConfigRejected) {
    AcceleratorConfig cfg = small_config();
    cfg.num_tiles = 0;
    EXPECT_THROW(Accelerator{cfg}, InvalidArgument);
}

}  // namespace
}  // namespace fare
