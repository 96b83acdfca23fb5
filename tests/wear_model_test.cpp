// Contract of the endurance-driven wear model (reram/wear_model.hpp):
// per-cell write accounting is monotone, lifetime draws are a deterministic
// function of the seed, arrivals fire exactly once per cell when its write
// count crosses its lifetime, and hot-spot clustering concentrates wear.
#include "reram/wear_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "reram/accelerator.hpp"

namespace fare {
namespace {

/// Tiny chip: two 16x16 crossbars in one tile — every scan is instant.
AcceleratorConfig tiny_chip() {
    AcceleratorConfig config;
    config.tile.crossbar_rows = 16;
    config.tile.crossbar_cols = 16;
    config.tile.crossbars_per_tile = 2;
    config.num_tiles = 1;
    return config;
}

WearSpec spec_with(double endurance, double hot_fraction = 0.0) {
    WearSpec spec;
    spec.endurance_mean_writes = endurance;
    spec.hot_spot_fraction = hot_fraction;
    return spec;
}

TEST(CrossbarWritesTest, PerCellCountsAreMonotone) {
    Crossbar xb(8, 8);
    EXPECT_EQ(xb.writes(3, 4), 0u);
    EXPECT_EQ(xb.total_writes(), 0u);

    xb.program(3, 4, 1);
    xb.program(3, 4, 2);
    xb.program(0, 0, 3);
    EXPECT_EQ(xb.writes(3, 4), 2u);
    EXPECT_EQ(xb.writes(0, 0), 1u);
    EXPECT_EQ(xb.writes(7, 7), 0u);
    EXPECT_EQ(xb.total_writes(), 3u);
    EXPECT_EQ(xb.max_cell_writes(), 2u);

    // A bulk array reprogram advances every cell by the same charge, O(1).
    xb.add_uniform_writes(10);
    EXPECT_EQ(xb.writes(3, 4), 12u);
    EXPECT_EQ(xb.writes(7, 7), 10u);
    EXPECT_EQ(xb.uniform_writes(), 10u);
    EXPECT_EQ(xb.max_cell_writes(), 12u);
    EXPECT_EQ(xb.total_writes(), 3u + 10u * 64u);
}

TEST(WearModelTest, LifetimeDrawsAreDeterministicPerSeed) {
    const WearSpec spec = spec_with(1000.0, 0.3);
    const WearModel a(4, 16, 16, spec, 0.1, 42);
    const WearModel b(4, 16, 16, spec, 0.1, 42);
    const WearModel c(4, 16, 16, spec, 0.1, 43);

    bool any_differs = false;
    for (std::size_t x = 0; x < 4; ++x) {
        EXPECT_EQ(a.is_hot_spot(x), b.is_hot_spot(x));
        for (std::uint16_t r = 0; r < 16; ++r)
            for (std::uint16_t col = 0; col < 16; ++col) {
                const double la = a.cell_lifetime(x, r, col);
                EXPECT_GT(la, 0.0);
                EXPECT_TRUE(std::isfinite(la));
                EXPECT_DOUBLE_EQ(la, b.cell_lifetime(x, r, col));
                if (la != c.cell_lifetime(x, r, col)) any_differs = true;
            }
    }
    EXPECT_TRUE(any_differs);  // a different seed draws different lifetimes
}

TEST(WearModelTest, MeanLifetimeMatchesEnduranceKnob) {
    // The knob is the *mean* writes-to-failure (the Weibull scale is solved
    // via Gamma(1 + 1/k)); check the empirical mean over 4096 draws.
    const double endurance = 5000.0;
    const WearModel model(1, 64, 64, spec_with(endurance), 0.1, 7);
    double sum = 0.0;
    for (std::uint16_t r = 0; r < 64; ++r)
        for (std::uint16_t c = 0; c < 64; ++c) sum += model.cell_lifetime(0, r, c);
    const double mean = sum / 4096.0;
    EXPECT_NEAR(mean, endurance, 0.05 * endurance);
}

TEST(WearModelTest, HotSpotFractionBoundsAndSeverity) {
    const WearModel none(64, 8, 8, spec_with(1000.0, 0.0), 0.1, 5);
    const WearModel all(64, 8, 8, spec_with(1000.0, 1.0), 0.1, 5);
    const WearModel half(64, 8, 8, spec_with(1000.0, 0.5), 0.1, 5);
    std::size_t hot = 0;
    for (std::size_t x = 0; x < 64; ++x) {
        EXPECT_FALSE(none.is_hot_spot(x));
        EXPECT_TRUE(all.is_hot_spot(x));
        if (half.is_hot_spot(x)) ++hot;
    }
    EXPECT_GT(hot, 16u);  // loose binomial bounds around 32
    EXPECT_LT(hot, 48u);
    // Hot spots divide the endurance mean by the severity.
    for (std::size_t x = 0; x < 64; ++x)
        EXPECT_DOUBLE_EQ(all.crossbar_endurance(x), 1000.0 / 8.0);
}

TEST(WearModelTest, AdvanceFiresOncePerCellAndPinsFaults) {
    Accelerator acc(tiny_chip());
    WearModel model(acc.num_crossbars(), 16, 16, spec_with(100.0), 0.5, 9);

    // No writes yet: nothing can have expired.
    EXPECT_TRUE(model.advance(acc).empty());

    // Wear out every cell of crossbar 0 only.
    acc.crossbar(0).add_uniform_writes(1u << 20);
    const auto arrivals = model.advance(acc);
    EXPECT_EQ(arrivals.size(), 256u);
    EXPECT_EQ(model.total_worn(), 256u);
    for (const WornCell& cell : arrivals) EXPECT_EQ(cell.crossbar, 0u);
    EXPECT_DOUBLE_EQ(acc.crossbar(0).fault_map().fault_density(), 1.0);
    EXPECT_EQ(acc.crossbar(1).fault_map().num_faults(), 0u);
    // Both polarities appear at sa1_fraction = 0.5.
    EXPECT_GT(acc.crossbar(0).fault_map().num_sa0(), 0u);
    EXPECT_GT(acc.crossbar(0).fault_map().num_sa1(), 0u);

    // Already-worn cells are never reported again.
    EXPECT_TRUE(model.advance(acc).empty());
    EXPECT_EQ(model.total_worn(), 256u);
}

TEST(WearModelTest, ExistingFaultsKeepTheirType) {
    Accelerator acc(tiny_chip());
    FaultMap pre(16, 16);
    pre.add(2, 3, FaultType::kSA0);
    acc.crossbar(0).set_fault_map(std::move(pre));

    WearModel model(acc.num_crossbars(), 16, 16, spec_with(100.0),
                    /*sa1_fraction=*/1.0, 11);
    acc.crossbar(0).add_uniform_writes(1u << 20);
    const auto arrivals = model.advance(acc);
    // The pre-faulted cell wears out silently (nothing new to observe).
    EXPECT_EQ(arrivals.size(), 255u);
    EXPECT_EQ(model.total_worn(), 256u);
    EXPECT_EQ(acc.crossbar(0).fault_map().at(2, 3), FaultType::kSA0);
    EXPECT_EQ(acc.crossbar(0).fault_map().num_sa1(), 255u);
}

TEST(WearModelTest, NoArrivalsBeforeAnyLifetime) {
    Accelerator acc(tiny_chip());
    WearModel model(acc.num_crossbars(), 16, 16, spec_with(1e12), 0.1, 13);
    acc.crossbar(0).add_uniform_writes(1000);
    acc.crossbar(1).add_uniform_writes(1000);
    EXPECT_TRUE(model.advance(acc).empty());
    EXPECT_EQ(model.total_worn(), 0u);
    EXPECT_EQ(acc.crossbar(0).fault_map().num_faults(), 0u);
}

TEST(WearModelTest, HotSpotsWearOutFirst) {
    // Equal write traffic, 8x severity: hot crossbars must lose more cells.
    AcceleratorConfig config = tiny_chip();
    config.tile.crossbars_per_tile = 16;
    Accelerator acc(config);
    WearModel model(acc.num_crossbars(), 16, 16, spec_with(10000.0, 0.5), 0.1,
                    17);
    std::size_t hot_count = 0;
    for (std::size_t x = 0; x < acc.num_crossbars(); ++x) {
        if (model.is_hot_spot(x)) ++hot_count;
        acc.crossbar(x).add_uniform_writes(5000);  // endurance/2 of a cold cell
    }
    ASSERT_GT(hot_count, 0u);
    ASSERT_LT(hot_count, acc.num_crossbars());
    model.advance(acc);
    double hot_density = 0.0, cold_density = 0.0;
    for (std::size_t x = 0; x < acc.num_crossbars(); ++x) {
        const double d = acc.crossbar(x).fault_map().fault_density();
        if (model.is_hot_spot(x))
            hot_density += d / static_cast<double>(hot_count);
        else
            cold_density +=
                d / static_cast<double>(acc.num_crossbars() - hot_count);
    }
    EXPECT_GT(hot_density, 0.9);        // hot spots are nearly dead...
    EXPECT_LT(cold_density, 0.5);       // ...while cold crossbars survive
    EXPECT_GT(hot_density, 2.0 * cold_density);
}

TEST(WearModelTest, AdvanceArrivalsFollowCellLifetimeOnHotSpot) {
    // advance() draws a crossbar's lifetimes at its scale resolved once; the
    // cells it reports must be exactly those whose cell_lifetime() the write
    // count reached, at two successive write levels.
    Accelerator acc(tiny_chip());
    const WearModel reference(acc.num_crossbars(), 16, 16, spec_with(1000.0, 1.0),
                              0.1, 23);
    WearModel model = reference;
    ASSERT_TRUE(model.is_hot_spot(0));
    std::uint64_t before = 0;
    for (const std::uint64_t writes : {100ull, 160ull}) {
        acc.crossbar(0).add_uniform_writes(writes - before);
        const auto arrivals = model.advance(acc);
        std::size_t next = 0;
        for (std::uint16_t r = 0; r < 16; ++r)
            for (std::uint16_t c = 0; c < 16; ++c) {
                const double life = reference.cell_lifetime(0, r, c);
                if (!(static_cast<double>(before) < life &&
                      life <= static_cast<double>(writes)))
                    continue;
                ASSERT_LT(next, arrivals.size()) << "cell " << r << "," << c;
                EXPECT_EQ(arrivals[next].crossbar, 0u);
                EXPECT_EQ(arrivals[next].fault.row, r);
                EXPECT_EQ(arrivals[next].fault.col, c);
                EXPECT_EQ(arrivals[next].at_writes, writes);
                ++next;
            }
        EXPECT_EQ(next, arrivals.size());
        EXPECT_GT(next, 0u);
        EXPECT_LT(next, 256u);
        before = writes;
    }
}

TEST(WearModelTest, DisabledModelIsANoOp) {
    Accelerator acc(tiny_chip());
    WearModel model;
    EXPECT_FALSE(model.enabled());
    acc.crossbar(0).add_uniform_writes(1u << 30);
    EXPECT_TRUE(model.advance(acc).empty());
    EXPECT_EQ(model.total_worn(), 0u);
}

TEST(WearModelTest, RejectsInvalidSpecs) {
    EXPECT_THROW(WearModel(1, 8, 8, spec_with(-1.0), 0.1, 1), InvalidArgument);
    WearSpec bad_shape = spec_with(100.0);
    bad_shape.weibull_shape = 0.0;
    EXPECT_THROW(WearModel(1, 8, 8, bad_shape, 0.1, 1), InvalidArgument);
    EXPECT_THROW(WearModel(1, 8, 8, spec_with(100.0, 1.5), 0.1, 1),
                 InvalidArgument);
    WearSpec bad_sev = spec_with(100.0);
    bad_sev.hot_spot_severity = 0.5;
    EXPECT_THROW(WearModel(1, 8, 8, bad_sev, 0.1, 1), InvalidArgument);
    EXPECT_THROW(WearModel(1, 8, 8, spec_with(100.0), 2.0, 1), InvalidArgument);
}

}  // namespace
}  // namespace fare
