#include "fare/baselines.hpp"

#include "common/error.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "common/fp_mode.hpp"
#include "common/rng.hpp"
#include "fare/scenario.hpp"

namespace fare {
namespace {

FaultyHardwareConfig test_config(double density, double sa1) {
    FaultyHardwareConfig cfg;
    cfg.faults.density = density;
    cfg.faults.sa1_fraction = sa1;
    cfg.seed = 77;
    return cfg;
}

/// A small parameter set mimicking a 2-layer GCN.
std::vector<Matrix> make_params(Rng& rng) {
    std::vector<Matrix> params;
    params.emplace_back(32, 32);
    params.emplace_back(32, 8);
    for (auto& p : params) p.xavier_init(rng);
    return params;
}

std::vector<Matrix*> pointers(std::vector<Matrix>& params) {
    std::vector<Matrix*> out;
    for (auto& p : params) out.push_back(&p);
    return out;
}

BitMatrix random_batch(std::size_t n, Rng& rng) {
    BitMatrix adj(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = r + 1; c < n; ++c)
            if (rng.next_bool(0.05)) {
                adj.set(r, c, 1);
                adj.set(c, r, 1);
            }
    return adj;
}

TEST(IdealHardwareTest, QuantizesOnly) {
    IdealQuantizedHardware hw;
    Matrix w{{0.126f, -0.374f}};
    const Matrix out = hw.effective_weights(0, w);
    EXPECT_LE(max_abs_diff(out, w), kFixedStep / 2 + 1e-6f);
}

TEST(FaultyHardwareTest, FaultFreeSchemeRejected) {
    EXPECT_THROW(FaultyHardware(Scheme::kFaultFree, test_config(0.01, 0.1)),
                 InvalidArgument);
}

TEST(FaultyHardwareTest, RejectsInvalidChipDescriptions) {
    for (const double fraction : {-0.1, 1.5, std::nan("")}) {
        FaultyHardwareConfig cfg = test_config(0.01, 0.1);
        cfg.hw.spare_column_fraction = fraction;
        EXPECT_THROW(FaultyHardware(Scheme::kRedundantCols, cfg), InvalidArgument)
            << "spare column fraction " << fraction;
    }
    // Post-deployment faults spread over zero epochs: to_hardware_config()
    // resolves post_epochs == 0 to the training length, a hand-built config
    // must set it.
    FaultyHardwareConfig cfg = test_config(0.01, 0.1);
    cfg.faults.post_total_density = 0.02;
    EXPECT_THROW(FaultyHardware(Scheme::kFARe, cfg), InvalidArgument);
    cfg.faults.post_epochs = 4;
    EXPECT_NO_THROW(FaultyHardware(Scheme::kFARe, cfg));
}

TEST(FaultyHardwareTest, FactoryCoversAllSchemes) {
    for (Scheme s : {Scheme::kFaultFree, Scheme::kFaultUnaware,
                     Scheme::kNeuronReorder, Scheme::kClippingOnly, Scheme::kFARe}) {
        auto hw = make_hardware(s, test_config(0.01, 0.1));
        ASSERT_NE(hw, nullptr);
    }
}

TEST(FaultyHardwareTest, UnawareCorruptsWeightsUnbounded) {
    Rng rng(1);
    auto params = make_params(rng);
    FaultyHardware hw(Scheme::kFaultUnaware, test_config(0.05, 0.5));
    hw.bind_params(pointers(params));
    float worst = 0.0f;
    for (std::size_t i = 0; i < params.size(); ++i)
        worst = std::max(worst, hw.effective_weights(i, params[i]).max_abs());
    // With 5% faults at 1:1 over two matrices, some MSB SA1 explosion is
    // essentially certain.
    EXPECT_GT(worst, 10.0f);
}

TEST(FaultyHardwareTest, FareClipsWeights) {
    Rng rng(2);
    auto params = make_params(rng);
    FaultyHardwareConfig cfg = test_config(0.05, 0.5);
    cfg.hw.clip_threshold = 2.0f;
    FaultyHardware hw(Scheme::kFARe, cfg);
    hw.bind_params(pointers(params));
    for (std::size_t i = 0; i < params.size(); ++i)
        EXPECT_LE(hw.effective_weights(i, params[i]).max_abs(), 2.0f);
}

TEST(FaultyHardwareTest, HealthyWeightsSurviveCorruption) {
    Rng rng(3);
    auto params = make_params(rng);
    FaultyHardware hw(Scheme::kFaultUnaware, test_config(0.0, 0.1));
    hw.bind_params(pointers(params));
    // Zero fault density: corruption is pure quantisation.
    const Matrix out = hw.effective_weights(0, params[0]);
    EXPECT_LE(max_abs_diff(out, params[0]), kFixedStep / 2 + 1e-6f);
}

TEST(FaultyHardwareTest, PruningZeroesBottomWeightsAndMasksFaults) {
    Rng rng(9);
    auto params = make_params(rng);
    FaultyHardwareConfig cfg = test_config(0.2, 1.0);  // heavy SA1 damage
    cfg.hw.prune_fraction = 0.5;
    FaultyHardware hw(Scheme::kFaultUnaware, cfg);
    hw.bind_params(pointers(params));
    const Matrix& w = params[0];
    const Matrix out = hw.effective_weights(0, w);

    // Recompute the significance mask the hardware applies: bottom half by
    // |w|, ties broken by flat index (stable order).
    const std::size_t total = w.rows() * w.cols();
    std::vector<std::size_t> order(total);
    for (std::size_t i = 0; i < total; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return std::fabs(w.flat()[a]) < std::fabs(w.flat()[b]);
                     });
    const std::size_t k = static_cast<std::size_t>(0.5 * total);
    // Every pruned cell reads exactly zero — SA1 faults underneath are
    // masked, never exploding a weight the model does not use.
    for (std::size_t i = 0; i < k; ++i)
        EXPECT_EQ(out.flat()[order[i]], 0.0f) << "pruned idx " << order[i];

    // Same chip without pruning: the bottom half is NOT all-zero (quantised
    // small weights plus SA1 explosions keep plenty of them nonzero).
    cfg.hw.prune_fraction = 0.0;
    FaultyHardware dense(Scheme::kFaultUnaware, cfg);
    dense.bind_params(pointers(params));
    const Matrix dense_out = dense.effective_weights(0, w);
    std::size_t nonzero = 0;
    for (std::size_t i = 0; i < k; ++i)
        if (dense_out.flat()[order[i]] != 0.0f) ++nonzero;
    EXPECT_GT(nonzero, 0u);
}

/// The O(n log n) mask significance_prune_mask replaced: stable-sort the
/// flat indices by `mag`, mark the first floor(fraction * size).
template <class Mag>
std::vector<std::uint8_t> stable_sort_prune_mask(const Matrix& w, double fraction,
                                                 Mag mag) {
    const auto flat = w.flat();
    const auto k = static_cast<std::size_t>(fraction * static_cast<double>(w.size()));
    std::vector<std::uint32_t> order(w.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
        return mag(flat[a]) < mag(flat[b]);
    });
    std::vector<std::uint8_t> mask(w.size(), 0);
    for (std::size_t i = 0; i < k; ++i) mask[order[i]] = 1;
    return mask;
}

/// |x|, with subnormal magnitudes ranked as zero.
float flushed_magnitude(float x) {
    return std::fpclassify(x) == FP_SUBNORMAL ? 0.0f : std::fabs(x);
}

/// 1 x n weights drawn mostly from a small pool (many ties, ±0, ±subnormals,
/// ±inf), with some uniform values in between.
Matrix tie_heavy_weights(std::mt19937& gen, std::size_t n) {
    const float sub = std::numeric_limits<float>::denorm_min();
    const float pool[] = {0.0f,  -0.0f, sub,   -sub,  1e-40f, -1e-40f,
                          std::numeric_limits<float>::min(), 0.5f, -0.5f, 1.0f,
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()};
    std::uniform_int_distribution<std::size_t> pick(0, std::size(pool) + 3);
    std::uniform_real_distribution<float> uniform(-2.0f, 2.0f);
    Matrix w(1, n);
    for (float& x : w.flat()) {
        const std::size_t i = pick(gen);
        x = i < std::size(pool) ? pool[i] : uniform(gen);
    }
    return w;
}

TEST(SignificancePruneMaskTest, MatchesStableSortOnTiesZerosAndSubnormals) {
    std::mt19937 gen(2106);
    for (const std::size_t n : {1u, 2u, 3u, 7u, 8u, 9u, 31u, 64u, 100u, 257u, 1000u}) {
        const Matrix w = tie_heavy_weights(gen, n);
        for (const double fraction : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999}) {
            const std::vector<std::uint8_t> mask = significance_prune_mask(w, fraction);
            EXPECT_EQ(mask, stable_sort_prune_mask(w, fraction, flushed_magnitude))
                << "n=" << n << " fraction=" << fraction;
            // With subnormals flushed, the old comparator on raw |w| sees the
            // same order the training loop gave it.
            FlushDenormalsScope flush;
            volatile float tiny = 1e-40f;
            if (tiny != 0.0f) continue;  // no flush mode on this target
            EXPECT_EQ(mask, stable_sort_prune_mask(w, fraction,
                                                   [](float x) { return std::fabs(x); }))
                << "flushed n=" << n << " fraction=" << fraction;
        }
    }
}

TEST(SignificancePruneMaskTest, NaNRanksAboveEveryNumber) {
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const Matrix w{{nan, 3.0f, -inf, -nan, 0.0f, 1.0f, nan, -2.0f}};
    // Bottom 5 of the 5 numbers: every number, no NaN.
    EXPECT_EQ(significance_prune_mask(w, 5.0 / 8.0),
              (std::vector<std::uint8_t>{0, 1, 1, 0, 1, 1, 0, 1}));
    // Beyond them, NaNs go by flat index.
    EXPECT_EQ(significance_prune_mask(w, 6.0 / 8.0),
              (std::vector<std::uint8_t>{1, 1, 1, 0, 1, 1, 0, 1}));
    EXPECT_EQ(significance_prune_mask(w, 0.25),
              (std::vector<std::uint8_t>{0, 0, 0, 0, 1, 1, 0, 0}));
    EXPECT_THROW(significance_prune_mask(w, 1.0), InvalidArgument);
}

TEST(FaultyHardwareTest, NrPermutationReducesWeightDamage) {
    Rng rng(4);
    auto params = make_params(rng);
    FaultyHardwareConfig cfg = test_config(0.05, 0.5);
    FaultyHardware nr(Scheme::kNeuronReorder, cfg);
    FaultyHardware unaware(Scheme::kFaultUnaware, cfg);
    nr.bind_params(pointers(params));
    unaware.bind_params(pointers(params));
    double nr_err = 0.0, un_err = 0.0;
    for (std::size_t i = 0; i < params.size(); ++i) {
        nr_err += max_abs_diff(nr.effective_weights(i, params[i]), params[i]);
        un_err += max_abs_diff(unaware.effective_weights(i, params[i]), params[i]);
    }
    // Same fault map (same seed); NR's row relocation must not be worse.
    EXPECT_LE(nr_err, un_err + 1e-3);
}

TEST(FaultyHardwareTest, AdjacencyFaultsAppearForUnaware) {
    Rng rng(5);
    auto params = make_params(rng);
    FaultyHardware hw(Scheme::kFaultUnaware, test_config(0.05, 0.5));
    hw.bind_params(pointers(params));
    const BitMatrix ideal = random_batch(200, rng);
    hw.preprocess({ideal});
    const BitMatrix eff = hw.effective_adjacency(0, ideal);
    EXPECT_NE(eff.bits, ideal.bits);
}

TEST(FaultyHardwareTest, FareAdjacencyLessCorruptedThanUnaware) {
    Rng rng(6);
    auto params = make_params(rng);
    const BitMatrix ideal = random_batch(200, rng);

    auto corruption = [&](Scheme s) {
        auto local = make_params(rng);
        FaultyHardware hw(s, test_config(0.05, 0.5));
        hw.bind_params(pointers(local));
        hw.preprocess({ideal});
        const BitMatrix eff = hw.effective_adjacency(0, ideal);
        std::size_t flips = 0;
        for (std::size_t i = 0; i < eff.bits.size(); ++i)
            if (eff.bits[i] != ideal.bits[i]) ++flips;
        return flips;
    };
    EXPECT_LT(corruption(Scheme::kFARe), corruption(Scheme::kFaultUnaware) / 2);
}

TEST(FaultyHardwareTest, DisablingPhaseKnobsWorks) {
    Rng rng(7);
    auto params = make_params(rng);
    FaultyHardwareConfig cfg = test_config(0.05, 0.5);
    cfg.faults.faults_on_weights = false;
    cfg.faults.faults_on_adjacency = false;
    FaultyHardware hw(Scheme::kFaultUnaware, cfg);
    hw.bind_params(pointers(params));
    const BitMatrix ideal = random_batch(100, rng);
    hw.preprocess({ideal});
    EXPECT_LE(max_abs_diff(hw.effective_weights(0, params[0]), params[0]),
              kFixedStep / 2 + 1e-6f);
    EXPECT_EQ(hw.effective_adjacency(0, ideal).bits, ideal.bits);
}

TEST(FaultyHardwareTest, PostDeploymentFaultsGrow) {
    Rng rng(8);
    auto params = make_params(rng);
    FaultyHardwareConfig cfg = test_config(0.01, 0.1);
    cfg.faults.post_total_density = 0.02;
    cfg.faults.post_epochs = 4;
    FaultyHardware hw(Scheme::kFARe, cfg);
    hw.bind_params(pointers(params));
    const BitMatrix ideal = random_batch(150, rng);
    hw.preprocess({ideal});
    const double before = mean_fault_density(hw.accelerator().true_fault_maps());
    for (std::size_t e = 0; e < 4; ++e) hw.on_epoch_end(e);
    const double after = mean_fault_density(hw.accelerator().true_fault_maps());
    EXPECT_NEAR(after - before, 0.02, 0.008);
    EXPECT_GT(hw.bist_scans(), 0u);
}

TEST(FaultyHardwareTest, MappingsCreatedPerBatch) {
    Rng rng(9);
    auto params = make_params(rng);
    FaultyHardware hw(Scheme::kFARe, test_config(0.03, 0.1));
    hw.bind_params(pointers(params));
    std::vector<BitMatrix> batches{random_batch(150, rng), random_batch(170, rng),
                                   random_batch(130, rng)};
    hw.preprocess(batches);
    EXPECT_EQ(hw.batch_mappings().size(), 3u);
}


/// 64-bit FNV-1a over raw bytes.
struct Fnv1a {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void bytes(const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }
    template <typename T>
    void value(T v) {
        bytes(&v, sizeof v);
    }
};

/// Every path that rebuilds the fault view — bind-time marches, epoch-end
/// BIST refreshes with FARe re-permutation and NR re-reordering, redundant
/// column repair, mid-epoch arrivals, soft errors, wear and the online
/// detection rounds — folded into one digest per (schedule, scheme). The
/// digests were recorded before the fault-view paths were merged into one;
/// any change to what a scheme sees, or to what it is charged, moves them.
TEST(FaultyHardwareTest, RefreshPathsArePinned) {
    FaultScenario post = FaultScenario::pre_deployment(0.03, 0.5);
    post.with_post_deployment(0.04);
    FaultScenario live = FaultScenario::pre_deployment(0.03, 0.5);
    WearSpec wear;
    wear.endurance_mean_writes = 50000.0;
    wear.hot_spot_fraction = 0.25;
    wear.writes_per_step = 100;
    live.with_post_deployment(0.02)
        .with_wear(wear)
        .with_soft_errors(0.002)
        .with_arrival_period(2);

    const Scheme schemes[] = {Scheme::kFaultUnaware, Scheme::kNeuronReorder,
                              Scheme::kClippingOnly,  Scheme::kFARe,
                              Scheme::kRedundantCols, Scheme::kOnlineFARe,
                              Scheme::kOnlineNaive};
    const std::uint64_t expected[2][7] = {
        {0x0dee955613fb59cfULL, 0xea7bb33cb78098d5ULL, 0x160686d8178053b9ULL,
         0xeb1b00d57b7c68bcULL, 0x110b9bfddc5076f4ULL, 0x1eee087ebfc1eb0bULL,
         0x3acc346db66dcfa4ULL},
        {0xaaf2b7c9f69bc0cdULL, 0xabfeac2b5e0ca944ULL, 0x03fbe7106920fc12ULL,
         0xe5401f3f2f52929eULL, 0x3854ba6930fa594fULL, 0x35e5ce2641240f74ULL,
         0x70793637c684b41bULL},
    };
    constexpr std::size_t kEpochs = 2, kSteps = 4;
    const FaultScenario* scenarios[] = {&post, &live};
    for (std::size_t sc = 0; sc < 2; ++sc) {
        for (std::size_t k = 0; k < 7; ++k) {
            const Scheme scheme = schemes[k];
            HardwareOverrides overrides;
            if (scheme_is_online(scheme)) overrides.online.detect_period_batches = 2;
            FaultyHardware hw(scheme, to_hardware_config(*scenarios[sc], overrides,
                                                         /*seed=*/31, kEpochs));
            Rng rng(11);
            auto params = make_params(rng);
            hw.bind_params(pointers(params));
            const std::vector<BitMatrix> batches{random_batch(150, rng),
                                                 random_batch(130, rng)};
            hw.preprocess(batches);

            Fnv1a digest;
            auto fold = [&] {
                for (std::size_t i = 0; i < params.size(); ++i) {
                    const Matrix eff = hw.effective_weights(i, params[i]);
                    digest.bytes(eff.flat().data(), eff.flat().size() * sizeof(float));
                }
                for (std::size_t b = 0; b < batches.size(); ++b) {
                    const BitMatrix eff = hw.effective_adjacency(b, batches[b]);
                    digest.bytes(eff.bits.data(), eff.bits.size());
                }
                digest.value(hw.weights_state_version());
                digest.value(hw.adjacency_state_version());
                digest.value(hw.bist_scans());
                digest.value(hw.wear_faults());
                digest.value(hw.total_mapping_cost());
                const OnlineToleranceStats st = hw.online_stats();
                for (const std::uint64_t v :
                     {st.detection_rounds, st.march_cell_ops, st.readback_checks,
                      st.faults_detected, st.soft_repaired, st.repair_writes,
                      st.columns_substituted, st.crossbars_exhausted,
                      st.latency_steps_sum, st.latency_samples})
                    digest.value(v);
                digest.value(st.detect_seconds);
                digest.value(st.repair_seconds);
            };
            fold();
            for (std::size_t e = 0; e < kEpochs; ++e) {
                for (std::size_t s = 0; s < kSteps; ++s) {
                    hw.on_step_end(e, s, kSteps);
                    fold();
                }
                hw.on_epoch_end(e);
                fold();
            }
            EXPECT_EQ(digest.h, expected[sc][k])
                << "schedule " << sc << ", scheme " << scheme_name(scheme);
        }
    }
}

}  // namespace
}  // namespace fare
