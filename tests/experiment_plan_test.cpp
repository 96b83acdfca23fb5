// Unit tests for the declarative experiment API: FaultScenario lowering,
// SweepBuilder cross-product enumeration and ordering, the canonical
// memoization key, and the pinned cells of every built-in plan.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/error.hpp"
#include "fare/baselines.hpp"
#include "sim/builtin_plans.hpp"
#include "sim/plan.hpp"
#include "sim/serialization.hpp"

namespace fare {
namespace {

TEST(FaultScenarioTest, BuildersComposeAndValidate) {
    FaultScenario s = FaultScenario::pre_deployment(0.05, 0.5);
    EXPECT_DOUBLE_EQ(s.density, 0.05);
    EXPECT_DOUBLE_EQ(s.sa1_fraction, 0.5);
    EXPECT_DOUBLE_EQ(s.post_sa1_fraction, 0.5);  // mirrors pre by default
    EXPECT_FALSE(s.fault_free());

    s.with_post_deployment(0.01, 0.9).with_read_noise(0.02);
    EXPECT_DOUBLE_EQ(s.post_total_density, 0.01);
    EXPECT_DOUBLE_EQ(s.post_sa1_fraction, 0.9);
    EXPECT_DOUBLE_EQ(s.read_noise_sigma, 0.02);

    EXPECT_TRUE(FaultScenario::none().fault_free());
    EXPECT_THROW(FaultScenario::pre_deployment(1.5, 0.1), InvalidArgument);
    EXPECT_THROW(FaultScenario::pre_deployment(0.05, -0.1), InvalidArgument);
    EXPECT_THROW(FaultScenario::none().with_read_noise(-1.0), InvalidArgument);
}

TEST(FaultScenarioTest, KeyNormalizesInertFields) {
    // No injected density: the SA1 ratio and clustering are unused.
    FaultScenario a = FaultScenario::pre_deployment(0.0, 0.1);
    FaultScenario b = FaultScenario::pre_deployment(0.0, 0.9);
    b.cluster_shape = 4.0;
    EXPECT_EQ(a.key(), b.key());

    // No wear stream: its ratio/schedule are unused.
    FaultScenario c = FaultScenario::pre_deployment(0.03, 0.5);
    FaultScenario d = c;
    d.post_sa1_fraction = 0.9;
    d.post_epochs = 7;
    EXPECT_EQ(c.key(), d.key());
    d.with_post_deployment(0.01, 0.9);  // live wear stream: fields count
    EXPECT_NE(c.key(), d.key());
}

TEST(FaultScenarioTest, WearAndArrivalKeyNormalization) {
    // Wear disabled: shape / severity / cadence are inert, and the key is
    // byte-identical to a pre-wear scenario's (legacy caches and derived
    // seeds stay stable).
    FaultScenario plain = FaultScenario::pre_deployment(0.03, 0.5);
    FaultScenario inert = plain;
    inert.wear.weibull_shape = 5.0;
    inert.wear.hot_spot_severity = 3.0;
    inert.arrival_period_batches = 4;  // no fault source: cadence unused
    EXPECT_EQ(plain.key(), inert.key());
    EXPECT_EQ(plain.key().find(";wear="), std::string::npos);

    // Enabled wear: every wear knob and the cadence become load-bearing.
    FaultScenario worn = plain;
    worn.with_wear(50000.0, 0.25).with_arrival_period(2);
    EXPECT_FALSE(worn.fault_free());
    EXPECT_NE(worn.key(), plain.key());
    FaultScenario other = worn;
    other.wear.hot_spot_fraction = 0.5;
    EXPECT_NE(other.key(), worn.key());
    other = worn;
    other.arrival_period_batches = 7;
    EXPECT_NE(other.key(), worn.key());
    other = worn;
    other.wear.writes_per_step = 64;
    EXPECT_NE(other.key(), worn.key());

    // The cadence also matters for a uniform stream without wear.
    FaultScenario uniform = plain;
    uniform.with_post_deployment(0.01).with_arrival_period(3);
    FaultScenario boundary_only = plain;
    boundary_only.with_post_deployment(0.01);
    EXPECT_NE(uniform.key(), boundary_only.key());

    // The two-knob overload keeps a previously configured hot-spot
    // fraction when the argument is omitted.
    FaultScenario retune = plain;
    retune.with_wear(50000.0, 0.25);
    retune.with_wear(80000.0);
    EXPECT_DOUBLE_EQ(retune.wear.endurance_mean_writes, 80000.0);
    EXPECT_DOUBLE_EQ(retune.wear.hot_spot_fraction, 0.25);

    EXPECT_THROW(FaultScenario::none().with_wear(-1.0), InvalidArgument);
    EXPECT_THROW(FaultScenario::none().with_wear(100.0, 1.5), InvalidArgument);
}

TEST(FaultScenarioTest, PhaseRestriction) {
    FaultScenario w = FaultScenario::pre_deployment(0.05, 0.0);
    w.on_weights_only();
    EXPECT_TRUE(w.faults_on_weights);
    EXPECT_FALSE(w.faults_on_adjacency);
    FaultScenario a = FaultScenario::pre_deployment(0.05, 0.0);
    a.on_adjacency_only();
    EXPECT_FALSE(a.faults_on_weights);
    EXPECT_TRUE(a.faults_on_adjacency);
    EXPECT_NE(w.key(), a.key());
}

TEST(FaultScenarioTest, LoweringMatchesFields) {
    FaultScenario s = FaultScenario::pre_deployment(0.03, 0.5);
    s.with_post_deployment(0.01);
    s.cluster_shape = 2.0;
    HardwareOverrides hw;
    hw.num_tiles = 2;
    hw.match_weights = {1.0, 1.0};
    const FaultyHardwareConfig cfg = to_hardware_config(s, hw, 7, 40);
    EXPECT_EQ(cfg.hw.num_tiles, 2);
    EXPECT_DOUBLE_EQ(cfg.faults.density, 0.03);
    EXPECT_DOUBLE_EQ(cfg.faults.sa1_fraction, 0.5);
    EXPECT_DOUBLE_EQ(cfg.faults.cluster_shape, 2.0);
    EXPECT_EQ(cfg.seed, 7u);
    EXPECT_DOUBLE_EQ(cfg.faults.post_total_density, 0.01);
    EXPECT_DOUBLE_EQ(cfg.faults.post_sa1_fraction, 0.5);
    EXPECT_EQ(cfg.faults.post_epochs, 40u);  // unpinned: spreads over training
    EXPECT_DOUBLE_EQ(cfg.hw.match_weights.sa1, 1.0);

    s.post_epochs = 10;  // pinned schedule wins over the training length
    EXPECT_EQ(to_hardware_config(s, hw, 7, 40).faults.post_epochs, 10u);
}

TEST(SweepBuilderTest, CrossProductEnumeration) {
    const ExperimentPlan plan = SweepBuilder("grid")
                                    .workloads(fig6_workloads())
                                    .densities({0.01, 0.03})
                                    .sa1_fractions({0.1, 0.5})
                                    .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
                                    .seeds({1, 2, 3})
                                    .build();
    EXPECT_EQ(plan.size(), 3u * 2 * 2 * 2 * 3);

    // Deterministic order: workload-major, then density, sa1, scheme, seed.
    EXPECT_EQ(plan.cells[0].workload.label(), "PPI (GAT)");
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.density, 0.01);
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.sa1_fraction, 0.1);
    EXPECT_EQ(plan.cells[0].scheme, Scheme::kFaultUnaware);
    EXPECT_EQ(plan.cells[0].seed, 1u);
    EXPECT_EQ(plan.cells[1].seed, 2u);                       // seed fastest
    EXPECT_EQ(plan.cells[3].scheme, Scheme::kFARe);          // then scheme
    EXPECT_DOUBLE_EQ(plan.cells[6].faults.sa1_fraction, 0.5);  // then sa1
    EXPECT_DOUBLE_EQ(plan.cells[12].faults.density, 0.03);     // then density
    EXPECT_EQ(plan.cells[24].workload.label(), "Reddit (GCN)");

    // The SA1 axis mirrors into the wear stream by default.
    EXPECT_DOUBLE_EQ(plan.cells[6].faults.post_sa1_fraction, 0.5);
}

TEST(SweepBuilderTest, PinnedPostSa1SurvivesTheAxis) {
    // An explicitly pinned wear-stream ratio must not be overwritten by the
    // SA1 axis — even when the pin equals the template's pre-deployment
    // ratio.
    FaultScenario pinned = FaultScenario::pre_deployment(0.05, 0.5);
    pinned.with_post_deployment(0.01, /*sa1=*/0.5);
    const ExperimentPlan plan = SweepBuilder("pinned")
                                    .workload(find_workload("PPI", GnnKind::kGCN))
                                    .scenario(pinned)
                                    .sa1_fractions({0.1, 0.5})
                                    .scheme(Scheme::kFARe)
                                    .build();
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.sa1_fraction, 0.1);
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.post_sa1_fraction, 0.5);  // pinned
    EXPECT_DOUBLE_EQ(plan.cells[1].faults.post_sa1_fraction, 0.5);
}

TEST(SweepBuilderTest, WearAxes) {
    const WorkloadSpec w = find_workload("PPI", GnnKind::kGCN);
    WearSpec wear;
    wear.weibull_shape = 3.0;
    wear.writes_per_step = 500;
    FaultScenario scenario = FaultScenario::pre_deployment(0.01, 0.5);
    scenario.with_wear(wear);
    const ExperimentPlan plan =
        SweepBuilder("wear_grid")
            .workload(w)
            .scenario(scenario)
            .endurance_means({1e4, 2e4})
            .hot_spot_fractions({0.0, 0.25})
            .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
            .build();
    EXPECT_EQ(plan.size(), 2u * 2 * 2);

    // Order: endurance-major, then hot-spot, then scheme.
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.wear.endurance_mean_writes, 1e4);
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.wear.hot_spot_fraction, 0.0);
    EXPECT_EQ(plan.cells[1].scheme, Scheme::kFARe);
    EXPECT_DOUBLE_EQ(plan.cells[2].faults.wear.hot_spot_fraction, 0.25);
    EXPECT_DOUBLE_EQ(plan.cells[4].faults.wear.endurance_mean_writes, 2e4);

    // Template fields ride along on every cell.
    EXPECT_DOUBLE_EQ(plan.cells[5].faults.wear.weibull_shape, 3.0);
    EXPECT_EQ(plan.cells[5].faults.wear.writes_per_step, 500u);

    // Distinct coordinates produce distinct keys (different cached cells).
    EXPECT_NE(plan.cells[0].key(), plan.cells[2].key());  // hot-spot differs
    EXPECT_NE(plan.cells[0].key(), plan.cells[4].key());  // endurance differs

    // Unset wear axes keep the template's values.
    const ExperimentPlan defaults =
        SweepBuilder("wear_defaults").workload(w).scenario(scenario).build();
    ASSERT_EQ(defaults.size(), 1u);
    EXPECT_DOUBLE_EQ(
        defaults.cells[0].faults.wear.endurance_mean_writes,
        scenario.wear.endurance_mean_writes);

    // Axis validation fires when the axis is set.
    EXPECT_THROW(SweepBuilder("bad").workload(w).endurance_means({-1.0}),
                 InvalidArgument);
    EXPECT_THROW(SweepBuilder("bad").workload(w).hot_spot_fractions({1.5}),
                 InvalidArgument);
}

TEST(SweepBuilderTest, NoiseAndClipAxes) {
    const WorkloadSpec w = find_workload("Reddit", GnnKind::kGCN);
    const ExperimentPlan plan =
        SweepBuilder("robustness")
            .workload(w)
            .scenario(FaultScenario::pre_deployment(0.03, 0.5))
            .noise_sigmas({0.0, 0.02, 0.05})
            .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
            .build();
    EXPECT_EQ(plan.size(), 3u * 2);

    // Order: noise-major, then scheme — and the unset density / SA1 axes
    // collapse to the scenario template.
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.read_noise_sigma, 0.0);
    EXPECT_EQ(plan.cells[0].scheme, Scheme::kFaultUnaware);
    EXPECT_EQ(plan.cells[1].scheme, Scheme::kFARe);
    EXPECT_DOUBLE_EQ(plan.cells[2].faults.read_noise_sigma, 0.02);
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.density, 0.03);
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.sa1_fraction, 0.5);

    // The axis is behaviour-relevant: distinct keys per coordinate (except
    // fault-free cells, which normalise the chip away entirely).
    EXPECT_NE(plan.cells[1].key(), plan.cells[3].key());  // noise differs

    // Unset axes and the clip threshold keep the templates' values.
    FaultScenario noisy = FaultScenario::pre_deployment(0.03, 0.5);
    noisy.with_read_noise(0.07);
    HardwareOverrides hw;
    hw.clip_threshold = 0.8f;
    const ExperimentPlan defaults = SweepBuilder("defaults")
                                        .workload(w)
                                        .scenario(noisy)
                                        .hardware(hw)
                                        .scheme(Scheme::kFARe)
                                        .build();
    ASSERT_EQ(defaults.size(), 1u);
    EXPECT_DOUBLE_EQ(defaults.cells[0].faults.read_noise_sigma, 0.07);
    EXPECT_FLOAT_EQ(defaults.cells[0].hardware.clip_threshold, 0.8f);

    EXPECT_THROW(
        SweepBuilder("bad").workload(w).noise_sigmas({-0.1}).build(),
        InvalidArgument);
}

TEST(SweepBuilderTest, Sa1MirrorsIntoWearStreamWithoutAnSa1Axis) {
    // While post_sa1_follows_pre is set, every cell's wear-stream ratio is
    // its SA1 fraction — also when the SA1 fraction comes from the template.
    FaultScenario scenario = FaultScenario::pre_deployment(0.03, 0.5);
    scenario.post_sa1_fraction = 0.1;
    scenario.post_sa1_follows_pre = true;
    const ExperimentPlan plan = SweepBuilder("mirror")
                                    .workload(find_workload("PPI", GnnKind::kGCN))
                                    .scenario(scenario)
                                    .scheme(Scheme::kFARe)
                                    .build();
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.post_sa1_fraction, 0.5);
}

TEST(SweepBuilderTest, RejectsOutOfRangeAxisValues) {
    const WorkloadSpec w = find_workload("PPI", GnnKind::kGCN);
    // Axis values are checked when the axis is set, before build().
    EXPECT_THROW(SweepBuilder("typo").workload(w).densities({0.03, 3.0}),
                 InvalidArgument);
    EXPECT_THROW(SweepBuilder("typo").workload(w).sa1_fractions({-0.1}),
                 InvalidArgument);
    // An empty list is a typo too, not "use the template value".
    EXPECT_THROW(SweepBuilder("typo").workload(w).densities({}), InvalidArgument);
    EXPECT_THROW(SweepBuilder("typo").workload(w).schemes({}), InvalidArgument);
}

TEST(SweepBuilderTest, RejectsOutOfRangeTemplateValues) {
    const WorkloadSpec w = find_workload("PPI", GnnKind::kGCN);
    // Template values that reach the cells are checked at build().
    HardwareOverrides prune;
    prune.prune_fraction = 1.5;
    EXPECT_THROW(SweepBuilder("bad").workload(w).hardware(prune).build(),
                 InvalidArgument);
    HardwareOverrides tolerance;
    tolerance.online.readback_tolerance = -0.1;
    EXPECT_THROW(SweepBuilder("bad").workload(w).hardware(tolerance).build(),
                 InvalidArgument);
    HardwareOverrides clip;
    clip.clip_threshold = 0.0f;
    EXPECT_THROW(SweepBuilder("bad").workload(w).hardware(clip).build(),
                 InvalidArgument);
    for (const double fraction : {-0.1, 1.5}) {
        HardwareOverrides spare;
        spare.spare_column_fraction = fraction;
        EXPECT_THROW(SweepBuilder("bad").workload(w).hardware(spare).build(),
                     InvalidArgument)
            << "spare column fraction " << fraction;
    }
    FaultScenario density;
    density.density = 2.0;
    EXPECT_THROW(SweepBuilder("bad").workload(w).scenario(density).build(),
                 InvalidArgument);
    FaultScenario post;
    post.post_total_density = 1.5;
    EXPECT_THROW(SweepBuilder("bad").workload(w).scenario(post).build(),
                 InvalidArgument);

    // A template value an axis overrides on every cell never reaches a cell.
    const ExperimentPlan plan = SweepBuilder("overridden")
                                    .workload(w)
                                    .hardware(prune)
                                    .prune_fractions({0.0, 0.25})
                                    .build();
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_DOUBLE_EQ(plan.cells[1].hardware.prune_fraction, 0.25);
}

TEST(SweepBuilderTest, DefaultsAndTemplate) {
    FaultScenario wear;
    wear.with_post_deployment(0.01);
    const WorkloadSpec w = find_workload("PPI", GnnKind::kGCN);
    const ExperimentPlan plan =
        SweepBuilder("tiny").workload(w).scenario(wear).build();
    ASSERT_EQ(plan.size(), 1u);  // unset axes collapse to the template value
    EXPECT_EQ(plan.cells[0].scheme, Scheme::kFaultFree);
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.post_total_density, 0.01);
    EXPECT_THROW(SweepBuilder("empty").build(), InvalidArgument);
}

TEST(CellSpecTest, KeyNormalizesFaultFree) {
    CellSpec a;
    a.workload = find_workload("PPI", GnnKind::kGCN);
    a.scheme = Scheme::kFaultFree;
    a.faults = FaultScenario::pre_deployment(0.01, 0.1);
    CellSpec b = a;
    b.faults = FaultScenario::pre_deployment(0.05, 0.5);
    b.hardware.match_weights = {1.0, 1.0};
    // Ideal hardware ignores the scenario/chip: one cached reference.
    EXPECT_EQ(a.key(), b.key());

    b.scheme = Scheme::kFARe;
    EXPECT_NE(a.key(), b.key());
    CellSpec c = b;
    c.faults.density = 0.03;
    EXPECT_NE(b.key(), c.key());  // faulty cells keep their coordinates
    c = b;
    c.seed = 2;
    EXPECT_NE(b.key(), c.key());  // seed always matters (dataset instance)
    c = b;
    c.record_curve = true;
    EXPECT_NE(b.key(), c.key());  // result payload differs
    c = b;
    c.epochs = 7;
    EXPECT_NE(b.key(), c.key());
    c = b;
    c.mode = CellMode::kDeploy;
    EXPECT_NE(b.key(), c.key());
    c = b;
    c.hardware_seed = 9;  // distinct fault map, same dataset
    EXPECT_NE(b.key(), c.key());
    c = b;
    c.hardware_seed = b.seed;  // explicit but equal to the default resolution
    EXPECT_EQ(b.key(), c.key());
}

TEST(CellSpecTest, TrainConfigAppliesOverrides) {
    CellSpec spec;
    spec.workload = find_workload("Reddit", GnnKind::kGCN);
    spec.seed = 5;
    spec.record_curve = true;
    spec.epochs = 3;
    const TrainConfig tc = spec.train_config();
    EXPECT_EQ(tc.seed, 5u);
    EXPECT_TRUE(tc.record_curve);
    EXPECT_EQ(tc.epochs, 3u);
    EXPECT_EQ(tc.kind, GnnKind::kGCN);
}

TEST(CellSpecTest, LabelReadable) {
    CellSpec spec;
    spec.workload = find_workload("Reddit", GnnKind::kGCN);
    spec.scheme = Scheme::kFARe;
    spec.faults = FaultScenario::pre_deployment(0.03, 0.5);
    EXPECT_EQ(spec.label(), "Reddit (GCN) / FARe / d=3% sa1=50% / seed 1");
}

TEST(SweepBuilderTest, PartitionerAxes) {
    const WorkloadSpec w = find_workload("PPI", GnnKind::kGCN);
    const ExperimentPlan plan =
        SweepBuilder("parts")
            .workload(w)
            .density(0.03)
            .partitioners({"fennel", "refennel"})
            .partition_counts({8, 40})
            .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
            .seeds({1, 2})
            .build();
    EXPECT_EQ(plan.size(), 2u * 2 * 2 * 2);

    // Partitioner is outer to partition count, which is outer to scheme and
    // seed (the documented enumeration order).
    EXPECT_EQ(plan.cells[0].partitioner, "fennel");
    EXPECT_EQ(plan.cells[0].partition_count, 8);
    EXPECT_EQ(plan.cells[0].seed, 1u);
    EXPECT_EQ(plan.cells[1].seed, 2u);                    // seed fastest
    EXPECT_EQ(plan.cells[2].scheme, Scheme::kFARe);       // then scheme
    EXPECT_EQ(plan.cells[4].partition_count, 40);         // then count
    EXPECT_EQ(plan.cells[8].partitioner, "refennel");     // then partitioner

    // The axes feed the trainer via train_config().
    const TrainConfig tc = plan.cells[0].train_config();
    EXPECT_EQ(tc.partitioner, "fennel");
    EXPECT_EQ(tc.num_partitions, 8);
    EXPECT_LE(tc.partitions_per_batch, 8);
}

TEST(SweepBuilderTest, UnknownPartitionerRejectedAtBuildTime) {
    const WorkloadSpec w = find_workload("PPI", GnnKind::kGCN);
    EXPECT_THROW(SweepBuilder("typo")
                     .workload(w)
                     .partitioners({"fennel", "metis"})
                     .build(),
                 InvalidArgument);
    EXPECT_THROW(
        SweepBuilder("typo").workload(w).partition_counts({-4}).build(),
        InvalidArgument);
}

TEST(CellSpecTest, PartitionDefaultsAreKeyInert) {
    // A spec that never heard of the partition axes and one holding their
    // defaults must share a memo key — legacy cache entries stay valid.
    CellSpec legacy;
    legacy.workload = find_workload("PPI", GnnKind::kGCN);
    legacy.scheme = Scheme::kFARe;
    legacy.faults = FaultScenario::pre_deployment(0.03, 0.5);
    CellSpec with_defaults = legacy;
    with_defaults.partitioner = "";
    with_defaults.partition_count = 0;
    with_defaults.hardware.partition_aware_mapping = false;
    EXPECT_EQ(with_defaults.key(), legacy.key());
    EXPECT_EQ(with_defaults.key().find("part="), std::string::npos);
    EXPECT_EQ(with_defaults.key().find("pam="), std::string::npos);

    // Non-defaults must key-separate — same cache, different cells.
    CellSpec swept = legacy;
    swept.partitioner = "fennel";
    swept.partition_count = 40;
    EXPECT_NE(swept.key(), legacy.key());
    EXPECT_NE(swept.key().find("part=fennel/40"), std::string::npos);
    CellSpec pam = legacy;
    pam.hardware.partition_aware_mapping = true;
    EXPECT_NE(pam.key(), legacy.key());
    EXPECT_NE(pam.key().find("pam=1"), std::string::npos);
}

TEST(CellSpecTest, PartitionCountScalesBatchGrouping) {
    // Overriding the partition count preserves the workload's per-batch
    // share of the graph: PPI's default 40 partitions / 4 per batch becomes
    // 1 per batch at 8 partitions and 8 per batch at 80.
    CellSpec spec;
    spec.workload = find_workload("PPI", GnnKind::kGCN);
    spec.partition_count = 8;
    EXPECT_EQ(spec.train_config().partitions_per_batch, 1);
    spec.partition_count = 80;
    EXPECT_EQ(spec.train_config().partitions_per_batch, 8);
    spec.partition_count = 40;
    EXPECT_EQ(spec.train_config().partitions_per_batch, 4);
}

/// 64-bit FNV-1a over `s`, continuing from `h`.
std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

TEST(BuiltinPlansTest, CellSpecsArePinned) {
    // Every built-in plan's cell count and one digest over its serialized
    // cell specs in plan order. A change to any cell, or to the order, fails
    // here without training anything; re-record only for a deliberate plan
    // change.
    struct Pin {
        const char* plan;
        std::size_t cells;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {"smoke", 6, 0x44317202868433ceull},
        {"seed_stats", 6, 0x7d4202211cad0ea1ull},
        {"read_noise", 8, 0x6c360366244b5753ull},
        {"wear_arrival", 12, 0xf868ef3df667dc8full},
        {"online_tolerance", 8, 0x8ee1921c61ddc1ffull},
        {"partition_sweep", 12, 0x171a3957e21c6345ull},
        {"transformer_sweep", 12, 0x71a1295fc726b1c3ull},
        {"fig5", 180, 0x02ba823860253051ull},
        {"fig3", 6, 0xa2ab9fe0eb001ae1ull},
        {"fig4", 9, 0x158cc5cd307e368dull},
        {"fig6", 90, 0xeb35805da5d12d97ull},
        {"redundant_cols", 12, 0xb33a8c98c160741aull},
        {"deployment", 5, 0x8f4b4178b9f48e1full},
        {"sa1_weighting", 2, 0xc45171fdb67f55b4ull},
    };
    ASSERT_EQ(builtin_plans().size(), std::size(pins));
    for (const Pin& pin : pins) {
        const ExperimentPlan plan = find_builtin_plan(pin.plan);
        EXPECT_EQ(plan.size(), pin.cells) << pin.plan;
        std::uint64_t digest = 1469598103934665603ull;
        for (const CellSpec& cell : plan.cells)
            digest = fnv1a(cell_spec_to_json(cell) + '\n', digest);
        EXPECT_EQ(digest, pin.digest) << pin.plan;
    }
}

TEST(BuiltinPlansTest, BenchPlanHonoursFareEpochs) {
    // The figure benches' FARE_EPOCHS pass equals `fare-run --epochs` on the
    // same plan; unset, a bench runs the registered plan untouched.
    const char* saved = std::getenv("FARE_EPOCHS");
    const std::string restore = saved ? saved : "";
    const auto keys = [](const ExperimentPlan& plan) {
        std::vector<std::string> out;
        for (const CellSpec& cell : plan.cells) out.push_back(cell.key());
        return out;
    };
    unsetenv("FARE_EPOCHS");
    EXPECT_EQ(keys(bench_plan("fig4")), keys(find_builtin_plan("fig4")));
    setenv("FARE_EPOCHS", "2", 1);
    ExperimentPlan quick = find_builtin_plan("fig4");
    override_epochs(quick, 2);
    EXPECT_EQ(keys(bench_plan("fig4")), keys(quick));
    for (const CellSpec& cell : quick.cells)
        EXPECT_EQ(cell.train_config().epochs, 2u);
    setenv("FARE_EPOCHS", "12x", 1);
    EXPECT_THROW(bench_plan("fig4"), InvalidArgument);
    if (saved)
        setenv("FARE_EPOCHS", restore.c_str(), 1);
    else
        unsetenv("FARE_EPOCHS");
}

}  // namespace
}  // namespace fare
