// Micro-benchmarks for the ReRAM simulator primitives: bit-sliced MVM, the
// value-corruption fast path (what the training loop uses), BIST scans and
// fault injection. Quantifies the speedup DESIGN.md §3.1 claims for the
// corruption path over the bit-exact engine.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "reram/bist.hpp"
#include "reram/corruption.hpp"
#include "reram/mvm_engine.hpp"

namespace {

using namespace fare;

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
    Matrix m(r, c);
    for (auto& v : m.flat()) v = rng.uniform(-1.0f, 1.0f);
    return m;
}

void BM_BitSlicedMvm(benchmark::State& state) {
    const auto rows = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    const Matrix w = random_matrix(rows, 16, rng);
    const Matrix x = random_matrix(8, rows, rng);
    ProgrammedWeights pw(rows, 16);
    pw.program(w);
    for (auto _ : state) {
        benchmark::DoNotOptimize(pw.mvm(x));
    }
}
BENCHMARK(BM_BitSlicedMvm)->Arg(32)->Arg(64)->Arg(128);

void BM_CorruptionFastPath(benchmark::State& state) {
    const auto rows = static_cast<std::size_t>(state.range(0));
    Rng rng(2);
    const Matrix w = random_matrix(rows, 16, rng);
    FaultInjectionConfig cfg;
    cfg.density = 0.05;
    cfg.seed = 3;
    const std::size_t grid_r = (rows + 127) / 128;
    const auto maps = inject_faults(grid_r, 128, 128, cfg);
    const WeightFaultGrid grid(rows, 16, maps);
    for (auto _ : state) {
        benchmark::DoNotOptimize(corrupt_weights(w, grid, 2.0f));
    }
}
BENCHMARK(BM_CorruptionFastPath)->Arg(32)->Arg(64)->Arg(128);

void BM_BistScan(benchmark::State& state) {
    Crossbar xbar(128, 128);
    FaultInjectionConfig cfg;
    cfg.density = 0.05;
    cfg.seed = 5;
    xbar.set_fault_map(inject_faults(1, 128, 128, cfg).front());
    for (auto _ : state) {
        benchmark::DoNotOptimize(bist_scan(xbar));
    }
}
BENCHMARK(BM_BistScan);

void BM_FaultInjection(benchmark::State& state) {
    const auto crossbars = static_cast<std::size_t>(state.range(0));
    FaultInjectionConfig cfg;
    cfg.density = 0.05;
    std::uint64_t seed = 0;
    for (auto _ : state) {
        cfg.seed = ++seed;
        benchmark::DoNotOptimize(inject_faults(crossbars, 128, 128, cfg));
    }
}
BENCHMARK(BM_FaultInjection)->Arg(16)->Arg(96);

void BM_AdjacencyCorruption(benchmark::State& state) {
    Rng rng(7);
    BinaryBlock block(128);
    for (std::uint16_t r = 0; r < 128; ++r)
        for (std::uint16_t c = 0; c < 128; ++c) block.set(r, c, rng.next_bool(0.05) ? 1 : 0);
    FaultInjectionConfig cfg;
    cfg.density = 0.05;
    cfg.seed = 9;
    const FaultMap map = inject_faults(1, 128, 128, cfg).front();
    const auto perm = identity_perm(128);
    for (auto _ : state) {
        benchmark::DoNotOptimize(corrupt_adjacency_block(block, map, perm));
    }
}
BENCHMARK(BM_AdjacencyCorruption);

}  // namespace
