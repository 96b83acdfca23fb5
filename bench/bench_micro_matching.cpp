// Micro-benchmarks for the matching algorithms at the core of FARe's
// mapper: b-Suitor (half-approximation), exact Hungarian assignment, and
// the full row-permutation search — the quantities behind the paper's
// claim that the mapping is cheap enough for a ~1% preprocessing overhead.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "fare/bsuitor.hpp"
#include "fare/hungarian.hpp"
#include "fare/row_matcher.hpp"

namespace {

using namespace fare;

std::vector<WeightedEdge> random_bipartite(std::uint32_t half, int degree, Rng& rng) {
    std::vector<WeightedEdge> edges;
    edges.reserve(static_cast<std::size_t>(half) * static_cast<std::size_t>(degree));
    for (std::uint32_t u = 0; u < half; ++u)
        for (int k = 0; k < degree; ++k)
            edges.push_back({u,
                             static_cast<std::uint32_t>(half + rng.next_below(half)),
                             rng.uniform(0.1f, 10.0f)});
    return edges;
}

void BM_BSuitorBipartite(benchmark::State& state) {
    const auto half = static_cast<std::uint32_t>(state.range(0));
    Rng rng(1);
    const auto edges = random_bipartite(half, 16, rng);
    const std::vector<std::uint32_t> cap(2 * half, 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(bsuitor_match(2 * half, edges, cap));
    }
    state.SetComplexityN(half);
}
BENCHMARK(BM_BSuitorBipartite)->Range(32, 1024)->Complexity();

void BM_HungarianSquare(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(2);
    std::vector<double> cost(n * n);
    for (auto& c : cost) c = rng.uniform(0.0f, 100.0f);
    for (auto _ : state) {
        benchmark::DoNotOptimize(hungarian_min_cost(n, n, cost));
    }
    state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HungarianSquare)->Range(16, 256)->Complexity();

BinaryBlock random_block(std::uint16_t n, double density, Rng& rng) {
    BinaryBlock b(n);
    for (std::uint16_t r = 0; r < n; ++r)
        for (std::uint16_t c = 0; c < n; ++c) b.set(r, c, rng.next_bool(density) ? 1 : 0);
    return b;
}

/// cost(i,j) inner solve at crossbar scale (n = 128), the paper's b-Suitor
/// use case, swept over fault density.
void BM_RowPermutationBSuitor(benchmark::State& state) {
    const double density = static_cast<double>(state.range(0)) / 100.0;
    Rng rng(3);
    const BinaryBlock block = random_block(128, 0.05, rng);
    FaultInjectionConfig cfg;
    cfg.density = density;
    cfg.sa1_fraction = 0.5;
    cfg.seed = 7;
    const FaultMap map = inject_faults(1, 128, 128, cfg).front();
    for (auto _ : state) {
        benchmark::DoNotOptimize(best_row_permutation(block, map));
    }
}
BENCHMARK(BM_RowPermutationBSuitor)->Arg(1)->Arg(3)->Arg(5)->Arg(10)->Arg(20);

void BM_RowPermutationExact(benchmark::State& state) {
    const double density = static_cast<double>(state.range(0)) / 100.0;
    Rng rng(4);
    const BinaryBlock block = random_block(128, 0.05, rng);
    FaultInjectionConfig cfg;
    cfg.density = density;
    cfg.sa1_fraction = 0.5;
    cfg.seed = 7;
    const FaultMap map = inject_faults(1, 128, 128, cfg).front();
    for (auto _ : state) {
        benchmark::DoNotOptimize(best_row_permutation_exact(block, map));
    }
}
BENCHMARK(BM_RowPermutationExact)->Arg(1)->Arg(5);

}  // namespace
