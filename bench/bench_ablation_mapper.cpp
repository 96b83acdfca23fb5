// Ablation — which ingredients of FARe's Algorithm 1 matter, and how much?
//
// Dimensions ablated (DESIGN.md §3):
//   1. block-to-crossbar assignment Pi (Hungarian) vs identity placement;
//   2. row permutation vs none;
//   3. SA1-criticality weighting vs equal weights;
//   4. b-Suitor half-approximation vs exact Hungarian row matching;
//   5. crossbar pool size (how much does having spare crossbars help);
//   6. fault clustering (Gamma-Poisson shape) sensitivity.
//
// Metrics: residual weighted mapping cost (lower = fewer effective bit
// flips), evaluated on realistic batch adjacencies, plus end accuracy for
// the SA1-weighting ablation.
#include <iostream>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "fare/mapper.hpp"
#include "sim/builtin_plans.hpp"
#include "sim/result_sink.hpp"
#include "sim/session.hpp"

namespace {

using namespace fare;

BitMatrix batch_like_adjacency(std::size_t n, double degree, Rng& rng) {
    BitMatrix adj(n, n);
    const double p = degree / static_cast<double>(n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = r + 1; c < n; ++c)
            if (rng.next_bool(p)) {
                adj.set(r, c, 1);
                adj.set(c, r, 1);
            }
    return adj;
}

double evaluate(const FaultAwareMapper& mapper, const AdjacencyMapping& mapping,
                const BitMatrix& adj, const std::vector<FaultMap>& pool) {
    // Residual corruption evaluated with FARe's weighting for comparability.
    const RowMatchWeights w{1.0, 4.0};
    double total = 0.0;
    for (const auto& a : mapping.assignments) {
        const BinaryBlock block = mapper.extract_block(
            adj, a.block_index / mapping.grid, a.block_index % mapping.grid);
        total += mapping_cost(block, pool[a.crossbar_index], a.row_perm, w);
    }
    return total;
}

}  // namespace

int main() {
    std::cout << "=== Ablation: FARe mapper design choices ===\n\n";
    Rng rng(7);
    const std::size_t batch_nodes = 256;  // 2x2 grid of 128-blocks
    const int trials = 8;

    // Shared fixtures: batches + fault pools at 5% density, 1:1 ratio.
    std::vector<BitMatrix> batches;
    std::vector<std::vector<FaultMap>> pools;
    for (int t = 0; t < trials; ++t) {
        batches.push_back(batch_like_adjacency(batch_nodes, 20.0, rng));
        FaultInjectionConfig cfg;
        cfg.density = 0.05;
        cfg.sa1_fraction = 0.5;
        cfg.seed = 1000 + static_cast<std::uint64_t>(t);
        pools.push_back(inject_faults(24, 128, 128, cfg));
    }

    struct Variant {
        std::string name;
        MapperConfig cfg;
        bool identity_assignment = false;
        bool row_reorder_only = false;
    };
    MapperConfig base;  // block 128, weights {1,4}, b-Suitor, removals on
    std::vector<Variant> variants;
    variants.push_back({"FARe full (b-Suitor, SA1 wt, Pi)", base});
    {
        MapperConfig c = base;
        c.weights = {1.0, 1.0};
        variants.push_back({"no SA1 weighting (SA0 = SA1)", c});
    }
    {
        MapperConfig c = base;
        c.exact_row_matching = true;
        variants.push_back({"exact Hungarian rows (upper bound)", c});
    }
    variants.push_back({"row perms only, identity Pi (NR-style)", base, false, true});
    variants.push_back({"identity placement, no perms (naive)", base, true, false});

    Table t({"Variant", "residual cost (avg)", "vs naive", "map time (ms/batch)"});
    double naive_cost = 0.0;
    std::vector<std::pair<double, double>> results;  // (cost, ms)
    for (const auto& v : variants) {
        FaultAwareMapper mapper(v.cfg);
        double cost = 0.0;
        Stopwatch watch;
        for (int i = 0; i < trials; ++i) {
            AdjacencyMapping m;
            if (v.identity_assignment)
                m = mapper.map_identity(batches[static_cast<std::size_t>(i)],
                                        pools[static_cast<std::size_t>(i)]);
            else if (v.row_reorder_only)
                m = mapper.map_row_reorder(batches[static_cast<std::size_t>(i)],
                                           pools[static_cast<std::size_t>(i)]);
            else
                m = mapper.map_batch(batches[static_cast<std::size_t>(i)],
                                     pools[static_cast<std::size_t>(i)]);
            cost += evaluate(mapper, m, batches[static_cast<std::size_t>(i)],
                             pools[static_cast<std::size_t>(i)]);
        }
        const double ms = watch.elapsed_ms() / trials;
        cost /= trials;
        if (v.identity_assignment) naive_cost = cost;
        results.emplace_back(cost, ms);
    }
    for (std::size_t i = 0; i < variants.size(); ++i) {
        t.add_row({variants[i].name, fmt(results[i].first, 0),
                   naive_cost > 0 ? fmt(results[i].first / naive_cost, 2) + "x" : "-",
                   fmt(results[i].second, 1)});
    }
    std::cout << t.to_ascii() << '\n';

    // Pool-size sweep: spare crossbars are where fault-aware placement wins.
    Table p({"Pool size (blocks = 4)", "residual cost (avg)"});
    for (const std::size_t pool_size : {4u, 6u, 8u, 12u, 16u, 24u}) {
        FaultAwareMapper mapper(base);
        double cost = 0.0;
        for (int i = 0; i < trials; ++i) {
            std::vector<FaultMap> pool(pools[static_cast<std::size_t>(i)].begin(),
                                       pools[static_cast<std::size_t>(i)].begin() +
                                           static_cast<std::ptrdiff_t>(pool_size));
            const auto m =
                mapper.map_batch(batches[static_cast<std::size_t>(i)], pool);
            cost += evaluate(mapper, m, batches[static_cast<std::size_t>(i)], pool);
        }
        p.add_row({std::to_string(pool_size), fmt(cost / trials, 0)});
    }
    std::cout << "Pool-size sweep (more spare crossbars -> cleaner placement):\n"
              << p.to_ascii() << '\n';

    // Clustering sensitivity: with no clustering every crossbar looks the
    // same and selection buys little; with strong clustering FARe can dodge
    // the fault centres almost entirely.
    Table c({"Cluster shape (Gamma)", "FARe residual", "naive residual", "ratio"});
    for (const double shape : {0.0, 4.0, 1.5, 0.5}) {
        FaultAwareMapper mapper(base);
        double fare_cost = 0.0, naive = 0.0;
        for (int i = 0; i < trials; ++i) {
            FaultInjectionConfig cfg;
            cfg.density = 0.05;
            cfg.sa1_fraction = 0.5;
            cfg.cluster_shape = shape;
            cfg.seed = 2000 + static_cast<std::uint64_t>(i);
            const auto pool = inject_faults(24, 128, 128, cfg);
            const auto& adj = batches[static_cast<std::size_t>(i)];
            fare_cost += evaluate(mapper, mapper.map_batch(adj, pool), adj, pool);
            naive += evaluate(mapper, mapper.map_identity(adj, pool), adj, pool);
        }
        c.add_row({shape == 0.0 ? "none (pure Poisson)" : fmt(shape, 1),
                   fmt(fare_cost / trials, 0), fmt(naive / trials, 0),
                   fmt(fare_cost / std::max(naive, 1.0), 2) + "x"});
    }
    std::cout << "Fault-clustering sensitivity:\n" << c.to_ascii() << '\n';

    // Accuracy ablation: SA1 weighting on a real training run (1:1, 5%) —
    // the built-in "sa1_weighting" plan, two cells differing only in the
    // chip's row-matching weights.
    std::cout << "Accuracy ablation (Reddit GCN, 5%, 1:1): SA1 weighting...\n";
    SimSession session;
    session.add_sink(std::make_unique<JsonLinesSink>());
    const ResultSet ablation = session.run(bench_plan("sa1_weighting"));
    const SchemeRunResult& a = ablation.cells[0].run;
    const SchemeRunResult& b = ablation.cells[1].run;
    std::cout << "  SA1-weighted cost (x4): acc = " << fmt(a.train.test_accuracy, 3)
              << ", residual mapping cost = " << fmt(a.total_mapping_cost, 0) << '\n'
              << "  equal weights:          acc = " << fmt(b.train.test_accuracy, 3)
              << ", residual mapping cost = " << fmt(b.total_mapping_cost, 0) << '\n';
    return 0;
}
