// Determinism contract of the row-parallel numeric kernels: the threaded
// result must equal the forced-serial result bit for bit, for the GEMMs and
// both aggregation directions of BatchGraphView — and the pool itself must
// visit every index exactly once, degrade nested calls to serial, and
// propagate exceptions. FlushDenormalsScope must flush subnormals, restore
// the caller's FP mode, and reach every pool helper of a job submitted
// inside it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fp_mode.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "models/gnn/batch_view.hpp"
#include "numeric/bitmatrix.hpp"
#include "numeric/matrix.hpp"

namespace fare {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
    Matrix m(r, c);
    for (auto& v : m.flat()) v = rng.uniform(-1.0f, 1.0f);
    return m;
}

// Sizes chosen to cross the kernels' parallel-grain threshold so the pool
// path genuinely runs (resolve_threads floors the pool at two workers even
// on a single-core machine).

TEST(ParallelKernelsTest, MatmulThreadedEqualsSerial) {
    Rng rng(1);
    const Matrix a = random_matrix(601, 310, rng);  // odd sizes: remainder paths
    const Matrix b = random_matrix(310, 67, rng);
    Matrix serial;
    {
        ParallelWidthScope force_serial(1);
        serial = matmul(a, b);
    }
    EXPECT_EQ(matmul(a, b), serial);
}

TEST(ParallelKernelsTest, MatmulAtBThreadedEqualsSerial) {
    Rng rng(2);
    const Matrix a = random_matrix(310, 601, rng);
    const Matrix b = random_matrix(310, 67, rng);
    Matrix serial;
    {
        ParallelWidthScope force_serial(1);
        serial = matmul_at_b(a, b);
    }
    EXPECT_EQ(matmul_at_b(a, b), serial);
}

TEST(ParallelKernelsTest, MatmulABtThreadedEqualsSerial) {
    Rng rng(3);
    const Matrix a = random_matrix(601, 310, rng);
    const Matrix b = random_matrix(67, 310, rng);
    Matrix serial;
    {
        ParallelWidthScope force_serial(1);
        serial = matmul_a_bt(a, b);
    }
    EXPECT_EQ(matmul_a_bt(a, b), serial);
}

TEST(ParallelKernelsTest, MatmulABtTwoTileWidthsThreadedEqualsSerial) {
    // N = 24: a 2-register AVX2 column tile, then a 1-register one.
    Rng rng(4);
    const Matrix a = random_matrix(601, 310, rng);
    const Matrix b = random_matrix(24, 310, rng);
    Matrix serial;
    {
        ParallelWidthScope force_serial(1);
        serial = matmul_a_bt(a, b);
    }
    EXPECT_EQ(matmul_a_bt(a, b), serial);
}

BitMatrix random_bits(std::size_t n, double density, std::uint64_t seed) {
    BitMatrix bits(n, n);
    Rng rng(seed);
    for (auto& b : bits.bits) b = rng.next_bool(density) ? 1 : 0;
    return bits;
}

TEST(ParallelKernelsTest, AggregationThreadedEqualsSerial) {
    const BitMatrix bits = random_bits(640, 0.04, 7);
    const BatchGraphView view = BatchGraphView::from_bits(bits);
    Rng rng(8);
    const Matrix x = random_matrix(640, 48, rng);

    Matrix s_gcn, s_gcn_t, s_mean, s_mean_t;
    {
        ParallelWidthScope force_serial(1);
        s_gcn = view.gcn_multiply(x);
        s_gcn_t = view.gcn_multiply_t(x);
        s_mean = view.mean_multiply(x);
        s_mean_t = view.mean_multiply_t(x);
    }
    EXPECT_EQ(view.gcn_multiply(x), s_gcn);
    EXPECT_EQ(view.gcn_multiply_t(x), s_gcn_t);
    EXPECT_EQ(view.mean_multiply(x), s_mean);
    EXPECT_EQ(view.mean_multiply_t(x), s_mean_t);
}

TEST(ParallelKernelsTest, TransposeAggregationMatchesScatterReference) {
    // multiply_t gathers through a precomputed transpose index; pin it to
    // the scatter formulation it replaced (same ascending-row accumulation
    // order, so equality is exact).
    const BitMatrix bits = random_bits(96, 0.08, 9);
    const BatchGraphView view = BatchGraphView::from_bits(bits);
    Rng rng(10);
    const Matrix x = random_matrix(96, 5, rng);

    Matrix expected(96, 5);
    for (std::size_t r = 0; r < 96; ++r) {
        auto xrow = x.row(r);
        auto neighbors = view.row_neighbors(r);
        for (std::size_t e = 0; e < neighbors.size(); ++e) {
            // Recover the edge's A_gcn coefficient exactly with a 1-column
            // probe of the forward direction (a single product, no rounding).
            Matrix probe(96, 1);
            probe(neighbors[e], 0) = 1.0f;
            const float w = view.gcn_multiply(probe)(r, 0);
            auto yrow = expected.row(neighbors[e]);
            for (std::size_t f = 0; f < 5; ++f) yrow[f] += w * xrow[f];
        }
    }
    // Same ascending-source-row accumulation order => exact equality.
    EXPECT_EQ(view.gcn_multiply_t(x), expected);
}

TEST(ParallelForEachTest, VisitsEveryIndexOnceAcrossThePool) {
    const std::size_t count = 10000;
    std::vector<std::atomic<int>> visits(count);
    parallel_for_each(4, count, [&](std::size_t i) { visits[i].fetch_add(1); });
    for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelForEachTest, NestedCallsRunSerially) {
    std::atomic<int> total{0};
    parallel_for_each(4, 8, [&](std::size_t) {
        // Inside a pool worker: this must degrade to a plain loop instead of
        // deadlocking or oversubscribing.
        parallel_for_each(4, 16, [&](std::size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ParallelForEachTest, PropagatesTheFirstException) {
    EXPECT_THROW(
        parallel_for_each(4, 64,
                          [](std::size_t i) {
                              if (i == 13) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
}

TEST(ParallelForEachTest, WidthScopeRestoresOnExit) {
    std::atomic<int> visited{0};
    {
        ParallelWidthScope outer(1);
        parallel_for_each(8, 32, [&](std::size_t) { visited.fetch_add(1); });
    }
    EXPECT_EQ(visited.load(), 32);
    // Scope gone: pool path works again.
    parallel_for_each(2, 32, [&](std::size_t) { visited.fetch_add(1); });
    EXPECT_EQ(visited.load(), 64);
}

#if defined(__x86_64__) || defined(_M_X64) || defined(__aarch64__)
constexpr bool kHasFlushMode = true;
#else
constexpr bool kHasFlushMode = false;  // FlushDenormalsScope is a no-op here
#endif

// volatile operands keep the compiler from folding these at build time.
// A product of two normals that lands in the subnormal range (FTZ)...
bool flushes_subnormal_product() {
    volatile float tiny = 1e-30f;
    volatile float scale = 1e-10f;
    return tiny * scale == 0.0f;
}

// ...and a subnormal input whose exact product is normal (DAZ).
bool flushes_subnormal_input() {
    volatile float sub = std::numeric_limits<float>::min() / 1024.0f;
    volatile float big = 1e30f;
    return sub * big == 0.0f;
}

bool flushes() { return flushes_subnormal_product() && flushes_subnormal_input(); }

TEST(FlushDenormalsScopeTest, FlushesSubnormalProductsAndInputs) {
    if (!kHasFlushMode) GTEST_SKIP() << "no flush-to-zero mode on this target";
    EXPECT_FALSE(flushes_subnormal_product());
    EXPECT_FALSE(flushes_subnormal_input());
    {
        FlushDenormalsScope flush;
        EXPECT_TRUE(flushes_subnormal_product());
        EXPECT_TRUE(flushes_subnormal_input());
    }
    EXPECT_FALSE(flushes_subnormal_product());
    EXPECT_FALSE(flushes_subnormal_input());
}

TEST(FlushDenormalsScopeTest, RestoresTheControlWordOnExitAndOnException) {
    if (!kHasFlushMode) GTEST_SKIP() << "no flush-to-zero mode on this target";
    const FpControlWord before = fp_control_word();
    {
        FlushDenormalsScope flush;
        EXPECT_NE(fp_control_word(), before);
    }
    EXPECT_EQ(fp_control_word(), before);

    try {
        FlushDenormalsScope flush;
        throw std::runtime_error("unwind through the scope");
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(fp_control_word(), before);
    EXPECT_FALSE(flushes());
}

TEST(FlushDenormalsScopeTest, NestedScopesRestoreInOrder) {
    if (!kHasFlushMode) GTEST_SKIP() << "no flush-to-zero mode on this target";
    const FpControlWord before = fp_control_word();
    {
        FlushDenormalsScope outer;
        const FpControlWord flushed = fp_control_word();
        {
            FlushDenormalsScope inner;
            EXPECT_EQ(fp_control_word(), flushed);
        }
        EXPECT_EQ(fp_control_word(), flushed);
        EXPECT_TRUE(flushes());
    }
    EXPECT_EQ(fp_control_word(), before);
    EXPECT_FALSE(flushes());
}

/// flushes() of every item of a width-4 parallel_for_each. Item 0 holds its
/// worker until a second thread has started an item, so pool helpers always
/// take part.
std::vector<int> flushes_per_item() {
    constexpr std::size_t kItems = 64;
    std::vector<int> flushed(kItems, -1);
    std::mutex mutex;
    std::set<std::thread::id> workers;
    auto worker_count = [&] {
        std::lock_guard<std::mutex> lock(mutex);
        return workers.size();
    };
    parallel_for_each(4, kItems, [&](std::size_t i) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            workers.insert(std::this_thread::get_id());
        }
        if (i == 0) {
            const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
            while (worker_count() < 2 && std::chrono::steady_clock::now() < deadline)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        flushed[i] = flushes() ? 1 : 0;
    });
    EXPECT_GE(worker_count(), 2u) << "no pool helper took part";
    return flushed;
}

TEST(FlushDenormalsScopeTest, PoolHelpersComputeInTheSubmittersMode) {
    if (!kHasFlushMode) GTEST_SKIP() << "no flush-to-zero mode on this target";
    // Inside first: helpers the pool grows here start from a flushed thread.
    std::vector<int> inside;
    {
        FlushDenormalsScope flush;
        inside = flushes_per_item();
    }
    const std::vector<int> outside = flushes_per_item();
    for (std::size_t i = 0; i < inside.size(); ++i) {
        EXPECT_EQ(inside[i], 1) << "item " << i << " computed unflushed inside the scope";
        EXPECT_EQ(outside[i], 0) << "item " << i << " computed flushed outside the scope";
    }
}

/// FARE_THREADS=value for the scope's lifetime: the width the kernels'
/// parallel_for_each(0, ...) resolves to.
class ThreadsEnvScope {
public:
    explicit ThreadsEnvScope(const char* value) {
        if (const char* old = std::getenv("FARE_THREADS")) {
            saved_ = old;
            had_ = true;
        }
        setenv("FARE_THREADS", value, 1);
    }
    ~ThreadsEnvScope() {
        if (had_)
            setenv("FARE_THREADS", saved_.c_str(), 1);
        else
            unsetenv("FARE_THREADS");
    }
    ThreadsEnvScope(const ThreadsEnvScope&) = delete;
    ThreadsEnvScope& operator=(const ThreadsEnvScope&) = delete;

private:
    std::string saved_;
    bool had_ = false;
};

bool same_bytes(const Matrix& a, const Matrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.flat().data(), b.flat().data(), a.flat().size_bytes()) == 0;
}

TEST(FlushDenormalsScopeTest, MatmulOfSubnormalProductsIsWidthIndependent) {
    if (!kHasFlushMode) GTEST_SKIP() << "no flush-to-zero mode on this target";
    // Entries scaled by 2^-62: about 60% of the products a(i,k) * b(k,j)
    // fall below the smallest normal float.
    Rng rng(4);
    Matrix a = random_matrix(601, 310, rng);
    Matrix b = random_matrix(310, 67, rng);
    for (auto& v : a.flat()) v = std::ldexp(v, -62);
    for (auto& v : b.flat()) v = std::ldexp(v, -62);
    Matrix unflushed;
    {
        ParallelWidthScope force_serial(1);
        unflushed = matmul(a, b);
    }
    // Serial ≡ threaded outside the scope too: helpers must not keep a mode
    // they were created in or ran an earlier job in.
    ThreadsEnvScope four("4");
    EXPECT_TRUE(same_bytes(matmul(a, b), unflushed));

    FlushDenormalsScope flush;
    Matrix serial;
    {
        ParallelWidthScope force_serial(1);
        serial = matmul(a, b);
    }
    EXPECT_FALSE(same_bytes(serial, unflushed)) << "no product was flushed";
    EXPECT_TRUE(same_bytes(matmul(a, b), serial));
}

}  // namespace
}  // namespace fare
