// SIMD kernel layer tests (common/simd.hpp):
//
//   * every kernel in the active vector table is fuzzed against the scalar
//     oracle table and must match BYTE for byte — including ragged tails,
//     saturating inputs, round-to-nearest-even ties and empty inputs; the
//     elementwise kernels also in place, on ±0, NaN, ±inf and subnormals,
//     both in the default FP mode and under FlushDenormalsScope;
//   * dispatch plumbing: mode parsing, degrade-to-scalar for ISAs the host
//     cannot run, the RAII test scope, SessionOptions::simd;
//   * end to end: a full online-tolerance cell run under simd="scalar" is
//     byte-identical to the same run under simd="auto".
//
// On a host with no vector ISA the fuzz cases compare scalar against scalar
// (vacuously true); CI's AVX2 runners exercise the real comparison, and the
// -DFARE_SIMD=OFF leg pins everything to scalar.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fp_mode.hpp"
#include "common/simd.hpp"
#include "sim/cell.hpp"
#include "sim/cell_cache.hpp"
#include "sim/executor.hpp"
#include "sim/plan.hpp"
#include "sim/serialization.hpp"
#include "sim/session.hpp"

namespace fare {
namespace {

using simd::SimdIsa;

/// Deterministic fuzz inputs: mostly uniform over ±range (beyond the ±128
/// saturation point when range is large), salted with the values that make
/// rounding and saturation interesting.
std::vector<float> fuzz_floats(std::mt19937& gen, std::size_t n, float range) {
    std::uniform_real_distribution<float> dist(-range, range);
    std::vector<float> v(n);
    for (auto& x : v) x = dist(gen);
    // Exact grid points, half-step ties (nearest-even territory), the
    // saturation boundary, and zero.
    const float special[] = {0.0f,       0.5f / 256.0f, 1.5f / 256.0f,
                             -0.5f / 256.0f, 127.99609375f, -127.99609375f,
                             128.0f,     -128.0f,       127.998046875f};
    std::uniform_int_distribution<std::size_t> pick(0, n ? n - 1 : 0);
    for (float s : special)
        if (n != 0) v[pick(gen)] = s;
    return v;
}

/// Byte-for-byte equality of two vectors. An empty vector's data() may be
/// null, and memcmp on a null pointer is undefined even for zero bytes, so
/// empty pairs never reach it.
template <class T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

const std::size_t kRaggedSizes[] = {0,  1,  2,  3,  7,  8,   9,   15,
                                    16, 17, 31, 32, 33, 64, 100, 257};

TEST(SimdKernelsTest, QuantizePassesMatchScalarOracle) {
    const simd::SimdKernels& active = simd::kernels();
    const simd::SimdKernels& oracle = simd::kernels(SimdIsa::kScalar);
    std::mt19937 gen(20240807);
    for (const std::size_t n : kRaggedSizes) {
        const std::vector<float> src = fuzz_floats(gen, n, 200.0f);

        std::vector<std::int16_t> qa(n, -1), qb(n, -2);
        active.quantize_i16(src.data(), qa.data(), n);
        oracle.quantize_i16(src.data(), qb.data(), n);
        ASSERT_TRUE(same_bytes(qa, qb)) << "quantize_i16 n=" << n;

        std::vector<float> da(n, -1.0f), db(n, -2.0f);
        active.dequantize_i16(qa.data(), da.data(), n);
        oracle.dequantize_i16(qa.data(), db.data(), n);
        ASSERT_TRUE(same_bytes(da, db)) << "dequantize_i16 n=" << n;

        active.quantize_dequantize(src.data(), da.data(), n);
        oracle.quantize_dequantize(src.data(), db.data(), n);
        ASSERT_TRUE(same_bytes(da, db)) << "quantize_dequantize n=" << n;

        for (const float clip : {0.05f, 1.0f, 100.0f}) {
            active.quantize_dequantize_clip(src.data(), da.data(), n, clip);
            oracle.quantize_dequantize_clip(src.data(), db.data(), n, clip);
            ASSERT_TRUE(same_bytes(da, db))
                << "quantize_dequantize_clip n=" << n << " clip=" << clip;
        }
    }
}

TEST(SimdKernelsTest, OverlayFixupMatchesScalarOracle) {
    const simd::SimdKernels& active = simd::kernels();
    const simd::SimdKernels& oracle = simd::kernels(SimdIsa::kScalar);
    std::mt19937 gen(20240808);
    std::uniform_int_distribution<std::uint32_t> mask_dist(0, 0xFFFF);
    for (const std::size_t len : {1u, 8u, 9u, 64u, 333u, 4096u}) {
        const std::vector<float> src = fuzz_floats(gen, len, 200.0f);
        // Every possible entry count, including 0, none, and all of them.
        for (const std::size_t m :
             {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
              std::size_t{13}, len / 2, len}) {
            if (m > len) continue;
            // Unique sorted indices, random AND/OR masks.
            std::vector<std::uint32_t> all(len);
            std::iota(all.begin(), all.end(), 0u);
            std::shuffle(all.begin(), all.end(), gen);
            std::vector<std::uint32_t> idx(all.begin(), all.begin() + m);
            std::sort(idx.begin(), idx.end());
            std::vector<std::uint16_t> andm(m), orm(m);
            for (std::size_t e = 0; e < m; ++e) {
                andm[e] = static_cast<std::uint16_t>(mask_dist(gen));
                // OR only sets bits the AND keeps cleared or not — any
                // combination is legal for the kernel; use raw random.
                orm[e] = static_cast<std::uint16_t>(mask_dist(gen));
            }
            std::vector<float> da(len, 0.0f), db(len, 0.0f);
            active.overlay_fixup(src.data(), da.data(), idx.data(), andm.data(),
                                 orm.data(), m);
            oracle.overlay_fixup(src.data(), db.data(), idx.data(), andm.data(),
                                 orm.data(), m);
            ASSERT_EQ(0, std::memcmp(da.data(), db.data(), len * sizeof(float)))
                << "overlay_fixup len=" << len << " m=" << m;

            active.overlay_fixup_clip(src.data(), da.data(), idx.data(),
                                      andm.data(), orm.data(), m, 0.05f);
            oracle.overlay_fixup_clip(src.data(), db.data(), idx.data(),
                                      andm.data(), orm.data(), m, 0.05f);
            ASSERT_EQ(0, std::memcmp(da.data(), db.data(), len * sizeof(float)))
                << "overlay_fixup_clip len=" << len << " m=" << m;
        }
    }
}

/// Runs all three GEMM entries of both tables on one m x k x n shape, over
/// the full row range and a partial one (a chunk-boundary start), and
/// asserts byte equality after each call.
void expect_gemms_match_oracle(std::mt19937& gen, std::size_t m, std::size_t k,
                               std::size_t n) {
    const simd::SimdKernels& active = simd::kernels();
    const simd::SimdKernels& oracle = simd::kernels(SimdIsa::kScalar);
    const std::vector<float> a = fuzz_floats(gen, m * k, 2.0f);
    const std::vector<float> b = fuzz_floats(gen, k * n, 2.0f);
    // a is (k x m) for at_b: output row i reads column i of a.
    const std::vector<float> at = fuzz_floats(gen, k * m, 2.0f);
    // b is (n x k) for a_bt: c = a * b^T.
    const std::vector<float> bt = fuzz_floats(gen, n * k, 2.0f);
    std::vector<float> ca(m * n, -1.0f), cb(m * n, -2.0f);
    for (const auto& [i0, i1] : {std::pair<std::size_t, std::size_t>{0, m},
                                 std::pair<std::size_t, std::size_t>{m / 3, m}}) {
        const std::string shape = std::to_string(m) + "x" + std::to_string(k) + "x" +
                                  std::to_string(n) + " rows " + std::to_string(i0) +
                                  ".." + std::to_string(i1);
        active.matmul_rows(a.data(), b.data(), ca.data(), i0, i1, k, n);
        oracle.matmul_rows(a.data(), b.data(), cb.data(), i0, i1, k, n);
        ASSERT_EQ(0, std::memcmp(ca.data(), cb.data(), m * n * sizeof(float)))
            << "matmul_rows " << shape;

        active.matmul_at_b_rows(at.data(), b.data(), ca.data(), i0, i1, k, m, n);
        oracle.matmul_at_b_rows(at.data(), b.data(), cb.data(), i0, i1, k, m, n);
        ASSERT_EQ(0, std::memcmp(ca.data(), cb.data(), m * n * sizeof(float)))
            << "matmul_at_b_rows " << shape;

        active.matmul_a_bt_rows(a.data(), bt.data(), ca.data(), i0, i1, k, n);
        oracle.matmul_a_bt_rows(a.data(), bt.data(), cb.data(), i0, i1, k, n);
        ASSERT_EQ(0, std::memcmp(ca.data(), cb.data(), m * n * sizeof(float)))
            << "matmul_a_bt_rows " << shape;
    }
}

TEST(SimdKernelsTest, MatmulKernelsMatchScalarOracle) {
    std::mt19937 gen(20240809);
    // 24 and 40 make a 2-register AVX2 column tile followed by a 1-register
    // one; 25 adds a scalar column after them.
    const std::size_t shapes[] = {1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 24, 25, 33, 40};
    for (const std::size_t m : shapes)
        for (const std::size_t k : shapes)
            for (const std::size_t n : shapes) {
                expect_gemms_match_oracle(gen, m, k, n);
                if (HasFatalFailure()) return;
            }
    // One K beyond a_bt's k-tile (256), so its packed panels resume from
    // the partial sums in c, and long chains for the other two entries.
    expect_gemms_match_oracle(gen, 5, 600, 19);
    expect_gemms_match_oracle(gen, 7, 600, 40);
    // K = 0: every entry writes +0 sums.
    expect_gemms_match_oracle(gen, 5, 0, 40);
}

TEST(SimdKernelsTest, AggregationKernelsMatchScalarOracle) {
    const simd::SimdKernels& active = simd::kernels();
    const simd::SimdKernels& oracle = simd::kernels(SimdIsa::kScalar);
    std::mt19937 gen(20240810);
    for (const std::size_t nodes : {1u, 2u, 17u, 64u}) {
        for (const std::size_t feat : {1u, 3u, 8u, 16u, 33u}) {
            // Random CSR with 0..5 edges per row.
            std::uniform_int_distribution<std::size_t> deg_dist(0, 5);
            std::uniform_int_distribution<std::uint32_t> col_dist(
                0, static_cast<std::uint32_t>(nodes - 1));
            std::vector<std::size_t> offsets(nodes + 1, 0);
            std::vector<std::uint32_t> cols;
            for (std::size_t r = 0; r < nodes; ++r) {
                const std::size_t deg = deg_dist(gen);
                for (std::size_t d = 0; d < deg; ++d) cols.push_back(col_dist(gen));
                offsets[r + 1] = cols.size();
            }
            const std::vector<float> vals = fuzz_floats(gen, cols.size(), 1.0f);
            const std::vector<float> x = fuzz_floats(gen, nodes * feat, 2.0f);

            std::vector<float> ya(nodes * feat, 0.0f), yb(nodes * feat, 0.0f);
            active.aggregate_rows(offsets.data(), cols.data(), vals.data(),
                                  x.data(), ya.data(), 0, nodes, feat);
            oracle.aggregate_rows(offsets.data(), cols.data(), vals.data(),
                                  x.data(), yb.data(), 0, nodes, feat);
            ASSERT_EQ(0, std::memcmp(ya.data(), yb.data(),
                                     nodes * feat * sizeof(float)))
                << "aggregate_rows nodes=" << nodes << " feat=" << feat;

            // Transpose index, exactly as BatchGraphView::finalize builds it.
            std::vector<std::size_t> t_offsets(nodes + 1, 0);
            for (const std::uint32_t c : cols) ++t_offsets[c + 1];
            for (std::size_t c = 0; c < nodes; ++c) t_offsets[c + 1] += t_offsets[c];
            std::vector<std::uint32_t> t_src(cols.size()), t_edge(cols.size());
            std::vector<std::size_t> cursor(t_offsets.begin(), t_offsets.end() - 1);
            for (std::size_t r = 0; r < nodes; ++r)
                for (std::size_t e = offsets[r]; e < offsets[r + 1]; ++e) {
                    const std::size_t slot = cursor[cols[e]]++;
                    t_src[slot] = static_cast<std::uint32_t>(r);
                    t_edge[slot] = static_cast<std::uint32_t>(e);
                }

            std::fill(ya.begin(), ya.end(), 0.0f);
            std::fill(yb.begin(), yb.end(), 0.0f);
            active.aggregate_t_rows(t_offsets.data(), t_src.data(), t_edge.data(),
                                    vals.data(), x.data(), ya.data(), 0, nodes,
                                    feat);
            oracle.aggregate_t_rows(t_offsets.data(), t_src.data(), t_edge.data(),
                                    vals.data(), x.data(), yb.data(), 0, nodes,
                                    feat);
            ASSERT_EQ(0, std::memcmp(ya.data(), yb.data(),
                                     nodes * feat * sizeof(float)))
                << "aggregate_t_rows nodes=" << nodes << " feat=" << feat;
        }
    }
}

/// Elementwise fuzz inputs: uniform values salted with ±0, ±NaN, ±inf,
/// subnormals and the smallest normal; about one element in `every` is one
/// of those.
std::vector<float> special_floats(std::mt19937& gen, std::size_t n,
                                  std::size_t every = 2) {
    using limits = std::numeric_limits<float>;
    const float special[] = {0.0f,          -0.0f,
                             limits::quiet_NaN(), -limits::quiet_NaN(),
                             limits::infinity(),  -limits::infinity(),
                             limits::denorm_min(), -limits::denorm_min(),
                             1e-39f,        -1e-39f,
                             limits::min(), -limits::min()};
    std::uniform_real_distribution<float> dist(-3.0f, 3.0f);
    std::uniform_int_distribution<std::size_t> pick(0, every * std::size(special) - 1);
    std::vector<float> v(n);
    for (float& x : v) {
        const std::size_t i = pick(gen);
        x = i < std::size(special) ? special[i] : dist(gen);
    }
    return v;
}

/// Byte-for-byte equality of two float vectors, except that two NaNs match
/// whatever their sign and payload: when both operands of an add or mul are
/// NaN, x86 returns the first one, and C++ leaves the compiler free to
/// commute those operands in the scalar and the vector code alike. The
/// select and fill kernels do no arithmetic and are held to same_bytes.
bool same_floats(const std::vector<float>& a, const std::vector<float>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0 &&
            !(std::isnan(a[i]) && std::isnan(b[i])))
            return false;
    return true;
}

/// Runs `check` once in the default FP mode and once flushing subnormals.
template <class Check>
void in_both_fp_modes(Check check) {
    check("default");
    FlushDenormalsScope flush;
    check("flushed");
}

// Each elementwise kernel, out of place and in place, for every n in 0..67:
// eight AVX2 or sixteen NEON bodies plus every ragged tail length.
constexpr std::size_t kMaxElementwise = 67;

TEST(SimdKernelsTest, ActivationKernelsMatchScalarOracle) {
    const simd::SimdKernels& active = simd::kernels(simd::detected_isa());
    const simd::SimdKernels& oracle = simd::kernels(SimdIsa::kScalar);
    std::mt19937 gen(20240811);
    in_both_fp_modes([&](const char* mode) {
        for (std::size_t n = 0; n <= kMaxElementwise; ++n) {
            const std::vector<float> x = special_floats(gen, n);
            const std::vector<float> g = special_floats(gen, n);
            std::vector<float> ya(n, -1.0f), yb(n, -2.0f);
            active.relu(x.data(), ya.data(), n);
            oracle.relu(x.data(), yb.data(), n);
            ASSERT_TRUE(same_bytes(ya, yb)) << "relu n=" << n << " " << mode;
            std::vector<float> ia = x, ib = x;
            active.relu(ia.data(), ia.data(), n);
            oracle.relu(ib.data(), ib.data(), n);
            ASSERT_TRUE(same_bytes(ia, ib)) << "relu in place n=" << n << " " << mode;
            ASSERT_TRUE(same_bytes(ia, yb)) << "relu in place n=" << n << " " << mode;

            active.relu_backward(g.data(), x.data(), ya.data(), n);
            oracle.relu_backward(g.data(), x.data(), yb.data(), n);
            ASSERT_TRUE(same_bytes(ya, yb)) << "relu_backward n=" << n << " " << mode;
            // Output over the gradient, then over the pre-activation.
            std::vector<float> ga = g, gb = g;
            active.relu_backward(ga.data(), x.data(), ga.data(), n);
            oracle.relu_backward(gb.data(), x.data(), gb.data(), n);
            ASSERT_TRUE(same_bytes(ga, yb)) << "relu_backward out=g n=" << n << " " << mode;
            ASSERT_TRUE(same_bytes(gb, yb)) << "relu_backward out=g n=" << n << " " << mode;
            std::vector<float> pa = x, pb = x;
            active.relu_backward(g.data(), pa.data(), pa.data(), n);
            oracle.relu_backward(g.data(), pb.data(), pb.data(), n);
            ASSERT_TRUE(same_bytes(pa, yb)) << "relu_backward out=pre n=" << n << " " << mode;
            ASSERT_TRUE(same_bytes(pb, yb)) << "relu_backward out=pre n=" << n << " " << mode;
        }
    });
}

TEST(SimdKernelsTest, InPlaceArithmeticKernelsMatchScalarOracle) {
    const simd::SimdKernels& active = simd::kernels(simd::detected_isa());
    const simd::SimdKernels& oracle = simd::kernels(SimdIsa::kScalar);
    using limits = std::numeric_limits<float>;
    const float scalars[] = {0.5f, -3.0f, 0.0f, -0.0f, limits::infinity(),
                             limits::quiet_NaN(), 1e-39f, 1e20f};
    std::mt19937 gen(20240812);
    in_both_fp_modes([&](const char* mode) {
        for (std::size_t n = 0; n <= kMaxElementwise; ++n) {
            const std::vector<float> dst = special_floats(gen, n);
            const std::vector<float> src = special_floats(gen, n);
            {
                std::vector<float> a = dst, b = dst;
                active.add(a.data(), src.data(), n);
                oracle.add(b.data(), src.data(), n);
                ASSERT_TRUE(same_floats(a, b)) << "add n=" << n << " " << mode;
                // dst and src the same array: m += m.
                a = dst;
                b = dst;
                active.add(a.data(), a.data(), n);
                oracle.add(b.data(), b.data(), n);
                ASSERT_TRUE(same_floats(a, b)) << "add aliased n=" << n << " " << mode;
            }
            for (const float s : scalars) {
                std::vector<float> a = dst, b = dst;
                active.scale(a.data(), s, n);
                oracle.scale(b.data(), s, n);
                ASSERT_TRUE(same_floats(a, b)) << "scale s=" << s << " n=" << n << " " << mode;
                active.fill(a.data(), s, n);
                oracle.fill(b.data(), s, n);
                ASSERT_TRUE(same_bytes(a, b)) << "fill v=" << s << " n=" << n << " " << mode;
            }
        }
    });
}

TEST(SimdKernelsTest, AdamUpdateMatchesScalarOracle) {
    const simd::SimdKernels& active = simd::kernels(simd::detected_isa());
    const simd::SimdKernels& oracle = simd::kernels(SimdIsa::kScalar);
    std::mt19937 gen(20240813);
    in_both_fp_modes([&](const char* mode) {
        for (std::size_t n = 0; n <= kMaxElementwise; ++n) {
            const std::vector<float> p0 = special_floats(gen, n);
            std::vector<float> pa = p0, pb = p0;
            std::vector<float> ma(n, 0.0f), mb(n, 0.0f), va(n, 0.0f), vb(n, 0.0f);
            // Several steps, so m and v carry state (specials included)
            // from one step into the next; the last step uses a tiny eps
            // and learning rate so the quotient visits the subnormal range.
            // Specials are rare in g: a NaN or inf poisons m and v for good.
            for (int t = 1; t <= 4; ++t) {
                const std::vector<float> g = special_floats(gen, n, 16);
                const float b1 = 0.9f, b2 = 0.999f;
                const simd::AdamStep step{t == 4 ? 1e-38f : 0.01f, b1, b2,
                                          t == 4 ? 1e-40f : 1e-8f,
                                          1.0f - std::pow(b1, static_cast<float>(t)),
                                          1.0f - std::pow(b2, static_cast<float>(t))};
                active.adam_update(pa.data(), g.data(), ma.data(), va.data(), n, step);
                oracle.adam_update(pb.data(), g.data(), mb.data(), vb.data(), n, step);
                ASSERT_TRUE(same_floats(ma, mb)) << "adam m t=" << t << " n=" << n << " " << mode;
                ASSERT_TRUE(same_floats(va, vb)) << "adam v t=" << t << " n=" << n << " " << mode;
                ASSERT_TRUE(same_floats(pa, pb)) << "adam p t=" << t << " n=" << n << " " << mode;
            }
        }
    });
}

TEST(SimdDispatchTest, ModeParsingAndDegradeToScalar) {
    // Active default never exceeds what the host can run.
    EXPECT_EQ(simd::set_isa_mode("auto"), simd::active_isa());

    // Pinning scalar always works.
    EXPECT_EQ(simd::set_isa_mode("scalar"), SimdIsa::kScalar);
    EXPECT_EQ(simd::active_isa(), SimdIsa::kScalar);

    // Pinning an ISA the host cannot run degrades to scalar; pinning the
    // detected one selects it.
    for (const SimdIsa isa : {SimdIsa::kAvx2, SimdIsa::kNeon}) {
        const SimdIsa got = simd::set_isa(isa);
        if (isa == simd::detected_isa())
            EXPECT_EQ(got, isa);
        else
            EXPECT_EQ(got, SimdIsa::kScalar);
    }

    EXPECT_THROW(simd::set_isa_mode("sse9"), InvalidArgument);
    EXPECT_THROW(simd::set_isa_mode(""), InvalidArgument);

    // kernels(isa) throws for unavailable ISAs instead of degrading.
    for (const SimdIsa isa : {SimdIsa::kAvx2, SimdIsa::kNeon}) {
        if (isa != simd::detected_isa()) {
            EXPECT_THROW(simd::kernels(isa), InvalidArgument);
        }
    }

    EXPECT_STREQ(simd::isa_name(SimdIsa::kScalar), "scalar");
    EXPECT_STREQ(simd::isa_name(SimdIsa::kAvx2), "avx2");
    EXPECT_STREQ(simd::isa_name(SimdIsa::kNeon), "neon");

    simd::set_isa_mode("auto");  // leave no override behind
}

TEST(SimdDispatchTest, IsaScopeRestoresPreviousSelection) {
    simd::set_isa_mode("auto");
    const SimdIsa ambient = simd::active_isa();
    const simd::SimdKernels* scalar = &simd::kernels(SimdIsa::kScalar);
    const simd::SimdKernels* detected = &simd::kernels(simd::detected_isa());
    const simd::SimdKernels* ambient_table = &simd::kernels(ambient);
    EXPECT_EQ(&simd::kernels(), ambient_table);
    {
        simd::SimdIsaScope pin(SimdIsa::kScalar);
        EXPECT_EQ(simd::active_isa(), SimdIsa::kScalar);
        EXPECT_EQ(&simd::kernels(), scalar);
        {
            simd::SimdIsaScope inner(simd::detected_isa());
            EXPECT_EQ(simd::active_isa(), simd::detected_isa());
            EXPECT_EQ(&simd::kernels(), detected);
        }
        EXPECT_EQ(simd::active_isa(), SimdIsa::kScalar);
        EXPECT_EQ(&simd::kernels(), scalar);
    }
    EXPECT_EQ(simd::active_isa(), ambient);
    EXPECT_EQ(&simd::kernels(), ambient_table);

    // set_isa and set_isa_mode republish the table kernels() returns.
    simd::set_isa(SimdIsa::kScalar);
    EXPECT_EQ(&simd::kernels(), scalar);
    simd::set_isa_mode("auto");
    EXPECT_EQ(&simd::kernels(), ambient_table);
}

/// Tiny online-tolerance plan — wear, soft errors, detection rounds, spare
/// repairs — so the scalar-vs-auto comparison crosses every SIMD-dispatched
/// pass (quantise, overlay fix-up + clip, all three GEMMs, aggregation).
ExperimentPlan tiny_online_plan() {
    FaultScenario faults = FaultScenario::pre_deployment(0.01, 0.5);
    faults.with_wear(40e3, 0.25).with_arrival_period(2).with_soft_errors(0.003);
    HardwareOverrides hw;
    hw.online.detect_period_batches = 2;
    hw.online.march_window = 8;
    hw.online.spare_columns = 2;
    hw.online.readback_tolerance = 0.05;
    return SweepBuilder("simd_identity")
        .workload(find_workload("PPI", GnnKind::kGCN))
        .scenario(faults)
        .hardware(hw)
        .schemes({Scheme::kOnlineFARe})
        .epochs(2)
        .build();
}

/// Same normalization as `fare-run --canonical`.
std::string canonical(const ResultSet& results) {
    std::string out;
    for (CellResult cell : results.cells) {
        cell.wall_seconds = 0.0;
        cell.from_cache = false;
        cell.run.train.preprocess_seconds = 0.0;
        cell.run.train.train_seconds = 0.0;
        out += cell_result_to_json(cell);
        out += '\n';
    }
    return out;
}

TEST(SimdEndToEndTest, OnlineCellIsByteIdenticalScalarVsAuto) {
    SessionOptions scalar_opts;
    scalar_opts.simd = "scalar";
    SimSession scalar_session(scalar_opts, std::make_unique<InlineExecutor>(),
                              nullptr);
    const ResultSet scalar_run = scalar_session.run(tiny_online_plan());

    SessionOptions auto_opts;
    auto_opts.simd = "auto";
    SimSession auto_session(auto_opts, std::make_unique<InlineExecutor>(),
                            nullptr);
    const ResultSet auto_run = auto_session.run(tiny_online_plan());

    ASSERT_EQ(scalar_run.size(), tiny_online_plan().size());
    EXPECT_EQ(canonical(scalar_run), canonical(auto_run));
}

}  // namespace
}  // namespace fare
