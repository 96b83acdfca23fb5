// Templated float vector kernels shared by the AVX2 and NEON translation
// units. The template parameter V is a lane abstraction:
//
//   V::kWidth                       lanes per register (8 AVX2, 4 NEON)
//   V::Reg                          register type
//   V::load/store (unaligned), V::broadcast, V::zero
//   V::add, V::sub, V::mul, V::div, V::sqrt    correctly rounded lane ops
//   V::gt(a, b)                     lane mask a > b (false on NaN)
//   V::not_le(a, b)                 lane mask !(a <= b) (true on NaN)
//   V::keep(mask, a)                a where mask is set, +0 elsewhere
//   V::transpose(Reg (&rows)[kWidth])   optional: in-register transpose of
//                                   a kWidth x kWidth block (matmul_a_bt's
//                                   panel pack; without it the pack is scalar)
//
// Bit-identity rule baked into every kernel here: vectorise across OUTPUT
// elements only. Each output element's partial products accumulate in
// ascending-k (ascending-edge) order in a single lane, exactly like the
// scalar oracle in simd_scalar.hpp — and mul/add stay separate ops (the
// including TUs compile with -ffp-contract=off, so no FMA contraction).
// The three GEMMs share one register-tiled micro-kernel (detail::gemm_tile)
// and differ only in how they read their operands. Ragged column tails
// (cols % kWidth != 0) run scalar chains in the same accumulation order.
//
// The elementwise kernels at the end evaluate each element's scalar
// expression with the same operations in the same order, so they match the
// oracle for every input, NaN, infinities and subnormals included. Their
// pointers are not __restrict: an output may be the same array as an input
// (each register is loaded before it is stored).
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/simd_scalar.hpp"

namespace fare::simd::vec {

namespace detail {

/// The one GEMM micro-kernel: an R-row x NR-register tile of c (R = 4 or 1,
/// NR = 2 or 1) over kn steps of k. Row r's k-th multiplier is
/// a[r * ars + k * aks]; the k-th row of the column panel starts at
/// b + k * bks. The tile starts from +0, or from the partial sums already
/// in c when resume is set, so each element's chain runs ascending k across
/// calls. The constant-trip r/n loops unroll into R * NR independent
/// accumulator registers; always_inline lets each caller's constant strides
/// and resume flag fold into the loop.
template <class V, std::size_t R, std::size_t NR>
[[gnu::always_inline]] inline void gemm_tile(
    const float* __restrict a, std::size_t ars, std::size_t aks,
    const float* __restrict b, std::size_t bks, float* __restrict c,
    std::size_t ldc, std::size_t kn, bool resume) {
    constexpr std::size_t W = V::kWidth;
    typename V::Reg acc[R][NR];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 2
        for (std::size_t n = 0; n < NR; ++n)
            acc[r][n] = resume ? V::load(c + r * ldc + n * W) : V::zero();
    for (std::size_t k = 0; k < kn; ++k) {
        typename V::Reg bv[NR];
#pragma GCC unroll 2
        for (std::size_t n = 0; n < NR; ++n) bv[n] = V::load(b + k * bks + n * W);
#pragma GCC unroll 4
        for (std::size_t r = 0; r < R; ++r) {
            const typename V::Reg av = V::broadcast(a[r * ars + k * aks]);
#pragma GCC unroll 2
            for (std::size_t n = 0; n < NR; ++n)
                acc[r][n] = V::add(acc[r][n], V::mul(av, bv[n]));
        }
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 2
        for (std::size_t n = 0; n < NR; ++n) V::store(c + r * ldc + n * W, acc[r][n]);
}

/// Rows [i0, i1) of one NR-register column panel (a_bt's packed b^T):
/// 4-row tiles, then 1-row.
template <class V, std::size_t NR>
inline void gemm_panel(const float* a, std::size_t ars, std::size_t aks,
                       const float* b, std::size_t bks, float* c, std::size_t ldc,
                       std::size_t i0, std::size_t i1, std::size_t kn, bool resume) {
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4)
        gemm_tile<V, 4, NR>(a + i * ars, ars, aks, b, bks, c + i * ldc, ldc, kn,
                            resume);
    for (; i < i1; ++i)
        gemm_tile<V, 1, NR>(a + i * ars, ars, aks, b, bks, c + i * ldc, ldc, kn,
                            resume);
}

/// R rows of c = A * b for row-major b (K x N), A(r, k) = a[r * ars + k * aks]:
/// 2-register column tiles, one 1-register tile, then the last N % kWidth
/// columns as scalar chains in the same ascending-k order.
template <class V, std::size_t R>
void gemm_row_block(const float* __restrict a, std::size_t ars, std::size_t aks,
                    const float* __restrict b, float* __restrict c, std::size_t K,
                    std::size_t N) {
    constexpr std::size_t W = V::kWidth;
    std::size_t j = 0;
    for (; j + 2 * W <= N; j += 2 * W)
        gemm_tile<V, R, 2>(a, ars, aks, b + j, N, c + j, N, K, false);
    for (; j + W <= N; j += W)
        gemm_tile<V, R, 1>(a, ars, aks, b + j, N, c + j, N, K, false);
    for (; j < N; ++j)
        for (std::size_t r = 0; r < R; ++r) {
            float s = 0.0f;
            for (std::size_t k = 0; k < K; ++k) s += a[r * ars + k * aks] * b[k * N + j];
            c[r * N + j] = s;
        }
}

/// Rows [i0, i1) of c = A * b, b read in place: each 4-row (then 1-row)
/// block sweeps every column tile while its rows of A are hot.
template <class V>
void gemm_rows(const float* a, std::size_t ars, std::size_t aks, const float* b,
               float* c, std::size_t i0, std::size_t i1, std::size_t K,
               std::size_t N) {
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4)
        gemm_row_block<V, 4>(a + i * ars, ars, aks, b, c + i * N, K, N);
    for (; i < i1; ++i) gemm_row_block<V, 1>(a + i * ars, ars, aks, b, c + i * N, K, N);
}

/// k-steps per packed b^T panel: a 2-register AVX2 panel is 16 KiB of stack.
inline constexpr std::size_t kKTile = 256;

/// Packs rows [j, j + NR * kWidth) of b (N x K), k-chunk [k0, k0 + kn), into
/// the k-major panel buf[k * NR * kWidth + l]. A lane type with
/// V::transpose moves kWidth x kWidth blocks through registers; the rest
/// (and every block without it) is copied one float at a time.
template <class V, std::size_t NR>
void pack_bt_panel(const float* __restrict b, float* __restrict buf, std::size_t K,
                   std::size_t j, std::size_t k0, std::size_t kn) {
    constexpr std::size_t W = V::kWidth;
    constexpr std::size_t P = NR * W;
    for (std::size_t l0 = 0; l0 < P; l0 += W) {
        const float* __restrict bl = b + (j + l0) * K + k0;
        std::size_t k = 0;
        if constexpr (requires(typename V::Reg (&rows)[W]) { V::transpose(rows); }) {
            for (; k + W <= kn; k += W) {
                typename V::Reg rows[W];
#pragma GCC unroll 8
                for (std::size_t q = 0; q < W; ++q) rows[q] = V::load(bl + q * K + k);
                V::transpose(rows);
#pragma GCC unroll 8
                for (std::size_t q = 0; q < W; ++q)
                    V::store(buf + (k + q) * P + l0, rows[q]);
            }
        }
        for (; k < kn; ++k)
            for (std::size_t l = 0; l < W; ++l) buf[k * P + l0 + l] = bl[l * K + k];
    }
}

/// Rows [i0, i1) of c = a * b^T over columns [j, j + NR * kWidth): per
/// k-chunk, those rows of b are packed into a panel and the tile streams
/// over it, resuming from c after the first chunk. K = 0 still writes the
/// +0 sums.
template <class V, std::size_t NR>
void a_bt_panel(const float* __restrict a, const float* __restrict b,
                float* __restrict c, float* __restrict buf, std::size_t i0,
                std::size_t i1, std::size_t K, std::size_t N, std::size_t j) {
    std::size_t k0 = 0;
    do {
        const std::size_t kn = std::min(kKTile, K - k0);
        pack_bt_panel<V, NR>(b, buf, K, j, k0, kn);
        gemm_panel<V, NR>(a + k0, K, 1, buf, NR * V::kWidth, c + j, N, i0, i1, kn,
                          k0 != 0);
        k0 += kn;
    } while (k0 < K);
}

}  // namespace detail

/// c[i0..i1) = a[i0..i1) * b: b's rows are the column panels, read in place.
template <class V>
void matmul_rows(const float* a, const float* b, float* c, std::size_t i0,
                 std::size_t i1, std::size_t cols_a, std::size_t cols_b) {
    detail::gemm_rows<V>(a, cols_a, 1, b, c, i0, i1, cols_a, cols_b);
}

/// c[i0..i1) = (a^T)[i0..i1) * b: output row i reads column i of a.
template <class V>
void matmul_at_b_rows(const float* a, const float* b, float* c, std::size_t i0,
                      std::size_t i1, std::size_t rows_a, std::size_t cols_a,
                      std::size_t cols_b) {
    detail::gemm_rows<V>(a, 1, cols_a, b, c, i0, i1, rows_a, cols_b);
}

/// c[i0..i1) = a[i0..i1) * b^T: per 2-register (then 1-register) column
/// block and k-chunk, the block's rows of b are packed k-major into a stack
/// panel that the same tile streams over; later k-chunks resume from the
/// partial sums stored in c, which a float store and reload keep exact. The
/// last N % kWidth columns fall back to the scalar dot-product kernel.
template <class V>
void matmul_a_bt_rows(const float* a, const float* b, float* c, std::size_t i0,
                      std::size_t i1, std::size_t cols_a, std::size_t rows_b) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t K = cols_a, N = rows_b;
    float buf[detail::kKTile * 2 * W];
    std::size_t j = 0;
    for (; j + 2 * W <= N; j += 2 * W)
        detail::a_bt_panel<V, 2>(a, b, c, buf, i0, i1, K, N, j);
    for (; j + W <= N; j += W) detail::a_bt_panel<V, 1>(a, b, c, buf, i0, i1, K, N, j);
    if (j < N) scalar::matmul_a_bt_cols(a, b, c, i0, i1, K, N, j);
}

/// Forward aggregation: per output row, the feature dimension is tiled into
/// registers and each tile accumulates over the row's edges (ascending edge
/// order per element, exactly like the scalar edge-outer loop).
template <class V>
void aggregate_rows(const std::size_t* offsets, const std::uint32_t* cols,
                    const float* vals, const float* x, float* y, std::size_t r0,
                    std::size_t r1, std::size_t feat) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t f1 = feat - feat % W;
    for (std::size_t r = r0; r < r1; ++r) {
        float* __restrict yrow = y + r * feat;
        const std::size_t e0 = offsets[r], e1 = offsets[r + 1];
        std::size_t f = 0;
        for (; f < f1; f += W) {
            typename V::Reg acc = V::load(yrow + f);
            for (std::size_t e = e0; e < e1; ++e)
                acc = V::add(acc, V::mul(V::broadcast(vals[e]),
                                         V::load(x + cols[e] * feat + f)));
            V::store(yrow + f, acc);
        }
        for (; f < feat; ++f) {
            float acc = yrow[f];
            for (std::size_t e = e0; e < e1; ++e)
                acc += vals[e] * x[cols[e] * feat + f];
            yrow[f] = acc;
        }
    }
}

/// Backward aggregation through the transpose index; same tiling.
template <class V>
void aggregate_t_rows(const std::size_t* t_offsets, const std::uint32_t* t_src,
                      const std::uint32_t* t_edge, const float* vals,
                      const float* x, float* y, std::size_t c0, std::size_t c1,
                      std::size_t feat) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t f1 = feat - feat % W;
    for (std::size_t r = c0; r < c1; ++r) {
        float* __restrict yrow = y + r * feat;
        const std::size_t t0 = t_offsets[r], t1 = t_offsets[r + 1];
        std::size_t f = 0;
        for (; f < f1; f += W) {
            typename V::Reg acc = V::load(yrow + f);
            for (std::size_t t = t0; t < t1; ++t)
                acc = V::add(acc, V::mul(V::broadcast(vals[t_edge[t]]),
                                         V::load(x + t_src[t] * feat + f)));
            V::store(yrow + f, acc);
        }
        for (; f < feat; ++f) {
            float acc = yrow[f];
            for (std::size_t t = t0; t < t1; ++t)
                acc += vals[t_edge[t]] * x[t_src[t] * feat + f];
            yrow[f] = acc;
        }
    }
}

template <class V>
void relu(const float* x, float* y, std::size_t n) {
    constexpr std::size_t W = V::kWidth;
    const typename V::Reg zero = V::zero();
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
        const typename V::Reg v = V::load(x + i);
        V::store(y + i, V::keep(V::gt(v, zero), v));
    }
    if (i < n) scalar::relu(x + i, y + i, n - i);
}

template <class V>
void relu_backward(const float* g, const float* pre, float* out, std::size_t n) {
    constexpr std::size_t W = V::kWidth;
    const typename V::Reg zero = V::zero();
    std::size_t i = 0;
    for (; i + W <= n; i += W)
        V::store(out + i,
                 V::keep(V::not_le(V::load(pre + i), zero), V::load(g + i)));
    if (i < n) scalar::relu_backward(g + i, pre + i, out + i, n - i);
}

template <class V>
void add(float* dst, const float* src, std::size_t n) {
    constexpr std::size_t W = V::kWidth;
    std::size_t i = 0;
    for (; i + W <= n; i += W)
        V::store(dst + i, V::add(V::load(dst + i), V::load(src + i)));
    if (i < n) scalar::add(dst + i, src + i, n - i);
}

template <class V>
void scale(float* dst, float s, std::size_t n) {
    constexpr std::size_t W = V::kWidth;
    const typename V::Reg sv = V::broadcast(s);
    std::size_t i = 0;
    for (; i + W <= n; i += W) V::store(dst + i, V::mul(V::load(dst + i), sv));
    if (i < n) scalar::scale(dst + i, s, n - i);
}

template <class V>
void fill(float* dst, float v, std::size_t n) {
    constexpr std::size_t W = V::kWidth;
    const typename V::Reg vv = V::broadcast(v);
    std::size_t i = 0;
    for (; i + W <= n; i += W) V::store(dst + i, vv);
    if (i < n) scalar::fill(dst + i, v, n - i);
}

/// scalar::adam_update lane by lane: same operations, same order, no FMA.
template <class V>
void adam_update(float* p, const float* g, float* m, float* v, std::size_t n,
                 const AdamStep& s) {
    constexpr std::size_t W = V::kWidth;
    const typename V::Reg b1 = V::broadcast(s.beta1), c1 = V::broadcast(1.0f - s.beta1);
    const typename V::Reg b2 = V::broadcast(s.beta2), c2 = V::broadcast(1.0f - s.beta2);
    const typename V::Reg bc1 = V::broadcast(s.bc1), bc2 = V::broadcast(s.bc2);
    const typename V::Reg lr = V::broadcast(s.lr), eps = V::broadcast(s.eps);
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
        const typename V::Reg gv = V::load(g + i);
        const typename V::Reg mv =
            V::add(V::mul(b1, V::load(m + i)), V::mul(c1, gv));
        const typename V::Reg vv =
            V::add(V::mul(b2, V::load(v + i)), V::mul(V::mul(c2, gv), gv));
        V::store(m + i, mv);
        V::store(v + i, vv);
        const typename V::Reg step = V::div(V::mul(lr, V::div(mv, bc1)),
                                            V::add(V::sqrt(V::div(vv, bc2)), eps));
        V::store(p + i, V::sub(V::load(p + i), step));
    }
    if (i < n) scalar::adam_update(p + i, g + i, m + i, v + i, n - i, s);
}

}  // namespace fare::simd::vec
