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
//
// Bit-identity rule baked into every kernel here: vectorise across OUTPUT
// elements only. Each output element's partial products accumulate in
// ascending-k (ascending-edge) order in a single lane, exactly like the
// scalar oracle in simd_scalar.hpp — and mul/add stay separate ops (the
// including TUs compile with -ffp-contract=off, so no FMA contraction).
// Ragged tails (cols % kWidth != 0, rows % 4 != 0) fall back to the scalar
// helpers, which follow the same accumulation order.
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

/// c[i0..i1) = a[i0..i1) * b, 4-row x 2-register output tile. The j tail
/// runs 1-register tiles then delegates the last < kWidth columns to the
/// scalar kernel (restricted via a column offset would complicate it; the
/// scalar tail instead recomputes only those columns through the plain
/// per-row loop below).
template <class V>
void matmul_rows(const float* __restrict a, const float* __restrict b,
                 float* __restrict c, std::size_t i0, std::size_t i1,
                 std::size_t cols_a, std::size_t cols_b) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t K = cols_a, N = cols_b;
    const std::size_t n2 = N - N % (2 * W);   // 2-register j blocks end here
    const std::size_t n1 = N - N % W;         // 1-register j blocks end here
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4) {
        const float* __restrict a0 = a + (i + 0) * K;
        const float* __restrict a1 = a + (i + 1) * K;
        const float* __restrict a2 = a + (i + 2) * K;
        const float* __restrict a3 = a + (i + 3) * K;
        std::size_t j = 0;
        for (; j < n2; j += 2 * W) {
            typename V::Reg c00 = V::zero(), c01 = V::zero();
            typename V::Reg c10 = V::zero(), c11 = V::zero();
            typename V::Reg c20 = V::zero(), c21 = V::zero();
            typename V::Reg c30 = V::zero(), c31 = V::zero();
            for (std::size_t k = 0; k < K; ++k) {
                const float* __restrict brow = b + k * N + j;
                const typename V::Reg b0 = V::load(brow);
                const typename V::Reg b1 = V::load(brow + W);
                typename V::Reg v = V::broadcast(a0[k]);
                c00 = V::add(c00, V::mul(v, b0));
                c01 = V::add(c01, V::mul(v, b1));
                v = V::broadcast(a1[k]);
                c10 = V::add(c10, V::mul(v, b0));
                c11 = V::add(c11, V::mul(v, b1));
                v = V::broadcast(a2[k]);
                c20 = V::add(c20, V::mul(v, b0));
                c21 = V::add(c21, V::mul(v, b1));
                v = V::broadcast(a3[k]);
                c30 = V::add(c30, V::mul(v, b0));
                c31 = V::add(c31, V::mul(v, b1));
            }
            V::store(c + (i + 0) * N + j, c00);
            V::store(c + (i + 0) * N + j + W, c01);
            V::store(c + (i + 1) * N + j, c10);
            V::store(c + (i + 1) * N + j + W, c11);
            V::store(c + (i + 2) * N + j, c20);
            V::store(c + (i + 2) * N + j + W, c21);
            V::store(c + (i + 3) * N + j, c30);
            V::store(c + (i + 3) * N + j + W, c31);
        }
        for (; j < n1; j += W) {
            typename V::Reg c0 = V::zero(), c1 = V::zero(), c2 = V::zero(),
                            c3 = V::zero();
            for (std::size_t k = 0; k < K; ++k) {
                const typename V::Reg bv = V::load(b + k * N + j);
                c0 = V::add(c0, V::mul(V::broadcast(a0[k]), bv));
                c1 = V::add(c1, V::mul(V::broadcast(a1[k]), bv));
                c2 = V::add(c2, V::mul(V::broadcast(a2[k]), bv));
                c3 = V::add(c3, V::mul(V::broadcast(a3[k]), bv));
            }
            V::store(c + (i + 0) * N + j, c0);
            V::store(c + (i + 1) * N + j, c1);
            V::store(c + (i + 2) * N + j, c2);
            V::store(c + (i + 3) * N + j, c3);
        }
        for (; j < N; ++j) {
            float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
            for (std::size_t k = 0; k < K; ++k) {
                const float bj = b[k * N + j];
                s0 += a0[k] * bj;
                s1 += a1[k] * bj;
                s2 += a2[k] * bj;
                s3 += a3[k] * bj;
            }
            c[(i + 0) * N + j] = s0;
            c[(i + 1) * N + j] = s1;
            c[(i + 2) * N + j] = s2;
            c[(i + 3) * N + j] = s3;
        }
    }
    for (; i < i1; ++i) {
        const float* __restrict arow = a + i * K;
        std::size_t j = 0;
        for (; j < n1; j += W) {
            typename V::Reg acc = V::zero();
            for (std::size_t k = 0; k < K; ++k)
                acc = V::add(acc, V::mul(V::broadcast(arow[k]), V::load(b + k * N + j)));
            V::store(c + i * N + j, acc);
        }
        for (; j < N; ++j) {
            float s = 0.0f;
            for (std::size_t k = 0; k < K; ++k) s += arow[k] * b[k * N + j];
            c[i * N + j] = s;
        }
    }
}

/// c[i0..i1) = (a^T)[i0..i1) * b: identical tiling to matmul_rows, but the
/// per-row broadcasts come from column i of a (stride M = cols_a).
template <class V>
void matmul_at_b_rows(const float* __restrict a, const float* __restrict b,
                      float* __restrict c, std::size_t i0, std::size_t i1,
                      std::size_t rows_a, std::size_t cols_a,
                      std::size_t cols_b) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t K = rows_a, M = cols_a, N = cols_b;
    const std::size_t n2 = N - N % (2 * W);
    const std::size_t n1 = N - N % W;
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4) {
        std::size_t j = 0;
        for (; j < n2; j += 2 * W) {
            typename V::Reg c00 = V::zero(), c01 = V::zero();
            typename V::Reg c10 = V::zero(), c11 = V::zero();
            typename V::Reg c20 = V::zero(), c21 = V::zero();
            typename V::Reg c30 = V::zero(), c31 = V::zero();
            for (std::size_t k = 0; k < K; ++k) {
                const float* __restrict acol = a + k * M + i;
                const float* __restrict brow = b + k * N + j;
                const typename V::Reg b0 = V::load(brow);
                const typename V::Reg b1 = V::load(brow + W);
                typename V::Reg v = V::broadcast(acol[0]);
                c00 = V::add(c00, V::mul(v, b0));
                c01 = V::add(c01, V::mul(v, b1));
                v = V::broadcast(acol[1]);
                c10 = V::add(c10, V::mul(v, b0));
                c11 = V::add(c11, V::mul(v, b1));
                v = V::broadcast(acol[2]);
                c20 = V::add(c20, V::mul(v, b0));
                c21 = V::add(c21, V::mul(v, b1));
                v = V::broadcast(acol[3]);
                c30 = V::add(c30, V::mul(v, b0));
                c31 = V::add(c31, V::mul(v, b1));
            }
            V::store(c + (i + 0) * N + j, c00);
            V::store(c + (i + 0) * N + j + W, c01);
            V::store(c + (i + 1) * N + j, c10);
            V::store(c + (i + 1) * N + j + W, c11);
            V::store(c + (i + 2) * N + j, c20);
            V::store(c + (i + 2) * N + j + W, c21);
            V::store(c + (i + 3) * N + j, c30);
            V::store(c + (i + 3) * N + j + W, c31);
        }
        for (; j < n1; j += W) {
            typename V::Reg c0 = V::zero(), c1 = V::zero(), c2 = V::zero(),
                            c3 = V::zero();
            for (std::size_t k = 0; k < K; ++k) {
                const float* __restrict acol = a + k * M + i;
                const typename V::Reg bv = V::load(b + k * N + j);
                c0 = V::add(c0, V::mul(V::broadcast(acol[0]), bv));
                c1 = V::add(c1, V::mul(V::broadcast(acol[1]), bv));
                c2 = V::add(c2, V::mul(V::broadcast(acol[2]), bv));
                c3 = V::add(c3, V::mul(V::broadcast(acol[3]), bv));
            }
            V::store(c + (i + 0) * N + j, c0);
            V::store(c + (i + 1) * N + j, c1);
            V::store(c + (i + 2) * N + j, c2);
            V::store(c + (i + 3) * N + j, c3);
        }
        for (; j < N; ++j) {
            float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
            for (std::size_t k = 0; k < K; ++k) {
                const float* __restrict acol = a + k * M + i;
                const float bj = b[k * N + j];
                s0 += acol[0] * bj;
                s1 += acol[1] * bj;
                s2 += acol[2] * bj;
                s3 += acol[3] * bj;
            }
            c[(i + 0) * N + j] = s0;
            c[(i + 1) * N + j] = s1;
            c[(i + 2) * N + j] = s2;
            c[(i + 3) * N + j] = s3;
        }
    }
    for (; i < i1; ++i) {
        std::size_t j = 0;
        for (; j < n1; j += W) {
            typename V::Reg acc = V::zero();
            for (std::size_t k = 0; k < K; ++k)
                acc = V::add(acc,
                             V::mul(V::broadcast(a[k * M + i]), V::load(b + k * N + j)));
            V::store(c + i * N + j, acc);
        }
        for (; j < N; ++j) {
            float s = 0.0f;
            for (std::size_t k = 0; k < K; ++k) s += a[k * M + i] * b[k * N + j];
            c[i * N + j] = s;
        }
    }
}

/// c[i0..i1) = a[i0..i1) * b^T, vectorised across output columns: kWidth
/// rows of b are transposed into a contiguous k-major tile once per
/// (j-block, k-chunk) and every output row streams through it. Each output
/// element's chain still runs ascending k — later k-chunks resume from the
/// partial sum stored in c. The last N % kWidth columns fall back to the
/// scalar dot-product kernel.
template <class V>
void matmul_a_bt_rows(const float* __restrict a, const float* __restrict b,
                      float* __restrict c, std::size_t i0, std::size_t i1,
                      std::size_t cols_a, std::size_t rows_b) {
    constexpr std::size_t W = V::kWidth;
    constexpr std::size_t kKTile = 256;
    const std::size_t K = cols_a, N = rows_b;
    float buf[kKTile * W];
    std::size_t j = 0;
    for (; j + W <= N; j += W) {
        for (std::size_t k0 = 0; k0 < K; k0 += kKTile) {
            const std::size_t kn = std::min(kKTile, K - k0);
            for (std::size_t l = 0; l < W; ++l) {
                const float* __restrict bl = b + (j + l) * K + k0;
                for (std::size_t k = 0; k < kn; ++k) buf[k * W + l] = bl[k];
            }
            for (std::size_t i = i0; i < i1; ++i) {
                const float* __restrict arow = a + i * K + k0;
                typename V::Reg acc =
                    k0 == 0 ? V::zero() : V::load(c + i * N + j);
                for (std::size_t k = 0; k < kn; ++k)
                    acc = V::add(acc, V::mul(V::broadcast(arow[k]), V::load(buf + k * W)));
                V::store(c + i * N + j, acc);
            }
        }
    }
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
