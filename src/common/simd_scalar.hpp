// Scalar reference implementations of every SimdKernels entry — the oracle
// the vector tables must match byte for byte, and the ragged-tail helpers
// the AVX2/NEON translation units fall back to for the last few elements.
//
// The GEMM kernels keep PR 2's register-blocked shape (stack accumulator
// tiles, __restrict, 4-row unroll): for every output element, partial
// products accumulate in ascending-k order into a private accumulator, so
// any correct vectorisation across *output columns* reproduces them
// exactly. Internal header: include simd.hpp for the dispatch API.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/simd.hpp"
#include "numeric/fixed_point.hpp"

namespace fare::simd::scalar {

inline void quantize_i16(const float* src, std::int16_t* dst, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = float_to_fixed(src[i]);
}

inline void dequantize_i16(const std::int16_t* src, float* dst, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = fixed_to_float(src[i]);
}

inline void quantize_dequantize(const float* src, float* dst, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = fixed_to_float(float_to_fixed(src[i]));
}

inline void quantize_dequantize_clip(const float* src, float* dst,
                                     std::size_t n, float clip) {
    const float hi = clip, lo = -clip;
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = std::clamp(fixed_to_float(float_to_fixed(src[i])), lo, hi);
}

/// One fix-up entry: quantise the source weight, flip the stuck image bits,
/// dequantise. Shared by the sparse fix-up kernels below.
inline float fixup_one(float v, std::uint16_t and_mask, std::uint16_t or_mask) {
    const std::uint16_t image = fixed_to_cell_image(float_to_fixed(v));
    const auto fixed = static_cast<std::uint16_t>((image & and_mask) | or_mask);
    return fixed_to_float(cell_image_to_fixed(fixed));
}

inline void overlay_fixup(const float* src, float* dst,
                          const std::uint32_t* idx,
                          const std::uint16_t* and_masks,
                          const std::uint16_t* or_masks, std::size_t n) {
    for (std::size_t e = 0; e < n; ++e)
        dst[idx[e]] = fixup_one(src[idx[e]], and_masks[e], or_masks[e]);
}

inline void overlay_fixup_clip(const float* src, float* dst,
                               const std::uint32_t* idx,
                               const std::uint16_t* and_masks,
                               const std::uint16_t* or_masks, std::size_t n,
                               float clip) {
    const float hi = clip, lo = -clip;
    for (std::size_t e = 0; e < n; ++e)
        dst[idx[e]] =
            std::clamp(fixup_one(src[idx[e]], and_masks[e], or_masks[e]), lo, hi);
}

// kColTile bounds the stack accumulators (4 rows x 256 floats = 4 KiB).
inline constexpr std::size_t kColTile = 256;

/// c[i0..i1) = a[i0..i1) * b for row-major a (M x K), b (K x N), c (M x N).
inline void matmul_rows(const float* __restrict a, const float* __restrict b,
                        float* __restrict c, std::size_t i0, std::size_t i1,
                        std::size_t cols_a, std::size_t cols_b) {
    const std::size_t K = cols_a, N = cols_b;
    for (std::size_t j0 = 0; j0 < N; j0 += kColTile) {
        const std::size_t jn = std::min(kColTile, N - j0);
        std::size_t i = i0;
        for (; i + 4 <= i1; i += 4) {
            float acc0[kColTile], acc1[kColTile], acc2[kColTile], acc3[kColTile];
            for (std::size_t j = 0; j < jn; ++j) acc0[j] = 0.0f;
            for (std::size_t j = 0; j < jn; ++j) acc1[j] = 0.0f;
            for (std::size_t j = 0; j < jn; ++j) acc2[j] = 0.0f;
            for (std::size_t j = 0; j < jn; ++j) acc3[j] = 0.0f;
            const float* __restrict a0 = a + (i + 0) * K;
            const float* __restrict a1 = a + (i + 1) * K;
            const float* __restrict a2 = a + (i + 2) * K;
            const float* __restrict a3 = a + (i + 3) * K;
            for (std::size_t k = 0; k < K; ++k) {
                const float* __restrict brow = b + k * N + j0;
                const float v0 = a0[k], v1 = a1[k], v2 = a2[k], v3 = a3[k];
                for (std::size_t j = 0; j < jn; ++j) {
                    const float bj = brow[j];
                    acc0[j] += v0 * bj;
                    acc1[j] += v1 * bj;
                    acc2[j] += v2 * bj;
                    acc3[j] += v3 * bj;
                }
            }
            for (std::size_t j = 0; j < jn; ++j) c[(i + 0) * N + j0 + j] = acc0[j];
            for (std::size_t j = 0; j < jn; ++j) c[(i + 1) * N + j0 + j] = acc1[j];
            for (std::size_t j = 0; j < jn; ++j) c[(i + 2) * N + j0 + j] = acc2[j];
            for (std::size_t j = 0; j < jn; ++j) c[(i + 3) * N + j0 + j] = acc3[j];
        }
        for (; i < i1; ++i) {
            float acc[kColTile];
            for (std::size_t j = 0; j < jn; ++j) acc[j] = 0.0f;
            const float* __restrict arow = a + i * K;
            for (std::size_t k = 0; k < K; ++k) {
                const float v = arow[k];
                const float* __restrict brow = b + k * N + j0;
                for (std::size_t j = 0; j < jn; ++j) acc[j] += v * brow[j];
            }
            for (std::size_t j = 0; j < jn; ++j) c[i * N + j0 + j] = acc[j];
        }
    }
}

/// c[i0..i1) = (a^T)[i0..i1) * b for a (K x M), b (K x N), c (M x N):
/// output row i reads column i of a.
inline void matmul_at_b_rows(const float* __restrict a, const float* __restrict b,
                             float* __restrict c, std::size_t i0, std::size_t i1,
                             std::size_t rows_a, std::size_t cols_a,
                             std::size_t cols_b) {
    const std::size_t K = rows_a, M = cols_a, N = cols_b;
    for (std::size_t j0 = 0; j0 < N; j0 += kColTile) {
        const std::size_t jn = std::min(kColTile, N - j0);
        std::size_t i = i0;
        for (; i + 4 <= i1; i += 4) {
            float acc0[kColTile], acc1[kColTile], acc2[kColTile], acc3[kColTile];
            for (std::size_t j = 0; j < jn; ++j) acc0[j] = 0.0f;
            for (std::size_t j = 0; j < jn; ++j) acc1[j] = 0.0f;
            for (std::size_t j = 0; j < jn; ++j) acc2[j] = 0.0f;
            for (std::size_t j = 0; j < jn; ++j) acc3[j] = 0.0f;
            for (std::size_t k = 0; k < K; ++k) {
                const float* __restrict acol = a + k * M + i;
                const float* __restrict brow = b + k * N + j0;
                const float v0 = acol[0], v1 = acol[1], v2 = acol[2], v3 = acol[3];
                for (std::size_t j = 0; j < jn; ++j) {
                    const float bj = brow[j];
                    acc0[j] += v0 * bj;
                    acc1[j] += v1 * bj;
                    acc2[j] += v2 * bj;
                    acc3[j] += v3 * bj;
                }
            }
            for (std::size_t j = 0; j < jn; ++j) c[(i + 0) * N + j0 + j] = acc0[j];
            for (std::size_t j = 0; j < jn; ++j) c[(i + 1) * N + j0 + j] = acc1[j];
            for (std::size_t j = 0; j < jn; ++j) c[(i + 2) * N + j0 + j] = acc2[j];
            for (std::size_t j = 0; j < jn; ++j) c[(i + 3) * N + j0 + j] = acc3[j];
        }
        for (; i < i1; ++i) {
            float acc[kColTile];
            for (std::size_t j = 0; j < jn; ++j) acc[j] = 0.0f;
            for (std::size_t k = 0; k < K; ++k) {
                const float v = a[k * M + i];
                const float* __restrict brow = b + k * N + j0;
                for (std::size_t j = 0; j < jn; ++j) acc[j] += v * brow[j];
            }
            for (std::size_t j = 0; j < jn; ++j) c[i * N + j0 + j] = acc[j];
        }
    }
}

/// c[i, j0..N) = a[i, :] · b[j, :] dot products for rows [i0, i1) — the
/// a*b^T shape restricted to output columns [j0, N), so the vector kernels
/// can delegate just their ragged column tail here.
inline void matmul_a_bt_cols(const float* __restrict a, const float* __restrict b,
                             float* __restrict c, std::size_t i0, std::size_t i1,
                             std::size_t cols_a, std::size_t rows_b,
                             std::size_t j0) {
    const std::size_t K = cols_a, N = rows_b;
    for (std::size_t i = i0; i < i1; ++i) {
        const float* __restrict arow = a + i * K;
        std::size_t j = j0;
        for (; j + 4 <= N; j += 4) {
            const float* __restrict b0 = b + j * K;
            const float* __restrict b1 = b0 + K;
            const float* __restrict b2 = b1 + K;
            const float* __restrict b3 = b2 + K;
            float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
            for (std::size_t k = 0; k < K; ++k) {
                const float av = arow[k];
                s0 += av * b0[k];
                s1 += av * b1[k];
                s2 += av * b2[k];
                s3 += av * b3[k];
            }
            c[i * N + j] = s0;
            c[i * N + j + 1] = s1;
            c[i * N + j + 2] = s2;
            c[i * N + j + 3] = s3;
        }
        for (; j < N; ++j) {
            const float* __restrict brow = b + j * K;
            float acc = 0.0f;
            for (std::size_t k = 0; k < K; ++k) acc += arow[k] * brow[k];
            c[i * N + j] = acc;
        }
    }
}

/// c[i0..i1) = a[i0..i1) * b^T for a (M x K), b (N x K), c (M x N).
inline void matmul_a_bt_rows(const float* a, const float* b, float* c,
                             std::size_t i0, std::size_t i1, std::size_t cols_a,
                             std::size_t rows_b) {
    matmul_a_bt_cols(a, b, c, i0, i1, cols_a, rows_b, 0);
}

inline void aggregate_rows(const std::size_t* offsets, const std::uint32_t* cols,
                           const float* vals, const float* x, float* y,
                           std::size_t r0, std::size_t r1, std::size_t feat) {
    for (std::size_t r = r0; r < r1; ++r) {
        float* __restrict yrow = y + r * feat;
        for (std::size_t e = offsets[r]; e < offsets[r + 1]; ++e) {
            const float w = vals[e];
            const float* __restrict xrow = x + cols[e] * feat;
            for (std::size_t f = 0; f < feat; ++f) yrow[f] += w * xrow[f];
        }
    }
}

inline void aggregate_t_rows(const std::size_t* t_offsets,
                             const std::uint32_t* t_src,
                             const std::uint32_t* t_edge, const float* vals,
                             const float* x, float* y, std::size_t c0,
                             std::size_t c1, std::size_t feat) {
    for (std::size_t c = c0; c < c1; ++c) {
        float* __restrict yrow = y + c * feat;
        for (std::size_t t = t_offsets[c]; t < t_offsets[c + 1]; ++t) {
            const float w = vals[t_edge[t]];
            const float* __restrict xrow = x + t_src[t] * feat;
            for (std::size_t f = 0; f < feat; ++f) yrow[f] += w * xrow[f];
        }
    }
}

// Elementwise passes. No __restrict: outputs may alias inputs exactly.

inline void relu(const float* x, float* y, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

inline void relu_backward(const float* g, const float* pre, float* out,
                          std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = !(pre[i] <= 0.0f) ? g[i] : 0.0f;
}

inline void add(float* dst, const float* src, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

inline void scale(float* dst, float s, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) dst[i] *= s;
}

inline void fill(float* dst, float v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = v;
}

inline void adam_update(float* p, const float* g, float* m, float* v,
                        std::size_t n, const AdamStep& s) {
    const float c1 = 1.0f - s.beta1, c2 = 1.0f - s.beta2;
    for (std::size_t i = 0; i < n; ++i) {
        m[i] = s.beta1 * m[i] + c1 * g[i];
        v[i] = s.beta2 * v[i] + c2 * g[i] * g[i];
        const float mhat = m[i] / s.bc1;
        const float vhat = v[i] / s.bc2;
        p[i] -= s.lr * mhat / (std::sqrt(vhat) + s.eps);
    }
}

/// Terms run in the outer loop so the sums are independent chains; each
/// still adds its terms in term order.
inline void select_sum(const SelectTerm* terms, std::size_t count, double* sum,
                       std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) sum[i] = 0.0;
    for (std::size_t t = 0; t < count; ++t) {
        const SelectTerm& term = terms[t];
        for (std::size_t i = 0; i < n; ++i)
            sum[i] += ((term.bits[i / 64] >> (i % 64)) & 1u) != 0 ? term.if_one
                                                                 : term.if_zero;
    }
}

}  // namespace fare::simd::scalar
