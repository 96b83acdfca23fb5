// AVX2 kernel table. This translation unit is the only one compiled with
// -mavx2 (plus -ffp-contract=off — no FMA contraction, see simd.hpp's
// bit-identity contract); it is safe to link into any x86-64 binary because
// nothing here executes unless runtime detection picked the table.
//
// Integer pipeline notes (all exactly bit-identical to the scalar oracle in
// simd_scalar.hpp):
//  * float_to_fixed's nearbyint + symmetric saturation becomes
//    clamp-to-[-32767, 32767] then _mm256_cvtps_epi32 — the cvt honours the
//    same MXCSR round-to-nearest-even mode nearbyint uses, and clamping
//    before rounding selects the identical saturated value for every
//    out-of-range input (the formats agree at the boundary because 32767.0f
//    is exactly representable);
//  * fixed_to_float's /256 becomes a multiply by the exact power of two
//    1/256, which is error-free;
//  * the sign-magnitude cell image and its inverse are the usual
//    xor/subtract |q| tricks — q is pre-clamped so INT_MIN never appears.
#include "common/simd.hpp"

#if defined(__AVX2__) && !defined(FARE_SIMD_DISABLED)

#include <immintrin.h>

#include "common/simd_float_kernels.hpp"
#include "common/simd_scalar.hpp"

namespace fare::simd {
namespace {

const __m256 kScale = _mm256_set1_ps(256.0f);
const __m256 kInvScale = _mm256_set1_ps(1.0f / 256.0f);
const __m256 kLimitHi = _mm256_set1_ps(32767.0f);
const __m256 kLimitLo = _mm256_set1_ps(-32767.0f);

/// Eight floats -> eight saturated Q8.8 values in int32 lanes.
inline __m256i quantize8(__m256 v) {
    const __m256 clamped = _mm256_min_ps(
        _mm256_max_ps(_mm256_mul_ps(v, kScale), kLimitLo), kLimitHi);
    return _mm256_cvtps_epi32(clamped);
}

void avx2_quantize_i16(const float* src, std::int16_t* dst, std::size_t n) {
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m256i q0 = quantize8(_mm256_loadu_ps(src + i));
        const __m256i q1 = quantize8(_mm256_loadu_ps(src + i + 8));
        // packs interleaves the two inputs' 128-bit halves; permute restores
        // element order. Values are pre-clamped, so the pack's own
        // saturation never fires.
        const __m256i packed = _mm256_permute4x64_epi64(
            _mm256_packs_epi32(q0, q1), 0xD8);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), packed);
    }
    if (i < n) scalar::quantize_i16(src + i, dst + i, n - i);
}

void avx2_dequantize_i16(const std::int16_t* src, float* dst, std::size_t n) {
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m256i q =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
        const __m256i lo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(q));
        const __m256i hi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(q, 1));
        _mm256_storeu_ps(dst + i,
                         _mm256_mul_ps(_mm256_cvtepi32_ps(lo), kInvScale));
        _mm256_storeu_ps(dst + i + 8,
                         _mm256_mul_ps(_mm256_cvtepi32_ps(hi), kInvScale));
    }
    if (i < n) scalar::dequantize_i16(src + i, dst + i, n - i);
}

void avx2_quantize_dequantize(const float* src, float* dst, std::size_t n) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i q = quantize8(_mm256_loadu_ps(src + i));
        _mm256_storeu_ps(dst + i,
                         _mm256_mul_ps(_mm256_cvtepi32_ps(q), kInvScale));
    }
    if (i < n) scalar::quantize_dequantize(src + i, dst + i, n - i);
}

void avx2_quantize_dequantize_clip(const float* src, float* dst, std::size_t n,
                                   float clip) {
    const __m256 hi = _mm256_set1_ps(clip), lo = _mm256_set1_ps(-clip);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i q = quantize8(_mm256_loadu_ps(src + i));
        const __m256 d = _mm256_mul_ps(_mm256_cvtepi32_ps(q), kInvScale);
        _mm256_storeu_ps(dst + i, _mm256_min_ps(_mm256_max_ps(d, lo), hi));
    }
    if (i < n) scalar::quantize_dequantize_clip(src + i, dst + i, n - i, clip);
}

/// Eight sparse fix-up entries: gather the weights, run the quantise ->
/// mask -> dequantise pipeline in int32 lanes, then store back through the
/// index list (AVX2 has no scatter; entries are unique so the scalar
/// write-back cannot conflict).
template <bool kClip>
inline void fixup8(const float* src, float* dst, const std::uint32_t* idx,
                   const std::uint16_t* and_masks,
                   const std::uint16_t* or_masks, std::size_t e, __m256 lo,
                   __m256 hi) {
    const __m256i vidx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + e));
    const __m256i q = quantize8(_mm256_i32gather_ps(src, vidx, 4));
    // Sign-magnitude image: bit 15 = sign, bits 14..0 = |q|.
    const __m256i sign = _mm256_srai_epi32(q, 31);
    const __m256i mag = _mm256_sub_epi32(_mm256_xor_si256(q, sign), sign);
    const __m256i image = _mm256_or_si256(
        mag, _mm256_and_si256(sign, _mm256_set1_epi32(0x8000)));
    const __m256i andm = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(and_masks + e)));
    const __m256i orm = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(or_masks + e)));
    const __m256i fixed_img =
        _mm256_or_si256(_mm256_and_si256(image, andm), orm);
    // Back to signed Q8.8: negate the magnitude where bit 15 survived.
    const __m256i fixed_mag =
        _mm256_and_si256(fixed_img, _mm256_set1_epi32(0x7FFF));
    const __m256i neg =
        _mm256_srai_epi32(_mm256_slli_epi32(fixed_img, 16), 31);
    const __m256i fixed_q =
        _mm256_sub_epi32(_mm256_xor_si256(fixed_mag, neg), neg);
    __m256 out = _mm256_mul_ps(_mm256_cvtepi32_ps(fixed_q), kInvScale);
    if constexpr (kClip) out = _mm256_min_ps(_mm256_max_ps(out, lo), hi);
    alignas(32) float buf[8];
    _mm256_store_ps(buf, out);
    for (int l = 0; l < 8; ++l) dst[idx[e + static_cast<std::size_t>(l)]] = buf[l];
}

void avx2_overlay_fixup(const float* src, float* dst, const std::uint32_t* idx,
                        const std::uint16_t* and_masks,
                        const std::uint16_t* or_masks, std::size_t n) {
    const __m256 none = _mm256_setzero_ps();
    std::size_t e = 0;
    for (; e + 8 <= n; e += 8)
        fixup8<false>(src, dst, idx, and_masks, or_masks, e, none, none);
    if (e < n)
        scalar::overlay_fixup(src, dst, idx + e, and_masks + e, or_masks + e,
                              n - e);
}

void avx2_overlay_fixup_clip(const float* src, float* dst,
                             const std::uint32_t* idx,
                             const std::uint16_t* and_masks,
                             const std::uint16_t* or_masks, std::size_t n,
                             float clip) {
    const __m256 hi = _mm256_set1_ps(clip), lo = _mm256_set1_ps(-clip);
    std::size_t e = 0;
    for (; e + 8 <= n; e += 8)
        fixup8<true>(src, dst, idx, and_masks, or_masks, e, lo, hi);
    if (e < n)
        scalar::overlay_fixup_clip(src, dst, idx + e, and_masks + e,
                                   or_masks + e, n - e, clip);
}

/// select_sum over the sums [i0, min(i0 + 4R, n)), kept in R registers
/// across all terms. i0 is a multiple of 32 and R <= 8, so their bits lie in
/// one word. Lane j of register q takes bit 4q + j: a variable shift moves
/// it to the sign bit, which is all blendv reads. Lanes at or past n add
/// whatever the word holds there and are never stored.
template <int R>
void select_block(const SelectTerm* terms, std::size_t count, double* sum,
                  std::size_t i0, std::size_t n) {
    __m256i shift[R];
    __m256d acc[R];
    for (int q = 0; q < R; ++q) {
        shift[q] = _mm256_setr_epi64x(63 - 4 * q, 62 - 4 * q, 61 - 4 * q, 60 - 4 * q);
        acc[q] = _mm256_setzero_pd();
    }
    for (std::size_t t = 0; t < count; ++t) {
        const __m256i bits = _mm256_set1_epi64x(
            static_cast<long long>(terms[t].bits[i0 / 64] >> (i0 % 64)));
        const __m256d one = _mm256_set1_pd(terms[t].if_one);
        const __m256d zero = _mm256_set1_pd(terms[t].if_zero);
        for (int q = 0; q < R; ++q) {
            const __m256d pick = _mm256_castsi256_pd(_mm256_sllv_epi64(bits, shift[q]));
            acc[q] = _mm256_add_pd(acc[q], _mm256_blendv_pd(zero, one, pick));
        }
    }
    for (int q = 0; q < R; ++q) {
        const std::size_t at = i0 + 4 * static_cast<std::size_t>(q);
        if (at + 4 <= n) {
            _mm256_storeu_pd(sum + at, acc[q]);
        } else {
            alignas(32) double lanes[4];
            _mm256_store_pd(lanes, acc[q]);
            std::copy(lanes, lanes + (n - at), sum + at);
        }
    }
}

/// Blocks of 32 sums, then one block of the registers the rest needs.
void avx2_select_sum(const SelectTerm* terms, std::size_t count, double* sum,
                     std::size_t n) {
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) select_block<8>(terms, count, sum, i, n);
    switch ((n - i + 3) / 4) {
        case 8: select_block<8>(terms, count, sum, i, n); break;
        case 7: select_block<7>(terms, count, sum, i, n); break;
        case 6: select_block<6>(terms, count, sum, i, n); break;
        case 5: select_block<5>(terms, count, sum, i, n); break;
        case 4: select_block<4>(terms, count, sum, i, n); break;
        case 3: select_block<3>(terms, count, sum, i, n); break;
        case 2: select_block<2>(terms, count, sum, i, n); break;
        case 1: select_block<1>(terms, count, sum, i, n); break;
        default: break;
    }
}

/// Lane abstraction feeding the shared templated float kernels.
struct VecAvx2 {
    static constexpr std::size_t kWidth = 8;
    using Reg = __m256;
    static Reg load(const float* p) { return _mm256_loadu_ps(p); }
    static void store(float* p, Reg v) { _mm256_storeu_ps(p, v); }
    static Reg broadcast(float v) { return _mm256_set1_ps(v); }
    static Reg zero() { return _mm256_setzero_ps(); }
    static Reg mul(Reg a, Reg b) { return _mm256_mul_ps(a, b); }
    static Reg add(Reg a, Reg b) { return _mm256_add_ps(a, b); }
    static Reg sub(Reg a, Reg b) { return _mm256_sub_ps(a, b); }
    static Reg div(Reg a, Reg b) { return _mm256_div_ps(a, b); }
    static Reg sqrt(Reg a) { return _mm256_sqrt_ps(a); }
    // Masks are all-ones/all-zeros lanes in a float register. The ordered
    // GT predicate is false on NaN; NLE_UQ is its complement-of-<= twin,
    // true on NaN.
    static Reg gt(Reg a, Reg b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
    static Reg not_le(Reg a, Reg b) { return _mm256_cmp_ps(a, b, _CMP_NLE_UQ); }
    static Reg keep(Reg mask, Reg a) { return _mm256_and_ps(mask, a); }
    // rows[q] becomes column q of the 8 x 8 block: interleave pairs of rows,
    // then pairs of pairs, then swap 128-bit halves. Pure data movement.
    static void transpose(Reg (&rows)[8]) {
        const Reg t0 = _mm256_unpacklo_ps(rows[0], rows[1]);
        const Reg t1 = _mm256_unpackhi_ps(rows[0], rows[1]);
        const Reg t2 = _mm256_unpacklo_ps(rows[2], rows[3]);
        const Reg t3 = _mm256_unpackhi_ps(rows[2], rows[3]);
        const Reg t4 = _mm256_unpacklo_ps(rows[4], rows[5]);
        const Reg t5 = _mm256_unpackhi_ps(rows[4], rows[5]);
        const Reg t6 = _mm256_unpacklo_ps(rows[6], rows[7]);
        const Reg t7 = _mm256_unpackhi_ps(rows[6], rows[7]);
        const Reg u0 = _mm256_shuffle_ps(t0, t2, 0x44), u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
        const Reg u2 = _mm256_shuffle_ps(t1, t3, 0x44), u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
        const Reg u4 = _mm256_shuffle_ps(t4, t6, 0x44), u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
        const Reg u6 = _mm256_shuffle_ps(t5, t7, 0x44), u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
        rows[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
        rows[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
        rows[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
        rows[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
        rows[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
        rows[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
        rows[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
        rows[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
    }
};

const SimdKernels kAvx2Table = {
    &avx2_quantize_i16,
    &avx2_dequantize_i16,
    &avx2_quantize_dequantize,
    &avx2_quantize_dequantize_clip,
    &avx2_overlay_fixup,
    &avx2_overlay_fixup_clip,
    &vec::matmul_rows<VecAvx2>,
    &vec::matmul_at_b_rows<VecAvx2>,
    &vec::matmul_a_bt_rows<VecAvx2>,
    &vec::aggregate_rows<VecAvx2>,
    &vec::aggregate_t_rows<VecAvx2>,
    &vec::relu<VecAvx2>,
    &vec::relu_backward<VecAvx2>,
    &vec::add<VecAvx2>,
    &vec::scale<VecAvx2>,
    &vec::fill<VecAvx2>,
    &vec::adam_update<VecAvx2>,
    &avx2_select_sum,
};

}  // namespace

const SimdKernels* avx2_kernels() { return &kAvx2Table; }

}  // namespace fare::simd

#else  // !(__AVX2__ && SIMD enabled)

namespace fare::simd {
const SimdKernels* avx2_kernels() { return nullptr; }
}  // namespace fare::simd

#endif
