// NEON (AdvSIMD) kernel table for AArch64. Compiled with -ffp-contract=off
// and written without vmlaq_f32/vfmaq_f32 on purpose: fused multiply-add
// would break the bit-identity contract with the scalar oracle (see
// simd.hpp). AdvSIMD is architectural on AArch64, so there is no runtime
// CPU probe — the table exists whenever the build targets AArch64.
//
// The integer pipeline mirrors simd_avx2.cpp: clamp to [-32767, 32767] then
// vcvtnq_s32_f32 (round to nearest even, the same mode nearbyint uses)
// reproduces float_to_fixed exactly, and the /256 dequantise is an exact
// power-of-two multiply. NEON has no gather/scatter, so the sparse fix-up
// kernels move data through the lanes with scalar loads/stores and keep the
// arithmetic vectorised.
#include "common/simd.hpp"

#if defined(__aarch64__) && !defined(FARE_SIMD_DISABLED)

#include <arm_neon.h>

#include "common/simd_float_kernels.hpp"
#include "common/simd_scalar.hpp"

namespace fare::simd {
namespace {

/// Four floats -> four saturated Q8.8 values in int32 lanes.
inline int32x4_t quantize4(float32x4_t v) {
    const float32x4_t scaled = vmulq_f32(v, vdupq_n_f32(256.0f));
    const float32x4_t clamped = vminq_f32(
        vmaxq_f32(scaled, vdupq_n_f32(-32767.0f)), vdupq_n_f32(32767.0f));
    return vcvtnq_s32_f32(clamped);
}

void neon_quantize_i16(const float* src, std::int16_t* dst, std::size_t n) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const int32x4_t q0 = quantize4(vld1q_f32(src + i));
        const int32x4_t q1 = quantize4(vld1q_f32(src + i + 4));
        // Values are pre-clamped, so the saturating narrow never fires.
        vst1q_s16(dst + i, vcombine_s16(vqmovn_s32(q0), vqmovn_s32(q1)));
    }
    if (i < n) scalar::quantize_i16(src + i, dst + i, n - i);
}

void neon_dequantize_i16(const std::int16_t* src, float* dst, std::size_t n) {
    const float32x4_t inv = vdupq_n_f32(1.0f / 256.0f);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const int16x8_t q = vld1q_s16(src + i);
        const int32x4_t lo = vmovl_s16(vget_low_s16(q));
        const int32x4_t hi = vmovl_s16(vget_high_s16(q));
        vst1q_f32(dst + i, vmulq_f32(vcvtq_f32_s32(lo), inv));
        vst1q_f32(dst + i + 4, vmulq_f32(vcvtq_f32_s32(hi), inv));
    }
    if (i < n) scalar::dequantize_i16(src + i, dst + i, n - i);
}

void neon_quantize_dequantize(const float* src, float* dst, std::size_t n) {
    const float32x4_t inv = vdupq_n_f32(1.0f / 256.0f);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const int32x4_t q = quantize4(vld1q_f32(src + i));
        vst1q_f32(dst + i, vmulq_f32(vcvtq_f32_s32(q), inv));
    }
    if (i < n) scalar::quantize_dequantize(src + i, dst + i, n - i);
}

void neon_quantize_dequantize_clip(const float* src, float* dst, std::size_t n,
                                   float clip) {
    const float32x4_t inv = vdupq_n_f32(1.0f / 256.0f);
    const float32x4_t hi = vdupq_n_f32(clip), lo = vdupq_n_f32(-clip);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const int32x4_t q = quantize4(vld1q_f32(src + i));
        const float32x4_t d = vmulq_f32(vcvtq_f32_s32(q), inv);
        vst1q_f32(dst + i, vminq_f32(vmaxq_f32(d, lo), hi));
    }
    if (i < n) scalar::quantize_dequantize_clip(src + i, dst + i, n - i, clip);
}

/// Four sparse fix-up entries: scalar gather into lanes, vectorised
/// quantise -> mask -> dequantise, scalar scatter back (indices are unique).
template <bool kClip>
inline void fixup4(const float* src, float* dst, const std::uint32_t* idx,
                   const std::uint16_t* and_masks,
                   const std::uint16_t* or_masks, std::size_t e,
                   float32x4_t lo, float32x4_t hi) {
    float gathered[4];
    for (int l = 0; l < 4; ++l)
        gathered[l] = src[idx[e + static_cast<std::size_t>(l)]];
    const int32x4_t q = quantize4(vld1q_f32(gathered));
    // Sign-magnitude image: bit 15 = sign, bits 14..0 = |q|.
    const int32x4_t sign = vshrq_n_s32(q, 31);
    const int32x4_t mag = vsubq_s32(veorq_s32(q, sign), sign);
    const int32x4_t image =
        vorrq_s32(mag, vandq_s32(sign, vdupq_n_s32(0x8000)));
    const int32x4_t andm =
        vreinterpretq_s32_u32(vmovl_u16(vld1_u16(and_masks + e)));
    const int32x4_t orm =
        vreinterpretq_s32_u32(vmovl_u16(vld1_u16(or_masks + e)));
    const int32x4_t fixed_img = vorrq_s32(vandq_s32(image, andm), orm);
    // Back to signed Q8.8: negate the magnitude where bit 15 survived.
    const int32x4_t fixed_mag = vandq_s32(fixed_img, vdupq_n_s32(0x7FFF));
    const int32x4_t neg = vshrq_n_s32(vshlq_n_s32(fixed_img, 16), 31);
    const int32x4_t fixed_q = vsubq_s32(veorq_s32(fixed_mag, neg), neg);
    float32x4_t out = vmulq_f32(vcvtq_f32_s32(fixed_q), vdupq_n_f32(1.0f / 256.0f));
    if constexpr (kClip) out = vminq_f32(vmaxq_f32(out, lo), hi);
    float buf[4];
    vst1q_f32(buf, out);
    for (int l = 0; l < 4; ++l)
        dst[idx[e + static_cast<std::size_t>(l)]] = buf[l];
}

void neon_overlay_fixup(const float* src, float* dst, const std::uint32_t* idx,
                        const std::uint16_t* and_masks,
                        const std::uint16_t* or_masks, std::size_t n) {
    const float32x4_t none = vdupq_n_f32(0.0f);
    std::size_t e = 0;
    for (; e + 4 <= n; e += 4)
        fixup4<false>(src, dst, idx, and_masks, or_masks, e, none, none);
    if (e < n)
        scalar::overlay_fixup(src, dst, idx + e, and_masks + e, or_masks + e,
                              n - e);
}

void neon_overlay_fixup_clip(const float* src, float* dst,
                             const std::uint32_t* idx,
                             const std::uint16_t* and_masks,
                             const std::uint16_t* or_masks, std::size_t n,
                             float clip) {
    const float32x4_t hi = vdupq_n_f32(clip), lo = vdupq_n_f32(-clip);
    std::size_t e = 0;
    for (; e + 4 <= n; e += 4)
        fixup4<true>(src, dst, idx, and_masks, or_masks, e, lo, hi);
    if (e < n)
        scalar::overlay_fixup_clip(src, dst, idx + e, and_masks + e,
                                   or_masks + e, n - e, clip);
}

/// Lane abstraction feeding the shared templated float kernels. add/mul stay
/// separate (no vmlaq_f32) to preserve the no-FMA contract.
struct VecNeon {
    static constexpr std::size_t kWidth = 4;
    using Reg = float32x4_t;
    static Reg load(const float* p) { return vld1q_f32(p); }
    static void store(float* p, Reg v) { vst1q_f32(p, v); }
    static Reg broadcast(float v) { return vdupq_n_f32(v); }
    static Reg zero() { return vdupq_n_f32(0.0f); }
    static Reg mul(Reg a, Reg b) { return vmulq_f32(a, b); }
    static Reg add(Reg a, Reg b) { return vaddq_f32(a, b); }
    static Reg sub(Reg a, Reg b) { return vsubq_f32(a, b); }
    static Reg div(Reg a, Reg b) { return vdivq_f32(a, b); }
    static Reg sqrt(Reg a) { return vsqrtq_f32(a); }
    // Masks are all-ones/all-zeros u32 lanes. vcgtq/vcleq are ordered
    // (false on NaN), so !(a <= b) is the bitwise NOT of vcleq.
    static uint32x4_t gt(Reg a, Reg b) { return vcgtq_f32(a, b); }
    static uint32x4_t not_le(Reg a, Reg b) { return vmvnq_u32(vcleq_f32(a, b)); }
    static Reg keep(uint32x4_t mask, Reg a) {
        return vreinterpretq_f32_u32(vandq_u32(mask, vreinterpretq_u32_f32(a)));
    }
};

const SimdKernels kNeonTable = {
    &neon_quantize_i16,
    &neon_dequantize_i16,
    &neon_quantize_dequantize,
    &neon_quantize_dequantize_clip,
    &neon_overlay_fixup,
    &neon_overlay_fixup_clip,
    &vec::matmul_rows<VecNeon>,
    &vec::matmul_at_b_rows<VecNeon>,
    &vec::matmul_a_bt_rows<VecNeon>,
    &vec::aggregate_rows<VecNeon>,
    &vec::aggregate_t_rows<VecNeon>,
    &vec::relu<VecNeon>,
    &vec::relu_backward<VecNeon>,
    &vec::add<VecNeon>,
    &vec::scale<VecNeon>,
    &vec::fill<VecNeon>,
    &vec::adam_update<VecNeon>,
    &scalar::select_sum,
};

}  // namespace

const SimdKernels* neon_kernels() { return &kNeonTable; }

}  // namespace fare::simd

#else  // !(AArch64 && SIMD enabled)

namespace fare::simd {
const SimdKernels* neon_kernels() { return nullptr; }
}  // namespace fare::simd

#endif
