// Runtime-dispatched SIMD kernel layer for the training hot path.
//
// The hot passes — quantise/dequantise (numeric/quantize.cpp), the
// compiled-overlay fix-up + clip (reram/compiled_overlay.cpp), the blocked
// GEMMs (numeric/matrix.cpp), the sparse aggregation (gnn/batch_view.cpp)
// and the dense elementwise passes of training (Matrix +=/*=/fill,
// nn/activations.cpp's relu pair, nn/optimizer.cpp's Adam update) and the
// FARe row matcher's mismatch sums (fare/row_matcher.cpp) — all run through
// the function-pointer table below.
// One table exists per instruction set the build knows about (scalar always;
// AVX2 on x86-64; NEON on AArch64) and the active table is picked at
// runtime:
//
//   detected_isa()  what the CPU supports (cpuid on x86; AdvSIMD is
//                   architectural on AArch64), intersected with what the
//                   build compiled in (-DFARE_SIMD=OFF forces scalar)
//   FARE_SIMD env   auto | scalar | avx2 | neon — pins the selection for
//                   reproducibility/debugging; an ISA the host cannot run
//                   degrades to scalar so one fleet-wide setting works on
//                   heterogeneous machines
//   set_isa(...)    programmatic override (SessionOptions::simd)
//
// Bit-identity contract: for identical inputs, every kernel returns results
// byte-identical to the scalar table — the scalar kernels are the oracle
// (tests/simd_kernels_test.cpp fuzzes this across ragged shapes). Integer
// passes are identical by construction; float kernels vectorise across
// *output elements* only, keeping each element's accumulation chain in
// ascending-k scalar order, and never use fused multiply-add (the kernel
// translation units are compiled with -ffp-contract=off). Elementwise
// kernels evaluate each element's scalar expression in the same order with
// correctly rounded lane ops (add, sub, mul, div, sqrt), so they match too;
// only when both operands of one op are NaN may the sign or payload of the
// NaN result differ, as the compiler may commute the operands. This is
// what keeps the repo-wide serial ≡ parallel ≡ fleet byte-identity
// invariants alive with SIMD enabled.
//
// Aliasing rule for the elementwise kernels: an output may be the very same
// array as an input (Matrix `m += m` is legal), but never a partial overlap.
// Every kernel reads element i before it writes element i, and none marks
// its pointers __restrict.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace fare::simd {

/// Instruction sets the dispatcher knows about.
enum class SimdIsa { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// Lower-case display name ("scalar", "avx2", "neon").
const char* isa_name(SimdIsa isa);

/// Best ISA this process can actually execute (CPU support ∩ build
/// support). Cached after the first query.
SimdIsa detected_isa();

/// ISA the kernel table currently dispatches to: the programmatic override
/// if one is set, else the FARE_SIMD environment selection, else
/// detected_isa(). Throws InvalidArgument on a malformed FARE_SIMD value.
SimdIsa active_isa();

/// Programmatic override (wins over FARE_SIMD). Requests the host cannot
/// execute degrade to scalar — results are bit-identical either way.
/// Returns the ISA actually selected.
SimdIsa set_isa(SimdIsa isa);

/// Parse-and-set from a user-facing mode string: "auto" clears the
/// override (back to FARE_SIMD/detected), "scalar"/"avx2"/"neon" pin the
/// table. Throws InvalidArgument on anything else. Returns the ISA now
/// active.
SimdIsa set_isa_mode(const std::string& mode);

/// Scalars of one Adam step. bc1/bc2 are the bias corrections 1 - beta^t.
/// Per element, in this order and without FMA:
///   m = beta1*m + (1-beta1)*g;  v = beta2*v + ((1-beta2)*g)*g;
///   p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps).
struct AdamStep {
    float lr, beta1, beta2, eps, bc1, bc2;
};

/// One term of SimdKernels::select_sum: bit i of bits[i / 64] picks which
/// weight sum i adds.
struct SelectTerm {
    const std::uint64_t* bits;
    double if_one, if_zero;
};

/// One process-wide kernel table. All pointers are always valid; raw
/// pointers + lengths so Matrix, FixedMatrix and std::vector callers share
/// the same entry points. No alignment requirements (loads are unaligned;
/// 64-byte-aligned Matrix/FixedMatrix storage just makes them fast).
struct SimdKernels {
    /// dst[i] = float_to_fixed(src[i])  (round-to-nearest, saturating).
    void (*quantize_i16)(const float* src, std::int16_t* dst, std::size_t n);
    /// dst[i] = fixed_to_float(src[i]).
    void (*dequantize_i16)(const std::int16_t* src, float* dst, std::size_t n);
    /// Fused round trip: dst[i] = fixed_to_float(float_to_fixed(src[i])).
    void (*quantize_dequantize)(const float* src, float* dst, std::size_t n);
    /// Same with the clipping unit fused in: clamp to [-clip, clip].
    void (*quantize_dequantize_clip)(const float* src, float* dst,
                                     std::size_t n, float clip);
    /// Compiled-overlay fix-up at n sparse entries: for each entry e,
    /// dst[idx[e]] = dequant((cell_image(quant(src[idx[e]])) & and_masks[e])
    ///                       | or_masks[e]).
    /// Indices must be unique (they are: one entry per faulty weight).
    void (*overlay_fixup)(const float* src, float* dst,
                          const std::uint32_t* idx,
                          const std::uint16_t* and_masks,
                          const std::uint16_t* or_masks, std::size_t n);
    /// Same with the fused clamp to [-clip, clip].
    void (*overlay_fixup_clip)(const float* src, float* dst,
                               const std::uint32_t* idx,
                               const std::uint16_t* and_masks,
                               const std::uint16_t* or_masks, std::size_t n,
                               float clip);
    /// c[i0..i1) = a[i0..i1) * b for row-major a (M x K), b (K x N).
    void (*matmul_rows)(const float* a, const float* b, float* c,
                        std::size_t i0, std::size_t i1, std::size_t cols_a,
                        std::size_t cols_b);
    /// c[i0..i1) = (a^T)[i0..i1) * b for a (K x M), b (K x N): output row i
    /// reads column i of a.
    void (*matmul_at_b_rows)(const float* a, const float* b, float* c,
                             std::size_t i0, std::size_t i1,
                             std::size_t rows_a, std::size_t cols_a,
                             std::size_t cols_b);
    /// c[i0..i1) = a[i0..i1) * b^T for a (M x K), b (N x K).
    void (*matmul_a_bt_rows)(const float* a, const float* b, float* c,
                             std::size_t i0, std::size_t i1,
                             std::size_t cols_a, std::size_t rows_b);
    /// Forward aggregation rows [r0, r1): y[r] += vals[e] * x[cols[e]] over
    /// row r's CSR range, feat floats wide. y rows must be zero-initialised
    /// (or hold the running sum) — the kernel accumulates.
    void (*aggregate_rows)(const std::size_t* offsets,
                           const std::uint32_t* cols, const float* vals,
                           const float* x, float* y, std::size_t r0,
                           std::size_t r1, std::size_t feat);
    /// Backward aggregation rows [c0, c1) through the transpose index:
    /// y[c] += vals[t_edge[t]] * x[t_src[t]].
    void (*aggregate_t_rows)(const std::size_t* t_offsets,
                             const std::uint32_t* t_src,
                             const std::uint32_t* t_edge, const float* vals,
                             const float* x, float* y, std::size_t c0,
                             std::size_t c1, std::size_t feat);
    /// y[i] = x[i] > 0 ? x[i] : +0 (-0 and NaN map to +0).
    void (*relu)(const float* x, float* y, std::size_t n);
    /// out[i] = !(pre[i] <= 0) ? g[i] : +0 (a NaN pre-activation keeps g).
    void (*relu_backward)(const float* g, const float* pre, float* out,
                          std::size_t n);
    /// dst[i] += src[i].
    void (*add)(float* dst, const float* src, std::size_t n);
    /// dst[i] *= s.
    void (*scale)(float* dst, float s, std::size_t n);
    /// dst[i] = v.
    void (*fill)(float* dst, float v, std::size_t n);
    /// One Adam step over n parameters (see AdamStep); updates m, v and p.
    void (*adam_update)(float* p, const float* g, float* m, float* v,
                        std::size_t n, const AdamStep& step);
    /// sum[i] = (((+0 + x_0) + x_1) + ...) + x_{count-1} for i in [0, n),
    /// where x_t is terms[t].if_one when bit i of terms[t].bits is set and
    /// terms[t].if_zero otherwise: one double add per term, in term order.
    void (*select_sum)(const SelectTerm* terms, std::size_t count, double* sum,
                       std::size_t n);
};

/// Table for the active ISA: one atomic load of a pointer resolved on the
/// first call (FARE_SIMD, throwing InvalidArgument on a malformed value) and
/// republished by set_isa, set_isa_mode and SimdIsaScope.
const SimdKernels& kernels();

/// Table for a specific ISA; kScalar is always available. Requesting a
/// table the build/CPU cannot run throws InvalidArgument — use set_isa()
/// for degrade-to-scalar semantics.
const SimdKernels& kernels(SimdIsa isa);

/// RAII override for tests: pins the ISA in scope, restores the previous
/// override (or "no override") on exit.
class SimdIsaScope {
public:
    explicit SimdIsaScope(SimdIsa isa);
    ~SimdIsaScope();
    SimdIsaScope(const SimdIsaScope&) = delete;
    SimdIsaScope& operator=(const SimdIsaScope&) = delete;

private:
    int previous_;                         // -1 = no override was set
    const SimdKernels* previous_table_;    // nullptr = not yet resolved
};

}  // namespace fare::simd
