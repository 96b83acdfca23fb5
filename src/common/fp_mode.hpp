// Floating-point mode of the calling thread.
//
// Backpropagation drives gradients and their GEMM products into the
// subnormal range, and subnormal arithmetic is an order of magnitude slower
// than normal arithmetic on common CPUs. Training therefore runs inside a
// FlushDenormalsScope (TrainLoop::run / evaluation), which flushes subnormal
// results and inputs to zero. The mode is per thread: parallel_for_each hands
// the submitter's control word to every pool helper for the duration of the
// job, so kernel fan-out computes in the submitter's mode and serial ≡
// threaded holds inside and outside the scope.
//
//   x86-64:  MXCSR FTZ | DAZ
//   aarch64: FPCR.FZ (flushes inputs and results)
//   other:   no effect (the control word reads as 0)
#pragma once

#include <cstdint>

namespace fare {

/// The calling thread's FP control word: the mode bits of MXCSR (its sticky
/// exception flags are status, not mode, and are neither read nor written
/// here) or FPCR, 0 elsewhere.
using FpControlWord = std::uint64_t;
FpControlWord fp_control_word();
void set_fp_control_word(FpControlWord word);

/// RAII: flush subnormals to zero on the calling thread, restoring the saved
/// control word on exit (normal or by exception). Scopes nest.
class FlushDenormalsScope {
public:
    FlushDenormalsScope();
    ~FlushDenormalsScope();
    FlushDenormalsScope(const FlushDenormalsScope&) = delete;
    FlushDenormalsScope& operator=(const FlushDenormalsScope&) = delete;

private:
    FpControlWord saved_;
};

}  // namespace fare
