#include "common/fp_mode.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <xmmintrin.h>
#endif

namespace fare {

namespace {

#if defined(__x86_64__) || defined(_M_X64)
constexpr unsigned int kStatusFlags = 0x3Fu;                  // MXCSR sticky exception flags
constexpr FpControlWord kFlushBits = 0x8000u | 0x0040u;       // MXCSR FTZ | DAZ
#elif defined(__aarch64__)
constexpr FpControlWord kFlushBits = FpControlWord{1} << 24;  // FPCR.FZ
#else
constexpr FpControlWord kFlushBits = 0;
#endif

}  // namespace

FpControlWord fp_control_word() {
#if defined(__x86_64__) || defined(_M_X64)
    return _mm_getcsr() & ~kStatusFlags;
#elif defined(__aarch64__)
    FpControlWord word;
    __asm__ __volatile__("mrs %0, fpcr" : "=r"(word));
    return word;
#else
    return 0;
#endif
}

void set_fp_control_word(FpControlWord word) {
#if defined(__x86_64__) || defined(_M_X64)
    _mm_setcsr((_mm_getcsr() & kStatusFlags) |
               (static_cast<unsigned int>(word) & ~kStatusFlags));
#elif defined(__aarch64__)
    __asm__ __volatile__("msr fpcr, %0" : : "r"(word));
#else
    (void)word;
#endif
}

FlushDenormalsScope::FlushDenormalsScope() : saved_(fp_control_word()) {
    set_fp_control_word(saved_ | kFlushBits);
}

FlushDenormalsScope::~FlushDenormalsScope() { set_fp_control_word(saved_); }

}  // namespace fare
