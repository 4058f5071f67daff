// Runtime CPU feature detection for the optional intrinsic kernels.
//
// The bigint layer's BMI2/ADX CIOS kernels (bigint/cios_x86.h) and the
// pairing layer's AVX-512 IFMA lane walk (pairing/miller_ifma.h) are
// each compiled into a dedicated translation unit with their
// instruction-set flags and must only be *called* on hardware that
// actually has those extensions, so dispatch asks these probes (each
// result is cached after the first call and the probe itself is a
// handful of cpuid instructions).

#ifndef SLOC_COMMON_CPU_H_
#define SLOC_COMMON_CPU_H_

namespace sloc {

/// True when the CPU executing this process supports both BMI2 (MULX)
/// and ADX (ADCX/ADOX). Always false off x86-64. Cached after the
/// first call; safe to call concurrently.
bool CpuHasBmi2Adx();

/// True when the CPU supports AVX-512F and AVX-512 IFMA (VPMADD52LUQ/
/// VPMADD52HUQ) AND the operating system saves the full AVX-512 state
/// on context switch (OSXSAVE set, XCR0 enables SSE, AVX, opmask and
/// both ZMM halves). Always false off x86-64. Cached after the first
/// call; safe to call concurrently.
bool CpuHasAvx512Ifma();

}  // namespace sloc

#endif  // SLOC_COMMON_CPU_H_
