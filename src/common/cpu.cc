#include "common/cpu.h"

#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#endif

namespace sloc {
namespace {

bool ProbeBmi2Adx() {
#if defined(__x86_64__) || defined(_M_X64)
  // Structured extended feature flags: leaf 7, subleaf 0.
  // EBX bit 8 = BMI2 (MULX), EBX bit 19 = ADX (ADCX/ADOX).
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool bmi2 = (ebx & (1u << 8)) != 0;
  const bool adx = (ebx & (1u << 19)) != 0;
  return bmi2 && adx;
#else
  return false;
#endif
}

bool ProbeAvx512Ifma() {
#if defined(__x86_64__) || defined(_M_X64)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  // Leaf 1 ECX bit 27 = OSXSAVE: the OS manages XCR0, so XGETBV is
  // legal and its answer meaningful.
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & (1u << 27)) == 0) return false;
  // Leaf 7 subleaf 0: EBX bit 16 = AVX512F, bit 21 = AVX512IFMA.
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool avx512f = (ebx & (1u << 16)) != 0;
  const bool ifma = (ebx & (1u << 21)) != 0;
  if (!avx512f || !ifma) return false;
  // XCR0 bits 1 (SSE), 2 (AVX), 5 (opmask), 6 (ZMM0-15 upper halves)
  // and 7 (ZMM16-31) must all be enabled: 0xE6.
  uint32_t xcr0_lo = 0, xcr0_hi = 0;
  __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  return (xcr0_lo & 0xE6u) == 0xE6u;
#else
  return false;
#endif
}

}  // namespace

bool CpuHasBmi2Adx() {
  // Magic-static init: probed exactly once, thread-safe.
  static const bool cached = ProbeBmi2Adx();
  return cached;
}

bool CpuHasAvx512Ifma() {
  static const bool cached = ProbeAvx512Ifma();
  return cached;
}

}  // namespace sloc
