// Montgomery-form modular arithmetic for odd moduli.
//
// Elements are fixed-width little-endian limb vectors in Montgomery form
// (x * R mod N, R = 2^(64*k)). This is the hot path under the pairing: all
// F_p operations route through this context.
//
// Multiplication dispatches to one of several kernels, chosen once at
// Create() from the modulus width and the running CPU:
//  * kGeneric — variable-width operand scanning + separate REDC pass
//    (any width; allocates a temporary product row per call),
//  * kCios4 / kCios6 / kCios8 — coarsely-integrated operand scanning
//    (CIOS) with the limb loops unrolled at compile time for exactly
//    4, 6 or 8 64-bit limbs (256- / 384- / 512-bit moduli, the
//    production parameter sizes). The whole product lives in
//    registers / stack words, no heap traffic, and squaring uses a
//    dedicated kernel that computes each symmetric cross term once.
//    Portable u128 code.
//  * kCios4Adx / kCios6Adx / kCios8Adx — the same widths through the
//    BMI2/ADX intrinsic kernels (bigint/cios_x86.h: MULX plus dual
//    ADCX/ADOX carry chains). Selected automatically when the cpuid
//    probe (common/cpu.h, cached on first use) reports BMI2 + ADX and
//    the kernels were compiled in (x86-64, not SLOC_NO_INTRINSICS);
//    the u128 kernels remain the portable fallback.
// All kernels produce bit-identical canonical representatives, so the
// choice is invisible to callers (Fp, Fp2, Curve, the Miller loop).
// Tests and benches can force a kernel via the Create overload, or
// force a whole dependency tree onto a dispatch policy (portable-only /
// generic-only) via SetMulKernelDispatch before the contexts are built.

#ifndef SLOC_BIGINT_MONTGOMERY_H_
#define SLOC_BIGINT_MONTGOMERY_H_

#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/limb_vec.h"
#include "common/result.h"

namespace sloc {

/// Which multiplication kernel a Montgomery context runs.
enum class MulKernel {
  kGeneric,   ///< variable-width schoolbook + REDC (any limb count)
  kCios4,     ///< unrolled u128 CIOS for 4x64 limbs (256-bit moduli)
  kCios6,     ///< unrolled u128 CIOS for 6x64 limbs (384-bit moduli)
  kCios8,     ///< unrolled u128 CIOS for 8x64 limbs (512-bit moduli)
  kCios4Adx,  ///< BMI2/ADX intrinsic CIOS for 4x64 limbs
  kCios6Adx,  ///< BMI2/ADX intrinsic CIOS for 6x64 limbs
  kCios8Adx,  ///< BMI2/ADX intrinsic CIOS for 8x64 limbs
};

/// Human-readable kernel name ("generic", "cios4", ..., "cios8_adx").
const char* MulKernelName(MulKernel kernel);

/// The kernel's portable family name: intrinsic variants collapse onto
/// their u128 twin ("cios4_adx" -> "cios4"). Used where reports must be
/// stable across heterogeneous hardware (the CI perf baseline pins
/// this, not the exact dispatch).
const char* MulKernelFamilyName(MulKernel kernel);

/// Fixed limb width a kernel requires (0 for kGeneric).
size_t MulKernelWidth(MulKernel kernel);

/// Whether the kernel needs the BMI2/ADX intrinsics at runtime.
bool MulKernelIsIntrinsic(MulKernel kernel);

/// How automatic kernel selection (the width-only Create) dispatches.
/// Processes default to kAuto; tests and benches flip this to compare
/// whole dependency trees (group -> field -> curve) on a forced path.
/// Affects only contexts created AFTER the call.
enum class KernelDispatch {
  kAuto,          ///< fastest available: intrinsics when CPU supports them
  kPortableOnly,  ///< fixed-width u128 kernels, never intrinsics
  kGenericOnly,   ///< the variable-width generic kernel everywhere
};

/// Process-wide dispatch policy for automatic kernel selection
/// (tests / benches; plain reads+writes of an atomic).
void SetMulKernelDispatch(KernelDispatch policy);
KernelDispatch GetMulKernelDispatch();

/// Reusable context bound to one odd modulus N > 1.
class Montgomery {
 public:
  /// Fixed-width residue in Montgomery form, length num_limbs().
  /// LimbVec keeps every residue up to 8 limbs (512-bit moduli) inline
  /// — no heap allocation for construction, copies, or arithmetic.
  using Elem = LimbVec;

  /// Error unless modulus is odd and > 1. Selects the fixed-width
  /// kernel matching the modulus limb count (4/6/8 limbs), preferring
  /// the BMI2/ADX intrinsic variant when the (cached) cpuid probe
  /// reports support; generic otherwise. SetMulKernelDispatch can
  /// force the portable or generic tier process-wide.
  static Result<Montgomery> Create(const BigInt& modulus);

  /// Create with an explicit kernel (equivalence tests / benchmarks).
  /// Error when the kernel's fixed width does not equal the modulus
  /// limb count, or when an intrinsic kernel is requested on hardware
  /// (or a build) without BMI2/ADX; kGeneric is always accepted.
  static Result<Montgomery> Create(const BigInt& modulus, MulKernel kernel);

  const BigInt& modulus() const { return modulus_; }
  size_t num_limbs() const { return k_; }
  /// The kernel selected for this modulus.
  MulKernel kernel() const { return kernel_; }

  /// Converts x (any sign) into Montgomery form of x mod N.
  Elem ToMont(const BigInt& x) const;

  /// Converts back to a canonical BigInt in [0, N).
  BigInt FromMont(const Elem& a) const;

  /// Decodes `len` big-endian bytes (leading zero bytes allowed)
  /// straight into Montgomery form: the bytes are packed into limbs,
  /// range-checked against N, and multiplied by R^2 once. Returns
  /// false, leaving *out unspecified, when len exceeds the modulus limb
  /// width in bytes or the value is >= N: an out-of-range encoding is
  /// rejected, never reduced. Linear in len; allocation-free for
  /// moduli up to LimbVec's inline capacity.
  [[nodiscard]] bool FromCanonicalBytes(const uint8_t* bytes, size_t len,
                                        Elem* out) const;

  /// Appends the canonical value of `a` as minimal big-endian bytes
  /// (nothing for zero), the bytes FromMont(a).ToBytes() would give,
  /// after one REDC and no BigInt.
  void AppendCanonicalBytes(const Elem& a, std::vector<uint8_t>* out) const;

  /// The number of bytes AppendCanonicalBytes(a, ...) appends.
  size_t CanonicalByteLength(const Elem& a) const;

  Elem Zero() const { return Elem(k_, 0); }
  /// Montgomery representation of 1.
  const Elem& One() const { return one_; }

  bool IsZero(const Elem& a) const;
  bool Equal(const Elem& a, const Elem& b) const;

  /// out = (a + b) mod N.
  void Add(const Elem& a, const Elem& b, Elem* out) const;
  /// out = (a - b) mod N.
  void Sub(const Elem& a, const Elem& b, Elem* out) const;
  /// out = (-a) mod N.
  void Neg(const Elem& a, Elem* out) const;
  /// out = a * b * R^-1 mod N (Montgomery product).
  void Mul(const Elem& a, const Elem& b, Elem* out) const;
  /// out = a^2 * R^-1 mod N. Fixed-width kernels compute each symmetric
  /// cross term once (~half the limb products of Mul).
  void Sqr(const Elem& a, Elem* out) const;
  /// Doubles in place semantics: out = 2a mod N.
  void Dbl(const Elem& a, Elem* out) const { Add(a, a, out); }

  /// base^exp mod N (exp plain, non-negative), result in Montgomery form.
  Elem Pow(const Elem& base, const BigInt& exp) const;

  /// Inverse in the multiplicative group. Error when not invertible.
  Result<Elem> Inverse(const Elem& a) const;

 private:
  Montgomery(BigInt modulus, size_t k, MulKernel kernel);

  // out = t / R mod N for t of 2k+1 limbs (REDC). t is modified.
  void Redc(uint64_t* t, Elem* out) const;
  // Compare limb vectors of length k_: -1/0/1.
  int CmpRaw(const uint64_t* a, const uint64_t* b) const;
  // a -= b (length k_), returns borrow.
  static uint64_t SubRaw(uint64_t* a, const uint64_t* b, size_t k);
  // Generic-width Montgomery product (the pre-kernel reference path).
  void MulGeneric(const Elem& a, const Elem& b, Elem* out) const;
  // The canonical value of a in [0, N), as k_ limbs: REDC(a), computed
  // as the Montgomery product a * 1 on the selected kernel.
  Elem Canonical(const Elem& a) const;

  BigInt modulus_;
  size_t k_;                  // limb count of modulus
  MulKernel kernel_ = MulKernel::kGeneric;
  LimbVec n_;                 // modulus limbs, length k_
  uint64_t n0_inv_;           // -N^-1 mod 2^64
  Elem one_;                  // R mod N
  Elem r2_;                   // R^2 mod N (for ToMont)
  Elem plain_one_;            // the integer 1, not in Montgomery form
};

}  // namespace sloc

#endif  // SLOC_BIGINT_MONTGOMERY_H_
