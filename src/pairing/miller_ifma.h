// AVX-512 IFMA lane walk over packed Miller line tables.
//
// The batched alert scan evaluates one token's precompiled line tables
// over a buffer of independent ciphertexts, so the same line
// coefficients meet many evaluation points: exactly the shape of eight
// SIMD lanes. This kernel walks one table set for eight evaluation
// points at once, one point per 64-bit lane of a __m512i.
//
// Arithmetic: radix-2^52 Montgomery over 4-limb primes (p < 2^256).
// An element is five 52-bit limbs, limb-major across the lanes
// ([limb][lane]); the Montgomery radix is R = 2^260. VPMADD52LUQ /
// VPMADD52HUQ give the low / high 52 bits of a 52x52-bit product added
// into a 64-bit accumulator, so a full 5x5-limb product and its
// word-by-word reduction accumulate carry-free (every accumulator stays
// below 2^57) and carries are propagated once at the end.
//
// Lazy reduction: a product's inputs need only a * b < p * R; with
// p < 2^256 that holds whenever both are below 4p (R > 16p), and the
// product then comes out below 2p. The walk keeps the Miller value's
// components below 2p and the line's real part below 3p, so sums feed
// products unreduced and only the differences of the F_p^2 product are
// brought back under 2p with a conditional subtraction.
//
// Domain: packed table words are the bit re-split of the canonical
// 64-bit Montgomery residues (value * 2^256 mod p), which the radix-52
// multiplication reads as value * 2^-4. The walk loads each point's xq
// shifted left by 4 bits (value 16 * xq * 2^256, still below 16p) and
// y_im unshifted, so every line comes out as 2^-4 times the scalar
// walk's line, and the result as the scalar walk's value times a power
// of 2^-4. That is an F_p* factor, which the final exponentiation
// erases (its (p-1) power maps F_p* to 1), so after it the two walks
// agree exactly.
//
// Compilation contract: this header declares plain functions and
// constants only. The kernels live in miller_ifma.cc, the only
// translation unit built with -mavx512f -mavx512ifma (CMake sets the
// per-file flags), and must only be CALLED when Available() is true.
// With SLOC_NO_INTRINSICS defined, off x86-64, or with a compiler
// lacking the flags, the entry points are unreachable stubs and
// Available() is false.

#ifndef SLOC_PAIRING_MILLER_IFMA_H_
#define SLOC_PAIRING_MILLER_IFMA_H_

#include <cstddef>
#include <cstdint>

namespace sloc {
namespace miller_ifma {

/// Evaluation points per walk (64-bit lanes of a 512-bit vector).
constexpr size_t kLanes = 8;
/// Radix-2^52 limbs per element: 5 * 52 = 260 bits, R = 2^260.
constexpr size_t kLimbs = 5;
constexpr unsigned kLimbBits = 52;
constexpr uint64_t kLimbMask = (uint64_t{1} << kLimbBits) - 1;
/// Words per packed line: c_x's limbs, then c_0's.
constexpr size_t kLineWords = 2 * kLimbs;
/// Set in a packed line's first word when the line is the constant 1
/// (limbs use only the low 52 bits, so the flag never collides).
constexpr uint64_t kTrivialLine = uint64_t{1} << 63;
/// Words of one pair's lane coordinates: [2][kLimbs][kLanes], the
/// limbs of 16 * xq first, then those of y_im.
constexpr size_t kCoordWords = 2 * kLimbs * kLanes;

/// Radix-2^52 constants of one prime, in limbs.
struct LaneField {
  uint64_t p[kLimbs] = {};
  uint64_t two_p[kLimbs] = {};
  uint64_t one[kLimbs] = {};  ///< R mod p, the walk's starting value
  uint64_t p_inv = 0;         ///< -p^-1 mod 2^52
};

/// True when the kernels were compiled in (x86-64, the compiler took
/// -mavx512f -mavx512ifma, not SLOC_NO_INTRINSICS) AND the running CPU
/// and OS support AVX-512 IFMA (common/cpu.h). The only gate for
/// calling the entry points below.
bool Available();

/// Lane-wise Montgomery product a * b * 2^-260 mod p, limb-major
/// [kLimbs][kLanes] in and out. Inputs: normalized 52-bit limbs with
/// a * b < p * 2^260 per lane; output: normalized, below 2p (not
/// canonical). Exposed for the property tests of the lazy bounds.
/// Precondition: Available().
void MulLanes(const LaneField& field, const uint64_t* a, const uint64_t* b,
              uint64_t* out);

/// The shared-squaring Miller walk of `num_pairs` packed tables for
/// eight lanes. `adds` has `steps` entries, one per order bit below the
/// top: nonzero when an addition line follows that bit's doubling line.
/// `tables[k]` holds pair k's packed lines (kLineWords each, in schedule
/// order) and `coords + k * kCoordWords` its lane coordinates. Writes
/// the eight Miller values to `out` as [2][kLimbs][kLanes] (real part,
/// then imaginary), each fully reduced below p. Precondition:
/// Available().
void Walk8(const LaneField& field, const uint8_t* adds, size_t steps,
           const uint64_t* const* tables, const uint64_t* coords,
           size_t num_pairs, uint64_t* out);

}  // namespace miller_ifma
}  // namespace sloc

#endif  // SLOC_PAIRING_MILLER_IFMA_H_
