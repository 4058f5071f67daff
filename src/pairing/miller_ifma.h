// AVX-512 IFMA lane kernels: the walk over packed Miller line tables,
// and the compilation of those tables.
//
// The batched alert scan evaluates one token's precompiled line tables
// over a buffer of independent ciphertexts, so the same line
// coefficients meet many evaluation points: exactly the shape of eight
// SIMD lanes. Walk8 walks one table set for eight evaluation points at
// once, one point per 64-bit lane of a __m512i. Compiling the tables
// has the same shape the other way round: every chain of a group
// follows one signed-digit schedule, so Chain8 runs eight chains of
// different points at once, one per lane.
//
// Arithmetic: radix-2^52 Montgomery over 4-limb primes (p < 2^256).
// An element is five 52-bit limbs, limb-major across the lanes
// ([limb][lane]); the Montgomery radix is R = 2^260. VPMADD52LUQ /
// VPMADD52HUQ give the low / high 52 bits of a 52x52-bit product added
// into a 64-bit accumulator, so a full 5x5-limb product and its
// word-by-word reduction accumulate carry-free (every accumulator stays
// below 2^57 in magnitude) and carries are propagated once at the end.
//
// Lazy reduction: a product's inputs need only a * b < p * R; with
// p < 2^256 that holds whenever both are below 4p (R > 16p), and the
// product then comes out below 2p. Larger inputs are allowed where
// noted: a reduction of any T >= 0 (that fits the accumulators) comes
// out below T / R + p. The walk keeps the Miller value's components
// below 2p and each line's real part below 4.07p, so sums feed
// products unreduced. Multiplying the value by a line l_re + l_im i is
// Karatsuba over F_p(i) with the reduction deferred (Aranha et al.,
// Eurocrypt 2011): the three products t0 = re * l_re, t1 = im * l_im
// and t2 = (re + im)(l_re + l_im) stay wide, as ten 64-bit accumulators
// of radix-2^52 limbs (each below 2^56). re' = t0 - t1 + 4p^2 and
// im' = t2 - t0 - t1 are formed limb by limb, so limbs may be negative
// (two's complement, carried with arithmetic shifts), and each is
// brought back by one Montgomery reduction: two reductions and no
// conditional subtraction per line. The 4p^2 offset, a multiple of p,
// keeps re' non-negative (im * l_im < 2p * 1.125p). With l_re < 4.07p
// and l_im < 1.125p both sums lie in [0, 12.2p^2): re * l_re + 4p^2 <
// 8.13p^2 + 4p^2, and re * l_im + im * l_re < 2.25p^2 + 8.13p^2. That is
// below 16p^2 < p * R for every p < 2^256, and the outputs come out
// below 12.2p^2 / R + p < 1.77p, so the value stays below 2p.
//
// One line per step, the doubling line (c_x * xq + c_0) + y i, has
// l_re = c_x * xq + c_0 < 3p and l_im = y < p. A step with an addition
// line too applies both lines as one merged product. Both lines have
// i-coefficient y at the same point, so with a_k = c_xk * xq + c_0k,
//   l1 * l2 = (a1 a2 - y^2) + (a1 + a2) y i
//           = (A xq^2 + B xq + C - y^2) + (D xq y + E y) i,
// where A = c_x1 c_x2, B = c_x1 c_02 + c_01 c_x2, C = c_01 c_02,
// D = c_x1 + c_x2 and E = c_01 + c_02 come from the tables and xq^2,
// -y^2 and xq y from the evaluation point, once per walk. The real part
// is one reduction of A * xq^2 + B * xq (below p^2 + 16p^2, so it
// comes out below 2.07p) plus C and -y^2 (each at most p): below
// 4.07p. The imaginary part is one reduction of D * xq y + E * y,
// below 2p^2, so below 1.125p. That is seven wide products and four
// reductions per step and pair, against eight and six for the two
// lines apart. -y^2 is taken from y itself rather than from the curve
// equation, so the merged product equals the two lines' product at any
// point, on the curve or not.

// Domain: packed table words are the bit re-split of canonical 64-bit
// Montgomery residues (value * 2^256 mod p), which the radix-52
// multiplication reads as value * 2^-4. A line record holds c_x and
// c_0 so, and a merged record A/16, B/16, C/16, D and E. The walk loads
// each point's xq shifted left by 4 bits (value 16 * xq * 2^256, below
// 16p), read as xq, and y_im unshifted, read as y / 16; it derives
// xq^2 (read as xq^2), -y^2 (read as -y^2 / 256) and xq y (read as
// xq y / 16) from those two with lane products. So every line comes out
// as 2^-4 times the scalar walk's line and every merged product as
// 2^-8 times the two lines' product, and the result as the scalar
// walk's value times a power of 2^-4. That is an F_p* factor, which the
// final exponentiation erases (its (p-1) power maps F_p* to 1), so
// after it the two walks agree exactly.
//
// Packed layout: a table is the plan's steps in order. A step without
// an addition line is one line record (kLineWords: c_x's limbs, then
// c_0's). A step with one is one merged record (kMergedWords: A/16,
// B/16, C/16, D, E, five limbs each), except the last step, whose
// addition line may be the chain's closing vertical line: it stays two
// line records. A line record whose first word is kTrivialLine is the
// constant 1. A merged record whose first word is kSplitStep holds its
// two lines as line records instead, at words 1 and 1 + kLineWords (a
// table compiled on the scalar chain through an exceptional point may
// have a trivial line anywhere).

// Chain compilation (Chain8 / Normalize8): the same arithmetic runs
// eight Miller chains of fixed first arguments, one chain per lane, in
// the lane domain: an element x is held as x * 2^260 mod p, so every
// Mul keeps the domain (the caller loads a canonical Montgomery residue
// a = x * 2^256 as 16 * a mod p). All chains share the plan's
// signed-digit schedule: a -1 digit adds -A, whose y (p - y_A, at most
// p) is formed once per chain. The point T = (X, Y, Z) is kept below 2p;
// every sum or difference that feeds a product stays below 8p with the
// other operand below 2p (a * b < 16 p^2 < p * 2^260), and results that
// are reused are brought back under 2p with conditional subtractions of
// 4p and 2p. Recorded lines keep c_x <= 2p, c_0 < 6p and c_y < 2p.
// Normalization multiplies by c_y^-1 held as c_y^-1 * 2^256 (the
// caller's inversion yields it in that form), so each normalised
// coefficient comes out as the canonical 64-bit Montgomery residue,
// which the packed layout re-splits: the words are the scalar
// normalisation's exactly. A merged record's A/16, B/16 and C/16 are
// lane products of two such residues (x * 2^256 times y * 2^256 comes
// out as xy/16 * 2^256), D and E sums of two; each is reduced to the
// canonical residue too.
//
// Exceptional lanes: the step formulas are the scalar chain's, and a
// lane's c_y is first zero at the first step where the scalar chain
// records a trivial or tangent line instead (T of order 2 in a
// doubling, T = +-A in an addition; T at infinity only follows one of
// these), since T starts finite with Z = 1 and the steps set Z3 = 2YZ
// or Z * H. A -1 digit is exceptional the same way, at T = +-A.
// Chain8 does not branch per lane: such a lane's c_y product comes out
// zero and the caller recompiles it on the scalar chain. The one
// exception is handled in lanes because every chain of a point whose
// order divides the group order ends in it: a final addition of +-A
// with T = -(+-A) (H = 0, R != 0) records c_y = 1 and is reported as a
// vertical (trivial) line.
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
/// Words per packed line record: c_x's limbs, then c_0's.
constexpr size_t kLineWords = 2 * kLimbs;
/// Words per merged step record: the limbs of A/16, B/16, C/16, D, E.
constexpr size_t kMergedWords = 5 * kLimbs;
/// Set in a packed line's first word when the line is the constant 1
/// (limbs use only the low 52 bits, so the flag never collides).
constexpr uint64_t kTrivialLine = uint64_t{1} << 63;
/// A merged record's first word when it holds its step's two lines as
/// line records instead, at words 1 and 1 + kLineWords.
constexpr uint64_t kSplitStep = uint64_t{1} << 62;
/// Words of one pair's lane coordinates: [5][kLimbs][kLanes], the
/// limbs of 16 * xq and y_im (the caller's), then of xq^2, -y^2 and
/// xq y (CompleteCoords's), in the walk's domain.
constexpr size_t kCoordWords = 5 * kLimbs * kLanes;

/// Words of one lane element block: [kLimbs][kLanes].
constexpr size_t kElemWords = kLimbs * kLanes;
/// Words of one line recorded by Chain8: c_x, c_0, c_y and the c_y
/// product of the lines before it, one element block each.
constexpr size_t kChainLineWords = 4 * kElemWords;

/// Radix-2^52 constants of one prime, in limbs.
struct LaneField {
  uint64_t p[kLimbs] = {};
  uint64_t two_p[kLimbs] = {};
  uint64_t four_p[kLimbs] = {};
  uint64_t eight_p[kLimbs] = {};
  uint64_t one[kLimbs] = {};  ///< R mod p, the walk's starting value
  uint64_t four_p_sq[2 * kLimbs] = {};  ///< 4p^2, the line products' offset
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

/// The walk's F_p^2 line product, lane-wise: (re + im i) * (l_re + y i)
/// * 2^-260 mod p. `f` and `out` hold [2][kLimbs][kLanes] (re, then
/// im), `line` holds l_re's limbs, then y's. Inputs: normalized limbs,
/// re and im below 2p, l_re below 3p, y below p; output: normalized,
/// each component below 2p. Exposed for the property tests of the lazy
/// bounds. Precondition: Available().
void MulLineLanes(const LaneField& field, const uint64_t* f,
                  const uint64_t* line, uint64_t* out);

/// The walk's merged step product, lane-wise: (re + im i) * (l_re +
/// l_im i) * 2^-260 mod p with l_re = (A * xq^2 + B * xq) * 2^-260 + C
/// + ny2 and l_im = (D * xq y + E * y) * 2^-260, where `record` holds
/// A..E and `coords` xq, y, xq^2, ny2, xq y, each [5][kLimbs][kLanes]
/// (in the walk a record is one table's, the same in every lane). `f`
/// and `out` are as in MulLineLanes. Inputs: normalized limbs, re and
/// im below 2p, A..E below p, xq below 16p, y, xq^2 and xq y below p,
/// ny2 at most p; output: normalized, each component below 2p. Exposed
/// for the property tests of the lazy bounds. Precondition: Available().
void MulMergedLanes(const LaneField& field, const uint64_t* f,
                    const uint64_t* record, const uint64_t* coords,
                    uint64_t* out);

/// Fills elements 2-4 of `num_pairs` lane coordinate blocks
/// (kCoordWords each) from elements 0-1, 16 * xq (below 16p) and y_im
/// (below p): xq^2, p - y^2 and xq y as lane products of those, the
/// first and last canonical, the middle in (0, p]. Precondition:
/// Available().
void CompleteCoords(const LaneField& field, size_t num_pairs,
                    uint64_t* coords);

/// The shared-squaring Miller walk of `num_pairs` packed tables for
/// eight lanes. `adds` has `steps` entries, the plan's signed digits
/// below the top (MillerPlan::adds): nonzero when an addition or
/// subtraction line follows that digit's doubling line.
/// `tables[k]` holds pair k's packed records (header, "Packed layout")
/// and `coords + k * kCoordWords` its lane coordinates, completed by
/// CompleteCoords. Writes the eight Miller values to `out` as
/// [2][kLimbs][kLanes] (real part, then imaginary), each fully reduced
/// below p. Precondition: Available().
void Walk8(const LaneField& field, const int8_t* adds, size_t steps,
           const uint64_t* const* tables, const uint64_t* coords,
           size_t num_pairs, uint64_t* out);

/// Runs the Miller chains of eight affine points over one schedule
/// (`adds`, `steps` entries, as in Walk8; a -1 digit records the chord
/// through T and -A), one point per lane.
/// `points` holds the lane-domain coordinates as [2][kLimbs][kLanes]
/// (x first, then y; each below p) and `curve_a` the lane-domain curve
/// coefficient a. Writes one record of kChainLineWords per line, in
/// schedule order, to `lines`, and the lane-domain product of every
/// recorded c_y, fully reduced, to `product` ([kLimbs][kLanes]). A lane
/// whose product is zero met an exceptional step and must be
/// recompiled; returns the mask of lanes whose final line is a vertical
/// (trivial) line. Precondition: Available().
uint8_t Chain8(const LaneField& field, const uint64_t* curve_a,
               const int8_t* adds, size_t steps, const uint64_t* points,
               uint64_t* lines, uint64_t* product);

/// Normalises the records Chain8 wrote over the same schedule (`adds`,
/// `steps`): lane l's line j becomes (c_x / c_y, c_0 / c_y) as
/// canonical 64-bit Montgomery residues, and the two lines of a step
/// that has an addition line (but the last) are merged; the result is
/// re-split into the packed layout (header, "Packed layout") at
/// tables[l]. `inv` ([kLimbs][kLanes], each below p) holds each lane's
/// product^-1 * 2^256 mod p. Lanes with a null table are skipped.
/// Precondition: Available().
void Normalize8(const LaneField& field, const int8_t* adds, size_t steps,
                const uint64_t* lines, const uint64_t* inv,
                uint64_t* const* tables);

}  // namespace miller_ifma
}  // namespace sloc

#endif  // SLOC_PAIRING_MILLER_IFMA_H_
