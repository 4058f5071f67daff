// Quadratic extension F_p^2 = F_p(i), i^2 = -1 (requires p = 3 mod 4).
//
// This is the pairing target group's home: G_T is the order-N subgroup of
// F_p^2*. Elements are pairs of Montgomery-form F_p elements.

#ifndef SLOC_FIELD_FP2_H_
#define SLOC_FIELD_FP2_H_

#include <vector>

#include "field/fp.h"

namespace sloc {

/// Element a + b*i of F_p^2.
struct Fp2Elem {
  Fp::Elem re;
  Fp::Elem im;
};

/// Reusable scratch for the unitary exponentiation ladders: the wNAF
/// digit schedule and the per-unit odd-power table. Both are
/// high-water-mark buffers — a scratch owned per worker makes every
/// BatchPowUnitary call after the first allocation-free. Treat the
/// members as opaque.
struct Fp2PowScratch {
  std::vector<int8_t> digits;
  std::vector<Fp2Elem> odd;
};

/// Operation context over a base field (kept by value: Fp is cheap to copy).
class Fp2 {
 public:
  /// Requires p = 3 (mod 4) so that x^2 + 1 is irreducible.
  static Result<Fp2> Create(const Fp& fp);

  const Fp& fp() const { return fp_; }

  Fp2Elem Zero() const { return {fp_.Zero(), fp_.Zero()}; }
  Fp2Elem One() const { return {fp_.One(), fp_.Zero()}; }
  Fp2Elem FromFp(const Fp::Elem& a) const { return {a, fp_.Zero()}; }
  /// a + b*i from integer components.
  Fp2Elem FromBigInts(const BigInt& a, const BigInt& b) const {
    return {fp_.FromBigInt(a), fp_.FromBigInt(b)};
  }

  bool IsZero(const Fp2Elem& a) const {
    return fp_.IsZero(a.re) && fp_.IsZero(a.im);
  }
  bool IsOne(const Fp2Elem& a) const {
    return fp_.Equal(a.re, fp_.One()) && fp_.IsZero(a.im);
  }
  bool Equal(const Fp2Elem& a, const Fp2Elem& b) const {
    return fp_.Equal(a.re, b.re) && fp_.Equal(a.im, b.im);
  }

  void Add(const Fp2Elem& a, const Fp2Elem& b, Fp2Elem* out) const;
  void Sub(const Fp2Elem& a, const Fp2Elem& b, Fp2Elem* out) const;
  void Neg(const Fp2Elem& a, Fp2Elem* out) const;
  /// Karatsuba-style 3-multiplication product.
  void Mul(const Fp2Elem& a, const Fp2Elem& b, Fp2Elem* out) const;
  void Sqr(const Fp2Elem& a, Fp2Elem* out) const;
  /// Complex conjugate a - b*i; equals the Frobenius map x -> x^p.
  void Conj(const Fp2Elem& a, Fp2Elem* out) const;

  /// Norm a^2 + b^2 in F_p.
  Fp::Elem Norm(const Fp2Elem& a) const;

  /// General inverse via the norm; error for zero.
  Result<Fp2Elem> Inverse(const Fp2Elem& a) const;

  /// Square-and-multiply exponentiation, exp >= 0.
  Fp2Elem Pow(const Fp2Elem& base, const BigInt& exp) const;

  /// Inverse of a unitary element (norm 1): just the conjugate.
  /// Debug-checked; all G_T elements after final exponentiation are unitary.
  Fp2Elem UnitaryInverse(const Fp2Elem& a) const;

  /// Exponentiation of a unitary element (norm 1), any sign of exp.
  /// Inversion is a free conjugation on the unit circle, so this runs a
  /// signed-digit (wNAF) ladder with ~1/5 the multiplications of Pow and
  /// never touches Fp2::Inverse. Debug-checked for unitarity.
  Fp2Elem PowUnitary(const Fp2Elem& base, const BigInt& exp) const;

  /// In-place exponentiation of many unitary elements by ONE shared
  /// exponent: (*units)[j] becomes exactly PowUnitary((*units)[j], exp)
  /// — bit-identical, since each unit runs the same signed-digit ladder
  /// — but the wNAF recoding and the digit schedule are computed once
  /// for the whole batch and the ladder is interleaved across units, so
  /// a flush-sized batch of final-exponentiation tails (the fixed
  /// cofactor exponent) amortizes the per-call recoding the way the
  /// precompiled multi-pairing shares its f^2 chain. Empty batches are
  /// a no-op.
  void BatchPowUnitary(const BigInt& exp, std::vector<Fp2Elem>* units) const;

  /// BatchPowUnitary with caller-provided scratch: identical results,
  /// zero heap allocation once the scratch has reached its high-water
  /// mark (the per-worker arena path of the batched engine).
  void BatchPowUnitary(const BigInt& exp, std::vector<Fp2Elem>* units,
                       Fp2PowScratch* scratch) const;

 private:
  explicit Fp2(const Fp& fp) : fp_(fp) {}
  Fp fp_;
};

/// Lim-Lee fixed-base comb for a *unitary* base (a G_T element) —
/// the F_p^2 mirror of ec's FixedBaseComb. Splits a scalar of up to
/// teeth*rows bits into `teeth` interleaved combs of `rows` bits and
/// precomputes all 2^teeth - 1 subset products
/// T[e] = prod_{j : e_j = 1} base^(2^(j*rows)), so one exponentiation
/// costs `rows` squarings plus at most `rows` muls — versus ~bits
/// squarings for the wNAF ladder. Negative exponents are a free final
/// conjugation on the unit circle. Building costs about one PowUnitary,
/// so a table pays for itself from the second use of the same base
/// (e.g. a public key's A = e(g, v)^a raised per Encrypt).
class UnitaryComb {
 public:
  /// Empty table; callers fall back to Fp2::PowUnitary.
  UnitaryComb() = default;

  /// Precomputes the table for exponents of up to `max_bits` bits.
  /// `base` must be unitary (debug-checked by the Fp2 ops).
  static UnitaryComb Build(const Fp2& fp2, const Fp2Elem& base,
                           size_t max_bits, unsigned teeth = 5);

  bool empty() const { return table_.empty(); }
  size_t max_bits() const { return size_t(teeth_) * rows_; }

  /// base^k, any sign of k. Exponents wider than max_bits fall back to
  /// fp2.PowUnitary on the stored base. Callers must gate on empty():
  /// a default-constructed comb has no base and Pow CHECK-fails.
  Fp2Elem Pow(const Fp2& fp2, const BigInt& k) const;

 private:
  unsigned teeth_ = 0;
  size_t rows_ = 0;
  Fp2Elem base_;                 // for the fallback path
  std::vector<Fp2Elem> table_;   // table_[e-1], e in [1, 2^teeth)
};

}  // namespace sloc

#endif  // SLOC_FIELD_FP2_H_
