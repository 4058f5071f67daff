// Prime field F_p on top of Montgomery arithmetic.
//
// Adds field-specific operations (inverse, Legendre symbol, square roots
// for p = 3 mod 4) used by the elliptic-curve and pairing layers.

#ifndef SLOC_FIELD_FP_H_
#define SLOC_FIELD_FP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/montgomery.h"
#include "common/result.h"

namespace sloc {

/// Field context bound to one odd prime p. Elements are Montgomery-form
/// limb vectors (Fp::Elem); all operations go through the context.
class Fp {
 public:
  using Elem = Montgomery::Elem;

  /// p must be an odd probable prime > 3. Primality is the caller's
  /// responsibility (checked only in debug builds for small p).
  static Result<Fp> Create(const BigInt& p);

  const BigInt& p() const { return mont_->modulus(); }
  size_t num_limbs() const { return mont_->num_limbs(); }
  /// The Montgomery multiplication kernel backing this field (fixed
  /// width CIOS for 4- and 8-limb primes, generic otherwise).
  MulKernel mul_kernel() const { return mont_->kernel(); }

  Elem Zero() const { return mont_->Zero(); }
  const Elem& One() const { return mont_->One(); }
  Elem FromBigInt(const BigInt& x) const { return mont_->ToMont(x); }
  Elem FromU64(uint64_t x) const { return mont_->ToMont(BigInt::FromU64(x)); }
  BigInt ToBigInt(const Elem& a) const { return mont_->FromMont(a); }
  /// Wire codec: big-endian bytes straight to and from Montgomery limbs
  /// (see Montgomery::FromCanonicalBytes / AppendCanonicalBytes).
  [[nodiscard]] bool FromCanonicalBytes(const uint8_t* bytes, size_t len,
                                        Elem* out) const {
    return mont_->FromCanonicalBytes(bytes, len, out);
  }
  void AppendCanonicalBytes(const Elem& a, std::vector<uint8_t>* out) const {
    mont_->AppendCanonicalBytes(a, out);
  }
  size_t CanonicalByteLength(const Elem& a) const {
    return mont_->CanonicalByteLength(a);
  }

  bool IsZero(const Elem& a) const { return mont_->IsZero(a); }
  bool Equal(const Elem& a, const Elem& b) const { return mont_->Equal(a, b); }

  void Add(const Elem& a, const Elem& b, Elem* out) const {
    mont_->Add(a, b, out);
  }
  void Sub(const Elem& a, const Elem& b, Elem* out) const {
    mont_->Sub(a, b, out);
  }
  void Neg(const Elem& a, Elem* out) const { mont_->Neg(a, out); }
  void Mul(const Elem& a, const Elem& b, Elem* out) const {
    mont_->Mul(a, b, out);
  }
  void Sqr(const Elem& a, Elem* out) const { mont_->Sqr(a, out); }
  void Dbl(const Elem& a, Elem* out) const { mont_->Dbl(a, out); }

  /// a * small constant (repeated addition; c <= 8 expected).
  void MulSmall(const Elem& a, uint64_t c, Elem* out) const;

  Elem Pow(const Elem& base, const BigInt& exp) const {
    return mont_->Pow(base, exp);
  }

  /// Multiplicative inverse a^(p-2) (Fermat; p is prime); error for
  /// zero.
  Result<Elem> Inverse(const Elem& a) const;

  /// Euler criterion: true iff a is a non-zero quadratic residue.
  bool IsSquare(const Elem& a) const;

  /// Square root for p = 3 (mod 4) via a^((p+1)/4).
  /// Error if a is not a quadratic residue or p = 1 (mod 4).
  Result<Elem> Sqrt(const Elem& a) const;

 private:
  explicit Fp(Montgomery mont);

  // Shared so Fp can be copied cheaply into dependent contexts.
  std::shared_ptr<const Montgomery> mont_;
  BigInt p_minus_2_;       // p-2, the inversion exponent
  BigInt p_minus_1_half_;  // (p-1)/2
  BigInt p_plus_1_quarter_;  // (p+1)/4 when p = 3 mod 4, else 0
};

}  // namespace sloc

#endif  // SLOC_FIELD_FP_H_
