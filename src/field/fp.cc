#include "field/fp.h"

#include <utility>

#include "common/check.h"

namespace sloc {

Fp::Fp(Montgomery mont)
    : mont_(std::make_shared<const Montgomery>(std::move(mont))) {
  const BigInt& p = mont_->modulus();
  p_minus_2_ = p - BigInt(2);
  p_minus_1_half_ = (p - BigInt(1)) >> 1;
  if ((p % BigInt(4)) == BigInt(3)) {
    p_plus_1_quarter_ = (p + BigInt(1)) >> 2;
  }
}

Result<Fp> Fp::Create(const BigInt& p) {
  if (BigInt::Cmp(p, BigInt(3)) <= 0 || !p.IsOdd()) {
    return Status::InvalidArgument("Fp prime must be odd and > 3");
  }
  SLOC_ASSIGN_OR_RETURN(Montgomery mont, Montgomery::Create(p));
  return Fp(std::move(mont));
}

void Fp::MulSmall(const Elem& a, uint64_t c, Elem* out) const {
  if (c == 0) {
    *out = Zero();
    return;
  }
  Elem acc = a;
  Elem tmp;
  // Left-to-right binary: small c so this is a handful of adds.
  int top = 63 - __builtin_clzll(c);
  for (int i = top - 1; i >= 0; --i) {
    Dbl(acc, &tmp);
    std::swap(acc, tmp);
    if ((c >> i) & 1) {
      Add(acc, a, &tmp);
      std::swap(acc, tmp);
    }
  }
  *out = std::move(acc);
}

Result<Fp::Elem> Fp::Inverse(const Elem& a) const {
  if (IsZero(a)) return Status::InvalidArgument("inverse of zero in Fp");
  return Pow(a, p_minus_2_);
}

bool Fp::IsSquare(const Elem& a) const {
  if (IsZero(a)) return false;
  Elem r = Pow(a, p_minus_1_half_);
  return Equal(r, One());
}

Result<Fp::Elem> Fp::Sqrt(const Elem& a) const {
  if (p_plus_1_quarter_.IsZero()) {
    return Status::Unimplemented("Sqrt requires p = 3 (mod 4)");
  }
  if (IsZero(a)) return Zero();
  Elem candidate = Pow(a, p_plus_1_quarter_);
  Elem check;
  Sqr(candidate, &check);
  if (!Equal(check, a)) {
    return Status::InvalidArgument("not a quadratic residue");
  }
  return candidate;
}

}  // namespace sloc
