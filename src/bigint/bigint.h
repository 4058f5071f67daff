// Arbitrary-precision integers (sign-magnitude, 64-bit limbs).
//
// This is the arithmetic substrate for the composite-order pairing group
// used by HVE (Section 2.1 of the paper). It is written from scratch:
// schoolbook + Knuth Algorithm D division, extended Euclid, Miller-Rabin.
// Montgomery-form modular arithmetic lives in montgomery.h; prime
// generation in prime.h.

#ifndef SLOC_BIGINT_BIGINT_H_
#define SLOC_BIGINT_BIGINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bigint/limb_vec.h"
#include "common/result.h"
#include "common/status.h"

namespace sloc {

/// Source of random 64-bit words (adapts Rng or SecureRandom).
using RandFn = std::function<uint64_t()>;

/// Signed arbitrary-precision integer.
///
/// Representation: little-endian vector of 64-bit limbs, normalized so the
/// most significant limb is non-zero; zero is the empty vector and is never
/// negative.
class BigInt {
 public:
  /// Zero.
  BigInt() = default;

  /// From signed machine integer (implicit: literals behave naturally).
  // NOLINTNEXTLINE(google-explicit-constructor): literals must convert
  BigInt(int64_t v);

  /// From unsigned 64-bit value.
  static BigInt FromU64(uint64_t v);

  /// From little-endian limb storage (takes ownership, normalizes).
  static BigInt FromLimbs(LimbVec limbs, bool negative = false);
  static BigInt FromLimbs(const std::vector<uint64_t>& limbs,
                          bool negative = false);

  /// Parses decimal (optionally "-" prefixed) text.
  static Result<BigInt> FromDecimal(const std::string& s);

  /// Parses hexadecimal text (optionally "-"/"0x" prefixed).
  static Result<BigInt> FromHex(const std::string& s);

  /// Uniformly random integer with exactly `bits` bits (MSB forced to 1).
  static BigInt Random(size_t bits, const RandFn& rand);

  /// Uniformly random integer in [0, bound). Precondition: bound > 0.
  static BigInt RandomBelow(const BigInt& bound, const RandFn& rand);

  // ---- Predicates & accessors ----
  bool IsZero() const { return limbs_.empty(); }
  bool IsNegative() const { return negative_; }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool IsOne() const {
    return !negative_ && limbs_.size() == 1 && limbs_[0] == 1;
  }

  /// Number of significant bits (0 for zero).
  size_t BitLength() const;

  /// Bit i (LSB = bit 0) of the magnitude.
  bool Bit(size_t i) const;

  size_t NumLimbs() const { return limbs_.size(); }
  const LimbVec& limbs() const { return limbs_; }

  // ---- Comparison (by value, sign-aware) ----
  /// -1, 0, +1 as a <, ==, > b.
  static int Cmp(const BigInt& a, const BigInt& b);
  /// Compare magnitudes only.
  static int CmpAbs(const BigInt& a, const BigInt& b);

  bool operator==(const BigInt& o) const { return Cmp(*this, o) == 0; }
  bool operator!=(const BigInt& o) const { return Cmp(*this, o) != 0; }
  bool operator<(const BigInt& o) const { return Cmp(*this, o) < 0; }
  bool operator<=(const BigInt& o) const { return Cmp(*this, o) <= 0; }
  bool operator>(const BigInt& o) const { return Cmp(*this, o) > 0; }
  bool operator>=(const BigInt& o) const { return Cmp(*this, o) >= 0; }

  // ---- Arithmetic ----
  BigInt operator-() const;
  BigInt operator+(const BigInt& o) const;
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  /// Quotient truncated toward zero. Precondition: o != 0.
  BigInt operator/(const BigInt& o) const;
  /// Remainder with the sign of the dividend (C++ semantics).
  BigInt operator%(const BigInt& o) const;

  BigInt& operator+=(const BigInt& o) { return *this = *this + o; }
  BigInt& operator-=(const BigInt& o) { return *this = *this - o; }
  BigInt& operator*=(const BigInt& o) { return *this = *this * o; }

  BigInt operator<<(size_t bits) const;
  BigInt operator>>(size_t bits) const;

  /// Simultaneous quotient and remainder (C++ truncation semantics).
  /// Precondition: divisor != 0.
  static void DivMod(const BigInt& dividend, const BigInt& divisor,
                     BigInt* quotient, BigInt* remainder);

  /// Canonical residue in [0, m). Precondition: m > 0.
  static BigInt Mod(const BigInt& a, const BigInt& m);

  /// (a + b) mod m, (a - b) mod m, (a * b) mod m with canonical results.
  static BigInt ModAdd(const BigInt& a, const BigInt& b, const BigInt& m);
  static BigInt ModSub(const BigInt& a, const BigInt& b, const BigInt& m);
  static BigInt ModMul(const BigInt& a, const BigInt& b, const BigInt& m);

  /// base^exp mod m; exp >= 0, m > 1. Uses Montgomery for odd m.
  static BigInt ModPow(const BigInt& base, const BigInt& exp,
                       const BigInt& m);

  /// Greatest common divisor of magnitudes.
  static BigInt Gcd(const BigInt& a, const BigInt& b);

  /// Solves a*x + b*y = gcd(a,b); returns gcd, writes x, y (either may be
  /// null).
  static BigInt ExtendedGcd(const BigInt& a, const BigInt& b, BigInt* x,
                            BigInt* y);

  /// Multiplicative inverse of a mod m (m > 1). Error when gcd(a,m) != 1.
  static Result<BigInt> ModInverse(const BigInt& a, const BigInt& m);

  // ---- Conversion ----
  std::string ToDecimal() const;
  std::string ToHex() const;
  /// Error if negative or wider than 64 bits.
  Result<uint64_t> ToU64() const;
  /// Approximate double value (may overflow to inf).
  double ToDouble() const;

  /// Big-endian magnitude bytes, minimal length (empty for zero).
  std::vector<uint8_t> ToBytes() const;
  /// From big-endian magnitude bytes (non-negative); leading zero bytes
  /// are allowed. Linear in the input length.
  static BigInt FromBytes(const std::vector<uint8_t>& bytes);

  /// Width-w non-adjacent form of the magnitude |v| (the caller applies
  /// the sign): digits (LSB first) are zero or odd in (-2^(w-1), 2^(w-1)),
  /// any two non-zero digits at least w apart, sum digits[i]*2^i == |v|.
  /// Scalar-multiplication and exponentiation ladders driven by this
  /// recoding do ~1/(w+1) group operations per bit instead of ~1/2.
  /// Requires 2 <= width <= 7.
  std::vector<int8_t> ToWnaf(unsigned width) const;

  /// Recodes into caller-provided scratch (resized/overwritten), so
  /// ladders that recode per scalar can reuse one digit buffer instead
  /// of allocating a fresh vector each call.
  void ToWnaf(unsigned width, std::vector<int8_t>* digits) const;

 private:
  void Normalize();

  // Magnitude helpers (ignore sign).
  static LimbVec AddMag(const LimbVec& a, const LimbVec& b);
  // Precondition: |a| >= |b|.
  static LimbVec SubMag(const LimbVec& a, const LimbVec& b);
  static LimbVec MulMag(const LimbVec& a, const LimbVec& b);
  static void DivModMag(const LimbVec& u, const LimbVec& v, LimbVec* q,
                        LimbVec* r);

  LimbVec limbs_;
  bool negative_ = false;
};

// ---- Big-endian byte <-> limb codecs (shared by BigInt and the
// Montgomery wire codec) ----

/// Packs `len` big-endian bytes into little-endian 64-bit limbs,
/// writing exactly limbs[0, ceil(len / 8)).
void BigEndianToLimbs(const uint8_t* bytes, size_t len, uint64_t* limbs);

/// Byte length of the minimal big-endian encoding of limbs[0, n)
/// (0 for zero).
size_t MinimalBigEndianLength(const uint64_t* limbs, size_t n);

/// Appends the minimal big-endian encoding of limbs[0, n): no leading
/// zero bytes, nothing at all for zero.
void AppendMinimalBigEndian(const uint64_t* limbs, size_t n,
                            std::vector<uint8_t>* out);

}  // namespace sloc

#endif  // SLOC_BIGINT_BIGINT_H_
