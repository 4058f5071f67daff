#include "bigint/bigint.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "bigint/montgomery.h"
#include "common/check.h"

namespace sloc {

namespace {

using u128 = unsigned __int128;

int Clz64(uint64_t x) {
  SLOC_DCHECK(x != 0);
  return __builtin_clzll(x);
}

// Byte-order-independent 64-bit big-endian load/store (compilers turn
// these loops into one byte-swapping move).
uint64_t LoadBigEndian64(const uint8_t* p) {
  uint64_t w = 0;
  for (int i = 0; i < 8; ++i) w = (w << 8) | p[i];
  return w;
}

void StoreBigEndian64(uint64_t w, uint8_t* p) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(w >> (56 - 8 * i));
}

}  // namespace

BigInt::BigInt(int64_t v) {
  if (v == 0) return;
  negative_ = v < 0;
  // Avoid UB on INT64_MIN.
  uint64_t mag = negative_ ? ~static_cast<uint64_t>(v) + 1
                           : static_cast<uint64_t>(v);
  limbs_.push_back(mag);
}

BigInt BigInt::FromU64(uint64_t v) {
  BigInt out;
  if (v != 0) out.limbs_.push_back(v);
  return out;
}

BigInt BigInt::FromLimbs(LimbVec limbs, bool negative) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.negative_ = negative;
  out.Normalize();
  return out;
}

BigInt BigInt::FromLimbs(const std::vector<uint64_t>& limbs, bool negative) {
  return FromLimbs(LimbVec(limbs), negative);
}

void BigInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  return limbs_.size() * 64 - static_cast<size_t>(Clz64(limbs_.back()));
}

bool BigInt::Bit(size_t i) const {
  size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

int BigInt::CmpAbs(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

int BigInt::Cmp(const BigInt& a, const BigInt& b) {
  if (a.negative_ != b.negative_) return a.negative_ ? -1 : 1;
  int mag = CmpAbs(a, b);
  return a.negative_ ? -mag : mag;
}

// ---- magnitude arithmetic ----

LimbVec BigInt::AddMag(const LimbVec& a, const LimbVec& b) {
  const LimbVec& big = a.size() >= b.size() ? a : b;
  const LimbVec& small = a.size() >= b.size() ? b : a;
  LimbVec out(big.size() + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < big.size(); ++i) {
    u128 sum = static_cast<u128>(big[i]) + carry;
    if (i < small.size()) sum += small[i];
    out[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  out[big.size()] = carry;
  return out;
}

LimbVec BigInt::SubMag(const LimbVec& a, const LimbVec& b) {
  LimbVec out(a.size(), 0);
  uint64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t bi = i < b.size() ? b[i] : 0;
    uint64_t ai = a[i];
    uint64_t d = ai - bi;
    uint64_t borrow2 = (ai < bi);
    uint64_t d2 = d - borrow;
    borrow2 |= (d < borrow);
    out[i] = d2;
    borrow = borrow2;
  }
  SLOC_DCHECK(borrow == 0) << "SubMag requires |a| >= |b|";
  return out;
}

LimbVec BigInt::MulMag(const LimbVec& a, const LimbVec& b) {
  if (a.empty() || b.empty()) return {};
  LimbVec out(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a[i];
    if (ai == 0) continue;
    for (size_t j = 0; j < b.size(); ++j) {
      u128 cur = static_cast<u128>(ai) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out[i + b.size()] += carry;
  }
  return out;
}

// Knuth TAOCP vol 2, Algorithm D (division of magnitudes).
void BigInt::DivModMag(const LimbVec& u_in, const LimbVec& v_in,
                       LimbVec* q_out, LimbVec* r_out) {
  SLOC_CHECK(!v_in.empty()) << "division by zero";
  // Fast path: divisor fits in one limb.
  if (v_in.size() == 1) {
    uint64_t d = v_in[0];
    LimbVec q(u_in.size(), 0);
    uint64_t rem = 0;
    for (size_t i = u_in.size(); i-- > 0;) {
      u128 cur = (static_cast<u128>(rem) << 64) | u_in[i];
      q[i] = static_cast<uint64_t>(cur / d);
      rem = static_cast<uint64_t>(cur % d);
    }
    *q_out = std::move(q);
    *r_out = rem ? LimbVec{rem} : LimbVec{};
    return;
  }
  // |u| < |v| -> q=0, r=u.
  if (u_in.size() < v_in.size()) {
    q_out->clear();
    *r_out = u_in;
    return;
  }

  const size_t n = v_in.size();
  const size_t m = u_in.size() - n;

  // D1: normalize so the top limb of v has its high bit set.
  const int s = Clz64(v_in.back());
  LimbVec v(n);
  if (s == 0) {
    v = v_in;
  } else {
    for (size_t i = n; i-- > 1;) {
      v[i] = (v_in[i] << s) | (v_in[i - 1] >> (64 - s));
    }
    v[0] = v_in[0] << s;
  }
  LimbVec u(u_in.size() + 1, 0);
  if (s == 0) {
    std::copy(u_in.begin(), u_in.end(), u.begin());
  } else {
    u[u_in.size()] = u_in.back() >> (64 - s);
    for (size_t i = u_in.size(); i-- > 1;) {
      u[i] = (u_in[i] << s) | (u_in[i - 1] >> (64 - s));
    }
    u[0] = u_in[0] << s;
  }

  LimbVec q(m + 1, 0);
  const uint64_t vn1 = v[n - 1];
  const uint64_t vn2 = v[n - 2];

  // D2..D7 main loop.
  for (size_t j = m + 1; j-- > 0;) {
    // D3: estimate qhat.
    u128 top = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
    u128 qhat = top / vn1;
    u128 rhat = top % vn1;
    while (qhat >= (static_cast<u128>(1) << 64) ||
           qhat * vn2 > ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += vn1;
      if (rhat >= (static_cast<u128>(1) << 64)) break;
    }
    // D4: multiply and subtract.
    u128 borrow = 0;
    u128 carry = 0;
    for (size_t i = 0; i < n; ++i) {
      u128 p = qhat * v[i] + carry;
      carry = p >> 64;
      uint64_t plo = static_cast<uint64_t>(p);
      u128 sub = static_cast<u128>(u[i + j]) - plo - borrow;
      u[i + j] = static_cast<uint64_t>(sub);
      borrow = (sub >> 64) & 1;  // 1 when the subtraction wrapped
    }
    u128 subtop = static_cast<u128>(u[j + n]) - carry - borrow;
    u[j + n] = static_cast<uint64_t>(subtop);
    bool negative = (subtop >> 64) != 0;

    // D5/D6: if we subtracted too much, add v back once.
    uint64_t qj = static_cast<uint64_t>(qhat);
    if (negative) {
      --qj;
      u128 c = 0;
      for (size_t i = 0; i < n; ++i) {
        u128 sum = static_cast<u128>(u[i + j]) + v[i] + c;
        u[i + j] = static_cast<uint64_t>(sum);
        c = sum >> 64;
      }
      u[j + n] = static_cast<uint64_t>(u[j + n] + static_cast<uint64_t>(c));
    }
    q[j] = qj;
  }

  // D8: denormalize remainder.
  LimbVec r(n, 0);
  if (s == 0) {
    std::copy(u.begin(), u.begin() + static_cast<long>(n), r.begin());
  } else {
    for (size_t i = 0; i < n - 1; ++i) {
      r[i] = (u[i] >> s) | (u[i + 1] << (64 - s));
    }
    r[n - 1] = u[n - 1] >> s;
  }
  *q_out = std::move(q);
  *r_out = std::move(r);
}

// ---- signed operators ----

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.IsZero()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::operator+(const BigInt& o) const {
  BigInt out;
  if (negative_ == o.negative_) {
    out.limbs_ = AddMag(limbs_, o.limbs_);
    out.negative_ = negative_;
  } else {
    int cmp = CmpAbs(*this, o);
    if (cmp == 0) return BigInt();
    if (cmp > 0) {
      out.limbs_ = SubMag(limbs_, o.limbs_);
      out.negative_ = negative_;
    } else {
      out.limbs_ = SubMag(o.limbs_, limbs_);
      out.negative_ = o.negative_;
    }
  }
  out.Normalize();
  return out;
}

BigInt BigInt::operator-(const BigInt& o) const { return *this + (-o); }

BigInt BigInt::operator*(const BigInt& o) const {
  BigInt out;
  out.limbs_ = MulMag(limbs_, o.limbs_);
  out.negative_ = negative_ != o.negative_;
  out.Normalize();
  return out;
}

void BigInt::DivMod(const BigInt& dividend, const BigInt& divisor,
                    BigInt* quotient, BigInt* remainder) {
  SLOC_CHECK(!divisor.IsZero()) << "division by zero";
  LimbVec q, r;
  DivModMag(dividend.limbs_, divisor.limbs_, &q, &r);
  BigInt qq = FromLimbs(std::move(q),
                        dividend.negative_ != divisor.negative_);
  BigInt rr = FromLimbs(std::move(r), dividend.negative_);
  if (quotient != nullptr) *quotient = std::move(qq);
  if (remainder != nullptr) *remainder = std::move(rr);
}

BigInt BigInt::operator/(const BigInt& o) const {
  BigInt q;
  DivMod(*this, o, &q, nullptr);
  return q;
}

BigInt BigInt::operator%(const BigInt& o) const {
  BigInt r;
  DivMod(*this, o, nullptr, &r);
  return r;
}

BigInt BigInt::operator<<(size_t bits) const {
  if (IsZero() || bits == 0) return *this;
  const size_t limb_shift = bits / 64;
  const size_t bit_shift = bits % 64;
  LimbVec out(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    out[i + limb_shift] |=
        bit_shift == 0 ? limbs_[i] : (limbs_[i] << bit_shift);
    if (bit_shift != 0) {
      out[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  return FromLimbs(std::move(out), negative_);
}

BigInt BigInt::operator>>(size_t bits) const {
  if (IsZero() || bits == 0) return *this;
  const size_t limb_shift = bits / 64;
  const size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return BigInt();
  LimbVec out(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  return FromLimbs(std::move(out), negative_);
}

BigInt BigInt::Mod(const BigInt& a, const BigInt& m) {
  SLOC_CHECK(!m.IsZero() && !m.IsNegative()) << "modulus must be positive";
  BigInt r = a % m;
  if (r.IsNegative()) r = r + m;
  return r;
}

BigInt BigInt::ModAdd(const BigInt& a, const BigInt& b, const BigInt& m) {
  return Mod(a + b, m);
}

BigInt BigInt::ModSub(const BigInt& a, const BigInt& b, const BigInt& m) {
  return Mod(a - b, m);
}

BigInt BigInt::ModMul(const BigInt& a, const BigInt& b, const BigInt& m) {
  return Mod(a * b, m);
}

BigInt BigInt::ModPow(const BigInt& base, const BigInt& exp,
                      const BigInt& m) {
  SLOC_CHECK(!exp.IsNegative()) << "negative exponent";
  SLOC_CHECK(Cmp(m, BigInt(1)) > 0) << "modulus must be > 1";
  if (m.IsOdd()) {
    auto ctx = Montgomery::Create(m);
    SLOC_CHECK(ctx.ok());
    return ctx->FromMont(ctx->Pow(ctx->ToMont(Mod(base, m)), exp));
  }
  // Even modulus: plain square-and-multiply.
  BigInt result(1);
  BigInt b = Mod(base, m);
  for (size_t i = exp.BitLength(); i-- > 0;) {
    result = ModMul(result, result, m);
    if (exp.Bit(i)) result = ModMul(result, b, m);
  }
  return result;
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a.IsNegative() ? -a : a;
  BigInt y = b.IsNegative() ? -b : b;
  while (!y.IsZero()) {
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

BigInt BigInt::ExtendedGcd(const BigInt& a, const BigInt& b, BigInt* x,
                           BigInt* y) {
  // Iterative extended Euclid on signed values.
  BigInt old_r = a, r = b;
  BigInt old_s(1), s(0);
  BigInt old_t(0), t(1);
  while (!r.IsZero()) {
    BigInt q = old_r / r;
    BigInt tmp = old_r - q * r;
    old_r = std::move(r);
    r = std::move(tmp);
    tmp = old_s - q * s;
    old_s = std::move(s);
    s = std::move(tmp);
    tmp = old_t - q * t;
    old_t = std::move(t);
    t = std::move(tmp);
  }
  if (old_r.IsNegative()) {
    old_r = -old_r;
    old_s = -old_s;
    old_t = -old_t;
  }
  if (x != nullptr) *x = old_s;
  if (y != nullptr) *y = old_t;
  return old_r;
}

Result<BigInt> BigInt::ModInverse(const BigInt& a, const BigInt& m) {
  if (Cmp(m, BigInt(1)) <= 0) {
    return Status::InvalidArgument("modulus must be > 1");
  }
  BigInt x;
  BigInt g = ExtendedGcd(Mod(a, m), m, &x, nullptr);
  if (!g.IsOne()) {
    return Status::InvalidArgument("not invertible: gcd != 1");
  }
  return Mod(x, m);
}

// ---- conversion ----

Result<BigInt> BigInt::FromDecimal(const std::string& s) {
  if (s.empty()) return Status::InvalidArgument("empty decimal string");
  size_t i = 0;
  bool neg = false;
  if (s[0] == '-') {
    neg = true;
    i = 1;
  } else if (s[0] == '+') {
    i = 1;
  }
  if (i >= s.size()) return Status::InvalidArgument("no digits");
  BigInt out;
  const BigInt ten_19 = FromU64(10000000000000000000ULL);  // 10^19
  // Consume in chunks of up to 19 digits.
  while (i < s.size()) {
    size_t take = std::min<size_t>(19, s.size() - i);
    uint64_t chunk = 0;
    uint64_t scale = 1;
    for (size_t k = 0; k < take; ++k) {
      char c = s[i + k];
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        return Status::InvalidArgument("invalid decimal digit");
      }
      chunk = chunk * 10 + static_cast<uint64_t>(c - '0');
      scale *= 10;
    }
    out = out * (take == 19 ? ten_19 : FromU64(scale)) + FromU64(chunk);
    i += take;
  }
  if (neg && !out.IsZero()) out.negative_ = true;
  return out;
}

Result<BigInt> BigInt::FromHex(const std::string& s) {
  size_t i = 0;
  bool neg = false;
  if (i < s.size() && (s[i] == '-' || s[i] == '+')) {
    neg = s[i] == '-';
    ++i;
  }
  if (i + 1 < s.size() && s[i] == '0' && (s[i + 1] == 'x' || s[i + 1] == 'X')) {
    i += 2;
  }
  if (i >= s.size()) return Status::InvalidArgument("no hex digits");
  BigInt out;
  for (; i < s.size(); ++i) {
    char c = s[i];
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return Status::InvalidArgument("invalid hex digit");
    out = (out << 4) + BigInt(digit);
  }
  if (neg && !out.IsZero()) out.negative_ = true;
  return out;
}

std::string BigInt::ToDecimal() const {
  if (IsZero()) return "0";
  std::string digits;
  BigInt cur = *this;
  cur.negative_ = false;
  const BigInt ten_19 = FromU64(10000000000000000000ULL);
  while (!cur.IsZero()) {
    BigInt q, r;
    DivMod(cur, ten_19, &q, &r);
    uint64_t chunk = r.IsZero() ? 0 : r.limbs_[0];
    for (int k = 0; k < 19; ++k) {
      digits.push_back(static_cast<char>('0' + chunk % 10));
      chunk /= 10;
    }
    cur = std::move(q);
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

std::string BigInt::ToHex() const {
  if (IsZero()) return "0x0";
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t limb = limbs_[i];
    for (int nib = 0; nib < 16; ++nib) {
      out.push_back(kHex[limb & 0xf]);
      limb >>= 4;
    }
  }
  while (out.size() > 1 && out.back() == '0') out.pop_back();
  out += "x0";
  if (negative_) out += '-';
  std::reverse(out.begin(), out.end());
  return out;
}

Result<uint64_t> BigInt::ToU64() const {
  if (negative_) return Status::OutOfRange("negative value in ToU64");
  if (limbs_.size() > 1) return Status::OutOfRange("value exceeds 64 bits");
  return limbs_.empty() ? 0 : limbs_[0];
}

double BigInt::ToDouble() const {
  double v = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    v = v * 18446744073709551616.0 + static_cast<double>(limbs_[i]);
  }
  return negative_ ? -v : v;
}

std::vector<uint8_t> BigInt::ToBytes() const {
  std::vector<uint8_t> out;
  AppendMinimalBigEndian(limbs_.data(), limbs_.size(), &out);
  return out;
}

BigInt BigInt::FromBytes(const std::vector<uint8_t>& bytes) {
  LimbVec limbs((bytes.size() + 7) / 8);
  BigEndianToLimbs(bytes.data(), bytes.size(), limbs.data());
  return FromLimbs(std::move(limbs));
}

void BigEndianToLimbs(const uint8_t* bytes, size_t len, uint64_t* limbs) {
  // Whole words from the least significant end, then the short head.
  size_t end = len;
  for (; end >= 8; end -= 8) *limbs++ = LoadBigEndian64(bytes + end - 8);
  if (end != 0) {
    uint64_t w = 0;
    for (size_t i = 0; i < end; ++i) w = (w << 8) | bytes[i];
    *limbs = w;
  }
}

size_t MinimalBigEndianLength(const uint64_t* limbs, size_t n) {
  while (n > 0 && limbs[n - 1] == 0) --n;
  if (n == 0) return 0;
  return 8 * (n - 1) + size_t(64 - Clz64(limbs[n - 1]) + 7) / 8;
}

void AppendMinimalBigEndian(const uint64_t* limbs, size_t n,
                            std::vector<uint8_t>* out) {
  const size_t len = MinimalBigEndianLength(limbs, n);
  const size_t base = out->size();
  out->resize(base + len);
  // Fill backwards: whole words from the least significant end, then
  // the top word's significant bytes.
  uint8_t* pos = out->data() + base + len;
  size_t i = 0;
  for (; 8 * (i + 1) <= len; ++i) {
    pos -= 8;
    StoreBigEndian64(limbs[i], pos);
  }
  for (size_t b = 0; b < len % 8; ++b) {
    *--pos = static_cast<uint8_t>(limbs[i] >> (8 * b));
  }
}

// ---- random ----

BigInt BigInt::Random(size_t bits, const RandFn& rand) {
  SLOC_CHECK_GT(bits, 0u);
  const size_t limbs = (bits + 63) / 64;
  LimbVec v(limbs);
  for (auto& limb : v) limb = rand();
  const size_t top_bits = bits - (limbs - 1) * 64;
  if (top_bits < 64) v.back() &= (1ULL << top_bits) - 1;
  v.back() |= 1ULL << (top_bits - 1);  // force exact bit length
  return FromLimbs(std::move(v));
}

std::vector<int8_t> BigInt::ToWnaf(unsigned width) const {
  std::vector<int8_t> digits;
  ToWnaf(width, &digits);
  return digits;
}

void BigInt::ToWnaf(unsigned width, std::vector<int8_t>* digits_out) const {
  SLOC_CHECK(width >= 2 && width <= 7) << "unsupported wNAF width";
  const size_t bits = BitLength();
  std::vector<int8_t>& digits = *digits_out;
  digits.assign(bits + 1, 0);
  const int32_t full = int32_t(1) << width;
  int carry = 0;
  size_t i = 0;
  while (i < bits || carry != 0) {
    if (i >= digits.size()) digits.resize(i + 1, 0);
    const int bit = (i < bits && Bit(i)) ? 1 : 0;
    if (bit == carry) {
      ++i;
      continue;
    }
    // The window value is odd here (low bit + carry == 1), so it never
    // reaches 2^width and the signed reduction below is exact.
    int32_t val = carry;
    for (unsigned j = 0; j < width && i + j < bits; ++j) {
      if (Bit(i + j)) val += int32_t(1) << j;
    }
    if (val >= full / 2) {
      digits[i] = int8_t(val - full);
      carry = 1;
    } else {
      digits[i] = int8_t(val);
      carry = 0;
    }
    i += width;
  }
}

BigInt BigInt::RandomBelow(const BigInt& bound, const RandFn& rand) {
  SLOC_CHECK(!bound.IsZero() && !bound.IsNegative());
  const size_t bits = bound.BitLength();
  const size_t limbs = (bits + 63) / 64;
  const size_t top_bits = bits - (limbs - 1) * 64;
  const uint64_t mask =
      top_bits >= 64 ? ~0ULL : ((1ULL << top_bits) - 1);
  // Rejection sampling: uniform in [0, 2^bits) until < bound.
  for (;;) {
    LimbVec v(limbs);
    for (auto& limb : v) limb = rand();
    v.back() &= mask;
    BigInt candidate = FromLimbs(std::move(v));
    if (Cmp(candidate, bound) < 0) return candidate;
  }
}

}  // namespace sloc
