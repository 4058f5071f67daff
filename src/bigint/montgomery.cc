#include "bigint/montgomery.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "bigint/cios_x86.h"
#include "common/check.h"

namespace sloc {

namespace {
using u128 = unsigned __int128;

// Inverse of odd x modulo 2^64 by Newton iteration.
uint64_t InverseMod2_64(uint64_t x) {
  SLOC_DCHECK(x & 1);
  uint64_t inv = x;  // correct to 3 bits
  for (int i = 0; i < 5; ++i) inv *= 2 - x * inv;
  return inv;
}

// ---- Fixed-width CIOS kernels ----
//
// K is a compile-time constant, so every `for (j < K)` loop below is
// fully unrolled and the K+2-word accumulator lives entirely in
// registers / stack slots. Inputs are exactly K limbs; out may alias
// a or b (the result is staged in a local array).

// Writes t (K limbs + overflow word `hi`) reduced mod N into out.
// Precondition of CIOS: t < 2N, so one conditional subtraction suffices.
template <size_t K>
inline void FinalReduce(const uint64_t* t, uint64_t hi, const uint64_t* n,
                        uint64_t* out) {
  uint64_t r[K];
  uint64_t borrow = 0;
  for (size_t j = 0; j < K; ++j) {
    uint64_t tj = t[j];
    uint64_t d = tj - n[j];
    uint64_t nb = (tj < n[j]);
    uint64_t d2 = d - borrow;
    nb |= (d < borrow);
    r[j] = d2;
    borrow = nb;
  }
  // t >= N exactly when the overflow word is set or K-limb t - N did
  // not borrow.
  const bool ge = hi != 0 || borrow == 0;
  for (size_t j = 0; j < K; ++j) out[j] = ge ? r[j] : t[j];
}

// CIOS Montgomery product: interleaves one row of a[i]*b with one
// reduction step, keeping the running value in K+2 words.
template <size_t K>
inline void CiosMul(const uint64_t* a, const uint64_t* b, const uint64_t* n,
                    uint64_t n0_inv, uint64_t* out) {
  uint64_t t[K + 2] = {0};
  for (size_t i = 0; i < K; ++i) {
    const uint64_t ai = a[i];
    uint64_t carry = 0;
    for (size_t j = 0; j < K; ++j) {
      u128 cur = static_cast<u128>(ai) * b[j] + t[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[K]) + carry;
    t[K] = static_cast<uint64_t>(cur);
    t[K + 1] = static_cast<uint64_t>(cur >> 64);

    const uint64_t m = t[0] * n0_inv;
    cur = static_cast<u128>(m) * n[0] + t[0];
    carry = static_cast<uint64_t>(cur >> 64);
    for (size_t j = 1; j < K; ++j) {
      cur = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    cur = static_cast<u128>(t[K]) + carry;
    t[K - 1] = static_cast<uint64_t>(cur);
    t[K] = t[K + 1] + static_cast<uint64_t>(cur >> 64);
  }
  FinalReduce<K>(t, t[K], n, out);
}

// Dedicated squaring: each off-diagonal product a[i]*a[j] (i < j) is
// computed once, the cross sum doubled with a single shift pass, the
// diagonal squares added, then an unrolled REDC reduces the 2K-word
// square. ~K(K-1)/2 fewer limb products than CiosMul(a, a).
template <size_t K>
inline void CiosSqr(const uint64_t* a, const uint64_t* n, uint64_t n0_inv,
                    uint64_t* out) {
  uint64_t t[2 * K] = {0};
  // Off-diagonal cross products.
  for (size_t i = 0; i < K; ++i) {
    const uint64_t ai = a[i];
    uint64_t carry = 0;
    for (size_t j = i + 1; j < K; ++j) {
      u128 cur = static_cast<u128>(ai) * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    t[i + K] = carry;  // first write to this word
  }
  // Double the cross sum: 2*sum_{i<j} <= a^2 < 2^(128K), no overflow.
  uint64_t bit = 0;
  for (size_t j = 0; j < 2 * K; ++j) {
    const uint64_t next = t[j] >> 63;
    t[j] = (t[j] << 1) | bit;
    bit = next;
  }
  SLOC_DCHECK(bit == 0);
  // Add the diagonal squares a[i]^2 at word position 2i.
  uint64_t carry = 0;
  for (size_t i = 0; i < K; ++i) {
    const u128 sq = static_cast<u128>(a[i]) * a[i];
    u128 cur = static_cast<u128>(t[2 * i]) + static_cast<uint64_t>(sq) + carry;
    t[2 * i] = static_cast<uint64_t>(cur);
    cur = static_cast<u128>(t[2 * i + 1]) + static_cast<uint64_t>(sq >> 64) +
          static_cast<uint64_t>(cur >> 64);
    t[2 * i + 1] = static_cast<uint64_t>(cur);
    carry = static_cast<uint64_t>(cur >> 64);
  }
  SLOC_DCHECK(carry == 0);  // a^2 fits in 2K words
  // Unrolled REDC of the 2K-word square.
  uint64_t hi = 0;  // virtual word t[2K]
  for (size_t i = 0; i < K; ++i) {
    const uint64_t m = t[i] * n0_inv;
    uint64_t c = 0;
    for (size_t j = 0; j < K; ++j) {
      u128 cur = static_cast<u128>(m) * n[j] + t[i + j] + c;
      t[i + j] = static_cast<uint64_t>(cur);
      c = static_cast<uint64_t>(cur >> 64);
    }
    for (size_t idx = i + K; c != 0 && idx < 2 * K; ++idx) {
      u128 cur = static_cast<u128>(t[idx]) + c;
      t[idx] = static_cast<uint64_t>(cur);
      c = static_cast<uint64_t>(cur >> 64);
    }
    hi += c;
  }
  FinalReduce<K>(t + K, hi, n, out);
}

}  // namespace

const char* MulKernelName(MulKernel kernel) {
  switch (kernel) {
    case MulKernel::kGeneric:
      return "generic";
    case MulKernel::kCios4:
      return "cios4";
    case MulKernel::kCios6:
      return "cios6";
    case MulKernel::kCios8:
      return "cios8";
    case MulKernel::kCios4Adx:
      return "cios4_adx";
    case MulKernel::kCios6Adx:
      return "cios6_adx";
    case MulKernel::kCios8Adx:
      return "cios8_adx";
  }
  return "unknown";
}

const char* MulKernelFamilyName(MulKernel kernel) {
  switch (kernel) {
    case MulKernel::kCios4Adx:
      return "cios4";
    case MulKernel::kCios6Adx:
      return "cios6";
    case MulKernel::kCios8Adx:
      return "cios8";
    default:
      return MulKernelName(kernel);
  }
}

size_t MulKernelWidth(MulKernel kernel) {
  switch (kernel) {
    case MulKernel::kGeneric:
      return 0;
    case MulKernel::kCios4:
    case MulKernel::kCios4Adx:
      return 4;
    case MulKernel::kCios6:
    case MulKernel::kCios6Adx:
      return 6;
    case MulKernel::kCios8:
    case MulKernel::kCios8Adx:
      return 8;
  }
  return 0;
}

bool MulKernelIsIntrinsic(MulKernel kernel) {
  return kernel == MulKernel::kCios4Adx || kernel == MulKernel::kCios6Adx ||
         kernel == MulKernel::kCios8Adx;
}

namespace {
std::atomic<KernelDispatch> g_dispatch{KernelDispatch::kAuto};
}  // namespace

void SetMulKernelDispatch(KernelDispatch policy) {
  g_dispatch.store(policy, std::memory_order_relaxed);
}

KernelDispatch GetMulKernelDispatch() {
  return g_dispatch.load(std::memory_order_relaxed);
}

Montgomery::Montgomery(BigInt modulus, size_t k, MulKernel kernel)
    : modulus_(std::move(modulus)), k_(k), kernel_(kernel) {
  n_ = modulus_.limbs();
  n_.resize(k_, 0);
  n0_inv_ = ~InverseMod2_64(n_[0]) + 1;  // -N^-1 mod 2^64
  // R mod N and R^2 mod N via BigInt division (setup only).
  BigInt r = BigInt(1) << (64 * k_);
  BigInt r_mod = BigInt::Mod(r, modulus_);
  BigInt r2_mod = BigInt::Mod(r_mod * r_mod, modulus_);
  one_ = r_mod.limbs();
  one_.resize(k_, 0);
  r2_ = r2_mod.limbs();
  r2_.resize(k_, 0);
  plain_one_ = Elem(k_, 0);
  plain_one_[0] = 1;
}

Result<Montgomery> Montgomery::Create(const BigInt& modulus) {
  const size_t k = modulus.NumLimbs();
  MulKernel kernel = MulKernel::kGeneric;
  const KernelDispatch policy = GetMulKernelDispatch();
  if (policy != KernelDispatch::kGenericOnly) {
    // The cpuid probe is cached after its first call, so dispatch here
    // costs a relaxed load + branch.
    const bool adx =
        policy == KernelDispatch::kAuto && cios_x86::Available();
    if (k == 4) kernel = adx ? MulKernel::kCios4Adx : MulKernel::kCios4;
    if (k == 6) kernel = adx ? MulKernel::kCios6Adx : MulKernel::kCios6;
    if (k == 8) kernel = adx ? MulKernel::kCios8Adx : MulKernel::kCios8;
  }
  return Create(modulus, kernel);
}

Result<Montgomery> Montgomery::Create(const BigInt& modulus,
                                      MulKernel kernel) {
  if (modulus.IsNegative() || BigInt::Cmp(modulus, BigInt(1)) <= 0) {
    return Status::InvalidArgument("Montgomery modulus must be > 1");
  }
  if (!modulus.IsOdd()) {
    return Status::InvalidArgument("Montgomery modulus must be odd");
  }
  const size_t k = modulus.NumLimbs();
  const size_t width = MulKernelWidth(kernel);
  if (width != 0 && width != k) {
    return Status::InvalidArgument(
        std::string("kernel ") + MulKernelName(kernel) +
        " requires a matching modulus width, got " + std::to_string(k) +
        " limbs");
  }
  if (MulKernelIsIntrinsic(kernel) && !cios_x86::Available()) {
    return Status::FailedPrecondition(
        std::string("kernel ") + MulKernelName(kernel) +
        " needs BMI2/ADX (not compiled in or not supported by this CPU)");
  }
  return Montgomery(modulus, k, kernel);
}

int Montgomery::CmpRaw(const uint64_t* a, const uint64_t* b) const {
  for (size_t i = k_; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

uint64_t Montgomery::SubRaw(uint64_t* a, const uint64_t* b, size_t k) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < k; ++i) {
    uint64_t ai = a[i];
    uint64_t d = ai - b[i];
    uint64_t nb = (ai < b[i]);
    uint64_t d2 = d - borrow;
    nb |= (d < borrow);
    a[i] = d2;
    borrow = nb;
  }
  return borrow;
}

bool Montgomery::IsZero(const Elem& a) const {
  return std::all_of(a.begin(), a.end(), [](uint64_t v) { return v == 0; });
}

bool Montgomery::Equal(const Elem& a, const Elem& b) const {
  SLOC_DCHECK(a.size() == k_ && b.size() == k_);
  return std::equal(a.begin(), a.end(), b.begin());
}

void Montgomery::Add(const Elem& a, const Elem& b, Elem* out) const {
  out->resize(k_);
  uint64_t carry = 0;
  for (size_t i = 0; i < k_; ++i) {
    u128 sum = static_cast<u128>(a[i]) + b[i] + carry;
    (*out)[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  if (carry || CmpRaw(out->data(), n_.data()) >= 0) {
    SubRaw(out->data(), n_.data(), k_);
  }
}

void Montgomery::Sub(const Elem& a, const Elem& b, Elem* out) const {
  out->resize(k_);
  std::copy(a.begin(), a.end(), out->begin());
  uint64_t borrow = SubRaw(out->data(), b.data(), k_);
  if (borrow) {
    // add modulus back
    uint64_t carry = 0;
    for (size_t i = 0; i < k_; ++i) {
      u128 sum = static_cast<u128>((*out)[i]) + n_[i] + carry;
      (*out)[i] = static_cast<uint64_t>(sum);
      carry = static_cast<uint64_t>(sum >> 64);
    }
  }
}

void Montgomery::Neg(const Elem& a, Elem* out) const {
  if (IsZero(a)) {
    *out = Zero();
    return;
  }
  out->resize(k_);
  std::copy(n_.begin(), n_.end(), out->begin());
  SubRaw(out->data(), a.data(), k_);
}

void Montgomery::Redc(uint64_t* t, Elem* out) const {
  for (size_t i = 0; i < k_; ++i) {
    uint64_t m = t[i] * n0_inv_;
    uint64_t carry = 0;
    for (size_t j = 0; j < k_; ++j) {
      u128 cur = static_cast<u128>(m) * n_[j] + t[i + j] + carry;
      t[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    // propagate carry
    size_t idx = i + k_;
    while (carry) {
      u128 cur = static_cast<u128>(t[idx]) + carry;
      t[idx] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
      ++idx;
    }
  }
  out->resize(k_);
  std::copy(t + k_, t + 2 * k_, out->begin());
  bool overflow = t[2 * k_] != 0;
  if (overflow || CmpRaw(out->data(), n_.data()) >= 0) {
    SubRaw(out->data(), n_.data(), k_);
  }
}

void Montgomery::MulGeneric(const Elem& a, const Elem& b, Elem* out) const {
  // 2k+1-limb product row: a stack array covers every fixed-width
  // modulus (k <= 8); only ultra-wide generic moduli heap-spill.
  uint64_t t_stack[2 * LimbVec::kInlineCapacity + 1];
  LimbVec t_heap;
  uint64_t* t = t_stack;
  if (2 * k_ + 1 > sizeof(t_stack) / sizeof(t_stack[0])) {
    t_heap.resize(2 * k_ + 1);
    t = t_heap.data();
  }
  std::fill(t, t + 2 * k_ + 1, 0);
  for (size_t i = 0; i < k_; ++i) {
    uint64_t carry = 0;
    uint64_t ai = a[i];
    if (ai != 0) {
      for (size_t j = 0; j < k_; ++j) {
        u128 cur = static_cast<u128>(ai) * b[j] + t[i + j] + carry;
        t[i + j] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
    }
    t[i + k_] += carry;
  }
  Redc(t, out);
}

void Montgomery::Mul(const Elem& a, const Elem& b, Elem* out) const {
  SLOC_DCHECK(a.size() == k_ && b.size() == k_);
  // Every fixed-width kernel accumulates internally and only writes out
  // during its final reduction, after the inputs are fully consumed —
  // so out may alias a or b even when the kernel writes it directly
  // (no staging copy on the hottest call in the tree).
  out->resize(k_);
  uint64_t* r = out->data();
  switch (kernel_) {
    case MulKernel::kCios4:
      CiosMul<4>(a.data(), b.data(), n_.data(), n0_inv_, r);
      return;
    case MulKernel::kCios6:
      CiosMul<6>(a.data(), b.data(), n_.data(), n0_inv_, r);
      return;
    case MulKernel::kCios8:
      CiosMul<8>(a.data(), b.data(), n_.data(), n0_inv_, r);
      return;
    case MulKernel::kCios4Adx:
      cios_x86::Mul4(a.data(), b.data(), n_.data(), n0_inv_, r);
      return;
    case MulKernel::kCios6Adx:
      cios_x86::Mul6(a.data(), b.data(), n_.data(), n0_inv_, r);
      return;
    case MulKernel::kCios8Adx:
      cios_x86::Mul8(a.data(), b.data(), n_.data(), n0_inv_, r);
      return;
    case MulKernel::kGeneric:
      break;
  }
  MulGeneric(a, b, out);
}

void Montgomery::Sqr(const Elem& a, Elem* out) const {
  SLOC_DCHECK(a.size() == k_);
  out->resize(k_);
  uint64_t* r = out->data();
  switch (kernel_) {
    case MulKernel::kCios4:
      CiosSqr<4>(a.data(), n_.data(), n0_inv_, r);
      return;
    case MulKernel::kCios6:
      CiosSqr<6>(a.data(), n_.data(), n0_inv_, r);
      return;
    case MulKernel::kCios8:
      CiosSqr<8>(a.data(), n_.data(), n0_inv_, r);
      return;
    case MulKernel::kCios4Adx:
      cios_x86::Sqr4(a.data(), n_.data(), n0_inv_, r);
      return;
    case MulKernel::kCios6Adx:
      cios_x86::Sqr6(a.data(), n_.data(), n0_inv_, r);
      return;
    case MulKernel::kCios8Adx:
      cios_x86::Sqr8(a.data(), n_.data(), n0_inv_, r);
      return;
    case MulKernel::kGeneric:
      break;
  }
  MulGeneric(a, a, out);
}

Montgomery::Elem Montgomery::ToMont(const BigInt& x) const {
  BigInt canon = BigInt::Mod(x, modulus_);
  Elem raw = canon.limbs();
  raw.resize(k_, 0);
  Elem out;
  Mul(raw, r2_, &out);  // x * R^2 * R^-1 = x * R
  return out;
}

Montgomery::Elem Montgomery::Canonical(const Elem& a) const {
  Elem out;
  Mul(a, plain_one_, &out);  // a * 1 * R^-1
  return out;
}

BigInt Montgomery::FromMont(const Elem& a) const {
  return BigInt::FromLimbs(Canonical(a));
}

bool Montgomery::FromCanonicalBytes(const uint8_t* bytes, size_t len,
                                    Elem* out) const {
  if (len > 8 * k_) return false;
  out->resize(k_);
  std::fill(out->begin(), out->end(), 0);
  BigEndianToLimbs(bytes, len, out->data());
  if (CmpRaw(out->data(), n_.data()) >= 0) return false;
  Mul(*out, r2_, out);  // x * R^2 * R^-1 = x * R, as ToMont
  return true;
}

void Montgomery::AppendCanonicalBytes(const Elem& a,
                                      std::vector<uint8_t>* out) const {
  const Elem c = Canonical(a);
  AppendMinimalBigEndian(c.data(), k_, out);
}

size_t Montgomery::CanonicalByteLength(const Elem& a) const {
  const Elem c = Canonical(a);
  return MinimalBigEndianLength(c.data(), k_);
}

Montgomery::Elem Montgomery::Pow(const Elem& base, const BigInt& exp) const {
  SLOC_CHECK(!exp.IsNegative()) << "negative exponent in Montgomery::Pow";
  Elem result = One();
  if (exp.IsZero()) return result;
  Elem acc;
  for (size_t i = exp.BitLength(); i-- > 0;) {
    Sqr(result, &acc);
    std::swap(result, acc);
    if (exp.Bit(i)) {
      Mul(result, base, &acc);
      std::swap(result, acc);
    }
  }
  return result;
}

}  // namespace sloc
