// Instantiates the AVX-512 IFMA lane walk. This is the only translation
// unit compiled with -mavx512f -mavx512ifma (per-file flags in
// CMakeLists.txt), so no AVX-512 instruction can run before the cpuid
// probe gates the walk. It includes nothing but its own plain header
// and <immintrin.h>: an inline function or template instantiated here
// would be compiled with AVX-512 and could be the copy the linker keeps
// for the rest of the program. With SLOC_NO_INTRINSICS defined, off
// x86-64, or without the compiler flags, the entry points become
// unreachable stubs and Available() is false.

#include "pairing/miller_ifma.h"

#include "common/cpu.h"

#if defined(__AVX512F__) && defined(__AVX512IFMA__) && \
    !defined(SLOC_NO_INTRINSICS)

#include <immintrin.h>

namespace sloc {
namespace miller_ifma {

namespace {

/// Eight field elements, one per lane: limb k of every lane in v[k].
struct Fe {
  __m512i v[kLimbs];
};

/// The field constants broadcast across the lanes once per walk.
struct Consts {
  Fe p;
  Fe two_p;
  Fe one;
  __m512i p_inv;
  __m512i mask;
};

Fe Broadcast(const uint64_t* limbs) {
  Fe r;
  for (size_t k = 0; k < kLimbs; ++k) {
    r.v[k] = _mm512_set1_epi64(int64_t(limbs[k]));
  }
  return r;
}

Fe Load(const uint64_t* src) {
  Fe r;
  for (size_t k = 0; k < kLimbs; ++k) {
    r.v[k] = _mm512_loadu_si512(src + k * kLanes);
  }
  return r;
}

void Store(const Fe& a, uint64_t* dst) {
  for (size_t k = 0; k < kLimbs; ++k) {
    _mm512_storeu_si512(dst + k * kLanes, a.v[k]);
  }
}

Consts MakeConsts(const LaneField& field) {
  Consts c;
  c.p = Broadcast(field.p);
  c.two_p = Broadcast(field.two_p);
  c.one = Broadcast(field.one);
  c.p_inv = _mm512_set1_epi64(int64_t(field.p_inv));
  c.mask = _mm512_set1_epi64(int64_t(kLimbMask));
  return c;
}

/// Limb >> 52, logical and arithmetic. The zero-masked forms with a
/// full mask are the plain shifts; gcc's unmasked intrinsics pass an
/// undefined source vector that trips -Wmaybe-uninitialized.
inline __m512i ShiftOut(__m512i a) {
  return _mm512_maskz_srli_epi64(0xFF, a, kLimbBits);
}
inline __m512i ShiftOutSigned(__m512i a) {
  return _mm512_maskz_srai_epi64(0xFF, a, kLimbBits);
}

/// Propagates carries so limbs 0-3 hold 52 bits each; the top limb
/// keeps the rest. Unsigned: every limb must be non-negative.
inline Fe Carry(Fe a, const Consts& c) {
  for (size_t k = 0; k + 1 < kLimbs; ++k) {
    a.v[k + 1] = _mm512_add_epi64(a.v[k + 1], ShiftOut(a.v[k]));
    a.v[k] = _mm512_and_si512(a.v[k], c.mask);
  }
  return a;
}

/// Carry for limbs that may be negative (two's complement): the
/// arithmetic shift moves borrows up; the top limb keeps the sign.
inline Fe SignedCarry(Fe a, const Consts& c) {
  for (size_t k = 0; k + 1 < kLimbs; ++k) {
    a.v[k + 1] = _mm512_add_epi64(a.v[k + 1], ShiftOutSigned(a.v[k]));
    a.v[k] = _mm512_and_si512(a.v[k], c.mask);
  }
  return a;
}

/// a + b, normalized (no modular reduction: bounds add).
inline Fe Add(const Fe& a, const Fe& b, const Consts& c) {
  Fe r;
  for (size_t k = 0; k < kLimbs; ++k) {
    r.v[k] = _mm512_add_epi64(a.v[k], b.v[k]);
  }
  return Carry(r, c);
}

/// a + 2p - b, normalized; non-negative whenever b < 2p.
inline Fe SubPlus2p(const Fe& a, const Fe& b, const Consts& c) {
  Fe r;
  for (size_t k = 0; k < kLimbs; ++k) {
    r.v[k] =
        _mm512_sub_epi64(_mm512_add_epi64(a.v[k], c.two_p.v[k]), b.v[k]);
  }
  return SignedCarry(r, c);
}

/// a - m where a >= m, else a (lane-wise); a normalized.
inline Fe CondSub(const Fe& a, const Fe& m, const Consts& c) {
  Fe d;
  for (size_t k = 0; k < kLimbs; ++k) {
    d.v[k] = _mm512_sub_epi64(a.v[k], m.v[k]);
  }
  d = SignedCarry(d, c);
  const __mmask8 ge =
      _mm512_cmpge_epi64_mask(d.v[kLimbs - 1], _mm512_setzero_si512());
  Fe r;
  for (size_t k = 0; k < kLimbs; ++k) {
    r.v[k] = _mm512_mask_blend_epi64(ge, a.v[k], d.v[k]);
  }
  return r;
}

/// Montgomery product a * b * 2^-260 mod p. Operand scanning, then a
/// word-by-word reduction on the same ten accumulators: each step picks
/// m so that limb i becomes a multiple of 2^52 and carries it up.
/// Requires normalized limbs and a * b < p * 2^260; returns a
/// normalized value below a * b / 2^260 + p, i.e. below 2p.
inline Fe Mul(const Fe& a, const Fe& b, const Consts& c) {
  const __m512i zero = _mm512_setzero_si512();
  __m512i t[2 * kLimbs];
  for (size_t k = 0; k < 2 * kLimbs; ++k) t[k] = zero;
  for (size_t i = 0; i < kLimbs; ++i) {
    for (size_t j = 0; j < kLimbs; ++j) {
      t[i + j] = _mm512_madd52lo_epu64(t[i + j], a.v[i], b.v[j]);
      t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], a.v[i], b.v[j]);
    }
  }
  for (size_t i = 0; i < kLimbs; ++i) {
    const __m512i m = _mm512_madd52lo_epu64(zero, t[i], c.p_inv);
    for (size_t j = 0; j < kLimbs; ++j) {
      t[i + j] = _mm512_madd52lo_epu64(t[i + j], m, c.p.v[j]);
      t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], m, c.p.v[j]);
    }
    t[i + 1] = _mm512_add_epi64(t[i + 1], ShiftOut(t[i]));
  }
  Fe r;
  for (size_t k = 0; k < kLimbs; ++k) r.v[k] = t[kLimbs + k];
  return Carry(r, c);
}

/// f <- f^2 in F_p^2 = F_p(i): (a + b)(a - b) + 2ab i. Components stay
/// below 2p: the product inputs are below 4p.
inline void Sqr2(Fe* re, Fe* im, const Consts& c) {
  const Fe sum = Add(*re, *im, c);
  const Fe diff = SubPlus2p(*re, *im, c);
  const Fe ab = Mul(*re, *im, c);
  *re = Mul(sum, diff, c);
  *im = CondSub(Add(ab, ab, c), c.two_p, c);
}

/// f <- f * line for one packed line at this pair's lane coordinates:
/// line = (c_x * xq + c_0) + y_im i, Karatsuba over F_p(i).
inline void MulLine(Fe* re, Fe* im, const uint64_t* line,
                    const uint64_t* coords, const Consts& c) {
  if ((line[0] & kTrivialLine) != 0) return;
  const Fe xq = Load(coords);                  // 16 * xq, below 16p
  const Fe y = Load(coords + kLimbs * kLanes);  // below p
  // c_x < p times xq < 16p stays under p * 2^260; plus c_0 < p: < 3p.
  const Fe l_re =
      Add(Mul(Broadcast(line), xq, c), Broadcast(line + kLimbs), c);
  const Fe t0 = Mul(*re, l_re, c);           // 2p * 3p
  const Fe t1 = Mul(*im, y, c);              // 2p * p
  const Fe t2 = Mul(Add(*re, *im, c), Add(l_re, y, c), c);  // 4p * 4p
  *re = CondSub(SubPlus2p(t0, t1, c), c.two_p, c);
  const Fe u = CondSub(SubPlus2p(t2, t0, c), c.two_p, c);
  *im = CondSub(SubPlus2p(u, t1, c), c.two_p, c);
}

}  // namespace

bool Available() { return CpuHasAvx512Ifma(); }

void MulLanes(const LaneField& field, const uint64_t* a, const uint64_t* b,
              uint64_t* out) {
  const Consts c = MakeConsts(field);
  Store(Mul(Load(a), Load(b), c), out);
}

void Walk8(const LaneField& field, const uint8_t* adds, size_t steps,
           const uint64_t* const* tables, const uint64_t* coords,
           size_t num_pairs, uint64_t* out) {
  const Consts c = MakeConsts(field);
  Fe re = c.one;
  Fe im;
  for (size_t k = 0; k < kLimbs; ++k) im.v[k] = _mm512_setzero_si512();
  size_t line = 0;
  auto apply = [&]() {
    for (size_t k = 0; k < num_pairs; ++k) {
      MulLine(&re, &im, tables[k] + line * kLineWords,
              coords + k * kCoordWords, c);
    }
    ++line;
  };
  for (size_t s = 0; s < steps; ++s) {
    Sqr2(&re, &im, c);
    apply();
    if (adds[s] != 0) apply();
  }
  Store(CondSub(re, c.p, c), out);
  Store(CondSub(im, c.p, c), out + kLimbs * kLanes);
}

}  // namespace miller_ifma
}  // namespace sloc

#else  // stub build

#include <cstdlib>

#include "common/check.h"

namespace sloc {
namespace miller_ifma {

namespace {
[[noreturn]] void Unreachable() {
  SLOC_CHECK(false) << "AVX-512 IFMA walk called but not compiled in";
  std::abort();  // unreachable; keeps [[noreturn]] honest for compilers
}
}  // namespace

bool Available() { return false; }

void MulLanes(const LaneField&, const uint64_t*, const uint64_t*,
              uint64_t*) {
  Unreachable();
}

void Walk8(const LaneField&, const uint8_t*, size_t, const uint64_t* const*,
           const uint64_t*, size_t, uint64_t*) {
  Unreachable();
}

}  // namespace miller_ifma
}  // namespace sloc

#endif
