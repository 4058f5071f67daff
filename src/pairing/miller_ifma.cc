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

/// An unreduced 5x5-limb product: ten radix-2^52 accumulators, limb k
/// of weight 2^(52k). A product's limbs are each below 2^56; signed
/// combinations of products (MulLine) may make limbs negative.
struct Wide {
  __m512i v[2 * kLimbs];
};

/// The field constants broadcast across the lanes once per walk.
struct Consts {
  Fe p;
  Fe two_p;
  Fe four_p;
  Fe eight_p;
  Fe one;
  Wide four_p_sq;
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

Fe Zero() {
  Fe r;
  for (size_t k = 0; k < kLimbs; ++k) r.v[k] = _mm512_setzero_si512();
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
  c.four_p = Broadcast(field.four_p);
  c.eight_p = Broadcast(field.eight_p);
  c.one = Broadcast(field.one);
  for (size_t k = 0; k < 2 * kLimbs; ++k) {
    c.four_p_sq.v[k] = _mm512_set1_epi64(int64_t(field.four_p_sq[k]));
  }
  c.p_inv = _mm512_set1_epi64(int64_t(field.p_inv));
  c.mask = _mm512_set1_epi64(int64_t(kLimbMask));
  return c;
}

/// Limb >> 52, arithmetic, so a negative limb carries a borrow. The
/// zero-masked form with a full mask is the plain shift; gcc's unmasked
/// intrinsic passes an undefined source vector that trips
/// -Wmaybe-uninitialized.
inline __m512i ShiftOut(__m512i a) {
  return _mm512_maskz_srai_epi64(0xFF, a, kLimbBits);
}

/// Propagates carries so limbs 0-3 hold 52 bits each; the top limb
/// keeps the rest. Limbs may be negative (two's complement): borrows
/// move up and the top limb keeps the sign.
inline Fe Carry(Fe a, const Consts& c) {
  for (size_t k = 0; k + 1 < kLimbs; ++k) {
    a.v[k + 1] = _mm512_add_epi64(a.v[k + 1], ShiftOut(a.v[k]));
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

/// a + m - b, normalized; non-negative whenever b <= m.
inline Fe SubPlus(const Fe& a, const Fe& b, const Fe& m, const Consts& c) {
  Fe r;
  for (size_t k = 0; k < kLimbs; ++k) {
    r.v[k] = _mm512_sub_epi64(_mm512_add_epi64(a.v[k], m.v[k]), b.v[k]);
  }
  return Carry(r, c);
}

/// a + 2p - b, normalized; non-negative whenever b <= 2p.
inline Fe SubPlus2p(const Fe& a, const Fe& b, const Consts& c) {
  return SubPlus(a, b, c.two_p, c);
}

/// a - m where a >= m, else a (lane-wise); a normalized.
inline Fe CondSub(const Fe& a, const Fe& m, const Consts& c) {
  Fe d;
  for (size_t k = 0; k < kLimbs; ++k) {
    d.v[k] = _mm512_sub_epi64(a.v[k], m.v[k]);
  }
  d = Carry(d, c);
  const __mmask8 ge =
      _mm512_cmpge_epi64_mask(d.v[kLimbs - 1], _mm512_setzero_si512());
  Fe r;
  for (size_t k = 0; k < kLimbs; ++k) {
    r.v[k] = _mm512_mask_blend_epi64(ge, a.v[k], d.v[k]);
  }
  return r;
}

/// t += a * b on ten accumulators, operand scanning: VPMADD52LUQ adds
/// the low half of a limb product into limb i + j, VPMADD52HUQ the high
/// half into limb i + j + 1. Requires normalized limbs.
inline void MulWideAcc(Wide* t, const Fe& a, const Fe& b) {
  for (size_t i = 0; i < kLimbs; ++i) {
    for (size_t j = 0; j < kLimbs; ++j) {
      t->v[i + j] = _mm512_madd52lo_epu64(t->v[i + j], a.v[i], b.v[j]);
      t->v[i + j + 1] =
          _mm512_madd52hi_epu64(t->v[i + j + 1], a.v[i], b.v[j]);
    }
  }
}

/// a * b as ten accumulators. Requires normalized limbs.
inline Wide MulWide(const Fe& a, const Fe& b) {
  Wide t;
  for (size_t k = 0; k < 2 * kLimbs; ++k) t.v[k] = _mm512_setzero_si512();
  MulWideAcc(&t, a, b);
  return t;
}

/// Montgomery reduction T * 2^-260 mod p, word by word on the same ten
/// accumulators: each step picks m so that limb i becomes a multiple of
/// 2^52 and carries it up (an arithmetic shift, so limbs may be
/// negative). Requires T >= 0; returns a value below T / 2^260 + p
/// (below 2p when T < p * 2^260), normalized when that is below 2^260.
inline Fe Redc(Wide t, const Consts& c) {
  const __m512i zero = _mm512_setzero_si512();
  for (size_t i = 0; i < kLimbs; ++i) {
    const __m512i m = _mm512_madd52lo_epu64(zero, t.v[i], c.p_inv);
    for (size_t j = 0; j < kLimbs; ++j) {
      t.v[i + j] = _mm512_madd52lo_epu64(t.v[i + j], m, c.p.v[j]);
      t.v[i + j + 1] = _mm512_madd52hi_epu64(t.v[i + j + 1], m, c.p.v[j]);
    }
    t.v[i + 1] = _mm512_add_epi64(t.v[i + 1], ShiftOut(t.v[i]));
  }
  Fe r;
  for (size_t k = 0; k < kLimbs; ++k) r.v[k] = t.v[kLimbs + k];
  return Carry(r, c);
}

/// Montgomery product a * b * 2^-260 mod p. Requires normalized limbs
/// and a * b < p * 2^260; returns a normalized value below 2p.
inline Fe Mul(const Fe& a, const Fe& b, const Consts& c) {
  return Redc(MulWide(a, b), c);
}

/// f <- f^2 in F_p^2 = F_p(i): (a + b)(a - b) + 2ab i. Components stay
/// below 2p: the product inputs are below 4p, and 2a * b < 8p^2.
inline void Sqr2(Fe* re, Fe* im, const Consts& c) {
  const Fe sum = Add(*re, *im, c);
  const Fe diff = SubPlus2p(*re, *im, c);
  *im = Mul(Add(*re, *re, c), *im, c);
  *re = Mul(sum, diff, c);
}

/// f <- f * (l_re + l_im i) in F_p(i), Karatsuba with lazy reduction:
/// the three products stay wide, re' = t0 - t1 + 4p^2 and
/// im' = t2 - t0 - t1 are formed on signed limbs and each reduced once
/// (header, "Lazy reduction"). Requires re and im below 2p, l_re below
/// 4.07p and l_im below 1.125p; re' and im' come out below 2p.
inline void MulByLine(Fe* re, Fe* im, const Fe& l_re, const Fe& l_im,
                      const Consts& c) {
  const Wide t0 = MulWide(*re, l_re);                             // re * l_re
  const Wide t1 = MulWide(*im, l_im);                             // im * l_im
  const Wide t2 = MulWide(Add(*re, *im, c), Add(l_re, l_im, c));  // < 2^260
  Wide r, i;
  for (size_t k = 0; k < 2 * kLimbs; ++k) {
    r.v[k] = _mm512_add_epi64(_mm512_sub_epi64(t0.v[k], t1.v[k]),
                              c.four_p_sq.v[k]);
    i.v[k] = _mm512_sub_epi64(t2.v[k], _mm512_add_epi64(t0.v[k], t1.v[k]));
  }
  *re = Redc(r, c);  // re * l_re - im * l_im + 4p^2, in (0, 12.2p^2)
  *im = Redc(i, c);  // re * l_im + im * l_re, in [0, 10.4p^2)
}

/// f <- f * line for one packed line at this pair's lane coordinates:
/// line = (c_x * xq + c_0) + y_im i.
inline void MulLine(Fe* re, Fe* im, const uint64_t* line,
                    const uint64_t* coords, const Consts& c) {
  if ((line[0] & kTrivialLine) != 0) return;
  const Fe xq = Load(coords);               // 16 * xq, below 16p
  const Fe y = Load(coords + kElemWords);  // below p
  // c_x < p times xq < 16p stays under p * 2^260; plus c_0 < p: < 3p.
  const Fe l_re =
      Add(Mul(Broadcast(line), xq, c), Broadcast(line + kLimbs), c);
  MulByLine(re, im, l_re, y, c);
}

/// The merged line of one step at a pair's completed lane coordinates
/// (xq, y, xq^2, ny2 = -y^2, xq y): l_re = A * xq^2 + B * xq + C + ny2
/// and l_im = D * xq y + E * y, each sum of products reduced once
/// (header, "Lazy reduction"). Requires A..E below p; l_re comes out
/// below 4.07p and l_im below 1.125p.
inline void MergedLine(const Fe& a, const Fe& b, const Fe& cc, const Fe& d,
                       const Fe& e, const uint64_t* coords, const Consts& c,
                       Fe* l_re, Fe* l_im) {
  Wide t = MulWide(a, Load(coords + 2 * kElemWords));  // A * xq^2 < p^2
  MulWideAcc(&t, b, Load(coords));                     // B * 16xq < 16p^2
  *l_re = Add(Add(Redc(t, c), cc, c), Load(coords + 3 * kElemWords), c);
  Wide u = MulWide(d, Load(coords + 4 * kElemWords));  // D * xq y < p^2
  MulWideAcc(&u, e, Load(coords + kElemWords));        // E * y < p^2
  *l_im = Redc(u, c);
}

/// f <- f * step for one packed merged record at this pair's lane
/// coordinates: both lines of the step, as one product unless the
/// record holds them apart (kSplitStep).
inline void MulStep(Fe* re, Fe* im, const uint64_t* rec,
                    const uint64_t* coords, const Consts& c) {
  if (rec[0] == kSplitStep) {
    MulLine(re, im, rec + 1, coords, c);
    MulLine(re, im, rec + 1 + kLineWords, coords, c);
    return;
  }
  Fe l_re, l_im;
  MergedLine(Broadcast(rec), Broadcast(rec + kLimbs),
             Broadcast(rec + 2 * kLimbs), Broadcast(rec + 3 * kLimbs),
             Broadcast(rec + 4 * kLimbs), coords, c, &l_re, &l_im);
  MulByLine(re, im, l_re, l_im, c);
}

/// Whether step `s` of a `steps`-step schedule is packed as a merged
/// record: it has an addition line and is not the last step.
inline bool MergedStep(const int8_t* adds, size_t s, size_t steps) {
  return adds[s] != 0 && s + 1 < steps;
}

/// a below 4p, brought below 2p.
inline Fe Reduce4p(const Fe& a, const Consts& c) {
  return CondSub(a, c.two_p, c);
}

/// a below 2p, brought below p (canonical).
inline Fe Canon(const Fe& a, const Consts& c) { return CondSub(a, c.p, c); }

/// a below 8p, brought below 2p.
inline Fe Reduce8p(const Fe& a, const Consts& c) {
  return CondSub(CondSub(a, c.four_p, c), c.two_p, c);
}

/// Lanes where a (below 2p) is 0 mod p.
inline __mmask8 ZeroModP(const Fe& a, const Consts& c) {
  const Fe r = CondSub(a, c.p, c);
  __m512i any = r.v[0];
  for (size_t k = 1; k < kLimbs; ++k) any = _mm512_or_si512(any, r.v[k]);
  return _mm512_cmpeq_epi64_mask(any, _mm512_setzero_si512());
}

/// Lane-wise a if mask bit clear, b if set.
inline Fe Blend(__mmask8 mask, const Fe& a, const Fe& b) {
  Fe r;
  for (size_t k = 0; k < kLimbs; ++k) {
    r.v[k] = _mm512_mask_blend_epi64(mask, a.v[k], b.v[k]);
  }
  return r;
}

/// The Jacobian point T of eight chains, every coordinate below 2p.
struct Point {
  Fe x, y, z;
};

/// One recorded line, (c_x * xq + c_0) + (c_y * yq_im) i.
struct Line {
  Fe c_x, c_0, c_y;
};

/// T <- 2T and its tangent line, the formulas of the scalar chain
/// (pairing/miller.cc, DoubleCore and DoubleStepLines): A = Y^2,
/// B = 4XA, C = 8A^2, D = 3X^2 + aZ^4, X3 = D^2 - 2B,
/// Y3 = D(B - X3) - C, Z3 = 2YZ; c_x = -DZ^2, c_0 = DX - 2A,
/// c_y = Z3 Z^2. Bounds are noted per value (header, "Chain
/// compilation").
inline Line DoubleLanes(Point* t, const Fe& curve_a, const Consts& c) {
  const Fe zero = Zero();
  const Fe a = Mul(t->y, t->y, c);                        // < 2p
  const Fe a2 = Add(a, a, c);                             // < 4p
  const Fe b = Mul(t->x, Add(a2, a2, c), c);              // 2p * 8p
  const Fe a2_sq = Mul(a2, a2, c);                        // 4p * 4p
  const Fe cc = Add(a2_sq, a2_sq, c);                     // < 4p
  const Fe x2 = Mul(t->x, t->x, c);
  const Fe zz = Mul(t->z, t->z, c);
  const Fe az4 = Mul(curve_a, Mul(zz, zz, c), c);         // p * 2p
  const Fe d = Reduce8p(Add(Add(Add(x2, x2, c), x2, c), az4, c), c);
  const Fe x3 = Reduce8p(SubPlus(Mul(d, d, c), Add(b, b, c), c.four_p, c),
                         c);                              // < 6p -> 2p
  const Fe y3 = Reduce8p(
      SubPlus(Mul(d, SubPlus2p(b, x3, c), c), cc, c.four_p, c), c);
  const Fe yz = Mul(t->y, t->z, c);
  const Fe z3 = Reduce4p(Add(yz, yz, c), c);
  Line line;
  line.c_x = SubPlus2p(zero, Mul(d, zz, c), c);                // <= 2p
  line.c_0 = SubPlus(Mul(d, t->x, c), a2, c.four_p, c);        // < 6p
  line.c_y = Mul(z3, zz, c);
  *t = Point{x3, y3, z3};
  return line;
}

/// T <- T + A (A affine, x below p and y at most p) and the line
/// through them, the formulas of AddCore and AddStepLines: H = xa Z^2 - X,
/// R = ya Z^3 - Y, X3 = R^2 - H^3 - 2 X H^2, Y3 = R(X H^2 - X3) - Y H^3,
/// Z3 = Z H; c_x = -R, c_0 = R xa - Z3 ya, c_y = Z3. `h_zero` and
/// `r_zero`, when given, receive the lanes where H and R are 0 mod p.
inline Line AddLanes(Point* t, const Fe& xa, const Fe& ya, const Consts& c,
                     __mmask8* h_zero, __mmask8* r_zero) {
  const Fe zero = Zero();
  const Fe zz = Mul(t->z, t->z, c);
  const Fe zcu = Mul(zz, t->z, c);
  const Fe h = Reduce4p(SubPlus2p(Mul(xa, zz, c), t->x, c), c);
  const Fe r = Reduce4p(SubPlus2p(Mul(ya, zcu, c), t->y, c), c);
  if (h_zero != nullptr) {
    *h_zero = ZeroModP(h, c);
    *r_zero = ZeroModP(r, c);
  }
  const Fe h2 = Mul(h, h, c);
  const Fe h3 = Mul(h2, h, c);
  const Fe u1h2 = Mul(t->x, h2, c);
  const Fe x3 = Reduce8p(SubPlus(SubPlus2p(Mul(r, r, c), h3, c),
                                 Add(u1h2, u1h2, c), c.four_p, c),
                         c);                              // < 8p -> 2p
  const Fe y3 = Reduce4p(SubPlus2p(Mul(r, SubPlus2p(u1h2, x3, c), c),
                                   Mul(t->y, h3, c), c),
                         c);
  const Fe z3 = Mul(t->z, h, c);
  Line line;
  line.c_x = SubPlus2p(zero, r, c);                                 // <= 2p
  line.c_0 = SubPlus2p(Mul(r, xa, c), Mul(z3, ya, c), c);           // < 4p
  line.c_y = z3;
  *t = Point{x3, y3, z3};
  return line;
}

}  // namespace

bool Available() { return CpuHasAvx512Ifma(); }

void MulLanes(const LaneField& field, const uint64_t* a, const uint64_t* b,
              uint64_t* out) {
  const Consts c = MakeConsts(field);
  Store(Mul(Load(a), Load(b), c), out);
}

void MulLineLanes(const LaneField& field, const uint64_t* f,
                  const uint64_t* line, uint64_t* out) {
  const Consts c = MakeConsts(field);
  Fe re = Load(f);
  Fe im = Load(f + kElemWords);
  MulByLine(&re, &im, Load(line), Load(line + kElemWords), c);
  Store(re, out);
  Store(im, out + kElemWords);
}

void MulMergedLanes(const LaneField& field, const uint64_t* f,
                    const uint64_t* record, const uint64_t* coords,
                    uint64_t* out) {
  const Consts c = MakeConsts(field);
  Fe re = Load(f);
  Fe im = Load(f + kElemWords);
  Fe l_re, l_im;
  MergedLine(Load(record), Load(record + kElemWords),
             Load(record + 2 * kElemWords), Load(record + 3 * kElemWords),
             Load(record + 4 * kElemWords), coords, c, &l_re, &l_im);
  MulByLine(&re, &im, l_re, l_im, c);
  Store(re, out);
  Store(im, out + kElemWords);
}

void CompleteCoords(const LaneField& field, size_t num_pairs,
                    uint64_t* coords) {
  const Consts c = MakeConsts(field);
  for (size_t k = 0; k < num_pairs; ++k) {
    uint64_t* pair = coords + k * kCoordWords;
    const Fe xq = Load(pair);               // 16 * xq, below 16p
    const Fe y = Load(pair + kElemWords);  // below p
    // 16xq * 16xq < 256p^2 reduces to below 17p: back to canonical by
    // subtracting 8p (twice), 4p, 2p and p.
    const Fe* const steps[] = {&c.eight_p, &c.eight_p, &c.four_p, &c.two_p,
                               &c.p};
    Fe xq2 = Mul(xq, xq, c);
    for (const Fe* m : steps) xq2 = CondSub(xq2, *m, c);
    Store(xq2, pair + 2 * kElemWords);
    Store(SubPlus(Zero(), Canon(Mul(y, y, c), c), c.p, c),
          pair + 3 * kElemWords);
    Store(Canon(Mul(xq, y, c), c), pair + 4 * kElemWords);
  }
}

void Walk8(const LaneField& field, const int8_t* adds, size_t steps,
           const uint64_t* const* tables, const uint64_t* coords,
           size_t num_pairs, uint64_t* out) {
  const Consts c = MakeConsts(field);
  Fe re = c.one;
  Fe im = Zero();
  size_t off = 0;  // word offset of the current record in every table
  auto apply = [&]() {
    for (size_t k = 0; k < num_pairs; ++k) {
      MulLine(&re, &im, tables[k] + off, coords + k * kCoordWords, c);
    }
    off += kLineWords;
  };
  for (size_t s = 0; s < steps; ++s) {
    Sqr2(&re, &im, c);
    if (MergedStep(adds, s, steps)) {
      for (size_t k = 0; k < num_pairs; ++k) {
        MulStep(&re, &im, tables[k] + off, coords + k * kCoordWords, c);
      }
      off += kMergedWords;
      continue;
    }
    apply();
    if (adds[s] != 0) apply();
  }
  Store(Canon(re, c), out);
  Store(Canon(im, c), out + kElemWords);
}

uint8_t Chain8(const LaneField& field, const uint64_t* curve_a,
               const int8_t* adds, size_t steps, const uint64_t* points,
               uint64_t* lines, uint64_t* product) {
  const Consts c = MakeConsts(field);
  const Fe a = Broadcast(curve_a);
  const Fe xa = Load(points);
  const Fe ya = Load(points + kElemWords);
  const Fe neg_ya = SubPlus(Zero(), ya, c.p, c);  // -A's y: p - ya, <= p
  Point t{xa, ya, c.one};
  Fe prod = c.one;
  uint64_t* rec = lines;
  auto record = [&](const Line& line) {
    Store(line.c_x, rec);
    Store(line.c_0, rec + kElemWords);
    Store(line.c_y, rec + 2 * kElemWords);
    Store(prod, rec + 3 * kElemWords);
    prod = Mul(prod, line.c_y, c);
    rec += kChainLineWords;
  };
  __mmask8 vertical = 0;
  for (size_t s = 0; s < steps; ++s) {
    record(DoubleLanes(&t, a, c));
    if (adds[s] == 0) continue;
    // A -1 digit adds -A: the chord through T and -A.
    const Fe& y = adds[s] > 0 ? ya : neg_ya;
    if (s + 1 < steps) {
      record(AddLanes(&t, xa, y, c, nullptr, nullptr));
      continue;
    }
    // The final addition: T = -(+-A) is the chain's closing vertical
    // line, recorded with c_y = 1 so the lane's product stays invertible.
    __mmask8 h_zero = 0, r_zero = 0;
    Line line = AddLanes(&t, xa, y, c, &h_zero, &r_zero);
    vertical = __mmask8(h_zero & ~r_zero);
    line.c_y = Blend(vertical, line.c_y, c.one);
    record(line);
  }
  Store(Canon(prod, c), product);
  return uint8_t(vertical);
}

void Normalize8(const LaneField& field, const int8_t* adds, size_t steps,
                const uint64_t* lines, const uint64_t* inv,
                uint64_t* const* tables) {
  const Consts c = MakeConsts(field);
  size_t line = 0, off = 0;  // past the last line and the last record
  for (size_t s = 0; s < steps; ++s) {
    line += adds[s] != 0 ? 2 : 1;
    off += MergedStep(adds, s, steps) ? kMergedWords
                                      : (adds[s] != 0 ? 2 : 1) * kLineWords;
  }
  // Walk back: before line j, acc is (prefix_j)^-1, where prefix_j is
  // the product of c_y over lines 0..j; then c_y_j^-1 = acc * prefix_{j-1}.
  Fe acc = Load(inv);
  // The previous line's (c_x / c_y, c_0 / c_y), each below 2p.
  auto normalize_prev = [&](Fe* n_x, Fe* n_0) {
    const uint64_t* rec = lines + --line * kChainLineWords;
    const Fe c_y_inv = Mul(acc, Load(rec + 3 * kElemWords), c);
    acc = Mul(acc, Load(rec + 2 * kElemWords), c);
    *n_x = Mul(Load(rec), c_y_inv, c);
    *n_0 = Mul(Load(rec + kElemWords), c_y_inv, c);
  };
  alignas(64) uint64_t words[kMergedWords * kLanes];
  // Moves the previous record's `count` words out of `words`, lane by
  // lane.
  auto scatter = [&](size_t count) {
    off -= count;
    for (size_t lane = 0; lane < kLanes; ++lane) {
      if (tables[lane] == nullptr) continue;
      uint64_t* dst = tables[lane] + off;
      for (size_t w = 0; w < count; ++w) dst[w] = words[w * kLanes + lane];
    }
  };
  for (size_t s = steps; s-- > 0;) {
    if (MergedStep(adds, s, steps)) {
      Fe x1, o1, x2, o2;
      normalize_prev(&x2, &o2);  // the addition line
      normalize_prev(&x1, &o1);  // the doubling line
      // Products of two values below 2p: below 4p^2, and the two of B
      // below 8p^2, so each comes out below 2p. Sums are below 4p.
      Wide b = MulWide(x1, o2);
      MulWideAcc(&b, o1, x2);
      Store(Canon(Mul(x1, x2, c), c), words);
      Store(Canon(Redc(b, c), c), words + kElemWords);
      Store(Canon(Mul(o1, o2, c), c), words + 2 * kElemWords);
      Store(Canon(Reduce4p(Add(x1, x2, c), c), c), words + 3 * kElemWords);
      Store(Canon(Reduce4p(Add(o1, o2, c), c), c), words + 4 * kElemWords);
      scatter(kMergedWords);
      continue;
    }
    for (int l = adds[s] != 0 ? 2 : 1; l > 0; --l) {
      Fe n_x, n_0;
      normalize_prev(&n_x, &n_0);
      Store(Canon(n_x, c), words);
      Store(Canon(n_0, c), words + kElemWords);
      scatter(kLineWords);
    }
  }
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

void MulLineLanes(const LaneField&, const uint64_t*, const uint64_t*,
                  uint64_t*) {
  Unreachable();
}

void MulMergedLanes(const LaneField&, const uint64_t*, const uint64_t*,
                    const uint64_t*, uint64_t*) {
  Unreachable();
}

void CompleteCoords(const LaneField&, size_t, uint64_t*) { Unreachable(); }

void Walk8(const LaneField&, const int8_t*, size_t, const uint64_t* const*,
           const uint64_t*, size_t, uint64_t*) {
  Unreachable();
}

uint8_t Chain8(const LaneField&, const uint64_t*, const int8_t*, size_t,
               const uint64_t*, uint64_t*, uint64_t*) {
  Unreachable();
}

void Normalize8(const LaneField&, const int8_t*, size_t, const uint64_t*,
                const uint64_t*, uint64_t* const*) {
  Unreachable();
}

}  // namespace miller_ifma
}  // namespace sloc

#endif
