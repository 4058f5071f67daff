#include "pairing/miller.h"

#include <utility>

#include "bigint/montgomery.h"
#include "common/check.h"

namespace sloc {

namespace {

/// State threaded through a Miller loop: the shared contexts plus the
/// distorted coordinates of the evaluation point.
struct LoopCtx {
  const Curve& curve;
  const Fp& fp;
  const Fp2& fp2;
  Fp::Elem xq;     // x-coordinate of phi(B) = -x_B (in F_p)
  Fp::Elem yq_im;  // imaginary coefficient of phi(B)'s y = y_B
};

/// Intermediates of one doubling step that the line (in either evaluated
/// or coefficient form) needs, all taken from the state *before* the
/// step: A = Y^2, D = 3X^2 + a Z^4, zz = Z^2, and the old X.
struct DblAux {
  Fp::Elem A;
  Fp::Elem D;
  Fp::Elem zz;
  Fp::Elem x_old;
};

/// Advances T <- 2T (Jacobian), filling `aux` from the pre-step state.
/// Returns false when T was the identity or 2-torsion: T becomes the
/// identity and the step contributes no line.
bool DoubleCore(const Curve& curve, JacobianPoint* t, DblAux* aux) {
  const Fp& fp = curve.fp();
  if (curve.IsInfinity(*t) || fp.IsZero(t->Y)) {
    *t = JacobianPoint{fp.One(), fp.One(), fp.Zero()};
    return false;
  }
  Fp::Elem B, C, tmp, z4;
  fp.Sqr(t->Y, &aux->A);               // Y^2
  fp.Mul(t->X, aux->A, &tmp);
  fp.MulSmall(tmp, 4, &B);             // 4 X Y^2
  fp.Sqr(aux->A, &tmp);
  fp.MulSmall(tmp, 8, &C);             // 8 Y^4
  fp.Sqr(t->X, &tmp);
  Fp::Elem three_x2;
  fp.MulSmall(tmp, 3, &three_x2);
  fp.Sqr(t->Z, &aux->zz);              // Z^2
  fp.Sqr(aux->zz, &z4);
  fp.Mul(curve.a(), z4, &tmp);
  fp.Add(three_x2, tmp, &aux->D);      // D = 3X^2 + a Z^4
  aux->x_old = t->X;

  JacobianPoint out;
  Fp::Elem d2, two_b;
  fp.Sqr(aux->D, &d2);
  fp.Dbl(B, &two_b);
  fp.Sub(d2, two_b, &out.X);
  fp.Sub(B, out.X, &tmp);
  Fp::Elem dt;
  fp.Mul(aux->D, tmp, &dt);
  fp.Sub(dt, C, &out.Y);
  fp.Mul(t->Y, t->Z, &tmp);
  fp.Dbl(tmp, &out.Z);                 // Z3 = 2 Y Z
  *t = std::move(out);
  return true;
}

/// Tangent-line value at the pre-step T, evaluated at phi(B); T advances.
/// Line values are scaled by 2*Y*Z^3 in F_p* (harmless).
Fp2Elem DoubleStep(const LoopCtx& ctx, JacobianPoint* t) {
  DblAux aux;
  if (!DoubleCore(ctx.curve, t, &aux)) return ctx.fp2.One();
  const Fp& fp = ctx.fp;
  // l = [-2Y^2 - D*(xq*Z^2 - X)] + [Z3 * Z^2 * yq_im] i
  Fp2Elem line;
  Fp::Elem xq_zz, diff, dterm, two_a, neg;
  fp.Mul(ctx.xq, aux.zz, &xq_zz);
  fp.Sub(xq_zz, aux.x_old, &diff);
  fp.Mul(aux.D, diff, &dterm);
  fp.Dbl(aux.A, &two_a);               // 2 Y^2
  fp.Add(two_a, dterm, &neg);
  fp.Neg(neg, &line.re);
  Fp::Elem z3zz;
  fp.Mul(t->Z, aux.zz, &z3zz);
  fp.Mul(z3zz, ctx.yq_im, &line.im);
  return line;
}

using RawLine = MillerChain::Line;

/// The constant-1 line (used for steps with no line contribution).
RawLine TrivialLine(const Fp& fp) {
  return RawLine{fp.Zero(), fp.One(), fp.One(), true};
}

/// Coefficient form of DoubleStep: l = (c_x*xq + c_0) + (c_y*yq_im) i
/// with c_x = -D Z^2, c_0 = D X - 2Y^2, c_y = Z3 Z^2.
RawLine DoubleStepLines(const Curve& curve, JacobianPoint* t) {
  DblAux aux;
  if (!DoubleCore(curve, t, &aux)) return TrivialLine(curve.fp());
  const Fp& fp = curve.fp();
  RawLine line;
  Fp::Elem d_zz, dx, two_a;
  fp.Mul(aux.D, aux.zz, &d_zz);
  fp.Neg(d_zz, &line.c_x);
  fp.Mul(aux.D, aux.x_old, &dx);
  fp.Dbl(aux.A, &two_a);
  fp.Sub(dx, two_a, &line.c_0);
  fp.Mul(t->Z, aux.zz, &line.c_y);
  return line;
}

/// How an addition step resolved.
enum class AddOutcome {
  kNormal,   // T advanced; line intermediates valid
  kTangent,  // T == P: caller must run a doubling step instead
  kTrivial,  // line is the constant 1 (identity or vertical cases)
};

/// Intermediates of one addition step needed by the line forms: the
/// slope numerator R and the new Z (Z3 = Z*H); P itself is known to the
/// caller.
struct AddAux {
  Fp::Elem r;
  Fp::Elem z3;
};

/// Advances T <- T + P (mixed). On kTangent T is left untouched.
AddOutcome AddCore(const Curve& curve, const AffinePoint& p,
                   JacobianPoint* t, AddAux* aux) {
  const Fp& fp = curve.fp();
  if (curve.IsInfinity(*t)) {
    *t = curve.ToJacobian(p);
    return AddOutcome::kTrivial;
  }
  Fp::Elem zz, zcu, u2, s2;
  fp.Sqr(t->Z, &zz);
  fp.Mul(zz, t->Z, &zcu);
  fp.Mul(p.x, zz, &u2);
  fp.Mul(p.y, zcu, &s2);
  Fp::Elem h;
  fp.Sub(u2, t->X, &h);
  fp.Sub(s2, t->Y, &aux->r);
  if (fp.IsZero(h)) {
    if (fp.IsZero(aux->r)) {
      // T == P: tangent case (vanishingly rare mid-loop).
      return AddOutcome::kTangent;
    }
    // T == -P: vertical line; value in F_p*, erased by final exp.
    *t = JacobianPoint{fp.One(), fp.One(), fp.Zero()};
    return AddOutcome::kTrivial;
  }
  Fp::Elem h2, h3, u1h2;
  fp.Sqr(h, &h2);
  fp.Mul(h2, h, &h3);
  fp.Mul(t->X, h2, &u1h2);
  JacobianPoint out;
  Fp::Elem r2, tmp, two_u1h2;
  fp.Sqr(aux->r, &r2);
  fp.Sub(r2, h3, &tmp);
  fp.Dbl(u1h2, &two_u1h2);
  fp.Sub(tmp, two_u1h2, &out.X);
  fp.Sub(u1h2, out.X, &tmp);
  Fp::Elem rt, s1h3;
  fp.Mul(aux->r, tmp, &rt);
  fp.Mul(t->Y, h3, &s1h3);
  fp.Sub(rt, s1h3, &out.Y);
  fp.Mul(t->Z, h, &out.Z);             // Z3 = Z * H
  aux->z3 = out.Z;
  *t = std::move(out);
  return AddOutcome::kNormal;
}

/// Line through T and the affine base point P, evaluated at phi(B); T
/// advances. Scaled by Z3 in F_p*.
Fp2Elem AddStep(const LoopCtx& ctx, const AffinePoint& p, JacobianPoint* t) {
  AddAux aux;
  switch (AddCore(ctx.curve, p, t, &aux)) {
    case AddOutcome::kTangent:
      return DoubleStep(ctx, t);
    case AddOutcome::kTrivial:
      return ctx.fp2.One();
    case AddOutcome::kNormal:
      break;
  }
  const Fp& fp = ctx.fp;
  // l = [-Z3*y2 - R*(xq - x2)] + [Z3 * yq_im] i
  Fp2Elem line;
  Fp::Elem z3y2, dx, rdx, sum;
  fp.Mul(aux.z3, p.y, &z3y2);
  fp.Sub(ctx.xq, p.x, &dx);
  fp.Mul(aux.r, dx, &rdx);
  fp.Add(z3y2, rdx, &sum);
  fp.Neg(sum, &line.re);
  fp.Mul(aux.z3, ctx.yq_im, &line.im);
  return line;
}

/// Coefficient form of AddStep: c_x = -R, c_0 = R x2 - Z3 y2, c_y = Z3.
RawLine AddStepLines(const Curve& curve, const AffinePoint& p,
                     JacobianPoint* t) {
  AddAux aux;
  switch (AddCore(curve, p, t, &aux)) {
    case AddOutcome::kTangent:
      return DoubleStepLines(curve, t);
    case AddOutcome::kTrivial:
      return TrivialLine(curve.fp());
    case AddOutcome::kNormal:
      break;
  }
  const Fp& fp = curve.fp();
  RawLine line;
  Fp::Elem rx2, z3y2;
  fp.Neg(aux.r, &line.c_x);
  fp.Mul(aux.r, p.x, &rx2);
  fp.Mul(aux.z3, p.y, &z3y2);
  fp.Sub(rx2, z3y2, &line.c_0);
  line.c_y = aux.z3;
  return line;
}

}  // namespace

Fp2Elem MillerLoop(const Curve& curve, const Fp2& fp2, const BigInt& order,
                   const AffinePoint& a, const AffinePoint& b) {
  SLOC_CHECK(!a.infinity && !b.infinity)
      << "MillerLoop requires finite points";
  const Fp& fp = curve.fp();
  LoopCtx ctx{curve, fp, fp2, fp.Zero(), b.y};
  fp.Neg(b.x, &ctx.xq);  // phi(B).x = -x_B

  Fp2Elem f = fp2.One();
  Fp2Elem tmp;
  JacobianPoint t = curve.ToJacobian(a);
  for (size_t i = order.BitLength() - 1; i-- > 0;) {
    fp2.Sqr(f, &tmp);
    Fp2Elem line = DoubleStep(ctx, &t);
    fp2.Mul(tmp, line, &f);
    if (order.Bit(i)) {
      Fp2Elem line_add = AddStep(ctx, a, &t);
      fp2.Mul(f, line_add, &tmp);
      f = tmp;
    }
  }
  return f;
}

const char* MillerWalkName(MillerWalk walk) {
  switch (walk) {
    case MillerWalk::kScalar:
      return "scalar";
    case MillerWalk::kIfma8:
      return "ifma8";
  }
  return "unknown";
}

namespace {

using miller_ifma::kElemWords;
using miller_ifma::kLanes;
using miller_ifma::kLimbBits;
using miller_ifma::kLimbMask;
using miller_ifma::kLimbs;
using miller_ifma::kLineWords;
using miller_ifma::kMergedWords;

/// Whether step `s` of the schedule is packed as one merged record: it
/// has an addition line and is not the last step (miller_ifma.h,
/// "Packed layout").
bool MergedStep(const std::vector<int8_t>& adds, size_t s) {
  return adds[s] != 0 && s + 1 < adds.size();
}

/// Radix-2^52 limbs of the 5-word integer `w` (value below 2^260).
void SplitLimbs52(const uint64_t* w, uint64_t* out) {
  for (size_t k = 0; k < kLimbs; ++k) {
    const size_t bit = k * kLimbBits;
    const size_t word = bit / 64;
    const size_t off = bit % 64;
    uint64_t v = w[word] >> off;
    if (off > 64 - kLimbBits && word + 1 < kLimbs) {
      v |= w[word + 1] << (64 - off);
    }
    out[k] = v & kLimbMask;
  }
}

/// Limbs of a canonical 4-limb residue shifted left by `shift` bits
/// (shift <= 4, so the value stays below 2^260).
void ResidueToLimbs52(const Fp::Elem& a, unsigned shift, uint64_t* out) {
  uint64_t w[kLimbs] = {a[0], a[1], a[2], a[3], 0};
  if (shift != 0) {
    for (size_t i = kLimbs; i-- > 1;) {
      w[i] = (w[i] << shift) | (w[i - 1] >> (64 - shift));
    }
    w[0] <<= shift;
  }
  SplitLimbs52(w, out);
}

/// The canonical 4x64-bit residue of normalized limbs below 2^256.
void Limbs52ToResidue(const uint64_t* limbs, Fp::Elem* out) {
  out->resize(4);
  uint64_t* w = out->data();
  for (size_t i = 0; i < 4; ++i) w[i] = 0;
  for (size_t k = 0; k < kLimbs; ++k) {
    const size_t bit = k * kLimbBits;
    const size_t word = bit / 64;
    const size_t off = bit % 64;
    w[word] |= limbs[k] << off;
    if (off > 64 - kLimbBits && word + 1 < 4) {
      w[word + 1] |= limbs[k] >> (64 - off);
    }
  }
}

/// Writes a canonical residue shifted left by `shift` bits into lane
/// `lane` of a [kLimbs][kLanes] block.
void StoreLane(const Fp::Elem& a, unsigned shift, size_t lane,
               uint64_t* block) {
  uint64_t limbs[kLimbs];
  ResidueToLimbs52(a, shift, limbs);
  for (size_t l = 0; l < kLimbs; ++l) {
    block[l * kLanes + lane] = limbs[l];
  }
}

/// The residue in lane `lane` of a [kLimbs][kLanes] block of normalized
/// limbs below 2^256.
void LoadLane(const uint64_t* block, size_t lane, Fp::Elem* out) {
  uint64_t limbs[kLimbs];
  for (size_t l = 0; l < kLimbs; ++l) {
    limbs[l] = block[l * kLanes + lane];
  }
  Limbs52ToResidue(limbs, out);
}

/// The low `count` radix-2^52 limbs of x >= 0.
void BigIntToLimbs52(const BigInt& x, size_t count, uint64_t* out) {
  const LimbVec& w = x.limbs();
  for (size_t k = 0; k < count; ++k) {
    const size_t bit = k * kLimbBits;
    const size_t word = bit / 64;
    const size_t off = bit % 64;
    uint64_t v = word < w.size() ? w[word] >> off : 0;
    if (off > 64 - kLimbBits && word + 1 < w.size()) {
      v |= w[word + 1] << (64 - off);
    }
    out[k] = v & kLimbMask;
  }
}

miller_ifma::LaneField MakeLaneField(const BigInt& p) {
  miller_ifma::LaneField field;
  BigIntToLimbs52(p, kLimbs, field.p);
  BigIntToLimbs52(p + p, kLimbs, field.two_p);
  BigIntToLimbs52(p << 2, kLimbs, field.four_p);
  BigIntToLimbs52(p << 3, kLimbs, field.eight_p);
  BigIntToLimbs52(BigInt::Mod(BigInt(1) << (kLimbs * kLimbBits), p), kLimbs,
                  field.one);
  BigIntToLimbs52((p * p) << 2, 2 * kLimbs, field.four_p_sq);
  // -p^-1 mod 2^64 by Newton iteration; its low 52 bits are -p^-1 mod
  // 2^52.
  const uint64_t p0 = p.limbs()[0];
  uint64_t inv = p0;
  for (int i = 0; i < 5; ++i) inv *= 2 - p0 * inv;
  field.p_inv = (~inv + 1) & kLimbMask;
  return field;
}

}  // namespace

MillerPlan MillerPlan::Create(const Fp& fp, const BigInt& order) {
  const bool lanes = GetMulKernelDispatch() == KernelDispatch::kAuto &&
                     fp.num_limbs() == 4 && miller_ifma::Available();
  return Create(fp, order, lanes ? MillerWalk::kIfma8 : MillerWalk::kScalar)
      .value();
}

Result<MillerPlan> MillerPlan::Create(const Fp& fp, const BigInt& order,
                                      MillerWalk walk) {
  if (order.BitLength() < 2) {
    return Status::InvalidArgument("Miller order must be > 1");
  }
  MillerPlan plan;
  plan.walk_ = walk;
  // NAF digits, least significant first; the top one is +1.
  std::vector<int8_t> naf = order.ToWnaf(2);
  while (naf.back() == 0) naf.pop_back();
  plan.adds_.assign(naf.rbegin() + 1, naf.rend());
  plan.length_ = plan.adds_.size();
  for (size_t s = 0; s < plan.adds_.size(); ++s) {
    if (plan.adds_[s] == 0) continue;
    ++plan.length_;
    if (MergedStep(plan.adds_, s)) ++plan.merged_steps_;
  }
  plan.packed_words_ = plan.length_ * kLineWords -
                       plan.merged_steps_ * (2 * kLineWords - kMergedWords);
  if (walk == MillerWalk::kIfma8) {
    if (fp.num_limbs() != 4) {
      return Status::InvalidArgument(
          "the ifma8 Miller walk needs a 4-limb field");
    }
    if (!miller_ifma::Available()) {
      return Status::FailedPrecondition(
          "the ifma8 Miller walk needs AVX-512 IFMA (not compiled in or "
          "not supported by this CPU)");
    }
    plan.lane_field_ = MakeLaneField(fp.p());
    plan.sixteenth_ =
        fp.FromBigInt(BigInt::ModInverse(BigInt(16), fp.p()).value());
  }
  return plan;
}

bool operator==(const MillerLineTable& a, const MillerLineTable& b) {
  if (a.trivial_ != b.trivial_ || a.size_ != b.size_ ||
      a.packed_lines_ != b.packed_lines_ ||
      a.lines_.size() != b.lines_.size()) {
    return false;
  }
  for (size_t j = 0; j < a.lines_.size(); ++j) {
    const MillerLine& x = a.lines_[j];
    const MillerLine& y = b.lines_[j];
    if (x.trivial != y.trivial || x.c_x != y.c_x || x.c_0 != y.c_0) {
      return false;
    }
  }
  return true;
}

MillerChain RunMillerChain(const Curve& curve, const MillerPlan& plan,
                           const AffinePoint& a) {
  MillerChain chain;
  if (a.infinity) {
    chain.trivial = true;
    return chain;
  }
  const Fp& fp = curve.fp();
  chain.lines.reserve(plan.length());
  chain.prefix.reserve(plan.length());
  Fp::Elem product = fp.One();
  Fp::Elem tmp;
  auto record = [&](RawLine line) {
    if (!line.trivial) {
      fp.Mul(product, line.c_y, &tmp);
      product = tmp;
    }
    chain.prefix.push_back(product);
    chain.lines.push_back(std::move(line));
  };
  // A -1 digit records the chord through T and -A: f_{m-1} =
  // f_m * f_{-1} * l_{T,-A} / v_{T-A} with f_{-1} = 1 / v_A, and both
  // verticals are F_p* values at phi(B), which the final
  // exponentiation erases.
  const AffinePoint neg_a = curve.Neg(a);
  JacobianPoint t = curve.ToJacobian(a);
  for (int8_t add : plan.adds()) {
    record(DoubleStepLines(curve, &t));
    if (add != 0) record(AddStepLines(curve, add > 0 ? a : neg_a, &t));
  }
  return chain;
}

void InvertMillerChains(const Fp& fp, MillerChain* chains, size_t count) {
  // Montgomery's trick over the chains' c_y products: running[k] is the
  // product of products 0..k, inverted once and walked back.
  std::vector<Fp::Elem> running;
  running.reserve(count);
  Fp::Elem acc = fp.One();
  Fp::Elem tmp;
  for (size_t k = 0; k < count; ++k) {
    const MillerChain& chain = chains[k];
    if (!chain.prefix.empty()) {
      fp.Mul(acc, chain.prefix.back(), &tmp);
      acc = tmp;
    }
    running.push_back(acc);
  }
  auto inv = fp.Inverse(acc);
  SLOC_CHECK(inv.ok()) << "zero line coefficient in a Miller chain";
  acc = *inv;  // (products 0..k)^-1, walking k down
  for (size_t k = count; k-- > 0;) {
    MillerChain& chain = chains[k];
    if (chain.prefix.empty()) {
      chain.product_inv = fp.One();
      continue;
    }
    if (k == 0) {
      chain.product_inv = acc;
    } else {
      fp.Mul(acc, running[k - 1], &chain.product_inv);
    }
    fp.Mul(acc, chain.prefix.back(), &tmp);
    acc = tmp;
  }
}

namespace {

/// One normalised line as a packed line record (`words` zeroed).
void PackLine(const MillerLine& line, uint64_t* words) {
  if (line.trivial) {
    words[0] = miller_ifma::kTrivialLine;
    return;
  }
  ResidueToLimbs52(line.c_x, 0, words);
  ResidueToLimbs52(line.c_0, 0, words + kLimbs);
}

/// A step's doubling and addition lines as one merged record (`words`
/// zeroed): A/16, B/16, C/16, D and E (miller_ifma.h, "Lazy reduction"),
/// or the two lines apart when either is trivial.
void PackMerged(const Fp& fp, const Fp::Elem& sixteenth,
                const MillerLine& dbl, const MillerLine& add,
                uint64_t* words) {
  if (dbl.trivial || add.trivial) {
    words[0] = miller_ifma::kSplitStep;
    PackLine(dbl, words + 1);
    PackLine(add, words + 1 + kLineWords);
    return;
  }
  Fp::Elem x2, o2, t, u, v;
  fp.Mul(add.c_x, sixteenth, &x2);  // c_x2 / 16
  fp.Mul(add.c_0, sixteenth, &o2);  // c_02 / 16
  fp.Mul(dbl.c_x, x2, &t);
  ResidueToLimbs52(t, 0, words);
  fp.Mul(dbl.c_x, o2, &t);
  fp.Mul(dbl.c_0, x2, &u);
  fp.Add(t, u, &v);
  ResidueToLimbs52(v, 0, words + kLimbs);
  fp.Mul(dbl.c_0, o2, &t);
  ResidueToLimbs52(t, 0, words + 2 * kLimbs);
  fp.Add(dbl.c_x, add.c_x, &t);
  ResidueToLimbs52(t, 0, words + 3 * kLimbs);
  fp.Add(dbl.c_0, add.c_0, &t);
  ResidueToLimbs52(t, 0, words + 4 * kLimbs);
}

/// Lays normalised lines out in the packed layout of an ifma8 plan
/// (plan.packed_words() words, zeroed).
void PackLines(const Fp& fp, const MillerPlan& plan,
               const std::vector<MillerLine>& lines, uint64_t* words) {
  const std::vector<int8_t>& adds = plan.adds();
  size_t j = 0;
  for (size_t s = 0; s < adds.size(); ++s) {
    if (MergedStep(adds, s)) {
      PackMerged(fp, plan.sixteenth(), lines[j], lines[j + 1], words);
      j += 2;
      words += kMergedWords;
      continue;
    }
    for (int l = adds[s] != 0 ? 2 : 1; l > 0; --l) {
      PackLine(lines[j++], words);
      words += kLineWords;
    }
  }
}

}  // namespace

MillerLineTable NormalizeMillerChain(const Fp& fp, const MillerPlan& plan,
                                     const MillerChain& chain) {
  MillerLineTable table;
  if (chain.trivial) {
    table.trivial_ = true;
    return table;
  }
  const size_t n = chain.lines.size();
  SLOC_CHECK(n == plan.length())
      << "Miller chain recorded under a different plan";
  table.size_ = n;
  table.lines_.resize(n);
  // Walk back from the chain's product inverse: before line j is
  // handled, `acc` is (prefix[j])^-1, so c_y_j^-1 = acc * prefix[j-1].
  Fp::Elem acc = chain.product_inv;
  Fp::Elem c_y_inv, c_x, c_0, tmp;
  for (size_t j = n; j-- > 0;) {
    const RawLine& raw = chain.lines[j];
    if (raw.trivial) {
      table.lines_[j].trivial = true;
      continue;
    }
    if (j == 0) {
      c_y_inv = acc;
    } else {
      fp.Mul(acc, chain.prefix[j - 1], &c_y_inv);
    }
    fp.Mul(acc, raw.c_y, &tmp);
    acc = tmp;
    fp.Mul(raw.c_x, c_y_inv, &c_x);
    fp.Mul(raw.c_0, c_y_inv, &c_0);
    table.lines_[j] = MillerLine{c_x, c_0, false};
  }
  if (plan.walk() == MillerWalk::kIfma8) {
    table.packed_lines_.assign(plan.packed_words(), 0);
    PackLines(fp, plan, table.lines_, table.packed_lines_.data());
    table.lines_ = std::vector<MillerLine>();
  }
  return table;
}

MillerLineTable PrecompileMillerLines(const Curve& curve,
                                      const MillerPlan& plan,
                                      const AffinePoint& a) {
  MillerChain chain = RunMillerChain(curve, plan, a);
  InvertMillerChains(curve.fp(), &chain, 1);
  return NormalizeMillerChain(curve.fp(), plan, chain);
}

namespace {

/// A lane group's per-lane outcome: lanes whose chain must be
/// recompiled on the scalar path, and lanes whose final line is the
/// closing vertical.
struct LaneGroupResult {
  uint8_t exceptional = 0;
  uint8_t vertical = 0;
};

/// Runs up to eight finite points through Chain8, inverts the lanes'
/// c_y products with one field inversion and normalises every
/// unexceptional lane into dst[lane] (plan.packed_words() words).
/// Lanes past `filled` repeat the last point and are discarded.
LaneGroupResult CompileLaneGroup(const Curve& curve, const MillerPlan& plan,
                                 const AffinePoint* const* points,
                                 size_t filled, uint64_t* const* dst,
                                 std::vector<uint64_t>* lines) {
  const Fp& fp = curve.fp();
  // Lane-domain inputs: a residue x * 2^256 times 16 is x * 2^260.
  uint64_t coords[2 * kElemWords];
  uint64_t curve_a[kLimbs];
  Fp::Elem tmp;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    const AffinePoint& a = *points[lane < filled ? lane : filled - 1];
    fp.MulSmall(a.x, 16, &tmp);
    StoreLane(tmp, 0, lane, coords);
    fp.MulSmall(a.y, 16, &tmp);
    StoreLane(tmp, 0, lane, coords + kElemWords);
  }
  fp.MulSmall(curve.a(), 16, &tmp);
  ResidueToLimbs52(tmp, 0, curve_a);
  const size_t n = plan.length();
  lines->resize(n * miller_ifma::kChainLineWords);
  uint64_t product[kElemWords];
  LaneGroupResult result;
  result.vertical =
      miller_ifma::Chain8(plan.lane_field(), curve_a, plan.adds().data(),
                          plan.adds().size(), coords, lines->data(), product);

  // One inversion for the group (Montgomery's trick over the live
  // lanes). A lane product v = P * 2^260 read as a residue is 16P, so
  // 16 * (16P)^-1 is the P^-1 * 2^256 that Normalize8 takes.
  Fp::Elem prods[kLanes], running[kLanes];
  size_t live[kLanes];
  size_t num_live = 0;
  for (size_t lane = 0; lane < filled; ++lane) {
    LoadLane(product, lane, &prods[lane]);
    if (fp.IsZero(prods[lane])) {
      result.exceptional |= uint8_t(1u << lane);
      continue;
    }
    if (num_live == 0) {
      running[0] = prods[lane];
    } else {
      fp.Mul(running[num_live - 1], prods[lane], &running[num_live]);
    }
    live[num_live++] = lane;
  }
  uint64_t inv[kElemWords] = {};
  uint64_t* tables[kLanes] = {};
  if (num_live != 0) {
    auto total = fp.Inverse(running[num_live - 1]);
    SLOC_CHECK(total.ok()) << "zero line coefficient in a Miller chain";
    Fp::Elem acc = *total;  // (running[i])^-1, walking i down
    Fp::Elem lane_inv;
    for (size_t i = num_live; i-- > 0;) {
      const size_t lane = live[i];
      if (i == 0) {
        lane_inv = acc;
      } else {
        fp.Mul(acc, running[i - 1], &lane_inv);
      }
      fp.Mul(acc, prods[lane], &tmp);
      acc = tmp;
      fp.MulSmall(lane_inv, 16, &tmp);
      StoreLane(tmp, 0, lane, inv);
      tables[lane] = dst[lane];
    }
  }
  miller_ifma::Normalize8(plan.lane_field(), plan.adds().data(),
                          plan.adds().size(), lines->data(), inv, tables);
  return result;
}

}  // namespace

void CompileMillerTables(const Curve& curve, const MillerPlan& plan,
                         const AffinePoint* const* points, size_t count,
                         MillerLineTable* out,
                         MillerCompileScratch* scratch) {
  const Fp& fp = curve.fp();
  if (plan.walk() != MillerWalk::kIfma8) {
    std::vector<MillerChain> chains(count);
    for (size_t k = 0; k < count; ++k) {
      chains[k] = RunMillerChain(curve, plan, *points[k]);
    }
    InvertMillerChains(fp, chains.data(), count);
    for (size_t k = 0; k < count; ++k) {
      out[k] = NormalizeMillerChain(fp, plan, chains[k]);
      chains[k] = MillerChain();  // release the raw lines early
    }
    return;
  }
  const size_t words = plan.packed_words();
  const AffinePoint* group[kLanes];
  size_t index[kLanes];
  uint64_t* dst[kLanes];
  size_t filled = 0;
  auto flush = [&]() {
    const LaneGroupResult result = CompileLaneGroup(
        curve, plan, group, filled, dst, &scratch->lines);
    for (size_t lane = 0; lane < filled; ++lane) {
      MillerLineTable& table = out[index[lane]];
      if ((result.exceptional >> lane) & 1u) {
        table = PrecompileMillerLines(curve, plan, *group[lane]);
      } else if ((result.vertical >> lane) & 1u) {
        uint64_t* last = dst[lane] + words - kLineWords;
        last[0] = miller_ifma::kTrivialLine;
        for (size_t w = 1; w < kLineWords; ++w) last[w] = 0;
      }
    }
    filled = 0;
  };
  for (size_t k = 0; k < count; ++k) {
    MillerLineTable& table = out[k];
    table = MillerLineTable();
    if (points[k]->infinity) {
      table.trivial_ = true;
      continue;
    }
    table.size_ = plan.length();
    table.packed_lines_.resize(words);
    group[filled] = points[k];
    index[filled] = k;
    dst[filled] = table.packed_lines_.data();
    if (++filled == kLanes) flush();
  }
  if (filled != 0) flush();
}

Fp2Elem MultiMillerLoopCoords(
    const Curve& curve, const Fp2& fp2, const MillerPlan& plan,
    const std::vector<PrecompiledPairingCoords>& pairs,
    size_t* loops_executed) {
  PairingScratch scratch;
  return MultiMillerLoopCoords(curve, fp2, plan, pairs, &scratch,
                               loops_executed);
}

Fp2Elem MultiMillerLoopCoords(
    const Curve& curve, const Fp2& fp2, const MillerPlan& plan,
    const std::vector<PrecompiledPairingCoords>& pairs,
    PairingScratch* scratch, size_t* loops_executed) {
  using EvalUnit = PairingScratch::EvalUnit;
  const Fp& fp = curve.fp();
  std::vector<EvalUnit>& live = scratch->live;
  live.clear();
  live.reserve(pairs.size());
  Fp::Elem y2;
  for (const PrecompiledPairingCoords& pair : pairs) {
    SLOC_CHECK(pair.table != nullptr);
    if (pair.skip || pair.table->trivial()) continue;
    // O(1) check that the table follows this plan's schedule: the walk
    // below indexes it unchecked.
    SLOC_CHECK(pair.table->size() == plan.length())
        << "Miller line table compiled for a different order";
    live.emplace_back();
    EvalUnit& s = live.back();
    s.table = pair.table;
    s.xq = pair.xq;
    s.line.im = pair.y_im;
    if (s.table->packed()) {
      fp.Sqr(pair.y_im, &y2);
      fp.Neg(y2, &s.neg_y2);
    }
  }
  if (loops_executed != nullptr) *loops_executed = live.size();
  Fp2Elem f = fp2.One();
  if (live.empty()) return f;

  // All chains share one schedule: walk it once, substituting each
  // pair's coordinates into the stored coefficients. Packed tables are
  // decoded record by record back to the canonical residues they
  // re-split, and a merged record is evaluated as the product of its two
  // lines (miller_ifma.h, "Lazy reduction"), so the walk's value does
  // not depend on the layout.
  Fp2Elem tmp, merged;
  Fp::Elem cx_xq, dec_x, dec_0, t, u, v;
  auto mul_line = [&](EvalUnit& s, const Fp::Elem& c_x, const Fp::Elem& c_0) {
    fp.Mul(c_x, s.xq, &cx_xq);
    fp.Add(cx_xq, c_0, &s.line.re);
    fp2.Mul(f, s.line, &tmp);
    f = tmp;
  };
  auto mul_packed_line = [&](EvalUnit& s, const uint64_t* words) {
    if ((words[0] & miller_ifma::kTrivialLine) != 0) return;
    Limbs52ToResidue(words, &dec_x);
    Limbs52ToResidue(words + kLimbs, &dec_0);
    mul_line(s, dec_x, dec_0);
  };
  // (A xq^2 + B xq + C - y^2) + (D xq + E) y i, from A/16, B/16, C/16,
  // D and E: 16 * ((A/16 * xq + B/16) * xq + C/16) - y^2.
  auto mul_merged = [&](EvalUnit& s, const uint64_t* words) {
    if (words[0] == miller_ifma::kSplitStep) {
      mul_packed_line(s, words + 1);
      mul_packed_line(s, words + 1 + kLineWords);
      return;
    }
    Limbs52ToResidue(words, &t);
    fp.Mul(t, s.xq, &u);
    Limbs52ToResidue(words + kLimbs, &t);
    fp.Add(u, t, &v);
    fp.Mul(v, s.xq, &u);
    Limbs52ToResidue(words + 2 * kLimbs, &t);
    fp.Add(u, t, &v);
    for (int k = 0; k < 2; ++k) {  // times 16
      fp.Dbl(v, &u);
      fp.Dbl(u, &v);
    }
    fp.Add(v, s.neg_y2, &merged.re);
    Limbs52ToResidue(words + 3 * kLimbs, &t);
    fp.Mul(t, s.xq, &u);
    Limbs52ToResidue(words + 4 * kLimbs, &t);
    fp.Add(u, t, &v);
    fp.Mul(v, s.line.im, &merged.im);
    fp2.Mul(f, merged, &tmp);
    f = tmp;
  };
  const std::vector<int8_t>& adds = plan.adds();
  size_t idx = 0;  // line index (scalar layout)
  size_t off = 0;  // word offset (packed layout)
  for (size_t step = 0; step < adds.size(); ++step) {
    fp2.Sqr(f, &tmp);
    f = tmp;
    const size_t num_lines = adds[step] != 0 ? 2 : 1;
    const bool merged_step = MergedStep(adds, step);
    for (size_t l = 0; l < num_lines; ++l) {
      for (EvalUnit& s : live) {
        const MillerLineTable& table = *s.table;
        if (!table.packed()) {
          const MillerLine& ml = table.lines()[idx + l];
          if (!ml.trivial) mul_line(s, ml.c_x, ml.c_0);
        } else if (!merged_step) {
          mul_packed_line(s, table.packed_lines().data() + off +
                                 l * kLineWords);
        } else if (l == 0) {
          mul_merged(s, table.packed_lines().data() + off);
        }
      }
    }
    idx += num_lines;
    off += merged_step ? kMergedWords : num_lines * kLineWords;
  }
  return f;
}

void MultiMillerLoopLanes(const Fp2& fp2, const MillerPlan& plan,
                          const std::vector<LanePairingCoords>& pairs,
                          size_t count, Fp2Elem* out,
                          PairingScratch* scratch) {
  SLOC_CHECK(plan.walk() == MillerWalk::kIfma8)
      << "lane walk on a plan without it";
  SLOC_CHECK(count <= kMillerLanes);
  const size_t n = pairs.size();
  if (n == 0) {
    for (size_t lane = 0; lane < count; ++lane) out[lane] = fp2.One();
    return;
  }
  using miller_ifma::kCoordWords;
  scratch->lane_tables.resize(n);
  scratch->lane_coords.resize(n * kCoordWords);
  for (size_t k = 0; k < n; ++k) {
    const LanePairingCoords& pair = pairs[k];
    SLOC_CHECK(pair.table != nullptr && pair.table->packed() &&
               pair.table->size() == plan.length())
        << "lane walk needs a packed table compiled for this plan";
    scratch->lane_tables[k] = pair.table->packed_lines().data();
    uint64_t* coords = scratch->lane_coords.data() + k * kCoordWords;
    for (size_t lane = 0; lane < kLanes; ++lane) {
      // 16 * xq: see the domain note in pairing/miller_ifma.h.
      StoreLane(*pair.xq[lane], 4, lane, coords);
      StoreLane(*pair.y_im[lane], 0, lane, coords + kElemWords);
    }
  }
  miller_ifma::CompleteCoords(plan.lane_field(), n,
                              scratch->lane_coords.data());
  uint64_t values[2 * kElemWords];
  miller_ifma::Walk8(plan.lane_field(), plan.adds().data(),
                     plan.adds().size(), scratch->lane_tables.data(),
                     scratch->lane_coords.data(), n, values);
  for (size_t lane = 0; lane < count; ++lane) {
    LoadLane(values, lane, &out[lane].re);
    LoadLane(values + kElemWords, lane, &out[lane].im);
  }
}

Fp2Elem FinalExponentiation(const Fp2& fp2, const Fp2Elem& f,
                            const BigInt& cofactor) {
  SLOC_CHECK(!fp2.IsZero(f)) << "zero Miller value";
  // f^(p-1) = conj(f) / f.
  Fp2Elem conj;
  fp2.Conj(f, &conj);
  auto inv = fp2.Inverse(f);
  SLOC_CHECK(inv.ok());
  Fp2Elem unit;
  fp2.Mul(conj, *inv, &unit);
  // Then raise to c = (p+1)/N. conj(f)/f has norm 1 exactly (the F_p
  // norm is multiplicative), so the unitary ladder applies.
  return fp2.PowUnitary(unit, cofactor);
}

void BatchFinalExponentiation(const Fp2& fp2, const BigInt& cofactor,
                              std::vector<Fp2Elem>* fs) {
  PairingScratch scratch;
  BatchFinalExponentiation(fp2, cofactor, fs, &scratch);
}

void BatchFinalExponentiation(const Fp2& fp2, const BigInt& cofactor,
                              std::vector<Fp2Elem>* fs,
                              PairingScratch* scratch) {
  const size_t n = fs->size();
  if (n == 0) return;
  if (n == 1) {
    (*fs)[0] = FinalExponentiation(fp2, (*fs)[0], cofactor);
    return;
  }
  std::vector<Fp2Elem>& f = *fs;
  // Montgomery batch inversion: prefix[j] = f_0 * ... * f_j.
  std::vector<Fp2Elem>& prefix = scratch->prefix;
  prefix.resize(n);
  prefix[0] = f[0];
  SLOC_CHECK(!fp2.IsZero(f[0])) << "zero Miller value";
  for (size_t j = 1; j < n; ++j) {
    SLOC_CHECK(!fp2.IsZero(f[j])) << "zero Miller value";
    fp2.Mul(prefix[j - 1], f[j], &prefix[j]);
  }
  auto total_inv = fp2.Inverse(prefix[n - 1]);
  SLOC_CHECK(total_inv.ok());
  // Walk back: `acc` always holds (f_0 * ... * f_j)^-1. Each entry is
  // replaced by its unitarization conj(f_j)/f_j; the cofactor powers
  // are then taken in one shared-schedule batch ladder below.
  Fp2Elem acc = *total_inv;
  Fp2Elem conj, unit, inv_j, tmp;
  for (size_t j = n; j-- > 1;) {
    fp2.Mul(acc, prefix[j - 1], &inv_j);  // f_j^-1
    fp2.Mul(acc, f[j], &tmp);             // strip f_j from acc
    acc = tmp;
    fp2.Conj(f[j], &conj);
    fp2.Mul(conj, inv_j, &unit);          // conj(f_j)/f_j, norm 1
    f[j] = unit;
  }
  fp2.Conj(f[0], &conj);
  fp2.Mul(conj, acc, &f[0]);
  // The cofactor is one fixed exponent for the whole batch: share its
  // wNAF recoding across every unit (bit-identical to per-entry
  // PowUnitary).
  fp2.BatchPowUnitary(cofactor, fs, &scratch->pow);
}

}  // namespace sloc
