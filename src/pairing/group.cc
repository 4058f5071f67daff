#include "pairing/group.h"

#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "pairing/miller.h"

namespace sloc {

Result<PairingGroup> PairingGroup::Generate(const PairingParamSpec& spec) {
  PairingGroup group;
  SLOC_ASSIGN_OR_RETURN(group.params_, GeneratePairingParams(spec));
  const PairingParams& pp = group.params_;

  SLOC_ASSIGN_OR_RETURN(Fp fp, Fp::Create(pp.field_p));
  group.fp_ = std::make_unique<Fp>(std::move(fp));
  SLOC_ASSIGN_OR_RETURN(Fp2 fp2, Fp2::Create(*group.fp_));
  group.fp2_ = std::make_unique<Fp2>(std::move(fp2));
  // Supersingular curve y^2 = x^3 + x.
  SLOC_ASSIGN_OR_RETURN(Curve curve,
                        Curve::Create(*group.fp_, BigInt(1), BigInt(0)));
  group.curve_ = std::make_unique<Curve>(std::move(curve));
  group.miller_plan_ = MillerPlan::Create(*group.fp_, pp.n);

  // Deterministic point search when seeded (offset so the stream differs
  // from parameter generation), OS entropy otherwise.
  std::shared_ptr<Rng> det;
  std::shared_ptr<SecureRandom> sec;
  RandFn rand;
  if (spec.seed != 0) {
    det = std::make_shared<Rng>(spec.seed ^ 0xabcdef1234567890ULL);
    rand = [det]() { return det->NextU64(); };
  } else {
    sec = std::make_shared<SecureRandom>();
    rand = [sec]() { return sec->NextU64(); };
  }

  // Find a generator of the order-N subgroup: g = [c]T for random T has
  // order dividing N; keep it iff both [N/P]g != O and [N/Q]g != O.
  const Curve& c = *group.curve_;
  for (;;) {
    AffinePoint t = c.RandomPoint(rand);
    AffinePoint g = c.ScalarMul(pp.cofactor, t);
    if (g.infinity) continue;
    AffinePoint gp = c.ScalarMul(pp.prime_q, g);  // order P if not O
    AffinePoint gq = c.ScalarMul(pp.prime_p, g);  // order Q if not O
    if (gp.infinity || gq.infinity) continue;
    group.g_ = std::move(g);
    group.gp_ = std::move(gp);
    group.gq_ = std::move(gq);
    break;
  }
  group.comb_g_ = group.BuildComb(group.g_);
  // RandomGp/RandomGq draw scalars below P or Q.
  group.comb_gp_ = group.BuildComb(group.gp_, pp.prime_p);
  group.comb_gq_ = group.BuildComb(group.gq_, pp.prime_q);
  group.e_gg_ = group.Pair(group.g_, group.g_);
  group.ResetCounters();
  return group;
}

AffinePoint PairingGroup::RandomGp(const RandFn& rand) const {
  BigInt k = BigInt::RandomBelow(params_.prime_p - BigInt(1), rand) +
             BigInt(1);
  return MulFixed(comb_gp_, k);
}

AffinePoint PairingGroup::RandomGq(const RandFn& rand) const {
  BigInt k = BigInt::RandomBelow(params_.prime_q - BigInt(1), rand) +
             BigInt(1);
  return MulFixed(comb_gq_, k);
}

AffinePoint PairingGroup::Mul(const BigInt& k, const AffinePoint& pt) const {
  counters_->scalar_muls.fetch_add(1, std::memory_order_relaxed);
  if (!pt.infinity) {
    if (curve_->Equal(pt, g_)) return comb_g_.Mul(*curve_, k);
    if (curve_->Equal(pt, gp_)) return comb_gp_.Mul(*curve_, k);
    if (curve_->Equal(pt, gq_)) return comb_gq_.Mul(*curve_, k);
  }
  return curve_->ScalarMul(k, pt);
}

AffinePoint PairingGroup::MulFixed(const FixedBaseComb& comb,
                                   const BigInt& k) const {
  counters_->scalar_muls.fetch_add(1, std::memory_order_relaxed);
  return comb.Mul(*curve_, k);
}

JacobianPoint PairingGroup::MulFixedJacobian(const FixedBaseComb& comb,
                                             const BigInt& k) const {
  counters_->scalar_muls.fetch_add(1, std::memory_order_relaxed);
  return comb.MulJacobian(*curve_, k);
}

FixedBaseComb PairingGroup::BuildComb(const AffinePoint& base) const {
  // Scalars are reduced mod N (or a prime factor) everywhere, so N's
  // width bounds every comb lookup.
  return FixedBaseComb::Build(*curve_, base, params_.n.BitLength());
}

FixedBaseComb PairingGroup::BuildComb(const AffinePoint& base,
                                      const BigInt& bound) const {
  return FixedBaseComb::Build(*curve_, base, bound.BitLength());
}

AffinePoint PairingGroup::Add(const AffinePoint& a,
                              const AffinePoint& b) const {
  return curve_->AddAffine(a, b);
}

Fp2Elem PairingGroup::Pair(const AffinePoint& a, const AffinePoint& b) const {
  counters_->pairings.fetch_add(1, std::memory_order_relaxed);
  if (a.infinity || b.infinity) return fp2_->One();
  Fp2Elem f = MillerLoop(*curve_, *fp2_, params_.n, a, b);
  return FinalExponentiation(*fp2_, f, params_.cofactor);
}

Fp2Elem PairingGroup::GtMul(const Fp2Elem& a, const Fp2Elem& b) const {
  Fp2Elem out;
  fp2_->Mul(a, b, &out);
  return out;
}

Fp2Elem PairingGroup::GtPow(const Fp2Elem& a, const BigInt& e) const {
  counters_->gt_exps.fetch_add(1, std::memory_order_relaxed);
  // G_T lives on the unit circle of F_p^2 (post-final-exponentiation
  // elements satisfy f^(p+1) = 1, i.e. norm 1), so inversion is a free
  // conjugation and the signed-digit ladder applies to either sign of e.
  return fp2_->PowUnitary(a, e);
}

Fp2Elem PairingGroup::GtPowFixed(const UnitaryComb& comb,
                                 const BigInt& e) const {
  counters_->gt_exps.fetch_add(1, std::memory_order_relaxed);
  return comb.Pow(*fp2_, e);
}

Fp2Elem PairingGroup::RandomGt(const RandFn& rand) const {
  BigInt r = BigInt::RandomBelow(params_.n - BigInt(1), rand) + BigInt(1);
  return GtPow(e_gg_, r);
}

}  // namespace sloc
