// Composite-order symmetric pairing group (Section 2.1 of the paper).
//
// G is the order-N subgroup of E(F_p), N = P*Q; G_T is the order-N
// subgroup of F_p^2*. The modified Tate pairing
//   e(A, B) = f_{N,A}(phi(B))^((p^2-1)/N)
// is symmetric and bilinear; elements of the order-P and order-Q
// subgroups pair to 1 across subgroups, which is exactly the blinding
// property Boneh-Waters HVE relies on.

#ifndef SLOC_PAIRING_GROUP_H_
#define SLOC_PAIRING_GROUP_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "ec/curve.h"
#include "field/fp2.h"
#include "pairing/miller.h"
#include "pairing/params.h"

namespace sloc {

/// Snapshot of the running operation counters; the paper's headline
/// metric is `pairings`. `pairings` counts Miller loops actually
/// executed (the precompiled walks do not charge identity-short-circuited
/// pairs; Pair() charges every call); `precomp_pairings` is the subset
/// served from precompiled line tables.
struct PairingCounters {
  uint64_t pairings = 0;
  uint64_t precomp_pairings = 0;
  uint64_t scalar_muls = 0;
  uint64_t gt_exps = 0;
};

/// The instantiated pairing group with generators of each subgroup.
///
/// Thread-compatibility: const methods are safe to call concurrently;
/// the operation counters are atomic (relaxed), so the sharded matcher
/// can pair from many threads without data races. The class holds no
/// mutex — shared state after Generate() is immutable except the
/// lock-free AtomicCounters, so there is no capability to annotate
/// (see common/thread_annotations.h); callers that mutate a group
/// (move-assign, ResetCounters racing counters()) serialize externally.
class PairingGroup {
 public:
  /// Generates parameters (or uses `spec.seed` deterministically), builds
  /// the curve, and finds generators g (order N), g_p (order P), g_q
  /// (order Q).
  static Result<PairingGroup> Generate(const PairingParamSpec& spec);

  const PairingParams& params() const { return params_; }
  const Fp& fp() const { return *fp_; }
  const Fp2& fp2() const { return *fp2_; }
  const Curve& curve() const { return *curve_; }
  /// The schedule and walk of this group's precompiled line tables,
  /// fixed at Generate() from the field width, the CPU and the kernel
  /// dispatch policy (see MillerPlan::Create).
  const MillerPlan& miller_plan() const { return miller_plan_; }

  /// Generator of the full order-N group.
  const AffinePoint& gen() const { return g_; }
  /// Generator of the order-P subgroup G_p.
  const AffinePoint& gen_p() const { return gp_; }
  /// Generator of the order-Q subgroup G_q.
  const AffinePoint& gen_q() const { return gq_; }

  /// Uniformly random element of G_p (scalar in [1, P)).
  AffinePoint RandomGp(const RandFn& rand) const;
  /// Uniformly random element of G_q (scalar in [1, Q)).
  AffinePoint RandomGq(const RandFn& rand) const;

  /// [k]P with operation counting. Multiplications of the three cached
  /// generators are routed through their fixed-base comb tables.
  AffinePoint Mul(const BigInt& k, const AffinePoint& pt) const;
  /// [k]base through a caller-held fixed-base table, with operation
  /// counting (the HVE layer keeps per-key tables).
  AffinePoint MulFixed(const FixedBaseComb& comb, const BigInt& k) const;
  /// MulFixed left in Jacobian form (no inversion) — the batched
  /// issuance seam: many independent scalar multiplications normalize
  /// together through one Curve::BatchToAffine call.
  JacobianPoint MulFixedJacobian(const FixedBaseComb& comb,
                                 const BigInt& k) const;
  /// Builds a fixed-base table sized for this group's scalars (N's
  /// width).
  FixedBaseComb BuildComb(const AffinePoint& base) const;
  /// Builds a fixed-base table for scalars below `bound` (P or Q for a
  /// subgroup base): half N's width, so half the doublings per
  /// multiplication. Wider scalars still get the right point, through
  /// the comb's ScalarMul fallback.
  FixedBaseComb BuildComb(const AffinePoint& base, const BigInt& bound) const;
  /// P + Q.
  AffinePoint Add(const AffinePoint& a, const AffinePoint& b) const;

  /// The symmetric pairing. Identity inputs yield 1 in G_T.
  Fp2Elem Pair(const AffinePoint& a, const AffinePoint& b) const;

  // ---- G_T (unitary subgroup of F_p^2) helpers ----
  Fp2Elem GtOne() const { return fp2_->One(); }
  Fp2Elem GtMul(const Fp2Elem& a, const Fp2Elem& b) const;
  /// Inverse of a unitary G_T element (conjugate).
  Fp2Elem GtInv(const Fp2Elem& a) const { return fp2_->UnitaryInverse(a); }
  Fp2Elem GtPow(const Fp2Elem& a, const BigInt& e) const;
  /// a^e through a caller-held fixed-base comb, with operation counting
  /// (the HVE layer keeps a per-key comb for A = e(g, v)^a).
  Fp2Elem GtPowFixed(const UnitaryComb& comb, const BigInt& e) const;
  /// Builds a G_T fixed-base comb sized for this group's exponents.
  UnitaryComb BuildGtComb(const Fp2Elem& base) const {
    return UnitaryComb::Build(*fp2_, base, params_.n.BitLength());
  }
  bool GtEqual(const Fp2Elem& a, const Fp2Elem& b) const {
    return fp2_->Equal(a, b);
  }
  /// Random element of G_T with known structure: e(g, g)^r.
  Fp2Elem RandomGt(const RandFn& rand) const;

  /// Consistent-enough snapshot of the counters (each field is read
  /// atomically; fields may be skewed relative to each other while
  /// worker threads are pairing).
  PairingCounters counters() const {
    PairingCounters snap;
    snap.pairings = counters_->pairings.load(std::memory_order_relaxed);
    snap.precomp_pairings =
        counters_->precomp_pairings.load(std::memory_order_relaxed);
    snap.scalar_muls = counters_->scalar_muls.load(std::memory_order_relaxed);
    snap.gt_exps = counters_->gt_exps.load(std::memory_order_relaxed);
    return snap;
  }
  void ResetCounters() const {
    counters_->pairings.store(0, std::memory_order_relaxed);
    counters_->precomp_pairings.store(0, std::memory_order_relaxed);
    counters_->scalar_muls.store(0, std::memory_order_relaxed);
    counters_->gt_exps.store(0, std::memory_order_relaxed);
  }
  /// Accounts for `k` pairings computed outside Pair() (the precompiled
  /// walks, which share one final exponentiation per query or batch).
  /// Callers charge only Miller loops actually executed, not pairs
  /// short-circuited by points at infinity.
  void CountPairings(uint64_t k) const {
    counters_->pairings.fetch_add(k, std::memory_order_relaxed);
  }
  /// Accounts for `k` pairings that were served from precompiled line
  /// tables (charged *in addition* to CountPairings).
  void CountPrecompPairings(uint64_t k) const {
    counters_->precomp_pairings.fetch_add(k, std::memory_order_relaxed);
  }

 private:
  PairingGroup() = default;

  /// Atomic backing store for the counters. Held behind a unique_ptr so
  /// PairingGroup stays movable (std::atomic is not).
  struct AtomicCounters {
    std::atomic<uint64_t> pairings{0};
    std::atomic<uint64_t> precomp_pairings{0};
    std::atomic<uint64_t> scalar_muls{0};
    std::atomic<uint64_t> gt_exps{0};
  };

  PairingParams params_;
  std::unique_ptr<Fp> fp_;
  std::unique_ptr<Fp2> fp2_;
  std::unique_ptr<Curve> curve_;
  MillerPlan miller_plan_;
  AffinePoint g_, gp_, gq_;
  // Fixed-base tables for the generators: Setup's ~6*width random
  // subgroup elements and every RandomGp/RandomGq draw go through these.
  FixedBaseComb comb_g_, comb_gp_, comb_gq_;
  Fp2Elem e_gg_;  // cached e(g, g)
  mutable std::unique_ptr<AtomicCounters> counters_ =
      std::make_unique<AtomicCounters>();
};

}  // namespace sloc

#endif  // SLOC_PAIRING_GROUP_H_
