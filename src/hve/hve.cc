#include "hve/hve.h"

#include <algorithm>
#include <utility>

#include "common/bitstring.h"
#include "common/check.h"
#include "common/parallel.h"
#include "pairing/miller.h"

namespace sloc {
namespace hve {

namespace {

/// Random exponent in [1, order).
BigInt NonZeroExp(const BigInt& order, const RandFn& rand) {
  return BigInt::RandomBelow(order - BigInt(1), rand) + BigInt(1);
}

/// [k]base through the comb when one is available, generic Mul otherwise.
AffinePoint MulBase(const PairingGroup& group, const FixedBaseComb* comb,
                    const AffinePoint& base, const BigInt& k) {
  if (comb != nullptr && !comb->empty()) return group.MulFixed(*comb, k);
  return group.Mul(k, base);
}

/// MulBase left in Jacobian form: the batched issuance path defers all
/// normalizations to one BatchToAffine.
JacobianPoint MulBaseJacobian(const PairingGroup& group,
                              const FixedBaseComb* comb,
                              const AffinePoint& base, const BigInt& k) {
  if (comb != nullptr && !comb->empty()) {
    return group.MulFixedJacobian(*comb, k);
  }
  return group.curve().ToJacobian(group.Mul(k, base));
}

/// The pattern checks GenToken and GenTokenBatch share.
Status ValidatePattern(const std::string& pattern, size_t width) {
  if (!IsPatternString(pattern)) {
    return Status::InvalidArgument("pattern must be over {0,1,*}");
  }
  if (pattern.size() != width) {
    return Status::InvalidArgument("pattern width mismatch: got " +
                                   std::to_string(pattern.size()) +
                                   ", key width " + std::to_string(width));
  }
  return Status::Ok();
}

/// One (pattern, position) unit of a token bundle.
struct PosJob {
  size_t token;  ///< pattern index in the bundle
  size_t index;  ///< position i within the pattern
  BigInt r1, r2;
};

/// The four scalar-multiplication results of one PosJob, in Jacobian
/// form (no inversions until the batch normalization).
struct PosOut {
  JacobianPoint b1;  ///< [r1](u_i + h_i) or [r1]h_i
  JacobianPoint w2;  ///< [r2]w_i
  JacobianPoint k1;  ///< [r1]v
  JacobianPoint k2;  ///< [r2]v
};

/// Per-thread arena for GenTokenBatch's intermediate buffers. Every
/// member is a high-water-mark slab (clear/resize keep capacity), so
/// repeated bundles of similar shape reuse one set of allocations —
/// the exponents themselves live in BigInt's inline limbs. Only the
/// returned tokens still allocate, as they must.
struct TokenBatchArena {
  std::vector<PosJob> jobs;
  std::vector<size_t> first_job;
  std::vector<PosOut> outs;
  std::vector<JacobianPoint> flat;
  std::vector<AffinePoint> affine;
  std::vector<Fp::Elem> prefix;  ///< BatchToAffine inversion scratch
};

}  // namespace

void PrecomputePublicKey(const PairingGroup& group, PublicKey* pk) {
  if (pk->uh.size() != pk->width) {
    pk->uh.clear();
    pk->uh.reserve(pk->width);
    for (size_t i = 0; i < pk->width; ++i) {
      pk->uh.push_back(group.Add(pk->u[i], pk->h[i]));
    }
  }
  if (pk->tables != nullptr) return;
  auto tables = std::make_shared<PublicKeyTables>();
  tables->v_blinded = group.BuildComb(pk->v_blinded);
  tables->a_pair = group.BuildGtComb(pk->a_pair);
  tables->h.reserve(pk->width);
  tables->uh.reserve(pk->width);
  tables->w.reserve(pk->width);
  for (size_t i = 0; i < pk->width; ++i) {
    tables->h.push_back(group.BuildComb(pk->h[i]));
    tables->uh.push_back(group.BuildComb(pk->uh[i]));
    tables->w.push_back(group.BuildComb(pk->w[i]));
  }
  pk->tables = std::move(tables);
}

void PrecomputeSecretKey(const PairingGroup& group, SecretKey* sk) {
  if (sk->uh.size() != sk->width) {
    sk->uh.clear();
    sk->uh.reserve(sk->width);
    for (size_t i = 0; i < sk->width; ++i) {
      sk->uh.push_back(group.Add(sk->u[i], sk->h[i]));
    }
  }
  if (sk->tables != nullptr) return;
  // GenToken's scalars (a and every r_i) are drawn below P, so the
  // combs span P's width, not N's.
  const BigInt& bound = group.params().prime_p;
  auto tables = std::make_shared<SecretKeyTables>();
  tables->g = group.BuildComb(sk->g, bound);
  tables->v = group.BuildComb(sk->v, bound);
  tables->h.reserve(sk->width);
  tables->uh.reserve(sk->width);
  tables->w.reserve(sk->width);
  for (size_t i = 0; i < sk->width; ++i) {
    tables->h.push_back(group.BuildComb(sk->h[i], bound));
    tables->uh.push_back(group.BuildComb(sk->uh[i], bound));
    tables->w.push_back(group.BuildComb(sk->w[i], bound));
  }
  sk->tables = std::move(tables);
}

Result<KeyPair> Setup(const PairingGroup& group, size_t width,
                      const RandFn& rand) {
  if (width == 0) return Status::InvalidArgument("HVE width must be > 0");
  const PairingParams& pp = group.params();

  KeyPair kp;
  SecretKey& sk = kp.sk;
  PublicKey& pk = kp.pk;
  sk.width = pk.width = width;

  // Secret G_p elements. Generators of G_p raised to random exponents.
  sk.g = group.RandomGp(rand);
  sk.v = group.RandomGp(rand);
  sk.a = NonZeroExp(pp.prime_p, rand);
  sk.gq = group.gen_q();
  pk.gq = sk.gq;

  sk.u.reserve(width);
  sk.h.reserve(width);
  sk.w.reserve(width);
  pk.u.reserve(width);
  pk.h.reserve(width);
  pk.w.reserve(width);
  for (size_t i = 0; i < width; ++i) {
    sk.u.push_back(group.RandomGp(rand));
    sk.h.push_back(group.RandomGp(rand));
    sk.w.push_back(group.RandomGp(rand));
    // Blind with fresh G_q randomizers.
    pk.u.push_back(group.Add(sk.u.back(), group.RandomGq(rand)));
    pk.h.push_back(group.Add(sk.h.back(), group.RandomGq(rand)));
    pk.w.push_back(group.Add(sk.w.back(), group.RandomGq(rand)));
  }
  pk.v_blinded = group.Add(sk.v, group.RandomGq(rand));
  // A = e(g, v)^a.
  pk.a_pair = group.GtPow(group.Pair(sk.g, sk.v), sk.a);
  PrecomputePublicKey(group, &pk);
  PrecomputeSecretKey(group, &sk);
  return kp;
}

Result<Ciphertext> Encrypt(const PairingGroup& group, const PublicKey& pk,
                           const std::string& index, const Fp2Elem& msg,
                           const RandFn& rand) {
  if (!IsBinaryString(index)) {
    return Status::InvalidArgument("index must be a non-empty binary string");
  }
  if (index.size() != pk.width) {
    return Status::InvalidArgument("index width mismatch: got " +
                                   std::to_string(index.size()) +
                                   ", key width " +
                                   std::to_string(pk.width));
  }
  const PairingParams& pp = group.params();
  const BigInt s = NonZeroExp(pp.n, rand);

  Ciphertext ct;
  // Guard against tables built for a different width (hand-edited keys).
  const PublicKeyTables* tables =
      (pk.tables != nullptr && pk.tables->h.size() == pk.width)
          ? pk.tables.get()
          : nullptr;
  const bool have_uh = pk.uh.size() == pk.width;
  // C' = M * A^s, through the per-key G_T comb when available.
  ct.c_prime = group.GtMul(
      msg, tables != nullptr && !tables->a_pair.empty()
               ? group.GtPowFixed(tables->a_pair, s)
               : group.GtPow(pk.a_pair, s));
  // C_0 = V^s * Z.
  ct.c0 = group.Add(
      MulBase(group, tables ? &tables->v_blinded : nullptr, pk.v_blinded, s),
      group.RandomGq(rand));
  ct.c1.reserve(pk.width);
  ct.c2.reserve(pk.width);
  for (size_t i = 0; i < pk.width; ++i) {
    // Base_i = U_i^{I_i} * H_i: either H_i (bit 0) or U_i + H_i (bit 1),
    // the latter hoisted into pk.uh at key-precompute time.
    AffinePoint base_s;
    if (index[i] == '1') {
      const AffinePoint uh =
          have_uh ? pk.uh[i] : group.Add(pk.u[i], pk.h[i]);
      base_s = MulBase(group, tables ? &tables->uh[i] : nullptr, uh, s);
    } else {
      base_s = MulBase(group, tables ? &tables->h[i] : nullptr, pk.h[i], s);
    }
    ct.c1.push_back(group.Add(base_s, group.RandomGq(rand)));
    ct.c2.push_back(group.Add(
        MulBase(group, tables ? &tables->w[i] : nullptr, pk.w[i], s),
        group.RandomGq(rand)));
  }
  return ct;
}

Result<Token> GenToken(const PairingGroup& group, const SecretKey& sk,
                       const std::string& pattern, const RandFn& rand) {
  SLOC_RETURN_IF_ERROR(ValidatePattern(pattern, sk.width));
  const PairingParams& pp = group.params();

  Token tk;
  tk.pattern = pattern;
  const SecretKeyTables* tables =
      (sk.tables != nullptr && sk.tables->h.size() == sk.width)
          ? sk.tables.get()
          : nullptr;
  const bool have_uh = sk.uh.size() == sk.width;
  // K_0 = g^a * prod_{i in J} (u_i^{I*_i} h_i)^{r_i,1} w_i^{r_i,2}.
  AffinePoint k0 = MulBase(group, tables ? &tables->g : nullptr, sk.g, sk.a);
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] == kStar) continue;
    const BigInt r1 = NonZeroExp(pp.prime_p, rand);
    const BigInt r2 = NonZeroExp(pp.prime_p, rand);
    AffinePoint base_r1;
    if (pattern[i] == '1') {
      const AffinePoint uh =
          have_uh ? sk.uh[i] : group.Add(sk.u[i], sk.h[i]);
      base_r1 = MulBase(group, tables ? &tables->uh[i] : nullptr, uh, r1);
    } else {
      base_r1 = MulBase(group, tables ? &tables->h[i] : nullptr, sk.h[i], r1);
    }
    k0 = group.Add(k0, base_r1);
    k0 = group.Add(
        k0, MulBase(group, tables ? &tables->w[i] : nullptr, sk.w[i], r2));
    tk.k1.push_back(MulBase(group, tables ? &tables->v : nullptr, sk.v, r1));
    tk.k2.push_back(MulBase(group, tables ? &tables->v : nullptr, sk.v, r2));
  }
  tk.k0 = k0;
  return tk;
}

Result<std::vector<Token>> GenTokenBatch(
    const PairingGroup& group, const SecretKey& sk,
    const std::vector<std::string>& patterns, const RandFn& rand,
    unsigned num_threads) {
  const PairingParams& pp = group.params();
  for (const std::string& pattern : patterns) {
    SLOC_RETURN_IF_ERROR(ValidatePattern(pattern, sk.width));
  }
  const SecretKeyTables* tables =
      (sk.tables != nullptr && sk.tables->h.size() == sk.width)
          ? sk.tables.get()
          : nullptr;
  const bool have_uh = sk.uh.size() == sk.width;

  // All intermediate buffers live in a per-thread arena: issuing
  // bundles back to back reuses one set of slabs instead of paying the
  // vector churn per call.
  static thread_local TokenBatchArena arena;

  // Phase 1 — draw every r_i,1/r_i,2 serially, in exactly the order the
  // per-pattern GenToken loop consumes them: token bytes must not
  // depend on the thread count, and the RandFn is not thread-safe.
  std::vector<PosJob>& jobs = arena.jobs;
  jobs.clear();
  std::vector<size_t>& first_job = arena.first_job;
  first_job.assign(patterns.size() + 1, 0);
  for (size_t t = 0; t < patterns.size(); ++t) {
    first_job[t] = jobs.size();
    for (size_t i = 0; i < patterns[t].size(); ++i) {
      if (patterns[t][i] == kStar) continue;
      jobs.emplace_back();
      PosJob& job = jobs.back();
      job.token = t;
      job.index = i;
      job.r1 = NonZeroExp(pp.prime_p, rand);
      job.r2 = NonZeroExp(pp.prime_p, rand);
    }
  }
  first_job[patterns.size()] = jobs.size();

  // Phase 2 — the four scalar multiplications of every (pattern,
  // position) job are independent of everything else in the bundle:
  // fan them across the workers, all in Jacobian form (no inversions).
  std::vector<PosOut>& outs = arena.outs;
  outs.resize(jobs.size());
  auto run_jobs = [&](size_t begin, size_t stride) {
    for (size_t m = begin; m < jobs.size(); m += stride) {
      const PosJob& job = jobs[m];
      const size_t i = job.index;
      PosOut& out = outs[m];
      if (patterns[job.token][i] == '1') {
        const AffinePoint uh =
            have_uh ? sk.uh[i] : group.Add(sk.u[i], sk.h[i]);
        out.b1 = MulBaseJacobian(group, tables ? &tables->uh[i] : nullptr,
                                 uh, job.r1);
      } else {
        out.b1 = MulBaseJacobian(group, tables ? &tables->h[i] : nullptr,
                                 sk.h[i], job.r1);
      }
      out.w2 = MulBaseJacobian(group, tables ? &tables->w[i] : nullptr,
                               sk.w[i], job.r2);
      out.k1 = MulBaseJacobian(group, tables ? &tables->v : nullptr, sk.v,
                               job.r1);
      out.k2 = MulBaseJacobian(group, tables ? &tables->v : nullptr, sk.v,
                               job.r2);
    }
  };
  const size_t num_workers = ClampWorkers(num_threads, jobs.size());
  RunWorkers(num_workers, [&](size_t w) { run_jobs(w, num_workers); });

  // Phase 3 — deterministic reduction. [a]g is the same point for every
  // token, so it is computed once; each K_0 then accumulates its jobs'
  // contributions in position order. ONE batch normalization converts
  // every output point, sharing a single field inversion across the
  // bundle (the serial path inverts per scalar multiplication and per
  // K_0 addition). Affine coordinates are canonical, so the tokens come
  // out byte-identical to the serial path.
  const Curve& curve = group.curve();
  const JacobianPoint k0_seed =
      MulBaseJacobian(group, tables ? &tables->g : nullptr, sk.g, sk.a);
  std::vector<JacobianPoint>& flat = arena.flat;
  flat.clear();
  flat.reserve(patterns.size() + 2 * jobs.size());
  for (size_t t = 0; t < patterns.size(); ++t) {
    JacobianPoint k0 = k0_seed;
    for (size_t m = first_job[t]; m < first_job[t + 1]; ++m) {
      k0 = curve.Add(k0, outs[m].b1);
      k0 = curve.Add(k0, outs[m].w2);
    }
    flat.push_back(std::move(k0));
    for (size_t m = first_job[t]; m < first_job[t + 1]; ++m) {
      flat.push_back(outs[m].k1);
      flat.push_back(outs[m].k2);
    }
  }
  std::vector<AffinePoint>& affine = arena.affine;
  curve.BatchToAffine(flat, &affine, &arena.prefix);

  std::vector<Token> tokens(patterns.size());
  size_t cursor = 0;
  for (size_t t = 0; t < patterns.size(); ++t) {
    Token& tk = tokens[t];
    tk.pattern = patterns[t];
    tk.k0 = affine[cursor++];
    const size_t count = first_job[t + 1] - first_job[t];
    tk.k1.reserve(count);
    tk.k2.reserve(count);
    for (size_t m = 0; m < count; ++m) {
      tk.k1.push_back(affine[cursor++]);
      tk.k2.push_back(affine[cursor++]);
    }
  }
  return tokens;
}

size_t QueryPairingCost(const Token& token) {
  return 2 * NonStarCount(token.pattern) + 1;
}

Result<Fp2Elem> Query(const PairingGroup& group, const Token& token,
                      const Ciphertext& ct) {
  const size_t width = token.pattern.size();
  if (ct.c1.size() != width || ct.c2.size() != width) {
    return Status::InvalidArgument(
        "ciphertext/token width mismatch in Query");
  }
  const size_t non_star = NonStarCount(token.pattern);
  if (token.k1.size() != non_star || token.k2.size() != non_star) {
    return Status::InvalidArgument("malformed token: |k1|,|k2| != |J|");
  }
  // denom = e(C_0, K_0) / prod_{i in J} e(C_i,1, K_i,1) e(C_i,2, K_i,2).
  Fp2Elem num = group.Pair(ct.c0, token.k0);
  Fp2Elem denom = group.GtOne();
  size_t j = 0;
  for (size_t i = 0; i < width; ++i) {
    if (token.pattern[i] == kStar) continue;
    denom = group.GtMul(denom, group.Pair(ct.c1[i], token.k1[j]));
    denom = group.GtMul(denom, group.Pair(ct.c2[i], token.k2[j]));
    ++j;
  }
  // M = C' / (num / denom) = C' * denom / num.
  Fp2Elem ratio = group.GtMul(num, group.GtInv(denom));
  return group.GtMul(ct.c_prime, group.GtInv(ratio));
}

Result<bool> Matches(const PairingGroup& group, const Token& token,
                     const Ciphertext& ct, const Fp2Elem& marker) {
  SLOC_ASSIGN_OR_RETURN(Fp2Elem recovered, Query(group, token, ct));
  return group.GtEqual(recovered, marker);
}

PrecompiledToken PrecompileToken(const PairingGroup& group,
                                 const Token& token) {
  std::vector<PrecompiledToken> out =
      PrecompileTokens(group, {&token}, /*num_threads=*/1);
  return std::move(out.front());
}

std::vector<PrecompiledToken> PrecompileTokens(
    const PairingGroup& group, const std::vector<const Token*>& tokens,
    unsigned num_threads) {
  const Curve& curve = group.curve();
  const MillerPlan& plan = group.miller_plan();
  // One unit per (token, chain), token-major; within a token K_0, then
  // K_j,1 and K_j,2 per non-star position j (a malformed token stops at
  // its shortest point list). first[t] is token t's first unit.
  std::vector<PrecompiledToken> out(tokens.size());
  std::vector<const AffinePoint*> points;
  std::vector<size_t> first(tokens.size() + 1, 0);
  for (size_t t = 0; t < tokens.size(); ++t) {
    const Token& token = *tokens[t];
    PrecompiledToken& compiled = out[t];
    compiled.pattern = token.pattern;
    points.push_back(&token.k0);
    for (size_t i = 0; i < token.pattern.size(); ++i) {
      if (token.pattern[i] == kStar) continue;
      const size_t j = compiled.positions.size();
      if (j >= token.k1.size() || j >= token.k2.size()) break;  // malformed
      compiled.positions.push_back(i);
      points.push_back(&token.k1[j]);
      points.push_back(&token.k2[j]);
    }
    first[t + 1] = points.size();
  }
  const size_t units = points.size();
  // One pass: consecutive units form groups, each run, inverted and
  // normalised by one worker (CompileMillerTables). Under the ifma8
  // walk a group fills the eight lanes; under the scalar walk the units
  // split evenly over the workers. Field arithmetic is exact, so the
  // tables are identical at every thread count and grouping.
  const size_t split = ClampWorkers(num_threads, units);
  const size_t group_size = plan.walk() == MillerWalk::kIfma8
                                ? kMillerLanes
                                : std::max<size_t>(1, (units + split - 1) /
                                                          split);
  const size_t groups = (units + group_size - 1) / group_size;
  std::vector<MillerLineTable> tables(units);
  const size_t workers = ClampWorkers(num_threads, groups);
  RunWorkers(workers, [&](size_t w) {
    MillerCompileScratch scratch;
    for (size_t g = w; g < groups; g += workers) {
      const size_t begin = g * group_size;
      CompileMillerTables(curve, plan, points.data() + begin,
                          std::min(group_size, units - begin),
                          tables.data() + begin, &scratch);
    }
  });
  for (size_t t = 0; t < tokens.size(); ++t) {
    PrecompiledToken& compiled = out[t];
    const size_t non_star = compiled.positions.size();
    compiled.k0 = std::move(tables[first[t]]);
    compiled.k1.reserve(non_star);
    compiled.k2.reserve(non_star);
    for (size_t j = 0; j < non_star; ++j) {
      compiled.k1.push_back(std::move(tables[first[t] + 1 + 2 * j]));
      compiled.k2.push_back(std::move(tables[first[t] + 2 + 2 * j]));
    }
  }
  return out;
}

EvalLayout MakeEvalLayout(
    size_t width, const std::vector<const PrecompiledToken*>& tokens) {
  EvalLayout layout;
  layout.width = width;
  layout.slot_of.assign(width, -1);
  std::vector<bool> used(width, false);
  for (const PrecompiledToken* token : tokens) {
    if (token == nullptr) continue;
    for (size_t i : token->positions) {
      if (i < width) used[i] = true;
    }
  }
  for (size_t i = 0; i < width; ++i) {
    if (!used[i]) continue;
    layout.slot_of[i] = int32_t(layout.positions.size());
    layout.positions.push_back(i);
  }
  return layout;
}

Result<EvalView> MakeEvalView(const PairingGroup& group,
                              const EvalLayout& layout,
                              const Ciphertext& ct) {
  EvalView view;
  SLOC_RETURN_IF_ERROR(MakeEvalView(group, layout, ct, &view));
  return view;
}

Status MakeEvalView(const PairingGroup& group, const EvalLayout& layout,
                    const Ciphertext& ct, EvalView* out) {
  if (ct.c1.size() != layout.width || ct.c2.size() != layout.width) {
    return Status::InvalidArgument(
        "ciphertext/token width mismatch in MakeEvalView");
  }
  const Fp& fp = group.fp();
  // `negate` bakes the e(C, -K) fold into the stored coordinate, so the
  // query path applies no Neg at all: phi(-B).y = -i*y_B.
  auto distort = [&fp](const AffinePoint& p, bool negate,
                       EvalView::Coord* coord) {
    coord->infinity = p.infinity;
    if (p.infinity) {
      coord->xq = fp.Zero();
      coord->y_im = fp.Zero();
      return;
    }
    fp.Neg(p.x, &coord->xq);  // phi(B).x = -x_B
    if (negate) {
      fp.Neg(p.y, &coord->y_im);
    } else {
      coord->y_im = p.y;
    }
  };
  const size_t slots = layout.positions.size();
  distort(ct.c0, /*negate=*/false, &out->c0);
  // resize keeps capacity, so a reused view stops allocating once its
  // slots match the layout.
  out->c1.resize(slots);
  out->c2.resize(slots);
  for (size_t s = 0; s < slots; ++s) {
    const size_t i = layout.positions[s];
    distort(ct.c1[i], /*negate=*/true, &out->c1[s]);
    distort(ct.c2[i], /*negate=*/true, &out->c2[s]);
  }
  return Status::Ok();
}

Result<Fp2Elem> QueryMillerPrecompiledView(const PairingGroup& group,
                                           const PrecompiledToken& token,
                                           const EvalLayout& layout,
                                           const EvalView& view) {
  QueryScratch scratch;
  return QueryMillerPrecompiledView(group, token, layout, view, &scratch);
}

namespace {

/// The checks every view query makes once per token: layout width,
/// token shape, and that the layout covers each non-star position.
/// Fills `slots` with the layout slot of each non-star position.
Status ResolveTokenSlots(const PrecompiledToken& token,
                         const EvalLayout& layout, std::vector<size_t>* slots) {
  if (layout.width != token.pattern.size()) {
    return Status::InvalidArgument(
        "ciphertext/token width mismatch in QueryMillerPrecompiledView");
  }
  const size_t non_star = NonStarCount(token.pattern);
  if (token.k1.size() != non_star || token.k2.size() != non_star ||
      token.positions.size() != non_star) {
    return Status::InvalidArgument(
        "malformed precompiled token: |k1|,|k2| != |J|");
  }
  slots->clear();
  for (size_t i : token.positions) {
    SLOC_CHECK(i < layout.slot_of.size() && layout.slot_of[i] >= 0)
        << "EvalView layout does not cover token position " << i;
    slots->push_back(size_t(layout.slot_of[i]));
  }
  return Status::Ok();
}

/// The scalar walk of one view (slots already resolved); returns the
/// executed pair count through `executed`.
Fp2Elem ScalarViewMiller(const PairingGroup& group,
                         const PrecompiledToken& token,
                         const std::vector<size_t>& slots,
                         const EvalView& view, QueryScratch* scratch,
                         size_t* executed) {
  // The numerator e(C_0, K_0) plus each denominator pairing, whose
  // stored coordinates are pre-negated so it folds in as its inverse.
  std::vector<PrecompiledPairingCoords>& pairs = scratch->pairs;
  pairs.clear();
  pairs.reserve(2 * slots.size() + 1);
  pairs.push_back(PrecompiledPairingCoords{&token.k0, view.c0.xq,
                                           view.c0.y_im, view.c0.infinity});
  for (size_t j = 0; j < slots.size(); ++j) {
    const EvalView::Coord& a = view.c1[slots[j]];
    const EvalView::Coord& b = view.c2[slots[j]];
    pairs.push_back(
        PrecompiledPairingCoords{&token.k1[j], a.xq, a.y_im, a.infinity});
    pairs.push_back(
        PrecompiledPairingCoords{&token.k2[j], b.xq, b.y_im, b.infinity});
  }
  return MultiMillerLoopCoords(group.curve(), group.fp2(),
                               group.miller_plan(), pairs, &scratch->pairing,
                               executed);
}

/// Whether any point the token evaluates in `view` is the identity.
bool ViewHasIdentity(const std::vector<size_t>& slots, const EvalView& view) {
  if (view.c0.infinity) return true;
  for (size_t slot : slots) {
    if (view.c1[slot].infinity || view.c2[slot].infinity) return true;
  }
  return false;
}

}  // namespace

Result<Fp2Elem> QueryMillerPrecompiledView(const PairingGroup& group,
                                           const PrecompiledToken& token,
                                           const EvalLayout& layout,
                                           const EvalView& view,
                                           QueryScratch* scratch) {
  SLOC_RETURN_IF_ERROR(ResolveTokenSlots(token, layout, &scratch->slots));
  size_t executed = 0;
  Fp2Elem ratio_miller = ScalarViewMiller(group, token, scratch->slots, view,
                                          scratch, &executed);
  group.CountPairings(executed);
  group.CountPrecompPairings(executed);
  return ratio_miller;
}

Status QueryMillerPrecompiledViews(const PairingGroup& group,
                                   const PrecompiledToken& token,
                                   const EvalLayout& layout,
                                   const std::vector<const EvalView*>& views,
                                   std::vector<Fp2Elem>* out,
                                   QueryScratch* scratch) {
  SLOC_RETURN_IF_ERROR(ResolveTokenSlots(token, layout, &scratch->slots));
  const std::vector<size_t>& slots = scratch->slots;
  const size_t n = views.size();
  out->resize(n);
  size_t executed = 0;
  const bool lanes = group.miller_plan().walk() == MillerWalk::kIfma8;
  for (size_t begin = 0; begin < n; begin += kMillerLanes) {
    const size_t count = std::min(kMillerLanes, n - begin);
    bool identity = false;
    for (size_t lane = 0; lane < count && !identity; ++lane) {
      identity = ViewHasIdentity(slots, *views[begin + lane]);
    }
    if (!lanes || identity) {
      for (size_t lane = 0; lane < count; ++lane) {
        size_t view_executed = 0;
        (*out)[begin + lane] =
            ScalarViewMiller(group, token, slots, *views[begin + lane],
                             scratch, &view_executed);
        executed += view_executed;
      }
      continue;
    }
    // Same pairs as the scalar walk, trivial tables dropped; lanes past
    // `count` repeat the group's last view and are discarded.
    std::vector<LanePairingCoords>& pairs = scratch->lanes;
    pairs.clear();
    // column: 0 is C_0, 1 is C_i,1 and 2 is C_i,2 at layout `slot`.
    auto add_pair = [&](const MillerLineTable& table, int column,
                        size_t slot) {
      if (table.trivial()) return;
      pairs.emplace_back();
      LanePairingCoords& pair = pairs.back();
      pair.table = &table;
      for (size_t lane = 0; lane < kMillerLanes; ++lane) {
        const EvalView& view = *views[begin + std::min(lane, count - 1)];
        const EvalView::Coord& coord =
            column == 0 ? view.c0
                        : (column == 1 ? view.c1[slot] : view.c2[slot]);
        pair.xq[lane] = &coord.xq;
        pair.y_im[lane] = &coord.y_im;
      }
    };
    add_pair(token.k0, 0, 0);
    for (size_t j = 0; j < slots.size(); ++j) {
      add_pair(token.k1[j], 1, slots[j]);
      add_pair(token.k2[j], 2, slots[j]);
    }
    MultiMillerLoopLanes(group.fp2(), group.miller_plan(), pairs, count,
                         out->data() + begin, &scratch->pairing);
    executed += count * pairs.size();
  }
  group.CountPairings(executed);
  group.CountPrecompPairings(executed);
  return Status::Ok();
}

}  // namespace hve
}  // namespace sloc
