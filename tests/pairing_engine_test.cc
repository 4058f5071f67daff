// Property tests for the precompiled pairing engine: shared-squaring
// MultiMillerLoopCoords over precompiled line tables vs products of
// individual Pair() results, PrecompiledToken evaluation through slim
// views (per view and per batched token round) vs the reference Query
// across random patterns and widths, and the executed-loop /
// precompiled-hit counter accounting. The signed-digit (NAF) schedule
// of MillerPlan: its digits, its length at the perf-gate group, and
// precompiled tables against Pair() for first arguments of any order.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hve/hve.h"
#include "pairing/group.h"
#include "pairing/miller.h"

namespace sloc {
namespace {

RandFn TestRand(uint64_t seed = 42) {
  auto rng = std::make_shared<Rng>(seed);
  return [rng]() { return rng->NextU64(); };
}

class PairingEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PairingParamSpec spec;
    spec.p_prime_bits = 32;
    spec.q_prime_bits = 32;
    spec.seed = 20210323;
    group_ = new PairingGroup(PairingGroup::Generate(spec).value());
  }
  static void TearDownTestSuite() {
    delete group_;
    group_ = nullptr;
  }

  static AffinePoint RandomElement(const RandFn& rand) {
    return group_->Mul(BigInt::RandomBelow(group_->params().n, rand),
                       group_->gen());
  }

  /// The pair of `table` evaluated at phi(B), or at phi(-B) when
  /// `invert`; an identity B is a skipped pair.
  static PrecompiledPairingCoords Coords(const MillerLineTable& table,
                                         const AffinePoint& b, bool invert) {
    const Fp& fp = group_->fp();
    PrecompiledPairingCoords pair;
    pair.table = &table;
    pair.skip = b.infinity;
    if (b.infinity) return pair;
    fp.Neg(b.x, &pair.xq);
    pair.y_im = b.y;
    if (invert) fp.Neg(b.y, &pair.y_im);
    return pair;
  }

  /// The G_T element `ptk` recovers from `ct` through a slim view: the
  /// per-view scalar walk plus FinalExponentiation. The batched token
  /// round over the same one-view batch must recover the same element.
  static Fp2Elem ViewQuery(const hve::PrecompiledToken& ptk,
                           const hve::Ciphertext& ct) {
    hve::EvalLayout layout = hve::MakeEvalLayout(ct.c1.size(), {&ptk});
    hve::EvalView view = hve::MakeEvalView(*group_, layout, ct).value();
    Fp2Elem ratio = FinalExponentiation(
        group_->fp2(),
        hve::QueryMillerPrecompiledView(*group_, ptk, layout, view).value(),
        group_->params().cofactor);
    std::vector<Fp2Elem> round;
    hve::QueryScratch scratch;
    EXPECT_TRUE(hve::QueryMillerPrecompiledViews(*group_, ptk, layout,
                                                 {&view}, &round, &scratch)
                    .ok());
    BatchFinalExponentiation(group_->fp2(), group_->params().cofactor,
                             &round);
    EXPECT_TRUE(group_->GtEqual(round.at(0), ratio));
    return group_->GtMul(ct.c_prime, group_->GtInv(ratio));
  }

  static PairingGroup* group_;
};

PairingGroup* PairingEngineTest::group_ = nullptr;

TEST_F(PairingEngineTest, MultiMillerLoopCoordsMatchesPairProduct) {
  RandFn rand = TestRand(101);
  for (size_t count = 1; count <= 5; ++count) {
    std::vector<AffinePoint> as, bs;
    std::vector<bool> inverts;
    for (size_t k = 0; k < count; ++k) {
      as.push_back(RandomElement(rand));
      bs.push_back(RandomElement(rand));
      inverts.push_back((rand() & 1) != 0);
    }
    std::vector<MillerLineTable> tables;
    for (const AffinePoint& a : as) {
      tables.push_back(
          PrecompileMillerLines(group_->curve(), group_->miller_plan(), a));
    }
    std::vector<PrecompiledPairingCoords> pairs;
    Fp2Elem expected = group_->GtOne();
    for (size_t k = 0; k < count; ++k) {
      pairs.push_back(Coords(tables[k], bs[k], inverts[k]));
      Fp2Elem e = group_->Pair(as[k], bs[k]);
      expected = group_->GtMul(expected, inverts[k] ? group_->GtInv(e) : e);
    }
    size_t executed = 0;
    Fp2Elem miller =
        MultiMillerLoopCoords(group_->curve(), group_->fp2(),
                              group_->miller_plan(), pairs, &executed);
    Fp2Elem got = FinalExponentiation(group_->fp2(), miller,
                                      group_->params().cofactor);
    EXPECT_EQ(executed, count);
    EXPECT_TRUE(group_->GtEqual(got, expected)) << "count " << count;
  }
}

TEST_F(PairingEngineTest, PrecompiledLinesMatchLiveChain) {
  RandFn rand = TestRand(103);
  const AffinePoint inf = group_->curve().Infinity();
  for (int iter = 0; iter < 4; ++iter) {
    AffinePoint a = RandomElement(rand);
    AffinePoint b = RandomElement(rand);
    const bool invert = (iter & 1) != 0;
    MillerLineTable table =
        PrecompileMillerLines(group_->curve(), group_->miller_plan(), a);
    EXPECT_FALSE(table.trivial());
    // The skipped pair (identity evaluation point) contributes 1.
    std::vector<PrecompiledPairingCoords> pairs = {
        Coords(table, b, invert), Coords(table, inf, !invert)};
    size_t executed = 0;
    Fp2Elem miller =
        MultiMillerLoopCoords(group_->curve(), group_->fp2(),
                              group_->miller_plan(), pairs, &executed);
    EXPECT_EQ(executed, 1u);
    Fp2Elem got = FinalExponentiation(group_->fp2(), miller,
                                      group_->params().cofactor);
    Fp2Elem e = group_->Pair(a, b);
    EXPECT_TRUE(group_->GtEqual(got, invert ? group_->GtInv(e) : e))
        << "iter " << iter;
  }
  // Identity table is trivial and free; an all-free walk yields 1.
  MillerLineTable trivial = PrecompileMillerLines(
      group_->curve(), group_->miller_plan(), inf);
  EXPECT_TRUE(trivial.trivial());
  size_t executed = 1;
  Fp2Elem one = MultiMillerLoopCoords(
      group_->curve(), group_->fp2(), group_->miller_plan(),
      {Coords(trivial, RandomElement(rand), false)}, &executed);
  EXPECT_EQ(executed, 0u);
  EXPECT_TRUE(group_->fp2().IsOne(one));
}

/// Checks that `plan`'s digits are the NAF of `order` below its top
/// digit, and that length() counts one line per digit plus one per
/// nonzero digit.
void ExpectNafSchedule(const MillerPlan& plan, const BigInt& order) {
  const std::vector<int8_t>& digits = plan.adds();
  BigInt value(1);  // the top digit
  int8_t prev = 1;
  size_t nonzero = 0;
  for (int8_t d : digits) {
    ASSERT_TRUE(d == -1 || d == 0 || d == 1);
    EXPECT_FALSE(d != 0 && prev != 0) << "adjacent nonzero digits";
    value = value + value;
    if (d > 0) value = value + BigInt(1);
    if (d < 0) value = value - BigInt(1);
    if (d != 0) ++nonzero;
    prev = d;
  }
  EXPECT_TRUE(value == order) << order.ToDecimal();
  EXPECT_EQ(plan.length(), digits.size() + nonzero);
  if (order.Bit(0)) {
    ASSERT_FALSE(digits.empty());
    EXPECT_NE(digits.back(), 0) << "an odd order ends in a nonzero digit";
  }
}

TEST(MillerPlanTest, ScheduleIsTheOrdersNaf) {
  // The perf-gate group (pbits=120, the svcbench group too): a 239-bit
  // n with 114 set bits. Its NAF has 240 digits, 81 of them nonzero,
  // so a chain has 239 doubling and 80 addition or subtraction lines:
  // 319 against the binary schedule's 238 + 113 = 351.
  PairingParamSpec spec;
  spec.p_prime_bits = 120;
  spec.q_prime_bits = 120;
  spec.seed = 20210323;
  const PairingParams params = GeneratePairingParams(spec).value();
  const Fp fp = Fp::Create(params.field_p).value();
  const MillerPlan gate =
      MillerPlan::Create(fp, params.n, MillerWalk::kScalar).value();
  EXPECT_EQ(params.n.BitLength(), 239u);
  ExpectNafSchedule(gate, params.n);
  EXPECT_EQ(gate.adds().size(), 239u);
  EXPECT_EQ(gate.length(), 319u);
  EXPECT_NE(std::count(gate.adds().begin(), gate.adds().end(), -1), 0);

  RandFn rand = TestRand(110);
  std::vector<BigInt> orders = {BigInt(2), BigInt(3), BigInt(7),
                                BigInt(1000003), (BigInt(1) << 64),
                                (BigInt(1) << 64) - BigInt(1),
                                (BigInt(1) << 64) + BigInt(1)};
  for (int k = 0; k < 6; ++k) {
    orders.push_back((BigInt(1) << 200) +
                     BigInt::RandomBelow(BigInt(1) << 200, rand));
  }
  for (const BigInt& order : orders) {
    ExpectNafSchedule(
        MillerPlan::Create(fp, order, MillerWalk::kScalar).value(), order);
  }
  EXPECT_FALSE(MillerPlan::Create(fp, BigInt(1), MillerWalk::kScalar).ok());
}

// Precompiled chains under the signed-digit schedule against Pair(),
// which keeps its binary loop: the schedules differ by verticals and
// f_{-1} = 1 / v_A, F_p* values the final exponentiation erases, for
// first arguments of any order. The test group's cofactor (60) gives
// points of order 3, 5 and 15; for order 3 the accumulated multiple
// after a doubling is +-1 mod 3 whenever it is not 0, so a -1 digit
// meets T = +-A mid-chain (a vertical or a tangent).
TEST_F(PairingEngineTest, SignedDigitTablesMatchPairForAnyFirstArgument) {
  RandFn rand = TestRand(111);
  const Curve& curve = group_->curve();
  const MillerPlan& plan = group_->miller_plan();
  const BigInt curve_order = group_->params().field_p + BigInt(1);
  auto small_order = [&](uint64_t ell) {
    const BigInt ell_big = BigInt::FromU64(ell);
    EXPECT_TRUE(BigInt::Mod(curve_order, ell_big).IsZero()) << ell;
    AffinePoint a;
    do {
      a = curve.ScalarMul(curve_order / ell_big, curve.RandomPoint(rand));
    } while (a.infinity);
    return a;
  };
  // The schedule meets T = +-A at a -1 digit for a point of order 3.
  bool met = false;
  uint64_t m = 1;
  for (int8_t d : plan.adds()) {
    m = (2 * m) % 3;
    if (d < 0 && m != 0) met = true;
    m = (m + 3 + uint64_t(int64_t(d))) % 3;
  }
  EXPECT_TRUE(met);

  const AffinePoint order3 = small_order(3);
  std::vector<AffinePoint> as = {
      group_->RandomGp(rand),  group_->RandomGq(rand),
      RandomElement(rand),     order3,
      curve.Neg(order3),       small_order(5),
      small_order(15),         small_order(4),
      curve.MakePoint(BigInt(0), BigInt(0)).value(),  // order 2
      group_->Add(small_order(3), group_->RandomGp(rand)),
      curve.RandomPoint(rand)};
  std::vector<AffinePoint> bs = {RandomElement(rand), group_->RandomGq(rand),
                                 small_order(3)};
  for (size_t i = 0; i < as.size(); ++i) {
    const MillerLineTable table = PrecompileMillerLines(curve, plan, as[i]);
    for (size_t j = 0; j < bs.size(); ++j) {
      const Fp2Elem got = FinalExponentiation(
          group_->fp2(),
          MultiMillerLoopCoords(curve, group_->fp2(), plan,
                                {Coords(table, bs[j], false)}),
          group_->params().cofactor);
      EXPECT_TRUE(group_->GtEqual(got, group_->Pair(as[i], bs[j])))
          << "a " << i << ", b " << j;
    }
  }
}

// Chain-granularity precompilation: spreading (token, chain) units over
// four workers and normalising per token must give the very tables the
// one-thread path and the per-token entry point give.
TEST_F(PairingEngineTest, PrecompiledTablesIdenticalAtOneAndFourThreads) {
  RandFn rand = TestRand(107);
  hve::KeyPair keys = hve::Setup(*group_, 5, rand).value();
  std::vector<hve::Token> tokens;
  for (const char* pattern : {"01*1*", "*****", "10110", "1****"}) {
    tokens.push_back(hve::GenToken(*group_, keys.sk, pattern, rand).value());
  }
  std::vector<const hve::Token*> ptrs;
  for (const hve::Token& t : tokens) ptrs.push_back(&t);
  auto serial = hve::PrecompileTokens(*group_, ptrs, 1);
  auto parallel = hve::PrecompileTokens(*group_, ptrs, 4);
  ASSERT_EQ(parallel.size(), tokens.size());
  for (size_t t = 0; t < tokens.size(); ++t) {
    const hve::PrecompiledToken single =
        hve::PrecompileToken(*group_, tokens[t]);
    EXPECT_EQ(parallel[t].pattern, tokens[t].pattern);
    EXPECT_EQ(parallel[t].positions, serial[t].positions);
    EXPECT_TRUE(parallel[t].k0 == serial[t].k0) << "token " << t;
    EXPECT_TRUE(parallel[t].k1 == serial[t].k1) << "token " << t;
    EXPECT_TRUE(parallel[t].k2 == serial[t].k2) << "token " << t;
    EXPECT_TRUE(single.k0 == serial[t].k0) << "token " << t;
    EXPECT_TRUE(single.k1 == serial[t].k1) << "token " << t;
    EXPECT_TRUE(single.k2 == serial[t].k2) << "token " << t;
    EXPECT_EQ(serial[t].k0.size(), group_->miller_plan().length());
  }
}

// PrecompiledToken evaluation through a slim view must agree with the
// reference Query (the same G_T element, hence the same match outcome)
// for random patterns, including the all-star and zero-star edge cases,
// across widths 1-32.
TEST_F(PairingEngineTest, PrecompiledTokenMatchesQueryAcrossWidths) {
  Rng rng(777);
  RandFn rand = TestRand(104);
  for (size_t width : {size_t(1), size_t(2), size_t(3), size_t(5),
                       size_t(8), size_t(16), size_t(32)}) {
    hve::KeyPair keys = hve::Setup(*group_, width, rand).value();
    Fp2Elem marker = group_->RandomGt(rand);
    std::vector<std::string> patterns;
    patterns.push_back(std::string(width, '*'));  // all-star
    {
      std::string full(width, '0');               // zero-star
      for (auto& c : full) c = rng.NextBool() ? '1' : '0';
      patterns.push_back(full);
    }
    for (int extra = 0; extra < 2; ++extra) {
      std::string p(width, '*');
      for (auto& c : p) {
        double r = rng.NextDouble();
        c = r < 0.4 ? '*' : (r < 0.7 ? '0' : '1');
      }
      patterns.push_back(p);
    }
    std::string index(width, '0');
    for (auto& c : index) c = rng.NextBool() ? '1' : '0';
    hve::Ciphertext ct =
        hve::Encrypt(*group_, keys.pk, index, marker, rand).value();
    for (const std::string& pattern : patterns) {
      hve::Token tk =
          hve::GenToken(*group_, keys.sk, pattern, rand).value();
      hve::PrecompiledToken ptk = hve::PrecompileToken(*group_, tk);
      Fp2Elem reference = hve::Query(*group_, tk, ct).value();
      Fp2Elem viewed = ViewQuery(ptk, ct);
      EXPECT_TRUE(group_->GtEqual(reference, viewed))
          << "width " << width << " pattern " << pattern;
      EXPECT_EQ(hve::Matches(*group_, tk, ct, marker).value(),
                group_->GtEqual(viewed, marker));
    }
    // A ciphertext of another width never reaches a walk: the view
    // extraction rejects it.
    hve::PrecompiledToken ptk = hve::PrecompileToken(
        *group_, hve::GenToken(*group_, keys.sk, patterns[1], rand).value());
    hve::EvalLayout layout = hve::MakeEvalLayout(width, {&ptk});
    hve::Ciphertext wider = ct;
    wider.c1.push_back(ct.c1.front());
    wider.c2.push_back(ct.c2.front());
    EXPECT_FALSE(hve::MakeEvalView(*group_, layout, wider).ok())
        << "width " << width;
  }
}

TEST_F(PairingEngineTest, PrecompiledTokenReuseAcrossCiphertexts) {
  // One precompilation, many evaluations: the alert-scan pattern.
  RandFn rand = TestRand(105);
  const size_t width = 6;
  hve::KeyPair keys = hve::Setup(*group_, width, rand).value();
  Fp2Elem marker = group_->RandomGt(rand);
  hve::Token tk = hve::GenToken(*group_, keys.sk, "01**1*", rand).value();
  hve::PrecompiledToken ptk = hve::PrecompileToken(*group_, tk);
  const std::vector<std::string> indexes = {"010010", "010110", "110011",
                                            "011111"};
  for (const std::string& index : indexes) {
    hve::Ciphertext ct =
        hve::Encrypt(*group_, keys.pk, index, marker, rand).value();
    EXPECT_EQ(hve::Matches(*group_, tk, ct, marker).value(),
              group_->GtEqual(ViewQuery(ptk, ct), marker))
        << index;
  }
}

// BatchFinalExponentiation must be bit-identical to applying
// FinalExponentiation per entry — field arithmetic is exact and the
// Montgomery representation canonical, so the shared-inversion path
// yields the very same limb vectors.
TEST_F(PairingEngineTest, BatchFinalExponentiationBitIdentical) {
  RandFn rand = TestRand(301);
  const Fp2& fp2 = group_->fp2();
  const BigInt& cofactor = group_->params().cofactor;
  for (size_t count : {size_t(1), size_t(2), size_t(3), size_t(8),
                       size_t(17)}) {
    std::vector<Fp2Elem> millers;
    millers.reserve(count);
    for (size_t k = 0; k < count; ++k) {
      AffinePoint a = RandomElement(rand);
      AffinePoint b = RandomElement(rand);
      millers.push_back(MillerLoop(group_->curve(), fp2,
                                   group_->params().n, a, b));
    }
    std::vector<Fp2Elem> expected;
    expected.reserve(count);
    for (const Fp2Elem& f : millers) {
      expected.push_back(FinalExponentiation(fp2, f, cofactor));
    }
    BatchFinalExponentiation(fp2, cofactor, &millers);
    ASSERT_EQ(millers.size(), count);
    for (size_t k = 0; k < count; ++k) {
      EXPECT_EQ(millers[k].re, expected[k].re) << "count " << count;
      EXPECT_EQ(millers[k].im, expected[k].im) << "count " << count;
    }
  }
  // Empty batch is a no-op.
  std::vector<Fp2Elem> none;
  BatchFinalExponentiation(fp2, cofactor, &none);
  EXPECT_TRUE(none.empty());
}

// The raw Miller-ratio queries plus a (possibly batched) final
// exponentiation must reproduce Query exactly: the per-view scalar walk
// and one batched token round over several views.
TEST_F(PairingEngineTest, QueryMillerPlusFinalExpEqualsQuery) {
  RandFn rand = TestRand(302);
  const size_t width = 6;
  hve::KeyPair keys = hve::Setup(*group_, width, rand).value();
  Fp2Elem marker = group_->RandomGt(rand);
  hve::Token tk = hve::GenToken(*group_, keys.sk, "0*1*10", rand).value();
  hve::PrecompiledToken ptk = hve::PrecompileToken(*group_, tk);
  hve::EvalLayout layout = hve::MakeEvalLayout(width, {&ptk});
  const Fp2& fp2 = group_->fp2();
  const BigInt& cofactor = group_->params().cofactor;
  std::vector<hve::EvalView> views;
  std::vector<Fp2Elem> singles, expected, c_primes;
  for (const char* index : {"001110", "011010", "010101"}) {
    hve::Ciphertext ct =
        hve::Encrypt(*group_, keys.pk, index, marker, rand).value();
    expected.push_back(hve::Query(*group_, tk, ct).value());
    views.push_back(hve::MakeEvalView(*group_, layout, ct).value());
    singles.push_back(FinalExponentiation(
        fp2,
        hve::QueryMillerPrecompiledView(*group_, ptk, layout, views.back())
            .value(),
        cofactor));
    c_primes.push_back(ct.c_prime);
  }
  std::vector<const hve::EvalView*> view_ptrs;
  for (const hve::EvalView& view : views) view_ptrs.push_back(&view);
  std::vector<Fp2Elem> round;
  hve::QueryScratch scratch;
  ASSERT_TRUE(hve::QueryMillerPrecompiledViews(*group_, ptk, layout,
                                               view_ptrs, &round, &scratch)
                  .ok());
  BatchFinalExponentiation(fp2, cofactor, &round);
  ASSERT_EQ(round.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    Fp2Elem rec_s = group_->GtMul(c_primes[i], group_->GtInv(singles[i]));
    Fp2Elem rec_b = group_->GtMul(c_primes[i], group_->GtInv(round[i]));
    EXPECT_TRUE(group_->GtEqual(rec_s, expected[i])) << "ct " << i;
    EXPECT_TRUE(group_->GtEqual(rec_b, expected[i])) << "ct " << i;
  }
}

// The per-key G_T comb must agree with the wNAF unitary ladder for
// every exponent shape Encrypt can produce.
TEST_F(PairingEngineTest, UnitaryCombMatchesPowUnitary) {
  RandFn rand = TestRand(303);
  const Fp2& fp2 = group_->fp2();
  Fp2Elem base = group_->RandomGt(rand);
  UnitaryComb comb = group_->BuildGtComb(base);
  EXPECT_FALSE(comb.empty());
  const BigInt& n = group_->params().n;
  std::vector<BigInt> exps = {BigInt(0), BigInt(1), BigInt(2),
                              n - BigInt(1), -(n - BigInt(2))};
  for (int i = 0; i < 8; ++i) exps.push_back(BigInt::RandomBelow(n, rand));
  // Wider than the comb: exercises the PowUnitary fallback.
  exps.push_back(n * n + BigInt(12345));
  for (const BigInt& e : exps) {
    Fp2Elem got = comb.Pow(fp2, e);
    Fp2Elem want = fp2.PowUnitary(base, e);
    EXPECT_TRUE(fp2.Equal(got, want)) << "exp bits " << e.BitLength();
  }
  // An empty comb always falls back.
  UnitaryComb empty;
  EXPECT_TRUE(empty.empty());
}

TEST_F(PairingEngineTest, CountersChargeOnlyExecutedLoops) {
  RandFn rand = TestRand(106);
  const size_t width = 4;
  hve::KeyPair keys = hve::Setup(*group_, width, rand).value();
  Fp2Elem marker = group_->RandomGt(rand);
  hve::Ciphertext ct =
      hve::Encrypt(*group_, keys.pk, "0101", marker, rand).value();
  hve::Token tk = hve::GenToken(*group_, keys.sk, "01*1", rand).value();

  // The reference path charges one pairing per Pair() call.
  group_->ResetCounters();
  (void)hve::Query(*group_, tk, ct).value();
  EXPECT_EQ(group_->counters().pairings, 7u);
  EXPECT_EQ(group_->counters().precomp_pairings, 0u);

  // The view path charges both counters with executed loops: all 2*3+1
  // for a healthy token, per view and per batched round alike.
  hve::PrecompiledToken ptk = hve::PrecompileToken(*group_, tk);
  hve::EvalLayout layout = hve::MakeEvalLayout(width, {&ptk});
  hve::EvalView view = hve::MakeEvalView(*group_, layout, ct).value();
  group_->ResetCounters();
  (void)hve::QueryMillerPrecompiledView(*group_, ptk, layout, view).value();
  EXPECT_EQ(group_->counters().pairings, 7u);
  EXPECT_EQ(group_->counters().precomp_pairings, 7u);
  std::vector<Fp2Elem> round;
  hve::QueryScratch scratch;
  group_->ResetCounters();
  ASSERT_TRUE(hve::QueryMillerPrecompiledViews(*group_, ptk, layout,
                                               {&view, &view}, &round,
                                               &scratch)
                  .ok());
  EXPECT_EQ(group_->counters().pairings, 14u);
  EXPECT_EQ(group_->counters().precomp_pairings, 14u);

  // Identity token components compile to trivial tables: their loops
  // are free and must not be charged.
  hve::Token maimed = tk;
  maimed.k1[1] = group_->curve().Infinity();
  maimed.k2[2] = group_->curve().Infinity();
  hve::PrecompiledToken maimed_ptk = hve::PrecompileToken(*group_, maimed);
  group_->ResetCounters();
  (void)hve::QueryMillerPrecompiledView(*group_, maimed_ptk, layout, view)
      .value();
  EXPECT_EQ(group_->counters().pairings, 5u);
  EXPECT_EQ(group_->counters().precomp_pairings, 5u);

  // So are identity ciphertext columns (skipped pairs).
  hve::Ciphertext holed = ct;
  holed.c1[0] = group_->curve().Infinity();
  hve::EvalView holed_view =
      hve::MakeEvalView(*group_, layout, holed).value();
  group_->ResetCounters();
  (void)hve::QueryMillerPrecompiledView(*group_, ptk, layout, holed_view)
      .value();
  EXPECT_EQ(group_->counters().pairings, 6u);
  EXPECT_EQ(group_->counters().precomp_pairings, 6u);
}

}  // namespace
}  // namespace sloc
