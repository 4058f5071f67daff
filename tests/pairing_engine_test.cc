// Property tests for the multi-pairing engine: shared-squaring
// MultiMillerLoop vs products of individual Pair() results, precompiled
// line tables vs the live Miller chain, PrecompiledToken evaluation vs
// the reference Query across random patterns and widths, and the
// executed-loop / precompiled-hit counter accounting.

#include <gtest/gtest.h>

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

  static PairingGroup* group_;
};

PairingGroup* PairingEngineTest::group_ = nullptr;

TEST_F(PairingEngineTest, MultiMillerLoopMatchesPairProduct) {
  RandFn rand = TestRand(101);
  for (size_t count = 1; count <= 5; ++count) {
    std::vector<AffinePoint> as, bs;
    std::vector<bool> inverts;
    for (size_t k = 0; k < count; ++k) {
      as.push_back(RandomElement(rand));
      bs.push_back(RandomElement(rand));
      inverts.push_back((rand() & 1) != 0);
    }
    std::vector<PairingInput> pairs;
    Fp2Elem expected = group_->GtOne();
    for (size_t k = 0; k < count; ++k) {
      pairs.push_back(PairingInput{&as[k], &bs[k], inverts[k]});
      Fp2Elem e = group_->Pair(as[k], bs[k]);
      expected = group_->GtMul(expected, inverts[k] ? group_->GtInv(e) : e);
    }
    size_t executed = 0;
    Fp2Elem miller = MultiMillerLoop(group_->curve(), group_->fp2(),
                                     group_->params().n, pairs, &executed);
    Fp2Elem got = FinalExponentiation(group_->fp2(), miller,
                                      group_->params().cofactor);
    EXPECT_EQ(executed, count);
    EXPECT_TRUE(group_->GtEqual(got, expected)) << "count " << count;
  }
}

TEST_F(PairingEngineTest, MultiMillerLoopSkipsIdentityPairs) {
  RandFn rand = TestRand(102);
  AffinePoint a = RandomElement(rand);
  AffinePoint b = RandomElement(rand);
  AffinePoint inf = group_->curve().Infinity();
  std::vector<PairingInput> pairs = {
      PairingInput{&a, &b, false},
      PairingInput{&inf, &b, false},  // free
      PairingInput{&a, &inf, true},   // free
  };
  size_t executed = 0;
  Fp2Elem miller = MultiMillerLoop(group_->curve(), group_->fp2(),
                                   group_->params().n, pairs, &executed);
  EXPECT_EQ(executed, 1u);
  Fp2Elem got = FinalExponentiation(group_->fp2(), miller,
                                    group_->params().cofactor);
  EXPECT_TRUE(group_->GtEqual(got, group_->Pair(a, b)));

  // All-identity input never touches the loop and yields 1.
  std::vector<PairingInput> none = {PairingInput{&inf, &b, false}};
  Fp2Elem one = MultiMillerLoop(group_->curve(), group_->fp2(),
                                group_->params().n, none, &executed);
  EXPECT_EQ(executed, 0u);
  EXPECT_TRUE(group_->fp2().IsOne(one));
}

TEST_F(PairingEngineTest, PrecompiledLinesMatchLiveChain) {
  RandFn rand = TestRand(103);
  for (int iter = 0; iter < 4; ++iter) {
    AffinePoint a = RandomElement(rand);
    AffinePoint b = RandomElement(rand);
    const bool invert = (iter & 1) != 0;
    MillerLineTable table =
        PrecompileMillerLines(group_->curve(), group_->miller_plan(), a);
    EXPECT_FALSE(table.trivial());
    std::vector<PrecompiledPairingInput> pairs = {
        PrecompiledPairingInput{&table, &b, invert}};
    size_t executed = 0;
    Fp2Elem miller =
        MultiMillerLoopPrecompiled(group_->curve(), group_->fp2(),
                                   group_->miller_plan(), pairs, &executed);
    EXPECT_EQ(executed, 1u);
    Fp2Elem got = FinalExponentiation(group_->fp2(), miller,
                                      group_->params().cofactor);
    Fp2Elem e = group_->Pair(a, b);
    EXPECT_TRUE(group_->GtEqual(got, invert ? group_->GtInv(e) : e))
        << "iter " << iter;
  }
  // Identity table is trivial and free.
  MillerLineTable trivial = PrecompileMillerLines(
      group_->curve(), group_->miller_plan(), group_->curve().Infinity());
  EXPECT_TRUE(trivial.trivial());
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

// PrecompiledToken evaluation must agree with the reference Query (the
// same G_T element, hence the same match outcome) for random patterns,
// including the all-star and zero-star edge cases, across widths 1-32.
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
      Fp2Elem multi = hve::QueryMultiPairing(*group_, tk, ct).value();
      Fp2Elem precomp = hve::QueryPrecompiled(*group_, ptk, ct).value();
      EXPECT_TRUE(group_->GtEqual(reference, multi))
          << "width " << width << " pattern " << pattern;
      EXPECT_TRUE(group_->GtEqual(reference, precomp))
          << "width " << width << " pattern " << pattern;
      EXPECT_EQ(hve::Matches(*group_, tk, ct, marker).value(),
                hve::MatchesPrecompiled(*group_, ptk, ct, marker).value());
    }
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
              hve::MatchesPrecompiled(*group_, ptk, ct, marker).value())
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

// The raw Miller-ratio query plus a (possibly batched) final
// exponentiation must reproduce QueryPrecompiled / Query exactly.
TEST_F(PairingEngineTest, QueryMillerPlusFinalExpEqualsQuery) {
  RandFn rand = TestRand(302);
  const size_t width = 6;
  hve::KeyPair keys = hve::Setup(*group_, width, rand).value();
  Fp2Elem marker = group_->RandomGt(rand);
  hve::Token tk = hve::GenToken(*group_, keys.sk, "0*1*10", rand).value();
  hve::PrecompiledToken ptk = hve::PrecompileToken(*group_, tk);
  const Fp2& fp2 = group_->fp2();
  // The two raw paths run the Miller chain on opposite arguments
  // (f_{N,C}(phi(K)) vs the precompiled f_{N,K}(phi(C))), so their
  // un-exponentiated values differ; both must land on Query's element
  // after the (batched) final exponentiation.
  std::vector<Fp2Elem> ratios_p, ratios_m;
  std::vector<Fp2Elem> expected;
  std::vector<Fp2Elem> c_primes;
  for (const char* index : {"001110", "011010", "010101"}) {
    hve::Ciphertext ct =
        hve::Encrypt(*group_, keys.pk, index, marker, rand).value();
    expected.push_back(hve::Query(*group_, tk, ct).value());
    ratios_p.push_back(hve::QueryMillerPrecompiled(*group_, ptk, ct).value());
    ratios_m.push_back(
        hve::QueryMillerMultiPairing(*group_, tk, ct).value());
    c_primes.push_back(ct.c_prime);
  }
  BatchFinalExponentiation(fp2, group_->params().cofactor, &ratios_p);
  BatchFinalExponentiation(fp2, group_->params().cofactor, &ratios_m);
  for (size_t i = 0; i < expected.size(); ++i) {
    Fp2Elem rec_p = group_->GtMul(c_primes[i], group_->GtInv(ratios_p[i]));
    Fp2Elem rec_m = group_->GtMul(c_primes[i], group_->GtInv(ratios_m[i]));
    EXPECT_TRUE(group_->GtEqual(rec_p, expected[i])) << "ct " << i;
    EXPECT_TRUE(group_->GtEqual(rec_m, expected[i])) << "ct " << i;
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

  // Healthy token: all 2*3+1 loops run; none from tables.
  group_->ResetCounters();
  (void)hve::QueryMultiPairing(*group_, tk, ct).value();
  EXPECT_EQ(group_->counters().pairings, 7u);
  EXPECT_EQ(group_->counters().precomp_pairings, 0u);

  // Identity token components short-circuit: their loops are free and
  // must not be charged.
  hve::Token maimed = tk;
  maimed.k1[1] = group_->curve().Infinity();
  maimed.k2[2] = group_->curve().Infinity();
  group_->ResetCounters();
  (void)hve::QueryMultiPairing(*group_, maimed, ct).value();
  EXPECT_EQ(group_->counters().pairings, 5u);

  // The precompiled path charges both counters with executed loops.
  hve::PrecompiledToken ptk = hve::PrecompileToken(*group_, maimed);
  group_->ResetCounters();
  (void)hve::QueryPrecompiled(*group_, ptk, ct).value();
  EXPECT_EQ(group_->counters().pairings, 5u);
  EXPECT_EQ(group_->counters().precomp_pairings, 5u);
}

}  // namespace
}  // namespace sloc
