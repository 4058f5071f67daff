// Tests for Boneh-Waters HVE: the match/non-match semantics of Fig. 2,
// wildcard behaviour, pairing-cost accounting, and error paths.

#include <gtest/gtest.h>

#include <memory>

#include "common/bitstring.h"
#include "common/rng.h"
#include "hve/hve.h"
#include "hve/serialize.h"

namespace sloc {
namespace {

RandFn TestRand(uint64_t seed = 42) {
  auto rng = std::make_shared<Rng>(seed);
  return [rng]() { return rng->NextU64(); };
}

class HveTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PairingParamSpec spec;
    spec.p_prime_bits = 32;
    spec.q_prime_bits = 32;
    spec.seed = 31337;
    group_ = new PairingGroup(PairingGroup::Generate(spec).value());
  }
  static void TearDownTestSuite() {
    delete group_;
    group_ = nullptr;
  }

  void SetUp() override {
    rand_ = TestRand(7);
    keys_ = hve::Setup(*group_, kWidth, rand_).value();
    marker_ = group_->RandomGt(rand_);
  }

  hve::Ciphertext EncryptIndex(const std::string& index) {
    return hve::Encrypt(*group_, keys_.pk, index, marker_, rand_).value();
  }

  /// The G_T element the token recovers through its precompiled line
  /// tables and a slim view of `ct` plus one final exponentiation: the
  /// batched engine's per-query arithmetic.
  Result<Fp2Elem> ViewQuery(const hve::Token& tk, const hve::Ciphertext& ct) {
    hve::PrecompiledToken ptk = hve::PrecompileToken(*group_, tk);
    hve::EvalLayout layout = hve::MakeEvalLayout(kWidth, {&ptk});
    SLOC_ASSIGN_OR_RETURN(hve::EvalView view,
                          hve::MakeEvalView(*group_, layout, ct));
    SLOC_ASSIGN_OR_RETURN(
        Fp2Elem ratio,
        hve::QueryMillerPrecompiledView(*group_, ptk, layout, view));
    ratio = FinalExponentiation(group_->fp2(), ratio,
                                group_->params().cofactor);
    return group_->GtMul(ct.c_prime, group_->GtInv(ratio));
  }

  bool MatchOf(const std::string& pattern, const std::string& index) {
    hve::Token tk = hve::GenToken(*group_, keys_.sk, pattern, rand_).value();
    hve::Ciphertext ct = EncryptIndex(index);
    return hve::Matches(*group_, tk, ct, marker_).value();
  }

  static constexpr size_t kWidth = 6;
  static PairingGroup* group_;
  RandFn rand_;
  hve::KeyPair keys_;
  Fp2Elem marker_;
};

PairingGroup* HveTest::group_ = nullptr;

TEST_F(HveTest, SetupRejectsZeroWidth) {
  EXPECT_FALSE(hve::Setup(*group_, 0, rand_).ok());
}

TEST_F(HveTest, ExactMatchRecoversMessage) {
  hve::Token tk = hve::GenToken(*group_, keys_.sk, "010110", rand_).value();
  hve::Ciphertext ct = EncryptIndex("010110");
  Fp2Elem recovered = hve::Query(*group_, tk, ct).value();
  EXPECT_TRUE(group_->GtEqual(recovered, marker_));
}

TEST_F(HveTest, MismatchYieldsGarbage) {
  hve::Token tk = hve::GenToken(*group_, keys_.sk, "010110", rand_).value();
  hve::Ciphertext ct = EncryptIndex("010111");  // last bit differs
  Fp2Elem recovered = hve::Query(*group_, tk, ct).value();
  EXPECT_FALSE(group_->GtEqual(recovered, marker_));
}

TEST_F(HveTest, PaperFigure1Example) {
  // Token *00 matches user B (000) and not user A (110) — extended to
  // width 6 as *00***... here: "*00" + "000" padding semantics don't
  // apply; use width-6 analogue *00000 vs indexes 000000 / 110000.
  EXPECT_TRUE(MatchOf("*00000", "000000"));
  EXPECT_TRUE(MatchOf("*00000", "100000"));
  EXPECT_FALSE(MatchOf("*00000", "110000"));
}

TEST_F(HveTest, AllStarTokenMatchesEverything) {
  EXPECT_TRUE(MatchOf("******", "000000"));
  EXPECT_TRUE(MatchOf("******", "111111"));
  EXPECT_TRUE(MatchOf("******", "010101"));
}

TEST_F(HveTest, SingleBitPatterns) {
  EXPECT_TRUE(MatchOf("1*****", "100000"));
  EXPECT_FALSE(MatchOf("1*****", "000000"));
  EXPECT_TRUE(MatchOf("*****0", "101010"));
  EXPECT_FALSE(MatchOf("*****0", "101011"));
}

TEST_F(HveTest, MatchAgreesWithPlaintextSemanticsRandomized) {
  Rng rng(99);
  for (int iter = 0; iter < 12; ++iter) {
    std::string index(kWidth, '0');
    for (auto& c : index) c = rng.NextBool() ? '1' : '0';
    std::string pattern(kWidth, '*');
    for (auto& c : pattern) {
      double r = rng.NextDouble();
      c = r < 0.4 ? '*' : (r < 0.7 ? '0' : '1');
    }
    EXPECT_EQ(MatchOf(pattern, index), PatternMatches(pattern, index))
        << "pattern=" << pattern << " index=" << index;
  }
}

TEST_F(HveTest, QueryCostIsTwoJPlusOne) {
  hve::Token tk = hve::GenToken(*group_, keys_.sk, "01**1*", rand_).value();
  EXPECT_EQ(hve::QueryPairingCost(tk), 2 * 3 + 1);
  hve::Ciphertext ct = EncryptIndex("010010");
  group_->ResetCounters();
  (void)hve::Query(*group_, tk, ct).value();
  EXPECT_EQ(group_->counters().pairings, 2 * 3 + 1);
}

TEST_F(HveTest, AllStarQueryCostsOnePairing) {
  hve::Token tk = hve::GenToken(*group_, keys_.sk, "******", rand_).value();
  hve::Ciphertext ct = EncryptIndex("110110");
  group_->ResetCounters();
  (void)hve::Query(*group_, tk, ct).value();
  EXPECT_EQ(group_->counters().pairings, 1u);
}

TEST_F(HveTest, EncryptValidatesInput) {
  EXPECT_FALSE(hve::Encrypt(*group_, keys_.pk, "01*010", marker_, rand_)
                   .ok());  // star in index
  EXPECT_FALSE(hve::Encrypt(*group_, keys_.pk, "0101", marker_, rand_)
                   .ok());  // wrong width
  EXPECT_FALSE(hve::Encrypt(*group_, keys_.pk, "", marker_, rand_).ok());
}

TEST_F(HveTest, GenTokenValidatesInput) {
  EXPECT_FALSE(hve::GenToken(*group_, keys_.sk, "01x010", rand_).ok());
  EXPECT_FALSE(hve::GenToken(*group_, keys_.sk, "01*", rand_).ok());
}

TEST_F(HveTest, QueryValidatesArity) {
  hve::Token tk = hve::GenToken(*group_, keys_.sk, "010110", rand_).value();
  hve::Ciphertext ct = EncryptIndex("010110");
  ct.c1.pop_back();  // corrupt arity
  EXPECT_FALSE(hve::Query(*group_, tk, ct).ok());
  // Token with k1/k2 sizes inconsistent with the pattern.
  hve::Token bad = hve::GenToken(*group_, keys_.sk, "010110", rand_).value();
  bad.k1.pop_back();
  hve::Ciphertext ok_ct = EncryptIndex("010110");
  EXPECT_FALSE(hve::Query(*group_, bad, ok_ct).ok());
}

TEST_F(HveTest, EncryptIdenticalWithAndWithoutKeyTables) {
  // The fixed-base comb tables and hoisted u_i+h_i bases are a pure
  // strength reduction: with the same randomness the ciphertext must be
  // bit-identical to the table-free path.
  hve::PublicKey stripped = keys_.pk;
  stripped.tables.reset();
  stripped.uh.clear();
  RandFn rand_tables = TestRand(555);
  RandFn rand_naive = TestRand(555);
  hve::Ciphertext with_tables =
      hve::Encrypt(*group_, keys_.pk, "010110", marker_, rand_tables)
          .value();
  hve::Ciphertext without =
      hve::Encrypt(*group_, stripped, "010110", marker_, rand_naive).value();
  EXPECT_EQ(hve::SerializeCiphertext(*group_, with_tables),
            hve::SerializeCiphertext(*group_, without));
}

TEST_F(HveTest, CiphertextsAreRandomized) {
  // Same index encrypted twice yields different ciphertexts (semantic
  // security requires randomization).
  hve::Ciphertext a = EncryptIndex("010110");
  hve::Ciphertext b = EncryptIndex("010110");
  EXPECT_FALSE(group_->fp2().Equal(a.c_prime, b.c_prime));
  EXPECT_FALSE(group_->curve().Equal(a.c0, b.c0));
}

TEST_F(HveTest, PrecompiledViewAgreesWithQueryOnMatch) {
  hve::Token tk = hve::GenToken(*group_, keys_.sk, "01**1*", rand_).value();
  hve::Ciphertext ct = EncryptIndex("010010");
  Fp2Elem slow = hve::Query(*group_, tk, ct).value();
  Fp2Elem fast = ViewQuery(tk, ct).value();
  EXPECT_TRUE(group_->GtEqual(slow, fast));
  EXPECT_TRUE(group_->GtEqual(fast, marker_));
}

TEST_F(HveTest, PrecompiledViewAgreesWithQueryOnMismatch) {
  // Both paths must recover the *same* garbage on a non-match (the
  // optimization is an algebraic identity, not an approximation).
  hve::Token tk = hve::GenToken(*group_, keys_.sk, "11**1*", rand_).value();
  hve::Ciphertext ct = EncryptIndex("010010");
  Fp2Elem slow = hve::Query(*group_, tk, ct).value();
  Fp2Elem fast = ViewQuery(tk, ct).value();
  EXPECT_TRUE(group_->GtEqual(slow, fast));
  EXPECT_FALSE(group_->GtEqual(fast, marker_));
}

TEST_F(HveTest, PrecompiledViewRandomizedAgreement) {
  Rng rng(1234);
  for (int iter = 0; iter < 8; ++iter) {
    std::string index(kWidth, '0');
    for (auto& c : index) c = rng.NextBool() ? '1' : '0';
    std::string pattern(kWidth, '*');
    for (auto& c : pattern) {
      double r = rng.NextDouble();
      c = r < 0.5 ? '*' : (r < 0.75 ? '0' : '1');
    }
    hve::Token tk = hve::GenToken(*group_, keys_.sk, pattern, rand_).value();
    hve::Ciphertext ct = EncryptIndex(index);
    EXPECT_TRUE(group_->GtEqual(hve::Query(*group_, tk, ct).value(),
                                ViewQuery(tk, ct).value()))
        << pattern << " vs " << index;
  }
}

TEST_F(HveTest, PrecompiledViewCountsLogicalPairings) {
  hve::Token tk = hve::GenToken(*group_, keys_.sk, "0***1*", rand_).value();
  hve::Ciphertext ct = EncryptIndex("010010");
  hve::PrecompiledToken ptk = hve::PrecompileToken(*group_, tk);
  hve::EvalLayout layout = hve::MakeEvalLayout(kWidth, {&ptk});
  hve::EvalView view = hve::MakeEvalView(*group_, layout, ct).value();
  group_->ResetCounters();
  (void)hve::QueryMillerPrecompiledView(*group_, ptk, layout, view).value();
  EXPECT_EQ(group_->counters().pairings, 2 * 2 + 1);
}

TEST_F(HveTest, PrecompiledViewValidatesArity) {
  hve::Token tk = hve::GenToken(*group_, keys_.sk, "010110", rand_).value();
  hve::Ciphertext ct = EncryptIndex("010110");
  ct.c2.pop_back();
  EXPECT_FALSE(ViewQuery(tk, ct).ok());
  // A layout of another width than the token's is refused as well.
  hve::PrecompiledToken ptk = hve::PrecompileToken(*group_, tk);
  hve::EvalLayout narrow = hve::MakeEvalLayout(kWidth - 1, {&ptk});
  hve::EvalView view;
  EXPECT_FALSE(
      hve::QueryMillerPrecompiledView(*group_, ptk, narrow, view).ok());
}

TEST_F(HveTest, WrongKeyTokenDoesNotMatch) {
  // A token issued under a different key pair never recovers the marker.
  RandFn other_rand = TestRand(999);
  hve::KeyPair other = hve::Setup(*group_, kWidth, other_rand).value();
  hve::Token tk =
      hve::GenToken(*group_, other.sk, "010110", other_rand).value();
  hve::Ciphertext ct = EncryptIndex("010110");
  EXPECT_FALSE(hve::Matches(*group_, tk, ct, marker_).value());
}

TEST_F(HveTest, DifferentMessagesRecoverable) {
  // HVE transports arbitrary G_T payloads, not just the marker.
  Fp2Elem msg = group_->RandomGt(rand_);
  hve::Ciphertext ct =
      hve::Encrypt(*group_, keys_.pk, "111000", msg, rand_).value();
  hve::Token tk = hve::GenToken(*group_, keys_.sk, "111***", rand_).value();
  Fp2Elem recovered = hve::Query(*group_, tk, ct).value();
  EXPECT_TRUE(group_->GtEqual(recovered, msg));
}

// Width sweep: the scheme works for any width (parameterized).
class HveWidthTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HveWidthTest, RoundTripAtWidth) {
  PairingParamSpec spec;
  spec.p_prime_bits = 24;
  spec.q_prime_bits = 24;
  spec.seed = 5150;
  PairingGroup group = PairingGroup::Generate(spec).value();
  RandFn rand = TestRand(GetParam());
  const size_t width = GetParam();
  hve::KeyPair keys = hve::Setup(group, width, rand).value();
  Fp2Elem marker = group.RandomGt(rand);

  std::string index(width, '0');
  index[width / 2] = '1';
  std::string pattern(width, '*');
  pattern[width / 2] = '1';
  hve::Ciphertext ct =
      hve::Encrypt(group, keys.pk, index, marker, rand).value();
  hve::Token tk = hve::GenToken(group, keys.sk, pattern, rand).value();
  EXPECT_TRUE(hve::Matches(group, tk, ct, marker).value());
  pattern[width / 2] = '0';
  hve::Token miss = hve::GenToken(group, keys.sk, pattern, rand).value();
  EXPECT_FALSE(hve::Matches(group, miss, ct, marker).value());
}

INSTANTIATE_TEST_SUITE_P(Widths, HveWidthTest,
                         ::testing::Values(1, 2, 3, 8, 12, 16));

}  // namespace
}  // namespace sloc
