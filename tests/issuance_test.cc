// Issuance-batching tests: GenTokenBatch must produce byte-identical
// tokens to per-pattern GenToken calls consuming the same randomness
// stream — across bundle shapes (empty, single, all-star, mixed) and
// thread counts — and TrustedAuthority::IssueAlert, which routes
// through the batched pipeline, must be deterministic in its thread
// count.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "alert/protocol.h"
#include "common/check.h"
#include "common/rng.h"
#include "hve/hve.h"
#include "hve/serialize.h"
#include "prob/sigmoid.h"

namespace sloc {
namespace {

class IssuanceTest : public ::testing::Test {
 protected:
  static constexpr size_t kWidth = 8;

  void SetUp() override {
    PairingParamSpec spec;
    spec.p_prime_bits = 32;
    spec.q_prime_bits = 32;
    spec.seed = 777;
    group_ = std::make_shared<const PairingGroup>(
        PairingGroup::Generate(spec).value());
    auto rng = std::make_shared<Rng>(99);
    RandFn rand = [rng]() { return rng->NextU64(); };
    keys_ = hve::Setup(*group_, kWidth, rand).value();
  }

  RandFn SeededRand(uint64_t seed) const {
    auto rng = std::make_shared<Rng>(seed);
    return [rng]() { return rng->NextU64(); };
  }

  /// The serial reference: one GenToken per pattern, in order, off one
  /// randomness stream.
  std::vector<std::vector<uint8_t>> SerialBlobs(
      const std::vector<std::string>& patterns, uint64_t seed) const {
    RandFn rand = SeededRand(seed);
    std::vector<std::vector<uint8_t>> blobs;
    for (const std::string& pattern : patterns) {
      hve::Token tk =
          hve::GenToken(*group_, keys_.sk, pattern, rand).value();
      blobs.push_back(hve::SerializeToken(*group_, tk));
    }
    return blobs;
  }

  std::vector<std::vector<uint8_t>> BatchBlobs(
      const std::vector<std::string>& patterns, uint64_t seed,
      unsigned threads) const {
    RandFn rand = SeededRand(seed);
    std::vector<hve::Token> tokens =
        hve::GenTokenBatch(*group_, keys_.sk, patterns, rand, threads)
            .value();
    std::vector<std::vector<uint8_t>> blobs;
    for (const hve::Token& tk : tokens) {
      blobs.push_back(hve::SerializeToken(*group_, tk));
    }
    return blobs;
  }

  std::shared_ptr<const PairingGroup> group_;
  hve::KeyPair keys_;
};

TEST_F(IssuanceTest, BatchedTokensBitIdenticalAcrossBundleShapes) {
  const std::vector<std::vector<std::string>> bundles = {
      {},                                    // empty bundle
      {"01*0**1*"},                          // single pattern
      {"********"},                          // all-star: K_0 = [a]g only
      {"00000000", "11111111"},              // fully fixed
      {"01*0**1*", "********", "1*1*1*1*",   // mixed sparsities
       "0000****", "01011010"},
  };
  uint64_t seed = 1000;
  for (const auto& patterns : bundles) {
    ++seed;
    const auto expected = SerialBlobs(patterns, seed);
    for (unsigned threads : {1u, 3u, 8u}) {
      const auto got = BatchBlobs(patterns, seed, threads);
      ASSERT_EQ(got.size(), expected.size())
          << "bundle of " << patterns.size() << ", threads " << threads;
      for (size_t t = 0; t < got.size(); ++t) {
        EXPECT_EQ(got[t], expected[t])
            << "token " << t << " diverged at threads=" << threads;
      }
    }
  }
}

TEST_F(IssuanceTest, BatchedTokensMatchAndSerialTokensRoundTrip) {
  // Sanity beyond byte equality: the batched tokens actually match the
  // ciphertexts the patterns select.
  RandFn rand = SeededRand(5);
  Fp2Elem marker = group_->RandomGt(rand);
  hve::Ciphertext ct =
      hve::Encrypt(*group_, keys_.pk, "01001101", marker, rand).value();
  std::vector<hve::Token> tokens =
      hve::GenTokenBatch(*group_, keys_.sk,
                         {"01*0**0*", "11******", "********"}, rand, 2)
          .value();
  EXPECT_TRUE(hve::Matches(*group_, tokens[0], ct, marker).value());
  EXPECT_FALSE(hve::Matches(*group_, tokens[1], ct, marker).value());
  EXPECT_TRUE(hve::Matches(*group_, tokens[2], ct, marker).value());
}

// The secret-key combs and the group's G_p/G_q combs span P's or Q's
// width, half N's. A comb built at P's width must agree with ScalarMul
// at its ends (1 and P-1), for a negated scalar, and past its width,
// where it falls back to ScalarMul.
TEST_F(IssuanceTest, SubgroupWidthCombMatchesScalarMul) {
  const BigInt& prime_p = group_->params().prime_p;
  const Curve& curve = group_->curve();
  const AffinePoint& base = keys_.sk.v;
  const FixedBaseComb comb = group_->BuildComb(base, prime_p);
  EXPECT_GE(comb.max_bits(), prime_p.BitLength());
  EXPECT_LT(comb.max_bits(), group_->params().n.BitLength());
  const BigInt past = BigInt(1) << comb.max_bits();
  for (const BigInt& k : {BigInt(1), prime_p - BigInt(1), past,
                          past + BigInt(3), -(prime_p - BigInt(2))}) {
    const AffinePoint want = curve.ScalarMul(k, base);
    EXPECT_TRUE(curve.Equal(comb.Mul(curve, k), want)) << k.ToDecimal();
    EXPECT_TRUE(curve.Equal(curve.ToAffine(comb.MulJacobian(curve, k)), want))
        << k.ToDecimal();
  }
  const BigInt& prime_q = group_->params().prime_q;
  for (const BigInt& k : {prime_p - BigInt(1), prime_q - BigInt(1),
                          group_->params().n - BigInt(1)}) {
    EXPECT_TRUE(curve.Equal(group_->Mul(k, group_->gen_p()),
                            curve.ScalarMul(k, group_->gen_p())));
    EXPECT_TRUE(curve.Equal(group_->Mul(k, group_->gen_q()),
                            curve.ScalarMul(k, group_->gen_q())));
  }
}

TEST_F(IssuanceTest, InvalidPatternsRejected) {
  RandFn rand = SeededRand(6);
  // Bad character.
  EXPECT_FALSE(
      hve::GenTokenBatch(*group_, keys_.sk, {"01x0**1*"}, rand, 2).ok());
  // Width mismatch, even when other patterns are fine.
  EXPECT_FALSE(
      hve::GenTokenBatch(*group_, keys_.sk, {"01*0**1*", "01*"}, rand, 2)
          .ok());
}

TEST_F(IssuanceTest, IssueAlertDeterministicInThreadCount) {
  // Two authorities built from identical seeds, differing only in
  // issuance thread count, must emit identical alert bundles.
  auto make_ta = [&](unsigned threads) {
    auto encoder = MakeEncoder(EncoderKind::kHuffman).value();
    Rng prng(21);
    SLOC_CHECK(
        encoder->Build(GenerateSigmoidProbabilities(16, 0.9, 50, &prng))
            .ok());
    auto ta = std::make_unique<alert::TrustedAuthority>(
        alert::TrustedAuthority::Create(group_, std::move(encoder),
                                        SeededRand(31337))
            .value());
    ta->set_issue_threads(threads);
    return ta;
  };
  auto serial_ta = make_ta(1);
  auto threaded_ta = make_ta(4);
  const std::vector<int> zone = {2, 3, 5, 6};
  const auto serial = serial_ta->IssueAlert(zone).value();
  const auto threaded = threaded_ta->IssueAlert(zone).value();
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded);
  // Token *serialization* fans across the worker pool too — the full
  // enveloped bundle must stay byte-identical to the serial path.
  EXPECT_EQ(serial_ta->IssueAlertBundle(9, zone).value(),
            threaded_ta->IssueAlertBundle(9, zone).value());
}

}  // namespace
}  // namespace sloc
