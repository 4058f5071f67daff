// Batched final-exponentiation engine tests: full ProcessAlert runs
// through QueryEngine::kBatched must be observationally identical to the
// per-query reference engine — same notified users, same deterministic
// MatchStats — across shardings, worker counts, and flush widths; and
// the provider's precompiled-token LRU cache must preserve match results
// under eviction.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "alert/protocol.h"
#include "pairing/miller_ifma.h"
#include "prob/sigmoid.h"

namespace sloc {
namespace alert {
namespace {

class BatchEngineTest : public ::testing::Test {
 protected:
  static constexpr int kUsers = 30;

  void SetUp() override {
    PairingParamSpec spec;
    spec.p_prime_bits = 32;
    spec.q_prime_bits = 32;
    spec.seed = 2024;
    group_ = std::make_shared<const PairingGroup>(
        PairingGroup::Generate(spec).value());
    auto encoder = MakeEncoder(EncoderKind::kHuffman).value();
    Rng prng(17);
    ASSERT_TRUE(
        encoder->Build(GenerateSigmoidProbabilities(16, 0.9, 50, &prng))
            .ok());
    auto rng = std::make_shared<Rng>(4242);
    RandFn rand = [rng]() { return rng->NextU64(); };
    ta_ = std::make_unique<TrustedAuthority>(
        TrustedAuthority::Create(group_, std::move(encoder), rand).value());
    user_ = std::make_unique<MobileUser>(
        MobileUser::Join(0, group_, ta_->public_key_blob(), ta_->marker(),
                         rand)
            .value());
    // Users spread over all 16 cells; several land inside the zone.
    Rng cells(5);
    uploads_.reserve(kUsers);
    for (int u = 0; u < kUsers; ++u) {
      api::LocationUpload up;
      up.user_id = u;
      const int cell = int(cells.NextU64() % 16);
      up.ciphertext =
          user_->EncryptLocation(ta_->IndexOfCell(cell).value()).value();
      uploads_.push_back(std::move(up));
    }
    tokens_ = ta_->IssueAlert({2, 3, 5}).value();
    ASSERT_GE(tokens_.size(), 2u);
  }

  std::unique_ptr<ServiceProvider> MakeProvider(
      const ServiceProvider::Options& options) {
    auto sp =
        std::make_unique<ServiceProvider>(group_, ta_->marker(), options);
    auto report = sp->SubmitBatch(uploads_);
    EXPECT_TRUE(report.rejected.empty());
    return sp;
  }

  std::shared_ptr<const PairingGroup> group_;
  std::unique_ptr<TrustedAuthority> ta_;
  std::unique_ptr<MobileUser> user_;
  std::vector<api::LocationUpload> uploads_;
  std::vector<std::vector<uint8_t>> tokens_;
};

TEST_F(BatchEngineTest, BatchedMatchesReferenceAcrossConfigurations) {
  ServiceProvider::Options ref_options;
  ref_options.engine = ServiceProvider::QueryEngine::kReference;
  auto reference = MakeProvider(ref_options);
  auto expected = reference->ProcessAlert(tokens_).value();
  ASSERT_GT(expected.stats.matches, 0u) << "test zone should match someone";
  ASSERT_LT(expected.stats.matches, size_t(kUsers));

  struct Config {
    size_t shards;
    unsigned threads;
    size_t flush;
  };
  for (const Config& cfg : std::vector<Config>{
           {1, 1, 0},      // auto-tuned width (slim-view budget)
           {1, 1, 1},      // degenerate flush: batch width 1
           {1, 1, 4},      // mid-scan flushes
           {1, 1, 1000},   // one flush for the whole store
           {4, 4, 8},      // sharded + parallel workers
           {8, 2, 3}}) {   // more shards than workers
    ServiceProvider::Options options;
    options.engine = ServiceProvider::QueryEngine::kBatched;
    options.num_shards = cfg.shards;
    options.num_threads = cfg.threads;
    options.batch_flush_evals = cfg.flush;
    auto sp = MakeProvider(options);
    auto outcome = sp->ProcessAlert(tokens_).value();
    EXPECT_EQ(outcome.notified_users, expected.notified_users)
        << "shards=" << cfg.shards << " threads=" << cfg.threads
        << " flush=" << cfg.flush;
    EXPECT_EQ(outcome.stats.matches, expected.stats.matches);
    EXPECT_EQ(outcome.stats.pairings, expected.stats.pairings);
    EXPECT_EQ(outcome.stats.queries, expected.stats.queries);
    EXPECT_EQ(outcome.stats.non_star_bits, expected.stats.non_star_bits);
    EXPECT_EQ(outcome.stats.ciphertexts_scanned, size_t(kUsers));
  }
}

TEST_F(BatchEngineTest, StatsSurfaceQueriesAndCacheTraffic) {
  // The observability counters: queries are deterministic and engine-
  // independent; cache hit/miss traffic reflects the precompiled-token
  // LRU per alert (and is zero for engines that never precompile).
  ServiceProvider::Options options;
  options.engine = ServiceProvider::QueryEngine::kReference;
  auto reference = MakeProvider(options);
  auto ref_outcome = reference->ProcessAlert(tokens_).value();
  EXPECT_GT(ref_outcome.stats.queries, 0u);
  EXPECT_EQ(ref_outcome.stats.token_cache_hits, 0u);
  EXPECT_EQ(ref_outcome.stats.token_cache_misses, 0u);

  options.engine = ServiceProvider::QueryEngine::kBatched;
  auto batched = MakeProvider(options);
  auto first = batched->ProcessAlert(tokens_).value();
  EXPECT_EQ(first.stats.queries, ref_outcome.stats.queries);
  // First sight of this bundle: every unique token compiles fresh.
  EXPECT_EQ(first.stats.token_cache_hits, 0u);
  EXPECT_EQ(first.stats.token_cache_misses, tokens_.size());
  // Re-issuing the same bundle is served entirely from the LRU.
  auto second = batched->ProcessAlert(tokens_).value();
  EXPECT_EQ(second.stats.token_cache_hits, tokens_.size());
  EXPECT_EQ(second.stats.token_cache_misses, 0u);

  // The counters survive the wire round trip of the outcome envelope.
  api::OutcomeReport report;
  report.alert_id = 9;
  report.queries = second.stats.queries;
  report.token_cache_hits = second.stats.token_cache_hits;
  report.token_cache_misses = second.stats.token_cache_misses;
  auto decoded =
      api::DecodeOutcomeReport(api::EncodeOutcomeReport(report).value())
          .value();
  EXPECT_EQ(decoded.queries, second.stats.queries);
  EXPECT_EQ(decoded.token_cache_hits, second.stats.token_cache_hits);
  EXPECT_EQ(decoded.token_cache_misses, second.stats.token_cache_misses);
}

TEST_F(BatchEngineTest, TokenCacheEvictionPreservesMatchResults) {
  ServiceProvider::Options options;
  options.engine = ServiceProvider::QueryEngine::kReference;
  auto reference = MakeProvider(options);
  auto expected = reference->ProcessAlert(tokens_).value();

  // Capacity 1 with several tokens: every alert evicts all but one
  // table, so most lookups recompile — results must not change.
  options.engine = ServiceProvider::QueryEngine::kBatched;
  options.token_cache_capacity = 1;
  auto evicting = MakeProvider(options);
  for (int round = 0; round < 2; ++round) {
    auto outcome = evicting->ProcessAlert(tokens_).value();
    EXPECT_EQ(outcome.notified_users, expected.notified_users)
        << "round " << round;
  }
  EXPECT_EQ(evicting->token_cache().size(), 1u);
  // Only the last-inserted table survives an alert, so the second run
  // hits exactly once and recompiles everything else.
  EXPECT_EQ(evicting->token_cache().hits(), 1u);
  EXPECT_EQ(evicting->token_cache().misses(), 2 * tokens_.size() - 1);
}

TEST_F(BatchEngineTest, TokenCacheServesRepeatedBundles) {
  ServiceProvider::Options options;
  options.engine = ServiceProvider::QueryEngine::kBatched;
  options.token_cache_capacity = 64;
  auto sp = MakeProvider(options);
  auto first = sp->ProcessAlert(tokens_).value();
  EXPECT_EQ(sp->token_cache().size(), tokens_.size());
  EXPECT_EQ(sp->token_cache().misses(), tokens_.size());
  auto second = sp->ProcessAlert(tokens_).value();
  EXPECT_EQ(sp->token_cache().hits(), tokens_.size());
  EXPECT_EQ(first.notified_users, second.notified_users);
}

TEST_F(BatchEngineTest, DuplicateTokensInBundleCompileOnce) {
  std::vector<std::vector<uint8_t>> doubled = tokens_;
  doubled.insert(doubled.end(), tokens_.begin(), tokens_.end());

  ServiceProvider::Options options;
  options.engine = ServiceProvider::QueryEngine::kReference;
  auto reference = MakeProvider(options);
  auto expected = reference->ProcessAlert(doubled).value();

  options.engine = ServiceProvider::QueryEngine::kBatched;
  auto batched = MakeProvider(options);
  auto outcome = batched->ProcessAlert(doubled).value();
  EXPECT_EQ(outcome.notified_users, expected.notified_users);
  EXPECT_EQ(outcome.stats.pairings, expected.stats.pairings);
  // The duplicate half of the bundle shares tables with the first half.
  EXPECT_EQ(batched->token_cache().size(), tokens_.size());
  EXPECT_EQ(batched->token_cache().misses(), tokens_.size());
}

TEST_F(BatchEngineTest, TokenCacheCapacityZeroDisablesRetention) {
  ServiceProvider::Options options;
  options.engine = ServiceProvider::QueryEngine::kBatched;
  options.token_cache_capacity = 0;
  auto sp = MakeProvider(options);
  auto outcome = sp->ProcessAlert(tokens_).value();
  EXPECT_EQ(sp->token_cache().size(), 0u);
  EXPECT_EQ(outcome.stats.ciphertexts_scanned, size_t(kUsers));
}

// The batched engine on a 4-limb field, where the group's plan walks
// ifma8 under kAuto on an AVX-512 IFMA host and scalar under
// kPortableOnly: notified sets and the deterministic stats must equal
// the reference engine's under both walks, at flush widths that leave
// 1, 7, 8, 9 and 17 ciphertexts alive in a round, while matched users
// leave the buffer partway through each flush.
class BatchEngineWalkTest : public ::testing::TestWithParam<KernelDispatch> {
 protected:
  static constexpr int kUsers = 20;

  void SetUp() override {
    PairingParamSpec spec;
    spec.p_prime_bits = 100;
    spec.q_prime_bits = 100;
    spec.seed = 77;
    SetMulKernelDispatch(GetParam());
    group_ = std::make_shared<const PairingGroup>(
        PairingGroup::Generate(spec).value());
    SetMulKernelDispatch(KernelDispatch::kAuto);
    ASSERT_EQ(group_->fp().num_limbs(), 4u);
    const bool lanes = GetParam() == KernelDispatch::kAuto &&
                       miller_ifma::Available();
    ASSERT_EQ(group_->miller_plan().walk(),
              lanes ? MillerWalk::kIfma8 : MillerWalk::kScalar);
    auto encoder = MakeEncoder(EncoderKind::kHuffman).value();
    Rng prng(18);
    ASSERT_TRUE(
        encoder->Build(GenerateSigmoidProbabilities(16, 0.9, 50, &prng))
            .ok());
    auto rng = std::make_shared<Rng>(99);
    RandFn rand = [rng]() { return rng->NextU64(); };
    ta_ = std::make_unique<TrustedAuthority>(
        TrustedAuthority::Create(group_, std::move(encoder), rand).value());
    MobileUser user = MobileUser::Join(0, group_, ta_->public_key_blob(),
                                       ta_->marker(), rand)
                          .value();
    Rng cells(6);
    for (int u = 0; u < kUsers; ++u) {
      api::LocationUpload up;
      up.user_id = u;
      const int cell = int(cells.NextU64() % 16);
      up.ciphertext =
          user.EncryptLocation(ta_->IndexOfCell(cell).value()).value();
      uploads_.push_back(std::move(up));
    }
    tokens_ = ta_->IssueAlert({1, 2, 3, 5, 8}).value();
    ASSERT_GE(tokens_.size(), 2u);
  }

  std::shared_ptr<const PairingGroup> group_;
  std::unique_ptr<TrustedAuthority> ta_;
  std::vector<api::LocationUpload> uploads_;
  std::vector<std::vector<uint8_t>> tokens_;
};

TEST_P(BatchEngineWalkTest, BatchedMatchesReferenceUnderEitherWalk) {
  ServiceProvider::Options ref_options;
  ref_options.engine = ServiceProvider::QueryEngine::kReference;
  ServiceProvider reference(group_, ta_->marker(), ref_options);
  ASSERT_TRUE(reference.SubmitBatch(uploads_).rejected.empty());
  auto expected = reference.ProcessAlert(tokens_).value();
  ASSERT_GT(expected.stats.matches, 0u);
  ASSERT_LT(expected.stats.matches, size_t(kUsers));

  for (size_t flush : {size_t(1), size_t(7), size_t(8), size_t(9),
                       size_t(17), size_t(0)}) {
    for (unsigned threads : {1u, 2u}) {
      ServiceProvider::Options options;
      options.engine = ServiceProvider::QueryEngine::kBatched;
      options.batch_flush_evals = flush;
      options.num_shards = threads;
      options.num_threads = threads;
      ServiceProvider sp(group_, ta_->marker(), options);
      ASSERT_TRUE(sp.SubmitBatch(uploads_).rejected.empty());
      auto outcome = sp.ProcessAlert(tokens_).value();
      EXPECT_EQ(outcome.notified_users, expected.notified_users)
          << "flush=" << flush << " threads=" << threads;
      EXPECT_EQ(outcome.stats.pairings, expected.stats.pairings);
      EXPECT_EQ(outcome.stats.queries, expected.stats.queries);
      EXPECT_EQ(outcome.stats.matches, expected.stats.matches);
    }
  }
}

// Fresh bundles of 1, 9 and 11 tokens: every token compiles on the
// alert path, so under the ifma8 plan the lane groups fill partly (one
// token's chains) and span token boundaries (nine and eleven tokens),
// while the forced scalar plan splits the chains over the workers.
TEST_P(BatchEngineWalkTest, FreshBundlesOfOneNineAndElevenTokens) {
  std::vector<std::vector<uint8_t>> pool;
  for (int cell = 0; cell < 16 && pool.size() < 11; ++cell) {
    std::vector<std::vector<uint8_t>> blobs = ta_->IssueAlert({cell}).value();
    for (std::vector<uint8_t>& blob : blobs) pool.push_back(std::move(blob));
  }
  ASSERT_GE(pool.size(), 11u);
  ServiceProvider::Options ref_options;
  ref_options.engine = ServiceProvider::QueryEngine::kReference;
  ServiceProvider reference(group_, ta_->marker(), ref_options);
  ASSERT_TRUE(reference.SubmitBatch(uploads_).rejected.empty());
  for (size_t size : {size_t(1), size_t(9), size_t(11)}) {
    const std::vector<std::vector<uint8_t>> bundle(pool.begin(),
                                                   pool.begin() + size);
    auto expected = reference.ProcessAlert(bundle).value();
    for (unsigned threads : {1u, 4u}) {
      ServiceProvider::Options options;
      options.engine = ServiceProvider::QueryEngine::kBatched;
      options.num_shards = threads;
      options.num_threads = threads;
      ServiceProvider sp(group_, ta_->marker(), options);
      ASSERT_TRUE(sp.SubmitBatch(uploads_).rejected.empty());
      auto outcome = sp.ProcessAlert(bundle).value();
      EXPECT_EQ(outcome.notified_users, expected.notified_users)
          << size << " tokens, threads=" << threads;
      EXPECT_EQ(outcome.stats.matches, expected.stats.matches);
      EXPECT_EQ(outcome.stats.pairings, expected.stats.pairings);
      EXPECT_EQ(outcome.stats.queries, expected.stats.queries);
      EXPECT_EQ(outcome.stats.non_star_bits, expected.stats.non_star_bits);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Walks, BatchEngineWalkTest,
    ::testing::Values(KernelDispatch::kAuto, KernelDispatch::kPortableOnly),
    [](const ::testing::TestParamInfo<KernelDispatch>& info) {
      return std::string(info.param == KernelDispatch::kAuto ? "Auto"
                                                             : "Scalar");
    });

}  // namespace
}  // namespace alert
}  // namespace sloc
