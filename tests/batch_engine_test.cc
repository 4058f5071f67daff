// Batched final-exponentiation engine tests: full ProcessAlert runs
// through QueryEngine::kBatched must be observationally identical to the
// per-query reference engine — same notified users, same deterministic
// MatchStats — across shardings, worker counts, and flush widths; and
// the provider's precompiled-token LRU cache must preserve match results
// under eviction and admit a token's tables at its second sighting.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alert/protocol.h"
#include "common/parallel.h"
#include "hve/serialize.h"
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
  // The second sighting compiles again, and admits the tables.
  auto second = batched->ProcessAlert(tokens_).value();
  EXPECT_EQ(second.stats.token_cache_hits, 0u);
  EXPECT_EQ(second.stats.token_cache_misses, tokens_.size());
  // From the third on, the bundle is served entirely from the LRU.
  auto third = batched->ProcessAlert(tokens_).value();
  EXPECT_EQ(third.stats.token_cache_hits, tokens_.size());
  EXPECT_EQ(third.stats.token_cache_misses, 0u);

  // The counters survive the wire round trip of the outcome envelope.
  api::OutcomeReport report;
  report.alert_id = 9;
  report.queries = third.stats.queries;
  report.token_cache_hits = third.stats.token_cache_hits;
  report.token_cache_misses = third.stats.token_cache_misses;
  auto decoded =
      api::DecodeOutcomeReport(api::EncodeOutcomeReport(report).value())
          .value();
  EXPECT_EQ(decoded.queries, third.stats.queries);
  EXPECT_EQ(decoded.token_cache_hits, third.stats.token_cache_hits);
  EXPECT_EQ(decoded.token_cache_misses, third.stats.token_cache_misses);
}

TEST_F(BatchEngineTest, TokenCacheEvictionPreservesMatchResults) {
  ServiceProvider::Options options;
  options.engine = ServiceProvider::QueryEngine::kReference;
  auto reference = MakeProvider(options);
  auto expected = reference->ProcessAlert(tokens_).value();

  // Capacity 1 with several tokens: once admitted, every alert evicts
  // all but one table, so most lookups recompile — results must not
  // change.
  options.engine = ServiceProvider::QueryEngine::kBatched;
  options.token_cache_capacity = 1;
  auto evicting = MakeProvider(options);
  ASSERT_LE(tokens_.size(), hve::TokenTableCache::kSightingsPerEntry)
      << "every first sighting must stay remembered";
  for (int round = 0; round < 3; ++round) {
    auto outcome = evicting->ProcessAlert(tokens_).value();
    EXPECT_EQ(outcome.notified_users, expected.notified_users)
        << "round " << round;
  }
  EXPECT_EQ(evicting->token_cache().size(), 1u);
  // The first run only remembers the tokens and the second admits them
  // in turn. Only the last-admitted table survives an alert, so the
  // third run hits exactly once and recompiles everything else.
  EXPECT_EQ(evicting->token_cache().hits(), 1u);
  EXPECT_EQ(evicting->token_cache().misses(), 3 * tokens_.size() - 1);
}

TEST_F(BatchEngineTest, TokenCacheServesRepeatedBundles) {
  ServiceProvider::Options options;
  options.engine = ServiceProvider::QueryEngine::kBatched;
  options.token_cache_capacity = 64;
  auto sp = MakeProvider(options);
  auto first = sp->ProcessAlert(tokens_).value();
  EXPECT_EQ(sp->token_cache().size(), 0u);
  EXPECT_EQ(sp->token_cache().misses(), tokens_.size());
  auto second = sp->ProcessAlert(tokens_).value();
  EXPECT_EQ(sp->token_cache().size(), tokens_.size());
  EXPECT_EQ(sp->token_cache().misses(), 2 * tokens_.size());
  auto third = sp->ProcessAlert(tokens_).value();
  EXPECT_EQ(sp->token_cache().hits(), tokens_.size());
  EXPECT_EQ(first.notified_users, second.notified_users);
  EXPECT_EQ(first.notified_users, third.notified_users);
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
  // The duplicate half of the bundle shares tables with the first half:
  // each unique token compiles once, and a duplicate within one bundle
  // is not a second sighting.
  EXPECT_EQ(batched->token_cache().size(), 0u);
  EXPECT_EQ(batched->token_cache().misses(), tokens_.size());
  ASSERT_TRUE(batched->ProcessAlert(doubled).ok());
  EXPECT_EQ(batched->token_cache().size(), tokens_.size());
  EXPECT_EQ(batched->token_cache().misses(), 2 * tokens_.size());
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

// The team scan against the reference engine over the shapes that move
// its claiming: shard counts that split the residents unevenly, thread
// counts below, at and above the shard count, resident counts that are
// not multiples of eight, bundles of 1 to 11 tokens, and flush budgets
// small enough that the store is scanned in several waves. Two extra
// residents carry an identity point in a column every token reads (C_0,
// and C_i,1 of one bundle position), which sends their lane groups to
// the scalar walk.
class TeamScanTest : public BatchEngineWalkTest {
 protected:
  void SetUp() override {
    BatchEngineWalkTest::SetUp();
    for (int cell = 0; cell < 16 && pool_.size() < 11; ++cell) {
      std::vector<std::vector<uint8_t>> blobs = ta_->IssueAlert({cell}).value();
      for (std::vector<uint8_t>& blob : blobs) pool_.push_back(std::move(blob));
    }
    ASSERT_GE(pool_.size(), 11u);
    for (const api::LocationUpload& up : uploads_) {
      cts_.push_back(hve::ParseCiphertext(*group_, up.ciphertext).value());
    }
    const hve::Token first = hve::ParseToken(*group_, pool_[0]).value();
    const size_t column = first.pattern.find_first_not_of('*');
    ASSERT_NE(column, std::string::npos);
    hve::Ciphertext holed = cts_[0];
    holed.c0 = group_->curve().Infinity();
    cts_.push_back(holed);
    holed = cts_[1];
    holed.c1[column] = group_->curve().Infinity();
    cts_.push_back(holed);
  }

  /// A provider over the first `residents` ciphertexts (user id = index).
  std::unique_ptr<ServiceProvider> Provider(
      ServiceProvider::QueryEngine engine, size_t shards, unsigned threads,
      size_t flush, size_t residents,
      std::unique_ptr<api::CiphertextStore> store = nullptr) {
    if (store == nullptr) store = api::MakeStore(shards);
    for (size_t u = 0; u < residents; ++u) store->Put(int(u), cts_[u]);
    ServiceProvider::Options options;
    options.engine = engine;
    options.num_shards = shards;
    options.num_threads = threads;
    options.batch_flush_evals = flush;
    return std::make_unique<ServiceProvider>(group_, ta_->marker(),
                                             std::move(store), options);
  }

  std::vector<std::vector<uint8_t>> Bundle(size_t size) const {
    return {pool_.begin(), pool_.begin() + long(size)};
  }

  std::vector<std::vector<uint8_t>> pool_;
  std::vector<hve::Ciphertext> cts_;  // uploads_, then the two holed ones
};

/// The team a batched scan gets when every pool helper is idle: one
/// party per core, at most the thread budget, and at most the scan's
/// work units (one per shard plus one per chunk of eight residents).
size_t IdlePoolTeam(unsigned threads, size_t shards, size_t residents) {
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const size_t chunks =
      (residents + miller_ifma::kLanes - 1) / miller_ifma::kLanes;
  return std::min<size_t>({threads, cores, shards + chunks});
}

TEST_P(TeamScanTest, MatchesReferenceAcrossTeamShapes) {
  const size_t all = cts_.size();  // 22
  struct Expected {
    size_t residents;
    size_t tokens;
    ServiceProvider::AlertOutcome outcome;
  };
  std::vector<Expected> expected;
  for (size_t residents : {all, size_t(13)}) {
    for (size_t tokens : {size_t(1), size_t(4), size_t(11)}) {
      auto reference = Provider(ServiceProvider::QueryEngine::kReference, 1,
                                1, 0, residents);
      expected.push_back(
          {residents, tokens, reference->ProcessAlert(Bundle(tokens)).value()});
    }
  }
  ASSERT_GT(expected[2].outcome.stats.matches, 0u);
  ASSERT_LT(expected[2].outcome.stats.matches, all);
  const size_t flushes[] = {0, 1, 3, 9};
  size_t config = 0;
  for (size_t shards : {1, 2, 4, 7}) {
    for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
      const Expected& want = expected[config % expected.size()];
      const size_t flush = flushes[config % 4];
      ++config;
      auto sp = Provider(ServiceProvider::QueryEngine::kBatched, shards,
                         threads, flush, want.residents);
      auto got = sp->ProcessAlert(Bundle(want.tokens)).value();
      const std::string shape =
          "shards=" + std::to_string(shards) +
          " threads=" + std::to_string(threads) +
          " flush=" + std::to_string(flush) +
          " residents=" + std::to_string(want.residents) +
          " tokens=" + std::to_string(want.tokens);
      EXPECT_EQ(got.notified_users, want.outcome.notified_users) << shape;
      EXPECT_EQ(got.stats.ciphertexts_scanned,
                want.outcome.stats.ciphertexts_scanned)
          << shape;
      EXPECT_EQ(got.stats.queries, want.outcome.stats.queries) << shape;
      EXPECT_EQ(got.stats.pairings, want.outcome.stats.pairings) << shape;
      EXPECT_EQ(got.stats.matches, want.outcome.stats.matches) << shape;
      // The scans run one at a time, so each finds every helper idle
      // (a new pool starts with all of them idle): a team that shrank
      // anyway would leave a shape untested.
      EXPECT_EQ(got.stats.scan_workers,
                IdlePoolTeam(threads, shards, want.residents))
          << shape;
    }
  }
  // A flush width whose product with the team size overflows holds the
  // whole store in one wave.
  auto huge = Provider(ServiceProvider::QueryEngine::kBatched, 4, 4,
                       size_t(1) << 62, expected[0].residents);
  EXPECT_EQ(huge->ProcessAlert(Bundle(expected[0].tokens))
                .value()
                .notified_users,
            expected[0].outcome.notified_users);
}

TEST_P(TeamScanTest, EmptyStoreAndEmptyBundle) {
  for (unsigned threads : {1u, 4u}) {
    for (size_t shards : {1, 4}) {
      auto empty = Provider(ServiceProvider::QueryEngine::kBatched, shards,
                            threads, 0, 0);
      auto none = empty->ProcessAlert(Bundle(3)).value();
      EXPECT_TRUE(none.notified_users.empty());
      EXPECT_EQ(none.stats.ciphertexts_scanned, 0u);
      EXPECT_EQ(none.stats.queries, 0u);

      auto sp = Provider(ServiceProvider::QueryEngine::kBatched, shards,
                         threads, 0, cts_.size());
      auto reference = Provider(ServiceProvider::QueryEngine::kReference,
                                shards, threads, 0, cts_.size());
      auto got = sp->ProcessAlert({}).value();
      auto want = reference->ProcessAlert({}).value();
      EXPECT_TRUE(got.notified_users.empty());
      EXPECT_EQ(got.stats.ciphertexts_scanned, cts_.size());
      EXPECT_EQ(got.stats.ciphertexts_scanned,
                want.stats.ciphertexts_scanned);
      EXPECT_EQ(got.stats.queries, 0u);
      EXPECT_EQ(got.stats.pairings, 0u);
    }
  }
}

TEST_P(TeamScanTest, FailureInARoundEndsTheAlertWithItsStatus) {
  // The second token is one column wider than the store's ciphertexts:
  // round 0 runs, then every worker that claims a lane group in round 1
  // fails, and the alert must end with that status on every team shape.
  hve::Token wide = hve::ParseToken(*group_, pool_[1]).value();
  wide.pattern.push_back('*');
  const std::vector<std::vector<uint8_t>> bundle = {
      pool_[0], hve::SerializeToken(*group_, wide)};
  auto reference =
      Provider(ServiceProvider::QueryEngine::kReference, 1, 1, 0, cts_.size());
  const Status want = reference->ProcessAlert(bundle).status();
  ASSERT_EQ(want.code(), StatusCode::kInvalidArgument);
  for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
    for (size_t flush : {size_t(0), size_t(1)}) {
      auto sp = Provider(ServiceProvider::QueryEngine::kBatched, 4, threads,
                         flush, cts_.size());
      const Status got = sp->ProcessAlert(bundle).status();
      EXPECT_EQ(got.code(), StatusCode::kInvalidArgument)
          << "threads=" << threads << " flush=" << flush << ": " << got;
    }
  }
}

/// A store whose visit of one shard throws.
class ThrowingStore : public api::ShardedStore {
 public:
  ThrowingStore(size_t shards, size_t bad) : ShardedStore(shards), bad_(bad) {}
  void VisitShard(size_t shard,
                  const std::function<void(int, const api::CtPtr&)>& fn)
      const override {
    if (shard == bad_) throw std::runtime_error("visit failed");
    ShardedStore::VisitShard(shard, fn);
  }

 private:
  size_t bad_;
};

TEST_P(TeamScanTest, ThrowInsideTheTeamPropagates) {
  // The teammates of the thrower may be waiting for the snapshots or at
  // a barrier; they must be released and the exception must reach the
  // caller.
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    auto sp = Provider(ServiceProvider::QueryEngine::kBatched, 4, threads, 0,
                       cts_.size(), std::make_unique<ThrowingStore>(4, 2));
    EXPECT_THROW((void)sp->ProcessAlert(Bundle(4)), std::runtime_error)
        << "threads=" << threads;
  }
}

TEST_P(TeamScanTest, ConcurrentScansOnABusyPoolMatchReference) {
  // One team holds a pool helper for the whole test, and two threads
  // scan at once: each alert's team is granted whatever helpers are
  // idle when it starts (sometimes none), and every outcome must still
  // equal the reference scan's.
  const size_t all = cts_.size();
  auto reference =
      Provider(ServiceProvider::QueryEngine::kReference, 1, 1, 0, all);
  std::vector<ServiceProvider::AlertOutcome> expected;
  for (size_t tokens : {size_t(1), size_t(4), size_t(11)}) {
    expected.push_back(reference->ProcessAlert(Bundle(tokens)).value());
  }
  std::atomic<bool> done{false};
  std::atomic<bool> holding{false};
  std::thread holder([&] {
    WorkerTeam team(2);
    team.Run([&](size_t party) {
      if (party + 1 < team.size()) return;
      holding.store(true);
      while (!done.load()) std::this_thread::yield();
    });
  });
  while (!holding.load()) std::this_thread::yield();
  auto scan = [&](size_t shards, unsigned threads, size_t flush) {
    auto sp = Provider(ServiceProvider::QueryEngine::kBatched, shards,
                       threads, flush, all);
    for (int round = 0; round < 6; ++round) {
      const size_t pick = size_t(round) % expected.size();
      const size_t tokens = pick == 0 ? 1 : pick == 1 ? 4 : 11;
      auto got = sp->ProcessAlert(Bundle(tokens)).value();
      EXPECT_EQ(got.notified_users, expected[pick].notified_users)
          << "shards=" << shards << " threads=" << threads
          << " tokens=" << tokens;
      EXPECT_EQ(got.stats.queries, expected[pick].stats.queries);
      EXPECT_EQ(got.stats.pairings, expected[pick].stats.pairings);
      EXPECT_GE(got.stats.scan_workers, 1u);
      EXPECT_LE(got.stats.scan_workers, threads);
    }
  };
  std::thread other([&] { scan(4, 4, 3); });
  scan(2, 8, 0);
  other.join();
  done.store(true);
  holder.join();
}

INSTANTIATE_TEST_SUITE_P(
    Walks, TeamScanTest,
    ::testing::Values(KernelDispatch::kAuto, KernelDispatch::kPortableOnly),
    [](const ::testing::TestParamInfo<KernelDispatch>& info) {
      return std::string(info.param == KernelDispatch::kAuto ? "Auto"
                                                             : "Scalar");
    });

// Second-sighting admission in the token-table LRU.
TEST(TokenCacheAdmissionTest, SecondSightingAdmitsThirdHits) {
  hve::TokenTableCache cache(4);
  const std::vector<uint8_t> blob = {1, 2, 3};
  auto table = std::make_shared<const hve::PrecompiledToken>();
  EXPECT_EQ(cache.Get(blob), nullptr);
  cache.Put(blob, table);  // first sighting: remembered, not retained
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.sightings(), 1u);
  EXPECT_EQ(cache.Get(blob), nullptr);
  cache.Put(blob, table);  // second sighting: admitted
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get(blob), table);  // third: a hit
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(TokenCacheAdmissionTest, SightingsFifoStaysBounded) {
  constexpr size_t kCapacity = 3;
  hve::TokenTableCache cache(kCapacity);
  auto table = std::make_shared<const hve::PrecompiledToken>();
  const size_t bound = hve::TokenTableCache::kSightingsPerEntry * kCapacity;
  for (uint8_t b = 0; b < 100; ++b) {
    cache.Put({b, 0xee}, table);
    EXPECT_LE(cache.sightings(), bound);
  }
  EXPECT_EQ(cache.sightings(), bound);
  EXPECT_EQ(cache.size(), 0u);
  // The oldest sightings were forgotten: their blobs count as new.
  cache.Put({0, 0xee}, table);
  EXPECT_EQ(cache.size(), 0u);
  // The newest are remembered, so a repeat is admitted.
  cache.Put({99, 0xee}, table);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Get({99, 0xee}), nullptr);
}

TEST(TokenCacheAdmissionTest, CapacityZeroRemembersNothing) {
  hve::TokenTableCache cache(0);
  auto table = std::make_shared<const hve::PrecompiledToken>();
  for (int i = 0; i < 3; ++i) cache.Put({7}, table);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.sightings(), 0u);
  EXPECT_EQ(cache.Get({7}), nullptr);
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
