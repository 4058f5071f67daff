// Batch-first service API tests: the pluggable ciphertext store, bulk
// ingestion, and — the load-bearing guarantee — that the sharded
// parallel matcher is observationally identical to the sequential
// reference path on the same workload.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "alert/protocol.h"
#include "api/store.h"
#include "prob/sigmoid.h"

namespace sloc {
namespace alert {
namespace {

PairingParamSpec SmallPairing(uint64_t seed) {
  PairingParamSpec spec;
  spec.p_prime_bits = 32;
  spec.q_prime_bits = 32;
  spec.seed = seed;
  return spec;
}

std::vector<double> TestProbs(size_t n, uint64_t seed) {
  Rng rng(seed);
  return GenerateSigmoidProbabilities(n, 0.9, 50, &rng);
}

// ---------- Store backends ----------

TEST(StoreTest, MakeStorePicksBackend) {
  EXPECT_EQ(api::MakeStore(1)->name(), "sharded/1");
  EXPECT_EQ(api::MakeStore(4)->name(), "sharded/4");
  EXPECT_EQ(api::MakeStore(0)->name(), "sharded/1");
}

TEST(StoreTest, ShardedStoreBasicOps) {
  api::ShardedStore store(4);
  hve::Ciphertext ct;  // contents irrelevant to store semantics
  for (int u = 0; u < 100; ++u) store.Put(u, ct);
  EXPECT_EQ(store.size(), 100u);
  EXPECT_TRUE(store.Contains(42));
  EXPECT_FALSE(store.Contains(100));
  store.Put(42, ct);  // replace, not duplicate
  EXPECT_EQ(store.size(), 100u);
  EXPECT_TRUE(store.Erase(42));
  EXPECT_FALSE(store.Erase(42));
  EXPECT_EQ(store.size(), 99u);
}

TEST(StoreTest, ShardsPartitionTheUserSet) {
  api::ShardedStore store(4);
  hve::Ciphertext ct;
  for (int u = 0; u < 200; ++u) store.Put(u, ct);
  std::set<int> seen;
  size_t nonempty_shards = 0;
  for (size_t s = 0; s < store.num_shards(); ++s) {
    size_t in_shard = 0;
    store.VisitShard(s, [&](int user_id, const api::CtPtr&) {
      EXPECT_EQ(store.ShardOf(user_id), s);
      EXPECT_TRUE(seen.insert(user_id).second) << "user in two shards";
      ++in_shard;
    });
    nonempty_shards += in_shard > 0;
  }
  EXPECT_EQ(seen.size(), 200u);  // union covers everyone, no duplicates
  // The hash should spread 200 dense ids over all 4 shards.
  EXPECT_EQ(nonempty_shards, 4u);
}

TEST(StoreTest, ShardOfIsStable) {
  api::ShardedStore store(8);
  for (int u = -5; u < 50; ++u) {
    EXPECT_EQ(store.ShardOf(u), store.ShardOf(u));
    EXPECT_LT(store.ShardOf(u), 8u);
  }
}

// ---------- Batch ingestion ----------

class BatchApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    group_ = std::make_shared<const PairingGroup>(
        PairingGroup::Generate(SmallPairing(321)).value());
    auto encoder = MakeEncoder(EncoderKind::kHuffman).value();
    ASSERT_TRUE(encoder->Build(TestProbs(16, 5)).ok());
    auto rng = std::make_shared<Rng>(99);
    RandFn rand = [rng]() { return rng->NextU64(); };
    ta_ = std::make_unique<TrustedAuthority>(
        TrustedAuthority::Create(group_, std::move(encoder), rand).value());
    // Joined through the broadcast envelope — the real wire flow.
    user_ = std::make_unique<MobileUser>(
        MobileUser::JoinFromAnnouncement(0, group_,
                                         ta_->PublicKeyAnnouncement(),
                                         ta_->marker(), rand)
            .value());
  }

  api::LocationUpload UploadFor(int user_id, int cell) {
    api::LocationUpload upload;
    upload.user_id = user_id;
    upload.ciphertext =
        user_->EncryptLocation(ta_->IndexOfCell(cell).value()).value();
    return upload;
  }

  std::shared_ptr<const PairingGroup> group_;
  std::unique_ptr<TrustedAuthority> ta_;
  std::unique_ptr<MobileUser> user_;
};

TEST_F(BatchApiTest, SubmitBatchAcceptsGoodRejectsBad) {
  ServiceProvider::Options options;
  options.num_shards = 4;
  options.num_threads = 4;
  ServiceProvider sp(group_, ta_->marker(), options);

  std::vector<api::LocationUpload> uploads;
  uploads.push_back(UploadFor(1, 2));
  uploads.push_back(UploadFor(2, 3));
  api::LocationUpload bad;
  bad.user_id = 3;
  bad.ciphertext = {1, 2, 3};  // garbage blob
  uploads.push_back(bad);
  uploads.push_back(UploadFor(4, 5));

  ServiceProvider::SubmitReport report = sp.SubmitBatch(uploads);
  EXPECT_EQ(report.accepted, 3u);
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_EQ(report.rejected[0].first, 3);
  EXPECT_FALSE(report.rejected[0].second.ok());
  EXPECT_EQ(sp.num_users(), 3u);
  EXPECT_TRUE(sp.store().Contains(4));
  EXPECT_FALSE(sp.store().Contains(3));
}

TEST_F(BatchApiTest, DuplicateUserInBatchLatestWins) {
  ServiceProvider sp(group_, ta_->marker());
  std::vector<api::LocationUpload> uploads;
  uploads.push_back(UploadFor(7, 1));  // first in cell 1...
  uploads.push_back(UploadFor(7, 4));  // ...then moves to cell 4
  EXPECT_EQ(sp.SubmitBatch(uploads).accepted, 2u);
  EXPECT_EQ(sp.num_users(), 1u);
  auto tokens = ta_->IssueAlert({4}).value();
  auto outcome = sp.ProcessAlert(tokens).value();
  EXPECT_EQ(outcome.notified_users, std::vector<int>{7});
}

TEST_F(BatchApiTest, BatchFrameRoundtripsThroughWire) {
  ServiceProvider sp(group_, ta_->marker());
  std::vector<api::LocationUpload> uploads = {UploadFor(1, 0),
                                              UploadFor(2, 6)};
  auto report = sp.SubmitBatchFrame(api::EncodeLocationBatch(uploads).value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->accepted, 2u);
  // A corrupted frame is rejected wholesale.
  std::vector<uint8_t> frame = api::EncodeLocationBatch(uploads).value();
  frame[10] ^= 0xff;
  EXPECT_FALSE(sp.SubmitBatchFrame(frame).ok());
}

TEST_F(BatchApiTest, ShardCountMismatchFailsUpFront) {
  // A caller-supplied store whose shard count disagrees with
  // Options::num_shards used to fail only at VisitShard's SLOC_CHECK
  // deep inside a worker thread. It must now surface as a proper
  // Status from every ingest/scan entry point.
  ServiceProvider::Options options;
  options.num_shards = 4;
  ServiceProvider sp(group_, ta_->marker(),
                     std::make_unique<api::ShardedStore>(8), options);
  ASSERT_FALSE(sp.config_status().ok());
  EXPECT_EQ(sp.config_status().code(), StatusCode::kInvalidArgument);

  // SubmitLocation and ProcessAlert return the config status.
  api::LocationUpload up = UploadFor(1, 2);
  EXPECT_EQ(sp.SubmitLocation(up.user_id, up.ciphertext).code(),
            StatusCode::kInvalidArgument);
  auto tokens = ta_->IssueAlert({2}).value();
  EXPECT_EQ(sp.ProcessAlert(tokens).status().code(),
            StatusCode::kInvalidArgument);

  // SubmitBatch rejects every entry with the reason, storing nothing.
  ServiceProvider::SubmitReport report = sp.SubmitBatch({up});
  EXPECT_EQ(report.accepted, 0u);
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_EQ(report.rejected[0].second.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sp.num_users(), 0u);
}

TEST_F(BatchApiTest, MatchingCustomStoreIsAccepted) {
  ServiceProvider::Options options;
  options.num_shards = 8;
  ServiceProvider sp(group_, ta_->marker(),
                     std::make_unique<api::ShardedStore>(8), options);
  EXPECT_TRUE(sp.config_status().ok());
  EXPECT_EQ(sp.SubmitBatch({UploadFor(1, 2)}).accepted, 1u);
}

TEST_F(BatchApiTest, UploadFrameRejectsTokenBundle) {
  // A token bundle handed to the upload endpoint is caught by the
  // envelope type tag, before any crypto parsing.
  ServiceProvider sp(group_, ta_->marker());
  auto bundle = ta_->IssueAlertBundle(1, {2}).value();
  EXPECT_EQ(sp.SubmitUpload(bundle).code(), StatusCode::kInvalidArgument);
}

// ---------- Sharded matcher == sequential matcher ----------

// The acceptance bar: on a >= 200-user workload, a 4-shard store scanned
// by 4 worker threads must produce a byte-identical notified set and
// equal match statistics to the single-shard sequential path.
TEST(ShardedMatchTest, FourShardsMatchSequentialOn200Users) {
  const size_t kCells = 64;
  const int kUsers = 220;
  auto group = std::make_shared<const PairingGroup>(
      PairingGroup::Generate(SmallPairing(777)).value());
  auto encoder = MakeEncoder(EncoderKind::kHuffman).value();
  ASSERT_TRUE(encoder->Build(TestProbs(kCells, 11)).ok());
  auto rng = std::make_shared<Rng>(2024);
  RandFn rand = [rng]() { return rng->NextU64(); };
  TrustedAuthority ta =
      TrustedAuthority::Create(group, std::move(encoder), rand).value();
  MobileUser user =
      MobileUser::Join(0, group, ta.public_key_blob(), ta.marker(), rand)
          .value();

  // One shared workload: every user's ciphertext blob is submitted to
  // both providers, so any divergence is the matcher's fault alone.
  Rng placement(31337);
  std::vector<int> user_cell(kUsers);
  std::vector<api::LocationUpload> uploads;
  uploads.reserve(kUsers);
  for (int u = 0; u < kUsers; ++u) {
    user_cell[size_t(u)] = int(placement.NextBelow(kCells));
    api::LocationUpload upload;
    upload.user_id = u;
    upload.ciphertext =
        user.EncryptLocation(ta.IndexOfCell(user_cell[size_t(u)]).value())
            .value();
    uploads.push_back(std::move(upload));
  }

  ServiceProvider sequential(group, ta.marker());  // 1 shard, 1 thread
  ServiceProvider::Options options;
  options.num_shards = 4;
  options.num_threads = 4;
  ServiceProvider sharded(group, ta.marker(), options);
  EXPECT_EQ(sequential.SubmitBatch(uploads).accepted, size_t(kUsers));
  EXPECT_EQ(sharded.SubmitBatch(uploads).accepted, size_t(kUsers));

  std::vector<int> zone = {3, 7, 12, 25, 40, 41};
  auto tokens = ta.IssueAlert(zone).value();
  auto seq = sequential.ProcessAlert(tokens).value();
  auto par = sharded.ProcessAlert(tokens).value();

  EXPECT_EQ(par.notified_users, seq.notified_users);
  EXPECT_EQ(par.stats.matches, seq.stats.matches);
  EXPECT_EQ(par.stats.non_star_bits, seq.stats.non_star_bits);
  EXPECT_EQ(par.stats.pairings, seq.stats.pairings);
  EXPECT_EQ(par.stats.ciphertexts_scanned, size_t(kUsers));
  EXPECT_EQ(seq.stats.ciphertexts_scanned, size_t(kUsers));

  // And both agree with plaintext ground truth.
  std::set<int> zone_cells(zone.begin(), zone.end());
  std::vector<int> expected;
  for (int u = 0; u < kUsers; ++u) {
    if (zone_cells.count(user_cell[size_t(u)])) expected.push_back(u);
  }
  EXPECT_EQ(seq.notified_users, expected);
  EXPECT_GT(expected.size(), 0u) << "degenerate workload";

  // The reference oracle agrees with the batched engine under sharding
  // too.
  sharded.set_engine(ServiceProvider::QueryEngine::kReference);
  auto par_ref = sharded.ProcessAlert(tokens).value();
  EXPECT_EQ(par_ref.notified_users, seq.notified_users);
  EXPECT_EQ(par_ref.stats.pairings, seq.stats.pairings);
  EXPECT_EQ(par_ref.stats.queries, seq.stats.queries);
  EXPECT_EQ(par_ref.stats.matches, seq.stats.matches);
}

TEST(ShardedMatchTest, MoreThreadsThanShardsIsSafe) {
  AlertSystem::Config config;
  config.pairing = SmallPairing(555);
  config.num_shards = 2;
  config.num_threads = 8;  // clamped to the shard count internally
  AlertSystem sys = AlertSystem::Create(TestProbs(16, 3), config).value();
  ASSERT_TRUE(sys.AddUsers({{1, 2}, {2, 3}, {3, 9}}).ok());
  auto outcome = sys.TriggerAlert({2, 3}).value();
  EXPECT_EQ(outcome.notified_users, (std::vector<int>{1, 2}));
}

TEST(ShardedMatchTest, AlertSystemShardedEndToEnd) {
  // The harness path: batch registration + sharded matching over the
  // enveloped wire messages, checked against the sequential system.
  std::vector<double> probs = TestProbs(32, 17);
  std::vector<std::pair<int, int>> user_cells;
  Rng rng(4242);
  for (int u = 0; u < 40; ++u) {
    user_cells.emplace_back(u, int(rng.NextBelow(32)));
  }
  std::vector<int> zone = {1, 5, 11, 20};

  AlertSystem::Config seq_config;
  seq_config.pairing = SmallPairing(900);
  AlertSystem seq_sys = AlertSystem::Create(probs, seq_config).value();
  ASSERT_TRUE(seq_sys.AddUsers(user_cells).ok());

  AlertSystem::Config par_config = seq_config;
  par_config.num_shards = 4;
  par_config.num_threads = 4;
  AlertSystem par_sys = AlertSystem::Create(probs, par_config).value();
  ASSERT_TRUE(par_sys.AddUsers(user_cells).ok());
  EXPECT_EQ(par_sys.provider().store().name(), "sharded/4");

  auto seq_outcome = seq_sys.TriggerAlert(zone).value();
  auto par_outcome = par_sys.TriggerAlert(zone).value();
  EXPECT_EQ(par_outcome.notified_users, seq_outcome.notified_users);
  EXPECT_EQ(par_outcome.stats.matches, seq_outcome.stats.matches);
  EXPECT_EQ(par_outcome.stats.non_star_bits,
            seq_outcome.stats.non_star_bits);
}

TEST(ShardedMatchTest, BothMillerWalksNotifyTheSameUsers) {
  // A 4-limb field walks ifma8 under kAuto on an AVX-512 IFMA host and
  // scalar under kPortableOnly; the reference engine and the default
  // batched engine must notify the plaintext ground truth under both.
  PairingParamSpec pairing;
  pairing.p_prime_bits = 100;
  pairing.q_prime_bits = 100;
  pairing.seed = 4711;
  std::vector<double> probs = TestProbs(16, 23);
  std::vector<std::pair<int, int>> user_cells;
  Rng rng(515);
  for (int u = 0; u < 18; ++u) {
    user_cells.emplace_back(u, int(rng.NextBelow(16)));
  }
  const std::vector<int> zone = {0, 4, 9, 10};
  std::set<int> zone_cells(zone.begin(), zone.end());
  std::vector<int> expected;
  for (const auto& [user, cell] : user_cells) {
    if (zone_cells.count(cell)) expected.push_back(user);
  }
  ASSERT_FALSE(expected.empty());
  for (KernelDispatch policy :
       {KernelDispatch::kAuto, KernelDispatch::kPortableOnly}) {
    AlertSystem::Config config;
    config.pairing = pairing;
    config.num_shards = 2;
    config.num_threads = 2;
    SetMulKernelDispatch(policy);
    auto sys = AlertSystem::Create(probs, config);
    SetMulKernelDispatch(KernelDispatch::kAuto);
    ASSERT_TRUE(sys.ok());
    ASSERT_EQ(sys->group().fp().num_limbs(), 4u);
    ASSERT_TRUE(sys->AddUsers(user_cells).ok());
    auto batched = sys->TriggerAlert(zone).value();
    EXPECT_EQ(batched.notified_users, expected)
        << MillerWalkName(sys->group().miller_plan().walk());
    sys->mutable_provider()->set_engine(
        ServiceProvider::QueryEngine::kReference);
    auto reference = sys->TriggerAlert(zone).value();
    EXPECT_EQ(reference.notified_users, expected);
    EXPECT_EQ(reference.stats.pairings, batched.stats.pairings);
  }
}

TEST(ShardedMatchTest, AddUsersRejectsDuplicateRegistration) {
  AlertSystem::Config config;
  config.pairing = SmallPairing(901);
  AlertSystem sys = AlertSystem::Create(TestProbs(16, 3), config).value();
  ASSERT_TRUE(sys.AddUser(1, 0).ok());
  Status st = sys.AddUsers({{2, 1}, {1, 2}});
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
  // The failed batch is all-or-nothing: user 2 must not be left
  // half-registered, so a retry with clean input succeeds.
  EXPECT_EQ(sys.provider().num_users(), 1u);
  EXPECT_TRUE(sys.AddUser(2, 1).ok());
  // A duplicate *within* one batch is caught too.
  EXPECT_EQ(sys.AddUsers({{3, 1}, {3, 2}}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(sys.AddUser(3, 2).ok());
}

}  // namespace
}  // namespace alert
}  // namespace sloc
