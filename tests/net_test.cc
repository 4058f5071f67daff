// Network front-end tests (src/net): FrameDecoder reassembly and
// poisoning, and loopback end-to-end flows against a live AlertServer —
// submissions and alerts must be observationally identical to an
// in-process ServiceProvider twin, including across a server restart
// over a durable store.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alert/protocol.h"
#include "api/log_store.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "prob/sigmoid.h"

namespace sloc {
namespace net {
namespace {

/// Removes a test's store directory when the test's scope ends.
struct RemoveAtExit {
  std::string dir;
  ~RemoveAtExit() {
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }
};

// ---------- FrameDecoder ----------

std::vector<uint8_t> Framed(const std::vector<uint8_t>& envelope) {
  std::vector<uint8_t> out;
  AppendFrame(envelope, &out);
  return out;
}

TEST(FrameDecoderTest, WholeFrameRoundtrips) {
  FrameDecoder decoder(1 << 20);
  const std::vector<uint8_t> envelope = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> stream = Framed(envelope);
  ASSERT_TRUE(decoder.Feed(stream.data(), stream.size()).ok());
  std::vector<uint8_t> got;
  ASSERT_TRUE(decoder.Next(&got));
  EXPECT_EQ(got, envelope);
  EXPECT_FALSE(decoder.Next(&got));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameDecoderTest, ByteAtATimeAndCoalescedSplitsAgree) {
  const std::vector<uint8_t> a = {9, 8, 7};
  const std::vector<uint8_t> b(300, 0x5A);
  std::vector<uint8_t> stream = Framed(a);
  const std::vector<uint8_t> fb = Framed(b);
  stream.insert(stream.end(), fb.begin(), fb.end());

  // Worst-case fragmentation: one byte per Feed.
  FrameDecoder trickle(1 << 20);
  std::vector<std::vector<uint8_t>> got;
  std::vector<uint8_t> envelope;
  for (uint8_t byte : stream) {
    ASSERT_TRUE(trickle.Feed(&byte, 1).ok());
    while (trickle.Next(&envelope)) got.push_back(envelope);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], a);
  EXPECT_EQ(got[1], b);

  // Both frames in one read: same result.
  FrameDecoder coalesced(1 << 20);
  ASSERT_TRUE(coalesced.Feed(stream.data(), stream.size()).ok());
  ASSERT_TRUE(coalesced.Next(&envelope));
  EXPECT_EQ(envelope, a);
  ASSERT_TRUE(coalesced.Next(&envelope));
  EXPECT_EQ(envelope, b);
  EXPECT_FALSE(coalesced.Next(&envelope));
}

TEST(FrameDecoderTest, PartialFrameIsBuffered) {
  FrameDecoder decoder(1 << 20);
  const std::vector<uint8_t> stream = Framed({1, 2, 3, 4});
  ASSERT_TRUE(decoder.Feed(stream.data(), stream.size() - 1).ok());
  std::vector<uint8_t> envelope;
  EXPECT_FALSE(decoder.Next(&envelope));
  EXPECT_GT(decoder.buffered_bytes(), 0u);
  ASSERT_TRUE(decoder.Feed(stream.data() + stream.size() - 1, 1).ok());
  ASSERT_TRUE(decoder.Next(&envelope));
  EXPECT_EQ(envelope, std::vector<uint8_t>({1, 2, 3, 4}));
}

TEST(FrameDecoderTest, OversizeDeclaredLengthPoisons) {
  FrameDecoder decoder(16);
  // Declares 17 bytes against a 16-byte cap: rejected before any
  // payload byte is buffered.
  const uint8_t prefix[4] = {17, 0, 0, 0};
  Status st = decoder.Feed(prefix, sizeof(prefix));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // Poisoned: even a well-formed follow-up keeps failing.
  const std::vector<uint8_t> fine = Framed({1});
  EXPECT_FALSE(decoder.Feed(fine.data(), fine.size()).ok());
}

// ---------- End-to-end over loopback ----------

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PairingParamSpec spec;
    spec.p_prime_bits = 32;
    spec.q_prime_bits = 32;
    spec.seed = 321;
    group_ = std::make_shared<const PairingGroup>(
        PairingGroup::Generate(spec).value());
    auto encoder = MakeEncoder(EncoderKind::kHuffman).value();
    Rng prng(5);
    ASSERT_TRUE(
        encoder->Build(GenerateSigmoidProbabilities(16, 0.9, 50, &prng))
            .ok());
    auto rng = std::make_shared<Rng>(99);
    RandFn rand = [rng]() { return rng->NextU64(); };
    ta_ = std::make_unique<alert::TrustedAuthority>(
        alert::TrustedAuthority::Create(group_, std::move(encoder), rand)
            .value());
    user_ = std::make_unique<alert::MobileUser>(
        alert::MobileUser::JoinFromAnnouncement(0, group_,
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

  std::unique_ptr<AlertServer> StartServer(
      std::unique_ptr<api::CiphertextStore> store, unsigned io_threads = 1) {
    AlertServer::Options options;
    options.num_workers = 2;
    options.scan_threads = 2;
    options.io_threads = io_threads;
    return AlertServer::Start(group_, ta_->marker(), std::move(store),
                              options)
        .value();
  }

  std::shared_ptr<const PairingGroup> group_;
  std::unique_ptr<alert::TrustedAuthority> ta_;
  std::unique_ptr<alert::MobileUser> user_;
};

TEST_F(NetTest, SubmitAndAlertMatchInProcessTwin) {
  const std::vector<std::pair<int, int>> placements = {
      {1, 2}, {2, 3}, {3, 5}, {4, 2}, {5, 11}};

  // In-process twin over the same uploads.
  alert::ServiceProvider::Options sp_options;
  sp_options.num_shards = 4;
  sp_options.num_threads = 2;
  alert::ServiceProvider twin(group_, ta_->marker(), sp_options);

  auto server = StartServer(api::MakeStore(4));
  AlertClient client = AlertClient::Connect(server->port()).value();

  std::vector<api::LocationUpload> uploads;
  for (const auto& [user, cell] : placements) {
    uploads.push_back(UploadFor(user, cell));
    ASSERT_TRUE(
        twin.SubmitLocation(user, uploads.back().ciphertext).ok());
  }
  // One as a single upload, the rest as a batch: both ingest paths.
  api::SubmitAck ack = client.SubmitUpload(
      api::EncodeLocationUpload(uploads[0])).value();
  EXPECT_EQ(ack.accepted, 1u);
  EXPECT_EQ(ack.rejected, 0u);
  ack = client
            .SubmitBatch(std::vector<api::LocationUpload>(
                uploads.begin() + 1, uploads.end()))
            .value();
  EXPECT_EQ(ack.accepted, uploads.size() - 1);
  EXPECT_EQ(ack.rejected, 0u);

  const std::vector<uint8_t> bundle =
      ta_->IssueAlertBundle(7, {2, 3}).value();
  api::OutcomeReport report = client.ProcessAlertBundle(bundle).value();
  const auto expected = twin.ProcessAlert(
      api::DecodeTokenBundle(bundle).value().tokens).value();
  EXPECT_EQ(report.alert_id, 7u);
  EXPECT_EQ(report.notified_users, expected.notified_users);
  EXPECT_EQ(report.matches, expected.stats.matches);
  EXPECT_EQ(report.resident_users, placements.size());
  EXPECT_EQ(report.store_backend, "sharded/4");
  ASSERT_FALSE(report.notified_users.empty());

  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.uploads_accepted, placements.size());
  EXPECT_EQ(stats.alerts_served, 1u);
  EXPECT_EQ(stats.frames_received, 3u);
}

TEST_F(NetTest, GarbageBlobRejectedInAck) {
  auto server = StartServer(api::MakeStore(2));
  AlertClient client = AlertClient::Connect(server->port()).value();

  std::vector<api::LocationUpload> uploads;
  uploads.push_back(UploadFor(1, 2));
  api::LocationUpload bad;
  bad.user_id = 2;
  bad.ciphertext = {1, 2, 3};  // not a ciphertext
  uploads.push_back(bad);
  uploads.push_back(UploadFor(3, 5));

  api::SubmitAck ack = client.SubmitBatch(uploads).value();
  EXPECT_EQ(ack.accepted, 2u);
  EXPECT_EQ(ack.rejected, 1u);
  EXPECT_NE(ack.error_code, 0);
  EXPECT_FALSE(ack.error_message.empty());
  // The rejected entry did not poison the rest of the batch.
  api::OutcomeReport report =
      client.ProcessAlertBundle(ta_->IssueAlertBundle(1, {2}).value())
          .value();
  EXPECT_EQ(report.resident_users, 2u);
}

TEST_F(NetTest, UnhandledMessageTypeGetsErrorReplyAndConnectionSurvives) {
  auto server = StartServer(api::MakeStore(1));
  AlertClient client = AlertClient::Connect(server->port()).value();

  // A valid envelope of a type the server does not serve.
  api::OutcomeReport stray;
  stray.alert_id = 1;
  auto reply = client.ProcessAlertBundle(
      api::EncodeOutcomeReport(stray).value());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnimplemented);

  // Same connection still serves real requests afterwards.
  api::SubmitAck ack = client.SubmitUpload(
      api::EncodeLocationUpload(UploadFor(1, 2))).value();
  EXPECT_EQ(ack.accepted, 1u);
}

TEST_F(NetTest, MalformedAlertBundleGetsErrorReply) {
  auto server = StartServer(api::MakeStore(1));
  AlertClient client = AlertClient::Connect(server->port()).value();
  // Envelope-valid kAlertTokens frame whose payload is garbage.
  const std::vector<uint8_t> frame =
      api::Seal(api::MessageType::kAlertTokens, {0xFF, 0xFF, 0xFF});
  auto reply = client.ProcessAlertBundle(frame);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDataLoss);
}

TEST_F(NetTest, PipelinedSubmissionsAckInOrder) {
  auto server = StartServer(api::MakeStore(4));
  AlertClient client = AlertClient::Connect(server->port()).value();
  constexpr int kPipelined = 32;
  for (int i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(client
                    .SendOnly(api::EncodeLocationUpload(
                        UploadFor(i + 1, (i % 14) + 1)))
                    .ok());
  }
  for (int i = 0; i < kPipelined; ++i) {
    api::SubmitAck ack = client.DrainAck().value();
    EXPECT_EQ(ack.accepted, 1u) << "reply " << i;
  }
  EXPECT_EQ(server->stats().uploads_accepted, uint64_t(kPipelined));
}

TEST_F(NetTest, ConnectionDroppedMidReplyBurstDoesNotPoisonServer) {
  // Regression for a use-after-free: a burst of immediate replies
  // (unhandled-type errors) processed in one HandleRead pass, with the
  // peer already gone, makes a mid-burst reply write fail and close the
  // connection while later frames from the same read are still being
  // routed. The server must drop the rest of the burst cleanly (run
  // under ASan to catch the freed-Connection access) and keep serving.
  auto server = StartServer(api::MakeStore(2));
  {
    AlertClient client = AlertClient::Connect(server->port()).value();
    api::OutcomeReport stray;
    stray.alert_id = 1;
    const std::vector<uint8_t> frame =
        api::EncodeOutcomeReport(stray).value();
    for (int i = 0; i < 256; ++i) ASSERT_TRUE(client.SendOnly(frame).ok());
    // Give some replies time to land in the client's receive buffer:
    // closing with unread data makes the kernel send RST, so the
    // server's next reply write fails while later frames of the same
    // burst are still being routed.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    // Destroys the client: its fd closes with every reply unread.
  }
  // The dead connection is reaped (promptly on a reply-write failure,
  // otherwise on the read of EOF).
  for (int spin = 0; spin < 500 && server->stats().connections_closed == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server->stats().connections_closed, 1u);

  // A fresh connection is served normally afterwards.
  AlertClient client = AlertClient::Connect(server->port()).value();
  api::SubmitAck ack =
      client.SubmitUpload(api::EncodeLocationUpload(UploadFor(1, 2)))
          .value();
  EXPECT_EQ(ack.accepted, 1u);
}

TEST_F(NetTest, RestartOverLogStoreServesIdenticalAlert) {
  std::string dir = testing::TempDir() + "/net_restart_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const RemoveAtExit remove_store{dir};  // after every server over it
  auto open_store = [&] {
    api::LogBackedStore::Options options;
    options.num_shards = 2;
    return api::LogBackedStore::Open(dir, group_, options).value();
  };

  const std::vector<uint8_t> bundle =
      ta_->IssueAlertBundle(3, {2, 3}).value();
  std::vector<int> before;
  {
    auto server = StartServer(open_store());
    AlertClient client = AlertClient::Connect(server->port()).value();
    std::vector<api::LocationUpload> uploads;
    for (int u = 1; u <= 6; ++u) uploads.push_back(UploadFor(u, u + 1));
    api::SubmitAck ack = client.SubmitBatch(uploads).value();
    ASSERT_EQ(ack.accepted, 6u);
    before = client.ProcessAlertBundle(bundle).value().notified_users;
    ASSERT_FALSE(before.empty());
    server->Stop();
  }

  auto server = StartServer(open_store());
  AlertClient client = AlertClient::Connect(server->port()).value();
  api::OutcomeReport after = client.ProcessAlertBundle(bundle).value();
  EXPECT_EQ(after.notified_users, before);
  EXPECT_EQ(after.resident_users, 6u);
  EXPECT_EQ(after.store_backend, "log/sharded/2");
}

TEST_F(NetTest, MultiIoThreadServerMatchesTwinAcrossConnections) {
  // Three SO_REUSEPORT I/O threads, several client connections (the
  // kernel spreads them across threads), uploads interleaved with an
  // alert from yet another connection: the aggregate resident state and
  // alert outcome must match an in-process twin, and per-connection
  // acks must all arrive.
  alert::ServiceProvider::Options sp_options;
  sp_options.num_shards = 4;
  sp_options.num_threads = 2;
  alert::ServiceProvider twin(group_, ta_->marker(), sp_options);

  auto server = StartServer(api::MakeStore(4), /*io_threads=*/3);
  constexpr int kClients = 6;
  constexpr int kPerClient = 8;
  std::vector<AlertClient> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(AlertClient::Connect(server->port()).value());
  }
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      const int user = c * kPerClient + i + 1;
      const api::LocationUpload upload = UploadFor(user, (user % 14) + 1);
      ASSERT_TRUE(twin.SubmitLocation(user, upload.ciphertext).ok());
      ASSERT_TRUE(
          clients[size_t(c)].SendOnly(api::EncodeLocationUpload(upload)).ok());
    }
  }
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      api::SubmitAck ack = clients[size_t(c)].DrainAck().value();
      EXPECT_EQ(ack.accepted, 1u) << "client " << c << " reply " << i;
    }
  }

  AlertClient alert_client = AlertClient::Connect(server->port()).value();
  const std::vector<uint8_t> bundle =
      ta_->IssueAlertBundle(9, {2, 3}).value();
  const api::OutcomeReport report =
      alert_client.ProcessAlertBundle(bundle).value();
  const auto expected =
      twin.ProcessAlert(api::DecodeTokenBundle(bundle).value().tokens)
          .value();
  EXPECT_EQ(report.notified_users, expected.notified_users);
  EXPECT_EQ(report.resident_users, size_t(kClients * kPerClient));
  ASSERT_FALSE(report.notified_users.empty());

  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.uploads_accepted, uint64_t(kClients * kPerClient));
  EXPECT_EQ(stats.connections_accepted, uint64_t(kClients + 1));
}

TEST_F(NetTest, MultiIoThreadPipelinedAcksStayInOrder) {
  // The reply reorder buffer is now per-I/O-thread state; a deep
  // pipeline on one connection of a multi-threaded server must still
  // ack strictly in request order (interleaving good uploads with
  // instant-reply unhandled types exercises the out-of-order
  // completion path: instant replies complete before worker acks).
  auto server = StartServer(api::MakeStore(4), /*io_threads=*/2);
  AlertClient client = AlertClient::Connect(server->port()).value();
  constexpr int kRounds = 16;
  api::OutcomeReport stray;
  stray.alert_id = 1;
  const std::vector<uint8_t> stray_frame =
      api::EncodeOutcomeReport(stray).value();
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(client
                    .SendOnly(api::EncodeLocationUpload(
                        UploadFor(i + 1, (i % 14) + 1)))
                    .ok());
    ASSERT_TRUE(client.SendOnly(stray_frame).ok());
  }
  for (int i = 0; i < kRounds; ++i) {
    api::SubmitAck ack = client.DrainAck().value();  // even slot: upload ack
    EXPECT_EQ(ack.accepted, 1u) << "round " << i;
    auto err = client.DrainAck();  // odd slot: kError for the stray type
    ASSERT_FALSE(err.ok()) << "round " << i;
    EXPECT_EQ(err.status().code(), StatusCode::kUnimplemented);
  }
  EXPECT_EQ(server->stats().uploads_accepted, uint64_t(kRounds));
}

TEST_F(NetTest, ConcurrentIngestAlertsCompactionAndRestartRaceCleanly) {
  // TSan-targeted stress: every concurrent subsystem at once. Several
  // client threads ingest against a group-commit LogBackedStore whose
  // tiny compaction threshold forces log rotations and snapshot
  // rewrites *during* ingest, while another thread fires alert scans
  // (shard drains on the worker pool) and the server spreads
  // connections across two SO_REUSEPORT I/O threads. Then the server
  // restarts over the recovered store and the whole mix runs again.
  // Sized to finish well inside 30s under TSan's ~10x slowdown on one
  // core. Correctness oracle: an in-process twin over the same
  // ciphertexts must agree on the final notified set, and the
  // pre-restart quiescent alert must survive recovery byte-for-byte.
  constexpr int kWriters = 3;
  constexpr int kPerWriter = 10;
  constexpr int kAlertRounds = 3;
  constexpr int kUsersPerPhase = kWriters * kPerWriter;

  std::string dir = testing::TempDir() + "/net_stress_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const RemoveAtExit remove_store{dir};  // after every server over it
  auto open_store = [&] {
    api::LogBackedStore::Options options;
    options.num_shards = 4;
    options.compact_log_bytes = 4096;  // compact constantly under ingest
    options.fsync_batch_max = 8;       // group commit: sync thread live
    options.fsync_interval_us = 200;
    return api::LogBackedStore::Open(dir, group_, options).value();
  };

  // Pre-encrypt everything on this thread: the fixture's Rng is not
  // a concurrent object, and the threads below should race on the
  // server, not on test scaffolding.
  alert::ServiceProvider::Options sp_options;
  sp_options.num_shards = 4;
  sp_options.num_threads = 2;
  alert::ServiceProvider twin(group_, ta_->marker(), sp_options);
  std::vector<std::vector<uint8_t>> frames;  // [phase*kUsers + i]
  for (int user = 1; user <= 2 * kUsersPerPhase; ++user) {
    const api::LocationUpload upload = UploadFor(user, (user % 14) + 1);
    ASSERT_TRUE(twin.SubmitLocation(user, upload.ciphertext).ok());
    frames.push_back(api::EncodeLocationUpload(upload));
  }
  const std::vector<uint8_t> bundle =
      ta_->IssueAlertBundle(11, {2, 3}).value();

  auto run_phase = [&](AlertServer& server, int phase) {
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w, phase] {
        AlertClient client = AlertClient::Connect(server.port()).value();
        for (int i = 0; i < kPerWriter; ++i) {
          const size_t slot =
              size_t(phase) * kUsersPerPhase + size_t(w * kPerWriter + i);
          api::SubmitAck ack = client.SubmitUpload(frames[slot]).value();
          EXPECT_EQ(ack.accepted, 1u) << "writer " << w << " upload " << i;
        }
      });
    }
    threads.emplace_back([&] {
      // Alert scans racing the ingest: outcomes are timing-dependent
      // mid-stream (that is the point), but every scan must complete.
      AlertClient client = AlertClient::Connect(server.port()).value();
      for (int a = 0; a < kAlertRounds; ++a) {
        ASSERT_TRUE(client.ProcessAlertBundle(bundle).ok());
      }
    });
    for (auto& thread : threads) thread.join();
  };

  std::vector<int> before;
  {
    auto server = StartServer(open_store(), /*io_threads=*/2);
    run_phase(*server, /*phase=*/0);
    AlertClient client = AlertClient::Connect(server->port()).value();
    const api::OutcomeReport report =
        client.ProcessAlertBundle(bundle).value();
    EXPECT_EQ(report.resident_users, size_t(kUsersPerPhase));
    before = report.notified_users;
    server->Stop();
  }

  // Recovery replays snapshot + live segments; the quiescent alert
  // must be identical, then the second racing phase runs on top.
  auto server = StartServer(open_store(), /*io_threads=*/2);
  {
    AlertClient client = AlertClient::Connect(server->port()).value();
    EXPECT_EQ(client.ProcessAlertBundle(bundle).value().notified_users,
              before);
  }
  run_phase(*server, /*phase=*/1);

  AlertClient client = AlertClient::Connect(server->port()).value();
  const api::OutcomeReport report =
      client.ProcessAlertBundle(bundle).value();
  const auto expected =
      twin.ProcessAlert(api::DecodeTokenBundle(bundle).value().tokens)
          .value();
  EXPECT_EQ(report.resident_users, size_t(2 * kUsersPerPhase));
  EXPECT_EQ(report.notified_users, expected.notified_users);
  ASSERT_FALSE(report.notified_users.empty());
}

}  // namespace
}  // namespace net
}  // namespace sloc
