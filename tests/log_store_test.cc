// Durability tests for api/log_store.h: a LogBackedStore killed and
// reopened mid-write must recover exactly the durable prefix — torn
// tails truncated, real corruption rejected, snapshots honored — and a
// recovered store must serve byte-identical ProcessAlert outcomes to an
// in-memory twin that saw the same uploads.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alert/protocol.h"
#include "api/log_store.h"
#include "blob_padding.h"
#include "common/wire.h"
#include "hve/serialize.h"
#include "prob/sigmoid.h"

namespace sloc {
namespace api {
namespace {

class LogStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PairingParamSpec spec;
    spec.p_prime_bits = 32;
    spec.q_prime_bits = 32;
    spec.seed = 77;
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
    // TempDir() is shared across tests; each test gets a fresh subdir.
    std::string tmpl = testing::TempDir() + "/log_store_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    if (dir_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  std::vector<uint8_t> BlobFor(int cell) {
    return user_->EncryptLocation(ta_->IndexOfCell(cell).value()).value();
  }

  hve::Ciphertext CtFor(int cell) {
    return hve::ParseCiphertext(*group_, BlobFor(cell)).value();
  }

  Result<std::unique_ptr<LogBackedStore>> Open(size_t num_shards = 2,
                                               size_t compact_log_bytes = 0) {
    LogBackedStore::Options options;
    options.num_shards = num_shards;
    options.compact_log_bytes = compact_log_bytes;
    return LogBackedStore::Open(dir_, group_, options);
  }

  /// The four magic bytes of the snapshot file on disk.
  std::string SnapshotMagic() {
    const std::vector<uint8_t> snap = Slurp(SnapshotPath());
    return std::string(snap.begin(),
                       snap.begin() + long(std::min<size_t>(4, snap.size())));
  }

  std::string LogPath() const { return dir_ + "/wal.log"; }
  std::string SnapshotPath() const { return dir_ + "/snapshot.bin"; }

  static std::vector<uint8_t> Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
  }

  static void Dump(const std::string& path,
                   const std::vector<uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              long(bytes.size()));
  }

  std::shared_ptr<const PairingGroup> group_;
  std::unique_ptr<alert::TrustedAuthority> ta_;
  std::unique_ptr<alert::MobileUser> user_;
  std::string dir_;
};

TEST_F(LogStoreTest, PutEraseSurviveReopen) {
  {
    auto store = Open().value();
    store->Put(1, CtFor(2));
    store->Put(2, CtFor(3));
    store->Put(3, CtFor(5));
    EXPECT_TRUE(store->Erase(2));
    store->Put(1, CtFor(7));  // replace: replay must keep the latest
    EXPECT_TRUE(store->io_status().ok());
  }
  auto store = Open().value();
  EXPECT_EQ(store->size(), 2u);
  EXPECT_TRUE(store->Contains(1));
  EXPECT_FALSE(store->Contains(2));
  EXPECT_TRUE(store->Contains(3));
  EXPECT_EQ(store->name(), "log/sharded/2");
}

TEST_F(LogStoreTest, TornTailTruncatedAndRecoverySucceeds) {
  {
    auto store = Open().value();
    store->Put(1, CtFor(2));
    store->Put(2, CtFor(3));
  }
  // A crash mid-append leaves a record cut short at end-of-file.
  std::vector<uint8_t> log = Slurp(LogPath());
  const size_t full = log.size();
  log.resize(full - 7);
  Dump(LogPath(), log);

  auto store = Open().value();
  // The torn record (user 2) is gone, the durable prefix survives.
  EXPECT_EQ(store->size(), 1u);
  EXPECT_TRUE(store->Contains(1));
  EXPECT_FALSE(store->Contains(2));
  // Recovery truncated the tail in place: the next reopen replays a
  // clean log ending at the durable prefix.
  EXPECT_LT(Slurp(LogPath()).size(), full);
}

TEST_F(LogStoreTest, MidLogCorruptionRejected) {
  {
    auto store = Open().value();
    store->Put(1, CtFor(2));
    store->Put(2, CtFor(3));
  }
  // Flip a byte inside the FIRST record: a checksum-failing record with
  // more log after it is corruption, not a torn write.
  std::vector<uint8_t> log = Slurp(LogPath());
  log[10] ^= 0xFF;
  Dump(LogPath(), log);

  auto reopened = Open();
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST_F(LogStoreTest, ImplausibleLengthPrefixRejected) {
  {
    auto store = Open().value();
    store->Put(1, CtFor(2));
    store->Put(2, CtFor(3));
  }
  // Overwrite the FIRST record's length prefix with an absurd size. A
  // torn append always leaves a correct prefix, so this is corruption —
  // recovery must not silently truncate away both (valid!) records.
  std::vector<uint8_t> log = Slurp(LogPath());
  log[0] = log[1] = log[2] = log[3] = 0xFF;
  Dump(LogPath(), log);

  auto reopened = Open();
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST_F(LogStoreTest, LengthPrefixSwallowingValidRecordsRejected) {
  {
    auto store = Open().value();
    store->Put(1, CtFor(2));
    store->Put(2, CtFor(3));
  }
  // Corrupt the first record's length to a plausible value whose extent
  // runs to end-of-file, swallowing the intact second record. The valid
  // record boundary inside the claimed extent proves mid-log corruption
  // — this must NOT be treated as a torn tail.
  std::vector<uint8_t> log = Slurp(LogPath());
  const uint32_t bogus_len = uint32_t(log.size());  // way past EOF
  log[0] = uint8_t(bogus_len);
  log[1] = uint8_t(bogus_len >> 8);
  log[2] = uint8_t(bogus_len >> 16);
  log[3] = uint8_t(bogus_len >> 24);
  Dump(LogPath(), log);

  auto reopened = Open();
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Replay parses the logged blobs on the worker pool, a chunk at a time,
// and applies the records in log order. Open must still fail exactly as
// a serial parse-and-apply pass would: the first failure in log order
// wins, and a torn tail is cut only when everything before it parsed.

/// Every user's resident ciphertext, serialized, across all shards.
std::map<int, std::vector<uint8_t>> CollectAll(const CiphertextStore& store,
                                               const PairingGroup& group) {
  std::map<int, std::vector<uint8_t>> out;
  for (size_t s = 0; s < store.num_shards(); ++s) {
    store.VisitShard(s, [&](int user, const CtPtr& ct) {
      out[user] = hve::SerializeCiphertext(group, *ct);
    });
  }
  return out;
}

/// Byte offset of every record in a log segment, in order.
std::vector<size_t> RecordOffsets(const std::vector<uint8_t>& log) {
  std::vector<size_t> offsets;
  for (size_t pos = 0; pos + 4 <= log.size();) {
    offsets.push_back(pos);
    const uint32_t len = uint32_t(log[pos]) | uint32_t(log[pos + 1]) << 8 |
                         uint32_t(log[pos + 2]) << 16 |
                         uint32_t(log[pos + 3]) << 24;
    pos += 4 + len + 8;
  }
  return offsets;
}

/// More records than two parse chunks, with an unparseable blob at
/// record kBadRecord, in the last, partial chunk: the log checksums
/// it, but it is no ciphertext.
class ReplayFailureTest : public LogStoreTest {
 protected:
  static constexpr int kRecords = 600;
  static constexpr int kBadRecord = 540;

  void SetUp() override {
    LogStoreTest::SetUp();
    const std::vector<uint8_t> good = BlobFor(2);
    std::vector<uint8_t> bad = good;
    bad[0] ^= 0xFF;  // the blob's magic
    parse_error_ = hve::ParseCiphertext(*group_, bad).status();
    ASSERT_FALSE(parse_error_.ok());
    const hve::Ciphertext ct = hve::ParseCiphertext(*group_, good).value();
    auto store = Open().value();
    for (int i = 0; i < kRecords; ++i) {
      const std::vector<uint8_t>& blob = i == kBadRecord ? bad : good;
      store->Put(i % 50, ct, wire::ByteView{blob.data(), blob.size()});
    }
    ASSERT_TRUE(store->io_status().ok());
  }

  Status parse_error_;
};

TEST_F(ReplayFailureTest, ParseErrorWinsOverLaterMidLogCorruption) {
  std::vector<uint8_t> log = Slurp(LogPath());
  const std::vector<size_t> records = RecordOffsets(log);
  ASSERT_EQ(records.size(), size_t(kRecords));
  log[records[kBadRecord + 40] + 10] ^= 0xFF;
  Dump(LogPath(), log);
  auto reopened = Open();
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), parse_error_.code());
  EXPECT_EQ(reopened.status().message(), parse_error_.message());

  // Corruption before the bad blob is found first.
  log[records[kBadRecord + 40] + 10] ^= 0xFF;
  log[records[kBadRecord - 10] + 10] ^= 0xFF;
  Dump(LogPath(), log);
  reopened = Open();
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find("mid-log corruption"),
            std::string::npos)
      << reopened.status();
}

TEST_F(ReplayFailureTest, ParseErrorBeforeTornTailKeepsTheTail) {
  std::vector<uint8_t> log = Slurp(LogPath());
  log.resize(log.size() - 7);  // the last record is torn
  Dump(LogPath(), log);
  auto reopened = Open();
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), parse_error_.code());
  EXPECT_EQ(reopened.status().message(), parse_error_.message());
  EXPECT_EQ(Slurp(LogPath()), log) << "the torn tail was truncated";
}

TEST_F(LogStoreTest, MultiSegmentReplayOverSnapshotMatchesTwin) {
  // A snapshot, then three live segments (two compactions cut short
  // after their rotation), each longer than one parse chunk, with
  // puts, erases and users written many times. Recovery at the writing
  // shard count (lazy snapshot) and at another one (eager re-shard of
  // the snapshot) must both equal an in-memory twin.
  constexpr int kUsers = 300;
  std::vector<std::vector<uint8_t>> blobs;
  for (int cell = 0; cell < 6; ++cell) blobs.push_back(BlobFor(cell));
  ShardedStore twin(2);
  {
    auto store = Open(2).value();
    Rng rng(17);
    auto step = [&](int user) {
      if (rng.NextBelow(5) == 0) {
        store->Erase(user);
        twin.Erase(user);
        return;
      }
      const std::vector<uint8_t>& blob = blobs[rng.NextBelow(blobs.size())];
      const wire::ByteView view{blob.data(), blob.size()};
      ASSERT_TRUE(Ingest(*store, *group_, user, view).ok());
      ASSERT_TRUE(Ingest(twin, *group_, user, view).ok());
    };
    for (int user = 0; user < kUsers; ++user) step(user);
    ASSERT_TRUE(store->Compact().ok());
    for (int segment = 0; segment < 3; ++segment) {
      for (int i = 0; i < 400; ++i) step(int(rng.NextBelow(kUsers + 20)));
      if (segment == 2) break;
      store->TestSetCompactionFault([](const char* point) {
        return std::string(point) == "rotated"
                   ? Status::Internal("injected crash")
                   : Status::Ok();
      });
      EXPECT_FALSE(store->Compact().ok());
      store->TestSetCompactionFault(nullptr);
    }
    EXPECT_TRUE(store->io_status().ok());
  }
  size_t segments = 0;
  for (const auto& file : std::filesystem::directory_iterator(dir_)) {
    const std::string name = file.path().filename().string();
    if (name.rfind("wal", 0) != 0) continue;
    ++segments;
    EXPECT_GT(RecordOffsets(Slurp(file.path().string())).size(), 256u)
        << name;
  }
  EXPECT_EQ(segments, 3u);
  ASSERT_GT(twin.size(), 0u);
  const std::map<int, std::vector<uint8_t>> expected =
      CollectAll(twin, *group_);
  for (size_t shards : {size_t(2), size_t(3)}) {
    SCOPED_TRACE(shards);
    auto store = Open(shards).value();
    EXPECT_EQ(store->size(), twin.size());
    EXPECT_EQ(CollectAll(*store, *group_), expected);
  }
}

TEST_F(LogStoreTest, ConcurrentSameUserPutsRecoverToAckedState) {
  // Hammer one user from several threads, remember which ciphertext the
  // resident store ended up with, then reopen: recovery must agree with
  // the acked resident state (the WAL append happens under the same
  // shard-lock hold as the memory apply, so the log cannot record
  // racing Puts in the opposite order and resurrect the loser).
  const std::vector<int> cells = {2, 3, 5, 7, 11, 13};
  const auto serialized_user1 = [&](LogBackedStore& store) {
    std::vector<uint8_t> blob;
    store.VisitShard(store.ShardOf(1),
                     [&](int user_id, const CtPtr& ct) {
                       if (user_id == 1) {
                         blob = hve::SerializeCiphertext(*group_, *ct);
                       }
                     });
    return blob;
  };
  // Pre-encrypt on this thread: the fixture's Rng is not a concurrent
  // object (TSan flags it), and the threads should race on Put, not on
  // test scaffolding.
  std::vector<hve::Ciphertext> cts;
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 8; ++i) {
      cts.push_back(CtFor(cells[size_t(t * 8 + i) % cells.size()]));
    }
  }
  std::vector<uint8_t> resident;
  {
    auto store = Open().value();
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 8; ++i) {
          store->Put(1, cts[size_t(t * 8 + i)]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    ASSERT_TRUE(store->io_status().ok());
    resident = serialized_user1(*store);
  }
  ASSERT_FALSE(resident.empty());
  auto reopened = Open().value();
  EXPECT_EQ(reopened->size(), 1u);
  EXPECT_EQ(serialized_user1(*reopened), resident);
}

TEST_F(LogStoreTest, CompactThenMorePutsReplayOverSnapshot) {
  {
    auto store = Open().value();
    store->Put(1, CtFor(2));
    store->Put(2, CtFor(3));
    ASSERT_TRUE(store->Compact().ok());
    EXPECT_EQ(store->log_bytes(), 0u);
    store->Put(3, CtFor(5));   // lands in the log after the snapshot
    EXPECT_TRUE(store->Erase(1));
    EXPECT_GT(store->log_bytes(), 0u);
  }
  auto store = Open().value();
  EXPECT_EQ(store->size(), 2u);
  EXPECT_FALSE(store->Contains(1));
  EXPECT_TRUE(store->Contains(2));
  EXPECT_TRUE(store->Contains(3));
}

// The log keeps the bytes a Put was handed, even a valid encoding that
// is not minimal. Replay parses them to the same ciphertext, and only
// compaction, which serializes the stored ciphertext, writes the
// minimal form.
TEST_F(LogStoreTest, LogKeepsTheValidatedBlobAndCompactionMinimizes) {
  std::vector<uint8_t> minimal;
  std::vector<uint8_t> padded;
  for (int tries = 0; padded.empty() && tries < 64; ++tries) {
    minimal = BlobFor(2);
    padded = PadShortCoordinate(*group_, minimal);
  }
  ASSERT_FALSE(padded.empty()) << "no coordinate shorter than p";
  const auto contains = [](const std::vector<uint8_t>& file,
                           const std::vector<uint8_t>& bytes) {
    return std::search(file.begin(), file.end(), bytes.begin(),
                       bytes.end()) != file.end();
  };
  // User 1's ciphertext, serialized: minimal whatever it was parsed from.
  const auto stored = [&](const LogBackedStore& store) {
    std::vector<uint8_t> blob;
    store.VisitShard(store.ShardOf(1), [&](int user_id, const CtPtr& ct) {
      if (user_id == 1) blob = hve::SerializeCiphertext(*group_, *ct);
    });
    return blob;
  };
  {
    auto store = Open().value();
    ASSERT_TRUE(
        Ingest(*store, *group_, 1, wire::ByteView{padded.data(), padded.size()})
            .ok());
    EXPECT_TRUE(contains(Slurp(LogPath()), padded));
    EXPECT_EQ(stored(*store), minimal);
  }
  {
    auto store = Open().value();  // replays the padded record
    EXPECT_EQ(stored(*store), minimal);
    ASSERT_TRUE(store->Compact().ok());
  }
  const std::vector<uint8_t> snapshot = Slurp(SnapshotPath());
  EXPECT_TRUE(contains(snapshot, minimal));
  EXPECT_FALSE(contains(snapshot, padded));
  auto store = Open().value();
  EXPECT_EQ(stored(*store), minimal);
}

TEST_F(LogStoreTest, AutoCompactionKicksIn) {
  auto store = Open(2, /*compact_log_bytes=*/1).value();
  store->Put(1, CtFor(2));  // every append overflows a 1-byte budget
  store->Put(2, CtFor(3));
  EXPECT_TRUE(store->io_status().ok());
  EXPECT_EQ(store->log_bytes(), 0u);  // compacted away
  EXPECT_GT(Slurp(SnapshotPath()).size(), 0u);
  store.reset();
  auto reopened = Open().value();
  EXPECT_EQ(reopened->size(), 2u);
}

TEST_F(LogStoreTest, RetiredV1SnapshotRejected) {
  // A well-formed snapshot in the retired v1 "SLSS" layout (magic,
  // version 1, count, (i32 user, bytes blob) entries, whole-file
  // checksum) beside a live log. Open must refuse it by name rather
  // than recover from the log alone, which would drop user 1.
  {
    auto store = Open().value();
    store->Put(2, CtFor(3));
  }
  wire::Writer w;
  w.Raw(reinterpret_cast<const uint8_t*>("SLSS"), 4);
  w.U8(1);
  w.U64(1);
  w.I32(1);
  w.Bytes(BlobFor(2));
  std::vector<uint8_t> snap = w.Take();
  wire::AppendChecksum(&snap);
  Dump(SnapshotPath(), snap);
  auto reopened = Open();
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find("v1"), std::string::npos)
      << reopened.status().message();
}

TEST_F(LogStoreTest, UnknownSnapshotMagicRejected) {
  {
    auto store = Open().value();
    store->Put(1, CtFor(2));
    ASSERT_TRUE(store->Compact().ok());
  }
  std::vector<uint8_t> snap = Slurp(SnapshotPath());
  std::memcpy(snap.data(), "SLSX", 4);
  Dump(SnapshotPath(), snap);
  auto reopened = Open();
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST_F(LogStoreTest, UnopenableSnapshotFailsOpen) {
  // A snapshot.bin that exists but cannot be opened (here a symlink
  // loop) must fail Open, not read as "no snapshot yet" and recover
  // from the log alone.
  {
    auto store = Open().value();
    store->Put(1, CtFor(2));
  }
  ASSERT_EQ(::symlink("snapshot.bin", SnapshotPath().c_str()), 0);
  EXPECT_FALSE(Open().ok());
}

TEST_F(LogStoreTest, TruncatedMmapHeaderRejected) {
  {
    auto store = Open().value();
    store->Put(1, CtFor(2));
    ASSERT_TRUE(store->Compact().ok());
  }
  ASSERT_EQ(SnapshotMagic(), "SLS2");
  std::vector<uint8_t> snap = Slurp(SnapshotPath());
  snap.resize(30);  // cut inside the 64-byte header
  Dump(SnapshotPath(), snap);
  auto reopened = Open();
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST_F(LogStoreTest, CorruptMmapHeaderRejected) {
  {
    auto store = Open().value();
    store->Put(1, CtFor(2));
    ASSERT_TRUE(store->Compact().ok());
  }
  std::vector<uint8_t> snap = Slurp(SnapshotPath());
  snap[13] ^= 0xFF;  // inside the header's entry-count field
  Dump(SnapshotPath(), snap);
  auto reopened = Open();
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST_F(LogStoreTest, CorruptMmapIndexRejected) {
  {
    auto store = Open().value();
    store->Put(1, CtFor(2));
    store->Put(2, CtFor(3));
    ASSERT_TRUE(store->Compact().ok());
  }
  std::vector<uint8_t> snap = Slurp(SnapshotPath());
  snap[64 + 20] ^= 0xFF;  // inside the first index entry
  Dump(SnapshotPath(), snap);
  auto reopened = Open();
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST_F(LogStoreTest, CorruptBlobFailsEagerOpenButDefersUnderLazy) {
  {
    auto store = Open().value();
    store->Put(1, CtFor(2));
    store->Put(2, CtFor(3));
    ASSERT_TRUE(store->Compact().ok());
  }
  // The v2 file ends at the last blob's last byte: flip it. Header and
  // index stay intact, so only blob verification can catch this.
  std::vector<uint8_t> snap = Slurp(SnapshotPath());
  snap.back() ^= 0x55;
  Dump(SnapshotPath(), snap);

  // Open + LoadAllShards is the all-or-nothing startup check.
  {
    auto eager = Open().value();
    EXPECT_EQ(eager->LoadAllShards().code(), StatusCode::kDataLoss);
  }

  // Lazy open succeeds — the index still answers Contains — and the
  // corruption surfaces as a latched DataLoss plus a dropped entry when
  // the shard materializes.
  auto lazy = Open().value();
  EXPECT_EQ(lazy->size(), 2u);
  EXPECT_TRUE(lazy->Contains(1));
  EXPECT_TRUE(lazy->Contains(2));
  EXPECT_TRUE(lazy->io_status().ok());
  const Status load = lazy->LoadAllShards();
  EXPECT_EQ(load.code(), StatusCode::kDataLoss);
  EXPECT_EQ(lazy->io_status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(lazy->size(), 1u);  // the corrupt entry was dropped, not served
}

TEST_F(LogStoreTest, LazyRecoveryMatchesEagerRecovery) {
  // Build a store whose recovery mixes all three sources: v2 snapshot
  // entries, a post-snapshot erase, and post-snapshot puts (one
  // replacing a snapshotted user). Lazy and eager recovery must
  // serialize to identical per-shard state.
  const std::vector<std::pair<int, int>> placements = {
      {1, 2}, {2, 3}, {3, 5}, {4, 7}, {5, 11}, {6, 13}, {7, 2}, {8, 3}};
  {
    auto store = Open(4).value();
    for (const auto& [user, cell] : placements) store->Put(user, CtFor(cell));
    ASSERT_TRUE(store->Compact().ok());
    EXPECT_TRUE(store->Erase(5));   // log-only erase over the snapshot
    store->Put(2, CtFor(7));        // log-only replace of a snapshot entry
    store->Put(9, CtFor(5));        // log-only brand-new user
  }
  const auto serialize_all = [&](LogBackedStore& store) {
    std::vector<std::pair<int, std::vector<uint8_t>>> state;
    for (size_t s = 0; s < store.num_shards(); ++s) {
      store.VisitShard(s, [&](int user_id, const CtPtr& ct) {
        state.emplace_back(user_id, hve::SerializeCiphertext(*group_, *ct));
      });
    }
    std::sort(state.begin(), state.end());
    return state;
  };
  auto eager = Open(4).value();
  ASSERT_TRUE(eager->LoadAllShards().ok());
  EXPECT_EQ(eager->pending_snapshot_entries(), 0u);
  auto lazy = Open(4).value();
  EXPECT_GT(lazy->pending_snapshot_entries(), 0u);
  EXPECT_EQ(lazy->size(), eager->size());
  // Contains answers correctly from the index before materialization.
  EXPECT_TRUE(lazy->Contains(1));
  EXPECT_FALSE(lazy->Contains(5));
  EXPECT_TRUE(lazy->Contains(9));
  EXPECT_EQ(serialize_all(*lazy), serialize_all(*eager));
  EXPECT_EQ(lazy->pending_snapshot_entries(), 0u);  // visits materialized all
  EXPECT_TRUE(lazy->io_status().ok());
}

TEST_F(LogStoreTest, MutationsOnUnmaterializedShardsStick) {
  {
    auto store = Open().value();
    store->Put(1, CtFor(2));
    store->Put(2, CtFor(3));
    store->Put(3, CtFor(5));
    ASSERT_TRUE(store->Compact().ok());
  }
  {
    // Mutate the recovered store without ever materializing a shard:
    // erase a snapshotted user and replace another.
    auto store = Open().value();
    EXPECT_GT(store->pending_snapshot_entries(), 0u);
    EXPECT_TRUE(store->Erase(1));
    EXPECT_FALSE(store->Erase(1));  // idempotent: the index entry is dead
    store->Put(2, CtFor(7));
    EXPECT_EQ(store->size(), 2u);
  }
  auto reopened = Open().value();
  EXPECT_EQ(reopened->size(), 2u);
  EXPECT_FALSE(reopened->Contains(1));
  EXPECT_TRUE(reopened->Contains(2));
  EXPECT_TRUE(reopened->Contains(3));
  EXPECT_TRUE(reopened->LoadAllShards().ok());
  EXPECT_EQ(reopened->size(), 2u);
  EXPECT_FALSE(reopened->Contains(1));
}

TEST_F(LogStoreTest, ShardCountChangeForcesEagerReShard) {
  {
    auto store = Open(2).value();
    store->Put(1, CtFor(2));
    store->Put(2, CtFor(3));
    store->Put(3, CtFor(5));
    ASSERT_TRUE(store->Compact().ok());
  }
  // The v2 per-shard index is keyed to the writing store's shard count;
  // reopening at a different count re-shards eagerly (documented cost).
  auto store = Open(3).value();
  EXPECT_EQ(store->pending_snapshot_entries(), 0u);
  EXPECT_EQ(store->size(), 3u);
  EXPECT_TRUE(store->Contains(1));
  EXPECT_TRUE(store->Contains(2));
  EXPECT_TRUE(store->Contains(3));
}

TEST_F(LogStoreTest, RecoveredStoreMatchesInMemoryTwin) {
  // The same uploads flow into a log-backed provider and an in-memory
  // twin; after a kill/reopen the recovered store must serve the
  // identical alert outcome.
  alert::ServiceProvider::Options sp_options;
  sp_options.num_shards = 2;
  sp_options.num_threads = 2;

  auto twin = std::make_unique<alert::ServiceProvider>(
      group_, ta_->marker(), MakeStore(2), sp_options);

  std::vector<std::pair<int, int>> placements = {
      {1, 2}, {2, 3}, {3, 5}, {4, 2}, {5, 11}, {6, 2}};
  {
    alert::ServiceProvider durable(group_, ta_->marker(), Open().value(),
                                   sp_options);
    ASSERT_TRUE(durable.config_status().ok());
    for (const auto& [user, cell] : placements) {
      const std::vector<uint8_t> blob = BlobFor(cell);
      ASSERT_TRUE(durable.SubmitLocation(user, blob).ok());
      ASSERT_TRUE(twin->SubmitLocation(user, blob).ok());
    }
    // `durable` destructs here: process-death stand-in (fds closed, no
    // compaction, recovery comes purely from the log).
  }

  alert::ServiceProvider recovered(group_, ta_->marker(), Open().value(),
                                   sp_options);
  ASSERT_TRUE(recovered.config_status().ok());
  EXPECT_EQ(recovered.num_users(), placements.size());

  const std::vector<std::vector<uint8_t>> tokens =
      ta_->IssueAlert({2, 3}).value();
  const auto expected = twin->ProcessAlert(tokens).value();
  const auto actual = recovered.ProcessAlert(tokens).value();
  EXPECT_EQ(actual.notified_users, expected.notified_users);
  EXPECT_EQ(actual.stats.matches, expected.stats.matches);
  EXPECT_EQ(actual.stats.pairings, expected.stats.pairings);
  ASSERT_FALSE(expected.notified_users.empty());
}

TEST_F(LogStoreTest, MmapRecoveredStoreMatchesTwinAcrossShards) {
  // Multi-shard shape through the v2 snapshot: compact mid-stream so
  // recovery mixes lazily-mapped snapshot shards with log replay, then
  // demand the recovered provider serve the identical alert outcome to
  // an in-memory twin. The first ProcessAlert scan is also what
  // materializes the shards.
  alert::ServiceProvider::Options sp_options;
  sp_options.num_shards = 4;
  sp_options.num_threads = 2;

  auto twin = std::make_unique<alert::ServiceProvider>(
      group_, ta_->marker(), MakeStore(4), sp_options);

  const std::vector<std::pair<int, int>> before = {
      {1, 2}, {2, 3}, {3, 5}, {4, 2}, {5, 11}, {6, 2}, {7, 13}, {8, 3}};
  const std::vector<std::pair<int, int>> after = {{9, 2}, {2, 7}, {10, 3}};
  {
    auto store = Open(4).value();
    LogBackedStore* raw = store.get();
    alert::ServiceProvider durable(group_, ta_->marker(), std::move(store),
                                   sp_options);
    ASSERT_TRUE(durable.config_status().ok());
    for (const auto& [user, cell] : before) {
      const std::vector<uint8_t> blob = BlobFor(cell);
      ASSERT_TRUE(durable.SubmitLocation(user, blob).ok());
      ASSERT_TRUE(twin->SubmitLocation(user, blob).ok());
    }
    ASSERT_TRUE(raw->Compact().ok());
    for (const auto& [user, cell] : after) {
      const std::vector<uint8_t> blob = BlobFor(cell);
      ASSERT_TRUE(durable.SubmitLocation(user, blob).ok());
      ASSERT_TRUE(twin->SubmitLocation(user, blob).ok());
    }
    ASSERT_TRUE(durable.RemoveUser(6));
    ASSERT_TRUE(twin->RemoveUser(6));
  }

  auto recovered_store = Open(4).value();
  EXPECT_GT(recovered_store->pending_snapshot_entries(), 0u);
  alert::ServiceProvider recovered(group_, ta_->marker(),
                                   std::move(recovered_store), sp_options);
  ASSERT_TRUE(recovered.config_status().ok());
  EXPECT_EQ(recovered.num_users(), twin->num_users());

  const std::vector<std::vector<uint8_t>> tokens =
      ta_->IssueAlert({2, 3}).value();
  const auto expected = twin->ProcessAlert(tokens).value();
  const auto actual = recovered.ProcessAlert(tokens).value();
  EXPECT_EQ(actual.notified_users, expected.notified_users);
  EXPECT_EQ(actual.stats.matches, expected.stats.matches);
  EXPECT_EQ(actual.stats.pairings, expected.stats.pairings);
  ASSERT_FALSE(expected.notified_users.empty());
}

// ---------------------------------------------------------------------------
// Group commit: the ack-ordering contract is that a durability
// notification NEVER fires before the fsync covering its ticket has
// completed, and that the durable horizon it reports includes the
// ticket.

TEST_F(LogStoreTest, GroupCommitAckNeverPrecedesCoveringFsync) {
  LogBackedStore::Options options;
  options.num_shards = 2;
  options.compact_log_bytes = 0;
  // A huge batch and a 10-second window: no sync can happen on its
  // own within this test, so any early notification is a real
  // ordering violation, not a lucky race.
  options.fsync_batch_max = 1u << 20;
  options.fsync_interval_us = 10'000'000;
  auto store = LogBackedStore::Open(dir_, group_, options).value();

  store->Put(1, CtFor(3));
  const uint64_t ticket = store->CurrentTicket();
  ASSERT_GE(ticket, 1u);

  std::atomic<bool> fired{false};
  std::atomic<uint64_t> durable_at_fire{0};
  std::atomic<bool> status_ok{false};
  store->NotifyDurable(ticket, [&](Status st) {
    durable_at_fire.store(store->durable_ticket());
    status_ok.store(st.ok());
    fired.store(true);
  });

  // The window is far from expiring and the batch far from full: the
  // notification must still be pending.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(fired.load());
  EXPECT_LT(store->durable_ticket(), ticket);

  // Force the window closed; the callback must have observed a
  // durable horizon at or past its ticket — i.e. the fsync strictly
  // preceded the ack.
  ASSERT_TRUE(store->WaitDurable(ticket).ok());
  EXPECT_TRUE(fired.load());
  EXPECT_TRUE(status_ok.load());
  EXPECT_GE(durable_at_fire.load(), ticket);
}

TEST_F(LogStoreTest, GroupCommitWindowExpiryAdvancesWithoutWaiters) {
  // No WaitDurable nudge (NotifyDurable does not close a window): the
  // sync thread alone must make the puts durable. With a huge batch
  // only the interval can close the window; with a window of one
  // record (the --durability=fsync preset) the sync must come at once,
  // long before its 10 s interval.
  struct Case {
    const char* name;
    size_t batch;
    uint64_t interval_us;
    std::chrono::seconds bound;
  };
  for (const Case& c : {Case{"timer", 1u << 20, 1000, std::chrono::seconds(10)},
                        Case{"window-of-one", 1, 10'000'000,
                             std::chrono::seconds(2)}}) {
    SCOPED_TRACE(c.name);
    LogBackedStore::Options options;
    options.num_shards = 2;
    options.compact_log_bytes = 0;
    options.fsync_batch_max = c.batch;
    options.fsync_interval_us = c.interval_us;
    auto store =
        LogBackedStore::Open(dir_ + "/" + c.name, group_, options).value();

    store->Put(1, CtFor(3));
    store->Put(2, CtFor(5));
    const uint64_t ticket = store->CurrentTicket();
    std::atomic<bool> fired{false};
    std::atomic<bool> fired_ok{false};
    store->NotifyDurable(ticket, [&](Status st) {
      fired_ok.store(st.ok());
      fired.store(true);
    });
    const auto deadline = std::chrono::steady_clock::now() + c.bound;
    while ((store->durable_ticket() < ticket || !fired.load()) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(store->durable_ticket(), ticket);
    EXPECT_TRUE(fired.load());
    EXPECT_TRUE(fired_ok.load());
  }
}

TEST_F(LogStoreTest, GroupCommitDrainFlushesEveryNotification) {
  LogBackedStore::Options options;
  options.num_shards = 2;
  options.compact_log_bytes = 0;
  options.fsync_batch_max = 1u << 20;
  options.fsync_interval_us = 10'000'000;
  auto store = LogBackedStore::Open(dir_, group_, options).value();

  std::atomic<int> fired{0};
  for (int i = 1; i <= 8; ++i) {
    store->Put(i, CtFor(i % 16));
    store->NotifyDurable(store->CurrentTicket(), [&](Status st) {
      EXPECT_TRUE(st.ok());
      fired.fetch_add(1);
    });
  }
  EXPECT_LT(fired.load(), 8);  // the 10 s window cannot have closed
  store->DrainNotifications();
  EXPECT_EQ(fired.load(), 8);

  // An already-durable ticket notifies synchronously.
  bool immediate = false;
  store->NotifyDurable(store->durable_ticket(),
                       [&](Status) { immediate = true; });
  EXPECT_TRUE(immediate);
}

TEST_F(LogStoreTest, NotificationsAreSynchronousWithoutGroupCommit) {
  auto store = Open().value();
  store->Put(1, CtFor(3));
  bool fired = false;
  store->NotifyDurable(store->CurrentTicket(), [&](Status st) {
    EXPECT_TRUE(st.ok());
    fired = true;
  });
  EXPECT_TRUE(fired);
}

// ---------------------------------------------------------------------------
// Incremental compaction: a crash between any two of its on-disk steps
// (rotate, per-shard serialize, snapshot write, manifest finalize) must
// leave a state that recovers to exactly the pre-compaction contents —
// the manifest stitches partial compactions into a consistent prefix.

TEST_F(LogStoreTest, CompactionCrashPointsRecoverEveryWrite) {
  for (const char* checkpoint :
       {"rotated", "serialized", "snapshot-written"}) {
    SCOPED_TRACE(checkpoint);
    const std::string dir = dir_ + "/cp-" + checkpoint;
    LogBackedStore::Options options;
    options.num_shards = 2;
    options.compact_log_bytes = 0;
    std::map<int, std::vector<uint8_t>> expected;
    auto put = [&](LogBackedStore& store, int user, int cell) {
      const std::vector<uint8_t> blob = BlobFor(cell);
      store.Put(user, hve::ParseCiphertext(*group_, blob).value());
      expected[user] = blob;
    };
    {
      auto store = LogBackedStore::Open(dir, group_, options).value();
      put(*store, 1, 3);
      put(*store, 2, 5);
      ASSERT_TRUE(store->Compact().ok());  // clean baseline snapshot
      put(*store, 1, 7);                   // replacement post-snapshot
      put(*store, 3, 2);
      store->TestSetCompactionFault([&](const char* point) {
        return std::string(point) == checkpoint
                   ? Status::Internal("injected crash")
                   : Status::Ok();
      });
      EXPECT_FALSE(store->Compact().ok());
      store->TestSetCompactionFault(nullptr);
      // The store must still take writes after an aborted compaction.
      put(*store, 4, 9);
      EXPECT_TRUE(store->io_status().ok());
    }
    {
      // Recovery over the stitched manifest: every blob verifies, and
      // every write — including the replacement and the post-abort one
      // — is byte-identical.
      auto store = LogBackedStore::Open(dir, group_, options).value();
      ASSERT_TRUE(store->LoadAllShards().ok());
      EXPECT_EQ(CollectAll(*store, *group_), expected);
      // And a clean compaction from the stitched state still works.
      ASSERT_TRUE(store->Compact().ok());
    }
    {
      auto store = LogBackedStore::Open(dir, group_, options).value();
      EXPECT_EQ(CollectAll(*store, *group_), expected);
    }
  }
}

TEST_F(LogStoreTest, CompactionNeverHoldsMoreThanOneShardLock) {
  LogBackedStore::Options options;
  options.num_shards = 4;
  options.compact_log_bytes = 0;
  auto store = LogBackedStore::Open(dir_, group_, options).value();
  for (int u = 1; u <= 16; ++u) store->Put(u, CtFor(u % 16));

  // Concurrent writers across all shards while compaction sweeps: the
  // sweep takes shard locks one at a time, so ingest on other shards
  // proceeds and the high-water mark stays at exactly one.
  std::atomic<bool> stop{false};
  std::vector<hve::Ciphertext> cts;
  for (int c = 0; c < 4; ++c) cts.push_back(CtFor(c));
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      int u = 1 + t;
      while (!stop.load()) {
        store->Put(u, cts[size_t(u % 4)]);
        u = (u + 2 - 1) % 16 + 1;
      }
    });
  }
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(store->Compact().ok());
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();

  EXPECT_EQ(store->compaction_max_shard_locks(), 1u);
  EXPECT_TRUE(store->io_status().ok());
}

// ---------------------------------------------------------------------------
// Eager load: Open() then LoadAllShards() materializes every shard of
// an mmap snapshot up front, and the contents equal what was written.

TEST_F(LogStoreTest, EagerSnapshotLoadMatchesWrittenState) {
  std::map<int, std::vector<uint8_t>> expected;
  {
    auto store = Open(4).value();
    for (int u = 1; u <= 24; ++u) {
      const std::vector<uint8_t> blob = BlobFor(u % 16);
      store->Put(u, hve::ParseCiphertext(*group_, blob).value());
      expected[u] = blob;
    }
    ASSERT_TRUE(store->Compact().ok());  // mmap snapshot on disk
  }
  auto eager = Open(4).value();
  ASSERT_TRUE(eager->LoadAllShards().ok());
  EXPECT_EQ(eager->pending_snapshot_entries(), 0u);
  EXPECT_EQ(CollectAll(*eager, *group_), expected);
}

}  // namespace
}  // namespace api
}  // namespace sloc
