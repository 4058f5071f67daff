// Allocation-regression tests for the numeric hot path.
//
// A global operator new/delete replacement counts every heap
// allocation; the tests warm up the reusable scratch (thread-local
// wNAF digit buffers, QueryScratch slabs, EvalView slots) and then
// assert that the steady state performs ZERO allocations:
//   - Fp::Mul / Fp::Sqr (inline-limb Montgomery elements),
//   - Curve::ScalarMul's wNAF loop (thread-local digit scratch),
//   - one full batched flush round: EvalView refill, precompiled
//     Miller walks, batch final exponentiation, marker comparison —
//     on the scalar walk and on the eight-lane IFMA walk;
//   - a warm alert's token round through ServiceProvider::ProcessAlert,
//     whose workers claim lane groups of eight views from an alive
//     list: nothing per lane group, whether the group walks the lanes
//     or falls back to the scalar walk.
// The HVE blob codec is held to exact counts instead: a warm
// ParseCiphertext allocates only the result's c1/c2 storage, whatever
// the width, and a warm SerializeCiphertext only its output buffer.
// A token-cache lookup, hit or miss, allocates nothing: no blob copy.
// A durable Put of a validated blob allocates the ciphertext's holder
// and one record buffer: nothing is serialized.
// Likewise a warm WAL replay costs each record only its parsed
// ciphertext and that ciphertext's shared holder: blobs parse in place
// from the segment buffer. A store visit costs one vector of
// (user, pointer) pairs, whatever the shard's size: no ciphertext is
// copied.
// Plus LimbVec semantics around the inline/spill boundary: copies,
// moves, self-assignment, swap — the paths a miscounted capacity or a
// stale heap pointer would corrupt.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "alert/protocol.h"
#include "api/log_store.h"
#include "api/store.h"
#include "bigint/limb_vec.h"
#include "common/rng.h"
#include "hve/hve.h"
#include "hve/serialize.h"
#include "hve/token_cache.h"
#include "pairing/group.h"
#include "pairing/miller.h"
#include "pairing/miller_ifma.h"

// The replacement operator new below is malloc-backed, so delete
// forwarding to free() is correct; the compiler cannot see that and
// flags every new/free pairing in the TU.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<size_t> g_alloc_count{0};
}  // namespace

// Counting replacements for the global allocation functions. They
// forward to malloc/free, so sanitizer interceptors still see every
// allocation; the counter is the only addition.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sloc {
namespace {

size_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

/// Snapshot-and-delta helper around the global counter.
class AllocProbe {
 public:
  AllocProbe() : start_(AllocCount()) {}
  size_t delta() const { return AllocCount() - start_; }

 private:
  size_t start_;
};

// ---------------------------------------------------------------------
// LimbVec semantics at the inline/spill boundary.
// ---------------------------------------------------------------------

TEST(LimbVecTest, InlineOperationsDoNotAllocate) {
  AllocProbe probe;
  LimbVec v;
  for (uint64_t i = 0; i < LimbVec::kInlineCapacity; ++i) v.push_back(i);
  EXPECT_FALSE(v.spilled());
  EXPECT_EQ(v.size(), LimbVec::kInlineCapacity);
  LimbVec copy(v);          // inline copy
  LimbVec moved(std::move(copy));
  LimbVec assigned;
  assigned = moved;
  assigned = std::move(moved);
  assigned.resize(3);
  assigned.resize(LimbVec::kInlineCapacity, 7);
  LimbVec other(5, 42);
  assigned.swap(other);
  EXPECT_EQ(probe.delta(), 0u) << "inline LimbVec ops must not allocate";
  EXPECT_EQ(v[3], 3u);
  EXPECT_EQ(other.size(), LimbVec::kInlineCapacity);
}

TEST(LimbVecTest, SpillPreservesValuesAndAllocatesOnce) {
  LimbVec v;
  for (uint64_t i = 0; i < LimbVec::kInlineCapacity; ++i) v.push_back(i);
  AllocProbe probe;
  v.push_back(99);  // crosses the inline boundary
  EXPECT_TRUE(v.spilled());
  EXPECT_GE(probe.delta(), 1u);
  for (uint64_t i = 0; i < LimbVec::kInlineCapacity; ++i) EXPECT_EQ(v[i], i);
  EXPECT_EQ(v.back(), 99u);
}

TEST(LimbVecTest, SpilledCopyIsDeepAndMoveSteals) {
  LimbVec v(LimbVec::kInlineCapacity + 4, 5);
  ASSERT_TRUE(v.spilled());
  LimbVec copy(v);
  EXPECT_NE(copy.data(), v.data());
  EXPECT_EQ(copy, v);
  copy[0] = 6;
  EXPECT_EQ(v[0], 5u);  // deep copy: originals untouched

  const uint64_t* heap = v.data();
  AllocProbe probe;
  LimbVec moved(std::move(v));
  EXPECT_EQ(moved.data(), heap) << "move must steal the heap buffer";
  EXPECT_EQ(probe.delta(), 0u) << "moving a spilled LimbVec must not allocate";
  EXPECT_EQ(moved.size(), LimbVec::kInlineCapacity + 4);
}

TEST(LimbVecTest, SelfAssignAndSelfSwapAreSafe) {
  LimbVec inline_v(4, 11);
  LimbVec spilled(LimbVec::kInlineCapacity + 2, 22);
  LimbVec& ir = inline_v;
  LimbVec& sr = spilled;
  inline_v = ir;
  spilled = sr;
  inline_v = std::move(ir);
  spilled = std::move(sr);
  inline_v.swap(ir);
  spilled.swap(sr);
  EXPECT_EQ(inline_v, LimbVec(4, 11));
  EXPECT_EQ(spilled, LimbVec(LimbVec::kInlineCapacity + 2, 22));
}

TEST(LimbVecTest, ShrinkKeepsSpillCapacity) {
  LimbVec v(LimbVec::kInlineCapacity + 8, 1);
  ASSERT_TRUE(v.spilled());
  const size_t cap = v.capacity();
  AllocProbe probe;
  v.resize(2);
  v.resize(LimbVec::kInlineCapacity + 8, 3);
  EXPECT_EQ(v.capacity(), cap);
  EXPECT_EQ(probe.delta(), 0u)
      << "shrink + regrow within capacity must not allocate";
  EXPECT_EQ(v[2], 3u);
  EXPECT_EQ(v[0], 1u);
}

// ---------------------------------------------------------------------
// Steady-state field / curve / engine operations.
// ---------------------------------------------------------------------

RandFn TestRand(uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed);
  return [rng]() { return rng->NextU64(); };
}

class AllocSteadyStateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PairingParamSpec spec;
    spec.p_prime_bits = 32;
    spec.q_prime_bits = 32;
    spec.seed = 77;
    group_ = new PairingGroup(PairingGroup::Generate(spec).value());
  }
  static void TearDownTestSuite() {
    delete group_;
    group_ = nullptr;
  }
  static PairingGroup* group_;
};

PairingGroup* AllocSteadyStateTest::group_ = nullptr;

TEST_F(AllocSteadyStateTest, FpMulSqrAreAllocFree) {
  const Fp& fp = group_->fp();
  RandFn rand = TestRand(1);
  Fp::Elem a = fp.FromBigInt(BigInt::RandomBelow(fp.p(), rand));
  Fp::Elem b = fp.FromBigInt(BigInt::RandomBelow(fp.p(), rand));
  Fp::Elem out = fp.Zero();
  // Warm-up (any lazily-built thread state).
  fp.Mul(a, b, &out);
  fp.Sqr(a, &out);
  AllocProbe probe;
  for (int i = 0; i < 1000; ++i) {
    fp.Mul(a, b, &out);
    fp.Sqr(out, &out);
    fp.Add(out, b, &out);
    fp.Sub(out, a, &out);
  }
  EXPECT_EQ(probe.delta(), 0u) << "steady-state Fp ops must not allocate";
}

TEST_F(AllocSteadyStateTest, ScalarMulWnafLoopIsAllocFreeAfterWarmup) {
  const Curve& curve = group_->curve();
  RandFn rand = TestRand(2);
  const BigInt k = BigInt::RandomBelow(group_->params().n, rand);
  const AffinePoint p = group_->gen();
  // First call sizes the thread-local digit scratch.
  AffinePoint r = curve.ScalarMul(k, p);
  AllocProbe probe;
  for (int i = 0; i < 10; ++i) r = curve.ScalarMul(k, p);
  EXPECT_EQ(probe.delta(), 0u)
      << "warm ScalarMul wNAF loop must not allocate";
  EXPECT_FALSE(r.infinity);
}

TEST_F(AllocSteadyStateTest, BatchedFlushRoundIsAllocFreeAfterWarmup) {
  constexpr size_t kWidth = 8;
  constexpr size_t kCts = 4;
  RandFn rand = TestRand(3);
  hve::KeyPair kp = hve::Setup(*group_, kWidth, rand).value();
  const Fp2Elem marker = group_->GtPow(
      group_->GtOne(), BigInt(1));  // any fixed G_T element works
  std::vector<hve::Ciphertext> cts;
  for (size_t i = 0; i < kCts; ++i) {
    cts.push_back(
        hve::Encrypt(*group_, kp.pk, i % 2 ? "10110010" : "01001101",
                     marker, rand)
            .value());
  }
  hve::Token token =
      hve::GenToken(*group_, kp.sk, "1*11*0**", rand).value();
  hve::PrecompiledToken compiled = hve::PrecompileToken(*group_, token);
  hve::EvalLayout layout = hve::MakeEvalLayout(kWidth, {&compiled});

  // Per-worker state, exactly as the batched engine keeps it: view
  // slab, miller buffer, one QueryScratch.
  std::vector<hve::EvalView> views(kCts);
  std::vector<Fp2Elem> millers;
  millers.reserve(kCts);
  std::vector<Fp2Elem> expected(kCts, group_->GtOne());
  hve::QueryScratch scratch;

  bool round_ok = true;
  auto round = [&]() {
    millers.clear();
    for (size_t i = 0; i < kCts; ++i) {
      Status st = hve::MakeEvalView(*group_, layout, cts[i], &views[i]);
      if (!st.ok()) {
        round_ok = false;
        return;
      }
      expected[i] = group_->GtMul(cts[i].c_prime, marker);
      Result<Fp2Elem> ratio = hve::QueryMillerPrecompiledView(
          *group_, compiled, layout, views[i], &scratch);
      if (!ratio.ok()) {
        round_ok = false;
        return;
      }
      millers.push_back(std::move(*ratio));
    }
    BatchFinalExponentiation(group_->fp2(), group_->params().cofactor,
                             &millers, &scratch.pairing);
    for (size_t i = 0; i < kCts; ++i) {
      (void)group_->GtEqual(millers[i], expected[i]);
    }
  };

  round();  // warm-up: sizes every scratch slab to its high-water mark
  ASSERT_TRUE(round_ok);
  AllocProbe probe;
  round();
  ASSERT_TRUE(round_ok);
  EXPECT_EQ(probe.delta(), 0u)
      << "warm batched flush round must not allocate";
}

TEST_F(AllocSteadyStateTest, ParseCiphertextAllocatesOnlyTheResult) {
  RandFn rand = TestRand(5);
  for (size_t width : {size_t(4), size_t(16)}) {
    hve::KeyPair kp = hve::Setup(*group_, width, rand).value();
    const std::string index(width, '1');
    const std::vector<uint8_t> blob = hve::SerializeCiphertext(
        *group_,
        hve::Encrypt(*group_, kp.pk, index, group_->GtOne(), rand).value());
    ASSERT_TRUE(hve::ParseCiphertext(*group_, blob).ok());  // warm-up
    size_t allocs = 0;
    {
      AllocProbe probe;
      Result<hve::Ciphertext> ct = hve::ParseCiphertext(*group_, blob);
      allocs = probe.delta();
      ASSERT_TRUE(ct.ok()) << ct.status();
      EXPECT_EQ(ct->c1.size(), width);
    }
    // The c1 and c2 arrays; coordinates decode in place, with no
    // per-coordinate buffer.
    EXPECT_EQ(allocs, 2u) << "width " << width;
  }
}

TEST_F(AllocSteadyStateTest, SerializeCiphertextAllocatesOnlyItsOutput) {
  RandFn rand = TestRand(6);
  for (size_t width : {size_t(4), size_t(16)}) {
    hve::KeyPair kp = hve::Setup(*group_, width, rand).value();
    const hve::Ciphertext ct =
        hve::Encrypt(*group_, kp.pk, std::string(width, '0'),
                     group_->GtOne(), rand)
            .value();
    (void)hve::SerializeCiphertext(*group_, ct);  // warm-up
    size_t allocs = 0;
    size_t size = 0;
    size_t capacity = 0;
    {
      AllocProbe probe;
      std::vector<uint8_t> blob = hve::SerializeCiphertext(*group_, ct);
      allocs = probe.delta();
      size = blob.size();
      capacity = blob.capacity();
    }
    EXPECT_EQ(allocs, 1u) << "width " << width;
    EXPECT_EQ(capacity, size) << "the buffer is reserved at its exact size";
  }
}

// Two logs over the same users, one writing every user once and one
// writing every user twice, differ only by replacing records; a store
// map that already holds the user grows by nothing. So the difference
// of their warm replays is the replacing records' own cost: the parsed
// ciphertext's c1 and c2 arrays and the shared holder the store keeps
// it in, and no copy of the blob.
TEST_F(AllocSteadyStateTest, WarmWalReplayAllocatesOnlyTheParsedCiphertexts) {
  const std::shared_ptr<const PairingGroup> group(
      group_, [](const PairingGroup*) {});  // borrowed from the suite
  RandFn rand = TestRand(7);
  hve::KeyPair kp = hve::Setup(*group_, 8, rand).value();
  const hve::Ciphertext ct =
      hve::Encrypt(*group_, kp.pk, "01101001", group_->GtOne(), rand)
          .value();
  constexpr int kUsers = 24;
  api::LogBackedStore::Options options;
  options.compact_log_bytes = 0;
  auto replay_allocs = [&](int writes_per_user) {
    std::string dir = testing::TempDir() + "/alloc_replay_XXXXXX";
    EXPECT_NE(::mkdtemp(dir.data()), nullptr);
    {
      auto store = api::LogBackedStore::Open(dir, group, options).value();
      for (int w = 0; w < writes_per_user; ++w) {
        for (int user = 0; user < kUsers; ++user) store->Put(user, ct);
      }
      EXPECT_TRUE(store->io_status().ok());
    }
    // Warm-up.
    EXPECT_TRUE(api::LogBackedStore::Open(dir, group, options).ok());
    size_t allocs = 0;
    {
      AllocProbe probe;
      auto store = api::LogBackedStore::Open(dir, group, options);
      allocs = probe.delta();
      EXPECT_TRUE(store.ok()) << store.status();
      EXPECT_EQ((*store)->size(), size_t(kUsers));
    }
    std::filesystem::remove_all(dir);
    return allocs;
  };
  const size_t once = replay_allocs(1);
  const size_t twice = replay_allocs(2);
  EXPECT_EQ(twice - once, size_t(3 * kUsers))
      << "replay once: " << once << ", twice: " << twice;
}

TEST_F(AllocSteadyStateTest, VisitShardAllocatesOnlyThePointerCopy) {
  const std::shared_ptr<const PairingGroup> group(
      group_, [](const PairingGroup*) {});  // borrowed from the suite
  RandFn rand = TestRand(8);
  hve::KeyPair kp = hve::Setup(*group_, 16, rand).value();
  const hve::Ciphertext ct =
      hve::Encrypt(*group_, kp.pk, std::string(16, '1'), group_->GtOne(),
                   rand)
          .value();
  std::string dir = testing::TempDir() + "/alloc_visit_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  api::LogBackedStore::Options options;
  options.compact_log_bytes = 0;
  std::vector<std::unique_ptr<api::CiphertextStore>> stores;
  stores.push_back(std::make_unique<api::ShardedStore>(1));
  stores.push_back(api::LogBackedStore::Open(dir, group, options).value());
  for (auto& store : stores) {
    int next_user = 0;
    for (size_t entries : {size_t(16), size_t(64)}) {
      while (store->size() < entries) store->Put(next_user++, ct);
      size_t visited = 0;
      const auto count = [&visited](int, const api::CtPtr&) {
        ++visited;
      };
      store->VisitShard(0, count);  // warm-up
      size_t allocs = 0;
      {
        AllocProbe probe;
        store->VisitShard(0, count);
        allocs = probe.delta();
      }
      EXPECT_EQ(visited, 2 * entries) << store->name();
      EXPECT_EQ(allocs, 1u) << store->name() << ", " << entries << " entries";
    }
  }
  stores.clear();
  std::filesystem::remove_all(dir);
}

// A durable Put of a validated blob logs those bytes as they are: it
// allocates the ciphertext's shared holder and one exact-size record
// buffer, and no serialize buffer. The Put without a blob serializes
// the ciphertext once, which is one buffer more.
TEST_F(AllocSteadyStateTest, DurableBlobPutAllocatesOnlyHolderAndRecord) {
  const std::shared_ptr<const PairingGroup> group(
      group_, [](const PairingGroup*) {});  // borrowed from the suite
  RandFn rand = TestRand(9);
  hve::KeyPair kp = hve::Setup(*group_, 16, rand).value();
  const hve::Ciphertext ct =
      hve::Encrypt(*group_, kp.pk, std::string(16, '0'), group_->GtOne(),
                   rand)
          .value();
  const std::vector<uint8_t> blob = hve::SerializeCiphertext(*group_, ct);
  const wire::ByteView view{blob.data(), blob.size()};
  std::string dir = testing::TempDir() + "/alloc_put_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  api::LogBackedStore::Options options;
  options.compact_log_bytes = 0;
  // No group commit: the sync thread would count its own allocations.
  auto store = api::LogBackedStore::Open(dir, group, options).value();
  store->Put(1, ct, view);  // warm-up: user 1's map entry exists from now
  auto put_allocs = [&](bool with_blob) {
    hve::Ciphertext copy = ct;
    size_t allocs = 0;
    {
      AllocProbe probe;
      if (with_blob) {
        store->Put(1, std::move(copy), view);
      } else {
        store->Put(1, std::move(copy));
      }
      allocs = probe.delta();
    }
    EXPECT_TRUE(store->io_status().ok());
    return allocs;
  };
  EXPECT_EQ(put_allocs(true), 2u);
  EXPECT_EQ(put_allocs(false), 3u);
  store.reset();
  std::filesystem::remove_all(dir);
}

// A token-cache lookup copies no blob: entries are found by the blob's
// hash and compared in place. Get, hit or miss, allocates nothing, nor
// does re-offering a cached blob; only admitting a new blob copies it
// (once, into its entry).
TEST(AllocTokenCacheTest, LookupCopiesNoBlob) {
  hve::TokenTableCache cache(4);
  auto table = std::make_shared<const hve::PrecompiledToken>();
  std::vector<uint8_t> blob(4096), other(4096);
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = uint8_t(i * 7 + 1);
    other[i] = uint8_t(i * 5 + 3);
  }
  cache.Put(blob, table);  // first sighting
  cache.Put(blob, table);  // second: admitted
  ASSERT_EQ(cache.size(), 1u);
  ASSERT_EQ(cache.Get(blob), table);  // warm
  {
    AllocProbe probe;
    EXPECT_EQ(cache.Get(blob), table);
    EXPECT_EQ(cache.Get(other), nullptr);
    cache.Put(blob, table);
    EXPECT_EQ(probe.delta(), 0u) << "a token-cache lookup must not allocate";
  }
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(AllocIfmaTest, WarmLaneFlushRoundIsAllocFree) {
  if (!miller_ifma::Available()) GTEST_SKIP() << "no AVX-512 IFMA walk";
  PairingParamSpec spec;
  spec.p_prime_bits = 100;  // a 4-limb field: the lane walk's width
  spec.q_prime_bits = 100;
  spec.seed = 78;
  PairingGroup group = PairingGroup::Generate(spec).value();
  ASSERT_EQ(group.miller_plan().walk(), MillerWalk::kIfma8);
  constexpr size_t kWidth = 6;
  constexpr size_t kCts = 11;  // one full lane group plus a padded one
  RandFn rand = TestRand(4);
  hve::KeyPair kp = hve::Setup(group, kWidth, rand).value();
  const Fp2Elem marker = group.GtOne();
  std::vector<hve::Ciphertext> cts;
  for (size_t i = 0; i < kCts; ++i) {
    cts.push_back(hve::Encrypt(group, kp.pk, i % 2 ? "101100" : "010011",
                               marker, rand)
                      .value());
  }
  hve::Token token = hve::GenToken(group, kp.sk, "1*11*0", rand).value();
  hve::PrecompiledToken compiled = hve::PrecompileToken(group, token);
  hve::EvalLayout layout = hve::MakeEvalLayout(kWidth, {&compiled});

  // The batched engine's per-worker state: view slab, pointer list,
  // miller buffer, one QueryScratch.
  std::vector<hve::EvalView> views(kCts);
  std::vector<const hve::EvalView*> alive;
  alive.reserve(kCts);
  std::vector<Fp2Elem> millers;
  millers.reserve(kCts);
  std::vector<Fp2Elem> expected(kCts, group.GtOne());
  hve::QueryScratch scratch;

  bool round_ok = true;
  auto round = [&]() {
    alive.clear();
    for (size_t i = 0; i < kCts; ++i) {
      if (!hve::MakeEvalView(group, layout, cts[i], &views[i]).ok()) {
        round_ok = false;
        return;
      }
      expected[i] = group.GtMul(cts[i].c_prime, marker);
      alive.push_back(&views[i]);
    }
    if (!hve::QueryMillerPrecompiledViews(group, compiled, layout, alive,
                                          &millers, &scratch)
             .ok()) {
      round_ok = false;
      return;
    }
    BatchFinalExponentiation(group.fp2(), group.params().cofactor, &millers,
                             &scratch.pairing);
    for (size_t i = 0; i < kCts; ++i) {
      (void)group.GtEqual(millers[i], expected[i]);
    }
  };

  round();  // warm-up: sizes every scratch slab to its high-water mark
  ASSERT_TRUE(round_ok);
  AllocProbe probe;
  round();
  ASSERT_TRUE(round_ok);
  EXPECT_EQ(probe.delta(), 0u) << "warm IFMA flush round must not allocate";
}

// Drives the real engine: a warm ProcessAlert of a two-token bundle
// costs the same allocations over the one-token bundle however many
// lane groups each worker walks, so a token round allocates nothing per
// lane group. Each worker walks exactly n groups a round (the store
// holds n * 8 residents per worker, and a worker claims at most its
// even share), so every round-two buffer was sized in round one.
TEST(AllocIfmaTest, WarmTeamRoundAllocatesNothingPerLaneGroup) {
  if (!miller_ifma::Available()) GTEST_SKIP() << "no AVX-512 IFMA walk";
  PairingParamSpec spec;
  spec.p_prime_bits = 100;
  spec.q_prime_bits = 100;
  spec.seed = 79;
  auto group = std::make_shared<const PairingGroup>(
      PairingGroup::Generate(spec).value());
  ASSERT_EQ(group->miller_plan().walk(), MillerWalk::kIfma8);
  constexpr size_t kWidth = 6;
  constexpr size_t kMaxGroupsPerWorker = 4;
  constexpr size_t kMaxWorkers = 2;
  RandFn rand = TestRand(9);
  hve::KeyPair kp = hve::Setup(*group, kWidth, rand).value();
  const Fp2Elem marker = group->RandomGt(rand);
  // No resident matches "1*11*0", so both rounds walk every view.
  std::vector<hve::Ciphertext> cts;
  for (size_t i = 0; i < kMaxGroupsPerWorker * kMaxWorkers * kMillerLanes;
       ++i) {
    cts.push_back(
        hve::Encrypt(*group, kp.pk, i % 3 ? "010011" : "000111", marker, rand)
            .value());
  }
  std::vector<uint8_t> first_blob = hve::SerializeToken(
      *group, hve::GenToken(*group, kp.sk, "1*11*0", rand).value());
  std::vector<uint8_t> second_blob = hve::SerializeToken(
      *group, hve::GenToken(*group, kp.sk, "1*11*0", rand).value());
  const std::vector<std::vector<uint8_t>> one_token = {first_blob};
  const std::vector<std::vector<uint8_t>> two_tokens = {first_blob,
                                                        second_blob};

  // One worker also walks a lane group holding an identity point,
  // which falls back to the scalar walk; with two, which worker claims
  // that group would vary from round to round.
  for (unsigned threads : {1u, unsigned(kMaxWorkers)}) {
    std::vector<size_t> round_allocs;
    for (size_t per_worker : {size_t(1), size_t(2), kMaxGroupsPerWorker}) {
      const size_t residents = per_worker * threads * kMillerLanes;
      alert::ServiceProvider::Options options;
      options.num_shards = 2;
      options.num_threads = threads;
      std::unique_ptr<api::CiphertextStore> store = api::MakeStore(2);
      for (size_t i = 0; i < residents; ++i) {
        hve::Ciphertext ct = cts[i];
        if (threads == 1 && i == 3) ct.c0 = group->curve().Infinity();
        store->Put(int(i), std::move(ct));
      }
      alert::ServiceProvider sp(group, marker, std::move(store), options);
      // Two sightings admit both tables to the LRU; the rest warms up.
      for (int warm = 0; warm < 3; ++warm) {
        ASSERT_TRUE(sp.ProcessAlert(two_tokens).ok());
      }
      ASSERT_TRUE(sp.ProcessAlert(one_token).ok());
      AllocProbe one_probe;
      auto one = sp.ProcessAlert(one_token);
      const size_t one_allocs = one_probe.delta();
      AllocProbe two_probe;
      auto two = sp.ProcessAlert(two_tokens);
      const size_t two_allocs = two_probe.delta();
      ASSERT_TRUE(one.ok() && two.ok());
      ASSERT_EQ(two->stats.token_cache_hits, 2u);
      ASSERT_EQ(two->stats.matches, 0u);
      ASSERT_EQ(two->stats.queries, 2 * residents);
      ASSERT_GE(two_allocs, one_allocs);
      round_allocs.push_back(two_allocs - one_allocs);
    }
    for (size_t i = 1; i < round_allocs.size(); ++i) {
      EXPECT_EQ(round_allocs[i], round_allocs[0])
          << threads << " workers: the second token round's allocations "
          << "grow with the lane groups each worker walks";
    }
  }
}

}  // namespace
}  // namespace sloc
