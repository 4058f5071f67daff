// The CiphertextStore contract (api/store.h), checked on every backend:
// ShardedStore with one and with four shards, and a four-shard
// LogBackedStore. Every method is thread-safe, and VisitShard runs its
// visitor over a copy taken under the shard's mutex, so a visitor may
// write to the shard it is visiting and keeps reading the ciphertexts
// it was handed after they are replaced or erased.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/log_store.h"
#include "api/store.h"
#include "common/rng.h"
#include "hve/hve.h"
#include "hve/serialize.h"
#include "pairing/group.h"

namespace sloc {
namespace api {
namespace {

struct ShardedOne {
  static std::unique_ptr<CiphertextStore> Make(
      std::shared_ptr<const PairingGroup>, const std::string&) {
    return std::make_unique<ShardedStore>(1);
  }
};

struct ShardedFour {
  static std::unique_ptr<CiphertextStore> Make(
      std::shared_ptr<const PairingGroup>, const std::string&) {
    return std::make_unique<ShardedStore>(4);
  }
};

struct LogBackedFour {
  static std::unique_ptr<CiphertextStore> Make(
      std::shared_ptr<const PairingGroup> group, const std::string& dir) {
    LogBackedStore::Options options;
    options.num_shards = 4;
    options.compact_log_bytes = 0;
    return LogBackedStore::Open(dir, std::move(group), options).value();
  }
};

template <typename Backend>
class StoreContractTest : public ::testing::Test {
 protected:
  static constexpr int kCiphertexts = 8;

  static void SetUpTestSuite() {
    PairingParamSpec spec;
    spec.p_prime_bits = 32;
    spec.q_prime_bits = 32;
    spec.seed = 77;
    group_ = new std::shared_ptr<const PairingGroup>(
        std::make_shared<const PairingGroup>(
            PairingGroup::Generate(spec).value()));
    auto rng = std::make_shared<Rng>(11);
    RandFn rand = [rng]() { return rng->NextU64(); };
    const PairingGroup& group = **group_;
    hve::KeyPair kp = hve::Setup(group, 4, rand).value();
    cts_ = new std::vector<hve::Ciphertext>;
    for (int i = 0; i < kCiphertexts; ++i) {
      std::string index;
      for (int bit = 0; bit < 4; ++bit) index += ((i >> bit) & 1) ? '1' : '0';
      cts_->push_back(
          hve::Encrypt(group, kp.pk, index, group.GtOne(), rand).value());
    }
  }
  static void TearDownTestSuite() {
    delete cts_;
    cts_ = nullptr;
    delete group_;
    group_ = nullptr;
  }

  void SetUp() override {
    std::string tmpl = testing::TempDir() + "/store_contract_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
    store_ = Backend::Make(*group_, dir_);
  }
  void TearDown() override {
    store_.reset();
    std::filesystem::remove_all(dir_);
  }

  static const hve::Ciphertext& Ct(int i) { return (*cts_)[size_t(i)]; }
  static std::vector<uint8_t> Bytes(const hve::Ciphertext& ct) {
    return hve::SerializeCiphertext(**group_, ct);
  }

  /// Every stored user's serialized ciphertext, read through VisitShard;
  /// also checks each user is visited in the shard it maps to.
  std::map<int, std::vector<uint8_t>> Contents() {
    std::map<int, std::vector<uint8_t>> out;
    for (size_t s = 0; s < store_->num_shards(); ++s) {
      store_->VisitShard(s, [&](int user_id, const CtPtr& ct) {
        EXPECT_EQ(store_->ShardOf(user_id), s) << "user " << user_id;
        EXPECT_TRUE(out.emplace(user_id, Bytes(*ct)).second)
            << "user " << user_id << " visited twice";
      });
    }
    return out;
  }

  /// A user id >= `from` that maps to shard `shard`.
  int UserInShard(size_t shard, int from) {
    int user = from;
    while (store_->ShardOf(user) != shard) ++user;
    return user;
  }

  static std::shared_ptr<const PairingGroup>* group_;
  static std::vector<hve::Ciphertext>* cts_;
  std::string dir_;
  std::unique_ptr<CiphertextStore> store_;
};

template <typename Backend>
std::shared_ptr<const PairingGroup>* StoreContractTest<Backend>::group_ =
    nullptr;
template <typename Backend>
std::vector<hve::Ciphertext>* StoreContractTest<Backend>::cts_ = nullptr;

using Backends = ::testing::Types<ShardedOne, ShardedFour, LogBackedFour>;
TYPED_TEST_SUITE(StoreContractTest, Backends);

TYPED_TEST(StoreContractTest, PutReplaceEraseAndVisit) {
  CiphertextStore& store = *this->store_;
  std::map<int, std::vector<uint8_t>> expected;
  for (int user = 0; user < 12; ++user) {
    store.Put(user, this->Ct(user % this->kCiphertexts));
    expected[user] = this->Bytes(this->Ct(user % this->kCiphertexts));
  }
  EXPECT_EQ(store.size(), 12u);
  EXPECT_TRUE(store.Contains(3));
  EXPECT_FALSE(store.Contains(99));

  store.Put(3, this->Ct(7));  // replace: size stays
  expected[3] = this->Bytes(this->Ct(7));
  EXPECT_EQ(store.size(), 12u);

  EXPECT_TRUE(store.Erase(5));
  EXPECT_FALSE(store.Erase(5));
  EXPECT_FALSE(store.Erase(99));
  expected.erase(5);
  EXPECT_EQ(store.size(), 11u);
  EXPECT_FALSE(store.Contains(5));

  EXPECT_EQ(this->Contents(), expected);
}

// A visitor that writes to the shard it is visiting must return (it
// holds no store lock), and it sees the shard as it was when the visit
// began: the users it erases are still visited, the user it puts is
// not.
TYPED_TEST(StoreContractTest, VisitorMayWriteTheShardItVisits) {
  CiphertextStore& store = *this->store_;
  for (int user = 0; user < 16; ++user) store.Put(user, this->Ct(user % 8));
  std::map<int, std::vector<uint8_t>> expected;
  for (size_t s = 0; s < store.num_shards(); ++s) {
    std::set<int> before;
    for (int user = 0; user < 16; ++user) {
      if (store.ShardOf(user) == s) before.insert(user);
    }
    const int fresh = this->UserInShard(s, 1000);
    std::set<int> visited;
    store.VisitShard(s, [&](int user_id, const CtPtr&) {
      visited.insert(user_id);
      EXPECT_TRUE(store.Erase(user_id));
      store.Put(fresh, this->Ct(1));
    });
    EXPECT_EQ(visited, before) << "shard " << s;
    if (!before.empty()) expected[fresh] = this->Bytes(this->Ct(1));
  }
  EXPECT_EQ(this->Contents(), expected);
  EXPECT_EQ(store.size(), expected.size());
}

// The reference a visitor is handed stays valid, with its old contents,
// after the visitor replaces or erases that user.
TYPED_TEST(StoreContractTest, VisitedCiphertextOutlivesItsReplacement) {
  CiphertextStore& store = *this->store_;
  const int replaced = 7;
  const int erased = this->UserInShard(store.ShardOf(replaced), replaced + 1);
  store.Put(replaced, this->Ct(0));
  store.Put(erased, this->Ct(2));
  const std::vector<uint8_t> old_replaced = this->Bytes(this->Ct(0));
  const std::vector<uint8_t> old_erased = this->Bytes(this->Ct(2));
  size_t checked = 0;
  store.VisitShard(store.ShardOf(replaced),
                   [&](int user_id, const CtPtr& ct) {
                     if (user_id == replaced) {
                       store.Put(replaced, this->Ct(1));
                       EXPECT_EQ(this->Bytes(*ct), old_replaced);
                       ++checked;
                     } else if (user_id == erased) {
                       EXPECT_TRUE(store.Erase(erased));
                       EXPECT_EQ(this->Bytes(*ct), old_erased);
                       ++checked;
                     }
                   });
  EXPECT_EQ(checked, 2u);
  const std::map<int, std::vector<uint8_t>> expected = {
      {replaced, this->Bytes(this->Ct(1))}};
  EXPECT_EQ(this->Contents(), expected);
}

// Writers, scanners and readers on every shard at once (the sanitizer
// builds run this for races); the final state is the writers' last
// word for every user.
TYPED_TEST(StoreContractTest, ConcurrentWritersAndScansAgree) {
  CiphertextStore& store = *this->store_;
  constexpr int kWriters = 2;
  constexpr int kUsersPerWriter = 8;
  constexpr int kRounds = 40;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        for (size_t s = 0; s < store.num_shards(); ++s) {
          store.VisitShard(s, [&](int user_id, const CtPtr& ct) {
            EXPECT_EQ(store.ShardOf(user_id), s);
            EXPECT_EQ(ct->c1.size(), 4u);
          });
        }
        (void)store.size();
        (void)store.Contains(0);
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kUsersPerWriter; ++i) {
          const int user = w * kUsersPerWriter + i;
          if ((round + i) % 3 == 0) {
            store.Erase(user);
          } else {
            store.Put(user, this->Ct((round + i) % this->kCiphertexts));
          }
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  for (std::thread& t : readers) t.join();

  std::map<int, std::vector<uint8_t>> expected;
  const int last = kRounds - 1;
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kUsersPerWriter; ++i) {
      if ((last + i) % 3 != 0) {
        expected[w * kUsersPerWriter + i] =
            this->Bytes(this->Ct((last + i) % this->kCiphertexts));
      }
    }
  }
  EXPECT_EQ(this->Contents(), expected);
  EXPECT_EQ(store.size(), expected.size());
}

}  // namespace
}  // namespace api
}  // namespace sloc
