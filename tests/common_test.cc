// Tests for the common kernel: Status/Result, RNG, bit strings, tables,
// the worker-pool helper, and the wire primitives.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <csignal>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/bitstring.h"
#include "common/parallel.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"
#include "common/wire.h"

#if defined(__SANITIZE_THREAD__)
// ForkedChildRunsWorkers starts pool threads in a child forked from a
// threaded parent. TSan refuses that by default; the child's checks
// then cover only its own threads, which is all the test asks.
extern "C" const char* __tsan_default_options() { return "die_after_fork=0"; }
#endif

namespace sloc {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::DataLoss("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(Status::PermissionDenied("x").code(),
            StatusCode::kPermissionDenied);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Doubler(Result<int> in) {
  SLOC_ASSIGN_OR_RETURN(int v, in);
  return 2 * v;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_FALSE(Doubler(Status::Internal("boom")).ok());
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBelow(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(17);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(SecureRandomTest, ProducesVaryingOutput) {
  SecureRandom sr;
  uint64_t a = sr.NextU64();
  uint64_t b = sr.NextU64();
  uint64_t c = sr.NextU64();
  EXPECT_FALSE(a == b && b == c);
}

// ---------- bitstring ----------

TEST(BitStringTest, IsBinaryString) {
  EXPECT_TRUE(IsBinaryString("0101"));
  EXPECT_FALSE(IsBinaryString(""));
  EXPECT_FALSE(IsBinaryString("01*1"));
  EXPECT_FALSE(IsBinaryString("012"));
}

TEST(BitStringTest, IsPatternString) {
  EXPECT_TRUE(IsPatternString("01*1"));
  EXPECT_TRUE(IsPatternString("***"));
  EXPECT_FALSE(IsPatternString(""));
  EXPECT_FALSE(IsPatternString("01x"));
}

TEST(BitStringTest, NonStarCount) {
  EXPECT_EQ(NonStarCount("***"), 0u);
  EXPECT_EQ(NonStarCount("0*1"), 2u);
  EXPECT_EQ(NonStarCount("0011"), 4u);
}

TEST(BitStringTest, PatternMatchesPaperExample) {
  // Fig. 1: token *00 matches user B (000) but not user A (110).
  EXPECT_TRUE(PatternMatches("*00", "000"));
  EXPECT_FALSE(PatternMatches("*00", "110"));
  EXPECT_TRUE(PatternMatches("*00", "100"));
}

TEST(BitStringTest, PatternMatchRequiresEqualLength) {
  EXPECT_FALSE(PatternMatches("*00", "0000"));
  EXPECT_FALSE(PatternMatches("*000", "000"));
}

TEST(BitStringTest, AllStarsMatchesEverything) {
  EXPECT_TRUE(PatternMatches("****", "0000"));
  EXPECT_TRUE(PatternMatches("****", "1111"));
  EXPECT_TRUE(PatternMatches("****", "0110"));
}

TEST(BitStringTest, PrefixChecks) {
  EXPECT_TRUE(IsPrefixOf("00", "001"));
  EXPECT_TRUE(IsPrefixOf("001", "001"));
  EXPECT_FALSE(IsPrefixOf("01", "001"));
  EXPECT_FALSE(IsPrefixOf("0011", "001"));
}

TEST(BitStringTest, PadRight) {
  EXPECT_EQ(PadRight("10", 3, '0'), "100");
  EXPECT_EQ(PadRight("10", 4, '*'), "10**");
  EXPECT_EQ(PadRight("101", 3, '0'), "101");
}

TEST(BitStringTest, CommonPrefix) {
  EXPECT_EQ(CommonPrefix({"10*", "11*"}), "1");
  EXPECT_EQ(CommonPrefix({"000", "001"}), "00");
  EXPECT_EQ(CommonPrefix({"01", "10"}), "");
  EXPECT_EQ(CommonPrefix({"0110"}), "0110");
  EXPECT_EQ(CommonPrefix({}), "");
}

TEST(BitStringTest, BinaryToUintRoundTrip) {
  EXPECT_EQ(*BinaryToUint("0"), 0u);
  EXPECT_EQ(*BinaryToUint("101"), 5u);
  EXPECT_EQ(*BinaryToUint("11111111"), 255u);
  EXPECT_EQ(*UintToBinary(5, 3), "101");
  EXPECT_EQ(*UintToBinary(5, 6), "000101");
  for (uint64_t v = 0; v < 64; ++v) {
    EXPECT_EQ(*BinaryToUint(*UintToBinary(v, 6)), v);
  }
}

TEST(BitStringTest, BinaryToUintErrors) {
  EXPECT_FALSE(BinaryToUint("01*").ok());
  EXPECT_FALSE(BinaryToUint(std::string(65, '1')).ok());
  EXPECT_FALSE(UintToBinary(8, 3).ok());  // does not fit
  EXPECT_FALSE(UintToBinary(1, 0).ok());
}

TEST(BitStringTest, GrayCodeBijectiveAndAdjacent) {
  std::set<uint64_t> seen;
  uint64_t prev_gray = 0;
  for (uint64_t v = 0; v < 256; ++v) {
    uint64_t g = BinaryToGray(v);
    EXPECT_EQ(GrayToBinary(g), v);
    seen.insert(g);
    if (v > 0) {
      // Successive Gray codes differ in exactly one bit.
      EXPECT_EQ(__builtin_popcountll(g ^ prev_gray), 1);
    }
    prev_gray = g;
  }
  EXPECT_EQ(seen.size(), 256u);
}

TEST(BitStringTest, HammingDistance) {
  EXPECT_EQ(*HammingDistance("0000", "0000"), 0u);
  EXPECT_EQ(*HammingDistance("0000", "1111"), 4u);
  EXPECT_EQ(*HammingDistance("0101", "0110"), 2u);
  EXPECT_FALSE(HammingDistance("00", "000").ok());
}

TEST(BitStringTest, ExpandPattern) {
  auto e = ExpandPattern("0*1*");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*e, (std::vector<std::string>{"0010", "0011", "0110", "0111"}));
  auto single = ExpandPattern("011");
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(*single, std::vector<std::string>{"011"});
  EXPECT_FALSE(ExpandPattern(std::string(25, '*')).ok());
}

// ---------- RunWorkers ----------

TEST(RunWorkersTest, AllWorkersRun) {
  std::atomic<size_t> ran{0};
  RunWorkers(4, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4u);
}

TEST(RunWorkersTest, WorkerExceptionRethrownAfterAllJoin) {
  // A throw on a pool thread must not cross the thread boundary (that
  // would std::terminate the process): it lands on the calling thread,
  // after every other worker ran to completion.
  std::atomic<size_t> completed{0};
  EXPECT_THROW(
      RunWorkers(4,
                 [&](size_t w) {
                   if (w == 2) throw std::runtime_error("worker 2 boom");
                   completed.fetch_add(1);
                 }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 3u);
}

TEST(RunWorkersTest, InlinePathPropagatesDirectly) {
  EXPECT_THROW(
      RunWorkers(1, [](size_t) { throw std::logic_error("inline boom"); }),
      std::logic_error);
}

TEST(RunWorkersTest, FirstExceptionWinsWhenSeveralThrow) {
  // Every worker throws; exactly one exception must surface (which one
  // is scheduling-dependent) and the rest are swallowed.
  EXPECT_THROW(RunWorkers(4,
                          [](size_t w) {
                            throw std::runtime_error("boom " +
                                                     std::to_string(w));
                          }),
               std::runtime_error);
}

// ---------- The process pool ----------

TEST(RunWorkersTest, NestedCallsComplete) {
  // Every index of the outer call runs a call of its own: helpers and
  // callers run their own work when no helper is free, so nothing
  // waits for a busy thread.
  std::atomic<size_t> ran{0};
  RunWorkers(4, [&](size_t) {
    RunWorkers(4, [&](size_t) {
      RunWorkers(3, [&](size_t) { ran.fetch_add(1); });
    });
  });
  EXPECT_EQ(ran.load(), 4u * 4u * 3u);
}

/// Parties a team gets when every pool helper is idle: one per core. A
/// new pool starts with every helper idle, and a call gives its helpers
/// back before it returns, so in these tests, which make one call at a
/// time, a team that asks for more is granted exactly this many.
size_t PoolThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

TEST(RunWorkersTest, CallerRunsWhatNoHelperClaims) {
  // Hold every helper, then make a striped call from one of them: it
  // must finish on its own caller.
  std::atomic<bool> release{false};
  std::atomic<size_t> holding{0};
  std::atomic<size_t> ran{0};
  WorkerTeam holders(64);
  const size_t held = holders.size();
  ASSERT_EQ(held, PoolThreads());
  holders.Run([&](size_t party) {
    if (party + 1 == held) {
      while (holding.load() + 1 < held) std::this_thread::yield();
      RunWorkers(8, [&](size_t) { ran.fetch_add(1); });
      release.store(true);
      return;
    }
    holding.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
  });
  EXPECT_EQ(ran.load(), 8u);
}

TEST(WorkerTeamTest, TeamShrinksToTheIdleHelpers) {
  // While a team holds some helpers, a second team is granted only the
  // ones left idle, and a team made while none is idle runs alone.
  const size_t all = PoolThreads();
  if (all < 3) GTEST_SKIP() << "needs two pool helpers, pool has " << all - 1;
  std::atomic<bool> release{false};
  std::atomic<size_t> holding{0};
  size_t second = 0;
  std::atomic<size_t> second_ran{0};
  std::atomic<size_t> alone{0};
  WorkerTeam first(2);
  ASSERT_EQ(first.size(), 2u);
  first.Run([&](size_t party) {
    if (party == 1) {
      holding.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      return;
    }
    while (holding.load() == 0) std::this_thread::yield();
    WorkerTeam rest(1024);
    second = rest.size();
    TeamBarrier all_running(second);
    rest.Run([&](size_t) {
      second_ran.fetch_add(1);
      WorkerTeam none(4);
      if (none.size() == 1) alone.fetch_add(1);
      // No party gives its helper back before every party made a team.
      all_running.ArriveAndWait();
      none.Run([](size_t) {});
    });
    release.store(true);
  });
  EXPECT_EQ(second, all - 1);
  EXPECT_EQ(second_ran.load(), second);
  EXPECT_EQ(alone.load(), second);
}

TEST(WorkerTeamTest, ForkedChildRunsWorkers) {
  // The parent's pool is warm, every helper idle: its helper threads
  // do not exist in a child, which must make its own. A child that
  // trusted the parent's pool would seat its team on helpers that are
  // gone and hang.
  {
    WorkerTeam warm(PoolThreads());
    ASSERT_EQ(warm.size(), PoolThreads());
    warm.Run([](size_t) {});
  }
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::atomic<size_t> child_ran{0};
    RunWorkers(6, [&](size_t) { child_ran.fetch_add(1); });
    // The child's own pool starts with every helper idle.
    WorkerTeam team(4);
    if (team.size() != std::min<size_t>(4, PoolThreads())) std::_Exit(2);
    TeamBarrier barrier(team.size());
    team.Run([&](size_t) {
      barrier.ArriveAndWait();
      child_ran.fetch_add(1);
    });
    std::_Exit(child_ran.load() == 6 + team.size() ? 0 : 1);
  }
  int status = 0;
  pid_t waited = 0;
  for (int ms = 0; ms < 30000 && waited == 0; ms += 10) {
    waited = ::waitpid(pid, &status, WNOHANG);
    if (waited == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (waited == 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    FAIL() << "the forked child hung";
  }
  ASSERT_EQ(waited, pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// ---------- TeamBarrier ----------

/// Runs fn(w) for w in [0, n) on n threads of its own, all at once, and
/// rethrows the first exception once every thread has joined. The
/// barrier does not need the pool, and a pool team may be granted
/// fewer parties than asked; these tests need exactly n.
template <typename Fn>
void RunOnOwnThreads(size_t n, Fn fn) {
  std::mutex mu;
  std::exception_ptr first;
  std::vector<std::thread> threads;
  for (size_t w = 0; w < n; ++w) {
    threads.emplace_back([&, w] {
      try {
        fn(w);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first) first = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first) std::rethrow_exception(first);
}

TEST(TeamBarrierTest, LastArrivalRunsTheStepBetweenPhases) {
  // Each phase every worker adds its index to its slot; the step folds
  // the slots into the total, so the total is exact only if the step
  // runs once per phase, after every worker's write and before any
  // worker's next one.
  constexpr size_t kWorkers = 4;
  constexpr int kPhases = 50;
  TeamBarrier team(kWorkers);
  std::vector<size_t> slots(kWorkers, 0);
  size_t total = 0;
  int steps = 0;
  RunOnOwnThreads(kWorkers, [&](size_t w) {
    for (int phase = 0; phase < kPhases; ++phase) {
      slots[w] += w + 1;
      ASSERT_TRUE(team.ArriveAndWait([&] {
        for (size_t& slot : slots) {
          total += slot;
          slot = 0;
        }
        ++steps;
      }));
    }
  });
  EXPECT_EQ(steps, kPhases);
  EXPECT_EQ(total, size_t(kPhases) * (1 + 2 + 3 + 4));
  EXPECT_FALSE(team.aborted());
}

TEST(TeamBarrierTest, WorkerLeavingMidRoundReleasesItsTeam) {
  // Worker 2 fails in round 3 and leaves; the others, already waiting
  // at that round's barrier or arriving later, must be let go.
  constexpr size_t kWorkers = 4;
  TeamBarrier team(kWorkers);
  std::atomic<int> released{0};
  RunOnOwnThreads(kWorkers, [&](size_t w) {
    for (int round = 0; round < 10; ++round) {
      if (w == 2 && round == 3) {
        team.Abort();
        return;
      }
      if (!team.ArriveAndWait()) {
        released.fetch_add(1);
        return;
      }
    }
  });
  EXPECT_TRUE(team.aborted());
  EXPECT_EQ(released.load(), 3);
}

TEST(TeamBarrierTest, ThrowInsideTheTeamPropagatesWithoutHanging) {
  // The pattern a team uses: a throwing worker aborts on its way out,
  // the runner rethrows once everyone has joined.
  constexpr size_t kWorkers = 4;
  for (bool throw_in_step : {false, true}) {
    TeamBarrier team(kWorkers);
    std::atomic<int> released{0};
    EXPECT_THROW(
        RunOnOwnThreads(kWorkers,
                        [&](size_t w) {
                          try {
                            for (int round = 0; round < 10; ++round) {
                              if (!throw_in_step && w == 1 && round == 4) {
                                throw std::runtime_error("worker 1 boom");
                              }
                              const bool go = team.ArriveAndWait([&] {
                                if (throw_in_step && round == 4) {
                                  throw std::runtime_error("step boom");
                                }
                              });
                              if (!go) {
                                released.fetch_add(1);
                                return;
                              }
                            }
                          } catch (...) {
                            team.Abort();
                            throw;
                          }
                        }),
        std::runtime_error);
    EXPECT_TRUE(team.aborted());
    EXPECT_EQ(released.load(), 3) << "throw in step: " << throw_in_step;
  }
}

TEST(TeamBarrierTest, OneWorkerTeamNeverWaits) {
  TeamBarrier team(1);
  int steps = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(team.ArriveAndWait([&] { ++steps; }));
  }
  EXPECT_EQ(steps, 3);
  team.Abort();
  EXPECT_FALSE(team.ArriveAndWait());
}

TEST(ClampWorkersTest, Bounds) {
  EXPECT_EQ(ClampWorkers(8, 3), 3u);
  EXPECT_EQ(ClampWorkers(2, 100), 2u);
  EXPECT_EQ(ClampWorkers(0, 5), 1u);
  EXPECT_EQ(ClampWorkers(4, 0), 1u);
}

// ---------- wire ----------

TEST(WireTest, LengthPrefixBoundary) {
  EXPECT_TRUE(wire::CheckLengthPrefixable(0).ok());
  EXPECT_TRUE(wire::CheckLengthPrefixable(wire::kMaxLengthPrefixed).ok());
  if (sizeof(size_t) > 4) {
    // One past the u32 prefix: the length that used to truncate
    // silently into a corrupt-but-checksummed envelope.
    Status s = wire::CheckLengthPrefixable(
        static_cast<size_t>(wire::kMaxLengthPrefixed) + 1);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  }
}

// A representative envelope: every field kind the two serialization
// layers use, trailed by the checksum.
std::vector<uint8_t> BuildEnvelope() {
  wire::Writer w;
  w.U8(7);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefull);
  w.I32(-42);
  w.Bytes({1, 2, 3, 4, 5});
  w.Str("hello wire");
  std::vector<uint8_t> buf = w.Take();
  wire::AppendChecksum(&buf);
  return buf;
}

// Parses the body fields of BuildEnvelope from a [0, end) window.
Status ParseEnvelopeBody(const std::vector<uint8_t>& buf, size_t end) {
  wire::Reader r(buf, 0, end);
  SLOC_ASSIGN_OR_RETURN(uint8_t u8, r.U8());
  if (u8 != 7) return Status::DataLoss("u8 mismatch");
  SLOC_ASSIGN_OR_RETURN(uint32_t u32, r.U32());
  if (u32 != 0xdeadbeef) return Status::DataLoss("u32 mismatch");
  SLOC_ASSIGN_OR_RETURN(uint64_t u64, r.U64());
  if (u64 != 0x0123456789abcdefull) return Status::DataLoss("u64 mismatch");
  SLOC_ASSIGN_OR_RETURN(int i32, r.I32());
  if (i32 != -42) return Status::DataLoss("i32 mismatch");
  SLOC_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, r.Bytes());
  if (bytes != std::vector<uint8_t>({1, 2, 3, 4, 5})) {
    return Status::DataLoss("bytes mismatch");
  }
  SLOC_ASSIGN_OR_RETURN(std::string str, r.Str());
  if (str != "hello wire") return Status::DataLoss("str mismatch");
  return r.ExpectDone();
}

TEST(WireTest, FullEnvelopeRoundTrips) {
  std::vector<uint8_t> buf = BuildEnvelope();
  auto body = wire::VerifyChecksum(buf);
  ASSERT_TRUE(body.ok());
  EXPECT_TRUE(ParseEnvelopeBody(buf, *body).ok());
}

TEST(WireTest, EveryPrefixLengthFailsCleanly) {
  // Replay every strict prefix of a valid envelope: each one must come
  // back as a clean DataLoss — checksum layer or parse layer — and
  // never crash or read out of bounds.
  const std::vector<uint8_t> buf = BuildEnvelope();
  for (size_t len = 0; len < buf.size(); ++len) {
    std::vector<uint8_t> prefix(buf.begin(), buf.begin() + long(len));
    auto body = wire::VerifyChecksum(prefix);
    if (!body.ok()) {
      EXPECT_EQ(body.status().code(), StatusCode::kDataLoss) << "len " << len;
      continue;
    }
    // A prefix that happens to checksum (possible only by collision —
    // FNV over a truncated body) must still fail structured parsing.
    Status parsed = ParseEnvelopeBody(prefix, *body);
    EXPECT_FALSE(parsed.ok()) << "prefix of length " << len << " parsed";
  }
  // The raw parse layer alone (no checksum gate) must also bounds-check
  // every field read against a truncated window.
  for (size_t len = 0; len + 8 < buf.size(); ++len) {
    Status parsed = ParseEnvelopeBody(buf, len);
    EXPECT_FALSE(parsed.ok()) << "window of length " << len << " parsed";
  }
}

// ---------- Table ----------

TEST(TableTest, TextRenderingAligned) {
  Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "2"});
  std::string text = t.ToText();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("long-name"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, CsvEscapesSpecials) {
  Table t({"k"});
  t.AddRow({"with,comma"});
  t.AddRow({"with\"quote"});
  std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
  EXPECT_EQ(Table::Int(-5), "-5");
}

TEST(TableTest, WriteCsvRoundTrip) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  std::string path = testing::TempDir() + "/sloc_table_test.csv";
  ASSERT_TRUE(t.WriteCsv(path).ok());
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a,b");
  std::getline(f, line);
  EXPECT_EQ(line, "1,2");
}

}  // namespace
}  // namespace sloc
