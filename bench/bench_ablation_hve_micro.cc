// Ablation: HVE primitive micro-benchmarks (google-benchmark).
//
// Times Setup / Encrypt / GenToken / Query on the real composite-order
// pairing, sweeping the HVE width and the number of non-star bits.
// Validates the paper's premise that Query cost is linear in the
// non-star count (2|J| + 1 pairings) and that pairings dominate.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hve/hve.h"

namespace sloc {
namespace {

RandFn SeededRand(uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed);
  return [rng]() { return rng->NextU64(); };
}

/// Shared group: parameter generation is expensive; reuse across cases.
const PairingGroup& SharedGroup() {
  static const PairingGroup* group = [] {
    PairingParamSpec spec;
    spec.p_prime_bits = 48;
    spec.q_prime_bits = 48;
    spec.seed = 20210323;  // EDBT 2021 opening day
    return new PairingGroup(PairingGroup::Generate(spec).value());
  }();
  return *group;
}

void BM_PairingOnly(benchmark::State& state) {
  const PairingGroup& group = SharedGroup();
  RandFn rand = SeededRand(1);
  AffinePoint a = group.Mul(BigInt::RandomBelow(group.params().n, rand),
                            group.gen());
  AffinePoint b = group.Mul(BigInt::RandomBelow(group.params().n, rand),
                            group.gen());
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.Pair(a, b));
  }
}
BENCHMARK(BM_PairingOnly);

void BM_HveSetup(benchmark::State& state) {
  const PairingGroup& group = SharedGroup();
  RandFn rand = SeededRand(2);
  const size_t width = size_t(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hve::Setup(group, width, rand).value());
  }
  state.SetComplexityN(int64_t(width));
}
BENCHMARK(BM_HveSetup)->Arg(8)->Arg(16)->Arg(32)->Complexity();

void BM_HveEncrypt(benchmark::State& state) {
  const PairingGroup& group = SharedGroup();
  RandFn rand = SeededRand(3);
  const size_t width = size_t(state.range(0));
  hve::KeyPair keys = hve::Setup(group, width, rand).value();
  Fp2Elem marker = group.RandomGt(rand);
  std::string index(width, '0');
  for (size_t i = 0; i < width; i += 2) index[i] = '1';
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hve::Encrypt(group, keys.pk, index, marker, rand).value());
  }
  state.SetComplexityN(int64_t(width));
}
BENCHMARK(BM_HveEncrypt)->Arg(8)->Arg(16)->Arg(32)->Complexity();

void BM_HveGenToken(benchmark::State& state) {
  const PairingGroup& group = SharedGroup();
  RandFn rand = SeededRand(4);
  const size_t width = 32;
  const size_t non_star = size_t(state.range(0));
  hve::KeyPair keys = hve::Setup(group, width, rand).value();
  std::string pattern(width, '*');
  for (size_t i = 0; i < non_star; ++i) pattern[i] = '1';
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hve::GenToken(group, keys.sk, pattern, rand).value());
  }
  state.SetComplexityN(int64_t(non_star));
}
BENCHMARK(BM_HveGenToken)->Arg(1)->Arg(4)->Arg(16)->Arg(32)->Complexity();

// The paper's core cost claim: Query time is linear in non-star bits.
void BM_HveQueryByNonStar(benchmark::State& state) {
  const PairingGroup& group = SharedGroup();
  RandFn rand = SeededRand(5);
  const size_t width = 32;
  const size_t non_star = size_t(state.range(0));
  hve::KeyPair keys = hve::Setup(group, width, rand).value();
  Fp2Elem marker = group.RandomGt(rand);
  std::string index(width, '0');
  hve::Ciphertext ct =
      hve::Encrypt(group, keys.pk, index, marker, rand).value();
  std::string pattern(width, '*');
  for (size_t i = 0; i < non_star; ++i) pattern[i] = '0';
  hve::Token tk = hve::GenToken(group, keys.sk, pattern, rand).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hve::Query(group, tk, ct).value());
  }
  // Report pairings/iteration so the 2|J|+1 law is visible in output;
  // the complexity variable is the pairing count itself (non-zero even
  // for the all-star token, which still pays one pairing).
  state.counters["pairings"] =
      benchmark::Counter(double(hve::QueryPairingCost(tk)));
  state.SetComplexityN(int64_t(hve::QueryPairingCost(tk)));
}
BENCHMARK(BM_HveQueryByNonStar)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Complexity(benchmark::oN);

// The batched engine's per-ciphertext cost once the token side's Miller
// chains have been run and flattened (the alert-scan regime, where one
// token is evaluated against the whole store): one token round over a
// flush of slim views — the Miller walk (eight lanes at a time on an
// IFMA group) plus one batch final exponentiation. The per_view
// counter is the round's wall time divided by its views.
void BM_HveBatchedRoundPerView(benchmark::State& state) {
  const PairingGroup& group = SharedGroup();
  RandFn rand = SeededRand(7);
  const size_t width = 32;
  const size_t kViews = 16;
  const size_t non_star = size_t(state.range(0));
  hve::KeyPair keys = hve::Setup(group, width, rand).value();
  Fp2Elem marker = group.RandomGt(rand);
  std::string pattern(width, '*');
  for (size_t i = 0; i < non_star; ++i) pattern[i] = '0';
  hve::Token tk = hve::GenToken(group, keys.sk, pattern, rand).value();
  hve::PrecompiledToken ptk = hve::PrecompileToken(group, tk);
  hve::EvalLayout layout = hve::MakeEvalLayout(width, {&ptk});
  std::vector<hve::EvalView> views;
  for (size_t v = 0; v < kViews; ++v) {
    hve::Ciphertext ct =
        hve::Encrypt(group, keys.pk, std::string(width, '0'), marker, rand)
            .value();
    views.push_back(hve::MakeEvalView(group, layout, ct).value());
  }
  std::vector<const hve::EvalView*> view_ptrs;
  for (const hve::EvalView& view : views) view_ptrs.push_back(&view);
  std::vector<Fp2Elem> millers;
  hve::QueryScratch scratch;
  for (auto _ : state) {
    if (!hve::QueryMillerPrecompiledViews(group, ptk, layout, view_ptrs,
                                          &millers, &scratch)
             .ok()) {
      state.SkipWithError("token round failed");
      break;
    }
    BatchFinalExponentiation(group.fp2(), group.params().cofactor, &millers,
                             &scratch.pairing);
    benchmark::DoNotOptimize(millers.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_view"] = benchmark::Counter(
      double(kViews),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.counters["pairings"] =
      benchmark::Counter(double(hve::QueryPairingCost(tk)));
  state.SetComplexityN(int64_t(hve::QueryPairingCost(tk)));
}
BENCHMARK(BM_HveBatchedRoundPerView)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(32)
    ->Complexity(benchmark::oN);

// One-off cost of precompiling a token's line tables (amortized away by
// the scan length).
void BM_HvePrecompileToken(benchmark::State& state) {
  const PairingGroup& group = SharedGroup();
  RandFn rand = SeededRand(8);
  const size_t width = 32;
  const size_t non_star = size_t(state.range(0));
  hve::KeyPair keys = hve::Setup(group, width, rand).value();
  std::string pattern(width, '*');
  for (size_t i = 0; i < non_star; ++i) pattern[i] = '0';
  hve::Token tk = hve::GenToken(group, keys.sk, pattern, rand).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hve::PrecompileToken(group, tk));
  }
  state.SetComplexityN(int64_t(hve::QueryPairingCost(tk)));
}
BENCHMARK(BM_HvePrecompileToken)->Arg(1)->Arg(16)->Arg(32)->Complexity();

}  // namespace
}  // namespace sloc

BENCHMARK_MAIN();
