// Pairing-engine ablation: quantifies the optimization layers against
// the paper's dominant cost (HVE query evaluation).
//
//  1. the batched engine (QueryEngine::kBatched) vs the per-pairing
//     reference Query over a real alert scan: per-token Miller line
//     tables precompiled once, slim evaluation views walked per token
//     round (eight lanes at a time on AVX-512 IFMA groups), one shared
//     Fp2 inversion per flush and deferred marker^-1 comparison,
//  2. the Miller walk under one token round: the per-view scalar walk
//     vs the batched call the flush makes, and token precompilation:
//     the bundle's chains through hve::PrecompileTokens (eight per
//     IFMA lane pass on ifma8 groups) vs one at a time on the scalar
//     chain, whose tables --verify-kernels=1 requires to be identical,
//  3. fixed-base comb tables for Encrypt's scalar multiplications and
//     the per-key G_T comb for A^s vs the generic paths.
//
// The field layer underneath reports which Montgomery kernel is engaged
// (generic vs unrolled CIOS 4x64/6x64/8x64, portable u128 vs BMI2/ADX
// intrinsic); at --pbits=120 and above the field prime spans 4 limbs
// and the fixed-width kernels carry both engines. Runs the real
// ProcessAlert scan through both ServiceProvider engines and checks the
// notified sets are identical, re-runs the batched scan with kernel
// dispatch forced to the generic tier and checks THAT notified set too
// (bit-identical match outcomes across kernels, asserted before CI's
// regression gate reads the JSON), and times raw Fp multiplication
// under every kernel the field prime can run (the intrinsic-vs-u128
// speedup row). The verify pass also re-runs the scan on the portable
// kernels, whose plan walks scalar, so on an AVX-512 IFMA host the
// scalar walk is checked against the eight-lane walk; a walk row times
// one token round per query on both, as the fastest of many passes
// with their median and slowest printed beside it. Emits a human table plus
// machine-readable BENCH_pairing_engine.json for
// bench/check_regression.py; the pinned params.field_kernel is the
// portable *family* name (cios4 on both cios4 and cios4_adx hardware)
// so the baseline holds across runners, with the exact dispatch and
// the Miller walk ("ifma8" or "scalar") reported separately.
//
// Flags: --users=N (64), --width=W (24), --tokens=T (4), --pbits=B (48),
//        --verify-kernels=0|1 (1), --csv=PATH, --json=PATH
//        (see bench_util.h).

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "alert/protocol.h"
#include "bench/bench_util.h"
#include "bigint/montgomery.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "hve/hve.h"
#include "hve/serialize.h"

// The replacement operator new below is malloc-backed; the compiler
// cannot see that and would flag new/free pairings across the binary.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<size_t> g_alloc_count{0};
}  // namespace

// Counting replacements for the global allocation functions: the
// allocs-per-eval column divides the heap allocations of the warmest
// ProcessAlert repetition by the number of (token, ciphertext) evals.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sloc {
namespace bench {
namespace {

size_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

using alert::ServiceProvider;

/// One walk row's per-query times over its timed passes.
struct WalkSpread {
  double min_us = 0.0;
  double median_us = 0.0;
  double max_us = 0.0;
  size_t samples = 0;
};

/// Times `pass` (one walk over `queries` views) after one warm-up call:
/// at least 5 passes, then more until 0.5 s have run or 1000 passes.
template <typename Pass>
WalkSpread TimeWalkPasses(size_t queries, Pass pass) {
  pass();
  std::vector<double> us;
  WallTimer budget;
  while (us.size() < 5 || (budget.Seconds() < 0.5 && us.size() < 1000)) {
    WallTimer timer;
    pass();
    us.push_back(timer.Seconds() * 1e6 / double(queries));
  }
  std::sort(us.begin(), us.end());
  return {us.front(), us[us.size() / 2], us.back(), us.size()};
}

struct EngineRow {
  std::string name;
  double evals_per_sec = 0.0;
  double ms = 0.0;
  size_t matches = 0;
  double allocs_per_eval = 0.0;
};

// Times raw Montgomery multiplication for one kernel: a serial
// dependency chain, the shape the Miller loop's field work has.
double FpMulPerSec(const Montgomery& ctx, const BigInt& x0, const BigInt& y0,
                   Montgomery::Elem* final_value) {
  Montgomery::Elem x = ctx.ToMont(x0), y = ctx.ToMont(y0);
  Montgomery::Elem out = ctx.Zero();
  const int warmup = 20000, iters = 300000;
  for (int i = 0; i < warmup; ++i) {
    ctx.Mul(x, y, &out);
    std::swap(x, out);
  }
  WallTimer timer;
  for (int i = 0; i < iters; ++i) {
    ctx.Mul(x, y, &out);
    std::swap(x, out);
  }
  const double secs = timer.Seconds();
  *final_value = x;
  return double(iters) / secs;
}

int Run(int argc, char** argv) {
  size_t num_users = 64;
  size_t width = 24;
  size_t num_tokens = 4;
  size_t pbits = 48;
  bool verify_kernels = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--users=", 8) == 0) {
      num_users = size_t(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--width=", 8) == 0) {
      width = size_t(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--tokens=", 9) == 0) {
      num_tokens = size_t(std::atoll(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--pbits=", 8) == 0) {
      pbits = size_t(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--verify-kernels=", 17) == 0) {
      verify_kernels = std::atoi(argv[i] + 17) != 0;
    }
  }

  PairingParamSpec spec;
  spec.p_prime_bits = pbits;
  spec.q_prime_bits = pbits;
  spec.seed = 20210323;
  std::printf("generating %zu-bit composite-order pairing group...\n",
              2 * pbits);
  auto group = std::make_shared<const PairingGroup>(
      PairingGroup::Generate(spec).value());
  // The family name ("cios4") is what the CI baseline pins — stable
  // whether or not the runner has BMI2/ADX; the exact dispatch
  // ("cios4_adx") is reported alongside.
  const char* kernel = MulKernelFamilyName(group->fp().mul_kernel());
  const char* kernel_dispatch = MulKernelName(group->fp().mul_kernel());
  // The walk depends on the CPU too, so it is reported beside the
  // kernel but kept out of the params the baseline pins.
  const char* walk = MillerWalkName(group->miller_plan().walk());
  std::printf(
      "field prime: %zu bits (%zu limbs), %s kernel (dispatch %s), "
      "%s Miller walk\n",
      group->params().field_p.BitLength(), group->fp().num_limbs(), kernel,
      kernel_dispatch, walk);
  // The chains follow the NAF of the group order n: one doubling line
  // per digit below the top, one addition or subtraction line per
  // nonzero digit below it. Packed (ifma8) tables merge each step's two
  // lines into one product, all but a final step's.
  const MillerPlan& plan = group->miller_plan();
  const size_t order_bits = group->params().n.BitLength();
  const size_t nonzero_digits =
      1 + size_t(std::count_if(plan.adds().begin(), plan.adds().end(),
                               [](int8_t d) { return d != 0; }));
  std::printf(
      "Miller plan: n = %zu bits, %zu nonzero NAF digits, %zu lines per "
      "chain, %zu merged steps\n",
      order_bits, nonzero_digits, plan.length(), plan.merged_steps());
  std::printf(
      "security: HVE falls to factoring n = P*Q; a %zu-bit n is a bench "
      "size (about 1024 bits for ~80-bit security)\n",
      order_bits);
  // Kernel-selection assert: 4/6/8-limb fields must run fixed-width.
  const size_t field_limbs = group->fp().num_limbs();
  if (field_limbs == 4 || field_limbs == 6 || field_limbs == 8) {
    SLOC_CHECK(group->fp().mul_kernel() != MulKernel::kGeneric)
        << "fixed-width field kernel not engaged";
  }

  auto rng = std::make_shared<Rng>(7);
  RandFn rand = [rng]() { return rng->NextU64(); };
  hve::KeyPair keys = hve::Setup(*group, width, rand).value();
  Fp2Elem marker = group->RandomGt(rand);

  // Tokens: ~60% fixed bits, the rest wildcards — the regime the
  // paper's encoders produce. The first token's pattern seeds a block
  // of matching indexes so the scan has real hits.
  Rng shape(99);
  std::vector<std::string> patterns;
  for (size_t t = 0; t < num_tokens; ++t) {
    std::string p(width, '*');
    for (auto& c : p) {
      double r = shape.NextDouble();
      c = r < 0.4 ? '*' : (r < 0.7 ? '0' : '1');
    }
    patterns.push_back(std::move(p));
  }
  std::vector<std::vector<uint8_t>> token_blobs;
  for (const std::string& p : patterns) {
    token_blobs.push_back(hve::SerializeToken(
        *group, hve::GenToken(*group, keys.sk, p, rand).value()));
  }

  std::printf("encrypting %zu width-%zu indexes...\n", num_users, width);
  std::vector<api::LocationUpload> uploads;
  uploads.reserve(num_users);
  for (size_t u = 0; u < num_users; ++u) {
    std::string index(width, '0');
    if (u % 4 == 0) {
      // Fill the first pattern's stars randomly: guaranteed match.
      index = patterns[0];
      for (auto& c : index) {
        if (c == '*') c = shape.NextBool() ? '1' : '0';
      }
    } else {
      for (auto& c : index) c = shape.NextBool() ? '1' : '0';
    }
    api::LocationUpload up;
    up.user_id = int(u);
    up.ciphertext = hve::SerializeCiphertext(
        *group,
        hve::Encrypt(*group, keys.pk, index, marker, rand).value());
    uploads.push_back(std::move(up));
  }

  // ---- Alert-scan throughput per engine (the paper's bottleneck) ----
  ServiceProvider::Options options;  // 1 shard / 1 thread: engine only
  ServiceProvider sp(group, marker, options);
  SLOC_CHECK(sp.SubmitBatch(uploads).rejected.empty());

  const size_t evals = num_users * num_tokens;
  std::vector<EngineRow> rows;
  std::vector<int> baseline_notified;
  for (auto [engine, name] :
       {std::pair<ServiceProvider::QueryEngine, const char*>{
            ServiceProvider::QueryEngine::kReference, "reference"},
        {ServiceProvider::QueryEngine::kBatched, "batched"}}) {
    sp.set_engine(engine);
    EngineRow row;
    row.name = name;
    ServiceProvider::AlertOutcome outcome;
    size_t last_rep_allocs = 0;
    // Two untimed warm-ups: the token LRU admits a table at its blob's
    // second sighting, so every timed repetition runs on cached tables.
    for (int warm = 0; warm < 2; ++warm) {
      SLOC_CHECK(sp.ProcessAlert(token_blobs).ok());
    }
    for (int rep = 0; rep < 3; ++rep) {  // best-of-3 damps noise
      const size_t allocs_before = AllocCount();
      auto result = sp.ProcessAlert(token_blobs).value();
      // The last repetition runs with every scratch slab warm: its
      // count is the steady-state allocation cost of an alert scan.
      last_rep_allocs = AllocCount() - allocs_before;
      const double ms = result.stats.wall_seconds * 1e3;
      if (rep == 0 || ms < row.ms) row.ms = ms;
      outcome = std::move(result);
    }
    row.matches = outcome.stats.matches;
    row.evals_per_sec = double(evals) / (row.ms * 1e-3);
    row.allocs_per_eval = double(last_rep_allocs) / double(evals);
    if (rows.empty()) {
      baseline_notified = outcome.notified_users;
    } else {
      SLOC_CHECK(outcome.notified_users == baseline_notified)
          << row.name << " engine diverged from the reference path";
    }
    rows.push_back(std::move(row));
  }
  const double speedup_batched_vs_ref =
      rows[1].evals_per_sec / rows[0].evals_per_sec;

  // ---- Cross-kernel match-outcome equivalence ----
  //
  // Rebuild the whole dependency tree (group -> field -> curve) with
  // kernel dispatch forced to the generic tier and re-run the scan on
  // the SAME ciphertext and token bytes: the notified set must be
  // bit-identical to the auto-dispatched run. CI runs this before the
  // regression gate reads the JSON.
  // The same holds for the Miller walk: both forced tiers build scalar-
  // walk plans, so on an IFMA host the portable re-run checks the
  // scalar walk against the ifma8 walk the auto-dispatched scan used.
  if (verify_kernels) {
    for (auto [policy, label] :
         {std::pair<KernelDispatch, const char*>{KernelDispatch::kGenericOnly,
                                                 "forced-generic"},
          {KernelDispatch::kPortableOnly, "forced-portable"}}) {
      SetMulKernelDispatch(policy);
      auto forced_group = std::make_shared<const PairingGroup>(
          PairingGroup::Generate(spec).value());
      SetMulKernelDispatch(KernelDispatch::kAuto);
      SLOC_CHECK(policy != KernelDispatch::kGenericOnly ||
                 forced_group->fp().mul_kernel() == MulKernel::kGeneric)
          << "generic dispatch not honored";
      SLOC_CHECK(forced_group->miller_plan().walk() == MillerWalk::kScalar)
          << "forced dispatch must walk scalar";
      ServiceProvider forced_sp(forced_group, marker, options);
      SLOC_CHECK(forced_sp.SubmitBatch(uploads).rejected.empty());
      auto forced_outcome = forced_sp.ProcessAlert(token_blobs).value();
      SLOC_CHECK(forced_outcome.notified_users == baseline_notified)
          << label << " scan diverged from auto dispatch";
      std::printf(
          "kernel equivalence: %s scan (%s kernel, %s walk) notified the "
          "same %zu users as %s dispatch (%s walk)\n",
          label, MulKernelName(forced_group->fp().mul_kernel()),
          MillerWalkName(forced_group->miller_plan().walk()),
          forced_outcome.notified_users.size(), kernel_dispatch, walk);
    }
  }

  // ---- One token round, per query: the Miller walk under the scan ----
  //
  // QueryMillerPrecompiledView always walks scalar; the batched call the
  // flush makes walks eight lanes at a time when the group's plan is
  // ifma8 (and scalar otherwise, so the two rows then agree). Each
  // sample is one pass over the views, after one warm-up pass; a row
  // is the fastest of its samples, with the median and slowest printed
  // as its spread.
  WalkSpread walk_single, walk_batched;
  {
    hve::Token token = hve::ParseToken(*group, token_blobs[0]).value();
    hve::PrecompiledToken compiled = hve::PrecompileToken(*group, token);
    hve::EvalLayout layout = hve::MakeEvalLayout(width, {&compiled});
    std::vector<hve::EvalView> views(uploads.size());
    std::vector<const hve::EvalView*> view_ptrs;
    for (size_t u = 0; u < uploads.size(); ++u) {
      hve::Ciphertext ct =
          hve::ParseCiphertext(*group, uploads[u].ciphertext).value();
      SLOC_CHECK(hve::MakeEvalView(*group, layout, ct, &views[u]).ok());
      view_ptrs.push_back(&views[u]);
    }
    hve::QueryScratch scratch;
    std::vector<Fp2Elem> millers;
    walk_single = TimeWalkPasses(views.size(), [&] {
      for (const hve::EvalView& view : views) {
        (void)hve::QueryMillerPrecompiledView(*group, compiled, layout, view,
                                              &scratch)
            .value();
      }
    });
    walk_batched = TimeWalkPasses(views.size(), [&] {
      SLOC_CHECK(hve::QueryMillerPrecompiledViews(*group, compiled, layout,
                                                  view_ptrs, &millers,
                                                  &scratch)
                     .ok());
    });
  }
  const double walk_single_us = walk_single.min_us;
  const double walk_batched_us = walk_batched.min_us;

  // ---- Token precompilation: the active walk vs the scalar chain ----
  //
  // hve::PrecompileTokens compiles the bundle's chains on one thread,
  // eight per lane pass under the ifma8 walk; the scalar row runs the
  // same chains one at a time through PrecompileMillerLines, the scalar
  // chain behind both layouts. Under --verify-kernels=1 every table
  // must be byte-identical to the scalar chain's.
  size_t precompile_chains = 0;
  double precompile_per_sec = 0.0, precompile_scalar_per_sec = 0.0;
  {
    std::vector<hve::Token> tokens;
    for (const std::vector<uint8_t>& blob : token_blobs) {
      tokens.push_back(hve::ParseToken(*group, blob).value());
    }
    std::vector<const hve::Token*> token_ptrs;
    std::vector<const AffinePoint*> points;
    for (const hve::Token& token : tokens) {
      token_ptrs.push_back(&token);
      points.push_back(&token.k0);
      for (size_t j = 0; j < token.k1.size(); ++j) {
        points.push_back(&token.k1[j]);
        points.push_back(&token.k2[j]);
      }
    }
    precompile_chains = points.size();
    const Curve& curve = group->curve();
    const MillerPlan& plan = group->miller_plan();
    double lane_s = 0.0, scalar_s = 0.0;
    std::vector<hve::PrecompiledToken> compiled;
    std::vector<MillerLineTable> scalar_tables(points.size());
    for (int rep = 0; rep < 3; ++rep) {  // best-of-3
      WallTimer lane;
      compiled = hve::PrecompileTokens(*group, token_ptrs, 1);
      const double lane_rep = lane.Seconds();
      WallTimer scalar;
      for (size_t k = 0; k < points.size(); ++k) {
        scalar_tables[k] = PrecompileMillerLines(curve, plan, *points[k]);
      }
      const double scalar_rep = scalar.Seconds();
      if (rep == 0 || lane_rep < lane_s) lane_s = lane_rep;
      if (rep == 0 || scalar_rep < scalar_s) scalar_s = scalar_rep;
    }
    precompile_per_sec = double(precompile_chains) / lane_s;
    precompile_scalar_per_sec = double(precompile_chains) / scalar_s;
    if (verify_kernels) {
      size_t k = 0;
      for (const hve::PrecompiledToken& token : compiled) {
        SLOC_CHECK(token.k0 == scalar_tables[k++])
            << "precompiled K_0 table differs from the scalar chain's";
        for (size_t j = 0; j < token.k1.size(); ++j) {
          SLOC_CHECK(token.k1[j] == scalar_tables[k++] &&
                     token.k2[j] == scalar_tables[k++])
              << "precompiled K_j table differs from the scalar chain's";
        }
      }
      SLOC_CHECK(k == precompile_chains);
      std::printf(
          "precompile equivalence: %zu %s tables identical to the scalar "
          "chain's\n",
          precompile_chains, walk);
    }
  }

  // ---- Raw Fp multiplication per kernel (the layer under everything) --
  struct FpMulRow {
    const char* name;
    bool intrinsic;
    double mul_per_sec;
  };
  std::vector<FpMulRow> fp_rows;
  {
    const BigInt& p = group->params().field_p;
    BigInt x0 = BigInt::RandomBelow(p, rand);
    BigInt y0 = BigInt::RandomBelow(p, rand);
    Montgomery::Elem reference_value;
    bool have_reference = false;
    for (MulKernel k :
         {MulKernel::kGeneric, MulKernel::kCios4, MulKernel::kCios6,
          MulKernel::kCios8, MulKernel::kCios4Adx, MulKernel::kCios6Adx,
          MulKernel::kCios8Adx}) {
      auto ctx = Montgomery::Create(p, k);
      if (!ctx.ok()) continue;  // wrong width, or no BMI2/ADX for _adx
      Montgomery::Elem final_value;
      const double rate = FpMulPerSec(*ctx, x0, y0, &final_value);
      // Same chain, same inputs: every kernel must land on the same
      // Montgomery representative.
      if (!have_reference) {
        reference_value = final_value;
        have_reference = true;
      } else {
        SLOC_CHECK(final_value == reference_value)
            << MulKernelName(k) << " kernel diverged on the Fp mul chain";
      }
      fp_rows.push_back({MulKernelName(k), MulKernelIsIntrinsic(k), rate});
    }
  }
  // Intrinsic-vs-u128 speedup at this width (0 when no intrinsic row —
  // non-x86, SLOC_NO_INTRINSICS, or a CPU without ADX).
  double speedup_adx_vs_u128 = 0.0;
  for (const FpMulRow& row : fp_rows) {
    if (!row.intrinsic) continue;
    for (const FpMulRow& portable : fp_rows) {
      if (!portable.intrinsic &&
          std::strncmp(portable.name, row.name, 5) == 0) {
        speedup_adx_vs_u128 = row.mul_per_sec / portable.mul_per_sec;
      }
    }
  }

  // ---- Single-pairing rate (context for the absolute numbers) ----
  double pair_per_sec = 0.0;
  {
    AffinePoint a = group->Mul(BigInt::RandomBelow(group->params().n, rand),
                               group->gen());
    AffinePoint b = group->Mul(BigInt::RandomBelow(group->params().n, rand),
                               group->gen());
    const int iters = 200;
    WallTimer timer;
    for (int i = 0; i < iters; ++i) {
      Fp2Elem e = group->Pair(a, b);
      (void)e;
    }
    pair_per_sec = double(iters) / timer.Seconds();
  }

  // ---- Encrypt: fixed-base comb tables vs the generic path ----
  hve::PublicKey stripped = keys.pk;  // PR-1 behavior: no uh, no tables
  stripped.tables.reset();
  stripped.uh.clear();
  const size_t enc_iters = std::max<size_t>(8, num_users / 4);
  std::string enc_index(width, '0');
  for (size_t i = 0; i < width; i += 2) enc_index[i] = '1';
  double enc_naive_ms, enc_comb_ms;
  {
    WallTimer timer;
    for (size_t i = 0; i < enc_iters; ++i) {
      (void)hve::Encrypt(*group, stripped, enc_index, marker, rand).value();
    }
    enc_naive_ms = timer.Millis() / double(enc_iters);
  }
  {
    WallTimer timer;
    for (size_t i = 0; i < enc_iters; ++i) {
      (void)hve::Encrypt(*group, keys.pk, enc_index, marker, rand).value();
    }
    enc_comb_ms = timer.Millis() / double(enc_iters);
  }

  // ---- Report ----
  Table table({"engine", "alert_ms", "evals_per_sec", "matches",
               "speedup_vs_ref", "allocs_per_eval"});
  for (const EngineRow& row : rows) {
    table.AddRow({row.name, Table::Num(row.ms, 2),
                  Table::Num(row.evals_per_sec, 1),
                  Table::Int(int64_t(row.matches)),
                  Table::Num(row.evals_per_sec / rows[0].evals_per_sec, 2),
                  Table::Num(row.allocs_per_eval, 2)});
  }
  EmitTable("pairing_engine", table, argc, argv);
  std::printf("Fp mul by kernel (%zu-limb prime):\n", field_limbs);
  for (const FpMulRow& row : fp_rows) {
    std::printf("  %-10s %10.2f M mul/s\n", row.name,
                row.mul_per_sec / 1e6);
  }
  if (speedup_adx_vs_u128 > 0.0) {
    std::printf("  intrinsic vs u128 kernel: %.2fx\n", speedup_adx_vs_u128);
  }
  std::printf(
      "Miller walk, one token round: %.1f us/query single (scalar), "
      "%.1f us/query batched (%s), %.2fx\n",
      walk_single_us, walk_batched_us, walk, walk_single_us / walk_batched_us);
  std::printf(
      "  walk spread, us/query min / median / max: single %.1f / %.1f / "
      "%.1f over %zu passes, batched %.1f / %.1f / %.1f over %zu passes\n",
      walk_single.min_us, walk_single.median_us, walk_single.max_us,
      walk_single.samples, walk_batched.min_us, walk_batched.median_us,
      walk_batched.max_us, walk_batched.samples);
  std::printf(
      "Token precompile: %zu chains, %.0f chains/s (%s) vs %.0f chains/s "
      "scalar chain, %.2fx\n",
      precompile_chains, precompile_per_sec, walk, precompile_scalar_per_sec,
      precompile_per_sec / precompile_scalar_per_sec);
  std::printf(
      "single Pair(): %.1f pairings/sec (field kernel: %s, dispatch %s)\n"
      "batched vs reference: %.2fx\n"
      "Encrypt: %.2f ms generic -> %.2f ms fixed-base (%.2fx)\n",
      pair_per_sec, kernel, kernel_dispatch, speedup_batched_vs_ref,
      enc_naive_ms, enc_comb_ms, enc_naive_ms / enc_comb_ms);

  JsonWriter params;
  params.Integer("users", num_users);
  params.Integer("width", width);
  params.Integer("tokens", num_tokens);
  params.Integer("prime_bits", pbits);
  params.Integer("field_bits", group->params().field_p.BitLength());
  params.String("field_kernel", kernel);
  JsonWriter scan;
  for (const EngineRow& row : rows) {
    JsonWriter engine;
    engine.Number("alert_ms", row.ms);
    engine.Number("evals_per_sec", row.evals_per_sec);
    engine.Integer("matches", row.matches);
    engine.Number("allocs_per_eval", row.allocs_per_eval);
    scan.Nested(row.name, engine);
  }
  JsonWriter encrypt;
  encrypt.Number("generic_ms", enc_naive_ms);
  encrypt.Number("fixed_base_ms", enc_comb_ms);
  encrypt.Number("speedup", enc_naive_ms / enc_comb_ms);
  JsonWriter fp_mul;
  for (const FpMulRow& row : fp_rows) {
    fp_mul.Number(row.name, row.mul_per_sec);
  }
  if (speedup_adx_vs_u128 > 0.0) {
    fp_mul.Number("speedup_adx_vs_u128", speedup_adx_vs_u128);
  }
  JsonWriter root;
  root.Nested("params", params);
  root.String("field_kernel_dispatch", kernel_dispatch);
  root.String("miller_walk", walk);
  JsonWriter plan_json;
  plan_json.Integer("order_bits", order_bits);
  plan_json.Integer("nonzero_digits", nonzero_digits);
  plan_json.Integer("lines_per_chain", plan.length());
  plan_json.Integer("merged_steps", plan.merged_steps());
  root.Nested("plan", plan_json);
  JsonWriter walk_json;
  walk_json.Number("single_us_per_query", walk_single_us);
  walk_json.Number("batched_us_per_query", walk_batched_us);
  walk_json.Number("speedup", walk_single_us / walk_batched_us);
  walk_json.Number("single_median_us_per_query", walk_single.median_us);
  walk_json.Number("batched_median_us_per_query", walk_batched.median_us);
  walk_json.Integer("single_passes", walk_single.samples);
  walk_json.Integer("batched_passes", walk_batched.samples);
  root.Nested("walk", walk_json);
  JsonWriter precompile_json;
  precompile_json.Integer("chains", precompile_chains);
  precompile_json.Number("chains_per_sec", precompile_per_sec);
  precompile_json.Number("scalar_chains_per_sec", precompile_scalar_per_sec);
  precompile_json.Number("speedup",
                         precompile_per_sec / precompile_scalar_per_sec);
  root.Nested("precompile", precompile_json);
  root.Number("pairings_per_sec", pair_per_sec);
  root.Nested("fp_mul", fp_mul);
  root.Nested("alert_scan", scan);
  root.Number("speedup_batched_vs_reference", speedup_batched_vs_ref);
  root.Nested("encrypt", encrypt);
  EmitJson("BENCH_pairing_engine", root, argc, argv);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace sloc

int main(int argc, char** argv) { return sloc::bench::Run(argc, argv); }
