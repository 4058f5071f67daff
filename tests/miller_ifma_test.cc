// The AVX-512 IFMA lane walk against the scalar walk.
//
//  - Radix-2^52 Montgomery products against Montgomery::Mul at 0, 1,
//    p-1 and random residues, and at the lazy-reduction bounds the walk
//    relies on (inputs up to 4p and 16p, outputs below 2p).
//  - The walk's lazily reduced F_p^2 line product (MulLineLanes) and
//    merged step product (MulMergedLanes) against Fp2 arithmetic at the
//    extremes of their input bounds, on the top 4-limb prime and the
//    perf-gate group's prime; CompleteCoords's derived coordinates.
//  - MultiMillerLoopLanes against MultiMillerLoopCoords after the final
//    exponentiation, parameterised over KernelDispatch (the F_p kernel
//    under the conversions and the final exponentiation).
//  - hve::QueryMillerPrecompiledViews on an ifma8 group against the
//    per-view scalar query and the reference Query: 1, 7, 8, 9 and 17
//    views, all-star tokens, trivial tables and identity columns.
//  - Chain-granularity precompilation: identical tables at 1 and 4
//    threads, in both table layouts.
//  - Lane-compiled tables (CompileMillerTables, hve::PrecompileTokens)
//    byte-identical to the scalar chain's PrecompileMillerLines: at the
//    top of the 4-limb range, and on a pairing group for G_p,
//    G_q and full-order points, the identity, points of small order
//    whose chains meet tangents, verticals and infinity mid-chain,
//    partial lane groups of 1-9 chains, and 1, 2 and 4 threads; and
//    under the signed-digit schedule, a -1 digit meeting T = +-A and
//    chains closing on a -1 digit, with the walked tables against
//    Pair(). Every packed record is also checked against the scalar
//    layout's lines: line records, merged records (A/16, B/16, C/16, D,
//    E) and merged steps packed split around a trivial line.
// Every test skips when the CPU (or the build) has no IFMA walk.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bigint/prime.h"
#include "common/rng.h"
#include "hve/hve.h"
#include "pairing/group.h"
#include "pairing/miller.h"
#include "pairing/miller_ifma.h"

namespace sloc {
namespace {

using miller_ifma::kElemWords;
using miller_ifma::kLanes;
using miller_ifma::kLimbBits;
using miller_ifma::kLimbs;
using miller_ifma::kLineWords;

RandFn TestRand(uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed);
  return [rng]() { return rng->NextU64(); };
}

/// A group whose field has 4 limbs (the lane walk's width), built under
/// `policy`. p_prime_bits = 100 gives a ~208-bit field.
std::unique_ptr<PairingGroup> FourLimbGroup(KernelDispatch policy) {
  PairingParamSpec spec;
  spec.p_prime_bits = 100;
  spec.q_prime_bits = 100;
  spec.seed = 0x1f3a;
  SetMulKernelDispatch(policy);
  auto group =
      std::make_unique<PairingGroup>(PairingGroup::Generate(spec).value());
  SetMulKernelDispatch(KernelDispatch::kAuto);
  return group;
}

/// Writes x's radix-2^52 limbs into lane `lane` of a [kLimbs][kLanes]
/// block.
void PutLane(const BigInt& x, size_t lane, uint64_t* block) {
  const BigInt radix = BigInt(1) << kLimbBits;
  for (size_t k = 0; k < kLimbs; ++k) {
    const BigInt limb = BigInt::Mod(x >> (k * kLimbBits), radix);
    block[k * kLanes + lane] = limb.IsZero() ? 0 : limb.limbs()[0];
  }
}

BigInt GetLane(const uint64_t* block, size_t lane) {
  BigInt x;
  for (size_t k = kLimbs; k-- > 0;) {
    x = (x << kLimbBits) + BigInt::FromU64(block[k * kLanes + lane]);
  }
  return x;
}

/// The largest prime p = 3 (mod 4) below 2^256: the 4-limb field with
/// the least headroom under R = 2^260, where the lazy bounds are tight
/// (R / p is just above 16). A pairing group's field sits far lower.
BigInt TopFourLimbPrime() {
  RandFn rand = TestRand(5);
  BigInt p = (BigInt(1) << 256) - BigInt(1);  // = 3 (mod 4)
  while (!IsProbablePrime(p, rand)) p -= BigInt(4);
  return p;
}

/// The value of five consecutive radix-2^52 limbs.
BigInt RecordElement(const uint64_t* limbs) {
  BigInt x;
  for (size_t k = kLimbs; k-- > 0;) {
    x = (x << kLimbBits) + BigInt::FromU64(limbs[k]);
  }
  return x;
}

/// Checks every record of `packed` (an ifma8 plan's table) against
/// `lines`, the scalar layout's table of the same chain, computed
/// apart: a line record re-splits the canonical residues of c_x and
/// c_0; a merged record holds those of A/16, B/16, C/16, D and E for
/// the step's doubling and addition lines, or the two lines as line
/// records after kSplitStep when either is trivial. Returns the number
/// of split records.
size_t ExpectPackedRecordsMatchLines(const Fp& fp, const MillerPlan& plan,
                                     const MillerLineTable& packed,
                                     const MillerLineTable& lines) {
  const BigInt& p = fp.p();
  const BigInt mont = BigInt::Mod(BigInt(1) << 256, p);
  const BigInt inv16 = BigInt::ModInverse(BigInt(16), p).value();
  auto residue = [&](const BigInt& v) { return BigInt::Mod(v * mont, p); };
  EXPECT_EQ(packed.packed_lines().size(), plan.packed_words());
  if (packed.packed_lines().size() != plan.packed_words()) return 0;
  const uint64_t* words = packed.packed_lines().data();
  size_t j = 0, splits = 0;
  auto expect_line = [&](const uint64_t* rec, const MillerLine& line) {
    if (line.trivial) {
      EXPECT_EQ(rec[0], miller_ifma::kTrivialLine) << "line " << j;
      return;
    }
    EXPECT_EQ(BigInt::Cmp(RecordElement(rec), residue(fp.ToBigInt(line.c_x))),
              0)
        << "line " << j;
    EXPECT_EQ(BigInt::Cmp(RecordElement(rec + kLimbs),
                          residue(fp.ToBigInt(line.c_0))),
              0)
        << "line " << j;
  };
  const std::vector<int8_t>& adds = plan.adds();
  for (size_t s = 0; s < adds.size(); ++s) {
    if (adds[s] == 0 || s + 1 == adds.size()) {
      for (int l = adds[s] != 0 ? 2 : 1; l > 0; --l, ++j) {
        expect_line(words, lines.lines()[j]);
        words += kLineWords;
      }
      continue;
    }
    const MillerLine& dbl = lines.lines()[j];
    const MillerLine& add = lines.lines()[j + 1];
    if (dbl.trivial || add.trivial) {
      EXPECT_EQ(words[0], miller_ifma::kSplitStep) << "step " << s;
      expect_line(words + 1, dbl);
      ++j;
      expect_line(words + 1 + kLineWords, add);
      ++j;
      ++splits;
    } else {
      const BigInt x1 = fp.ToBigInt(dbl.c_x), o1 = fp.ToBigInt(dbl.c_0);
      const BigInt x2 = fp.ToBigInt(add.c_x), o2 = fp.ToBigInt(add.c_0);
      const BigInt want[5] = {residue(x1 * x2 * inv16),
                              residue((x1 * o2 + o1 * x2) * inv16),
                              residue(o1 * o2 * inv16), residue(x1 + x2),
                              residue(o1 + o2)};
      for (size_t e = 0; e < 5; ++e) {
        EXPECT_EQ(BigInt::Cmp(RecordElement(words + e * kLimbs), want[e]), 0)
            << "step " << s << " element " << e;
      }
      j += 2;
    }
    words += miller_ifma::kMergedWords;
  }
  EXPECT_EQ(j, plan.length());
  return splits;
}

TEST(MillerIfmaTest, Radix52MulMatchesMontgomeryAtEdgesAndBounds) {
  if (!miller_ifma::Available()) GTEST_SKIP() << "no AVX-512 IFMA walk";
  const BigInt p = TopFourLimbPrime();
  Fp fp = Fp::Create(p).value();
  ASSERT_EQ(fp.num_limbs(), 4u);
  MillerPlan plan =
      MillerPlan::Create(fp, BigInt(1000003), MillerWalk::kIfma8).value();
  auto mont = Montgomery::Create(p).value();
  const BigInt r_inv =  // 2^-260 mod p
      BigInt::ModInverse(BigInt(1) << (kLimbs * kLimbBits), p).value();

  RandFn rand = TestRand(11);
  const BigInt one(1), zero(0), pm1 = p - BigInt(1);
  // Canonical operands: the lane product must be Montgomery::Mul's
  // (x * y * 2^-256) times 2^-4, reduced.
  std::vector<std::pair<BigInt, BigInt>> canonical = {
      {zero, zero}, {zero, pm1}, {one, one},  {one, pm1},
      {pm1, pm1},   {pm1, one},  {BigInt::RandomBelow(p, rand), pm1},
      {BigInt::RandomBelow(p, rand), BigInt::RandomBelow(p, rand)}};
  // Lazy operands at the documented bounds: a * b < p * 2^260 (both
  // below 4p; or below 16p times below p, the line substitution).
  const BigInt four_p = p * BigInt(4), sixteen_p = p * BigInt(16);
  std::vector<std::pair<BigInt, BigInt>> lazy = {
      {four_p - one, four_p - one},
      {sixteen_p - one, pm1},
      {p * BigInt(3) - one, p * BigInt(2) - one},
      {four_p - one, zero},
      {p, p},
      {p * BigInt(2), four_p - BigInt(2)},
      {BigInt::RandomBelow(four_p, rand), BigInt::RandomBelow(four_p, rand)},
      {BigInt::RandomBelow(sixteen_p, rand), BigInt::RandomBelow(p, rand)}};
  for (const auto* cases : {&canonical, &lazy}) {
    ASSERT_EQ(cases->size(), kLanes);
    uint64_t a[kLimbs * kLanes], b[kLimbs * kLanes], out[kLimbs * kLanes];
    for (size_t lane = 0; lane < kLanes; ++lane) {
      PutLane((*cases)[lane].first, lane, a);
      PutLane((*cases)[lane].second, lane, b);
    }
    miller_ifma::MulLanes(plan.lane_field(), a, b, out);
    for (size_t lane = 0; lane < kLanes; ++lane) {
      const BigInt& x = (*cases)[lane].first;
      const BigInt& y = (*cases)[lane].second;
      const BigInt got = GetLane(out, lane);
      EXPECT_LT(BigInt::Cmp(got, p * BigInt(2)), 0) << "lane " << lane;
      const BigInt want = BigInt::Mod(x * y * r_inv, p);
      EXPECT_EQ(BigInt::Cmp(BigInt::Mod(got, p), want), 0) << "lane " << lane;
      if (cases == &canonical) {
        // Same limb pattern through the 64-bit kernel.
        LimbVec xm = x.limbs(), ym = y.limbs();
        xm.resize(4, 0);
        ym.resize(4, 0);
        Montgomery::Elem prod;
        mont.Mul(xm, ym, &prod);
        const BigInt scaled =
            BigInt::Mod(BigInt::Mod(got, p) * BigInt(16), p);
        EXPECT_EQ(BigInt::Cmp(scaled, BigInt::FromLimbs(prod)), 0)
            << "lane " << lane;
      }
    }
  }
}

// The walk's line product at the extremes of its documented bounds:
// re and im in {0, p-1, p, 2p-1}, l_re just below 3p and y = p-1. Both
// wide sums then reach their ceilings (re * l_re - im * y + 2p^2 near
// 8p^2 at re = 2p-1, im = 0), and the outputs must stay below 2p and
// equal the F_p^2 product times the 2^-260 domain factor. Random
// operands across the same ranges follow: without the 2p^2 offset, a
// lane with re * l_re < im * y comes out negative whenever its
// reduction adds little, which a handful of extreme lanes can miss.
TEST(MillerIfmaTest, MulLineLanesMatchesFp2AtTheBounds) {
  if (!miller_ifma::Available()) GTEST_SKIP() << "no AVX-512 IFMA walk";
  PairingParamSpec spec;  // the perf-gate and svcbench group
  spec.p_prime_bits = 120;
  spec.q_prime_bits = 120;
  spec.seed = 20210323;
  const BigInt gate_p = GeneratePairingParams(spec).value().field_p;
  for (const BigInt& p : {TopFourLimbPrime(), gate_p}) {
    Fp fp = Fp::Create(p).value();
    Fp2 fp2 = Fp2::Create(fp).value();
    ASSERT_EQ(fp.num_limbs(), 4u);
    MillerPlan plan =
        MillerPlan::Create(fp, BigInt(1000003), MillerWalk::kIfma8).value();
    const BigInt r_inv =  // 2^-260 mod p
        BigInt::ModInverse(BigInt(1) << (kLimbs * kLimbBits), p).value();
    const BigInt pm1 = p - BigInt(1);
    const BigInt two_p = p * BigInt(2);
    const std::vector<BigInt> extremes = {BigInt(0), pm1, p,
                                          two_p - BigInt(1)};
    RandFn rand = TestRand(12);
    // Blocks 0-1: the 16 (re, im) combinations, l_re stepping down from
    // 3p - 1; blocks 2-9: random operands.
    for (size_t block = 0; block < 10; ++block) {
      uint64_t f[2 * kElemWords], line[2 * kElemWords], out[2 * kElemWords];
      BigInt re[kLanes], im[kLanes], l_re[kLanes], y[kLanes];
      for (size_t lane = 0; lane < kLanes; ++lane) {
        const size_t combo = block * kLanes + lane;
        if (block < 2) {
          re[lane] = extremes[combo / 4];
          im[lane] = extremes[combo % 4];
          l_re[lane] = p * BigInt(3) - BigInt(1 + int64_t(lane));
          y[lane] = pm1;
        } else {
          re[lane] = BigInt::RandomBelow(two_p, rand);
          im[lane] = BigInt::RandomBelow(two_p, rand);
          l_re[lane] = BigInt::RandomBelow(p * BigInt(3), rand);
          y[lane] = BigInt::RandomBelow(p, rand);
        }
        PutLane(re[lane], lane, f);
        PutLane(im[lane], lane, f + kElemWords);
        PutLane(l_re[lane], lane, line);
        PutLane(y[lane], lane, line + kElemWords);
      }
      miller_ifma::MulLineLanes(plan.lane_field(), f, line, out);
      for (size_t lane = 0; lane < kLanes; ++lane) {
        const BigInt got_re = GetLane(out, lane);
        const BigInt got_im = GetLane(out + kElemWords, lane);
        EXPECT_LT(BigInt::Cmp(got_re, two_p), 0) << "lane " << lane;
        EXPECT_LT(BigInt::Cmp(got_im, two_p), 0) << "lane " << lane;
        const Fp2Elem a{fp.FromBigInt(BigInt::Mod(re[lane], p)),
                        fp.FromBigInt(BigInt::Mod(im[lane], p))};
        const Fp2Elem b{fp.FromBigInt(BigInt::Mod(l_re[lane], p)),
                        fp.FromBigInt(y[lane])};
        Fp2Elem prod;
        fp2.Mul(a, b, &prod);
        const BigInt want_re = BigInt::Mod(fp.ToBigInt(prod.re) * r_inv, p);
        const BigInt want_im = BigInt::Mod(fp.ToBigInt(prod.im) * r_inv, p);
        EXPECT_EQ(BigInt::Cmp(BigInt::Mod(got_re, p), want_re), 0)
            << "block " << block << " lane " << lane;
        EXPECT_EQ(BigInt::Cmp(BigInt::Mod(got_im, p), want_im), 0)
            << "block " << block << " lane " << lane;
      }
    }
  }
}

// The walk's merged step product at the extremes of its documented
// bounds: re and im in {0, p-1, p, 2p-1}, A..E = p-1, xq just below 16p,
// y, xq^2 and xq y = p-1 and -y^2 = p (its ceiling), where the real
// part's sum of products reaches 17p^2 and both Karatsuba sums their
// ceilings; then random operands across the same ranges. The outputs
// must stay below 2p and equal the F_p^2 product of (re + im i) and
// l_re + l_im i, each reduction contributing its 2^-260.
TEST(MillerIfmaTest, MulMergedLanesMatchesFp2AtTheBounds) {
  if (!miller_ifma::Available()) GTEST_SKIP() << "no AVX-512 IFMA walk";
  PairingParamSpec spec;  // the perf-gate and svcbench group
  spec.p_prime_bits = 120;
  spec.q_prime_bits = 120;
  spec.seed = 20210323;
  const BigInt gate_p = GeneratePairingParams(spec).value().field_p;
  for (const BigInt& p : {TopFourLimbPrime(), gate_p}) {
    Fp fp = Fp::Create(p).value();
    Fp2 fp2 = Fp2::Create(fp).value();
    MillerPlan plan =
        MillerPlan::Create(fp, BigInt(1000003), MillerWalk::kIfma8).value();
    const BigInt r_inv =  // 2^-260 mod p
        BigInt::ModInverse(BigInt(1) << (kLimbs * kLimbBits), p).value();
    const BigInt pm1 = p - BigInt(1);
    const BigInt two_p = p * BigInt(2);
    const BigInt sixteen_p = p * BigInt(16);
    const std::vector<BigInt> extremes = {BigInt(0), pm1, p,
                                          two_p - BigInt(1)};
    RandFn rand = TestRand(13);
    for (size_t block = 0; block < 10; ++block) {
      uint64_t f[2 * kElemWords], rec[5 * kElemWords],
          coords[5 * kElemWords], out[2 * kElemWords];
      BigInt re[kLanes], im[kLanes], r[kLanes][5], q[kLanes][5];
      for (size_t lane = 0; lane < kLanes; ++lane) {
        const size_t combo = block * kLanes + lane;
        if (block < 2) {
          re[lane] = extremes[combo / 4];
          im[lane] = extremes[combo % 4];
          for (size_t e = 0; e < 5; ++e) r[lane][e] = pm1;
          q[lane][0] = sixteen_p - BigInt(1 + int64_t(lane));  // xq
          q[lane][1] = pm1;                                     // y
          q[lane][2] = pm1;                                     // xq^2
          q[lane][3] = p;                                       // -y^2
          q[lane][4] = pm1;                                     // xq y
        } else {
          re[lane] = BigInt::RandomBelow(two_p, rand);
          im[lane] = BigInt::RandomBelow(two_p, rand);
          for (size_t e = 0; e < 5; ++e) {
            r[lane][e] = BigInt::RandomBelow(p, rand);
          }
          q[lane][0] = BigInt::RandomBelow(sixteen_p, rand);
          q[lane][1] = BigInt::RandomBelow(p, rand);
          q[lane][2] = BigInt::RandomBelow(p, rand);
          q[lane][3] = BigInt::RandomBelow(p, rand) + BigInt(1);
          q[lane][4] = BigInt::RandomBelow(p, rand);
        }
        PutLane(re[lane], lane, f);
        PutLane(im[lane], lane, f + kElemWords);
        for (size_t e = 0; e < 5; ++e) {
          PutLane(r[lane][e], lane, rec + e * kElemWords);
          PutLane(q[lane][e], lane, coords + e * kElemWords);
        }
      }
      miller_ifma::MulMergedLanes(plan.lane_field(), f, rec, coords, out);
      for (size_t lane = 0; lane < kLanes; ++lane) {
        const BigInt* a = r[lane];
        const BigInt* x = q[lane];
        const BigInt l_re = BigInt::Mod(
            (a[0] * x[2] + a[1] * x[0]) * r_inv + a[2] + x[3], p);
        const BigInt l_im = BigInt::Mod((a[3] * x[4] + a[4] * x[1]) * r_inv, p);
        const Fp2Elem fa{fp.FromBigInt(BigInt::Mod(re[lane], p)),
                         fp.FromBigInt(BigInt::Mod(im[lane], p))};
        const Fp2Elem fb{fp.FromBigInt(l_re), fp.FromBigInt(l_im)};
        Fp2Elem prod;
        fp2.Mul(fa, fb, &prod);
        const BigInt want_re = BigInt::Mod(fp.ToBigInt(prod.re) * r_inv, p);
        const BigInt want_im = BigInt::Mod(fp.ToBigInt(prod.im) * r_inv, p);
        const BigInt got_re = GetLane(out, lane);
        const BigInt got_im = GetLane(out + kElemWords, lane);
        EXPECT_LT(BigInt::Cmp(got_re, two_p), 0) << "lane " << lane;
        EXPECT_LT(BigInt::Cmp(got_im, two_p), 0) << "lane " << lane;
        EXPECT_EQ(BigInt::Cmp(BigInt::Mod(got_re, p), want_re), 0)
            << "block " << block << " lane " << lane;
        EXPECT_EQ(BigInt::Cmp(BigInt::Mod(got_im, p), want_im), 0)
            << "block " << block << " lane " << lane;
      }
    }
  }
}

// CompleteCoords derives xq^2, -y^2 and xq y from the caller's 16 * xq
// and y: canonical, in the walk's domain, at the bounds' extremes (xq =
// p-1 gives 16xq just below 16p) and at random residues.
TEST(MillerIfmaTest, CompleteCoordsDerivesTheMergedCoordinates) {
  if (!miller_ifma::Available()) GTEST_SKIP() << "no AVX-512 IFMA walk";
  const BigInt p = TopFourLimbPrime();
  Fp fp = Fp::Create(p).value();
  MillerPlan plan =
      MillerPlan::Create(fp, BigInt(1000003), MillerWalk::kIfma8).value();
  const BigInt r_inv =  // 2^-260 mod p
      BigInt::ModInverse(BigInt(1) << (kLimbs * kLimbBits), p).value();
  RandFn rand = TestRand(14);
  constexpr size_t kPairs = 2;
  std::vector<uint64_t> coords(kPairs * miller_ifma::kCoordWords);
  BigInt xq[kPairs][kLanes], y[kPairs][kLanes];
  for (size_t k = 0; k < kPairs; ++k) {
    for (size_t lane = 0; lane < kLanes; ++lane) {
      const bool edge = k == 0 && lane < 4;
      xq[k][lane] = (edge && lane % 2 == 0) ? p - BigInt(1)
                    : edge                  ? BigInt(0)
                                            : BigInt::RandomBelow(p, rand);
      y[k][lane] = (edge && lane < 2) ? p - BigInt(1)
                                      : BigInt::RandomBelow(p, rand);
      uint64_t* block = coords.data() + k * miller_ifma::kCoordWords;
      PutLane(xq[k][lane] * BigInt(16), lane, block);
      PutLane(y[k][lane], lane, block + kElemWords);
    }
  }
  miller_ifma::CompleteCoords(plan.lane_field(), kPairs, coords.data());
  for (size_t k = 0; k < kPairs; ++k) {
    const uint64_t* block = coords.data() + k * miller_ifma::kCoordWords;
    for (size_t lane = 0; lane < kLanes; ++lane) {
      const BigInt x16 = xq[k][lane] * BigInt(16);
      const BigInt& yy = y[k][lane];
      const BigInt want[3] = {
          BigInt::Mod(x16 * x16 * r_inv, p),
          p - BigInt::Mod(yy * yy * r_inv, p),
          BigInt::Mod(x16 * yy * r_inv, p)};
      for (size_t e = 0; e < 3; ++e) {
        EXPECT_EQ(BigInt::Cmp(GetLane(block + (2 + e) * kElemWords, lane),
                              want[e]),
                  0)
            << "pair " << k << " lane " << lane << " element " << e;
      }
    }
  }
}

// The whole walk at the top of the 4-limb range, where only the
// documented bounds keep every product under p * 2^260: arbitrary line
// coefficients and coordinates (extremes p-1 included, plus a trivial
// line) through both layouts, compared after the (p-1) power that
// erases F_p* factors, conj(f)/f.
TEST(MillerIfmaTest, LaneWalkMatchesScalarWalkAtTheTopOfTheRange) {
  if (!miller_ifma::Available()) GTEST_SKIP() << "no AVX-512 IFMA walk";
  const BigInt p = TopFourLimbPrime();
  Fp fp = Fp::Create(p).value();
  Fp2 fp2 = Fp2::Create(fp).value();
  const BigInt order = BigInt::FromU64(0xb7e151628aed2a6bULL);
  MillerPlan scalar = MillerPlan::Create(fp, order, MillerWalk::kScalar)
                          .value();
  MillerPlan lanes = MillerPlan::Create(fp, order, MillerWalk::kIfma8)
                         .value();
  RandFn rand = TestRand(23);
  const Fp::Elem top = fp.FromBigInt(p - BigInt(1));
  auto random_elem = [&]() {
    if (rand() % 4 == 0) return top;
    return fp.FromBigInt(BigInt::RandomBelow(p, rand));
  };
  // The schedule has -1 digits; the walk only tests for nonzero ones.
  ASSERT_NE(std::count(lanes.adds().begin(), lanes.adds().end(), -1), 0);
  // Trivial lines: line 5, and the doubling line of the first merged
  // step and the addition line of the second, which pack split.
  std::vector<size_t> trivial = {5};
  for (size_t s = 0, j = 0; s + 1 < lanes.adds().size(); ++s) {
    if (lanes.adds()[s] != 0 && trivial.size() < 3) {
      trivial.push_back(trivial.size() == 1 ? j : j + 1);
    }
    j += lanes.adds()[s] != 0 ? 2 : 1;
  }
  ASSERT_EQ(trivial.size(), 3u);
  constexpr size_t kPairs = 11;
  std::vector<MillerLineTable> scalar_tables, lane_tables;
  for (size_t k = 0; k < kPairs; ++k) {
    // A recorded chain with arbitrary coefficients; normalisation only
    // needs c_y != 0.
    MillerChain chain;
    Fp::Elem product = fp.One(), tmp;
    for (size_t j = 0; j < scalar.length(); ++j) {
      MillerChain::Line line{
          random_elem(), random_elem(), random_elem(),
          std::count(trivial.begin(), trivial.end(), j) != 0};
      if (fp.IsZero(line.c_y)) line.c_y = fp.One();
      if (!line.trivial) {
        fp.Mul(product, line.c_y, &tmp);
        product = tmp;
      }
      chain.prefix.push_back(product);
      chain.lines.push_back(std::move(line));
    }
    InvertMillerChains(fp, &chain, 1);
    scalar_tables.push_back(NormalizeMillerChain(fp, scalar, chain));
    lane_tables.push_back(NormalizeMillerChain(fp, lanes, chain));
    EXPECT_EQ(ExpectPackedRecordsMatchLines(fp, lanes, lane_tables.back(),
                                            scalar_tables.back()),
              2u);
  }
  std::vector<std::vector<Fp::Elem>> xs(kPairs), ys(kPairs);
  std::vector<LanePairingCoords> lane_pairs(kPairs);
  for (size_t k = 0; k < kPairs; ++k) {
    for (size_t lane = 0; lane < kLanes; ++lane) {
      xs[k].push_back(random_elem());
      ys[k].push_back(random_elem());
    }
    lane_pairs[k].table = &lane_tables[k];
    for (size_t lane = 0; lane < kLanes; ++lane) {
      lane_pairs[k].xq[lane] = &xs[k][lane];
      lane_pairs[k].y_im[lane] = &ys[k][lane];
    }
  }
  Fp2Elem out[kLanes];
  PairingScratch scratch;
  MultiMillerLoopLanes(fp2, lanes, lane_pairs, kLanes, out, &scratch);
  Curve curve = Curve::Create(fp, BigInt(1), BigInt(0)).value();
  for (size_t lane = 0; lane < kLanes; ++lane) {
    std::vector<PrecompiledPairingCoords> pairs;
    for (size_t k = 0; k < kPairs; ++k) {
      pairs.push_back(PrecompiledPairingCoords{&scalar_tables[k], xs[k][lane],
                                               ys[k][lane], false});
    }
    const Fp2Elem want = FinalExponentiation(
        fp2, MultiMillerLoopCoords(curve, fp2, scalar, pairs), BigInt(1));
    const Fp2Elem got = FinalExponentiation(fp2, out[lane], BigInt(1));
    EXPECT_TRUE(fp2.Equal(got, want)) << "lane " << lane;
  }
}

// Lane compilation at the top of the 4-limb range, where the lazy
// bounds of Chain8 and Normalize8 are tight and products land at or
// above p often: random points of y^2 = x^3 + x over an arbitrary
// schedule must compile to the scalar chain's tables, byte for byte.
TEST(MillerIfmaTest, LaneCompileMatchesScalarChainAtTheTopOfTheRange) {
  if (!miller_ifma::Available()) GTEST_SKIP() << "no AVX-512 IFMA walk";
  const BigInt p = TopFourLimbPrime();
  Fp fp = Fp::Create(p).value();
  Curve curve = Curve::Create(fp, BigInt(1), BigInt(0)).value();
  RandFn rand = TestRand(24);
  const BigInt order =
      (BigInt(1) << 239) + BigInt::RandomBelow(BigInt(1) << 239, rand);
  MillerPlan plan = MillerPlan::Create(fp, order, MillerWalk::kIfma8)
                        .value();
  std::vector<AffinePoint> points;
  for (size_t k = 0; k < 11; ++k) points.push_back(curve.RandomPoint(rand));
  std::vector<const AffinePoint*> ptrs;
  for (const AffinePoint& a : points) ptrs.push_back(&a);
  std::vector<MillerLineTable> lanes(points.size());
  MillerCompileScratch scratch;
  CompileMillerTables(curve, plan, ptrs.data(), ptrs.size(), lanes.data(),
                      &scratch);
  for (size_t k = 0; k < points.size(); ++k) {
    EXPECT_TRUE(lanes[k] == PrecompileMillerLines(curve, plan, points[k]))
        << "point " << k;
  }
}

// ---------- Lane walk vs scalar walk, per F_p kernel ----------

class LaneWalkTest : public ::testing::TestWithParam<KernelDispatch> {
 protected:
  void SetUp() override {
    if (!miller_ifma::Available()) GTEST_SKIP() << "no AVX-512 IFMA walk";
    group_ = FourLimbGroup(GetParam());
    ASSERT_EQ(group_->fp().num_limbs(), 4u);
    const bool lanes = GetParam() == KernelDispatch::kAuto;
    EXPECT_EQ(group_->miller_plan().walk(),
              lanes ? MillerWalk::kIfma8 : MillerWalk::kScalar);
  }

  AffinePoint RandomElement(const RandFn& rand) const {
    return group_->Mul(BigInt::RandomBelow(group_->params().n, rand),
                       group_->gen());
  }

  Fp2Elem FinalExp(const Fp2Elem& f) const {
    return FinalExponentiation(group_->fp2(), f, group_->params().cofactor);
  }

  std::unique_ptr<PairingGroup> group_;
};

TEST_P(LaneWalkTest, LaneWalkMatchesScalarWalkAfterFinalExp) {
  const Fp& fp = group_->fp();
  const BigInt& n = group_->params().n;
  MillerPlan scalar = MillerPlan::Create(fp, n, MillerWalk::kScalar).value();
  MillerPlan lanes = MillerPlan::Create(fp, n, MillerWalk::kIfma8).value();
  RandFn rand = TestRand(21);
  // Three fixed sides (one inverted), eight evaluation points each.
  constexpr size_t kPairs = 3;
  std::vector<MillerLineTable> scalar_tables, lane_tables;
  std::vector<std::vector<Fp::Elem>> xs(kPairs), ys(kPairs);
  for (size_t k = 0; k < kPairs; ++k) {
    AffinePoint a = RandomElement(rand);
    scalar_tables.push_back(
        PrecompileMillerLines(group_->curve(), scalar, a));
    lane_tables.push_back(PrecompileMillerLines(group_->curve(), lanes, a));
    EXPECT_FALSE(scalar_tables.back().packed());
    EXPECT_TRUE(lane_tables.back().packed());
    for (size_t lane = 0; lane < kLanes; ++lane) {
      AffinePoint b = RandomElement(rand);
      Fp::Elem xq, y_im = b.y;
      fp.Neg(b.x, &xq);
      if (k == 2) fp.Neg(b.y, &y_im);
      xs[k].push_back(xq);
      ys[k].push_back(y_im);
    }
  }
  std::vector<LanePairingCoords> lane_pairs(kPairs);
  for (size_t k = 0; k < kPairs; ++k) {
    lane_pairs[k].table = &lane_tables[k];
    for (size_t lane = 0; lane < kLanes; ++lane) {
      lane_pairs[k].xq[lane] = &xs[k][lane];
      lane_pairs[k].y_im[lane] = &ys[k][lane];
    }
  }
  Fp2Elem out[kLanes];
  PairingScratch scratch;
  MultiMillerLoopLanes(group_->fp2(), lanes, lane_pairs, kLanes, out,
                       &scratch);
  for (size_t lane = 0; lane < kLanes; ++lane) {
    std::vector<PrecompiledPairingCoords> pairs;
    for (size_t k = 0; k < kPairs; ++k) {
      pairs.push_back(PrecompiledPairingCoords{&scalar_tables[k], xs[k][lane],
                                               ys[k][lane], false});
    }
    const Fp2Elem want = FinalExp(MultiMillerLoopCoords(
        group_->curve(), group_->fp2(), scalar, pairs));
    EXPECT_TRUE(group_->GtEqual(FinalExp(out[lane]), want)) << "lane " << lane;
    // The scalar walk over the packed tables is bit-identical to the
    // scalar layout's: packing is a pure re-split.
    for (size_t k = 0; k < kPairs; ++k) pairs[k].table = &lane_tables[k];
    const Fp2Elem packed = MultiMillerLoopCoords(
        group_->curve(), group_->fp2(), lanes, pairs);
    for (size_t k = 0; k < kPairs; ++k) pairs[k].table = &scalar_tables[k];
    EXPECT_TRUE(group_->fp2().Equal(
        packed, MultiMillerLoopCoords(group_->curve(), group_->fp2(), scalar,
                                      pairs)))
        << "lane " << lane;
  }
}

TEST_P(LaneWalkTest, TablesIdenticalAtOneAndFourThreads) {
  RandFn rand = TestRand(22);
  hve::KeyPair keys = hve::Setup(*group_, 4, rand).value();
  std::vector<hve::Token> tokens;
  for (const char* pattern : {"0*1*", "****", "1101"}) {
    tokens.push_back(hve::GenToken(*group_, keys.sk, pattern, rand).value());
  }
  std::vector<const hve::Token*> ptrs;
  for (const hve::Token& t : tokens) ptrs.push_back(&t);
  auto serial = hve::PrecompileTokens(*group_, ptrs, 1);
  auto parallel = hve::PrecompileTokens(*group_, ptrs, 4);
  ASSERT_EQ(serial.size(), tokens.size());
  ASSERT_EQ(parallel.size(), tokens.size());
  for (size_t t = 0; t < tokens.size(); ++t) {
    const hve::PrecompiledToken single =
        hve::PrecompileToken(*group_, tokens[t]);
    EXPECT_EQ(serial[t].positions, parallel[t].positions);
    EXPECT_TRUE(serial[t].k0 == parallel[t].k0);
    EXPECT_TRUE(serial[t].k1 == parallel[t].k1);
    EXPECT_TRUE(serial[t].k2 == parallel[t].k2);
    EXPECT_TRUE(single.k0 == serial[t].k0);
    EXPECT_TRUE(single.k1 == serial[t].k1);
    EXPECT_TRUE(single.k2 == serial[t].k2);
    EXPECT_EQ(serial[t].k0.packed(),
              group_->miller_plan().walk() == MillerWalk::kIfma8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, LaneWalkTest,
    ::testing::Values(KernelDispatch::kAuto, KernelDispatch::kPortableOnly,
                      KernelDispatch::kGenericOnly),
    [](const ::testing::TestParamInfo<KernelDispatch>& info) {
      switch (info.param) {
        case KernelDispatch::kAuto:
          return std::string("Auto");
        case KernelDispatch::kPortableOnly:
          return std::string("PortableOnly");
        case KernelDispatch::kGenericOnly:
          return std::string("GenericOnly");
      }
      return std::string("Unknown");
    });

// ---------- Lane-compiled tables vs the scalar chain ----------

class LaneCompileTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (!miller_ifma::Available()) return;
    group_ = FourLimbGroup(KernelDispatch::kAuto).release();
  }
  static void TearDownTestSuite() {
    delete group_;
    group_ = nullptr;
  }
  void SetUp() override {
    if (!miller_ifma::Available()) GTEST_SKIP() << "no AVX-512 IFMA walk";
    ASSERT_EQ(group_->miller_plan().walk(), MillerWalk::kIfma8);
  }

  /// Lane-compiles `points` in one call and checks every table against
  /// the scalar chain's.
  void ExpectLaneTablesMatch(const std::vector<AffinePoint>& points,
                             const std::string& what) {
    const Curve& curve = group_->curve();
    const MillerPlan& plan = group_->miller_plan();
    std::vector<const AffinePoint*> ptrs;
    for (const AffinePoint& a : points) ptrs.push_back(&a);
    std::vector<MillerLineTable> lanes(points.size());
    MillerCompileScratch scratch;
    CompileMillerTables(curve, plan, ptrs.data(), ptrs.size(), lanes.data(),
                        &scratch);
    const MillerPlan scalar =
        MillerPlan::Create(group_->fp(), group_->params().n,
                           MillerWalk::kScalar)
            .value();
    for (size_t k = 0; k < points.size(); ++k) {
      const MillerLineTable want =
          PrecompileMillerLines(curve, plan, points[k]);
      EXPECT_TRUE(lanes[k] == want) << what << ": point " << k;
      EXPECT_EQ(lanes[k].packed(), !points[k].infinity) << what;
      if (!lanes[k].packed()) continue;
      SCOPED_TRACE(what + ": point " + std::to_string(k));
      ExpectPackedRecordsMatchLines(
          group_->fp(), plan, lanes[k],
          PrecompileMillerLines(curve, scalar, points[k]));
    }
  }

  /// A point of order dividing `ell` (ell | p + 1), or the identity.
  AffinePoint SmallOrderPoint(uint64_t ell, const RandFn& rand) const {
    const BigInt curve_order = group_->params().field_p + BigInt(1);
    const BigInt ell_big = BigInt::FromU64(ell);
    EXPECT_TRUE(BigInt::Mod(curve_order, ell_big).IsZero());
    return group_->curve().ScalarMul(curve_order / ell_big,
                                     group_->curve().RandomPoint(rand));
  }

  static PairingGroup* group_;
};

PairingGroup* LaneCompileTest::group_ = nullptr;

TEST_F(LaneCompileTest, SubgroupPointsMatchTheScalarChain) {
  RandFn rand = TestRand(51);
  const BigInt& n = group_->params().n;
  std::vector<AffinePoint> points = {
      group_->RandomGp(rand), group_->RandomGq(rand),
      group_->Mul(BigInt::RandomBelow(n, rand), group_->gen()),
      group_->gen_p(), group_->gen_q(), group_->gen(),
      group_->curve().Infinity(),
      group_->curve().Neg(group_->RandomGp(rand)),
      group_->RandomGq(rand), group_->RandomGp(rand)};
  ExpectLaneTablesMatch(points, "subgroup points");
  // Every chain of a point whose order divides n closes with the
  // vertical line T = -A, which the lanes record as trivial.
  const MillerPlan& plan = group_->miller_plan();
  ASSERT_NE(plan.adds().back(), 0);
  std::vector<const AffinePoint*> ptrs = {&points[0], &points[1],
                                          &points[2]};
  std::vector<MillerLineTable> tables(ptrs.size());
  MillerCompileScratch scratch;
  CompileMillerTables(group_->curve(), plan, ptrs.data(), ptrs.size(),
                      tables.data(), &scratch);
  for (const MillerLineTable& table : tables) {
    const uint64_t* last =
        table.packed_lines().data() + plan.packed_words() - kLineWords;
    EXPECT_EQ(last[0], miller_ifma::kTrivialLine);
    for (size_t w = 1; w < kLineWords; ++w) EXPECT_EQ(last[w], 0u);
  }
}

TEST_F(LaneCompileTest, AnyCurvePointMatchesTheScalarChain) {
  // Parsed tokens may carry any curve point. Points outside the order-n
  // subgroup do not close with a vertical line; points of small order
  // meet infinity, tangents and verticals mid-chain (2-torsion in a
  // doubling, T = +-A in an addition), which the lanes hand back to the
  // scalar chain. Mixed into one lane group with regular points, those
  // lanes must not disturb the others.
  RandFn rand = TestRand(52);
  const Curve& curve = group_->curve();
  const BigInt curve_order = group_->params().field_p + BigInt(1);
  std::vector<AffinePoint> points = {curve.RandomPoint(rand),
                                     group_->RandomGp(rand),
                                     curve.RandomPoint(rand)};
  points.push_back(curve.MakePoint(BigInt(0), BigInt(0)).value());  // 2-torsion
  // p = 3 (mod 4), so 4 | p + 1; other small orders when they divide it.
  for (uint64_t ell : {uint64_t(4), uint64_t(4), uint64_t(3), uint64_t(5),
                       uint64_t(8), uint64_t(12)}) {
    if (!BigInt::Mod(curve_order, BigInt::FromU64(ell)).IsZero()) continue;
    points.push_back(SmallOrderPoint(ell, rand));
  }
  // A point of order dividing the cofactor times a subgroup point.
  points.push_back(group_->Add(SmallOrderPoint(4, rand),
                               group_->RandomGq(rand)));
  points.push_back(group_->RandomGq(rand));
  ASSERT_GE(points.size(), 8u);
  ExpectLaneTablesMatch(points, "any curve point");
}

TEST_F(LaneCompileTest, PartialLaneGroupsOfOneToNineChains) {
  RandFn rand = TestRand(53);
  std::vector<AffinePoint> pool;
  for (size_t k = 0; k < 9; ++k) {
    pool.push_back(k % 2 == 0 ? group_->RandomGp(rand)
                              : group_->RandomGq(rand));
  }
  for (size_t count = 1; count <= 9; ++count) {
    std::vector<AffinePoint> points(pool.begin(), pool.begin() + count);
    ExpectLaneTablesMatch(points, std::to_string(count) + " chains");
  }
}

TEST_F(LaneCompileTest, TokenBundlesMatchAtOneTwoAndFourThreads) {
  RandFn rand = TestRand(54);
  hve::KeyPair keys = hve::Setup(*group_, 6, rand).value();
  std::vector<hve::Token> tokens;
  for (const char* pattern :
       {"0*1*10", "******", "110101", "*0****", "01*0*1"}) {
    tokens.push_back(hve::GenToken(*group_, keys.sk, pattern, rand).value());
  }
  tokens[4].k1[1] = group_->curve().Infinity();  // a trivial table
  std::vector<const hve::Token*> ptrs;
  for (const hve::Token& t : tokens) ptrs.push_back(&t);
  const Curve& curve = group_->curve();
  const MillerPlan& plan = group_->miller_plan();
  for (unsigned threads : {1u, 2u, 4u}) {
    const std::vector<hve::PrecompiledToken> compiled =
        hve::PrecompileTokens(*group_, ptrs, threads);
    ASSERT_EQ(compiled.size(), tokens.size());
    for (size_t t = 0; t < tokens.size(); ++t) {
      const hve::Token& token = tokens[t];
      const hve::PrecompiledToken& got = compiled[t];
      ASSERT_EQ(got.k1.size(), token.k1.size());
      EXPECT_TRUE(got.k0 == PrecompileMillerLines(curve, plan, token.k0))
          << "threads=" << threads << " token " << t;
      for (size_t j = 0; j < token.k1.size(); ++j) {
        EXPECT_TRUE(got.k1[j] ==
                    PrecompileMillerLines(curve, plan, token.k1[j]))
            << "threads=" << threads << " token " << t << " k1 " << j;
        EXPECT_TRUE(got.k2[j] ==
                    PrecompileMillerLines(curve, plan, token.k2[j]))
            << "threads=" << threads << " token " << t << " k2 " << j;
      }
    }
  }
}

// Under the signed-digit schedule a -1 digit adds -A. In a group whose
// cofactor (36) gives points of order 3, the accumulated multiple after
// a doubling is +-1 mod 3 whenever it is not 0, so a -1 digit meets
// T = +-A mid-chain: a vertical (T = A) or a tangent (T = -A), where
// the lane's c_y is zero and the chain is recompiled on the scalar
// path. Mixed into lane groups with regular points, every table must
// match the scalar chain's, and the lane walk over it must give Pair()
// after the final exponentiation.
TEST(MillerIfmaTest, MinusOneDigitMeetingPlusMinusATakesTheScalarChain) {
  if (!miller_ifma::Available()) GTEST_SKIP() << "no AVX-512 IFMA walk";
  PairingParamSpec spec;
  spec.p_prime_bits = 100;
  spec.q_prime_bits = 100;
  spec.seed = 4;
  const PairingGroup group = PairingGroup::Generate(spec).value();
  const MillerPlan& plan = group.miller_plan();
  ASSERT_EQ(plan.walk(), MillerWalk::kIfma8);
  const Curve& curve = group.curve();
  const BigInt curve_order = group.params().field_p + BigInt(1);
  ASSERT_TRUE(BigInt::Mod(curve_order, BigInt(3)).IsZero());
  bool met = false;
  uint64_t m = 1;
  for (int8_t d : plan.adds()) {
    m = (2 * m) % 3;
    if (d < 0 && m != 0) met = true;
    m = (m + 3 + uint64_t(int64_t(d))) % 3;
  }
  ASSERT_TRUE(met);
  // Like the perf-gate group's, this n is 3 (mod 4), so its NAF ends
  // in -1: an order-n chain closes with the vertical through T = A and
  // -A, which the lanes record themselves.
  ASSERT_EQ(plan.adds().back(), -1);

  RandFn rand = TestRand(55);
  auto order3 = [&]() {
    AffinePoint a;
    do {
      a = curve.ScalarMul(curve_order / BigInt(3), curve.RandomPoint(rand));
    } while (a.infinity);
    return a;
  };
  const AffinePoint a3 = order3();
  std::vector<AffinePoint> points = {
      group.RandomGp(rand), a3, group.RandomGq(rand), curve.Neg(a3),
      group.Mul(BigInt::RandomBelow(group.params().n, rand), group.gen()),
      order3(), curve.RandomPoint(rand),
      group.Add(order3(), group.RandomGq(rand)), order3(),
      group.RandomGp(rand)};
  std::vector<const AffinePoint*> ptrs;
  for (const AffinePoint& a : points) ptrs.push_back(&a);
  std::vector<MillerLineTable> tables(points.size());
  MillerCompileScratch scratch;
  CompileMillerTables(curve, plan, ptrs.data(), ptrs.size(), tables.data(),
                      &scratch);
  const Fp& fp = group.fp();
  std::vector<AffinePoint> bs;
  std::vector<Fp::Elem> xs(kLanes), ys(kLanes);
  for (size_t lane = 0; lane < kLanes; ++lane) {
    bs.push_back(group.Mul(BigInt::RandomBelow(group.params().n, rand),
                           group.gen()));
    fp.Neg(bs[lane].x, &xs[lane]);
    ys[lane] = bs[lane].y;
  }
  PairingScratch walk_scratch;
  for (const size_t k : {size_t(0), size_t(2), size_t(4)}) {  // order | n
    const uint64_t* last =
        tables[k].packed_lines().data() + plan.packed_words() - kLineWords;
    EXPECT_EQ(last[0], miller_ifma::kTrivialLine) << "point " << k;
  }
  // The order-3 chains meet T = +-A, the scalar chain records a trivial
  // line there, and that merged step is packed split.
  const MillerPlan scalar =
      MillerPlan::Create(fp, group.params().n, MillerWalk::kScalar).value();
  size_t splits = 0;
  for (const size_t k : {size_t(1), size_t(3), size_t(5), size_t(8)}) {
    splits += ExpectPackedRecordsMatchLines(
        fp, plan, tables[k], PrecompileMillerLines(curve, scalar, points[k]));
  }
  EXPECT_GT(splits, 0u);
  for (size_t k = 0; k < points.size(); ++k) {
    EXPECT_TRUE(tables[k] == PrecompileMillerLines(curve, plan, points[k]))
        << "point " << k;
    std::vector<LanePairingCoords> pairs(1);
    pairs[0].table = &tables[k];
    for (size_t lane = 0; lane < kLanes; ++lane) {
      pairs[0].xq[lane] = &xs[lane];
      pairs[0].y_im[lane] = &ys[lane];
    }
    Fp2Elem out[kLanes];
    MultiMillerLoopLanes(group.fp2(), plan, pairs, kLanes, out,
                         &walk_scratch);
    for (size_t lane = 0; lane < kLanes; ++lane) {
      const Fp2Elem got = FinalExponentiation(group.fp2(), out[lane],
                                              group.params().cofactor);
      EXPECT_TRUE(group.GtEqual(got, group.Pair(points[k], bs[lane])))
          << "point " << k << " lane " << lane;
    }
  }
}

// ---------- Batched view queries on an ifma8 group ----------

class LaneViewsTest : public ::testing::Test {
 protected:
  static constexpr size_t kWidth = 6;

  static void SetUpTestSuite() {
    if (!miller_ifma::Available()) return;
    group_ = FourLimbGroup(KernelDispatch::kAuto).release();
    RandFn rand = TestRand(31);
    keys_ = new hve::KeyPair(hve::Setup(*group_, kWidth, rand).value());
    marker_ = new Fp2Elem(group_->RandomGt(rand));
    cts_ = new std::vector<hve::Ciphertext>();
    Rng bits(32);
    for (size_t i = 0; i < 17; ++i) {
      std::string index(kWidth, '0');
      for (auto& c : index) c = bits.NextBool() ? '1' : '0';
      if (i % 3 == 0) index.replace(0, 3, "010");  // matches "01*0**"
      cts_->push_back(
          hve::Encrypt(*group_, keys_->pk, index, *marker_, rand).value());
    }
  }
  static void TearDownTestSuite() {
    delete cts_;
    delete marker_;
    delete keys_;
    delete group_;
    cts_ = nullptr;
    marker_ = nullptr;
    keys_ = nullptr;
    group_ = nullptr;
  }
  void SetUp() override {
    if (!miller_ifma::Available()) GTEST_SKIP() << "no AVX-512 IFMA walk";
    ASSERT_EQ(group_->miller_plan().walk(), MillerWalk::kIfma8);
  }

  /// Runs the batched query over cts[0..count) and checks every ratio
  /// against the per-view scalar walk and the reference Query.
  void CheckViews(const hve::Token& token, size_t count,
                  const std::vector<hve::Ciphertext>& cts) {
    const hve::PrecompiledToken compiled =
        hve::PrecompileToken(*group_, token);
    const hve::EvalLayout layout = hve::MakeEvalLayout(kWidth, {&compiled});
    std::vector<hve::EvalView> views(count);
    std::vector<const hve::EvalView*> ptrs;
    for (size_t i = 0; i < count; ++i) {
      ASSERT_TRUE(hve::MakeEvalView(*group_, layout, cts[i], &views[i]).ok());
      ptrs.push_back(&views[i]);
    }
    hve::QueryScratch scratch;
    std::vector<Fp2Elem> batched;
    group_->ResetCounters();
    ASSERT_TRUE(hve::QueryMillerPrecompiledViews(*group_, compiled, layout,
                                                 ptrs, &batched, &scratch)
                    .ok());
    const uint64_t batched_pairings = group_->counters().pairings;
    ASSERT_EQ(batched.size(), count);
    std::vector<Fp2Elem> scalar;
    group_->ResetCounters();
    for (size_t i = 0; i < count; ++i) {
      scalar.push_back(hve::QueryMillerPrecompiledView(*group_, compiled,
                                                       layout, views[i],
                                                       &scratch)
                           .value());
    }
    EXPECT_EQ(group_->counters().pairings, batched_pairings);
    BatchFinalExponentiation(group_->fp2(), group_->params().cofactor,
                             &batched);
    BatchFinalExponentiation(group_->fp2(), group_->params().cofactor,
                             &scalar);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(group_->GtEqual(batched[i], scalar[i]))
          << "view " << i << " of " << count;
      const Fp2Elem recovered =
          group_->GtMul(cts[i].c_prime, group_->GtInv(batched[i]));
      EXPECT_TRUE(group_->GtEqual(
          recovered, hve::Query(*group_, token, cts[i]).value()))
          << "view " << i << " of " << count;
    }
  }

  static PairingGroup* group_;
  static hve::KeyPair* keys_;
  static Fp2Elem* marker_;
  static std::vector<hve::Ciphertext>* cts_;
};

PairingGroup* LaneViewsTest::group_ = nullptr;
hve::KeyPair* LaneViewsTest::keys_ = nullptr;
Fp2Elem* LaneViewsTest::marker_ = nullptr;
std::vector<hve::Ciphertext>* LaneViewsTest::cts_ = nullptr;

TEST_F(LaneViewsTest, AnyNumberOfAliveLanes) {
  RandFn rand = TestRand(41);
  hve::Token token = hve::GenToken(*group_, keys_->sk, "01*0**", rand).value();
  for (size_t count : {size_t(1), size_t(7), size_t(8), size_t(9),
                       size_t(17)}) {
    CheckViews(token, count, *cts_);
  }
}

TEST_F(LaneViewsTest, AllStarToken) {
  RandFn rand = TestRand(42);
  hve::Token token =
      hve::GenToken(*group_, keys_->sk, std::string(kWidth, '*'), rand)
          .value();
  CheckViews(token, 9, *cts_);
}

TEST_F(LaneViewsTest, TrivialTablesAreSkipped) {
  // A token point at infinity compiles to a trivial table: that pair
  // contributes 1 in every walk.
  RandFn rand = TestRand(43);
  hve::Token token = hve::GenToken(*group_, keys_->sk, "1**01*", rand).value();
  token.k2[1] = group_->curve().Infinity();
  const hve::PrecompiledToken compiled = hve::PrecompileToken(*group_, token);
  ASSERT_TRUE(compiled.k2[1].trivial());
  CheckViews(token, 9, *cts_);
}

TEST_F(LaneViewsTest, IdentityColumnTakesTheScalarWalk) {
  // Views 3 and 12 carry an identity point in a column the token reads:
  // their lane groups (0-7 and 8-15) walk scalar, group 16 walks lanes.
  RandFn rand = TestRand(44);
  hve::Token token = hve::GenToken(*group_, keys_->sk, "0**1*1", rand).value();
  std::vector<hve::Ciphertext> cts = *cts_;
  cts[3].c1[3] = group_->curve().Infinity();
  cts[12].c0 = group_->curve().Infinity();
  CheckViews(token, 17, cts);
  // A column the token does not read keeps the lanes.
  cts = *cts_;
  cts[5].c2[1] = group_->curve().Infinity();
  CheckViews(token, 8, cts);
}

}  // namespace
}  // namespace sloc
