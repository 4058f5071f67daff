// Tests for Montgomery-form modular arithmetic.

#include <gtest/gtest.h>

#include <memory>

#include "bigint/montgomery.h"
#include "common/rng.h"

namespace sloc {
namespace {

RandFn TestRand(uint64_t seed = 42) {
  auto rng = std::make_shared<Rng>(seed);
  return [rng]() { return rng->NextU64(); };
}

TEST(MontgomeryTest, RejectsBadModuli) {
  EXPECT_FALSE(Montgomery::Create(BigInt(0)).ok());
  EXPECT_FALSE(Montgomery::Create(BigInt(1)).ok());
  EXPECT_FALSE(Montgomery::Create(BigInt(10)).ok());  // even
  EXPECT_FALSE(Montgomery::Create(BigInt(-7)).ok());
  EXPECT_TRUE(Montgomery::Create(BigInt(7)).ok());
}

TEST(MontgomeryTest, RoundTripConversion) {
  auto ctx = Montgomery::Create(BigInt(1000003)).value();
  for (int64_t v : {0, 1, 2, 999999, 1000002}) {
    EXPECT_EQ(ctx.FromMont(ctx.ToMont(BigInt(v))).ToDecimal(),
              BigInt(v).ToDecimal());
  }
  // Values are reduced on the way in.
  EXPECT_EQ(ctx.FromMont(ctx.ToMont(BigInt(1000003 + 5))).ToDecimal(), "5");
  EXPECT_EQ(ctx.FromMont(ctx.ToMont(BigInt(-1))).ToDecimal(), "1000002");
}

TEST(MontgomeryTest, OneIsMultiplicativeIdentity) {
  auto ctx = Montgomery::Create(BigInt(97)).value();
  auto x = ctx.ToMont(BigInt(55));
  Montgomery::Elem out;
  ctx.Mul(x, ctx.One(), &out);
  EXPECT_TRUE(ctx.Equal(out, x));
}

TEST(MontgomeryTest, MulMatchesBigIntModMul) {
  RandFn rand = TestRand(5);
  // 640 bits = 10 limbs: past LimbVec's 8 inline limbs, so the generic
  // kernel's Redc product row takes the heap-spill path.
  for (size_t mod_bits : {64u, 127u, 256u, 512u, 640u}) {
    BigInt m = BigInt::Random(mod_bits, rand);
    if (!m.IsOdd()) m = m + BigInt(1);
    auto ctx = Montgomery::Create(m).value();
    for (int i = 0; i < 15; ++i) {
      BigInt a = BigInt::RandomBelow(m, rand);
      BigInt b = BigInt::RandomBelow(m, rand);
      Montgomery::Elem out;
      ctx.Mul(ctx.ToMont(a), ctx.ToMont(b), &out);
      EXPECT_EQ(ctx.FromMont(out), BigInt::ModMul(a, b, m))
          << "mod_bits=" << mod_bits;
    }
  }
}

TEST(MontgomeryTest, AddSubNegConsistent) {
  RandFn rand = TestRand(6);
  BigInt m = BigInt::Random(192, rand);
  if (!m.IsOdd()) m = m + BigInt(1);
  auto ctx = Montgomery::Create(m).value();
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::RandomBelow(m, rand);
    BigInt b = BigInt::RandomBelow(m, rand);
    auto ea = ctx.ToMont(a), eb = ctx.ToMont(b);
    Montgomery::Elem sum, diff, neg;
    ctx.Add(ea, eb, &sum);
    ctx.Sub(ea, eb, &diff);
    ctx.Neg(eb, &neg);
    EXPECT_EQ(ctx.FromMont(sum), BigInt::ModAdd(a, b, m));
    EXPECT_EQ(ctx.FromMont(diff), BigInt::ModSub(a, b, m));
    EXPECT_EQ(ctx.FromMont(neg), BigInt::Mod(-b, m));
    // a - b + b == a
    Montgomery::Elem back;
    ctx.Add(diff, eb, &back);
    EXPECT_TRUE(ctx.Equal(back, ea));
  }
}

TEST(MontgomeryTest, NegZeroIsZero) {
  auto ctx = Montgomery::Create(BigInt(97)).value();
  Montgomery::Elem out;
  ctx.Neg(ctx.Zero(), &out);
  EXPECT_TRUE(ctx.IsZero(out));
}

TEST(MontgomeryTest, AddNearModulusWraps) {
  // Exercises the conditional subtraction in Add.
  auto m = BigInt::FromDecimal("170141183460469231731687303715884105727");
  auto ctx = Montgomery::Create(*m).value();
  BigInt big = *m - BigInt(1);
  Montgomery::Elem out;
  ctx.Add(ctx.ToMont(big), ctx.ToMont(big), &out);
  EXPECT_EQ(ctx.FromMont(out), *m - BigInt(2));
}

TEST(MontgomeryTest, PowMatchesModPow) {
  RandFn rand = TestRand(8);
  BigInt m = BigInt::Random(160, rand);
  if (!m.IsOdd()) m = m + BigInt(1);
  auto ctx = Montgomery::Create(m).value();
  for (int i = 0; i < 10; ++i) {
    BigInt base = BigInt::RandomBelow(m, rand);
    BigInt exp = BigInt::Random(80, rand);
    EXPECT_EQ(ctx.FromMont(ctx.Pow(ctx.ToMont(base), exp)),
              BigInt::ModPow(base, exp, m));
  }
}

TEST(MontgomeryTest, PowZeroExponentIsOne) {
  auto ctx = Montgomery::Create(BigInt(101)).value();
  auto r = ctx.Pow(ctx.ToMont(BigInt(17)), BigInt(0));
  EXPECT_TRUE(ctx.FromMont(r).IsOne());
}

}  // namespace
}  // namespace sloc
