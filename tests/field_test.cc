// Tests for F_p and F_p^2 field arithmetic.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bigint/prime.h"
#include "common/check.h"
#include "common/rng.h"
#include "field/fp.h"
#include "field/fp2.h"

namespace sloc {
namespace {

RandFn TestRand(uint64_t seed = 42) {
  auto rng = std::make_shared<Rng>(seed);
  return [rng]() { return rng->NextU64(); };
}

// A prime = 3 (mod 4) for Fp2 tests.
BigInt TestPrime() {
  // 2^127 - 1 is prime and = 3 (mod 4).
  return *BigInt::FromDecimal("170141183460469231731687303715884105727");
}

class FpTest : public ::testing::Test {
 protected:
  FpTest() : fp_(Fp::Create(TestPrime()).value()) {}
  Fp fp_;
};

TEST_F(FpTest, CreateRejectsBadPrimes) {
  EXPECT_FALSE(Fp::Create(BigInt(4)).ok());
  EXPECT_FALSE(Fp::Create(BigInt(3)).ok());
  EXPECT_TRUE(Fp::Create(BigInt(7)).ok());
}

TEST_F(FpTest, FieldAxiomsRandomized) {
  RandFn rand = TestRand(1);
  for (int i = 0; i < 20; ++i) {
    BigInt av = BigInt::RandomBelow(fp_.p(), rand);
    BigInt bv = BigInt::RandomBelow(fp_.p(), rand);
    BigInt cv = BigInt::RandomBelow(fp_.p(), rand);
    auto a = fp_.FromBigInt(av), b = fp_.FromBigInt(bv),
         c = fp_.FromBigInt(cv);
    Fp::Elem ab, ba, abc1, abc2, t;
    fp_.Mul(a, b, &ab);
    fp_.Mul(b, a, &ba);
    EXPECT_TRUE(fp_.Equal(ab, ba));
    fp_.Mul(ab, c, &abc1);
    fp_.Mul(b, c, &t);
    fp_.Mul(a, t, &abc2);
    EXPECT_TRUE(fp_.Equal(abc1, abc2));
    // Distributivity.
    Fp::Elem bc_sum, lhs, rhs1, rhs2, rhs;
    fp_.Add(b, c, &bc_sum);
    fp_.Mul(a, bc_sum, &lhs);
    fp_.Mul(a, b, &rhs1);
    fp_.Mul(a, c, &rhs2);
    fp_.Add(rhs1, rhs2, &rhs);
    EXPECT_TRUE(fp_.Equal(lhs, rhs));
  }
}

TEST_F(FpTest, MulSmallMatchesRepeatedAdd) {
  RandFn rand = TestRand(2);
  BigInt av = BigInt::RandomBelow(fp_.p(), rand);
  auto a = fp_.FromBigInt(av);
  for (uint64_t c : {1u, 2u, 3u, 4u, 5u, 8u, 27u}) {
    Fp::Elem fast;
    fp_.MulSmall(a, c, &fast);
    EXPECT_EQ(fp_.ToBigInt(fast),
              BigInt::ModMul(av, BigInt::FromU64(c), fp_.p()))
        << "c=" << c;
  }
  Fp::Elem zero;
  fp_.MulSmall(a, 0, &zero);
  EXPECT_TRUE(fp_.IsZero(zero));
}

TEST_F(FpTest, InverseAndErrors) {
  RandFn rand = TestRand(3);
  for (int i = 0; i < 10; ++i) {
    BigInt av = BigInt::RandomBelow(fp_.p() - BigInt(1), rand) + BigInt(1);
    auto a = fp_.FromBigInt(av);
    auto inv = fp_.Inverse(a);
    ASSERT_TRUE(inv.ok());
    Fp::Elem prod;
    fp_.Mul(a, *inv, &prod);
    EXPECT_TRUE(fp_.Equal(prod, fp_.One()));
  }
  EXPECT_FALSE(fp_.Inverse(fp_.Zero()).ok());
}

// ---------- Fermat inversion against the extended gcd ----------

// Fp::Inverse computes a^(p-2); BigInt::ModInverse is the reference, at
// 2, 4, 6 and 9 limbs: the field widths of the pbits 32, 120, 184 and
// 256 pairing groups, on the generic, cios4, cios6 and generic kernels.
struct InverseCase {
  size_t bits;
  size_t limbs;
};

class FpInverseDifferentialTest
    : public ::testing::TestWithParam<InverseCase> {};

TEST_P(FpInverseDifferentialTest, MatchesBigIntModInverse) {
  RandFn rand = TestRand(GetParam().bits);
  const BigInt p = RandomPrime(GetParam().bits, rand);
  Fp fp = Fp::Create(p).value();
  ASSERT_EQ(fp.num_limbs(), GetParam().limbs);
  std::vector<BigInt> values = {BigInt(1), BigInt(2), p - BigInt(1),
                                p - BigInt(2), (p - BigInt(1)) >> 1};
  for (int i = 0; i < 16; ++i) {
    values.push_back(BigInt::RandomBelow(p - BigInt(1), rand) + BigInt(1));
  }
  for (const BigInt& v : values) {
    auto inv = fp.Inverse(fp.FromBigInt(v));
    ASSERT_TRUE(inv.ok()) << inv.status();
    EXPECT_EQ(fp.ToBigInt(*inv), BigInt::ModInverse(v, p).value())
        << v.ToHex();
  }
  auto zero = fp.Inverse(fp.Zero());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    FieldWidths, FpInverseDifferentialTest,
    ::testing::Values(InverseCase{70, 2}, InverseCase{248, 4},
                      InverseCase{379, 6}, InverseCase{522, 9}),
    [](const ::testing::TestParamInfo<InverseCase>& info) {
      return "bits" + std::to_string(info.param.bits);
    });

TEST_F(FpTest, SqrtOfSquaresRandomized) {
  RandFn rand = TestRand(4);
  for (int i = 0; i < 15; ++i) {
    BigInt av = BigInt::RandomBelow(fp_.p() - BigInt(1), rand) + BigInt(1);
    auto a = fp_.FromBigInt(av);
    Fp::Elem sq;
    fp_.Sqr(a, &sq);
    EXPECT_TRUE(fp_.IsSquare(sq));
    auto root = fp_.Sqrt(sq);
    ASSERT_TRUE(root.ok());
    Fp::Elem check;
    fp_.Sqr(*root, &check);
    EXPECT_TRUE(fp_.Equal(check, sq));
  }
}

TEST_F(FpTest, NonResidueDetected) {
  // Exactly half of F_p* are non-residues; find one and check errors.
  RandFn rand = TestRand(5);
  bool found = false;
  for (int i = 0; i < 64 && !found; ++i) {
    BigInt av = BigInt::RandomBelow(fp_.p() - BigInt(1), rand) + BigInt(1);
    auto a = fp_.FromBigInt(av);
    if (!fp_.IsSquare(a)) {
      EXPECT_FALSE(fp_.Sqrt(a).ok());
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(FpTest, SqrtOfZeroIsZero) {
  auto r = fp_.Sqrt(fp_.Zero());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(fp_.IsZero(*r));
}

TEST_F(FpTest, PowMatchesModPow) {
  RandFn rand = TestRand(6);
  BigInt base = BigInt::RandomBelow(fp_.p(), rand);
  BigInt exp = BigInt::Random(100, rand);
  EXPECT_EQ(fp_.ToBigInt(fp_.Pow(fp_.FromBigInt(base), exp)),
            BigInt::ModPow(base, exp, fp_.p()));
}

// ---------- Fp2 ----------

class Fp2Test : public ::testing::Test {
 protected:
  Fp2Test()
      : fp_(Fp::Create(TestPrime()).value()),
        fp2_(Fp2::Create(fp_).value()) {}
  Fp fp_;
  Fp2 fp2_;

  Fp2Elem RandomElem(const RandFn& rand) {
    return fp2_.FromBigInts(BigInt::RandomBelow(fp_.p(), rand),
                            BigInt::RandomBelow(fp_.p(), rand));
  }
};

TEST_F(Fp2Test, RequiresP3Mod4) {
  // 2^13 - 1 = 8191 is prime, = 3 mod 4 -> ok; 5 = 1 mod 4 -> rejected.
  auto fp_ok = Fp::Create(BigInt(8191)).value();
  EXPECT_TRUE(Fp2::Create(fp_ok).ok());
  auto fp_bad = Fp::Create(BigInt(13)).value();  // 13 = 1 mod 4
  EXPECT_FALSE(Fp2::Create(fp_bad).ok());
}

TEST_F(Fp2Test, IsISquareMinusOne) {
  // i^2 = -1: (0 + 1i)^2 == -1.
  Fp2Elem i_elem = fp2_.FromBigInts(BigInt(0), BigInt(1));
  Fp2Elem sq;
  fp2_.Sqr(i_elem, &sq);
  Fp2Elem minus_one;
  fp2_.Neg(fp2_.One(), &minus_one);
  EXPECT_TRUE(fp2_.Equal(sq, minus_one));
}

TEST_F(Fp2Test, MulMatchesComplexFormula) {
  // (1 + 2i)(3 + 4i) = 3 + 4i + 6i + 8 i^2 = -5 + 10i.
  Fp2Elem a = fp2_.FromBigInts(BigInt(1), BigInt(2));
  Fp2Elem b = fp2_.FromBigInts(BigInt(3), BigInt(4));
  Fp2Elem prod;
  fp2_.Mul(a, b, &prod);
  Fp2Elem expected = fp2_.FromBigInts(BigInt(-5), BigInt(10));
  EXPECT_TRUE(fp2_.Equal(prod, expected));
}

TEST_F(Fp2Test, SqrMatchesMul) {
  RandFn rand = TestRand(7);
  for (int i = 0; i < 15; ++i) {
    Fp2Elem a = RandomElem(rand);
    Fp2Elem via_sqr, via_mul;
    fp2_.Sqr(a, &via_sqr);
    fp2_.Mul(a, a, &via_mul);
    EXPECT_TRUE(fp2_.Equal(via_sqr, via_mul));
  }
}

TEST_F(Fp2Test, FieldAxiomsRandomized) {
  RandFn rand = TestRand(8);
  for (int i = 0; i < 15; ++i) {
    Fp2Elem a = RandomElem(rand);
    Fp2Elem b = RandomElem(rand);
    Fp2Elem ab, ba;
    fp2_.Mul(a, b, &ab);
    fp2_.Mul(b, a, &ba);
    EXPECT_TRUE(fp2_.Equal(ab, ba));
    // a * 1 == a; a + 0 == a.
    Fp2Elem t;
    fp2_.Mul(a, fp2_.One(), &t);
    EXPECT_TRUE(fp2_.Equal(t, a));
    fp2_.Add(a, fp2_.Zero(), &t);
    EXPECT_TRUE(fp2_.Equal(t, a));
  }
}

TEST_F(Fp2Test, InverseRoundTrip) {
  RandFn rand = TestRand(9);
  for (int i = 0; i < 10; ++i) {
    Fp2Elem a = RandomElem(rand);
    if (fp2_.IsZero(a)) continue;
    auto inv = fp2_.Inverse(a);
    ASSERT_TRUE(inv.ok());
    Fp2Elem prod;
    fp2_.Mul(a, *inv, &prod);
    EXPECT_TRUE(fp2_.IsOne(prod));
  }
  EXPECT_FALSE(fp2_.Inverse(fp2_.Zero()).ok());
}

TEST_F(Fp2Test, ConjIsFrobenius) {
  // x^p == conj(x) in F_p^2 when p = 3 (mod 4).
  RandFn rand = TestRand(10);
  Fp2Elem a = RandomElem(rand);
  Fp2Elem frob = fp2_.Pow(a, fp_.p());
  Fp2Elem conj;
  fp2_.Conj(a, &conj);
  EXPECT_TRUE(fp2_.Equal(frob, conj));
}

TEST_F(Fp2Test, NormIsMultiplicative) {
  RandFn rand = TestRand(11);
  Fp2Elem a = RandomElem(rand);
  Fp2Elem b = RandomElem(rand);
  Fp2Elem ab;
  fp2_.Mul(a, b, &ab);
  Fp::Elem na = fp2_.Norm(a), nb = fp2_.Norm(b), nab = fp2_.Norm(ab);
  Fp::Elem prod;
  fp_.Mul(na, nb, &prod);
  EXPECT_TRUE(fp_.Equal(prod, nab));
}

TEST_F(Fp2Test, UnitaryInverseOnUnitCircle) {
  // x^(p-1) is unitary (norm 1) for any x != 0.
  RandFn rand = TestRand(12);
  Fp2Elem a = RandomElem(rand);
  Fp2Elem conj;
  fp2_.Conj(a, &conj);
  auto inv = fp2_.Inverse(a);
  ASSERT_TRUE(inv.ok());
  Fp2Elem unit;
  fp2_.Mul(conj, *inv, &unit);  // a^p / a = a^(p-1)
  EXPECT_TRUE(fp_.Equal(fp2_.Norm(unit), fp_.One()));
  Fp2Elem uinv = fp2_.UnitaryInverse(unit);
  Fp2Elem prod;
  fp2_.Mul(unit, uinv, &prod);
  EXPECT_TRUE(fp2_.IsOne(prod));
}

TEST_F(Fp2Test, PowExponentAdditivity) {
  RandFn rand = TestRand(13);
  Fp2Elem a = RandomElem(rand);
  BigInt e1 = BigInt::Random(60, rand);
  BigInt e2 = BigInt::Random(60, rand);
  Fp2Elem lhs = fp2_.Pow(a, e1 + e2);
  Fp2Elem rhs;
  fp2_.Mul(fp2_.Pow(a, e1), fp2_.Pow(a, e2), &rhs);
  EXPECT_TRUE(fp2_.Equal(lhs, rhs));
}

TEST_F(Fp2Test, PowUnitaryMatchesPow) {
  // The signed-digit unitary ladder agrees with the plain ladder on the
  // unit circle, for every exponent size and sign.
  RandFn rand = TestRand(14);
  Fp2Elem a = RandomElem(rand);
  Fp2Elem conj;
  fp2_.Conj(a, &conj);
  auto inv = fp2_.Inverse(a);
  ASSERT_TRUE(inv.ok());
  Fp2Elem unit;
  fp2_.Mul(conj, *inv, &unit);  // a^(p-1): unitary
  for (size_t bits : {1, 5, 17, 60, 120}) {
    BigInt e = BigInt::Random(bits, rand);
    EXPECT_TRUE(fp2_.Equal(fp2_.PowUnitary(unit, e), fp2_.Pow(unit, e)))
        << "bits " << bits;
    // Negative exponents: x^-e == conj(x)^e on the unit circle.
    Fp2Elem cu;
    fp2_.Conj(unit, &cu);
    EXPECT_TRUE(fp2_.Equal(fp2_.PowUnitary(unit, -e), fp2_.Pow(cu, e)))
        << "bits " << bits;
  }
  EXPECT_TRUE(fp2_.IsOne(fp2_.PowUnitary(unit, BigInt(0))));
}

TEST_F(Fp2Test, BatchPowUnitaryMatchesPerEntryPowUnitary) {
  // The shared-recoding batch ladder must be bit-identical to the
  // per-entry signed-digit ladder, for every batch size (including the
  // empty and size-1 degenerate cases) and either exponent sign.
  RandFn rand = TestRand(15);
  auto make_unit = [&]() {
    Fp2Elem a = RandomElem(rand);
    Fp2Elem conj;
    fp2_.Conj(a, &conj);
    auto inv = fp2_.Inverse(a);
    SLOC_CHECK(inv.ok());
    Fp2Elem unit;
    fp2_.Mul(conj, *inv, &unit);  // a^(p-1): unitary
    return unit;
  };
  for (size_t n : {size_t(0), size_t(1), size_t(2), size_t(7)}) {
    std::vector<Fp2Elem> units;
    for (size_t j = 0; j < n; ++j) units.push_back(make_unit());
    for (size_t bits : {1, 17, 120}) {
      for (int sign : {1, -1}) {
        BigInt e = BigInt::Random(bits, rand);
        if (sign < 0) e = -e;
        std::vector<Fp2Elem> batch = units;
        fp2_.BatchPowUnitary(e, &batch);
        ASSERT_EQ(batch.size(), n);
        for (size_t j = 0; j < n; ++j) {
          EXPECT_TRUE(fp2_.Equal(batch[j], fp2_.PowUnitary(units[j], e)))
              << "n=" << n << " bits=" << bits << " sign=" << sign
              << " entry=" << j;
        }
      }
    }
    // Exponent zero collapses every entry to one.
    std::vector<Fp2Elem> batch = units;
    fp2_.BatchPowUnitary(BigInt(0), &batch);
    for (const Fp2Elem& u : batch) EXPECT_TRUE(fp2_.IsOne(u));
  }
}

}  // namespace
}  // namespace sloc
