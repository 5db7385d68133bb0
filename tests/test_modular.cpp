// Unit tests for modular arithmetic: add/sub/mul/pow/inv, Barrett and
// Montgomery reducers against the 128-bit reference.
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <vector>

#include "hemath/modular.hpp"

namespace flash::hemath {
namespace {

TEST(Modular, AddSubNegBasics) {
  const u64 q = 17;
  EXPECT_EQ(add_mod(9, 9, q), 1u);
  EXPECT_EQ(add_mod(0, 0, q), 0u);
  EXPECT_EQ(add_mod(16, 16, q), 15u);
  EXPECT_EQ(sub_mod(3, 5, q), 15u);
  EXPECT_EQ(sub_mod(5, 5, q), 0u);
  EXPECT_EQ(neg_mod(0, q), 0u);
  EXPECT_EQ(neg_mod(1, q), 16u);
}

TEST(Modular, MulModLargeOperands) {
  const u64 q = (u64{1} << 61) - 1;  // Mersenne prime 2^61-1
  const u64 a = q - 1;
  // (q-1)^2 = q^2 - 2q + 1 == 1 mod q.
  EXPECT_EQ(mul_mod(a, a, q), 1u);
}

TEST(Modular, MulModPow2FastPathBitIdentity) {
  // Pins the power-of-two mask fast path in mul_mod (modular.hpp) against
  // the 128-bit remainder it replaced: every pow2 modulus must produce the
  // exact residue of (a * b) % q, and prime moduli must be untouched.
  std::mt19937_64 rng(0x10d2a7);
  const auto reference = [](u64 a, u64 b, u64 q) {
    return static_cast<u64>((static_cast<u128>(a) * b) % q);
  };
  for (const int k : {1, 2, 8, 16, 32, 49, 62, 63}) {
    const u64 q = u64{1} << k;
    for (int trial = 0; trial < 200; ++trial) {
      const u64 a = rng(), b = rng();
      EXPECT_EQ(mul_mod(a, b, q), reference(a, b, q)) << "k=" << k;
    }
    // Edge operands: 0, 1, q-1, and unreduced values just past the modulus.
    for (const u64 a : {u64{0}, u64{1}, q - 1, q, q + 1, ~u64{0}}) {
      for (const u64 b : {u64{0}, u64{1}, q - 1, q, q + 1, ~u64{0}}) {
        EXPECT_EQ(mul_mod(a, b, q), reference(a, b, q)) << "k=" << k;
      }
    }
  }
  // Non-pow2 moduli must still go through the 128-bit remainder path.
  for (const u64 q : {u64{3}, u64{1000003}, (u64{1} << 61) - 1, (u64{1} << 32) + 1}) {
    for (int trial = 0; trial < 100; ++trial) {
      const u64 a = rng() % q, b = rng() % q;
      EXPECT_EQ(mul_mod(a, b, q), reference(a, b, q)) << "q=" << q;
    }
  }
}

TEST(Modular, PowModMatchesRepeatedMul) {
  const u64 q = 1000003;
  u64 acc = 1;
  for (int e = 0; e < 20; ++e) {
    EXPECT_EQ(pow_mod(7, static_cast<u64>(e), q), acc);
    acc = mul_mod(acc, 7, q);
  }
}

TEST(Modular, PowModFermat) {
  const u64 q = 998244353;  // prime
  for (u64 a : {2ULL, 3ULL, 12345ULL, 998244352ULL}) {
    EXPECT_EQ(pow_mod(a, q - 1, q), 1u);
  }
}

TEST(Modular, InvModRoundTrip) {
  const u64 q = 998244353;
  std::mt19937_64 rng(1);
  for (int i = 0; i < 200; ++i) {
    const u64 a = rng() % (q - 1) + 1;
    const u64 inv = inv_mod(a, q);
    EXPECT_EQ(mul_mod(a, inv, q), 1u) << "a=" << a;
  }
}

TEST(Modular, InvModNonInvertibleThrows) {
  EXPECT_THROW(inv_mod(6, 9), std::invalid_argument);
  EXPECT_THROW(inv_mod(0, 7), std::invalid_argument);
}

TEST(Modular, InvModCompositeModulus) {
  // 3 * 7 = 21 == 1 mod 10.
  EXPECT_EQ(inv_mod(3, 10), 7u);
}

TEST(Modular, SignedLiftRoundTrip) {
  const u64 q = 101;
  for (u64 a = 0; a < q; ++a) {
    const i64 s = to_signed(a, q);
    EXPECT_LE(s, static_cast<i64>(q / 2));
    EXPECT_GT(s, -static_cast<i64>(q) / 2 - 1);
    EXPECT_EQ(from_signed(s, q), a);
  }
}

TEST(Modular, FromSignedHandlesVeryNegative) {
  EXPECT_EQ(from_signed(-1, 7), 6u);
  EXPECT_EQ(from_signed(-15, 7), 6u);
  EXPECT_EQ(from_signed(-14, 7), 0u);
}

// The inline lifts against the remainder formulas they replaced, at the
// edges of the -q <= a < q fast path and of the i64 range, for small,
// 49-bit prime, near-2^62 and power-of-two moduli.
u64 from_signed_reference(i64 a, u64 q) {
  i64 m = a % static_cast<i64>(q);
  if (m < 0) m += static_cast<i64>(q);
  return static_cast<u64>(m);
}

TEST(Modular, SignedLiftsMatchRemainderFormula) {
  const i64 kMin = std::numeric_limits<i64>::min();
  const i64 kMax = std::numeric_limits<i64>::max();
  const u64 moduli[] = {2,
                        7,
                        101,
                        u64{1} << 20,
                        562949953216513,  // 49-bit NTT prime (1 mod 8192)
                        (u64{1} << 62) - 57,
                        (u64{1} << 62) + 1,
                        u64{1} << 62,
                        (u64{1} << 63) - 25};
  std::mt19937_64 rng(17);
  for (const u64 q : moduli) {
    const i64 qs = static_cast<i64>(q);
    std::vector<i64> probes = {kMin,   kMin + 1, kMax,   kMax - 1, 0,       1,       -1,
                               qs,     -qs,      qs - 1, -(qs - 1), qs + 1, -(qs + 1), qs / 2,
                               -qs / 2, 2 * (qs / 3), -2 * (qs / 3)};
    for (int i = 0; i < 2000; ++i) probes.push_back(static_cast<i64>(rng()));
    for (int i = 0; i < 1000; ++i) {
      const auto r = static_cast<i64>(rng() % q);  // both signs inside [-q, q)
      probes.push_back(r);
      probes.push_back(-r - 1);
    }
    for (const i64 a : probes) {
      ASSERT_EQ(from_signed(a, q), from_signed_reference(a, q)) << "a=" << a << " q=" << q;
    }
    const u64 unsigned_probes[] = {0, 1, q / 2, q / 2 + 1, q - 1};
    for (const u64 a : unsigned_probes) {
      if (a >= q) continue;
      const i64 expect = a > q / 2 ? static_cast<i64>(a) - qs : static_cast<i64>(a);
      EXPECT_EQ(to_signed(a, q), expect) << "a=" << a << " q=" << q;
      EXPECT_EQ(from_signed(to_signed(a, q), q), a) << "a=" << a << " q=" << q;
    }
  }
}

TEST(Modular, BranchlessSubModMatchesBranchyFormula) {
  std::mt19937_64 rng(23);
  const u64 moduli[] = {17, 562949953216513, (u64{1} << 62) - 57, u64{1} << 62};
  for (const u64 q : moduli) {
    const u64 edges[] = {0, 1, q / 2, q - 2, q - 1};
    for (const u64 a : edges) {
      for (const u64 b : edges) EXPECT_EQ(sub_mod(a, b, q), a >= b ? a - b : a + q - b);
    }
    for (int i = 0; i < 5000; ++i) {
      const u64 a = rng() % q;
      const u64 b = rng() % q;
      ASSERT_EQ(sub_mod(a, b, q), a >= b ? a - b : a + q - b);
    }
  }
}

class ReducerTest : public ::testing::TestWithParam<u64> {};

TEST_P(ReducerTest, BarrettMatchesReference) {
  const u64 q = GetParam();
  BarrettReducer barrett(q);
  std::mt19937_64 rng(42);
  for (int i = 0; i < 2000; ++i) {
    const u64 a = rng() % q;
    const u64 b = rng() % q;
    EXPECT_EQ(barrett.mul(a, b), mul_mod(a, b, q)) << "a=" << a << " b=" << b << " q=" << q;
  }
  // Edge operands.
  EXPECT_EQ(barrett.mul(q - 1, q - 1), mul_mod(q - 1, q - 1, q));
  EXPECT_EQ(barrett.mul(0, q - 1), 0u);
  EXPECT_EQ(barrett.reduce(q - 1), q - 1);
  EXPECT_EQ(barrett.reduce(q), 0u);
}

TEST_P(ReducerTest, MontgomeryMatchesReference) {
  const u64 q = GetParam();
  if ((q & 1) == 0) GTEST_SKIP() << "Montgomery requires odd modulus";
  MontgomeryReducer mont(q);
  std::mt19937_64 rng(43);
  for (int i = 0; i < 2000; ++i) {
    const u64 a = rng() % q;
    const u64 b = rng() % q;
    const u64 am = mont.to_mont(a);
    const u64 bm = mont.to_mont(b);
    EXPECT_EQ(mont.from_mont(mont.mul(am, bm)), mul_mod(a, b, q));
  }
  EXPECT_EQ(mont.from_mont(mont.to_mont(q - 1)), q - 1);
  EXPECT_EQ(mont.from_mont(mont.to_mont(0)), 0u);
}

INSTANTIATE_TEST_SUITE_P(Moduli, ReducerTest,
                         ::testing::Values(u64{3}, u64{17}, u64{998244353},
                                           (u64{1} << 31) - 1, u64{4611686018326724609ULL},
                                           (u64{1} << 61) - 1));

TEST(Modular, BarrettRejectsBadModulus) {
  EXPECT_THROW(BarrettReducer(1), std::invalid_argument);
  EXPECT_THROW(BarrettReducer(u64{1} << 62), std::invalid_argument);
}

TEST(Modular, BarrettPowerOfTwoModulus) {
  BarrettReducer barrett(u64{1} << 20);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 500; ++i) {
    const u64 a = rng() % (u64{1} << 20);
    const u64 b = rng() % (u64{1} << 20);
    EXPECT_EQ(barrett.mul(a, b), (a * b) % (u64{1} << 20));
  }
}

TEST(Modular, MontgomeryRejectsEvenModulus) {
  EXPECT_THROW(MontgomeryReducer(16), std::invalid_argument);
}

}  // namespace
}  // namespace flash::hemath
