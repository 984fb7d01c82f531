//===- tests/field/RootOfUnityTest.cpp - roots of unity ----------------------===//

#include "field/RootOfUnity.h"

#include "field/PrimeGen.h"

#include <gtest/gtest.h>

using namespace moma;
using namespace moma::field;
using mw::Bignum;

TEST(RootOfUnity, TwoAdicityOfKnownValues) {
  EXPECT_EQ(twoAdicity(Bignum(3)), 1u);   // 3-1 = 2
  EXPECT_EQ(twoAdicity(Bignum(17)), 4u);  // 16 = 2^4
  EXPECT_EQ(twoAdicity(Bignum(97)), 5u);  // 96 = 2^5 * 3
  EXPECT_EQ(twoAdicity(Bignum(65537)), 16u);
  // Edges: even moduli (Q - 1 odd), Q = 1 (Q - 1 zero), and multi-limb
  // values whose trailing zeros cross limb boundaries.
  EXPECT_EQ(twoAdicity(Bignum(1)), 0u);
  EXPECT_EQ(twoAdicity(Bignum(2)), 0u);
  EXPECT_EQ(twoAdicity(Bignum(10)), 0u);
  EXPECT_EQ(twoAdicity(Bignum::powerOfTwo(64) + Bignum(1)), 64u);
  EXPECT_EQ(twoAdicity(Bignum::powerOfTwo(100) * Bignum(3) + Bignum(1)),
            100u);
  EXPECT_EQ(twoAdicity(Bignum::powerOfTwo(200) + Bignum(1)), 200u);
  EXPECT_EQ(twoAdicity(Bignum::powerOfTwo(130) * Bignum(5) +
                       Bignum::powerOfTwo(70) + Bignum(1)),
            70u);
}

TEST(RootOfUnity, ExactOrderSmallPrime) {
  // 17 has 2-adicity 4; a primitive 16th root w satisfies w^16 = 1 and
  // w^8 = -1.
  Bignum Q(17);
  Bignum W = rootOfUnityPow2(Q, 4);
  EXPECT_TRUE(W.powMod(Bignum(16), Q).isOne());
  EXPECT_EQ(W.powMod(Bignum(8), Q), Q - Bignum(1));
}

TEST(RootOfUnity, ExactOrderLargePrimes) {
  for (unsigned Bits : {124u, 252u}) {
    Bignum Q = nttPrime(Bits, 22);
    for (unsigned S : {1u, 4u, 10u, 22u}) {
      Bignum W = rootOfUnityPow2(Q, S);
      EXPECT_TRUE(W.powMod(Bignum::powerOfTwo(S), Q).isOne());
      if (S > 0) {
        EXPECT_FALSE(W.powMod(Bignum::powerOfTwo(S - 1), Q).isOne())
            << "order must be exactly 2^" << S;
      }
    }
  }
}

TEST(RootOfUnity, SizeWrapperMatches) {
  Bignum Q = nttPrime(124, 22);
  Bignum W1 = rootOfUnity(Q, 1024);
  EXPECT_TRUE(W1.powMod(Bignum(1024), Q).isOne());
  EXPECT_FALSE(W1.powMod(Bignum(512), Q).isOne());
}

TEST(RootOfUnity, OrderZeroIsOne) {
  Bignum Q = nttPrime(124, 22);
  EXPECT_TRUE(rootOfUnityPow2(Q, 0).isOne());
}

TEST(RootOfUnity, RejectsInsufficientTwoAdicity) {
  Bignum Q(17); // 2-adicity 4
  EXPECT_DEATH((void)rootOfUnityPow2(Q, 10), "2-adicity");
}

TEST(RootOfUnity, RejectsNonPowerOfTwoSize) {
  Bignum Q = nttPrime(124, 22);
  EXPECT_DEATH((void)rootOfUnity(Q, 100), "power of two");
}
