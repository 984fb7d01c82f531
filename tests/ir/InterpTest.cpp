//===- tests/ir/InterpTest.cpp - opcode semantics ----------------------------===//
//
// Pins the interpreter's per-opcode semantics to Bignum arithmetic; the
// interpreter is the oracle every rewrite test relies on, so it gets its
// own direct coverage first.
//
//===----------------------------------------------------------------------===//

#include "ir/Interp.h"

#include "ir/Builder.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace moma;
using namespace moma::ir;
using mw::Bignum;

namespace {

/// One-op kernel harness: W-bit inputs a, b; runs Fn to build the body.
struct OneOp {
  Kernel K;
  ValueId A, B;
  OneOp(unsigned W, unsigned KnownA = 0, unsigned KnownB = 0) {
    K.Name = "t";
    A = K.newValue(W, "a", KnownA);
    K.addInput(A, "a");
    B = K.newValue(W, "b", KnownB);
    K.addInput(B, "b");
  }
  std::vector<Bignum> run(const Bignum &X, const Bignum &Y) {
    return interpret(K, {X, Y});
  }
};

} // namespace

TEST(Interp, AddProducesCarryAndSum) {
  OneOp T(64);
  Builder B(T.K);
  CarryResult R = B.add(T.A, T.B);
  T.K.addOutput(R.Carry, "c");
  T.K.addOutput(R.Value, "s");
  auto Out = T.run(Bignum::fromHex("0xffffffffffffffff"), Bignum(1));
  EXPECT_TRUE(Out[0].isOne());
  EXPECT_TRUE(Out[1].isZero());
  Out = T.run(Bignum(2), Bignum(3));
  EXPECT_TRUE(Out[0].isZero());
  EXPECT_EQ(Out[1], Bignum(5));
}

TEST(Interp, AddWithCarryIn) {
  Kernel K;
  ValueId A = K.newValue(64, "a");
  K.addInput(A, "a");
  ValueId B = K.newValue(64, "b");
  K.addInput(B, "b");
  ValueId Cin = K.newValue(1, "ci");
  K.addInput(Cin, "ci");
  Builder Bld(K);
  CarryResult R = Bld.add(A, B, Cin);
  K.addOutput(R.Value, "s");
  K.addOutput(R.Carry, "c");
  auto Out = interpret(K, {Bignum(10), Bignum(20), Bignum(1)});
  EXPECT_EQ(Out[0], Bignum(31));
  EXPECT_TRUE(Out[1].isZero());
}

TEST(Interp, SubBorrowWraps) {
  OneOp T(64);
  Builder B(T.K);
  CarryResult R = B.sub(T.A, T.B);
  T.K.addOutput(R.Carry, "b");
  T.K.addOutput(R.Value, "d");
  auto Out = T.run(Bignum(3), Bignum(5));
  EXPECT_TRUE(Out[0].isOne());
  EXPECT_EQ(Out[1], Bignum::powerOfTwo(64) - Bignum(2));
}

TEST(Interp, MulSplitsHiLo) {
  OneOp T(64);
  Builder B(T.K);
  HiLoResult R = B.mul(T.A, T.B);
  T.K.addOutput(R.Hi, "h");
  T.K.addOutput(R.Lo, "l");
  Bignum X = Bignum::fromHex("0x123456789abcdef0");
  Bignum Y = Bignum::fromHex("0xfedcba9876543210");
  auto Out = T.run(X, Y);
  EXPECT_EQ((Out[0] << 64) + Out[1], X * Y);
}

TEST(Interp, WideMulFullAndLowForms) {
  // A 3x2-word product over 64-bit word arrays (most significant first),
  // in the full form (5 words) and the 3-word low form.
  Kernel K;
  K.Name = "t";
  std::vector<ValueId> A, B;
  for (const char *N : {"a2", "a1", "a0"}) {
    A.push_back(K.newValue(64, N));
    K.addInput(A.back(), N);
  }
  for (const char *N : {"b1", "b0"}) {
    B.push_back(K.newValue(64, N));
    K.addInput(B.back(), N);
  }
  Builder Bld(K);
  std::vector<ValueId> Full = Bld.wideMul(A, B, 5);
  std::vector<ValueId> Low = Bld.wideMul(A, B, 3);
  for (ValueId V : Full)
    K.addOutput(V, "f");
  for (ValueId V : Low)
    K.addOutput(V, "l");
  Rng R(607);
  for (int I = 0; I < 20; ++I) {
    std::vector<Bignum> In;
    for (int J = 0; J < 5; ++J)
      In.push_back(I == 0 ? Bignum::powerOfTwo(64) - 1
                          : Bignum::random(R, Bignum::powerOfTwo(64)));
    Bignum X = (In[0] << 128) + (In[1] << 64) + In[2];
    Bignum Y = (In[3] << 64) + In[4];
    auto Out = interpret(K, In);
    Bignum F(0), L(0);
    for (int J = 0; J < 5; ++J)
      F = (F << 64) + Out[J];
    for (int J = 5; J < 8; ++J)
      L = (L << 64) + Out[J];
    EXPECT_EQ(F, X * Y);
    EXPECT_EQ(L, (X * Y).truncate(192));
  }
}

TEST(Interp, ModularOpsMatchOracle) {
  Rng R(601);
  for (unsigned W : {64u, 128u, 256u}) {
    Kernel K;
    unsigned M = W - 4;
    ValueId A = K.newValue(W, "a", M);
    K.addInput(A, "a");
    ValueId B = K.newValue(W, "b", M);
    K.addInput(B, "b");
    ValueId Q = K.newValue(W, "q", M);
    K.addInput(Q, "q");
    ValueId Mu = K.newValue(W, "mu", M + 4);
    K.addInput(Mu, "mu");
    Builder Bld(K);
    K.addOutput(Bld.addMod(A, B, Q), "s");
    K.addOutput(Bld.subMod(A, B, Q), "d");
    K.addOutput(Bld.mulMod(A, B, Q, Mu, M), "p");

    Bignum QV = Bignum::powerOfTwo(M) - Bignum(59); // odd, full m bits
    Bignum MuV = Bignum::powerOfTwo(2 * M + 3) / QV;
    for (int I = 0; I < 50; ++I) {
      Bignum X = Bignum::random(R, QV), Y = Bignum::random(R, QV);
      auto Out = interpret(K, {X, Y, QV, MuV});
      EXPECT_EQ(Out[0], (X + Y) % QV);
      EXPECT_EQ(Out[1], X.subMod(Y, QV));
      EXPECT_EQ(Out[2], (X * Y) % QV);
    }
  }
}

TEST(Interp, ComparisonsAndLogic) {
  OneOp T(64);
  Builder B(T.K);
  ValueId Lt = B.lt(T.A, T.B);
  ValueId Eq = B.eq(T.A, T.B);
  ValueId NotLt = B.logicalNot(Lt);
  ValueId AndR = B.bitAnd(Lt, Eq);
  ValueId OrR = B.bitOr(Lt, Eq);
  T.K.addOutput(Lt, "lt");
  T.K.addOutput(Eq, "eq");
  T.K.addOutput(NotLt, "nl");
  T.K.addOutput(AndR, "an");
  T.K.addOutput(OrR, "or");
  auto Out = T.run(Bignum(3), Bignum(7));
  EXPECT_TRUE(Out[0].isOne());  // 3 < 7
  EXPECT_TRUE(Out[1].isZero()); // 3 != 7
  EXPECT_TRUE(Out[2].isZero()); // !(3<7)
  EXPECT_TRUE(Out[3].isZero());
  EXPECT_TRUE(Out[4].isOne());
}

TEST(Interp, ShiftsAndBitwise) {
  OneOp T(128);
  Builder B(T.K);
  T.K.addOutput(B.shl(T.A, 5), "l");
  T.K.addOutput(B.shr(T.A, 5), "r");
  T.K.addOutput(B.bitXor(T.A, T.B), "x");
  Rng R(602);
  for (int I = 0; I < 50; ++I) {
    Bignum X = Bignum::randomBits(R, 1 + R.below(128));
    Bignum Y = Bignum::randomBits(R, 1 + R.below(128));
    auto Out = interpret(T.K, {X, Y});
    EXPECT_EQ(Out[0], (X << 5).truncate(128));
    EXPECT_EQ(Out[1], X >> 5);
    // Xor via limbs.
    Bignum Expect;
    for (int L = 1; L >= 0; --L)
      Expect = (Expect << 64) + Bignum(X.limb(L) ^ Y.limb(L));
    EXPECT_EQ(Out[2], Expect);
  }
}

TEST(Interp, SelectPicksByFlag) {
  Kernel K;
  ValueId C = K.newValue(1, "c");
  K.addInput(C, "c");
  ValueId A = K.newValue(64, "a");
  K.addInput(A, "a");
  ValueId B = K.newValue(64, "b");
  K.addInput(B, "b");
  Builder Bld(K);
  K.addOutput(Bld.select(C, A, B), "o");
  EXPECT_EQ(interpret(K, {Bignum(1), Bignum(7), Bignum(9)})[0], Bignum(7));
  EXPECT_EQ(interpret(K, {Bignum(0), Bignum(7), Bignum(9)})[0], Bignum(9));
}

TEST(Interp, SplitConcatRoundTrip) {
  OneOp T(256);
  Builder B(T.K);
  HiLoResult Sp = B.split(T.A);
  ValueId Back = B.concat(Sp.Hi, Sp.Lo);
  T.K.addOutput(Sp.Hi, "h");
  T.K.addOutput(Sp.Lo, "l");
  T.K.addOutput(Back, "b");
  Rng R(603);
  for (int I = 0; I < 50; ++I) {
    Bignum X = Bignum::randomBits(R, 1 + R.below(256));
    auto Out = interpret(T.K, {X, Bignum(0)});
    EXPECT_EQ(Out[0], X >> 128);
    EXPECT_EQ(Out[1], X.truncate(128));
    EXPECT_EQ(Out[2], X);
  }
}

TEST(Interp, RejectsOversizedInput) {
  OneOp T(64);
  Builder B(T.K);
  CarryResult R = B.add(T.A, T.B);
  T.K.addOutput(R.Value, "s");
  EXPECT_DEATH((void)interpret(T.K, {Bignum::powerOfTwo(70), Bignum(0)}),
               "exceeds");
}

TEST(Interp, RejectsKnownBitsViolation) {
  // Input declared with KnownBits 60 must reject a 64-bit value: Simplify
  // prunes based on that contract.
  OneOp T(64, /*KnownA=*/60, /*KnownB=*/64);
  Builder B(T.K);
  CarryResult R = B.add(T.A, T.B);
  T.K.addOutput(R.Value, "s");
  EXPECT_DEATH((void)interpret(T.K, {Bignum::powerOfTwo(63), Bignum(0)}),
               "KnownBits");
}

TEST(Interp, RejectsWrongInputCount) {
  OneOp T(64);
  Builder B(T.K);
  CarryResult R = B.add(T.A, T.B);
  T.K.addOutput(R.Value, "s");
  EXPECT_DEATH((void)interpret(T.K, {Bignum(1)}), "expected 2 inputs");
}
