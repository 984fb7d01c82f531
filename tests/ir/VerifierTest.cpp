//===- tests/ir/VerifierTest.cpp - failure injection --------------------------===//
//
// Malformed-IR detection: each test plants one specific defect and checks
// the verifier names it.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/Builder.h"

#include <gtest/gtest.h>

using namespace moma;
using namespace moma::ir;
using mw::Bignum;

namespace {

/// A well-formed baseline kernel: c = (a + b) mod q at 128 bits.
Kernel goodKernel() {
  Kernel K;
  K.Name = "good";
  ValueId A = K.newValue(128, "a", 124);
  K.addInput(A, "a");
  ValueId B = K.newValue(128, "b", 124);
  K.addInput(B, "b");
  ValueId Q = K.newValue(128, "q", 124);
  K.addInput(Q, "q");
  Builder Bld(K);
  K.addOutput(Bld.addMod(A, B, Q), "c");
  return K;
}

bool mentions(const std::vector<std::string> &Errs, const char *Needle) {
  for (const auto &E : Errs)
    if (E.find(Needle) != std::string::npos)
      return true;
  return false;
}

} // namespace

TEST(Verifier, AcceptsWellFormedKernel) {
  EXPECT_TRUE(verify(goodKernel()).empty());
  EXPECT_TRUE(isWellFormed(goodKernel()));
}

TEST(Verifier, CatchesUseBeforeDefinition) {
  Kernel K = goodKernel();
  // Reference a value defined only later (the output of the addmod).
  Stmt S;
  S.Kind = OpKind::Copy;
  ValueId Fresh = K.newValue(128);
  S.Results = {Fresh};
  S.Operands = {K.outputs()[0].Id};
  K.Body.insert(K.Body.begin(), S);
  EXPECT_TRUE(mentions(verify(K), "before definition"));
}

TEST(Verifier, CatchesDoubleDefinition) {
  Kernel K = goodKernel();
  Stmt S;
  S.Kind = OpKind::Copy;
  S.Results = {K.outputs()[0].Id}; // already defined by the addmod
  S.Operands = {K.inputs()[0].Id};
  K.Body.push_back(S);
  EXPECT_TRUE(mentions(verify(K), "defined twice"));
}

TEST(Verifier, CatchesWidthMismatch) {
  Kernel K;
  ValueId A = K.newValue(128, "a");
  K.addInput(A, "a");
  ValueId B = K.newValue(64, "b");
  K.addInput(B, "b");
  Stmt S;
  S.Kind = OpKind::AddMod;
  S.Results = {K.newValue(128)};
  S.Operands = {A, B, A};
  K.Body.push_back(S);
  K.addOutput(S.Results[0], "c");
  EXPECT_TRUE(mentions(verify(K), "width mismatch"));
}

TEST(Verifier, CatchesNonFlagCarry) {
  Kernel K;
  ValueId A = K.newValue(64, "a");
  K.addInput(A, "a");
  Stmt S;
  S.Kind = OpKind::Add;
  S.Results = {K.newValue(64) /* carry must be 1-bit */, K.newValue(64)};
  S.Operands = {A, A};
  K.Body.push_back(S);
  K.addOutput(S.Results[1], "s");
  EXPECT_TRUE(mentions(verify(K), "carry/borrow result must be 1-bit"));
}

TEST(Verifier, CatchesBarrettHeadroomViolation) {
  Kernel K;
  ValueId A = K.newValue(128, "a");
  K.addInput(A, "a");
  ValueId Q = K.newValue(128, "q");
  K.addInput(Q, "q");
  ValueId Mu = K.newValue(128, "mu");
  K.addInput(Mu, "mu");
  Stmt S;
  S.Kind = OpKind::MulMod;
  S.Results = {K.newValue(128)};
  S.Operands = {A, A, Q, Mu};
  S.ModBits = 126; // needs <= 124
  K.Body.push_back(S);
  K.addOutput(S.Results[0], "c");
  EXPECT_TRUE(mentions(verify(K), "ModBits <= w-4"));
}

TEST(Verifier, CatchesShiftOutOfRange) {
  Kernel K;
  ValueId A = K.newValue(64, "a");
  K.addInput(A, "a");
  Stmt S;
  S.Kind = OpKind::Shr;
  S.Results = {K.newValue(64)};
  S.Operands = {A};
  S.Amount = 64;
  K.Body.push_back(S);
  K.addOutput(S.Results[0], "c");
  EXPECT_TRUE(mentions(verify(K), "shift amount out of range"));
}

TEST(Verifier, CatchesOversizedLiteral) {
  Kernel K;
  Stmt S;
  S.Kind = OpKind::Const;
  S.Results = {K.newValue(64)};
  S.Literal = Bignum::powerOfTwo(65);
  K.Body.push_back(S);
  K.addOutput(S.Results[0], "c");
  EXPECT_TRUE(mentions(verify(K), "literal does not fit"));
}

TEST(Verifier, CatchesMissingOutputs) {
  Kernel K;
  ValueId A = K.newValue(64, "a");
  K.addInput(A, "a");
  EXPECT_TRUE(mentions(verify(K), "no outputs"));
}

TEST(Verifier, CatchesUndefinedOutput) {
  Kernel K;
  ValueId A = K.newValue(64, "a");
  K.addInput(A, "a");
  K.addOutput(K.newValue(64), "c"); // never defined
  EXPECT_TRUE(mentions(verify(K), "never defined"));
}

TEST(Verifier, CatchesBadSelectCondition) {
  Kernel K;
  ValueId A = K.newValue(64, "a");
  K.addInput(A, "a");
  Stmt S;
  S.Kind = OpKind::Select;
  S.Results = {K.newValue(64)};
  S.Operands = {A /* 64-bit cond, must be 1 */, A, A};
  K.Body.push_back(S);
  K.addOutput(S.Results[0], "c");
  EXPECT_TRUE(mentions(verify(K), "condition must be 1-bit"));
}

TEST(Verifier, CatchesSplitWidthMismatch) {
  Kernel K;
  ValueId A = K.newValue(128, "a");
  K.addInput(A, "a");
  Stmt S;
  S.Kind = OpKind::Split;
  S.Results = {K.newValue(64), K.newValue(32)}; // halves must both be 64
  S.Operands = {A};
  K.Body.push_back(S);
  K.addOutput(S.Results[0], "h");
  EXPECT_TRUE(mentions(verify(K), "half the operand width"));
}

TEST(Verifier, CatchesWrongOperandCount) {
  Kernel K;
  ValueId A = K.newValue(64, "a");
  K.addInput(A, "a");
  Stmt S;
  S.Kind = OpKind::Add;
  S.Results = {K.newValue(1), K.newValue(64)};
  S.Operands = {A}; // needs 2 or 3
  K.Body.push_back(S);
  K.addOutput(S.Results[1], "s");
  EXPECT_TRUE(mentions(verify(K), "wrong operand count"));
}

TEST(Verifier, WideMulShapes) {
  // 2x2 words -> 4 (full form) is well formed; then one defect at a time.
  auto Make = [](unsigned NA, unsigned NumOps, unsigned NumResults,
                 unsigned BadWidthAt) {
    Kernel K;
    K.Name = "w";
    Stmt S;
    S.Kind = OpKind::WideMul;
    S.Amount = NA;
    for (unsigned I = 0; I < NumOps; ++I) {
      ValueId V = K.newValue(I + 1 == BadWidthAt ? 32 : 64);
      K.addInput(V, "x");
      S.Operands.push_back(V);
    }
    for (unsigned I = 0; I < NumResults; ++I)
      S.Results.push_back(K.newValue(64));
    K.Body.push_back(S);
    K.addOutput(S.Results[0], "r");
    return verify(K);
  };
  EXPECT_TRUE(Make(2, 4, 4, 0).empty());
  EXPECT_TRUE(Make(2, 4, 2, 0).empty()) << "low form";
  EXPECT_TRUE(mentions(Make(0, 4, 4, 0), "at least one word"));
  EXPECT_TRUE(mentions(Make(4, 4, 4, 0), "at least one word"));
  EXPECT_TRUE(mentions(Make(2, 4, 5, 0), "result count"));
  EXPECT_TRUE(mentions(Make(2, 4, 4, 3), "operand width mismatch"));
}
