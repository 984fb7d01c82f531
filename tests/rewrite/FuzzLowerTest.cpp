//===- tests/rewrite/FuzzLowerTest.cpp - randomized rewrite fuzzing ------------===//
//
// Property fuzzing of the rewrite system: random straight-line kernels
// over wide values, lowered and simplified, must agree with the original
// semantics on random inputs. This covers op interactions the structured
// kernels never produce (flags feeding selects feeding multiplies, shifts
// of sums, nested splits, ...).
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "ir/Builder.h"
#include "rewrite/PassManager.h"

#include <gtest/gtest.h>

using namespace moma;
using namespace moma::ir;
using namespace moma::rewrite;
using namespace moma::testutil;
using mw::Bignum;

namespace {

/// Builds a random kernel: NumInputs wide inputs, Steps random statements
/// drawing operands from the live wide values and flags, and two outputs.
Kernel randomKernel(unsigned Width, unsigned NumInputs, unsigned Steps,
                    Rng &R) {
  Kernel K;
  K.Name = "fuzz";
  Builder B(K);
  std::vector<ValueId> Wide;  // values of exactly Width bits
  std::vector<ValueId> Flags; // 1-bit values

  for (unsigned I = 0; I < NumInputs; ++I) {
    ValueId V = K.newValue(Width, "in" + std::to_string(I));
    K.addInput(V, "in" + std::to_string(I));
    Wide.push_back(V);
  }

  auto PickWide = [&] { return Wide[R.below(Wide.size())]; };

  for (unsigned S = 0; S < Steps; ++S) {
    switch (R.below(12)) {
    case 0: {
      CarryResult A = B.add(PickWide(), PickWide(),
                            Flags.empty() ? NoValue
                                          : Flags[R.below(Flags.size())]);
      Wide.push_back(A.Value);
      Flags.push_back(A.Carry);
      break;
    }
    case 1: {
      CarryResult D = B.sub(PickWide(), PickWide());
      Wide.push_back(D.Value);
      Flags.push_back(D.Carry);
      break;
    }
    case 2: {
      HiLoResult M = B.mul(PickWide(), PickWide());
      Wide.push_back(M.Hi);
      Wide.push_back(M.Lo);
      break;
    }
    case 3:
      Wide.push_back(B.mulLow(PickWide(), PickWide()));
      break;
    case 4:
      Flags.push_back(B.lt(PickWide(), PickWide()));
      break;
    case 5:
      Flags.push_back(B.eq(PickWide(), PickWide()));
      break;
    case 6:
      if (!Flags.empty()) {
        Wide.push_back(B.select(Flags[R.below(Flags.size())], PickWide(),
                                PickWide()));
      }
      break;
    case 7:
      Wide.push_back(B.shr(PickWide(), 1 + R.below(Width - 1)));
      break;
    case 8:
      Wide.push_back(B.shl(PickWide(), 1 + R.below(Width - 1)));
      break;
    case 9: {
      switch (R.below(3)) {
      case 0:
        Wide.push_back(B.bitAnd(PickWide(), PickWide()));
        break;
      case 1:
        Wide.push_back(B.bitOr(PickWide(), PickWide()));
        break;
      default:
        Wide.push_back(B.bitXor(PickWide(), PickWide()));
        break;
      }
      break;
    }
    case 10: {
      HiLoResult Sp = B.split(PickWide());
      Wide.push_back(B.concat(Sp.Hi, Sp.Lo)); // reassemble to keep widths
      break;
    }
    default:
      Wide.push_back(
          B.constant(Width, Bignum::random(R, Bignum::powerOfTwo(Width))));
      break;
    }
    if (!Flags.empty() && R.below(4) == 0)
      Flags.push_back(B.logicalNot(Flags[R.below(Flags.size())]));
  }

  K.addOutput(Wide.back(), "out0");
  K.addOutput(Wide[Wide.size() / 2], "out1");
  if (!Flags.empty())
    K.addOutput(Flags.back(), "outf");
  return K;
}

struct FuzzCase {
  unsigned Width;
  unsigned Target;
  unsigned Steps;
  std::uint64_t Seed;
};

class FuzzLower : public testing::TestWithParam<FuzzCase> {};

} // namespace

TEST_P(FuzzLower, LoweredAndSimplifiedAgree) {
  const FuzzCase &C = GetParam();
  // Per-case default seed, overridable through MOMA_TEST_SEED; failures
  // report the seed via the SeededRng trace.
  SeededRng Gen(C.Seed);
  for (int Round = 0; Round < 8; ++Round) {
    Kernel K = randomKernel(C.Width, 3, C.Steps, Gen);
    ASSERT_TRUE(verify(K).empty()) << printKernel(K);

    LowerOptions Opts;
    Opts.TargetWordBits = C.Target;
    Opts.MulAlg = (Round & 1) ? mw::MulAlgorithm::Karatsuba
                              : mw::MulAlgorithm::Schoolbook;
    LoweredKernel L = lowerToWords(K, Opts);
    defaultPipeline().runLowered(L);
    ASSERT_TRUE(verify(L.K).empty());
    EXPECT_LE(L.K.maxBits(), C.Target);

    Rng R(Gen.seed() * 31 + Round);
    expectLoweringEquivalence(K, L, R, 20,
                              [&](Rng &Rr) { return randomInputs(K, Rr); });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FuzzLower,
    testing::Values(FuzzCase{128, 64, 12, 0xF001},
                    FuzzCase{128, 64, 30, 0xF002},
                    FuzzCase{256, 64, 12, 0xF003},
                    FuzzCase{256, 64, 25, 0xF004},
                    FuzzCase{512, 64, 10, 0xF005},
                    FuzzCase{128, 32, 15, 0xF006},
                    FuzzCase{256, 16, 10, 0xF007}),
    [](const testing::TestParamInfo<FuzzCase> &Info) {
      return "w" + std::to_string(Info.param.Width) + "_t" +
             std::to_string(Info.param.Target) + "_s" +
             std::to_string(Info.param.Steps);
    });
