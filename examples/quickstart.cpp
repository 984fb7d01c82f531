//===- examples/quickstart.cpp - five-minute tour of the library ---------------===//
//
// Build:  cmake --build build && ./build/examples/quickstart
//
// Shows the core objects a user touches: multi-word integers (MWUInt),
// Barrett-reduced prime fields, the NTT engine, and one trip through the
// rewrite system (the paper's contribution) from a 256-bit kernel to
// machine-word C code.
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "field/PrimeField.h"
#include "kernels/ScalarKernels.h"
#include "ntt/Ntt.h"
#include "rewrite/PassManager.h"
#include "rewrite/Stats.h"
#include "support/Rng.h"

#include <cstdio>

using namespace moma;
using mw::Bignum;

int main() {
  std::printf("== MoMA quickstart ==\n\n");

  // 1. A 256-bit prime field with the paper's evaluation shape: a 252-bit
  //    NTT-friendly prime (four free top bits for Barrett's mu).
  auto F = field::PrimeField<4>::evaluationField(/*TwoAdicity=*/16);
  std::printf("modulus q (%u bits) = %s\n", F.modulusBig().bitWidth(),
              F.modulusBig().toHex().c_str());

  // 2. Multi-word modular arithmetic: every operation below runs on
  //    four 64-bit machine words, no arbitrary-precision types involved.
  Rng R(42);
  auto A = F.fromBignum(Bignum::random(R, F.modulusBig()));
  auto B = F.fromBignum(Bignum::random(R, F.modulusBig()));
  auto Product = F.mul(A, B);
  std::printf("\na * b mod q = %s\n", Product.toBignum().toHex().c_str());
  std::printf("check vs arbitrary-precision oracle: %s\n",
              Product.toBignum() ==
                      A.toBignum().mulMod(B.toBignum(), F.modulusBig())
                  ? "ok"
                  : "MISMATCH");

  // 3. A 1024-point NTT round trip (the paper's core kernel).
  ntt::NttPlan<4> Plan(F, 1024);
  std::vector<decltype(A)> X(1024);
  for (auto &E : X)
    E = F.fromBignum(Bignum::random(R, F.modulusBig()));
  auto Orig = X;
  Plan.forward(X.data());
  Plan.inverse(X.data());
  std::printf("\n1024-point NTT round trip (%llu butterflies): %s\n",
              static_cast<unsigned long long>(Plan.butterflies()),
              X == Orig ? "ok" : "MISMATCH");

  // 4. The rewrite system: lower a 256-bit modular multiplication to
  //    64-bit words (two recursion rounds, Table 1 rules) and emit C.
  kernels::ScalarKernelSpec Spec{256, 0};
  ir::Kernel K = kernels::buildMulModKernel(Spec);
  rewrite::LoweredKernel L = rewrite::lowerToWords(K, {});
  rewrite::defaultPipeline().runLowered(L);
  rewrite::OpStats Stats = rewrite::countOps(L.K);
  std::printf("\n256-bit mulmod lowered in %u rounds to %u word "
              "statements\n(%u word multiplies, %u add/sub):\n",
              L.Rounds, Stats.Total, Stats.multiplies(), Stats.addSubs());
  codegen::EmittedKernel EK = codegen::emitC(L);
  std::printf("emitted %zu bytes of C; first lines:\n", EK.Source.size());
  size_t Shown = 0, Pos = 0;
  while (Shown < 8 && Pos < EK.Source.size()) {
    size_t Eol = EK.Source.find('\n', Pos);
    std::printf("  | %s\n", EK.Source.substr(Pos, Eol - Pos).c_str());
    Pos = Eol + 1;
    ++Shown;
  }
  std::printf("\nSee examples/codegen_inspect for the full pipeline dump.\n");
  return 0;
}
