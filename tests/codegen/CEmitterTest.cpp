//===- tests/codegen/CEmitterTest.cpp - C emission + host-JIT integration -----===//
//
// Closes the code-generation loop: the emitted C is compiled and loaded
// through the shared host-JIT runtime (src/jit/HostJit.h) at test time and
// run against the IR interpreter on random field inputs — the strongest
// statement this repository makes about generated-code correctness.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "codegen/CEmitter.h"
#include "field/PrimeGen.h"
#include "jit/HostJit.h"
#include "kernels/BlasKernels.h"
#include "kernels/NttKernels.h"
#include "kernels/ScalarKernels.h"
#include "rewrite/PassManager.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <map>
#include <regex>
#include <sstream>
#include <string>

using namespace moma;
using namespace moma::codegen;
using namespace moma::ir;
using namespace moma::rewrite;
using namespace moma::testutil;
using kernels::ScalarKernelSpec;
using mw::Bignum;

namespace {

/// One shared JIT across the whole binary: identical kernels emitted by
/// different tests reuse the loaded module, and reruns hit the .so cache.
jit::HostJit &hostJit() {
  static jit::HostJit Jit;
  return Jit;
}

/// Runs the emitted kernel on word arrays decomposed from \p Inputs;
/// returns one value per output port.
std::vector<Bignum> runEmitted(const LoweredKernel &L, jit::JitModule &M,
                               const EmittedKernel &EK,
                               const std::vector<Bignum> &Inputs) {
  using U64 = std::uint64_t;
  // The emitted signature is void(f)(out0*, ..., in0*, ...) over u64
  // arrays; marshal through a generic pointer array via libffi-style
  // manual dispatch for the small arities we generate.
  std::vector<std::vector<U64>> OutBufs;
  std::vector<std::vector<U64>> InBufs;
  for (const auto &P : L.Outputs)
    OutBufs.emplace_back(P.storedWords(), 0);
  for (size_t I = 0; I < L.Inputs.size(); ++I) {
    const auto &P = L.Inputs[I];
    std::vector<Bignum> Words = decomposePort(P, Inputs[I]);
    std::vector<U64> Buf;
    for (const Bignum &W : Words)
      Buf.push_back(W.low64());
    InBufs.push_back(std::move(Buf));
  }

  std::vector<void *> Args;
  for (auto &B : OutBufs)
    Args.push_back(B.data());
  for (auto &B : InBufs)
    Args.push_back(B.data());

  void *Sym = M.symbol(EK.Symbol);
  EXPECT_NE(Sym, nullptr) << "symbol '" << EK.Symbol << "' not found in "
                          << M.soPath();
  if (!Sym)
    return {};

  switch (Args.size()) {
  case 3:
    reinterpret_cast<void (*)(void *, void *, void *)>(Sym)(Args[0], Args[1],
                                                            Args[2]);
    break;
  case 4:
    reinterpret_cast<void (*)(void *, void *, void *, void *)>(Sym)(
        Args[0], Args[1], Args[2], Args[3]);
    break;
  case 5:
    reinterpret_cast<void (*)(void *, void *, void *, void *, void *)>(Sym)(
        Args[0], Args[1], Args[2], Args[3], Args[4]);
    break;
  case 6:
    reinterpret_cast<void (*)(void *, void *, void *, void *, void *,
                              void *)>(Sym)(Args[0], Args[1], Args[2],
                                            Args[3], Args[4], Args[5]);
    break;
  case 7:
    reinterpret_cast<void (*)(void *, void *, void *, void *, void *, void *,
                              void *)>(Sym)(Args[0], Args[1], Args[2],
                                            Args[3], Args[4], Args[5],
                                            Args[6]);
    break;
  default:
    ADD_FAILURE() << "unsupported arity " << Args.size();
    return {};
  }

  std::vector<Bignum> Got;
  for (const std::vector<U64> &Buf : OutBufs) {
    Bignum V;
    for (U64 W : Buf)
      V = (V << 64) + Bignum(W);
    Got.push_back(V);
  }
  return Got;
}

/// Runs the emitted kernel on \p Inputs and compares every output against
/// the interpreter.
void checkEmittedAgainstInterp(const LoweredKernel &L, jit::JitModule &M,
                               const EmittedKernel &EK,
                               const std::vector<Bignum> &Inputs) {
  std::vector<Bignum> Got = runEmitted(L, M, EK, Inputs);
  ASSERT_EQ(Got.size(), L.Outputs.size());
  std::vector<Bignum> Expect = interpretLowered(L, Inputs);
  for (size_t O = 0; O < L.Outputs.size(); ++O)
    EXPECT_EQ(Got[O], Expect[O]) << "output '" << L.Outputs[O].Name << "'";
}

/// Full pipeline check for one kernel: lower, simplify, emit, JIT,
/// compare on \p Iters random field inputs.
void pipelineCheck(Kernel K, unsigned MBits, unsigned NumData, bool HasMu,
                   int Iters = 25) {
  LoweredKernel L = lowerToWords(K, {});
  defaultPipeline().runLowered(L);
  EmittedKernel EK = emitC(L);
  std::shared_ptr<jit::JitModule> M = hostJit().load(EK.Source);
  ASSERT_NE(M, nullptr) << hostJit().error() << "\n" << EK.Source;

  Bignum Q = field::nttPrime(MBits, 8, 55);
  Bignum Mu = Bignum::powerOfTwo(2 * MBits + 3) / Q;
  Rng R(0xC0DE + MBits);
  for (int I = 0; I < Iters; ++I) {
    std::vector<Bignum> In;
    for (unsigned D = 0; D < NumData; ++D)
      In.push_back(Bignum::random(R, Q));
    In.push_back(Q);
    if (HasMu)
      In.push_back(Mu);
    checkEmittedAgainstInterp(L, *M, EK, In);
  }
}

} // namespace

TEST(CEmitter, StructureMatchesListings) {
  ScalarKernelSpec Spec{128, 0};
  LoweredKernel L = lowerToWords(kernels::buildAddModKernel(Spec), {});
  defaultPipeline().runLowered(L);
  EmittedKernel EK = emitC(L);
  // Shape of the paper's listings: u64 locals, extern C symbol, pointer
  // ports, no loops, no divisions.
  EXPECT_NE(EK.Source.find("#include <stdint.h>"), std::string::npos);
  EXPECT_NE(EK.Source.find("extern \"C\""), std::string::npos);
  EXPECT_NE(EK.Source.find("void moma_addmod("), std::string::npos);
  EXPECT_NE(EK.Source.find("uint64_t"), std::string::npos);
  EXPECT_EQ(EK.Source.find(" / "), std::string::npos) << "no division ops";
  EXPECT_EQ(EK.Source.find("for"), std::string::npos) << "straight-line";
  ASSERT_EQ(EK.Ports.size(), 4u); // c, a, b, q
  EXPECT_TRUE(EK.Ports[0].IsOutput);
  EXPECT_EQ(EK.Ports[0].StoredWords, 2u);
}

TEST(CEmitter, MulModUsesInt128LikeListingOne) {
  ScalarKernelSpec Spec{128, 0};
  LoweredKernel L = lowerToWords(kernels::buildMulModKernel(Spec), {});
  defaultPipeline().runLowered(L);
  EmittedKernel EK = emitC(L);
  EXPECT_NE(EK.Source.find("unsigned __int128"), std::string::npos)
      << "the compiler-supported double word (3.1)";
}

TEST(CEmitter, RejectsUnloweredKernel) {
  ScalarKernelSpec Spec{256, 0};
  Kernel K = kernels::buildAddModKernel(Spec);
  LoweredKernel Fake;
  Fake.K = K;
  EXPECT_DEATH((void)emitC(Fake), "not lowered");
}

// Host-JIT integration: every generated kernel class at two widths.
TEST(CEmitterIntegration, AddMod128) {
  pipelineCheck(kernels::buildAddModKernel({128, 0}), 124, 2, false);
}
TEST(CEmitterIntegration, SubMod128) {
  pipelineCheck(kernels::buildSubModKernel({128, 0}), 124, 2, false);
}
TEST(CEmitterIntegration, MulMod128) {
  pipelineCheck(kernels::buildMulModKernel({128, 0}), 124, 2, true);
}
TEST(CEmitterIntegration, MulMod256) {
  pipelineCheck(kernels::buildMulModKernel({256, 0}), 252, 2, true);
}
TEST(CEmitterIntegration, Butterfly256) {
  pipelineCheck(kernels::buildButterflyKernel({256, 0}), 252, 3, true, 15);
}
TEST(CEmitterIntegration, Axpy128) {
  pipelineCheck(kernels::buildAxpyKernel({128, 0}), 124, 3, true);
}
// The non-power-of-two pruning survives the full pipeline: 380-bit modulus
// in a 512 container emits 6-word ports.
TEST(CEmitterIntegration, MulMod380In512) {
  Kernel K = kernels::buildMulModKernel({512, 380});
  LoweredKernel L = lowerToWords(K, {});
  defaultPipeline().runLowered(L);
  EmittedKernel EK = emitC(L);
  EXPECT_NE(EK.Source.find("const uint64_t a[6]"), std::string::npos)
      << EK.Source.substr(0, 400);
  pipelineCheck(std::move(K), 380, 2, true, 15);
}

TEST(CEmitterIntegration, KaratsubaMulMod256) {
  Kernel K = kernels::buildMulModKernel({256, 0});
  LowerOptions Opts;
  Opts.MulAlg = mw::MulAlgorithm::Karatsuba;
  LoweredKernel L = lowerToWords(K, Opts);
  defaultPipeline().runLowered(L);
  EmittedKernel EK = emitC(L);
  std::shared_ptr<jit::JitModule> M = hostJit().load(EK.Source);
  ASSERT_NE(M, nullptr) << hostJit().error();
  Bignum Q = field::nttPrime(252, 8, 55);
  Bignum Mu = Bignum::powerOfTwo(2 * 252 + 3) / Q;
  Rng R(0xCAFE);
  for (int I = 0; I < 20; ++I) {
    std::vector<Bignum> In = {Bignum::random(R, Q), Bignum::random(R, Q), Q,
                              Mu};
    checkEmittedAgainstInterp(L, *M, EK, In);
  }
}

// The shared-cache statement the JIT makes possible: emitting the same
// kernel twice compiles once. A second load in the same HostJit, like a
// load in a fresh HostJit sharing the cache directory, reuses the .so
// from disk without reaching the compiler.
TEST(CEmitterIntegration, IdenticalKernelReusesJitModule) {
  LoweredKernel L = lowerToWords(kernels::buildMulModKernel({128, 0}), {});
  defaultPipeline().runLowered(L);
  EmittedKernel EK = emitC(L);

  std::shared_ptr<jit::JitModule> M1 = hostJit().load(EK.Source);
  ASSERT_NE(M1, nullptr) << hostJit().error();
  jit::HostJit::Stats Before = hostJit().stats();
  std::shared_ptr<jit::JitModule> M2 = hostJit().load(EK.Source);
  ASSERT_NE(M2, nullptr) << hostJit().error();
  EXPECT_EQ(M1->soPath(), M2->soPath()) << "same source, one artifact";
  EXPECT_TRUE(M2->fromDiskCache());
  EXPECT_EQ(hostJit().stats().DiskHits, Before.DiskHits + 1);
  EXPECT_EQ(hostJit().stats().Compiles, Before.Compiles);

  jit::HostJit Fresh;
  std::shared_ptr<jit::JitModule> M3 = Fresh.load(EK.Source);
  ASSERT_NE(M3, nullptr) << Fresh.error();
  EXPECT_TRUE(M3->fromDiskCache());
  EXPECT_EQ(Fresh.stats().DiskHits, 1u);
  EXPECT_EQ(Fresh.stats().Compiles, 0u);
}

// Carry-chain emission: every 64-bit Add/Sub of a lowered kernel is one
// MOMA_ADDC/MOMA_SUBB call, every wide product one call to its shape's
// helper, and both branches of the emitted preludes (the x86-64 adc/sbb
// builtins with mulx/adcx/adox rows, and the portable overflow builtins
// with unsigned __int128 rows) agree with Bignum on operands that run each
// carry chain its full length.
namespace {

/// Bignum reference: outputs from the data inputs and the modulus.
using CarryReference = std::vector<Bignum> (*)(
    const std::vector<Bignum> &Data, const Bignum &Q);

/// 0, 1, q-1, q-2, and two values whose words below q's top word are all
/// ones: one under q's top word minus one, one under a zero top word.
std::vector<Bignum> carryStressValues(const Bignum &Q) {
  unsigned LowBits = 64 * ((Q.bitWidth() - 1) / 64);
  Bignum Top = (Q >> LowBits) << LowBits;
  return {Bignum(0), Bignum(1), Q - 1, Q - 2, Top - 1,
          Bignum::powerOfTwo(LowBits) - 1};
}

void carryChainCheck(const ScalarKernelSpec &Spec,
                     Kernel (*Build)(const ScalarKernelSpec &),
                     unsigned NumData, CarryReference Ref) {
  LoweredKernel L = lowerToWords(Build(Spec), {});
  defaultPipeline().runLowered(L);
  EmittedKernel EK = emitC(L);

  // Shape: one macro call per Add/Sub; outside the wide-product helpers
  // the double word only holds multiply products; one helper definition
  // per WideMul shape, each called.
  unsigned CarryOps = 0;
  std::map<std::string, unsigned> Helpers; // name -> call count
  for (const Stmt &S : L.K.Body) {
    CarryOps += S.Kind == OpKind::Add || S.Kind == OpKind::Sub;
    if (S.Kind == OpKind::WideMul)
      Helpers[formatv("moma_wmul_%ux%zu_%zu", S.Amount,
                      S.Operands.size() - S.Amount, S.Results.size())] = 0;
  }
  ASSERT_GT(CarryOps, 0u);
  const std::regex Product(R"(  unsigned __int128 t[0-9]+ = )"
                           R"(\(unsigned __int128\)v[0-9]+ \* v[0-9]+;)");
  unsigned MacroCalls = 0, Products = 0;
  std::map<std::string, unsigned> Definitions;
  bool InHelper = false;
  std::istringstream Lines(EK.Source);
  for (std::string Line; std::getline(Lines, Line);) {
    MacroCalls += Line.rfind("  MOMA_ADDC(", 0) == 0 ||
                  Line.rfind("  MOMA_SUBB(", 0) == 0;
    for (auto &[Name, Calls] : Helpers) {
      Definitions[Name] += Line.rfind("static void " + Name + "(", 0) == 0;
      Calls += Line.rfind("  " + Name + "(", 0) == 0;
    }
    if (Line.rfind("static void moma_wmul_", 0) == 0)
      InHelper = true;
    if (InHelper) {
      InHelper = Line != "}";
      continue;
    }
    if (Line.rfind("//", 0) != 0 &&
        Line.find("__int128") != std::string::npos) {
      EXPECT_TRUE(std::regex_match(Line, Product)) << Line;
      ++Products;
    }
  }
  EXPECT_EQ(MacroCalls, CarryOps);
  // 1024-bit products are wide (rewrite::WideMulMinWords); narrower ones
  // stay straight-line word products.
  EXPECT_EQ(!Helpers.empty(), Spec.ContainerBits >= 1024);
  EXPECT_EQ(Products > 0, Helpers.empty());
  for (const auto &[Name, Calls] : Helpers) {
    EXPECT_EQ(Definitions[Name], 1u) << Name;
    EXPECT_GE(Calls, 1u) << Name;
  }

  // The portable branches, selected by a text edit of the x86 guards.
  EmittedKernel Portable = EK;
  const std::string Guard = "defined(__x86_64__)";
  ASSERT_NE(Portable.Source.find(Guard), std::string::npos);
  for (size_t At; (At = Portable.Source.find(Guard)) != std::string::npos;)
    Portable.Source.replace(At, Guard.size(), "0");

  std::shared_ptr<jit::JitModule> M = hostJit().load(EK.Source);
  ASSERT_NE(M, nullptr) << hostJit().error();
  std::shared_ptr<jit::JitModule> MP = hostJit().load(Portable.Source);
  ASSERT_NE(MP, nullptr) << hostJit().error();

  unsigned MBits = Spec.modBits();
  SeededRng R(0xADC0 + MBits);
  // An NTT prime and the all-ones modulus 2^m - 1.
  for (const Bignum &Q : {field::nttPrime(MBits, 8, 55),
                          Bignum::powerOfTwo(MBits) - 1}) {
    Bignum Mu = Bignum::powerOfTwo(2 * MBits + 3) / Q;
    std::vector<Bignum> Stress = carryStressValues(Q);
    std::vector<std::vector<Bignum>> Cases(1);
    for (unsigned D = 0; D < NumData; ++D) {
      std::vector<std::vector<Bignum>> Next;
      for (const std::vector<Bignum> &Prefix : Cases)
        for (const Bignum &V : Stress) {
          Next.push_back(Prefix);
          Next.back().push_back(V);
        }
      Cases = std::move(Next);
    }
    for (int I = 0; I < 20; ++I) {
      std::vector<Bignum> Data;
      for (unsigned D = 0; D < NumData; ++D)
        Data.push_back(Bignum::random(R, Q));
      Cases.push_back(std::move(Data));
    }

    for (const std::vector<Bignum> &Data : Cases) {
      std::vector<Bignum> In = Data;
      In.push_back(Q);
      In.push_back(Mu);
      std::vector<Bignum> Expect = Ref(Data, Q);
      std::vector<Bignum> Got = runEmitted(L, *M, EK, In);
      std::vector<Bignum> GotPortable = runEmitted(L, *MP, Portable, In);
      ASSERT_EQ(Got.size(), Expect.size());
      ASSERT_EQ(GotPortable.size(), Expect.size());
      for (size_t O = 0; O < Expect.size(); ++O) {
        std::string Where = "output '" + L.Outputs[O].Name + "', q = " +
                            Q.toHex() + ", data[0] = " + Data[0].toHex();
        ASSERT_TRUE(Got[O] == Expect[O])
            << Where << ": got " << Got[O].toHex() << ", want "
            << Expect[O].toHex();
        ASSERT_TRUE(GotPortable[O] == Got[O])
            << Where << ": portable branch got " << GotPortable[O].toHex()
            << ", builtin branch " << Got[O].toHex();
      }
    }
  }
}

std::vector<Bignum> mulModRef(const std::vector<Bignum> &D, const Bignum &Q) {
  return {D[0] * D[1] % Q};
}
std::vector<Bignum> axpyRef(const std::vector<Bignum> &D, const Bignum &Q) {
  return {(D[0] * D[1] + D[2]) % Q};
}
std::vector<Bignum> butterflyRef(const std::vector<Bignum> &D,
                                 const Bignum &Q) {
  Bignum T = D[2] * D[1] % Q;
  return {(D[0] + T) % Q, (D[0] + Q - T) % Q};
}

} // namespace

TEST(CEmitterCarryChain, MulMod256) {
  carryChainCheck({256, 0}, kernels::buildMulModKernel, 2, mulModRef);
}
TEST(CEmitterCarryChain, Axpy256) {
  carryChainCheck({256, 0}, kernels::buildAxpyKernel, 3, axpyRef);
}
TEST(CEmitterCarryChain, Butterfly256) {
  carryChainCheck({256, 0}, kernels::buildButterflyKernel, 3, butterflyRef);
}
TEST(CEmitterCarryChain, MulMod1024) {
  carryChainCheck({1024, 0}, kernels::buildMulModKernel, 2, mulModRef);
}
TEST(CEmitterCarryChain, Axpy1024) {
  carryChainCheck({1024, 0}, kernels::buildAxpyKernel, 3, axpyRef);
}
TEST(CEmitterCarryChain, Butterfly1024) {
  carryChainCheck({1024, 0}, kernels::buildButterflyKernel, 3, butterflyRef);
}

// Below rewrite::WideMulMinWords the products stay straight-line word
// code: the benchmark's narrow kernels carry no wide-product helper.
TEST(CEmitterWideMul, NarrowKernelsHaveNoHelper) {
  struct Case {
    unsigned Bits;
    Kernel (*Build)(const ScalarKernelSpec &);
  };
  for (const Case &C : {Case{256, kernels::buildMulModKernel},
                        Case{128, kernels::buildButterflyKernel},
                        Case{64, kernels::buildMulModKernel}}) {
    LoweredKernel L = lowerToWords(C.Build({C.Bits, 0}), {});
    defaultPipeline().runLowered(L);
    std::string Src = emitC(L).Source;
    EXPECT_EQ(Src.find("moma_wmul_"), std::string::npos) << C.Bits;
    EXPECT_EQ(Src.find("MOMA_MULX_ROWS"), std::string::npos) << C.Bits;
  }
}
