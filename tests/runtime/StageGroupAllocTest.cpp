//===- tests/runtime/StageGroupAllocTest.cpp - walker heap discipline -------===//
//
// The host stage-group walker keeps its register block, the butterfly's
// discarded output and its zero input on the stack: a warm edge-group
// dispatch on the serial backend (a forward transform's gather + twist
// group, an inverse transform's scale group) allocates nothing. One layer
// up, a warm Dispatcher call builds its port lists and walks the
// stage-group schedule on the stack too, so a warm vmul and a warm
// polyMul allocate nothing either. This binary replaces the global
// operator new to count the calling thread's allocations, so it holds no
// other tests.
//
//===----------------------------------------------------------------------===//

#include "field/PrimeGen.h"
#include "runtime/Backend.h"
#include "runtime/Dispatcher.h"
#include "runtime/KernelRegistry.h"
#include "runtime/NttPipeline.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

using namespace moma;
using namespace moma::runtime;
using mw::Bignum;

namespace {
thread_local std::uint64_t Allocations = 0;
} // namespace

void *operator new(std::size_t N) {
  ++Allocations;
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  ++Allocations;
  return std::malloc(N ? N : 1);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

namespace {

/// A single-group negacyclic transform of NPoints = 2^Depth points: the
/// forward group gathers and twists, the inverse group gathers and
/// scales by the untwist table, so running both restores the input.
struct EdgeGroups {
  std::shared_ptr<const CompiledPlan> P;
  std::vector<const std::uint64_t *> Aux;
  PlanAux AuxStore;
  NttTables T;
  StageGroup Fwd, Inv;
};

bool makeEdgeGroups(KernelRegistry &Reg, const Bignum &Q,
                    rewrite::ExecBackend Backend, std::uint64_t *Data,
                    EdgeGroups &E, std::string &Err) {
  rewrite::PlanOptions O;
  O.Backend = Backend;
  O.FuseDepth = rewrite::PlanOptions::MaxFuseDepth;
  O.Ring = rewrite::NttRing::Negacyclic;
  E.P = Reg.get(PlanKey::forModulus(KernelOp::Butterfly, Q, O));
  if (!E.P) {
    Err = Reg.error();
    return false;
  }
  E.AuxStore = makePlanAux(*E.P, Q);
  E.Aux = E.AuxStore.ptrs();
  const size_t N = size_t(1) << O.FuseDepth;
  if (!buildNttTables(Q, N, E.P->Key.Opts.Red, E.T, &Err,
                      rewrite::NttRing::Negacyclic))
    return false;
  E.Fwd.Depth = E.Inv.Depth = O.FuseDepth;
  E.Fwd.Src = E.Inv.Src = Data;
  E.Fwd.Dst = E.Inv.Dst = Data;
  E.Fwd.Gather = E.Inv.Gather = E.T.BitRev.data();
  E.Fwd.Twist = E.T.Twist.data();
  E.Inv.Scale = E.T.Untwist.data();
  E.Inv.ScaleStride = E.P->ElemWords;
  return true;
}

std::vector<std::uint64_t> rampWords(const Bignum &Q, size_t Count) {
  std::vector<Bignum> E;
  for (size_t I = 0; I < Count; ++I)
    E.push_back((Q >> 1) - Bignum(I * 977));
  std::vector<std::uint64_t> W;
  const unsigned K = (Q.bitWidth() + 63) / 64;
  for (const Bignum &V : E) {
    auto P = packWordsMsbFirst(V, K);
    W.insert(W.end(), P.begin(), P.end());
  }
  return W;
}

} // namespace

TEST(StageGroupAlloc, WarmSerialEdgeGroupsAllocateNothing) {
  KernelRegistry Reg;
  const Bignum Q = field::nttPrime(124, 8);
  const size_t N = size_t(1) << rewrite::PlanOptions::MaxFuseDepth;
  const size_t Batch = 3;
  std::vector<std::uint64_t> Data = rampWords(Q, N * Batch);
  const std::vector<std::uint64_t> Orig = Data;
  EdgeGroups E;
  std::string Err;
  ASSERT_TRUE(makeEdgeGroups(Reg, Q, rewrite::ExecBackend::Serial,
                             Data.data(), E, Err))
      << Err;
  const ExecutionBackend &EB = Reg.backendFor(E.P->Key);

  // Warm-up: first calls may touch lazily initialized state.
  ASSERT_TRUE(EB.runStageGroup(*E.P, E.Fwd, E.T.Tw.data(), E.Aux, N, Batch,
                               &Err))
      << Err;
  ASSERT_TRUE(EB.runStageGroup(*E.P, E.Inv, E.T.InvTw.data(), E.Aux, N,
                               Batch, &Err))
      << Err;
  ASSERT_EQ(Data, Orig) << "forward + inverse edge groups must roundtrip";

  const std::uint64_t Before = Allocations;
  const bool FwdOk = EB.runStageGroup(*E.P, E.Fwd, E.T.Tw.data(), E.Aux, N,
                                      Batch, &Err);
  const std::uint64_t AfterFwd = Allocations;
  const bool InvOk = EB.runStageGroup(*E.P, E.Inv, E.T.InvTw.data(), E.Aux,
                                      N, Batch, &Err);
  const std::uint64_t AfterInv = Allocations;
  ASSERT_TRUE(FwdOk && InvOk) << Err;
  EXPECT_EQ(AfterFwd - Before, 0u) << "gather + twist group allocated";
  EXPECT_EQ(AfterInv - AfterFwd, 0u) << "scale group allocated";
  EXPECT_EQ(Data, Orig);
}

TEST(StageGroupAlloc, WideElementsRoundTripThroughHeapBlock) {
  // Elements wider than the walker's inline block (16 words) take the
  // heap fallback. The interpreter backend shares the walker and needs
  // no compile, so an 18-word modulus stays cheap here.
  KernelRegistry Reg;
  const Bignum Q = field::nttPrime(1100, 4);
  ASSERT_GT((Q.bitWidth() + 63) / 64, 16u);
  const size_t N = size_t(1) << rewrite::PlanOptions::MaxFuseDepth;
  std::vector<std::uint64_t> Data = rampWords(Q, N);
  const std::vector<std::uint64_t> Orig = Data;
  EdgeGroups E;
  std::string Err;
  ASSERT_TRUE(makeEdgeGroups(Reg, Q, rewrite::ExecBackend::Interp,
                             Data.data(), E, Err))
      << Err;
  const ExecutionBackend &EB = Reg.backendFor(E.P->Key);
  ASSERT_TRUE(
      EB.runStageGroup(*E.P, E.Fwd, E.T.Tw.data(), E.Aux, N, 1, &Err))
      << Err;
  EXPECT_NE(Data, Orig);
  ASSERT_TRUE(
      EB.runStageGroup(*E.P, E.Inv, E.T.InvTw.data(), E.Aux, N, 1, &Err))
      << Err;
  EXPECT_EQ(Data, Orig);
}

TEST(StageGroupAlloc, WarmDispatcherCallsAllocateNothing) {
  // The serving shape: a 64-bit modulus, one-element vmul and a
  // negacyclic n=256 polyMul (three transforms and one vmul) on the
  // serial backend at the default fusion depth.
  KernelRegistry Reg;
  Dispatcher D(Reg);
  const Bignum Q = field::nttPrime(60, 16);
  const size_t N = 256;
  const rewrite::NttRing Neg = rewrite::NttRing::Negacyclic;
  std::vector<std::uint64_t> A = rampWords(Q, N), B = rampWords(Q, N),
                             C(N);

  // Warm-up binds the plans, builds the twiddle tables and grows the
  // leased scratch.
  ASSERT_TRUE(D.vmul(Q, A.data(), B.data(), C.data(), 1)) << D.error();
  ASSERT_TRUE(D.polyMul(Q, A.data(), B.data(), C.data(), N, 1, Neg))
      << D.error();
  const std::vector<std::uint64_t> Want = C;

  const std::uint64_t Before = Allocations;
  const bool VmulOk = D.vmul(Q, A.data(), B.data(), C.data(), 1);
  const std::uint64_t AfterVmul = Allocations;
  const bool PolyOk = D.polyMul(Q, A.data(), B.data(), C.data(), N, 1, Neg);
  const std::uint64_t AfterPoly = Allocations;
  ASSERT_TRUE(VmulOk && PolyOk) << D.error();
  EXPECT_EQ(AfterVmul - Before, 0u) << "warm vmul at n=1 allocated";
  EXPECT_EQ(AfterPoly - AfterVmul, 0u) << "warm negacyclic polyMul allocated";
  EXPECT_EQ(C, Want);
}
