//===- runtime/NttPipeline.cpp - Fused NTT execution pipeline -------------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "runtime/NttPipeline.h"

#include "field/RootOfUnity.h"
#include "runtime/PlanKey.h"
#include "support/Format.h"

#include <algorithm>

using namespace moma;
using namespace moma::runtime;
using mw::Bignum;

namespace {

bool fail(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

} // namespace

bool moma::runtime::buildNttTables(const Bignum &Q, size_t NPoints,
                                   mw::Reduction Domain, NttTables &Out,
                                   std::string *Err,
                                   rewrite::NttRing Ring) {
  if (NPoints < 2 || (NPoints & (NPoints - 1)) != 0)
    return fail(Err, "NTT size must be a power of two >= 2");
  unsigned LogN = 0;
  while ((size_t(1) << LogN) < NPoints)
    ++LogN;
  bool Neg = Ring == rewrite::NttRing::Negacyclic;
  // The negacyclic twist needs a primitive 2n-th root: one extra factor
  // of two in q - 1.
  unsigned NeedAdicity = LogN + (Neg ? 1 : 0);
  if (field::twoAdicity(Q) < NeedAdicity)
    return fail(Err,
                formatv("modulus 2-adicity %u < %u required for a %s "
                        "%zu-point transform",
                        field::twoAdicity(Q), NeedAdicity,
                        rewrite::nttRingName(Ring), NPoints));

  unsigned K = (Q.bitWidth() + 63) / 64;
  Out.LogN = LogN;
  Out.ElemWords = K;
  Out.Domain = Domain;
  Out.Ring = Ring;

  Out.BitRev.resize(NPoints);
  for (size_t I = 0; I < NPoints; ++I) {
    size_t R = 0;
    for (unsigned B = 0; B < LogN; ++B)
      R |= ((I >> B) & 1) << (LogN - 1 - B);
    Out.BitRev[I] = static_cast<std::uint32_t>(R);
  }

  // Montgomery plans take their twiddles pre-converted (w * 2^lambda mod
  // q, lambda the canonical container width), turning the butterfly's
  // modular product into a single REDC; Barrett plans use plain values.
  unsigned Lambda = PlanKey::canonicalContainerBits(Q.bitWidth(), 64);
  auto ToDomain = [&](const Bignum &V) {
    return Domain == mw::Reduction::Montgomery ? (V << Lambda) % Q : V;
  };

  Bignum Root = field::rootOfUnity(Q, NPoints);
  Bignum RootInv = Root.invMod(Q);
  Out.Tw.resize((NPoints - 1) * K);
  Out.InvTw.resize((NPoints - 1) * K);
  for (size_t Len = 1; Len < NPoints; Len <<= 1) {
    Bignum WLen = Root.powMod(Bignum(NPoints / (2 * Len)), Q);
    Bignum WLenInv = RootInv.powMod(Bignum(NPoints / (2 * Len)), Q);
    Bignum Cur(1), CurInv(1);
    for (size_t J = 0; J < Len; ++J) {
      auto CW = packWordsMsbFirst(ToDomain(Cur), K);
      auto CIW = packWordsMsbFirst(ToDomain(CurInv), K);
      std::copy(CW.begin(), CW.end(), Out.Tw.begin() + (Len - 1 + J) * K);
      std::copy(CIW.begin(), CIW.end(),
                Out.InvTw.begin() + (Len - 1 + J) * K);
      Cur = Cur.mulMod(WLen, Q);
      CurInv = CurInv.mulMod(WLenInv, Q);
    }
  }
  Bignum NInv = Bignum(NPoints).invMod(Q);
  Out.NInv = packWordsMsbFirst(ToDomain(NInv), K);

  Out.Twist.clear();
  Out.Untwist.clear();
  if (Neg) {
    // ψ = the primitive 2n-th root with ψ² = ω (rootOfUnityPow2 derives
    // every power-of-two root from one fixed generator per modulus, so
    // the relation holds by construction — and the tables are
    // bit-compatible with ntt::NegacyclicPlan, which uses the same
    // derivation). Twist[i] = ψ^i rides the first forward group's loads;
    // Untwist[i] = ψ^{-i} · n^-1 rides the last inverse group's stores
    // with the inverse scaling already folded in.
    Bignum Psi = field::rootOfUnityPow2(Q, LogN + 1);
    Bignum PsiInv = Psi.invMod(Q);
    Out.Twist.resize(NPoints * K);
    Out.Untwist.resize(NPoints * K);
    Bignum Cur(1), CurInv = NInv;
    for (size_t I = 0; I < NPoints; ++I) {
      auto TW = packWordsMsbFirst(ToDomain(Cur), K);
      auto UW = packWordsMsbFirst(ToDomain(CurInv), K);
      std::copy(TW.begin(), TW.end(), Out.Twist.begin() + I * K);
      std::copy(UW.begin(), UW.end(), Out.Untwist.begin() + I * K);
      Cur = Cur.mulMod(Psi, Q);
      CurInv = CurInv.mulMod(PsiInv, Q);
    }
  }
  return true;
}

namespace {

unsigned clampFuseDepth(unsigned FuseDepth) {
  return std::max(1u, std::min(FuseDepth, rewrite::PlanOptions::MaxFuseDepth));
}

} // namespace

size_t moma::runtime::stageGroupCount(unsigned LogN, unsigned FuseDepth) {
  unsigned Depth = clampFuseDepth(FuseDepth);
  return (LogN + Depth - 1) / Depth;
}

StageGroupPlan moma::runtime::stageGroupAt(unsigned LogN, unsigned FuseDepth,
                                           size_t I) {
  unsigned Depth = clampFuseDepth(FuseDepth);
  unsigned Done = static_cast<unsigned>(I) * Depth;
  return {size_t(1) << Done, std::min(Depth, LogN - Done)};
}

std::vector<StageGroupPlan>
moma::runtime::planStageGroups(unsigned LogN, unsigned FuseDepth) {
  std::vector<StageGroupPlan> Out;
  for (size_t I = 0, G = stageGroupCount(LogN, FuseDepth); I < G; ++I)
    Out.push_back(stageGroupAt(LogN, FuseDepth, I));
  return Out;
}

bool moma::runtime::runTransform(
    ExecutionBackend &EB, const CompiledPlan &P, const NttTables &T,
    const std::vector<const std::uint64_t *> &Aux, std::uint64_t *Data,
    std::uint64_t *Scratch, size_t NPoints, size_t Batch, bool Inverse,
    std::string *Err, std::uint64_t *Dispatches) {
  const unsigned FuseDepth = P.Key.Opts.FuseDepth;
  const size_t G = stageGroupCount(T.LogN, FuseDepth);
  if (G > 1 && !Scratch)
    return fail(Err, "runTransform: multi-group schedule needs a scratch "
                     "buffer");
  bool Neg = P.Key.Opts.Ring == rewrite::NttRing::Negacyclic;
  if (Neg && T.Ring != rewrite::NttRing::Negacyclic)
    return fail(Err, "runTransform: negacyclic plan needs tables built "
                     "with the negacyclic ψ edge-fold tables");
  const std::uint64_t *Tw = Inverse ? T.InvTw.data() : T.Tw.data();

  // Edge groups ping-pong through the scratch so (a) the bit-reversal
  // gather never races an in-place write across virtual threads and
  // (b) the result lands back in Data with zero extra data passes:
  // Data -> Scratch (gathered), in-place on Scratch, Scratch -> Data
  // (scaled when inverse). A single-group transform owns whole rows per
  // thread (loads complete before stores) and runs in place.
  for (size_t I = 0; I < G; ++I) {
    bool First = I == 0, Last = I + 1 == G;
    StageGroupPlan Group = stageGroupAt(T.LogN, FuseDepth, I);
    StageGroup SG;
    SG.Len0 = Group.Len0;
    SG.Depth = Group.Depth;
    SG.Gather = First ? T.BitRev.data() : nullptr;
    // Negacyclic edge folds: ψ^i on the first forward group's loads,
    // ψ^{-i}·n^-1 (per element, n^-1 already folded) on the last inverse
    // group's stores; the cyclic inverse keeps its broadcast n^-1. Same
    // dispatch count either way.
    SG.Twist = First && Neg && !Inverse ? T.Twist.data() : nullptr;
    if (Last && Inverse) {
      SG.Scale = Neg ? T.Untwist.data() : T.NInv.data();
      SG.ScaleStride = Neg ? T.ElemWords : 0;
    }
    if (G == 1) {
      SG.Src = Data;
      SG.Dst = Data;
    } else if (First) {
      SG.Src = Data;
      SG.Dst = Scratch;
    } else if (Last) {
      SG.Src = Scratch;
      SG.Dst = Data;
    } else {
      SG.Src = Scratch;
      SG.Dst = Scratch;
    }
    if (!EB.runStageGroup(P, SG, Tw, Aux, NPoints, Batch, Err))
      return false;
    if (Dispatches)
      ++*Dispatches;
  }
  return true;
}
