//===- rewrite/Lower.cpp - MoMA recursive lowering pass --------------------===//

#include "rewrite/Lower.h"

#include "ir/Builder.h"
#include "support/Error.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <unordered_map>

using namespace moma;
using namespace moma::ir;
using namespace moma::rewrite;
using mw::Bignum;

namespace {

/// The [hi, lo] halves of a split value (rule 19).
struct Half {
  ValueId Hi = NoValue;
  ValueId Lo = NoValue;
};

/// A four-word value [w3, w2, w1, w0], least significant first; the "quad
/// word" of Listings 3/4 that full multiplication produces.
using Quad = std::array<ValueId, 4>;

/// One lowering round: rewrites all statements touching values of width
/// CurW into statements on CurW/2-bit values (the paper's single rewrite
/// step, applied recursively by lowerToWords).
/// Side table of sharper significant-bit bounds, keyed by value id; see
/// LoweredKernel::WordBounds.
using BoundMap = std::unordered_map<ValueId, unsigned>;

class LevelLowering {
public:
  LevelLowering(const Kernel &Old, const LowerOptions &Opts,
                const BoundMap *BoundsIn = nullptr,
                BoundMap *BoundsOut = nullptr)
      : Old(Old), Opts(Opts), Bld(NK), CurW(Old.maxBits()), H(CurW / 2),
        Single(Old.numValues(), NoValue), Pairs(Old.numValues()),
        BoundsIn(BoundsIn), BoundsOut(BoundsOut) {
    assert(CurW % 2 == 0 && "maximal width must be even to split");
    assert(CurW > Opts.TargetWordBits && "nothing to lower");
  }

  Kernel run(std::vector<std::pair<ValueId, ValueId>> *PairsOut);

private:
  // -- Value mapping ------------------------------------------------------

  ValueId mapSingle(ValueId OldId) const {
    assert(Single[OldId] != NoValue && "value not lowered yet");
    return Single[OldId];
  }

  Half mapPair(ValueId OldId) const {
    assert(Pairs[OldId].Hi != NoValue && "pair not lowered yet");
    return Pairs[OldId];
  }

  bool isCur(ValueId OldId) const { return Old.value(OldId).Bits == CurW; }

  /// Significant bits of the wider operand of a Mul/MulLow.
  unsigned operandBits(const Stmt &S) const {
    return std::max(boundOf(S.Operands[0]), boundOf(S.Operands[1]));
  }

  void lowerInput(const Param &P);
  void lowerStmt(const Stmt &S);

  // -- Pair-level rule helpers (all emit width-H statements) --------------

  /// Rule (22)/(23): (carry, [hi, lo]) = A + B (+ Cin).
  std::pair<ValueId, Half> addPair(Half A, Half B, ValueId Cin = NoValue) {
    CarryResult Lo = Bld.add(A.Lo, B.Lo, Cin);
    CarryResult Hi = Bld.add(A.Hi, B.Hi, Lo.Carry);
    return {Hi.Carry, Half{Hi.Value, Lo.Value}};
  }

  /// Rule (25): (borrow, [hi, lo]) = A - B (- Bin).
  std::pair<ValueId, Half> subPair(Half A, Half B, ValueId Bin = NoValue) {
    CarryResult Lo = Bld.sub(A.Lo, B.Lo, Bin);
    CarryResult Hi = Bld.sub(A.Hi, B.Hi, Lo.Carry);
    return {Hi.Carry, Half{Hi.Value, Lo.Value}};
  }

  /// Rule (26): A < B on pairs.
  ValueId ltPair(Half A, Half B) {
    ValueId HiLt = Bld.lt(A.Hi, B.Hi);
    ValueId HiEq = Bld.eq(A.Hi, B.Hi);
    ValueId LoLt = Bld.lt(A.Lo, B.Lo);
    return Bld.bitOr(HiLt, Bld.bitAnd(HiEq, LoLt));
  }

  /// Rule (27): A == B on pairs.
  ValueId eqPair(Half A, Half B) {
    return Bld.bitAnd(Bld.eq(A.Hi, B.Hi), Bld.eq(A.Lo, B.Lo));
  }

  Half selectPair(ValueId Cond, Half A, Half B) {
    return Half{Bld.select(Cond, A.Hi, B.Hi), Bld.select(Cond, A.Lo, B.Lo)};
  }

  /// Rule (28)+(29): Quad = A * B, schoolbook on halves.
  Quad mulFullSchoolbook(Half A, Half B) {
    HiLoResult P0 = Bld.mul(A.Lo, B.Lo); // a_lo * b_lo
    HiLoResult P3 = Bld.mul(A.Hi, B.Hi); // a_hi * b_hi
    HiLoResult F = Bld.mul(A.Hi, B.Lo);
    HiLoResult G = Bld.mul(A.Lo, B.Hi);

    // Cross term C = F + G, a (2H+1)-bit value [Cc:1, Ch, Cl].
    CarryResult CrossLo = Bld.add(F.Lo, G.Lo);
    CarryResult CrossHi = Bld.add(F.Hi, G.Hi, CrossLo.Carry);
    ValueId CcWide = Bld.zext(H, CrossHi.Carry);

    // Accumulate [P3.Hi, P3.Lo, P0.Hi, P0.Lo] + [Cc, Ch, Cl, 0] (rule 29).
    CarryResult R1 = Bld.add(P0.Hi, CrossLo.Value);
    CarryResult R2 = Bld.add(P3.Lo, CrossHi.Value, R1.Carry);
    CarryResult R3 = Bld.add(P3.Hi, CcWide, R2.Carry);
    // R3.Carry is provably zero: the product fits 2*CurW bits.
    return Quad{P0.Lo, R1.Value, R2.Value, R3.Value};
  }

  /// Eq. (9): Quad = A * B via Karatsuba — three half multiplies plus the
  /// carry corrections for the half-sums.
  Quad mulFullKaratsuba(Half A, Half B) {
    HiLoResult P0 = Bld.mul(A.Lo, B.Lo);
    HiLoResult P3 = Bld.mul(A.Hi, B.Hi);
    CarryResult SA = Bld.add(A.Lo, A.Hi);
    CarryResult SB = Bld.add(B.Lo, B.Hi);
    HiLoResult PM = Bld.mul(SA.Value, SB.Value);

    // Middle term M = (SA + ca*2^H)(SB + cb*2^H) on three words
    // [M2, M1, M0]; ca*SB and cb*SA enter via selects, ca*cb via And.
    ValueId Zero = Bld.constantZero(H);
    ValueId SbOrZero = Bld.select(SA.Carry, SB.Value, Zero);
    ValueId SaOrZero = Bld.select(SB.Carry, SA.Value, Zero);
    ValueId BothCarries = Bld.bitAnd(SA.Carry, SB.Carry);

    ValueId M0 = PM.Lo;
    CarryResult M1a = Bld.add(PM.Hi, SbOrZero);
    CarryResult M1b = Bld.add(M1a.Value, SaOrZero);
    // M2 = carries + (ca & cb); all three are bits, sum <= 3 < 2^H.
    CarryResult M2a = Bld.add(Bld.zext(H, M1a.Carry), Bld.zext(H, M1b.Carry));
    CarryResult M2b = Bld.add(M2a.Value, Bld.zext(H, BothCarries));
    ValueId M2 = M2b.Value;
    ValueId M1 = M1b.Value;

    // M -= P0; M -= P3 (three-word subtractions; final borrows are zero
    // because the cross term a_lo*b_hi + a_hi*b_lo is non-negative).
    CarryResult S0 = Bld.sub(M0, P0.Lo);
    CarryResult S1 = Bld.sub(M1, P0.Hi, S0.Carry);
    CarryResult S2 = Bld.sub(M2, Zero, S1.Carry);
    CarryResult T0 = Bld.sub(S0.Value, P3.Lo);
    CarryResult T1 = Bld.sub(S1.Value, P3.Hi, T0.Carry);
    CarryResult T2 = Bld.sub(S2.Value, Zero, T1.Carry);

    // Result = P0 + M*2^H + P3*2^(2H) (rule 29 accumulation).
    CarryResult R1 = Bld.add(P0.Hi, T0.Value);
    CarryResult R2 = Bld.add(P3.Lo, T1.Value, R1.Carry);
    CarryResult R3 = Bld.add(P3.Hi, T2.Value, R2.Carry);
    return Quad{P0.Lo, R1.Value, R2.Value, R3.Value};
  }

  /// Whether a CurW-bit product whose wider operand has at most \p Bits
  /// significant bits becomes one WideMul (see WideMulMinWords).
  bool isWideProduct(unsigned Bits) const {
    return Opts.TargetWordBits == 64 &&
           (Bits + 63) / 64 >= WideMulMinWords;
  }

  /// Quad = A * B, or its low pair, as one WideMul on the halves.
  std::vector<ValueId> wideMulPairs(Half A, Half B, unsigned ResultHalves) {
    return Bld.wideMul({A.Hi, A.Lo}, {B.Hi, B.Lo}, ResultHalves);
  }

  /// Quad = A * B; \p Bits bounds the wider operand's significant bits.
  Quad mulFull(Half A, Half B, unsigned Bits) {
    if (isWideProduct(Bits)) {
      std::vector<ValueId> R = wideMulPairs(A, B, 4);
      return Quad{R[3], R[2], R[1], R[0]};
    }
    return Opts.MulAlg == mw::MulAlgorithm::Karatsuba
               ? mulFullKaratsuba(A, B)
               : mulFullSchoolbook(A, B);
  }

  /// Low half of the product: [hi, lo] = (A * B) mod 2^CurW.
  Half mulLowPair(Half A, Half B, unsigned Bits) {
    if (isWideProduct(Bits)) {
      std::vector<ValueId> R = wideMulPairs(A, B, 2);
      return Half{R[0], R[1]};
    }
    HiLoResult P0 = Bld.mul(A.Lo, B.Lo);
    ValueId FL = Bld.mulLow(A.Hi, B.Lo);
    ValueId GL = Bld.mulLow(A.Lo, B.Hi);
    CarryResult R1a = Bld.add(P0.Hi, FL);
    CarryResult R1b = Bld.add(R1a.Value, GL);
    return Half{R1b.Value, P0.Lo};
  }

  /// Listing 4 `_qshr` generalized: [hi, lo] = Quad >> Amount, for any
  /// Amount with a result that fits two words.
  Half shrQuadToPair(const Quad &Q, unsigned Amount) {
    unsigned WordShift = Amount / H;
    unsigned BitShift = Amount % H;
    assert(WordShift <= 3 && "shift discards the whole quad");
    auto WordAt = [&](unsigned I) -> ValueId {
      return I < 4 ? Q[I] : Bld.constantZero(H);
    };
    auto Piece = [&](unsigned I) -> ValueId {
      ValueId LoPart = WordAt(I + WordShift);
      if (BitShift == 0)
        return Bld.copy(LoPart);
      ValueId HiPart = WordAt(I + WordShift + 1);
      return Bld.bitOr(Bld.shr(LoPart, BitShift),
                       Bld.shl(HiPart, H - BitShift));
    };
    ValueId Lo = Piece(0);
    ValueId Hi = Piece(1);
    return Half{Hi, Lo};
  }

  /// The sharpest significant-bit bound known for an old value: its
  /// KnownBits, refined by any bound a previous round recorded for it.
  unsigned boundOf(ValueId OldId) const {
    unsigned K = Old.value(OldId).KnownBits;
    if (BoundsIn) {
      auto It = BoundsIn->find(OldId);
      if (It != BoundsIn->end())
        K = std::min(K, It->second);
    }
    return K;
  }

  /// Records value < 2^B for a new value when B is sharper than the
  /// value's own KnownBits (B == 0: provably zero).
  void recordBound(ValueId NewId, unsigned B) {
    if (!BoundsOut || B >= NK.value(NewId).KnownBits)
      return;
    auto [It, Inserted] = BoundsOut->emplace(NewId, B);
    if (!Inserted)
      It->second = std::min(It->second, B);
  }

  /// Registers the lowering of an old CurW-wide value. The halves were
  /// built with the generic KnownBits formulas; when the old value's bound
  /// is sharper (rule 19 distributes it across the halves) the loss is
  /// recorded in the bounds side table rather than in the half ValueInfos,
  /// keeping the emitted kernel independent of the table.
  void bindPair(ValueId OldId, Half P) {
    assert(isCur(OldId) && "pair binding for a non-CurW value");
    Pairs[OldId] = P;
    if (BoundsOut) {
      unsigned K = boundOf(OldId);
      recordBound(P.Hi, K > H ? K - H : 0);
      recordBound(P.Lo, std::min(K, H));
    }
  }

  void bindSingle(ValueId OldId, ValueId NewId) {
    Single[OldId] = NewId;
    if (BoundsOut)
      recordBound(NewId, boundOf(OldId));
  }

  Kernel NK;
  const Kernel &Old;
  LowerOptions Opts;
  Builder Bld;
  unsigned CurW, H;
  std::vector<ValueId> Single;
  std::vector<Half> Pairs;
  const BoundMap *BoundsIn;
  BoundMap *BoundsOut;
};

} // namespace

void LevelLowering::lowerInput(const Param &P) {
  const ValueInfo &V = Old.value(P.Id);
  if (V.Bits != CurW) {
    ValueId NewId = NK.newValue(V.Bits, P.Name, V.KnownBits);
    NK.addInput(NewId, P.Name);
    bindSingle(P.Id, NewId);
    return;
  }
  // Rule (19) on a kernel input. A hi half with no significant bits is the
  // paper's non-power-of-two pruning: it becomes a constant zero, not a
  // parameter (Eq. 35/36).
  unsigned HiKnown = V.KnownBits > H ? V.KnownBits - H : 0;
  unsigned LoKnown = std::min(V.KnownBits, H);
  Half Halves;
  if (HiKnown == 0) {
    Halves.Hi = Bld.constant(H, Bignum(0), P.Name + "0");
  } else {
    Halves.Hi = NK.newValue(H, P.Name + "0", HiKnown);
    NK.addInput(Halves.Hi, P.Name + "0");
  }
  Halves.Lo = NK.newValue(H, P.Name + "1", std::max(1u, LoKnown));
  NK.addInput(Halves.Lo, P.Name + "1");
  bindPair(P.Id, Halves);
}

void LevelLowering::lowerStmt(const Stmt &S) {
  // Statements not touching CurW values clone straight across.
  bool TouchesCur = false;
  for (ValueId Id : S.Operands)
    TouchesCur |= isCur(Id);
  for (ValueId Id : S.Results)
    TouchesCur |= isCur(Id);
  if (!TouchesCur) {
    Stmt Clone = S;
    for (ValueId &Id : Clone.Operands)
      Id = mapSingle(Id);
    for (ValueId &Id : Clone.Results) {
      const ValueInfo &V = Old.value(Id);
      ValueId NewId = NK.newValue(V.Bits, V.Name, V.KnownBits);
      bindSingle(Id, NewId);
      Id = NewId;
    }
    NK.Body.push_back(std::move(Clone));
    return;
  }

  switch (S.Kind) {
  case OpKind::Const: {
    // Rule (19) on a literal: split into hi/lo constants.
    Half P;
    P.Hi = Bld.constant(H, S.Literal >> H);
    P.Lo = Bld.constant(H, S.Literal.truncate(H));
    bindPair(S.Results[0], P);
    return;
  }
  case OpKind::Copy:
    bindPair(S.Results[0], mapPair(S.Operands[0]));
    return;
  case OpKind::Zext: {
    const ValueInfo &OpV = Old.value(S.Operands[0]);
    Half P;
    P.Hi = Bld.constantZero(H);
    if (OpV.Bits == H)
      P.Lo = Bld.copy(mapSingle(S.Operands[0]));
    else
      P.Lo = Bld.zext(H, mapSingle(S.Operands[0]));
    bindPair(S.Results[0], P);
    return;
  }
  case OpKind::Add: {
    ValueId Cin =
        S.Operands.size() == 3 ? mapSingle(S.Operands[2]) : NoValue;
    auto [Carry, Sum] =
        addPair(mapPair(S.Operands[0]), mapPair(S.Operands[1]), Cin);
    bindSingle(S.Results[0], Carry);
    bindPair(S.Results[1], Sum);
    return;
  }
  case OpKind::Sub: {
    ValueId Bin =
        S.Operands.size() == 3 ? mapSingle(S.Operands[2]) : NoValue;
    auto [Borrow, Diff] =
        subPair(mapPair(S.Operands[0]), mapPair(S.Operands[1]), Bin);
    bindSingle(S.Results[0], Borrow);
    bindPair(S.Results[1], Diff);
    return;
  }
  case OpKind::Mul: {
    Quad Q = mulFull(mapPair(S.Operands[0]), mapPair(S.Operands[1]),
                     operandBits(S));
    bindPair(S.Results[0], Half{Q[3], Q[2]});
    bindPair(S.Results[1], Half{Q[1], Q[0]});
    return;
  }
  case OpKind::MulLow:
    bindPair(S.Results[0],
             mulLowPair(mapPair(S.Operands[0]), mapPair(S.Operands[1]),
                        operandBits(S)));
    return;
  case OpKind::WideMul: {
    // Rule (19) on every word of the arrays: the product is unchanged,
    // each CurW word becomes its [hi, lo] pair.
    std::vector<ValueId> Ops;
    for (ValueId Id : S.Operands) {
      Half P = mapPair(Id);
      Ops.push_back(P.Hi);
      Ops.push_back(P.Lo);
    }
    unsigned NA = 2 * S.Amount;
    std::vector<ValueId> R = Bld.wideMul(
        std::vector<ValueId>(Ops.begin(), Ops.begin() + NA),
        std::vector<ValueId>(Ops.begin() + NA, Ops.end()),
        2 * static_cast<unsigned>(S.Results.size()));
    for (size_t I = 0; I < S.Results.size(); ++I)
      bindPair(S.Results[I], Half{R[2 * I], R[2 * I + 1]});
    return;
  }
  case OpKind::AddMod: {
    // Rules (22) + (24): full-width sum with top carry D0, then compare
    // against q and conditionally subtract. We subtract when the sum >= q,
    // i.e. keep the sum only when !D0 && sum < q (fixing the paper's
    // strict-< off-by-one, see DESIGN.md).
    Half A = mapPair(S.Operands[0]);
    Half BB = mapPair(S.Operands[1]);
    Half Q = mapPair(S.Operands[2]);
    auto [D0, Sum] = addPair(A, BB);
    ValueId SumLtQ = ltPair(Sum, Q);
    ValueId Keep = Bld.bitAnd(Bld.logicalNot(D0), SumLtQ);
    auto [Borrow, Diff] = subPair(Sum, Q);
    (void)Borrow; // dead: when we select Diff the subtraction cannot borrow
                  // past the implicit 2^(2H) from D0
    bindPair(S.Results[0], selectPair(Keep, Sum, Diff));
    return;
  }
  case OpKind::SubMod: {
    // Listing 2 `_dsubmod`: subtract, add q back, select on the borrow.
    Half A = mapPair(S.Operands[0]);
    Half BB = mapPair(S.Operands[1]);
    Half Q = mapPair(S.Operands[2]);
    auto [Borrow, Diff] = subPair(A, BB);
    auto [Carry, Fixed] = addPair(Diff, Q);
    (void)Carry; // dead: wraps back into range exactly when Borrow is set
    bindPair(S.Results[0], selectPair(Borrow, Fixed, Diff));
    return;
  }
  case OpKind::MulMod: {
    // Listing 4 `_dmulmod`: Barrett reduction on pairs.
    Half A = mapPair(S.Operands[0]);
    Half BB = mapPair(S.Operands[1]);
    Half Q = mapPair(S.Operands[2]);
    Half Mu = mapPair(S.Operands[3]);
    unsigned M = S.ModBits;

    // mu < 2^(m+4) is the widest operand of the three products.
    Quad T = mulFull(A, BB, M + 4);            // t = a*b
    Half R1 = shrQuadToPair(T, M - 2);         // r1 = t >> (m-2)
    Quad U = mulFull(R1, Mu, M + 4);           // r2 = r1 * mu
    Half E = shrQuadToPair(U, M + 5);          // e = r2 >> (m+5)
    Half P = mulLowPair(E, Q, M + 4);          // p = (e * q) mod 2^(2H)
    Half TLow{T[1], T[0]};
    auto [Borrow, C] = subPair(TLow, P);       // c = t - e*q (fits a pair)
    (void)Borrow;                              // provably zero: e <= t/q
    ValueId CLtQ = ltPair(C, Q);
    auto [Borrow2, D] = subPair(C, Q);
    (void)Borrow2;
    bindPair(S.Results[0], selectPair(CLtQ, C, D));
    return;
  }
  case OpKind::Lt:
    bindSingle(S.Results[0],
               ltPair(mapPair(S.Operands[0]), mapPair(S.Operands[1])));
    return;
  case OpKind::Eq:
    bindSingle(S.Results[0],
               eqPair(mapPair(S.Operands[0]), mapPair(S.Operands[1])));
    return;
  case OpKind::Not:
    moma_unreachable("Not operates on flags and never touches CurW");
  case OpKind::And:
  case OpKind::Or:
  case OpKind::Xor: {
    Half A = mapPair(S.Operands[0]);
    Half BB = mapPair(S.Operands[1]);
    auto EmitHalf = [&](ValueId X, ValueId Y) {
      switch (S.Kind) {
      case OpKind::And:
        return Bld.bitAnd(X, Y);
      case OpKind::Or:
        return Bld.bitOr(X, Y);
      default:
        return Bld.bitXor(X, Y);
      }
    };
    bindPair(S.Results[0], Half{EmitHalf(A.Hi, BB.Hi), EmitHalf(A.Lo, BB.Lo)});
    return;
  }
  case OpKind::Shr: {
    Half A = mapPair(S.Operands[0]);
    unsigned K = S.Amount;
    Half R;
    if (K == 0) {
      R = Half{Bld.copy(A.Hi), Bld.copy(A.Lo)};
    } else if (K < H) {
      R.Lo = Bld.bitOr(Bld.shr(A.Lo, K), Bld.shl(A.Hi, H - K));
      R.Hi = Bld.shr(A.Hi, K);
    } else if (K == H) {
      R.Lo = Bld.copy(A.Hi);
      R.Hi = Bld.constantZero(H);
    } else {
      R.Lo = Bld.shr(A.Hi, K - H);
      R.Hi = Bld.constantZero(H);
    }
    bindPair(S.Results[0], R);
    return;
  }
  case OpKind::Shl: {
    Half A = mapPair(S.Operands[0]);
    unsigned K = S.Amount;
    Half R;
    if (K == 0) {
      R = Half{Bld.copy(A.Hi), Bld.copy(A.Lo)};
    } else if (K < H) {
      R.Hi = Bld.bitOr(Bld.shl(A.Hi, K), Bld.shr(A.Lo, H - K));
      R.Lo = Bld.shl(A.Lo, K);
    } else if (K == H) {
      R.Hi = Bld.copy(A.Lo);
      R.Lo = Bld.constantZero(H);
    } else {
      R.Hi = Bld.shl(A.Lo, K - H);
      R.Lo = Bld.constantZero(H);
    }
    bindPair(S.Results[0], R);
    return;
  }
  case OpKind::Select: {
    ValueId Cond = mapSingle(S.Operands[0]);
    bindPair(S.Results[0], selectPair(Cond, mapPair(S.Operands[1]),
                                      mapPair(S.Operands[2])));
    return;
  }
  case OpKind::Split: {
    // Rules (20)/(21): at this level a split is pure wiring — the halves
    // already exist.
    Half A = mapPair(S.Operands[0]);
    bindSingle(S.Results[0], Bld.copy(A.Hi));
    bindSingle(S.Results[1], Bld.copy(A.Lo));
    return;
  }
  case OpKind::Concat: {
    Half P;
    P.Hi = Bld.copy(mapSingle(S.Operands[0]));
    P.Lo = Bld.copy(mapSingle(S.Operands[1]));
    bindPair(S.Results[0], P);
    return;
  }
  }
  moma_unreachable("unhandled opcode in lowering");
}

Kernel LevelLowering::run(std::vector<std::pair<ValueId, ValueId>> *PairsOut) {
  NK.Name = Old.Name;
  for (const Param &P : Old.inputs())
    lowerInput(P);
  for (const Stmt &S : Old.Body)
    lowerStmt(S);
  for (const Param &P : Old.outputs()) {
    if (!isCur(P.Id)) {
      NK.addOutput(mapSingle(P.Id), P.Name);
      continue;
    }
    Half Halves = mapPair(P.Id);
    NK.addOutput(Halves.Hi, P.Name + "0");
    NK.addOutput(Halves.Lo, P.Name + "1");
  }
  if (PairsOut) {
    PairsOut->clear();
    PairsOut->resize(Old.numValues(), {NoValue, NoValue});
    for (size_t I = 0; I < Old.numValues(); ++I) {
      if (Pairs[I].Hi != NoValue)
        (*PairsOut)[I] = {Pairs[I].Hi, Pairs[I].Lo};
      else
        (*PairsOut)[I] = {Single[I], NoValue};
    }
  }
  return std::move(NK);
}

Kernel moma::rewrite::lowerOneLevel(
    const Kernel &K, const LowerOptions &Opts,
    std::vector<std::pair<ValueId, ValueId>> *PairsOut) {
  return LevelLowering(K, Opts).run(PairsOut);
}

LoweredKernel moma::rewrite::lowerToWords(const Kernel &K,
                                          const LowerOptions &Opts) {
  if (Opts.TargetWordBits < 8 ||
      (Opts.TargetWordBits & (Opts.TargetWordBits - 1)) != 0)
    fatalError("lowerToWords: target word width must be a power of two >= 8");

  LoweredKernel Out;
  Out.K = K;

  // Seed the port word lists with the original single values.
  auto SeedPorts = [&](const std::vector<Param> &Ports,
                       std::vector<LoweredPort> &Dst) {
    for (const Param &P : Ports) {
      LoweredPort LP;
      LP.Name = P.Name;
      LP.ContainerBits = K.value(P.Id).Bits;
      LP.KnownBits = K.value(P.Id).KnownBits;
      LP.WordBits = Opts.TargetWordBits;
      LP.Words = {P.Id};
      LP.IsConstZero = {false};
      Dst.push_back(std::move(LP));
    }
  };
  SeedPorts(K.inputs(), Out.Inputs);
  SeedPorts(K.outputs(), Out.Outputs);

  std::vector<std::pair<ValueId, ValueId>> Map;
  BoundMap Bounds;
  while (Out.K.maxBits() > Opts.TargetWordBits) {
    unsigned CurW = Out.K.maxBits();
    BoundMap NextBounds;
    Kernel Next = LevelLowering(Out.K, Opts, &Bounds, &NextBounds).run(&Map);
    Bounds = std::move(NextBounds);
    ++Out.Rounds;

    // Re-derive every port's word list through the round's value map.
    // Input-port words that are not parameters of the new kernel are the
    // statically pruned zeros; output-port words are computed values and
    // are never pruned by the round itself.
    std::vector<bool> IsNextInput(Next.numValues(), false);
    for (const Param &P : Next.inputs())
      IsNextInput[P.Id] = true;
    auto Remap = [&](std::vector<LoweredPort> &Ports, bool InputSide) {
      for (LoweredPort &LP : Ports) {
        std::vector<ValueId> NewWords;
        std::vector<bool> NewZero;
        for (size_t I = 0; I < LP.Words.size(); ++I) {
          auto [A, B] = Map[LP.Words[I]];
          NewWords.push_back(A);
          NewZero.push_back(InputSide && !IsNextInput[A]);
          if (B != NoValue) {
            NewWords.push_back(B);
            NewZero.push_back(InputSide && !IsNextInput[B]);
          }
        }
        LP.Words = std::move(NewWords);
        LP.IsConstZero = std::move(NewZero);
      }
    };
    Remap(Out.Inputs, /*InputSide=*/true);
    Remap(Out.Outputs, /*InputSide=*/false);
    Out.K = std::move(Next);
    if (Out.K.maxBits() >= CurW)
      fatalError("lowerToWords: lowering failed to reduce the widths");
  }
  // Publish the last round's surviving bounds, sorted for determinism.
  Out.WordBounds.assign(Bounds.begin(), Bounds.end());
  std::sort(Out.WordBounds.begin(), Out.WordBounds.end());
  return Out;
}
