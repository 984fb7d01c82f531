//===- ir/Builder.cpp - Statement construction helpers --------------------===//

#include "ir/Builder.h"

#include <algorithm>
#include <cassert>

using namespace moma;
using namespace moma::ir;

Stmt &Builder::emit(OpKind Kind, std::vector<ValueId> Results,
                    std::vector<ValueId> Operands) {
  Stmt S;
  S.Kind = Kind;
  S.Results = std::move(Results);
  S.Operands = std::move(Operands);
  K.Body.push_back(std::move(S));
  return K.Body.back();
}

ValueId Builder::constant(unsigned Bits, const mw::Bignum &Literal,
                          const std::string &Name) {
  assert(Literal.bitWidth() <= Bits && "literal does not fit its type");
  ValueId R = K.newValue(Bits, Name, std::max(1u, Literal.bitWidth()));
  Stmt &S = emit(OpKind::Const, {R}, {});
  S.Literal = Literal;
  return R;
}

ValueId Builder::copy(ValueId A, const std::string &Name) {
  ValueId R = K.newValue(bitsOf(A), Name, K.value(A).KnownBits);
  emit(OpKind::Copy, {R}, {A});
  return R;
}

ValueId Builder::zext(unsigned Bits, ValueId A) {
  assert(Bits >= bitsOf(A) && "zext must not narrow");
  ValueId R = K.newValue(Bits, "", K.value(A).KnownBits);
  emit(OpKind::Zext, {R}, {A});
  return R;
}

CarryResult Builder::add(ValueId A, ValueId B, ValueId Cin) {
  unsigned W = bitsOf(A);
  assert(bitsOf(B) == W && "add operands must have equal width");
  assert((Cin == NoValue || bitsOf(Cin) == 1) && "carry-in must be 1-bit");
  ValueId Carry = K.newValue(1);
  ValueId Sum = K.newValue(W);
  std::vector<ValueId> Ops = {A, B};
  if (Cin != NoValue)
    Ops.push_back(Cin);
  emit(OpKind::Add, {Carry, Sum}, std::move(Ops));
  return {Carry, Sum};
}

CarryResult Builder::sub(ValueId A, ValueId B, ValueId Bin) {
  unsigned W = bitsOf(A);
  assert(bitsOf(B) == W && "sub operands must have equal width");
  assert((Bin == NoValue || bitsOf(Bin) == 1) && "borrow-in must be 1-bit");
  ValueId Borrow = K.newValue(1);
  ValueId Diff = K.newValue(W);
  std::vector<ValueId> Ops = {A, B};
  if (Bin != NoValue)
    Ops.push_back(Bin);
  emit(OpKind::Sub, {Borrow, Diff}, std::move(Ops));
  return {Borrow, Diff};
}

HiLoResult Builder::mul(ValueId A, ValueId B) {
  unsigned W = bitsOf(A);
  assert(bitsOf(B) == W && "mul operands must have equal width");
  ValueId Hi = K.newValue(W);
  ValueId Lo = K.newValue(W);
  emit(OpKind::Mul, {Hi, Lo}, {A, B});
  return {Hi, Lo};
}

ValueId Builder::mulLow(ValueId A, ValueId B) {
  unsigned W = bitsOf(A);
  assert(bitsOf(B) == W && "mullow operands must have equal width");
  ValueId R = K.newValue(W);
  emit(OpKind::MulLow, {R}, {A, B});
  return R;
}

std::vector<ValueId> Builder::wideMul(const std::vector<ValueId> &A,
                                      const std::vector<ValueId> &B,
                                      unsigned R) {
  assert(!A.empty() && !B.empty() && R >= 1 && R <= A.size() + B.size() &&
         "widemul shape");
  unsigned W = bitsOf(A[0]);
  std::vector<ValueId> Ops = A;
  Ops.insert(Ops.end(), B.begin(), B.end());
  for ([[maybe_unused]] ValueId Op : Ops)
    assert(bitsOf(Op) == W && "widemul words must share one width");
  unsigned ProductBits = K.wideMulProductBits(
      Ops.data(), static_cast<unsigned>(Ops.size()),
      static_cast<unsigned>(A.size()));
  std::vector<ValueId> Results(R);
  for (unsigned I = 0; I < R; ++I)
    Results[R - 1 - I] = K.newValue(W, "", wideMulWordKnown(ProductBits, W, I));
  Stmt &S = emit(OpKind::WideMul, Results, std::move(Ops));
  S.Amount = static_cast<unsigned>(A.size());
  return Results;
}

ValueId Builder::addMod(ValueId A, ValueId B, ValueId Q) {
  unsigned W = bitsOf(A);
  assert(bitsOf(B) == W && bitsOf(Q) == W && "addmod width mismatch");
  ValueId R = K.newValue(W, "", K.value(Q).KnownBits);
  emit(OpKind::AddMod, {R}, {A, B, Q});
  return R;
}

ValueId Builder::subMod(ValueId A, ValueId B, ValueId Q) {
  unsigned W = bitsOf(A);
  assert(bitsOf(B) == W && bitsOf(Q) == W && "submod width mismatch");
  ValueId R = K.newValue(W, "", K.value(Q).KnownBits);
  emit(OpKind::SubMod, {R}, {A, B, Q});
  return R;
}

ValueId Builder::mulMod(ValueId A, ValueId B, ValueId Q, ValueId Mu,
                        unsigned ModBits) {
  unsigned W = bitsOf(A);
  assert(bitsOf(B) == W && bitsOf(Q) == W && bitsOf(Mu) == W &&
         "mulmod width mismatch");
  assert(ModBits + 4 <= W && "Barrett needs four free top bits (m <= w-4)");
  ValueId R = K.newValue(W, "", ModBits);
  Stmt &S = emit(OpKind::MulMod, {R}, {A, B, Q, Mu});
  S.ModBits = ModBits;
  return R;
}

ValueId Builder::lt(ValueId A, ValueId B) {
  assert(bitsOf(A) == bitsOf(B) && "lt width mismatch");
  ValueId R = K.newValue(1);
  emit(OpKind::Lt, {R}, {A, B});
  return R;
}

ValueId Builder::eq(ValueId A, ValueId B) {
  assert(bitsOf(A) == bitsOf(B) && "eq width mismatch");
  ValueId R = K.newValue(1);
  emit(OpKind::Eq, {R}, {A, B});
  return R;
}

ValueId Builder::logicalNot(ValueId A) {
  assert(bitsOf(A) == 1 && "not expects a flag");
  ValueId R = K.newValue(1);
  emit(OpKind::Not, {R}, {A});
  return R;
}

ValueId Builder::bitAnd(ValueId A, ValueId B) {
  assert(bitsOf(A) == bitsOf(B) && "and width mismatch");
  ValueId R = K.newValue(bitsOf(A));
  emit(OpKind::And, {R}, {A, B});
  return R;
}

ValueId Builder::bitOr(ValueId A, ValueId B) {
  assert(bitsOf(A) == bitsOf(B) && "or width mismatch");
  ValueId R = K.newValue(bitsOf(A));
  emit(OpKind::Or, {R}, {A, B});
  return R;
}

ValueId Builder::bitXor(ValueId A, ValueId B) {
  assert(bitsOf(A) == bitsOf(B) && "xor width mismatch");
  ValueId R = K.newValue(bitsOf(A));
  emit(OpKind::Xor, {R}, {A, B});
  return R;
}

ValueId Builder::shl(ValueId A, unsigned Amount) {
  assert(Amount < bitsOf(A) && "shift amount out of range");
  ValueId R = K.newValue(bitsOf(A));
  Stmt &S = emit(OpKind::Shl, {R}, {A});
  S.Amount = Amount;
  return R;
}

ValueId Builder::shr(ValueId A, unsigned Amount) {
  assert(Amount < bitsOf(A) && "shift amount out of range");
  ValueId R = K.newValue(bitsOf(A));
  Stmt &S = emit(OpKind::Shr, {R}, {A});
  S.Amount = Amount;
  return R;
}

ValueId Builder::select(ValueId Cond, ValueId A, ValueId B) {
  assert(bitsOf(Cond) == 1 && "select condition must be a flag");
  assert(bitsOf(A) == bitsOf(B) && "select arm width mismatch");
  ValueId R = K.newValue(bitsOf(A));
  emit(OpKind::Select, {R}, {Cond, A, B});
  return R;
}

HiLoResult Builder::split(ValueId A) {
  unsigned W = bitsOf(A);
  assert(W % 2 == 0 && "can only split even widths");
  unsigned H = W / 2;
  unsigned Known = K.value(A).KnownBits;
  // Rule (19): KnownBits distributes across the halves; a hi half with
  // KnownBits clamped to zero gets the 1-bit floor (it still stores zero).
  unsigned HiKnown = Known > H ? Known - H : 1;
  unsigned LoKnown = std::min(Known, H);
  ValueId Hi = K.newValue(H, "", HiKnown);
  ValueId Lo = K.newValue(H, "", std::max(1u, LoKnown));
  emit(OpKind::Split, {Hi, Lo}, {A});
  return {Hi, Lo};
}

ValueId Builder::concat(ValueId Hi, ValueId Lo) {
  unsigned H = bitsOf(Hi);
  assert(bitsOf(Lo) == H && "concat halves must have equal width");
  ValueId R = K.newValue(2 * H);
  emit(OpKind::Concat, {R}, {Hi, Lo});
  return R;
}
