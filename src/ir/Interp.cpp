//===- ir/Interp.cpp - Reference interpreter -------------------------------===//

#include "ir/Interp.h"

#include "support/Error.h"

#include <cassert>

using namespace moma;
using namespace moma::ir;
using mw::Bignum;

namespace {

/// Evaluation state: one Bignum slot per value plus a defined bit.
class Evaluator {
public:
  explicit Evaluator(const Kernel &K)
      : K(K), Slots(K.numValues()), Defined(K.numValues(), false) {}

  void define(ValueId Id, Bignum V) {
    const ValueInfo &Info = K.value(Id);
    assert(V.bitWidth() <= Info.Bits && "value exceeds its storage width");
    (void)Info;
    Slots[Id] = std::move(V);
    Defined[Id] = true;
  }

  const Bignum &get(ValueId Id) const {
    assert(Id >= 0 && static_cast<size_t>(Id) < Slots.size() &&
           "operand id out of range");
    assert(Defined[Id] && "use before definition");
    return Slots[Id];
  }

  void run(const Stmt &S);

private:
  const Kernel &K;
  std::vector<Bignum> Slots;
  std::vector<bool> Defined;
};

} // namespace

void Evaluator::run(const Stmt &S) {
  auto Width = [&](ValueId Id) { return K.value(Id).Bits; };

  switch (S.Kind) {
  case OpKind::Const:
    define(S.Results[0], S.Literal);
    return;
  case OpKind::Copy:
  case OpKind::Zext:
    define(S.Results[0], get(S.Operands[0]));
    return;
  case OpKind::Add: {
    unsigned W = Width(S.Results[1]);
    Bignum Sum = get(S.Operands[0]) + get(S.Operands[1]);
    if (S.Operands.size() == 3)
      Sum += get(S.Operands[2]);
    define(S.Results[0], Sum >> W);
    define(S.Results[1], Sum.truncate(W));
    return;
  }
  case OpKind::Sub: {
    unsigned W = Width(S.Results[1]);
    Bignum A = get(S.Operands[0]);
    Bignum B = get(S.Operands[1]);
    if (S.Operands.size() == 3)
      B += get(S.Operands[2]);
    if (A >= B) {
      define(S.Results[0], Bignum(0));
      define(S.Results[1], A - B);
    } else {
      define(S.Results[0], Bignum(1));
      define(S.Results[1], (Bignum::powerOfTwo(W) + A) - B);
    }
    return;
  }
  case OpKind::Mul: {
    unsigned W = Width(S.Results[1]);
    Bignum P = get(S.Operands[0]) * get(S.Operands[1]);
    define(S.Results[0], P >> W);
    define(S.Results[1], P.truncate(W));
    return;
  }
  case OpKind::MulLow: {
    unsigned W = Width(S.Results[0]);
    Bignum P = get(S.Operands[0]) * get(S.Operands[1]);
    define(S.Results[0], P.truncate(W));
    return;
  }
  case OpKind::AddMod: {
    const Bignum &Q = get(S.Operands[2]);
    assert(get(S.Operands[0]) < Q && get(S.Operands[1]) < Q &&
           "addmod inputs must be reduced");
    define(S.Results[0], get(S.Operands[0]).addMod(get(S.Operands[1]), Q));
    return;
  }
  case OpKind::SubMod: {
    const Bignum &Q = get(S.Operands[2]);
    assert(get(S.Operands[0]) < Q && get(S.Operands[1]) < Q &&
           "submod inputs must be reduced");
    define(S.Results[0], get(S.Operands[0]).subMod(get(S.Operands[1]), Q));
    return;
  }
  case OpKind::MulMod: {
    const Bignum &Q = get(S.Operands[2]);
    assert(get(S.Operands[0]) < Q && get(S.Operands[1]) < Q &&
           "mulmod inputs must be reduced");
    assert(Q.bitWidth() == S.ModBits && "ModBits does not match modulus");
    define(S.Results[0], get(S.Operands[0]).mulMod(get(S.Operands[1]), Q));
    return;
  }
  case OpKind::Lt:
    define(S.Results[0], Bignum(get(S.Operands[0]) < get(S.Operands[1])));
    return;
  case OpKind::Eq:
    define(S.Results[0], Bignum(get(S.Operands[0]) == get(S.Operands[1])));
    return;
  case OpKind::Not:
    define(S.Results[0], Bignum(get(S.Operands[0]).isZero() ? 1 : 0));
    return;
  case OpKind::And:
  case OpKind::Or:
  case OpKind::Xor: {
    // Bignum has no bitwise ops; widths here are small in practice but the
    // word loop keeps it fully general.
    const Bignum &A = get(S.Operands[0]);
    const Bignum &B = get(S.Operands[1]);
    size_t N = std::max(A.numLimbs(), B.numLimbs());
    std::vector<std::uint64_t> Out(N ? N : 1, 0);
    for (size_t I = 0; I < N; ++I) {
      std::uint64_t X = A.limb(I), Y = B.limb(I);
      Out[I] = S.Kind == OpKind::And ? (X & Y)
               : S.Kind == OpKind::Or ? (X | Y)
                                      : (X ^ Y);
    }
    define(S.Results[0], Bignum::fromWords(Out));
    return;
  }
  case OpKind::Shl: {
    unsigned W = Width(S.Results[0]);
    define(S.Results[0], (get(S.Operands[0]) << S.Amount).truncate(W));
    return;
  }
  case OpKind::Shr:
    define(S.Results[0], get(S.Operands[0]) >> S.Amount);
    return;
  case OpKind::Select:
    define(S.Results[0], get(S.Operands[0]).isZero() ? get(S.Operands[2])
                                                     : get(S.Operands[1]));
    return;
  case OpKind::Split: {
    unsigned H = Width(S.Results[0]);
    const Bignum &A = get(S.Operands[0]);
    define(S.Results[0], A >> H);
    define(S.Results[1], A.truncate(H));
    return;
  }
  case OpKind::Concat: {
    unsigned H = Width(S.Operands[1]);
    define(S.Results[0], (get(S.Operands[0]) << H) + get(S.Operands[1]));
    return;
  }
  case OpKind::WideMul: {
    unsigned W = Width(S.Results[0]);
    auto Array = [&](size_t Begin, size_t End) {
      Bignum V(0);
      for (size_t I = Begin; I < End; ++I)
        V = (V << W) + get(S.Operands[I]);
      return V;
    };
    Bignum P = Array(0, S.Amount) * Array(S.Amount, S.Operands.size());
    size_t R = S.Results.size();
    for (size_t I = 0; I < R; ++I)
      define(S.Results[R - 1 - I], (P >> unsigned(I * W)).truncate(W));
    return;
  }
  }
  moma_unreachable("unknown opcode in interpreter");
}

std::vector<Bignum>
moma::ir::interpret(const Kernel &K, const std::vector<Bignum> &InputValues) {
  if (InputValues.size() != K.inputs().size())
    fatalError("interpret: expected " + std::to_string(K.inputs().size()) +
               " inputs, got " + std::to_string(InputValues.size()));
  Evaluator E(K);
  for (size_t I = 0; I < InputValues.size(); ++I) {
    const Param &P = K.inputs()[I];
    // KnownBits is a contract: the Simplify pass prunes code based on it,
    // so feeding a wider value would silently diverge. Reject it here.
    if (InputValues[I].bitWidth() > K.value(P.Id).KnownBits)
      fatalError("interpret: input '" + P.Name + "' exceeds its KnownBits");
    E.define(P.Id, InputValues[I]);
  }
  for (const Stmt &S : K.Body)
    E.run(S);
  std::vector<Bignum> Out;
  Out.reserve(K.outputs().size());
  for (const Param &P : K.outputs())
    Out.push_back(E.get(P.Id));
  return Out;
}
