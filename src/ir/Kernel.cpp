//===- ir/Kernel.cpp - Kernel container ------------------------------------===//

#include "ir/Ir.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace moma;
using namespace moma::ir;

const char *moma::ir::opKindName(OpKind K) {
  switch (K) {
  case OpKind::Const:
    return "const";
  case OpKind::Copy:
    return "copy";
  case OpKind::Zext:
    return "zext";
  case OpKind::Add:
    return "add";
  case OpKind::Sub:
    return "sub";
  case OpKind::Mul:
    return "mul";
  case OpKind::MulLow:
    return "mullow";
  case OpKind::AddMod:
    return "addmod";
  case OpKind::SubMod:
    return "submod";
  case OpKind::MulMod:
    return "mulmod";
  case OpKind::Lt:
    return "lt";
  case OpKind::Eq:
    return "eq";
  case OpKind::Not:
    return "not";
  case OpKind::And:
    return "and";
  case OpKind::Or:
    return "or";
  case OpKind::Xor:
    return "xor";
  case OpKind::Shl:
    return "shl";
  case OpKind::Shr:
    return "shr";
  case OpKind::Select:
    return "select";
  case OpKind::Split:
    return "split";
  case OpKind::Concat:
    return "concat";
  case OpKind::WideMul:
    return "widemul";
  }
  moma_unreachable("unknown opcode");
}

unsigned moma::ir::wideMulWordProducts(unsigned NA, unsigned NB, unsigned R) {
  unsigned N = 0;
  for (unsigned J = 0; J < NB && J < R; ++J)
    N += std::min(NA, R - J);
  return N;
}

unsigned Kernel::wideMulProductBits(const ValueId *Ops, unsigned NumOps,
                                    unsigned NA) const {
  assert(NA > 0 && NA < NumOps && "widemul needs two non-empty arrays");
  auto Bits = [&](const ValueId *Words, unsigned N) {
    return (N - 1) * value(Words[0]).Bits + value(Words[0]).KnownBits;
  };
  return Bits(Ops, NA) + Bits(Ops + NA, NumOps - NA);
}

unsigned moma::ir::wideMulWordKnown(unsigned ProductBits, unsigned W,
                                    unsigned I) {
  if (ProductBits <= I * W)
    return 1;
  return std::min(W, ProductBits - I * W);
}

ValueId Kernel::newValue(unsigned Bits, const std::string &Name,
                         unsigned KnownBits) {
  assert(Bits >= 1 && "values need at least one bit");
  ValueInfo Info;
  Info.Bits = Bits;
  Info.KnownBits = KnownBits == 0 ? Bits : KnownBits;
  assert(Info.KnownBits <= Bits && "KnownBits exceeds storage width");
  Info.Name = Name;
  Values.push_back(Info);
  return static_cast<ValueId>(Values.size() - 1);
}

void Kernel::addInput(ValueId Id, const std::string &Name) {
  Inputs.push_back(Param{Id, Name});
}

void Kernel::addOutput(ValueId Id, const std::string &Name) {
  Outputs.push_back(Param{Id, Name});
}

unsigned Kernel::maxBits() const {
  unsigned Max = 0;
  for (const auto &V : Values)
    if (V.Bits > Max)
      Max = V.Bits;
  return Max;
}
