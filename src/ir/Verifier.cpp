//===- ir/Verifier.cpp - IR well-formedness checks -------------------------===//

#include "ir/Verifier.h"

#include "ir/Printer.h"
#include "support/Format.h"

using namespace moma;
using namespace moma::ir;

namespace {

class VerifierImpl {
public:
  explicit VerifierImpl(const Kernel &K)
      : K(K), Defined(K.numValues(), false) {}

  std::vector<std::string> run();

private:
  void error(const Stmt &S, const std::string &Msg) {
    Errors.push_back(Msg + " in: " + printStmt(K, S));
  }
  void error(const std::string &Msg) { Errors.push_back(Msg); }

  unsigned width(ValueId Id) const { return K.value(Id).Bits; }

  bool checkId(ValueId Id) const {
    return Id >= 0 && static_cast<size_t>(Id) < K.numValues();
  }

  void checkStmt(const Stmt &S);

  const Kernel &K;
  std::vector<bool> Defined;
  std::vector<std::string> Errors;
};

} // namespace

std::vector<std::string> VerifierImpl::run() {
  for (const Param &P : K.inputs()) {
    if (!checkId(P.Id)) {
      error("input '" + P.Name + "' has an invalid value id");
      continue;
    }
    if (Defined[P.Id])
      error("input '" + P.Name + "' declared twice");
    Defined[P.Id] = true;
  }

  for (const Stmt &S : K.Body)
    checkStmt(S);

  if (K.outputs().empty())
    error("kernel has no outputs");
  for (const Param &P : K.outputs()) {
    if (!checkId(P.Id)) {
      error("output '" + P.Name + "' has an invalid value id");
      continue;
    }
    if (!Defined[P.Id])
      error("output '" + P.Name + "' is never defined");
  }
  return std::move(Errors);
}

void VerifierImpl::checkStmt(const Stmt &S) {
  for (ValueId Id : S.Operands) {
    if (!checkId(Id)) {
      error(S, "invalid operand id");
      return;
    }
    if (!Defined[Id])
      error(S, formatv("operand %%%d used before definition", Id));
  }
  for (ValueId Id : S.Results) {
    if (!checkId(Id)) {
      error(S, "invalid result id");
      return;
    }
    if (Defined[Id])
      error(S, formatv("value %%%d defined twice", Id));
    Defined[Id] = true;
  }

  auto RequireCounts = [&](size_t NumResults, size_t MinOps, size_t MaxOps) {
    if (S.Results.size() != NumResults) {
      error(S, "wrong result count");
      return false;
    }
    if (S.Operands.size() < MinOps || S.Operands.size() > MaxOps) {
      error(S, "wrong operand count");
      return false;
    }
    return true;
  };

  switch (S.Kind) {
  case OpKind::Const:
    if (!RequireCounts(1, 0, 0))
      return;
    if (S.Literal.bitWidth() > width(S.Results[0]))
      error(S, "literal does not fit the result type");
    return;
  case OpKind::Copy:
    if (!RequireCounts(1, 1, 1))
      return;
    if (width(S.Results[0]) != width(S.Operands[0]))
      error(S, "copy width mismatch");
    return;
  case OpKind::Zext:
    if (!RequireCounts(1, 1, 1))
      return;
    if (width(S.Results[0]) < width(S.Operands[0]))
      error(S, "zext narrows its operand");
    return;
  case OpKind::Add:
  case OpKind::Sub: {
    if (!RequireCounts(2, 2, 3))
      return;
    unsigned W = width(S.Results[1]);
    if (width(S.Results[0]) != 1)
      error(S, "carry/borrow result must be 1-bit");
    if (width(S.Operands[0]) != W || width(S.Operands[1]) != W)
      error(S, "operand width must match the sum/diff result");
    if (S.Operands.size() == 3 && width(S.Operands[2]) != 1)
      error(S, "carry/borrow-in must be 1-bit");
    return;
  }
  case OpKind::Mul: {
    if (!RequireCounts(2, 2, 2))
      return;
    unsigned W = width(S.Results[1]);
    if (width(S.Results[0]) != W || width(S.Operands[0]) != W ||
        width(S.Operands[1]) != W)
      error(S, "mul requires equal widths for operands and hi/lo results");
    return;
  }
  case OpKind::MulLow: {
    if (!RequireCounts(1, 2, 2))
      return;
    unsigned W = width(S.Results[0]);
    if (width(S.Operands[0]) != W || width(S.Operands[1]) != W)
      error(S, "mullow width mismatch");
    return;
  }
  case OpKind::AddMod:
  case OpKind::SubMod: {
    if (!RequireCounts(1, 3, 3))
      return;
    unsigned W = width(S.Results[0]);
    for (ValueId Op : S.Operands)
      if (width(Op) != W)
        error(S, "modular op width mismatch");
    return;
  }
  case OpKind::MulMod: {
    if (!RequireCounts(1, 4, 4))
      return;
    unsigned W = width(S.Results[0]);
    for (ValueId Op : S.Operands)
      if (width(Op) != W)
        error(S, "mulmod width mismatch");
    if (S.ModBits + 4 > W)
      error(S, formatv("mulmod needs ModBits <= w-4 (got m=%u, w=%u)",
                       S.ModBits, W));
    if (S.ModBits < 2)
      error(S, "mulmod ModBits too small");
    return;
  }
  case OpKind::Lt:
  case OpKind::Eq:
    if (!RequireCounts(1, 2, 2))
      return;
    if (width(S.Results[0]) != 1)
      error(S, "comparison result must be 1-bit");
    if (width(S.Operands[0]) != width(S.Operands[1]))
      error(S, "comparison operand width mismatch");
    return;
  case OpKind::Not:
    if (!RequireCounts(1, 1, 1))
      return;
    if (width(S.Results[0]) != 1 || width(S.Operands[0]) != 1)
      error(S, "not requires 1-bit operand and result");
    return;
  case OpKind::And:
  case OpKind::Or:
  case OpKind::Xor: {
    if (!RequireCounts(1, 2, 2))
      return;
    unsigned W = width(S.Results[0]);
    if (width(S.Operands[0]) != W || width(S.Operands[1]) != W)
      error(S, "bitwise op width mismatch");
    return;
  }
  case OpKind::Shl:
  case OpKind::Shr:
    if (!RequireCounts(1, 1, 1))
      return;
    if (width(S.Results[0]) != width(S.Operands[0]))
      error(S, "shift width mismatch");
    if (S.Amount >= width(S.Results[0]))
      error(S, "shift amount out of range");
    return;
  case OpKind::Select:
    if (!RequireCounts(1, 3, 3))
      return;
    if (width(S.Operands[0]) != 1)
      error(S, "select condition must be 1-bit");
    if (width(S.Results[0]) != width(S.Operands[1]) ||
        width(S.Results[0]) != width(S.Operands[2]))
      error(S, "select arm width mismatch");
    return;
  case OpKind::Split: {
    if (!RequireCounts(2, 1, 1))
      return;
    unsigned W = width(S.Operands[0]);
    if (W % 2 != 0)
      error(S, "split operand width must be even");
    if (width(S.Results[0]) != W / 2 || width(S.Results[1]) != W / 2)
      error(S, "split halves must each be half the operand width");
    return;
  }
  case OpKind::Concat: {
    if (!RequireCounts(1, 2, 2))
      return;
    unsigned H = width(S.Operands[0]);
    if (width(S.Operands[1]) != H || width(S.Results[0]) != 2 * H)
      error(S, "concat width mismatch");
    return;
  }
  case OpKind::WideMul: {
    size_t NumOps = S.Operands.size();
    if (S.Amount == 0 || S.Amount >= NumOps) {
      error(S, "widemul needs at least one word in each operand array");
      return;
    }
    if (S.Results.empty() || S.Results.size() > NumOps) {
      error(S, "widemul result count must be in [1, NA + NB]");
      return;
    }
    unsigned W = width(S.Results[0]);
    for (ValueId Id : S.Operands)
      if (width(Id) != W) {
        error(S, "widemul operand width mismatch");
        return;
      }
    for (ValueId Id : S.Results)
      if (width(Id) != W) {
        error(S, "widemul result width mismatch");
        return;
      }
    return;
  }
  }
  error(S, "unknown opcode");
}

std::vector<std::string> moma::ir::verify(const Kernel &K) {
  return VerifierImpl(K).run();
}
