//===- ir/Printer.cpp - Textual IR dump ------------------------------------===//

#include "ir/Printer.h"

#include "support/Format.h"

using namespace moma;
using namespace moma::ir;

static std::string valueRef(const Kernel &K, ValueId Id) {
  const ValueInfo &V = K.value(Id);
  if (!V.Name.empty())
    return formatv("%%%s:u%u", V.Name.c_str(), V.Bits);
  return formatv("%%%d:u%u", Id, V.Bits);
}

std::string moma::ir::printStmt(const Kernel &K, const Stmt &S) {
  std::string Line;
  for (size_t I = 0; I < S.Results.size(); ++I) {
    if (I)
      Line += ", ";
    Line += valueRef(K, S.Results[I]);
  }
  Line += " = ";
  Line += opKindName(S.Kind);
  if (S.Kind == OpKind::Const) {
    Line += " " + S.Literal.toHex();
    return Line;
  }
  for (size_t I = 0; I < S.Operands.size(); ++I)
    Line += (I ? ", " : " ") + valueRef(K, S.Operands[I]);
  if (S.Kind == OpKind::Shl || S.Kind == OpKind::Shr)
    Line += formatv(", %u", S.Amount);
  if (S.Kind == OpKind::MulMod)
    Line += formatv(" (m=%u)", S.ModBits);
  if (S.Kind == OpKind::WideMul)
    Line += formatv(" (a=%u)", S.Amount);
  return Line;
}

std::string moma::ir::printKernel(const Kernel &K) {
  std::string Out = "kernel " + K.Name + "(";
  for (size_t I = 0; I < K.inputs().size(); ++I) {
    const Param &P = K.inputs()[I];
    const ValueInfo &V = K.value(P.Id);
    if (I)
      Out += ", ";
    Out += formatv("%s: u%u", P.Name.c_str(), V.Bits);
    if (V.KnownBits < V.Bits)
      Out += formatv(" (known %u)", V.KnownBits);
  }
  Out += ") -> (";
  for (size_t I = 0; I < K.outputs().size(); ++I) {
    const Param &P = K.outputs()[I];
    if (I)
      Out += ", ";
    Out += formatv("%s: u%u", P.Name.c_str(), K.value(P.Id).Bits);
  }
  Out += ") {\n";
  for (const Stmt &S : K.Body)
    Out += "  " + printStmt(K, S) + "\n";
  Out += "  return";
  for (size_t I = 0; I < K.outputs().size(); ++I)
    Out += (I ? ", " : " ") + valueRef(K, K.outputs()[I].Id);
  Out += "\n}\n";
  return Out;
}
