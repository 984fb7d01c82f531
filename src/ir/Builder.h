//===- ir/Builder.h - Statement construction helpers ----------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Typed construction helpers for Kernel bodies. Each method appends one
/// statement and returns the freshly created result value(s). Width
/// agreement is asserted here and re-checked by the Verifier.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_IR_BUILDER_H
#define MOMA_IR_BUILDER_H

#include "ir/Ir.h"

namespace moma {
namespace ir {

/// (carry, value) result pair of an Add.
struct CarryResult {
  ValueId Carry;
  ValueId Value;
};

/// (hi, lo) result pair of a Mul or Split.
struct HiLoResult {
  ValueId Hi;
  ValueId Lo;
};

/// Appends statements to a Kernel.
class Builder {
public:
  explicit Builder(Kernel &K) : K(K) {}

  Kernel &kernel() { return K; }

  unsigned bitsOf(ValueId V) const { return K.value(V).Bits; }

  ValueId constant(unsigned Bits, const mw::Bignum &Literal,
                   const std::string &Name = "");
  ValueId constantZero(unsigned Bits) { return constant(Bits, 0); }
  ValueId copy(ValueId A, const std::string &Name = "");
  ValueId zext(unsigned Bits, ValueId A);

  /// (carry:1, sum:w) = A + B [+ Cin]. Cin, when present, is 1-bit.
  CarryResult add(ValueId A, ValueId B, ValueId Cin = NoValue);
  /// (borrow:1, diff:w) = A - B [- Bin].
  CarryResult sub(ValueId A, ValueId B, ValueId Bin = NoValue);
  /// (hi:w, lo:w) = A * B.
  HiLoResult mul(ValueId A, ValueId B);
  ValueId mulLow(ValueId A, ValueId B);
  /// r[R] = (A * B) mod 2^(R*w) over word arrays of one width w, most
  /// significant first; returns the R result words in the same order.
  std::vector<ValueId> wideMul(const std::vector<ValueId> &A,
                               const std::vector<ValueId> &B, unsigned R);

  ValueId addMod(ValueId A, ValueId B, ValueId Q);
  ValueId subMod(ValueId A, ValueId B, ValueId Q);
  /// ModBits is the modulus bit-width m (Barrett shifts by m-2 / m+5).
  ValueId mulMod(ValueId A, ValueId B, ValueId Q, ValueId Mu,
                 unsigned ModBits);

  ValueId lt(ValueId A, ValueId B);
  ValueId eq(ValueId A, ValueId B);
  ValueId logicalNot(ValueId A);
  ValueId bitAnd(ValueId A, ValueId B);
  ValueId bitOr(ValueId A, ValueId B);
  ValueId bitXor(ValueId A, ValueId B);
  ValueId shl(ValueId A, unsigned Amount);
  ValueId shr(ValueId A, unsigned Amount);
  ValueId select(ValueId Cond, ValueId A, ValueId B);

  /// (hi:w/2, lo:w/2) = A:w. Rule (19): KnownBits of A propagates so that a
  /// hi half with no significant bits can later fold to a constant zero.
  HiLoResult split(ValueId A);
  ValueId concat(ValueId Hi, ValueId Lo);

private:
  Stmt &emit(OpKind Kind, std::vector<ValueId> Results,
             std::vector<ValueId> Operands);

  Kernel &K;
};

} // namespace ir
} // namespace moma

#endif // MOMA_IR_BUILDER_H
