//===- codegen/CEmitter.cpp - C source emission -----------------------------===//

#include "codegen/CEmitter.h"

#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <tuple>

using namespace moma;
using namespace moma::ir;
using namespace moma::codegen;
using rewrite::LoweredKernel;
using rewrite::LoweredPort;

namespace {

const char *wordType(unsigned WordBits) {
  switch (WordBits) {
  case 16:
    return "uint16_t";
  case 32:
    return "uint32_t";
  case 64:
    return "uint64_t";
  }
  fatalError("emitC: unsupported word width " + std::to_string(WordBits));
}

const char *dwordType(unsigned WordBits) {
  switch (WordBits) {
  case 16:
    return "uint32_t";
  case 32:
    return "uint64_t";
  case 64:
    return "unsigned __int128";
  }
  fatalError("emitC: unsupported word width " + std::to_string(WordBits));
}

/// Defines the carry-chain macros the 64-bit emitC body calls: one
/// adc/sbb per word on x86-64 (the compiler builtins behind
/// _addcarry_u64/_subborrow_u64, spelled directly so no intrinsics header
/// is parsed), the overflow builtins elsewhere. Each macro declares both
/// results, so a statement stays a definition like every other one.
/// (Emitted-source tests reject the substring "for" in kernels without
/// wide products; keep it out. The wide-product helpers below loop.)
const char *const CarryPrelude =
    "// Carry chains: MOMA_ADDC(c, s, a, b, cin) declares the 64-bit sum\n"
    "// s = a + b + cin and its carry c; MOMA_SUBB(c, d, a, b, bin) declares\n"
    "// d = a - b - bin and its borrow c. One adc/sbb each on x86-64.\n"
    "#if defined(__x86_64__) && defined(__GNUC__)\n"
    "#ifdef __clang__\n"
    "#define MOMA_SBB_U64 __builtin_ia32_subborrow_u64\n"
    "#else\n"
    "#define MOMA_SBB_U64 __builtin_ia32_sbb_u64\n"
    "#endif\n"
    "#define MOMA_ADDC(c, s, a, b, cin) unsigned long long s; "
    "uint64_t c = __builtin_ia32_addcarryx_u64((unsigned char)(cin), a, b, "
    "&s)\n"
    "#define MOMA_SUBB(c, d, a, b, bin) unsigned long long d; "
    "uint64_t c = MOMA_SBB_U64((unsigned char)(bin), a, b, &d)\n"
    "#else\n"
    "#define MOMA_ADDC(c, s, a, b, cin) uint64_t s; "
    "uint64_t c = __builtin_add_overflow(a, b, &s); "
    "c |= __builtin_add_overflow(s, (uint64_t)(cin), &s)\n"
    "#define MOMA_SUBB(c, d, a, b, bin) uint64_t d; "
    "uint64_t c = __builtin_sub_overflow(a, b, &d); "
    "c |= __builtin_sub_overflow(d, (uint64_t)(bin), &d)\n"
    "#endif\n\n";

/// Selects the x86-64 multiply rows of the wide-product helpers: BMI2
/// (mulx) and ADX (adcx/adox), checked at run time because the JIT'd
/// module may meet a CPU without them.
const char *const WideMulPrelude =
    "// Wide products: moma_wmul_<NA>x<NB>_<R>(r, a, b) stores the low R\n"
    "// words of a*b (word arrays, least significant first). Each row is\n"
    "// mulx with two carry chains (adcx/adox) on x86-64 CPUs with BMI2\n"
    "// and ADX, a portable unsigned __int128 row elsewhere.\n"
    "#if defined(__x86_64__) && defined(__GNUC__)\n"
    "#define MOMA_MULX_ROWS (__builtin_cpu_supports(\"bmi2\") && "
    "__builtin_cpu_supports(\"adx\"))\n"
    "#endif\n\n";

/// One helper shape: NA x NB words in, the low R product words out.
struct WideMulShape {
  unsigned NA, NB, R;
  bool operator<(const WideMulShape &O) const {
    return std::tie(NA, NB, R) < std::tie(O.NA, O.NB, O.R);
  }
};

std::string wideMulHelperName(const WideMulShape &Sh) {
  return formatv("moma_wmul_%ux%u_%u", Sh.NA, Sh.NB, Sh.R);
}

/// The inline-asm instructions adding a[0..K) * rdx into r[0..K) (%3 = r,
/// %4 = a) and, with \p CarryOut, storing the row's top word to r[K].
/// adcx carries the low product halves plus r, adox the previous column's
/// high half; %0 is the sum, %1/%2 alternate as the high half.
std::vector<std::string> mulxRow(unsigned K, bool CarryOut) {
  std::vector<std::string> Ins = {"xorl %k0, %k0"}; // clears CF and OF
  for (unsigned I = 0; I < K; ++I) {
    const char *Hi = I % 2 ? "%2" : "%1", *Prev = I % 2 ? "%1" : "%2";
    Ins.push_back(formatv("mulxq %u(%%4), %%0, %s", 8 * I, Hi));
    Ins.push_back(formatv("adcxq %u(%%3), %%0", 8 * I));
    if (I > 0)
      Ins.push_back(formatv("adoxq %s, %%0", Prev));
    Ins.push_back(formatv("movq %%0, %u(%%3)", 8 * I));
  }
  if (CarryOut) {
    // mov leaves both flags intact; the top word cannot overflow.
    const char *Hi = (K - 1) % 2 ? "%2" : "%1";
    Ins.push_back("movl $0, %k0");
    Ins.push_back(formatv("adcxq %%0, %s", Hi));
    Ins.push_back(formatv("adoxq %%0, %s", Hi));
    Ins.push_back(formatv("movq %s, %u(%%3)", Hi, 8 * K));
  }
  return Ins;
}

/// Defines the helper for \p Sh. Row j multiplies min(NA, R - j) words of
/// a by b[j] into r[j..] and stores its carry word r[j + NA] when that is
/// below R; consecutive rows of one shape share a loop. \p Device (CUDA)
/// prints only the portable row.
std::string wideMulHelper(const WideMulShape &Sh, bool Device) {
  unsigned Rows = std::min(Sh.NB, Sh.R);
  auto RowWords = [&](unsigned J) { return std::min(Sh.NA, Sh.R - J); };
  auto RowCarries = [&](unsigned J) { return J + Sh.NA < Sh.R; };
  std::string Src = formatv(
      "%sstatic void %s(uint64_t *r, const uint64_t *a, const uint64_t *b) "
      "{\n  for (int i = 0; i < %u; ++i)\n    r[i] = 0;\n",
      Device ? "__device__ " : "", wideMulHelperName(Sh).c_str(),
      std::min(Sh.NA, Sh.R));
  if (!Device) {
    Src += "#ifdef MOMA_MULX_ROWS\n  if (MOMA_MULX_ROWS) {\n"
           "    uint64_t s, h0, h1;\n";
    for (unsigned J = 0; J < Rows;) {
      unsigned End = J + 1;
      while (End < Rows && RowWords(End) == RowWords(J) &&
             RowCarries(End) == RowCarries(J))
        ++End;
      std::string Idx = End - J > 1 ? "j" : std::to_string(J);
      if (End - J > 1)
        Src += formatv("    for (int j = %u; j < %u; ++j)\n", J, End);
      Src += "    __asm__ __volatile__(";
      for (const std::string &I : mulxRow(RowWords(J), RowCarries(J)))
        Src += "\n        \"" + I + "\\n\\t\"";
      Src += "\n        : \"=&r\"(s), \"=&r\"(h0), \"=&r\"(h1)"
             "\n        : \"r\"(r + " + Idx + "), \"r\"(a), \"d\"(b[" + Idx +
             "])\n        : \"cc\", \"memory\");\n";
      J = End;
    }
    Src += "    return;\n  }\n#endif\n";
  }
  Src += formatv(
      "  for (int j = 0; j < %u; ++j) {\n"
      "    uint64_t c = 0;\n"
      "    int k = %u - j < %u ? %u - j : %u;\n"
      "    for (int i = 0; i < k; ++i) {\n"
      "      unsigned __int128 t = (unsigned __int128)a[i] * b[j] + r[i + j] "
      "+ c;\n"
      "      r[i + j] = (uint64_t)t;\n"
      "      c = (uint64_t)(t >> 64);\n"
      "    }\n"
      "    if (j + %u < %u)\n"
      "      r[j + %u] = c;\n"
      "  }\n}\n\n",
      Rows, Sh.R, Sh.NA, Sh.R, Sh.NA, Sh.NA, Sh.R, Sh.NA);
  return Src;
}

/// Per-statement C emission shared by the C, CUDA, grid and vector
/// emitters. \p CarryMacros routes full-word 64-bit Add/Sub through
/// CarryPrelude's macros (emitC only); otherwise carries go through the
/// double word.
class BodyEmitter {
public:
  BodyEmitter(const Kernel &K, unsigned WordBits, std::string Indent,
              bool CarryMacros = false)
      : K(K), WB(WordBits), Indent(std::move(Indent)), WT(wordType(WordBits)),
        DT(dwordType(WordBits)), CarryMacros(CarryMacros) {}

  std::string run();

  /// The wide-product prelude and one helper per WideMul shape the body
  /// calls (valid after run(); empty when there is none). \p Device
  /// prints the CUDA form.
  std::string helpers(bool Device) const;

private:
  std::string ref(ValueId Id) const { return formatv("v%d", Id); }

  /// Masks \p Expr to \p Bits when narrower than the word type.
  std::string masked(const std::string &Expr, unsigned Bits) const {
    if (Bits >= WB || Bits == 1)
      return Expr;
    return formatv("((%s) & ((%s)1 << %u) - 1)", Expr.c_str(), WT, Bits);
  }

  void line(const std::string &S) { Out += Indent + S + "\n"; }

  /// Declares result \p Id initialized to \p Expr.
  void def(ValueId Id, const std::string &Expr) {
    line(formatv("%s %s = %s;", WT, ref(Id).c_str(), Expr.c_str()));
  }

  std::string freshTemp() { return formatv("t%u", TempCount++); }

  void emitStmt(const Stmt &S);

  const Kernel &K;
  unsigned WB;
  std::string Indent;
  const char *WT;
  const char *DT;
  bool CarryMacros;
  std::string Out;
  unsigned TempCount = 0;
  std::set<WideMulShape> WideShapes;
};

} // namespace

void BodyEmitter::emitStmt(const Stmt &S) {
  auto Op = [&](unsigned I) { return ref(S.Operands[I]); };
  auto Res = [&](unsigned I) { return ref(S.Results[I]); };
  auto Width = [&](ValueId Id) { return K.value(Id).Bits; };

  bool IsCarryOp = S.Kind == OpKind::Add || S.Kind == OpKind::Sub;
  if (CarryMacros && IsCarryOp && Width(S.Results[1]) == WB) {
    // (carry:1, sum:64) = a +- b [+- cin:1] as one adc/sbb.
    line(formatv("%s(%s, %s, %s, %s, %s);",
                 S.Kind == OpKind::Add ? "MOMA_ADDC" : "MOMA_SUBB",
                 Res(0).c_str(), Res(1).c_str(), Op(0).c_str(), Op(1).c_str(),
                 S.Operands.size() == 3 ? Op(2).c_str() : "0"));
    return;
  }

  switch (S.Kind) {
  case OpKind::Const: {
    // Literals are at most one word after lowering.
    assert(S.Literal.bitWidth() <= WB && "unsplit wide literal");
    line(formatv("const %s %s = (%s)0x%llxULL;", WT, Res(0).c_str(), WT,
                 static_cast<unsigned long long>(S.Literal.low64())));
    return;
  }
  case OpKind::Copy:
  case OpKind::Zext:
    def(S.Results[0], Op(0));
    return;
  case OpKind::Add: {
    unsigned W = Width(S.Results[1]);
    std::string T = freshTemp();
    std::string Sum = formatv("(%s)%s + %s", DT, Op(0).c_str(), Op(1).c_str());
    if (S.Operands.size() == 3)
      Sum += " + " + Op(2);
    line(formatv("%s %s = %s;", DT, T.c_str(), Sum.c_str()));
    def(S.Results[1], masked(formatv("(%s)%s", WT, T.c_str()), W));
    def(S.Results[0], formatv("(%s)(%s >> %u)", WT, T.c_str(), W));
    return;
  }
  case OpKind::Sub: {
    unsigned W = Width(S.Results[1]);
    std::string Diff = Op(0) + " - " + Op(1);
    if (S.Operands.size() == 3)
      Diff += " - " + Op(2);
    def(S.Results[1], masked(Diff, W));
    // Borrow: a < b + bin (the double word absorbs b + 1).
    std::string Rhs = formatv("(%s)%s", DT, Op(1).c_str());
    if (S.Operands.size() == 3)
      Rhs += " + " + Op(2);
    def(S.Results[0], formatv("(%s)%s < %s", DT, Op(0).c_str(), Rhs.c_str()));
    return;
  }
  case OpKind::Mul: {
    unsigned W = Width(S.Results[1]);
    std::string T = freshTemp();
    line(formatv("%s %s = (%s)%s * %s;", DT, T.c_str(), DT, Op(0).c_str(),
                 Op(1).c_str()));
    def(S.Results[1], masked(formatv("(%s)%s", WT, T.c_str()), W));
    def(S.Results[0], formatv("(%s)(%s >> %u)", WT, T.c_str(), W));
    return;
  }
  case OpKind::MulLow:
    def(S.Results[0],
        masked(Op(0) + " * " + Op(1), Width(S.Results[0])));
    return;
  case OpKind::AddMod: {
    // Listing 1 _saddmod (with the >= fix, DESIGN.md).
    std::string T = freshTemp();
    line(formatv("%s %s = (%s)%s + %s;", DT, T.c_str(), DT, Op(0).c_str(),
                 Op(1).c_str()));
    def(S.Results[0],
        formatv("%s >= %s ? (%s)(%s - %s) : (%s)%s", T.c_str(),
                Op(2).c_str(), WT, T.c_str(), Op(2).c_str(), WT, T.c_str()));
    return;
  }
  case OpKind::SubMod: {
    // Listing 1 _ssubmod.
    std::string T = freshTemp();
    line(formatv("%s %s = %s;", WT, T.c_str(),
                 masked(Op(0) + " - " + Op(1), Width(S.Results[0])).c_str()));
    def(S.Results[0],
        formatv("%s < %s ? %s : %s",
                Op(0).c_str(), Op(1).c_str(),
                masked(T + " + " + Op(2), Width(S.Results[0])).c_str(),
                T.c_str()));
    return;
  }
  case OpKind::MulMod: {
    // Listing 1 _smulmod: Barrett with shifts by m-2 and m+5.
    std::string T = freshTemp(), R = freshTemp();
    line(formatv("%s %s = (%s)%s * %s;", DT, T.c_str(), DT, Op(0).c_str(),
                 Op(1).c_str()));
    line(formatv("%s %s = %s >> %u;", DT, R.c_str(), T.c_str(),
                 S.ModBits - 2));
    line(formatv("%s *= (%s)%s;", R.c_str(), DT, Op(3).c_str()));
    line(formatv("%s >>= %u;", R.c_str(), S.ModBits + 5));
    line(formatv("%s -= %s * (%s)%s;", T.c_str(), R.c_str(), DT,
                 Op(2).c_str()));
    def(S.Results[0],
        formatv("%s >= %s ? (%s)(%s - %s) : (%s)%s", T.c_str(),
                Op(2).c_str(), WT, T.c_str(), Op(2).c_str(), WT, T.c_str()));
    return;
  }
  case OpKind::Lt:
    def(S.Results[0], Op(0) + " < " + Op(1));
    return;
  case OpKind::Eq:
    def(S.Results[0], Op(0) + " == " + Op(1));
    return;
  case OpKind::Not:
    def(S.Results[0], "!" + Op(0));
    return;
  case OpKind::And:
    def(S.Results[0], Op(0) + " & " + Op(1));
    return;
  case OpKind::Or:
    def(S.Results[0], Op(0) + " | " + Op(1));
    return;
  case OpKind::Xor:
    def(S.Results[0], Op(0) + " ^ " + Op(1));
    return;
  case OpKind::Shl:
    def(S.Results[0],
        masked(formatv("%s << %u", Op(0).c_str(), S.Amount),
               Width(S.Results[0])));
    return;
  case OpKind::Shr:
    def(S.Results[0], formatv("%s >> %u", Op(0).c_str(), S.Amount));
    return;
  case OpKind::Select:
    def(S.Results[0],
        formatv("%s ? %s : %s", Op(0).c_str(), Op(1).c_str(),
                Op(2).c_str()));
    return;
  case OpKind::Split: {
    unsigned H = Width(S.Results[0]);
    def(S.Results[0], formatv("%s >> %u", Op(0).c_str(), H));
    def(S.Results[1], masked(Op(0), H));
    return;
  }
  case OpKind::Concat: {
    unsigned H = Width(S.Operands[1]);
    def(S.Results[0],
        formatv("((%s)%s << %u) | %s", WT, Op(0).c_str(), H, Op(1).c_str()));
    return;
  }
  case OpKind::WideMul: {
    // Word arrays, least significant first, into the shape's helper.
    if (WB != 64)
      fatalError("emitC: wide products need 64-bit words");
    WideMulShape Sh{S.Amount,
                    static_cast<unsigned>(S.Operands.size()) - S.Amount,
                    static_cast<unsigned>(S.Results.size())};
    WideShapes.insert(Sh);
    std::string T = freshTemp();
    auto Array = [&](const char *Suffix, size_t Begin, size_t End) {
      std::string Words;
      for (size_t I = End; I-- > Begin;)
        Words += (Words.empty() ? "" : ", ") + ref(S.Operands[I]);
      line(formatv("const %s %s%s[%zu] = {%s};", WT, T.c_str(), Suffix,
                   End - Begin, Words.c_str()));
    };
    Array("a", 0, Sh.NA);
    Array("b", Sh.NA, S.Operands.size());
    line(formatv("%s %sr[%u];", WT, T.c_str(), Sh.R));
    line(formatv("%s(%sr, %sa, %sb);", wideMulHelperName(Sh).c_str(),
                 T.c_str(), T.c_str(), T.c_str()));
    for (unsigned I = 0; I < Sh.R; ++I)
      def(S.Results[Sh.R - 1 - I], formatv("%sr[%u]", T.c_str(), I));
    return;
  }
  }
  moma_unreachable("unhandled opcode in C emission");
}

std::string BodyEmitter::run() {
  for (const Stmt &S : K.Body)
    emitStmt(S);
  return std::move(Out);
}

std::string BodyEmitter::helpers(bool Device) const {
  if (WideShapes.empty())
    return "";
  std::string Src = Device ? "" : WideMulPrelude;
  for (const WideMulShape &Sh : WideShapes)
    Src += wideMulHelper(Sh, Device);
  return Src;
}

std::string moma::codegen::emitScalarFunction(const LoweredKernel &L,
                                              unsigned WordBits,
                                              const std::string &FnName,
                                              const std::string &Qualifiers,
                                              const std::string &WordType,
                                              bool Device) {
  std::string Params;
  for (const LoweredPort &P : L.Outputs) {
    unsigned Stored = P.storedWords();
    unsigned Skip = static_cast<unsigned>(P.Words.size()) - Stored;
    for (size_t I = Skip; I < P.Words.size(); ++I) {
      if (!Params.empty())
        Params += ", ";
      Params += formatv("%s *%s%zu", WordType.c_str(), P.Name.c_str(),
                        I - Skip);
    }
  }
  for (const LoweredPort &P : L.Inputs) {
    for (size_t I = 0; I < P.Words.size(); ++I) {
      if (P.IsConstZero[I] || P.isDeadWord(I))
        continue;
      if (!Params.empty())
        Params += ", ";
      Params += formatv("%s v%d", WordType.c_str(), P.Words[I]);
    }
  }

  BodyEmitter Body(L.K, WordBits, "  ");
  std::string Stmts = Body.run();
  std::string Src = Body.helpers(Device);
  Src += formatv("%s void %s(%s) {\n", Qualifiers.c_str(), FnName.c_str(),
                 Params.c_str());
  Src += Stmts;
  for (const LoweredPort &P : L.Outputs) {
    unsigned Stored = P.storedWords();
    unsigned Skip = static_cast<unsigned>(P.Words.size()) - Stored;
    for (size_t I = Skip; I < P.Words.size(); ++I)
      Src += formatv("  *%s%zu = v%d;\n", P.Name.c_str(), I - Skip,
                     P.Words[I]);
  }
  Src += "}\n\n";
  return Src;
}

std::string moma::codegen::portLoadArgs(const LoweredPort &P,
                                        const std::string &BaseExpr) {
  std::string Args;
  unsigned Stored = P.storedWords();
  unsigned Skip = static_cast<unsigned>(P.Words.size()) - Stored;
  for (size_t I = 0; I < P.Words.size(); ++I) {
    // Dead words keep their array slot (the I - Skip index is live-slot
    // arithmetic over const-zero pruning only) but are never passed.
    if (P.IsConstZero[I] || P.isDeadWord(I))
      continue;
    if (!Args.empty())
      Args += ", ";
    Args += formatv("%s[%zu]", BaseExpr.c_str(), I - Skip);
  }
  return Args;
}

EmittedKernel moma::codegen::emitC(const LoweredKernel &L,
                                   const CEmitOptions &Opts) {
  const Kernel &K = L.K;
  if (K.maxBits() > Opts.WordBits)
    fatalError("emitC: kernel not lowered to the requested word width");

  const char *WT = wordType(Opts.WordBits);
  EmittedKernel Out;
  Out.Symbol = "moma_" + K.Name;

  std::string Src;
  if (!Opts.Banner.empty())
    Src += "// " + Opts.Banner + "\n";
  Src += "// Generated by MoMA (multi-word modular arithmetic rewrite\n"
         "// system); word width " +
         std::to_string(Opts.WordBits) +
         " bits. Word order within each\n"
         "// array: most significant first (paper Eq. 14).\n";
  Src += "#include <stdint.h>\n\n";
  bool CarryMacros = Opts.WordBits == 64;
  if (CarryMacros)
    Src += CarryPrelude;
  BodyEmitter Body(K, Opts.WordBits, "  ", CarryMacros);
  std::string Stmts = Body.run();
  Src += Body.helpers(/*Device=*/false);

  // Signature: outputs first, then inputs (paper listing order).
  std::string Sig;
  auto AddPort = [&](const LoweredPort &P, bool IsOutput) {
    if (!Sig.empty())
      Sig += ", ";
    Sig += formatv("%s%s %s[%u]", IsOutput ? "" : "const ", WT,
                   P.Name.c_str(), P.storedWords());
    Out.Ports.push_back(PortSig{P.Name, P.storedWords(), IsOutput});
  };
  for (const LoweredPort &P : L.Outputs)
    AddPort(P, /*IsOutput=*/true);
  for (const LoweredPort &P : L.Inputs)
    AddPort(P, /*IsOutput=*/false);

  if (Opts.ExternC)
    Src += "#ifdef __cplusplus\nextern \"C\"\n#endif\n";
  Src += formatv("void %s(%s) {\n", Out.Symbol.c_str(), Sig.c_str());

  // Loads: each non-pruned input word is a kernel parameter value.
  for (const LoweredPort &P : L.Inputs) {
    unsigned Stored = P.storedWords();
    unsigned Skip = static_cast<unsigned>(P.Words.size()) - Stored;
    unsigned NonConst = 0;
    for (size_t I = 0; I < P.Words.size(); ++I)
      NonConst += !P.IsConstZero[I];
    if (NonConst != Stored)
      fatalError("emitC: port '" + P.Name +
                 "' pruning does not match its stored-word count");
    for (size_t I = 0; I < P.Words.size(); ++I) {
      if (P.IsConstZero[I] || P.isDeadWord(I))
        continue;
      Src += formatv("  %s v%d = %s[%zu];\n", WT, P.Words[I],
                     P.Name.c_str(), I - Skip);
    }
  }
  Src += "\n";

  Src += Stmts;

  // Stores: only the stored words (top pruned words are provably zero).
  Src += "\n";
  for (const LoweredPort &P : L.Outputs) {
    unsigned Stored = P.storedWords();
    unsigned Skip = static_cast<unsigned>(P.Words.size()) - Stored;
    for (size_t I = Skip; I < P.Words.size(); ++I)
      Src += formatv("  %s[%zu] = v%d;\n", P.Name.c_str(), I - Skip,
                     P.Words[I]);
  }
  Src += "}\n";
  Out.Source = std::move(Src);
  return Out;
}
