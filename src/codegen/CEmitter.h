//===- codegen/CEmitter.h - C source emission -----------------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits compilable C from fully lowered kernels. The output matches the
/// structure of the paper's Listings 1-4: machine-word locals, the
/// compiler-supported double word (unsigned __int128 for a 64-bit word)
/// used only to capture carries and wide products, explicit carry/borrow
/// propagation, and Barrett's single conditional subtraction.
///
/// At 64-bit words emitC spells each full-word Add/Sub as one carry-flag
/// macro call (MOMA_ADDC/MOMA_SUBB, defined at the top of the source), so
/// the double word holds only products there; emitScalarFunction (CUDA,
/// grid and vector emitters) keeps double-word carries. Every emitter
/// prints an ir::OpKind::WideMul as a call to a static helper defined
/// once per module and shape (mulx/adcx/adox rows on x86-64 with BMI2 and
/// ADX, portable unsigned __int128 rows otherwise and on CUDA).
///
/// The emitted function takes one pointer per kernel port; each port array
/// holds the value's stored words, most significant first (the paper's
/// bracket order): for a λ-bit value, ceil(λ/ω₀) words — statically-zero
/// top words of non-power-of-two widths are not stored (§4).
///
/// The integration tests compile this output with the host compiler, load
/// it with dlopen, and compare against the IR interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_CODEGEN_CEMITTER_H
#define MOMA_CODEGEN_CEMITTER_H

#include "rewrite/Lower.h"

#include <string>
#include <vector>

namespace moma {
namespace codegen {

/// Emission options.
struct CEmitOptions {
  /// Machine word width; must equal the lowering target. 16, 32 and 64 are
  /// supported (the double word is then uint32_t/uint64_t/__int128).
  unsigned WordBits = 64;
  /// Emit `extern "C"`-compatible linkage (for the dlopen tests).
  bool ExternC = true;
  /// Optional file-level banner comment.
  std::string Banner;
};

/// Signature description of one emitted port.
struct PortSig {
  std::string Name;
  unsigned StoredWords = 0;
  bool IsOutput = false;
};

/// A complete emitted translation unit for one kernel.
struct EmittedKernel {
  std::string Source;         ///< self-contained C/C++ source text
  std::string Symbol;         ///< function name (C linkage)
  std::vector<PortSig> Ports; ///< outputs first, then inputs
};

/// Emits \p L as a C function. \p L must be fully lowered to
/// Opts.WordBits (verified; aborts otherwise).
EmittedKernel emitC(const rewrite::LoweredKernel &L,
                    const CEmitOptions &Opts = {});

/// Emits a self-contained scalar helper function for \p L: outputs as
/// word pointers named "<port><index>", non-pruned input words as
/// by-value parameters named after their value ids, and the body with
/// carries through the double word. Shared by the CUDA emitter
/// (qualifiers "__device__ static __forceinline__", \p Device set) and
/// the grid and vector C emitters ("static inline"); \p WordType spells
/// the word type ("u64" under the emitters' typedef). The kernel's
/// wide-product helpers (one per WideMul shape, portable rows only when
/// \p Device) precede the function, so call this once per source.
std::string emitScalarFunction(const rewrite::LoweredKernel &L,
                               unsigned WordBits, const std::string &FnName,
                               const std::string &Qualifiers,
                               const std::string &WordType,
                               bool Device = false);

/// Comma-separated scalar-call arguments loading \p P's non-pruned words
/// from \p BaseExpr (an expression for the pointer to the port's first
/// stored word). Shared by the CUDA and grid emitters.
std::string portLoadArgs(const rewrite::LoweredPort &P,
                         const std::string &BaseExpr);

} // namespace codegen
} // namespace moma

#endif // MOMA_CODEGEN_CEMITTER_H
