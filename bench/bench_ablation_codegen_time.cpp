//===- bench/bench_ablation_codegen_time.cpp - generation cost ablation --------===//
//
// Ablation called out in DESIGN.md: the paper's artifact appendix notes
// that "code generation time increases exponentially with the input
// bit-width" (A.2). This bench times our pipeline stages — lowering,
// simplification, C emission — for the mulmod kernel across widths, and
// reports the per-doubling growth factor together with the generated
// statement counts.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "codegen/CEmitter.h"
#include "kernels/ScalarKernels.h"
#include "rewrite/Lower.h"
#include "rewrite/PassManager.h"
#include "rewrite/Stats.h"

#include <benchmark/benchmark.h>

using namespace moma;
using namespace moma::bench;
using namespace moma::rewrite;

namespace {

const unsigned Widths[] = {128, 256, 512, 1024, 2048};

void registerWidth(unsigned Bits) {
  kernels::ScalarKernelSpec Spec{Bits, 0};
  registerBench(
      formatv("lower/%u", Bits), [Spec](benchmark::State &S) {
        for (auto _ : S) {
          LoweredKernel L =
              lowerToWords(kernels::buildMulModKernel(Spec), {});
          benchmark::DoNotOptimize(L.K.size());
        }
      })->Unit(benchmark::kMillisecond);
  registerBench(
      formatv("lower+simplify+emit/%u", Bits), [Spec](benchmark::State &S) {
        for (auto _ : S) {
          LoweredKernel L =
              lowerToWords(kernels::buildMulModKernel(Spec), {});
          defaultPipeline().runLowered(L);
          codegen::EmittedKernel EK = codegen::emitC(L);
          benchmark::DoNotOptimize(EK.Source.size());
        }
      })->Unit(benchmark::kMillisecond);
}

} // namespace

int main(int argc, char **argv) {
  banner("Ablation: code generation cost vs input bit-width (paper A.2)");

  unsigned Max = fastMode() ? 1024 : 2048;
  for (unsigned Bits : Widths)
    if (Bits <= Max)
      registerWidth(Bits);

  Collector C = runAll(argc, argv);

  banner("Summary");
  TextTable T({"bits", "lower", "full pipeline", "stmts", "growth vs half"});
  double Prev = -1;
  for (unsigned Bits : Widths) {
    if (Bits > Max)
      continue;
    double Lower = lookupNs(C, formatv("lower/%u", Bits));
    double Full = lookupNs(C, formatv("lower+simplify+emit/%u", Bits));
    kernels::ScalarKernelSpec Spec{Bits, 0};
    LoweredKernel L = lowerToWords(kernels::buildMulModKernel(Spec), {});
    defaultPipeline().runLowered(L);
    T.addRow({formatv("%u", Bits), formatNanos(Lower), formatNanos(Full),
              formatv("%zu", L.K.size()),
              Prev > 0 ? formatv("%.1fx", Full / Prev) : "-"});
    Prev = Full;
  }
  bench::report(T.render());
  bench::reportf("\n  Paper A.2: \"code generation time increases exponentially"
              " with the\n  input bit-width\" — the growth factor per width"
              " doubling should be\n  well above 2x (statement count grows"
              " ~4x per doubling).\n");
  benchmark::Shutdown();
  return 0;
}
