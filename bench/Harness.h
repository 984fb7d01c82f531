//===- bench/Harness.h - shared benchmark harness -------------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the figure-reproduction benchmarks: a collecting
/// google-benchmark reporter, env-var scaling knobs, the word-count
/// template dispatcher, and the paper-vs-measured verdict printer every
/// binary ends with (EXPERIMENTS.md quotes those verdicts).
///
/// Env knobs:
///   MOMA_BENCH_FAST=1        quick mode (small sizes, short timings)
///   MOMA_BENCH_MAX_LOG2N=k   cap NTT sizes at 2^k
///   MOMA_BENCH_ELEMS=n       vector length for the BLAS figure
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_BENCH_HARNESS_H
#define MOMA_BENCH_HARNESS_H

#include "sim/Device.h"
#include "support/Format.h"

#include <benchmark/benchmark.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

namespace moma {
namespace bench {

/// Report buffering: verdict/banner/table lines accumulate here and flush
/// in one write. Under `ctest -j` (or any parallel driver) several bench
/// processes share one pipe; per-line printf interleaved their verdict
/// sections, garbling the EXPERIMENTS.md quotes. Flushing a whole section
/// as a single write(2) keeps it contiguous: POSIX guarantees pipe
/// atomicity only up to PIPE_BUF (4 KiB on Linux), so sections are kept
/// below that by flushing at every banner, and anything larger degrades
/// to best-effort rather than per-line shuffling.
inline std::string &reportBuffer() {
  static std::string Buf;
  return Buf;
}

/// Writes the buffered report and clears the buffer. Bypasses stdio
/// buffering (which would split the payload at its own buffer boundary):
/// stdout is flushed first to preserve ordering with printf-style output,
/// then the report goes out in as few write(2) calls as the kernel
/// accepts.
inline void flushReport() {
  std::string &Buf = reportBuffer();
  if (Buf.empty())
    return;
  std::fflush(stdout);
  size_t Off = 0;
  while (Off < Buf.size()) {
    ssize_t N = ::write(STDOUT_FILENO, Buf.data() + Off, Buf.size() - Off);
    if (N <= 0)
      break;
    Off += static_cast<size_t>(N);
  }
  Buf.clear();
}

/// Appends to the buffered report (registered to flush at exit, so benches
/// that never call flushReport() still print).
inline void report(const std::string &Text) {
  // Construct the buffer BEFORE registering the exit handler: exit-time
  // teardown runs in reverse registration order, so this guarantees
  // flushReport runs while the buffer is still alive.
  std::string &Buf = reportBuffer();
  static bool Registered = (std::atexit(flushReport), true);
  (void)Registered;
  Buf += Text;
}

/// printf-style report().
inline void reportf(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));
inline void reportf(const char *Fmt, ...) {
  va_list Ap;
  va_start(Ap, Fmt);
  report(vformatv(Fmt, Ap));
  va_end(Ap);
}

//===----------------------------------------------------------------------===//
// Machine-readable results: `--json <path>` support. Benches record named
// scalar metrics as they measure and write one flat JSON document at the
// end, giving CI an artifact to trend (the perf trajectory) without
// scraping console tables.
//===----------------------------------------------------------------------===//

/// The metric sink, in recording order.
inline std::vector<std::pair<std::string, double>> &jsonMetrics() {
  static std::vector<std::pair<std::string, double>> M;
  return M;
}

/// Records one scalar metric (typically nanoseconds or a ratio) for the
/// JSON report. No-op semantics otherwise: console reporting is
/// unaffected.
inline void recordMetric(const std::string &Name, double Value) {
  jsonMetrics().emplace_back(Name, Value);
}

/// Extracts the `--json <path>` argument if present ("" otherwise).
inline std::string jsonPathFromArgs(int argc, char **argv) {
  for (int I = 1; I + 1 < argc; ++I)
    if (std::string(argv[I]) == "--json")
      return argv[I + 1];
  return "";
}

/// Writes the recorded metrics as `{"bench": ..., "unix_time": ...,
/// "metrics": {...}}`. Returns false on I/O failure. Metric names are
/// emitted verbatim (benches use [a-z0-9_/.] names; keep them
/// quote-free).
inline bool writeJsonReport(const std::string &Path,
                            const std::string &BenchName) {
  if (Path.empty())
    return true;
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\n  \"bench\": \"" << BenchName << "\",\n  \"unix_time\": "
      << static_cast<long long>(std::time(nullptr))
      << ",\n  \"metrics\": {";
  bool First = true;
  for (const auto &M : jsonMetrics()) {
    Out << (First ? "" : ",") << "\n    \"" << M.first
        << "\": " << formatv("%.3f", M.second);
    First = false;
  }
  Out << "\n  }\n}\n";
  return static_cast<bool>(Out);
}

/// True when the quick-mode env knob is set.
inline bool fastMode() {
  const char *V = std::getenv("MOMA_BENCH_FAST");
  return V && V[0] && V[0] != '0';
}

/// Integer env knob with default.
inline unsigned envUnsigned(const char *Name, unsigned Def) {
  const char *V = std::getenv(Name);
  if (!V || !V[0])
    return Def;
  return static_cast<unsigned>(std::strtoul(V, nullptr, 10));
}

/// Largest log2(NTT size) the sweep benches use.
inline unsigned maxLog2N(unsigned Def) {
  unsigned Cap = envUnsigned("MOMA_BENCH_MAX_LOG2N", Def);
  return fastMode() ? std::min(Cap, 10u) : Cap;
}

/// google-benchmark reporter that records adjusted per-iteration real time
/// (nanoseconds) per benchmark while still printing the console table.
class Collector : public benchmark::ConsoleReporter {
public:
  std::map<std::string, double> RealNs;

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs)
      if (R.run_type == Run::RT_Iteration) {
        // GetAdjustedRealTime is in the run's display unit; normalize to ns.
        double UnitPerSec = benchmark::GetTimeUnitMultiplier(R.time_unit);
        RealNs[R.benchmark_name()] =
            R.GetAdjustedRealTime() * (1e9 / UnitPerSec);
      }
    ConsoleReporter::ReportRuns(Runs);
  }
};

/// Looks up a collected time; returns -1 when the series was skipped.
/// UseRealTime() benchmarks report under "<name>/real_time".
inline double lookupNs(const Collector &C, const std::string &Name) {
  auto It = C.RealNs.find(Name);
  if (It == C.RealNs.end())
    It = C.RealNs.find(Name + "/real_time");
  return It == C.RealNs.end() ? -1.0 : It->second;
}

/// Reports one shape-verdict line (buffered; see report()): the paper
/// claims Who wins by PaperFactor; we measured MeasuredFactor. "SHAPE OK"
/// when the winner matches (factor sizes may differ across substrates —
/// see DESIGN.md).
inline void verdict(const std::string &Label, double MeasuredFactor,
                    double PaperFactor) {
  bool SameWinner = (MeasuredFactor >= 1.0) == (PaperFactor >= 1.0);
  reportf("  %-58s measured %7.2fx   paper %7.2fx   %s\n", Label.c_str(),
          MeasuredFactor, PaperFactor,
          SameWinner ? "SHAPE OK" : "SHAPE DIVERGES");
}

/// Reports one floor-verdict line: the measured factor must reach Floor.
/// "FLOOR OK" at or above it, "FLOOR MISSED" below — unlike verdict(),
/// which only compares winners and so reads "SHAPE OK" for any factor on
/// the paper's side of 1.0.
inline void floorVerdict(const std::string &Label, double MeasuredFactor,
                         double Floor) {
  reportf("  %-58s measured %7.2fx   floor %7.2fx   %s\n", Label.c_str(),
          MeasuredFactor, Floor,
          MeasuredFactor >= Floor ? "FLOOR OK" : "FLOOR MISSED");
}

/// Reports a section banner. Flushes the previous section first: sections
/// stay contiguous (and under the pipe-atomicity bound), and a bench that
/// aborts mid-run — assertion, sanitizer — has lost at most the section
/// in progress, not the whole report.
inline void banner(const std::string &Title) {
  flushReport();
  reportf("\n================================================================\n"
          "%s\n"
          "================================================================\n",
          Title.c_str());
}

/// Reports a section banner immediately followed by the sim device table
/// (paper Table 2), both appended to the same buffered section. Benches
/// must use this instead of a banner()/printf pair: the table then flushes
/// atomically with its banner, so a parallel driver (`ctest -j`, make -j
/// wrappers) can never interleave another process's lines between the two.
inline void deviceSection(const std::string &Title) {
  banner(Title);
  report(sim::deviceTable());
}

/// Runs all registered benchmarks through a Collector and returns it.
/// Flushes the buffered report first so the google-benchmark console
/// table, which writes stdout directly, lands after any opening banner.
inline Collector runAll(int &Argc, char **Argv) {
  flushReport();
  benchmark::Initialize(&Argc, Argv);
  Collector C;
  benchmark::RunSpecifiedBenchmarks(&C);
  return C;
}

/// RegisterBenchmark accepting std::string names (the installed
/// google-benchmark only has the const char* overload).
template <typename Lambda>
benchmark::internal::Benchmark *registerBench(const std::string &Name,
                                              Lambda &&Fn) {
  return benchmark::RegisterBenchmark(Name.c_str(),
                                      std::forward<Lambda>(Fn));
}

/// Calls Fn with std::integral_constant<unsigned, W> for the runtime word
/// count W in [1, 16]; the dispatcher behind the width sweeps.
template <typename Fn> void withWordCount(unsigned W, Fn &&F) {
  switch (W) {
#define MOMA_CASE(N)                                                           \
  case N:                                                                      \
    F(std::integral_constant<unsigned, N>{});                                  \
    return;
    MOMA_CASE(1)
    MOMA_CASE(2)
    MOMA_CASE(3)
    MOMA_CASE(4)
    MOMA_CASE(5)
    MOMA_CASE(6)
    MOMA_CASE(7)
    MOMA_CASE(8)
    MOMA_CASE(9)
    MOMA_CASE(10)
    MOMA_CASE(11)
    MOMA_CASE(12)
    MOMA_CASE(13)
    MOMA_CASE(14)
    MOMA_CASE(15)
    MOMA_CASE(16)
#undef MOMA_CASE
  default:
    std::fprintf(stderr, "unsupported word count %u\n", W);
    std::abort();
  }
}

} // namespace bench
} // namespace moma

#endif // MOMA_BENCH_HARNESS_H
