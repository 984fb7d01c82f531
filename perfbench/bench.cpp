//===- perfbench/bench.cpp - the repo benchmark runner --------------------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
//
// One process runs one workload through the library's public entry points:
//
//   blas         Fig. 2 shape: vmul/vadd/axpy at 256- and 1024-bit moduli.
//   ntt          Fig. 3 shape: negacyclic polyMul n=4096 x8 (124-bit) and
//                cyclic polyMul n=2^14 (252-bit).
//   serve        open-loop Server traffic at the frozen heavy rate.
//   serve-light  the same traffic at the frozen light rate.
//
// Every output is checked against an independent host oracle (mw::Bignum
// or plain u64 arithmetic), never against another generated path; oracle
// work sits outside every timed interval, set-up included. Each set-up runs
// against a private, empty JIT cache directory that is removed at exit, so
// set-up time is real codegen + compile.
//
//   moma_perfbench --workload W --seed N --seconds S --trace 0|1
//                  [--cache-root DIR] [--trace-out FILE] [--corrupt]
//                  [--calibrate]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and traced (for trace.overhead_pct), records spans for the
// traced half into --trace-out, then measures the per-layer ledger. The
// last stdout line is always one JSON object. --corrupt flips one output
// word so the self-test can show the correctness gate failing.
// --calibrate measures the serve mix's saturated capacity (how the frozen
// rates were found).
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "fhe/Fhe.h"
#include "field/PrimeGen.h"
#include "field/RootOfUnity.h"
#include "jit/HostJit.h"
#include "kernels/ScalarKernels.h"
#include "rewrite/PlanOptions.h"
#include "rewrite/Stats.h"
#include "runtime/Backend.h"
#include "runtime/Dispatcher.h"
#include "runtime/KernelRegistry.h"
#include "runtime/NttPipeline.h"
#include "runtime/RnsTensor.h"
#include "service/Server.h"
#include "support/Rng.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace moma;
using namespace moma::runtime;
using mw::Bignum;
using rewrite::NttRing;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;
using u64 = std::uint64_t;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}
std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}
double median(const std::vector<double> &V) { return quantile(V, 0.5); }

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

//===----------------------------------------------------------------------===//
// Spans: (name, layer, start, end, parent, request id), in memory, written
// as JSON lines at exit. Recording is a branch when tracing is off.
//===----------------------------------------------------------------------===//

struct Span {
  const char *Name;
  const char *Layer;
  std::int64_t StartNs, EndNs;
  std::int32_t Parent;
  u64 Req;
};

class Tracer {
public:
  bool On = false;
  std::vector<Span> Spans;

  std::int32_t open(const char *Name, const char *Layer, u64 Req = 0) {
    if (!On)
      return -1;
    Spans.push_back({Name, Layer, nowNs(), 0, Cur, Req});
    Cur = std::int32_t(Spans.size() - 1);
    return Cur;
  }
  void close(std::int32_t Id) {
    if (Id < 0)
      return;
    Spans[size_t(Id)].EndNs = nowNs();
    Cur = Spans[size_t(Id)].Parent;
  }
  /// A span whose interval was measured elsewhere (a request's scheduled
  /// send time to its Reply.Done stamp).
  void record(const char *Name, const char *Layer, std::int64_t S,
              std::int64_t E, u64 Req) {
    if (On)
      Spans.push_back({Name, Layer, S, E, Cur, Req});
  }
  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    for (const Span &S : Spans)
      Out << "{\"name\":\"" << S.Name << "\",\"layer\":\"" << S.Layer
          << "\",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
          << ",\"parent\":" << S.Parent << ",\"req\":" << S.Req << "}\n";
    return bool(Out);
  }

private:
  std::int32_t Cur = -1;
};

Tracer Trace;

struct SpanScope {
  std::int32_t Id;
  SpanScope(const char *Name, const char *Layer, u64 Req = 0)
      : Id(Trace.open(Name, Layer, Req)) {}
  ~SpanScope() { Trace.close(Id); }
};

//===----------------------------------------------------------------------===//
// Private JIT cache directories.
//===----------------------------------------------------------------------===//

std::string CacheRoot = ".bench_build/jit";

/// A fresh empty directory under CacheRoot, removed with the object.
class PrivateDir {
public:
  explicit PrivateDir(const char *Tag) {
    std::error_code EC;
    fs::create_directories(CacheRoot, EC);
    std::string T = CacheRoot + "/" + Tag + "-XXXXXX";
    std::vector<char> Buf(T.begin(), T.end());
    Buf.push_back('\0');
    if (!mkdtemp(Buf.data()))
      die("cannot create a cache directory under " + CacheRoot);
    Path = Buf.data();
  }
  ~PrivateDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  PrivateDir(const PrivateDir &) = delete;
  PrivateDir &operator=(const PrivateDir &) = delete;
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

std::unique_ptr<KernelRegistry> makeRegistry(const PrivateDir &Dir) {
  jit::HostJitOptions JO;
  JO.CacheDir = Dir.path();
  return std::make_unique<KernelRegistry>(JO);
}

//===----------------------------------------------------------------------===//
// Host oracles.
//===----------------------------------------------------------------------===//

/// Schoolbook product mod (x^n - 1) or (x^n + 1) over Z_q, q < 2^62, in
/// plain u64 arithmetic (independent of every generated path).
std::vector<u64> hostPolyMul(const u64 *A, const u64 *B, size_t N, u64 Q,
                             bool Negacyclic) {
  using u128 = unsigned __int128;
  std::vector<u64> C(N);
  for (size_t K = 0; K < N; ++K) {
    u128 Pos = 0, Neg = 0;
    unsigned Terms = 0;
    for (size_t I = 0; I < N; ++I) {
      size_t J = K >= I ? K - I : K + N - I;
      u128 P = u128(A[I]) * B[J];
      if (Negacyclic && I > K)
        Neg += P;
      else
        Pos += P;
      if (++Terms == 64) {
        Pos %= Q;
        Neg %= Q;
        Terms = 0;
      }
    }
    u64 P = u64(Pos % Q), Nn = u64(Neg % Q);
    C[K] = P >= Nn ? P - Nn : P + (Q - Nn);
  }
  return C;
}

/// The NTT form of a negacyclic poly over Z_q, q < 2^63, in the layout the
/// library documents for it: entry k is the poly evaluated at psi^(2k+1),
/// psi the primitive 2n-th root field::rootOfUnityPow2 fixes for q. Plain
/// u64 Horner evaluation with Shoup products, O(n^2).
std::vector<u64> hostNegacyclicEval(const u64 *A, size_t N, u64 Q, u64 Psi) {
  using u128 = unsigned __int128;
  auto MulMod = [Q](u64 X, u64 Y) { return u64(u128(X) * Y % Q); };
  std::vector<u64> E(N);
  const u64 Psi2 = MulMod(Psi, Psi);
  u64 X = Psi;
  for (size_t K = 0; K < N; ++K, X = MulMod(X, Psi2)) {
    const u64 XS = u64((u128(X) << 64) / Q);
    u64 Acc = 0;
    for (size_t I = N; I-- > 0;) {
      u64 R = Acc * X - u64((u128(Acc) * XS) >> 64) * Q;
      if (R >= Q)
        R -= Q;
      Acc = R + A[I];
      if (Acc >= Q)
        Acc -= Q;
    }
    E[K] = Acc;
  }
  return E;
}

Bignum wordsToBignum(const u64 *W, unsigned Words) {
  return unpackWordsMsbFirst(W, Words);
}

/// Horner evaluation of an n-coefficient polynomial (MSB-first words).
Bignum evalPoly(const u64 *C, size_t N, unsigned W, const Bignum &X,
                const Bignum &Q) {
  Bignum Acc;
  for (size_t I = N; I-- > 0;)
    Acc = Acc.mulMod(X, Q).addMod(wordsToBignum(C + I * W, W), Q);
  return Acc;
}

/// Checks C = A * B mod (x^n -+ 1) for every batch entry by Bignum
/// evaluation at \p Points random roots of x^n -+ 1 (an n-th root of unity
/// power, or an odd power of a 2n-th root for the negacyclic ring).
bool evalCheckPolyMul(const u64 *A, const u64 *B, const u64 *C, size_t N,
                      size_t Batch, const Bignum &Q, bool Negacyclic,
                      Rng &R, unsigned Points) {
  unsigned W = Dispatcher::elemWords(Q);
  unsigned LogN = 0;
  while ((size_t(1) << LogN) < N)
    ++LogN;
  Bignum Root = field::rootOfUnityPow2(Q, LogN + (Negacyclic ? 1 : 0));
  for (unsigned P = 0; P < Points; ++P) {
    u64 K = R.below(N);
    Bignum X = Root.powMod(Bignum(Negacyclic ? 2 * K + 1 : K), Q);
    for (size_t Bt = 0; Bt < Batch; ++Bt) {
      size_t Off = Bt * N * W;
      Bignum Lhs = evalPoly(C + Off, N, W, X, Q);
      Bignum Rhs = evalPoly(A + Off, N, W, X, Q)
                       .mulMod(evalPoly(B + Off, N, W, X, Q), Q);
      if (Lhs != Rhs)
        return false;
    }
  }
  return true;
}

std::vector<u64> randomBatch(Rng &R, const Bignum &Q, size_t N) {
  std::vector<Bignum> E;
  E.reserve(N);
  for (size_t I = 0; I < N; ++I)
    E.push_back(Bignum::random(R, Q));
  return packBatch(E, Dispatcher::elemWords(Q));
}

/// A degree-1 ciphertext-shaped pair of uniformly random residue polys.
fhe::Ciphertext randomCiphertext(const RnsContext &Ctx, size_t N, Rng &R) {
  fhe::Ciphertext C;
  for (int P = 0; P < 2; ++P) {
    RnsTensor T(Ctx, N, 1, NttRing::Negacyclic);
    for (size_t L = 0; L < Ctx.numLimbs(); ++L) {
      u64 Q = Ctx.limb(L).low64();
      for (size_t I = 0; I < N; ++I)
        T.limbData(L)[I] = R.below(Q);
    }
    C.Polys.push_back(std::move(T));
  }
  return C;
}

//===----------------------------------------------------------------------===//
// Workloads.
//===----------------------------------------------------------------------===//

/// What a measured loop leaves behind.
struct Tally {
  u64 Attempted = 0;
  u64 Failed = 0;
  std::vector<double> UnitS; ///< unit times, or request latencies
  /// Closed loop: the 10th-percentile unit time. Open loop: the median
  /// over one-second windows of the p50 request latency.
  double LatencyS = 0;
  double P99S = 0; ///< open loop: the matching 99th percentile
  double ElemPerS = 0;
  double LateP99S = 0; ///< open loop: send-time lateness

  /// Closed-loop summary from the unit times; \p ElemsPerUnit field
  /// elements are produced per unit. On a shared host, interference comes
  /// in bursts that slow every unit inside them, so the upper quantiles
  /// swing between processes while the fast tail holds: throughput and
  /// latency are taken at the 10th-percentile unit time.
  void closeLoop(double ElemsPerUnit) {
    LatencyS = quantile(UnitS, 0.1);
    ElemPerS = ElemsPerUnit / LatencyS;
    std::fprintf(stderr, "perfbench: %zu units, unit ms p10 %.3f p50 %.3f "
                 "p90 %.3f\n", UnitS.size(), LatencyS * 1e3,
                 quantile(UnitS, 0.5) * 1e3, quantile(UnitS, 0.9) * 1e3);
  }
};

bool Corrupt = false;

/// Written over output buffers before each call, outside the timed
/// interval: no residue has this value, so a call that returns Ok without
/// writing its whole output fails the check.
constexpr u64 Poison = ~u64(0);

void poison(std::vector<u64> &V) { std::fill(V.begin(), V.end(), Poison); }

class Workload {
public:
  virtual ~Workload() = default;
  /// Seeded inputs and oracle answers; untimed.
  virtual void prepare(u64 Seed) = 0;
  /// Process-to-ready work against an empty cache directory; timed.
  virtual bool setup(const PrivateDir &Dir) = 0;
  /// Drops everything setup() built.
  virtual void teardown() = 0;
  /// Runs units until \p Seconds of measured time have accumulated.
  virtual void measure(double Seconds, Tally &T) = 0;
};

//===--------------------------------------------------------------------===//
// blas
//===--------------------------------------------------------------------===//

class BlasWorkload final : public Workload {
  struct Width {
    unsigned Bits;
    size_t NMul, NAdd, NAxpy;
    Bignum Q{};
    std::vector<u64> A{}, B{}, Scalar{}, Y0{};
    std::vector<u64> ExpMul{}, ExpAdd{}, ExpAxpy{};
    std::vector<u64> Mul{}, Add{}, Y{}; ///< outputs, checked per round
  };
  // Batches sized so every call takes a few ms on a 4-core x86 host.
  std::vector<Width> Ws = {{256, 16384, 65536, 16384},
                           {1024, 1024, 32768, 1024}};
  std::unique_ptr<KernelRegistry> Reg;
  std::unique_ptr<Dispatcher> D;

public:
  void prepare(u64 Seed) override {
    Rng R(Seed * 0x9E37 + 11);
    for (Width &W : Ws) {
      W.Q = field::evalModulus(W.Bits);
      unsigned EW = Dispatcher::elemWords(W.Q);
      size_t N = std::max({W.NMul, W.NAdd, W.NAxpy});
      W.A = randomBatch(R, W.Q, N);
      W.B = randomBatch(R, W.Q, N);
      W.Y0 = randomBatch(R, W.Q, W.NAxpy);
      W.Scalar = randomBatch(R, W.Q, 1);
      Bignum S = wordsToBignum(W.Scalar.data(), EW);
      auto Elem = [&](const std::vector<u64> &V, size_t I) {
        return wordsToBignum(V.data() + I * EW, EW);
      };
      std::vector<Bignum> Mul, Add, Ax;
      for (size_t I = 0; I < W.NMul; ++I)
        Mul.push_back(Elem(W.A, I).mulMod(Elem(W.B, I), W.Q));
      for (size_t I = 0; I < W.NAdd; ++I)
        Add.push_back(Elem(W.A, I).addMod(Elem(W.B, I), W.Q));
      for (size_t I = 0; I < W.NAxpy; ++I)
        Ax.push_back(S.mulMod(Elem(W.A, I), W.Q).addMod(Elem(W.Y0, I), W.Q));
      W.ExpMul = packBatch(Mul, EW);
      W.ExpAdd = packBatch(Add, EW);
      W.ExpAxpy = packBatch(Ax, EW);
      W.Mul.assign(W.ExpMul.size(), 0);
      W.Add.assign(W.ExpAdd.size(), 0);
      W.Y = W.Y0;
    }
  }

  bool setup(const PrivateDir &Dir) override {
    Reg = makeRegistry(Dir);
    D = std::make_unique<Dispatcher>(*Reg);
    // Bind (lower + emit + compile) every plan the round uses.
    for (Width &W : Ws)
      if (!D->vmul(W.Q, W.A.data(), W.B.data(), W.Mul.data(), 1) ||
          !D->vadd(W.Q, W.A.data(), W.B.data(), W.Add.data(), 1) ||
          !D->axpy(W.Q, W.Scalar.data(), W.A.data(), W.Y.data(), 1))
        return false;
    return true;
  }

  void teardown() override {
    D.reset();
    Reg.reset();
  }

  void measure(double Seconds, Tally &T) override {
    double Elems = 0;
    for (const Width &W : Ws)
      Elems += double(W.NMul + W.NAdd + W.NAxpy);
    double Spent = 0;
    auto Wall = Clock::now();
    while (Spent < Seconds && secondsSince(Wall) < 4 * Seconds + 30) {
      for (Width &W : Ws) {
        W.Y = W.Y0;
        poison(W.Mul);
        poison(W.Add);
      }
      double Round = 0;
      bool Ok = true;
      {
        SpanScope Unit("blas.round", "bench");
        auto Call = [&](const char *Name, auto &&Fn) {
          SpanScope S(Name, "runtime.dispatcher");
          auto T0 = Clock::now();
          Ok = Fn() && Ok;
          Round += secondsSince(T0);
        };
        for (Width &W : Ws) {
          Call("dispatcher.vmul", [&] {
            return D->vmul(W.Q, W.A.data(), W.B.data(), W.Mul.data(), W.NMul);
          });
          Call("dispatcher.vadd", [&] {
            return D->vadd(W.Q, W.A.data(), W.B.data(), W.Add.data(), W.NAdd);
          });
          Call("dispatcher.axpy", [&] {
            return D->axpy(W.Q, W.Scalar.data(), W.A.data(), W.Y.data(),
                           W.NAxpy);
          });
        }
      }
      T.UnitS.push_back(Round);
      Spent += Round;
      if (Corrupt && T.Attempted == 0)
        Ws[0].Mul[0] ^= 1;
      ++T.Attempted;
      bool Match = Ok;
      for (const Width &W : Ws)
        Match = Match && W.Mul == W.ExpMul && W.Add == W.ExpAdd &&
                W.Y == W.ExpAxpy;
      if (!Match)
        ++T.Failed;
    }
    T.closeLoop(Elems);
  }
};

//===--------------------------------------------------------------------===//
// ntt
//===--------------------------------------------------------------------===//

class NttWorkload final : public Workload {
  struct Shape {
    unsigned Bits;
    size_t N, Batch;
    NttRing Ring;
    Bignum Q{};
    std::vector<u64> A{}, B{}, C{}, Expected{};
  };
  std::vector<Shape> Ss = {{128, 4096, 8, NttRing::Negacyclic},
                           {256, 16384, 1, NttRing::Cyclic}};
  std::unique_ptr<KernelRegistry> Reg;
  std::unique_ptr<Dispatcher> D;
  Rng OracleRng{1};

public:
  void prepare(u64 Seed) override {
    Rng R(Seed * 0x51ED + 3);
    OracleRng.reseed(Seed ^ 0xC0FFEE);
    for (Shape &S : Ss) {
      S.Q = field::evalModulus(S.Bits);
      S.A = randomBatch(R, S.Q, S.N * S.Batch);
      S.B = randomBatch(R, S.Q, S.N * S.Batch);
      S.C.assign(S.A.size(), 0);
    }
  }

  bool setup(const PrivateDir &Dir) override {
    Reg = makeRegistry(Dir);
    D = std::make_unique<Dispatcher>(*Reg);
    // Plans plus twiddle tables for each (q, n, ring).
    for (Shape &S : Ss)
      if (!D->polyMul(S.Q, S.A.data(), S.B.data(), S.C.data(), S.N, 1,
                      S.Ring))
        return false;
    return true;
  }

  void teardown() override {
    D.reset();
    Reg.reset();
  }

  void measure(double Seconds, Tally &T) override {
    double Elems = 0;
    for (const Shape &S : Ss)
      Elems += double(S.N * S.Batch);
    double Spent = 0;
    auto Wall = Clock::now();
    bool First = true;
    while (Spent < Seconds && secondsSince(Wall) < 4 * Seconds + 30) {
      double Round = 0;
      SpanScope Unit("ntt.round", "bench");
      for (Shape &S : Ss) {
        poison(S.C);
        auto T0 = Clock::now();
        bool Ok;
        {
          SpanScope Sp("dispatcher.polyMul", "runtime.dispatcher");
          Ok = D->polyMul(S.Q, S.A.data(), S.B.data(), S.C.data(), S.N,
                          S.Batch, S.Ring);
        }
        Round += secondsSince(T0);
        if (Corrupt && First) {
          S.C[0] ^= 1;
          First = false;
        }
        ++T.Attempted;
        if (!Ok) {
          ++T.Failed;
        } else if (!S.Expected.empty()) {
          if (S.C != S.Expected)
            ++T.Failed;
        } else if (evalCheckPolyMul(S.A.data(), S.B.data(), S.C.data(), S.N,
                                    S.Batch, S.Q,
                                    S.Ring == NttRing::Negacyclic, OracleRng,
                                    4)) {
          // The first output the oracle accepts is the reference for the
          // rest of the run (same inputs every round).
          S.Expected = S.C;
        } else {
          ++T.Failed;
        }
      }
      T.UnitS.push_back(Round);
      Spent += Round;
    }
    T.closeLoop(Elems);
  }
};

// The FHE shape of the serve mix's ciphertext products and of the ledger.
constexpr size_t FheN = 1024;
constexpr unsigned FheLimbs = 4;

fhe::FheOptions fheOptions() {
  fhe::FheOptions FO;
  FO.NPoints = FheN;
  FO.NumLimbs = FheLimbs;
  return FO;
}

//===--------------------------------------------------------------------===//
// serve / serve-light
//===--------------------------------------------------------------------===//

// Frozen at seed 1 on a 4-core x86 host (see perfbench/README.md):
// --calibrate saturated the mix at ServeCapacity req/s with 64 requests in
// flight. `serve` offers 40% of it: the host is shared, and in its slow
// phases the same mix saturates near half that rate, so at 70% (and still
// at 50%) the server crossed its knee and latency swung a hundredfold.
// `serve-light` offers 25%. A reply is good when correct and within
// ServeLimitMs of its scheduled send time.
constexpr double ServeCapacity = 10000;
constexpr double ServeHeavyRate = 0.40 * ServeCapacity;
constexpr double ServeLightRate = 0.25 * ServeCapacity;
constexpr double ServeLimitMs = 50;
constexpr size_t ServeN = 256;
constexpr unsigned ServeCtEvery = 32; // one ciphertext product in 32

class ServeWorkload final : public Workload {
  struct Req {
    double At; ///< scheduled send, seconds from start
    bool Ct;
    unsigned Pool;
  };
  struct CtSlot {
    fhe::Ciphertext A, B, Out;
  };
  struct InFlight {
    std::future<service::Reply> F;
    size_t Idx;
    bool Ct;
    unsigned Pool;
    size_t Slot;
  };

  double Rate;
  u64 Seed = 0;
  u64 Phases = 0;
  Bignum Q;
  std::vector<std::vector<u64>> PA, PB, PExp; ///< polyMul pool + oracle
  std::unique_ptr<fhe::FheContext> FC;        ///< the ciphertext chain
  std::vector<fhe::Ciphertext> CA, CB; ///< ciphertext pool (Coeff form)
  std::vector<std::vector<u64>> CExp;  ///< oracle products, NTT form
  std::unique_ptr<KernelRegistry> Reg;
  std::unique_ptr<service::Server> Srv;

public:
  /// Reply buffers, hence the bound on requests in flight.
  size_t PolySlots = 512, CtSlotCount = 32;
  double GoodPerS = 0;
  service::Server::Stats LastStats;

  explicit ServeWorkload(double Rate) : Rate(Rate) {}

  std::vector<Req> schedule(double Seconds, u64 S) const {
    Rng R(S * 0x5E7E + 17);
    std::vector<Req> Out;
    double T = 0;
    for (u64 I = 0;; ++I) {
      double U = (double(R.below(1u << 30)) + 0.5) / double(1u << 30);
      T += -std::log(U) / Rate;
      if (T >= Seconds)
        break;
      bool Ct = R.below(ServeCtEvery) == 0;
      unsigned Pool = unsigned(R.below(Ct ? CA.size() : PA.size()));
      Out.push_back({T, Ct, Pool});
    }
    return Out;
  }

  void prepare(u64 S) override {
    Seed = S;
    Q = field::nttPrime(60, 16);
    Rng R(S * 0x7777 + 1);
    u64 Qw = Q.low64();
    for (int I = 0; I < 64; ++I) {
      std::vector<u64> A(ServeN), B(ServeN);
      for (size_t J = 0; J < ServeN; ++J) {
        A[J] = R.below(Qw);
        B[J] = R.below(Qw);
      }
      PExp.push_back(hostPolyMul(A.data(), B.data(), ServeN, Qw, false));
      PA.push_back(std::move(A));
      PB.push_back(std::move(B));
    }
    FC = std::make_unique<fhe::FheContext>();
    std::string Err;
    if (!fhe::FheContext::create(fheOptions(), *FC, &Err))
      die("FheContext: " + Err);
    const RnsContext &Ctx = FC->rns();
    // The tensor product (a0 b0, a0 b1 + a1 b0, a1 b1) in the NTT form
    // ciphertextMul leaves it in, per limb from host evaluations of the
    // operands: the transform of a product is the pointwise product of the
    // evaluations.
    unsigned LogN = 0;
    while ((size_t(1) << LogN) < FheN)
      ++LogN;
    const size_t Limbs = Ctx.numLimbs();
    for (int I = 0; I < 4; ++I) {
      fhe::Ciphertext A = randomCiphertext(Ctx, FheN, R);
      fhe::Ciphertext B = randomCiphertext(Ctx, FheN, R);
      std::vector<u64> Exp(3 * Limbs * FheN);
      for (size_t L = 0; L < Limbs; ++L) {
        const u64 Ql = Ctx.limb(L).low64();
        const Bignum Psi = field::rootOfUnityPow2(Ctx.limb(L), LogN + 1);
        if (Psi.powMod(Bignum(FheN), Ctx.limb(L)) != Ctx.limb(L) - Bignum(1))
          die("oracle: no primitive 2n-th root");
        auto Eval = [&](const fhe::Ciphertext &C, int P) {
          return hostNegacyclicEval(C.Polys[size_t(P)].limbData(L), FheN, Ql,
                                    Psi.low64());
        };
        std::vector<u64> A0 = Eval(A, 0), A1 = Eval(A, 1), B0 = Eval(B, 0),
                         B1 = Eval(B, 1);
        u64 *E0 = Exp.data() + L * FheN, *E1 = E0 + Limbs * FheN,
            *E2 = E1 + Limbs * FheN;
        using u128 = unsigned __int128;
        for (size_t K = 0; K < FheN; ++K) {
          E0[K] = u64(u128(A0[K]) * B0[K] % Ql);
          E1[K] = u64((u128(A0[K]) * B1[K] + u128(A1[K]) * B0[K]) % Ql);
          E2[K] = u64(u128(A1[K]) * B1[K] % Ql);
        }
      }
      CA.push_back(std::move(A));
      CB.push_back(std::move(B));
      CExp.push_back(std::move(Exp));
    }
  }

  bool setup(const PrivateDir &Dir) override {
    Reg = makeRegistry(Dir);
    Srv = std::make_unique<service::Server>(*Reg);
    // Warm both workers (plan bindings, NTT tables, scratch): while one
    // worker is busy with a ciphertext product, the other takes the
    // polyMul burst submitted behind it. Which worker takes the product is
    // up to the server, so eight rounds leave both warm with high odds.
    std::vector<std::vector<u64>> Outs(32, std::vector<u64>(ServeN));
    bool Ok = true;
    for (int Round = 0; Round < 8; ++Round) {
      CtSlot Ct;
      Ct.A = CA[size_t(Round) % CA.size()];
      Ct.B = CB[size_t(Round) % CB.size()];
      std::vector<std::future<service::Reply>> Fs;
      Fs.push_back(Srv->submitCtMul(Ct.A, Ct.B, Ct.Out));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      for (size_t I = 0; I < Outs.size(); ++I)
        Fs.push_back(Srv->polyMul(Q, PA[I].data(), PB[I].data(),
                                  Outs[I].data(), ServeN));
      for (auto &F : Fs)
        Ok = F.get().Ok && Ok;
    }
    return Ok;
  }

  void teardown() override {
    Srv.reset();
    Reg.reset();
  }

  bool checkCt(CtSlot &S, unsigned Pool) const {
    const std::vector<u64> &Exp = CExp[Pool];
    if (S.Out.size() != 3)
      return false;
    size_t Off = 0;
    for (const RnsTensor &P : S.Out.Polys) {
      if (P.domain() != RnsDomain::Ntt ||
          !std::equal(P.data(), P.data() + P.words(), Exp.begin() + Off))
        return false;
      Off += P.words();
    }
    return true;
  }

  void measure(double Seconds, Tally &T) override {
    // Each measured phase gets its own schedule from the seed.
    std::vector<Req> Sched = schedule(Seconds, Seed * 31 + Phases++);
    std::vector<std::vector<u64>> POut(PolySlots,
                                       std::vector<u64>(ServeN, Poison));
    // Every reply buffer is touched up front, so the generator's memory
    // does not depend on how many requests a burst keeps in flight.
    std::vector<CtSlot> CtSlots(CtSlotCount);
    auto PoisonCt = [](CtSlot &S) {
      for (RnsTensor &P : S.Out.Polys)
        std::fill(P.data(), P.data() + P.words(), Poison);
    };
    for (CtSlot &S : CtSlots) {
      S.A = CA[0];
      S.B = CB[0];
      S.Out.Polys.assign(3, CA[0].Polys[0]);
      PoisonCt(S);
    }
    std::vector<size_t> FreeP, FreeC;
    for (size_t I = POut.size(); I-- > 0;)
      FreeP.push_back(I);
    for (size_t I = CtSlots.size(); I-- > 0;)
      FreeC.push_back(I);
    std::deque<InFlight> Fly;
    std::vector<double> Lat, Late;
    std::vector<std::vector<double>> WinLat(size_t(Seconds) + 1);
    // Good elements per whole one-second window of send times.
    std::vector<double> WinGood(size_t(Seconds), 0.0);
    double GoodElems = 0;
    u64 Good = 0;
    bool First = true;
    const service::Server::Stats Before = Srv->stats();
    auto S0 = Clock::now() + std::chrono::milliseconds(5);
    std::int64_t S0Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            S0.time_since_epoch())
                            .count();
    auto SchedAt = [&](size_t I) {
      return S0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(Sched[I].At));
    };
    auto Harvest = [&](InFlight &F) {
      service::Reply Rp = F.F.get();
      ++T.Attempted;
      bool Ok = Rp.Ok;
      if (Ok && F.Ct) {
        if (Corrupt && First) {
          CtSlots[F.Slot].Out.Polys[0].data()[0] ^= 1;
          First = false;
        }
        Ok = checkCt(CtSlots[F.Slot], F.Pool);
      } else if (Ok) {
        if (Corrupt && First) {
          POut[F.Slot][0] ^= 1;
          First = false;
        }
        Ok = POut[F.Slot] == PExp[F.Pool];
      }
      double L = std::chrono::duration<double>(Rp.Done - SchedAt(F.Idx))
                     .count();
      std::int64_t StartNs =
          S0Ns + std::int64_t(Sched[F.Idx].At * 1e9);
      Trace.record(F.Ct ? "server.ctMul" : "server.polyMul", "service",
                   StartNs,
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Rp.Done.time_since_epoch())
                       .count(),
                   F.Idx + 1);
      if (!Ok) {
        ++T.Failed;
      } else {
        Lat.push_back(L);
        size_t Win = std::min(WinLat.size() - 1, size_t(Sched[F.Idx].At));
        WinLat[Win].push_back(L);
        if (L * 1e3 <= ServeLimitMs) {
          ++Good;
          double E = F.Ct ? 3.0 * FheN : double(ServeN);
          GoodElems += E;
          if (Win < WinGood.size())
            WinGood[Win] += E;
        }
      }
      // Poisoned for the slot's next request; not part of any latency.
      if (F.Ct)
        PoisonCt(CtSlots[F.Slot]);
      else
        poison(POut[F.Slot]);
      (F.Ct ? FreeC : FreeP).push_back(F.Slot);
    };
    // Replies mostly complete in submission order: harvesting from the
    // front keeps the generator's bookkeeping O(1) per request.
    auto HarvestReady = [&](bool Block) {
      while (!Fly.empty() &&
             (Block || Fly.front().F.wait_for(std::chrono::seconds(0)) ==
                           std::future_status::ready)) {
        Harvest(Fly.front());
        Fly.pop_front();
        if (Block)
          return;
      }
    };
    for (size_t I = 0; I < Sched.size(); ++I) {
      const Req &R = Sched[I];
      while ((R.Ct ? FreeC : FreeP).empty())
        HarvestReady(/*Block=*/true);
      size_t Slot = (R.Ct ? FreeC : FreeP).back();
      (R.Ct ? FreeC : FreeP).pop_back();
      if (R.Ct) {
        // Fresh coefficient-form operands: ciphertextMul leaves its inputs
        // NTT-resident, and a reused operand would skip 2L transforms.
        CtSlots[Slot].A = CA[R.Pool];
        CtSlots[Slot].B = CB[R.Pool];
      }
      auto At = SchedAt(I);
      while (Clock::now() + std::chrono::microseconds(200) < At) {
        HarvestReady(/*Block=*/false);
        if (Clock::now() + std::chrono::microseconds(200) < At)
          std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      while (Clock::now() < At) {
      }
      Late.push_back(secondsSince(At));
      std::future<service::Reply> F =
          R.Ct ? Srv->submitCtMul(CtSlots[Slot].A, CtSlots[Slot].B,
                                  CtSlots[Slot].Out)
               : Srv->polyMul(Q, PA[R.Pool].data(), PB[R.Pool].data(),
                              POut[Slot].data(), ServeN);
      Fly.push_back({std::move(F), I, R.Ct, R.Pool, Slot});
    }
    while (!Fly.empty())
      HarvestReady(/*Block=*/true);
    double Window =
        Sched.empty() ? Seconds : std::max(Seconds, Sched.back().At);
    // Latency quantiles per one-second window of send times, reported as
    // the median over windows: one stall moves one window, not the run.
    std::vector<double> P50s, P99s;
    for (const auto &W : WinLat)
      if (W.size() >= 100) {
        P50s.push_back(quantile(W, 0.5));
        P99s.push_back(quantile(W, 0.99));
      }
    T.LatencyS = median(P50s);
    T.P99S = median(P99s);
    // Element goodput: a slow reply counts for nothing, so this drops once
    // the latency tail crosses the limit even though the offered load is
    // fixed. Like latency, it is the median over whole windows (a run
    // shorter than one window takes the whole run).
    T.ElemPerS = WinGood.empty() ? GoodElems / Window : median(WinGood);
    T.LateP99S = quantile(Late, 0.99);
    T.UnitS = std::move(Lat);
    std::fprintf(stderr, "perfbench: %zu replies, latency ms p50 %.3f p99 "
                 "%.3f, generator late p99 %.3f ms\n", T.UnitS.size(),
                 quantile(T.UnitS, 0.5) * 1e3, quantile(T.UnitS, 0.99) * 1e3,
                 T.LateP99S * 1e3);
    GoodPerS = double(Good) / Window;
    // This phase's counters; MaxBatchSize stays the server's running max.
    LastStats = Srv->stats();
    LastStats.Requests -= Before.Requests;
    LastStats.Rejected -= Before.Rejected;
    LastStats.Dispatches -= Before.Dispatches;
    LastStats.Coalesced -= Before.Coalesced;
    LastStats.DeadlineExpired -= Before.DeadlineExpired;
  }
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "blas")
    return std::make_unique<BlasWorkload>();
  if (Name == "ntt")
    return std::make_unique<NttWorkload>();
  if (Name == "serve")
    return std::make_unique<ServeWorkload>(ServeHeavyRate);
  if (Name == "serve-light")
    return std::make_unique<ServeWorkload>(ServeLightRate);
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Output.
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value;
};
std::vector<Metric> Metrics;

void metric(const std::string &Name, const std::string &Unit, double V) {
  if (!std::isfinite(V))
    V = 0;
  Metrics.push_back({Name, Unit, V});
}

/// A field of /proc/self/status in MiB (VmRSS, VmHWM).
double statusMb(const char *Field) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  const size_t Len = std::strlen(Field);
  while (std::getline(In, Line))
    if (Line.compare(0, Len, Field) == 0 && Line.size() > Len &&
        Line[Len] == ':')
      return std::atof(Line.c_str() + Len + 1) / 1024.0;
  die(std::string("cannot read ") + Field + " from /proc/self/status");
}

/// Hands freed heap back to the kernel and restarts the peak-RSS count
/// (VmHWM) from the current resident set, so a later peak shows only what
/// was allocated after this call. Returns the current RSS in MiB.
double resetPeakRss() {
  malloc_trim(0);
  std::ofstream Refs("/proc/self/clear_refs");
  Refs << "5";
  Refs.close();
  if (!Refs)
    die("cannot reset the peak RSS through /proc/self/clear_refs");
  return statusMb("VmRSS");
}

void printResult(bool Correct, u64 Attempted, u64 Failed) {
  for (const Metric &M : Metrics)
    std::fprintf(stderr, "  %-40s %16.6g %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed);
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

} // namespace


//===----------------------------------------------------------------------===//
// The per-layer ledger (--trace 1). Fixed shapes, the same on every
// workload: each layer's public functions are timed from outside, and a
// layer that calls the next one internally is replayed one layer down so
// the difference is its own cost.
//===----------------------------------------------------------------------===//

namespace {

/// One plan a workload binds, named by op and container bits.
struct LedgerKernel {
  std::string Name;
  KernelOp Op;
  Bignum Q;
  unsigned WideWords = 0;
  NttRing Ring = NttRing::Cyclic;
  PlanKey Key{};
  std::shared_ptr<const CompiledPlan> Plan{};
};

/// The scalar kernel KernelRegistry builds for \p Key, named the same
/// way so the emitted source (and its content hash) matches.
ir::Kernel opKernel(const PlanKey &Key) {
  kernels::ScalarKernelSpec Spec{Key.ContainerBits, Key.ModBits,
                                 Key.Opts.Red};
  ir::Kernel K;
  switch (Key.Op) {
  case KernelOp::AddMod:
    K = kernels::buildAddModKernel(Spec);
    break;
  case KernelOp::SubMod:
    K = kernels::buildSubModKernel(Spec);
    break;
  case KernelOp::MulMod:
    K = kernels::buildMulModKernel(Spec);
    break;
  case KernelOp::Butterfly:
    K = kernels::buildButterflyKernel(Spec);
    break;
  case KernelOp::Axpy:
    K = kernels::buildAxpyKernel(Spec);
    break;
  case KernelOp::RnsDecompose:
    K = kernels::buildRnsDecomposeKernel(Spec, Key.WideWords);
    break;
  case KernelOp::RnsRecombineStep:
    K = kernels::buildRnsRecombineStepKernel(Spec);
    break;
  case KernelOp::RnsRescaleStep:
    K = kernels::buildRnsRescaleStepKernel(Spec);
    break;
  }
  K.Name += "_c" + std::to_string(Key.ContainerBits) + "_m" +
            std::to_string(Key.ModBits);
  if (Key.WideWords)
    K.Name += "_W" + std::to_string(Key.WideWords);
  return K;
}

template <typename Fn> double medianTime(int Reps, Fn &&F) {
  std::vector<double> V;
  for (int I = 0; I < Reps; ++I) {
    auto T0 = Clock::now();
    F();
    V.push_back(secondsSince(T0));
  }
  return median(V);
}

/// Single-core 64x64->128 multiply throughput (eight independent chains).
double hostMul64PerS() {
  u64 X[8];
  for (int I = 0; I < 8; ++I)
    X[I] = 0x9E3779B97F4A7C15ull * u64(I + 1);
  const u64 M = 0xD6E8FEB86659FD93ull;
  const u64 Iters = 1u << 24;
  double Best = 0;
  for (int Rep = 0; Rep < 3; ++Rep) {
    auto T0 = Clock::now();
    for (u64 It = 0; It < Iters; ++It)
      for (u64 &V : X) {
        unsigned __int128 P = (unsigned __int128)V * M;
        V = u64(P) ^ u64(P >> 64);
      }
    Best = std::max(Best, 8.0 * double(Iters) / secondsSince(T0));
  }
  volatile u64 Sink = X[0] ^ X[7];
  (void)Sink;
  return Best;
}

/// One transform as backend stage-group launches: the dispatch sequence
/// runTransform issues, called one layer down.
bool replayTransform(ExecutionBackend &EB, const CompiledPlan &P,
                     const NttTables &T, const std::vector<const u64 *> &Aux,
                     u64 *Data, u64 *Scratch, size_t N, size_t Batch,
                     bool Inverse) {
  std::vector<StageGroupPlan> Gs =
      planStageGroups(T.LogN, P.Key.Opts.FuseDepth);
  bool Neg = P.Key.Opts.Ring == NttRing::Negacyclic;
  for (size_t I = 0; I < Gs.size(); ++I) {
    bool First = I == 0, Last = I + 1 == Gs.size();
    StageGroup SG;
    SG.Len0 = Gs[I].Len0;
    SG.Depth = Gs[I].Depth;
    SG.Gather = First ? T.BitRev.data() : nullptr;
    SG.Twist = First && Neg && !Inverse ? T.Twist.data() : nullptr;
    if (Last && Inverse) {
      SG.Scale = Neg ? T.Untwist.data() : T.NInv.data();
      SG.ScaleStride = Neg ? T.ElemWords : 0;
    }
    SG.Src = Gs.size() == 1 || First ? Data : Scratch;
    SG.Dst = Gs.size() == 1 || Last ? Data : Scratch;
    if (!EB.runStageGroup(P, SG, Inverse ? T.InvTw.data() : T.Tw.data(), Aux,
                          N, Batch))
      return false;
  }
  return true;
}

void runLedger(u64 Seed, Tally &T) {
  auto Check = [&](bool Ok, const char *What) {
    ++T.Attempted;
    if (!Ok) {
      ++T.Failed;
      std::fprintf(stderr, "perfbench: ledger check failed: %s\n", What);
    }
  };
  Rng R(Seed * 0x1ED6 + 5);
  const double Mul64 = hostMul64PerS();
  metric("host.mul64_per_s", "1/s", Mul64);

  fhe::FheContext FC;
  std::string Err;
  if (!fhe::FheContext::create(fheOptions(), FC, &Err))
    die("FheContext: " + Err);
  const RnsContext &Ctx = FC.rns();
  const Bignum Q64 = Ctx.limb(0), Q128 = field::evalModulus(128),
               Q256 = field::evalModulus(256),
               Q1024 = field::evalModulus(1024);
  const unsigned WW = Ctx.wideWords();
  std::vector<LedgerKernel> Ks = {
      {"vmul256", KernelOp::MulMod, Q256},
      {"vadd256", KernelOp::AddMod, Q256},
      {"axpy256", KernelOp::Axpy, Q256},
      {"vmul1024", KernelOp::MulMod, Q1024},
      {"vadd1024", KernelOp::AddMod, Q1024},
      {"axpy1024", KernelOp::Axpy, Q1024},
      {"vmul128", KernelOp::MulMod, Q128},
      {"butterfly128", KernelOp::Butterfly, Q128, 0, NttRing::Negacyclic},
      {"butterfly256", KernelOp::Butterfly, Q256},
      {"vmul64", KernelOp::MulMod, Q64},
      {"vadd64", KernelOp::AddMod, Q64},
      {"butterfly64", KernelOp::Butterfly, Q64, 0, NttRing::Negacyclic},
      {"rnsdec256", KernelOp::RnsDecompose, Q64, WW},
      {"rnsrec256", KernelOp::RnsRecombineStep, Ctx.modulus()},
      {"rnsresc64", KernelOp::RnsRescaleStep, Q64},
  };

  // rewrite + codegen + jit: lower, emit and compile each kernel cold.
  PrivateDir JitDir("ledger");
  jit::HostJitOptions JO;
  JO.CacheDir = JitDir.path();
  jit::HostJit Jit(JO);
  double LowerS = 0, EmitS = 0, CompileS = 0, SourceBytes = 0;
  for (LedgerKernel &K : Ks) {
    rewrite::PlanOptions Opts;
    Opts.Ring = K.Ring;
    bool Rns = K.Op == KernelOp::RnsDecompose ||
               K.Op == KernelOp::RnsRecombineStep ||
               K.Op == KernelOp::RnsRescaleStep;
    K.Key = Rns ? PlanKey::forRns(K.Op, K.Q, K.WideWords, Opts)
                : PlanKey::forModulus(K.Op, K.Q, Opts);
    ir::Kernel IR = opKernel(K.Key);
    rewrite::LoweredKernel L;
    LowerS +=
        medianTime(3, [&] { L = rewrite::lowerWithPlan(IR, K.Key.Opts); });
    codegen::EmittedKernel E;
    EmitS += medianTime(3, [&] { E = codegen::emitC(L); });
    SourceBytes += double(E.Source.size());
    auto T0 = Clock::now();
    Check(Jit.load(E.Source) != nullptr, "ledger compile");
    CompileS += secondsSince(T0);
  }
  metric("rewrite.lower_s", "s", LowerS);
  metric("codegen.emit_s", "s", EmitS);
  metric("codegen.source_kb", "KiB", SourceBytes / 1024);
  metric("jit.compile_s", "s", CompileS);
  metric("jit.compile_count", "count", Jit.stats().Compiles);

  // registry: a fresh registry over the same cache directory builds every
  // plan (the JIT step is a disk hit), then serves them warm.
  jit::HostJitOptions RO;
  RO.CacheDir = JitDir.path();
  KernelRegistry Reg(RO);
  for (LedgerKernel &K : Ks) {
    K.Plan = Reg.get(K.Key);
    Check(K.Plan != nullptr, "registry build");
    if (!K.Plan)
      return;
    rewrite::OpStats S = rewrite::countOps(K.Plan->Lowered.K);
    metric("rewrite." + K.Name + ".mul_count", "count", S.multiplies());
    metric("rewrite." + K.Name + ".stmt_count", "count",
           double(K.Plan->Lowered.K.size()));
  }
  for (LedgerKernel &K : Ks)
    Reg.get(K.Key);
  metric("jit.disk_hit_count", "count", Reg.jit().stats().DiskHits);
  metric("registry.build_count", "count", Reg.stats().Builds);
  metric("registry.hit_count", "count", Reg.stats().Hits);
  auto find = [&](const char *Name) -> LedgerKernel & {
    for (LedgerKernel &K : Ks)
      if (K.Name == Name)
        return K;
    die(std::string("no ledger kernel ") + Name);
  };
  {
    const PlanKey &Key = find("vmul64").Key;
    const int Gets = 20000;
    double S = medianTime(5, [&] {
      for (int I = 0; I < Gets; ++I)
        Reg.get(Key);
    });
    metric("registry.get_warm_ns", "ns", S / Gets * 1e9);
  }

  // backend: runBatch on each bound element-wise plan, runStageGroup on
  // each butterfly plan, against the host multiply ceiling.
  double Mults = 0, Secs = 0, Bytes = 0, Elems = 0, ElemMults = 0;
  struct Probe {
    const char *Name;
    size_t N;
  };
  for (const Probe &Pr : {Probe{"vmul256", 4096}, Probe{"vadd256", 16384},
                          Probe{"axpy256", 4096}, Probe{"vmul1024", 512},
                          Probe{"vadd1024", 8192}, Probe{"axpy1024", 512},
                          Probe{"vmul128", 16384}, Probe{"vmul64", 32768},
                          Probe{"vadd64", 65536}}) {
    LedgerKernel &K = find(Pr.Name);
    const CompiledPlan &P = *K.Plan;
    unsigned EW = P.ElemWords;
    std::vector<u64> A = randomBatch(R, K.Q, Pr.N),
                     B = randomBatch(R, K.Q, Pr.N), C(A.size());
    PlanAux Aux = makePlanAux(P, K.Q);
    BatchArgs Args;
    Args.Aux = Aux.ptrs();
    Args.Outs = {C.data()};
    if (K.Op == KernelOp::Axpy) {
      Args.Ins = {B.data(), A.data(), C.data()};
      Args.InStrides = {0, EW, EW};
    } else {
      Args.Ins = {A.data(), B.data()};
    }
    ExecutionBackend &EB = Reg.backendFor(P.Key);
    bool Ok = true;
    double S =
        medianTime(7, [&] { Ok = EB.runBatch(P, Args, Pr.N, 1) && Ok; });
    Check(Ok, "runBatch");
    metric("backend." + K.Name + ".ns_per_elem", "ns",
           S / double(Pr.N) * 1e9);
    double M = rewrite::countOps(P.Lowered.K).multiplies();
    Mults += M * double(Pr.N);
    ElemMults += M * double(Pr.N);
    Secs += S;
    // Computed, not measured: two streamed inputs and one output per
    // element (axpy's broadcast scalar and the modulus tail stay cached).
    Bytes += 3.0 * EW * 8.0 * double(Pr.N);
    Elems += double(Pr.N);
  }
  struct NttProbe {
    const char *Name;
    size_t N, Batch;
  };
  for (const NttProbe &Pr : {NttProbe{"butterfly64", 1024, 8},
                             NttProbe{"butterfly128", 4096, 8},
                             NttProbe{"butterfly256", 16384, 1}}) {
    LedgerKernel &K = find(Pr.Name);
    const CompiledPlan &P = *K.Plan;
    NttTables Tb;
    Check(buildNttTables(K.Q, Pr.N, P.Key.Opts.Red, Tb, &Err, K.Ring),
          "tables");
    std::vector<u64> Data = randomBatch(R, K.Q, Pr.N * Pr.Batch);
    PlanAux Aux = makePlanAux(P, K.Q);
    std::vector<const u64 *> AuxP = Aux.ptrs();
    ExecutionBackend &EB = Reg.backendFor(P.Key);
    // Every stage in place, without the edge folds: the butterfly work of
    // one transform.
    bool Ok = true;
    double S = medianTime(7, [&] {
      for (unsigned St = 0; St < Tb.LogN; ++St) {
        StageGroup SG;
        SG.Len0 = size_t(1) << St;
        SG.Src = SG.Dst = Data.data();
        Ok = EB.runStageGroup(P, SG, Tb.Tw.data(), AuxP, Pr.N, Pr.Batch) &&
             Ok;
      }
    });
    Check(Ok, "runStageGroup");
    double Flies = double(Tb.LogN) * double(Pr.N / 2) * double(Pr.Batch);
    metric("backend." + std::to_string(P.Key.ContainerBits) +
               ".ns_per_butterfly",
           "ns", S / Flies * 1e9);
    Mults += rewrite::countOps(P.Lowered.K).multiplies() * Flies;
    Secs += S;
  }
  metric("backend.peak_fraction", "ratio", Mults / (Secs * Mul64));
  metric("backend.bytes_per_elem", "B", Bytes / Elems);
  metric("backend.ops_per_byte", "1/B", ElemMults / Bytes);

  // dispatcher: the serve request shape through the Dispatcher, minus the
  // same launches replayed on the backend.
  const Bignum QS = field::nttPrime(60, 16);
  double DirectPolyMulS = 0;
  {
    Dispatcher D(Reg);
    const size_t N = ServeN;
    std::vector<u64> A = randomBatch(R, QS, N), B = randomBatch(R, QS, N),
                     C(N), C2(N), Bs(N), Scratch(N);
    Check(D.polyMul(QS, A.data(), B.data(), C.data(), N, 1), "polyMul");
    Check(C == hostPolyMul(A.data(), B.data(), N, QS.low64(), false),
          "polyMul oracle");
    DirectPolyMulS = medianTime(301, [&] {
      D.polyMul(QS, A.data(), B.data(), C.data(), N, 1);
    });
    rewrite::PlanOptions O;
    auto Bf = Reg.get(PlanKey::forModulus(KernelOp::Butterfly, QS, O));
    auto Mul = Reg.get(PlanKey::forModulus(KernelOp::MulMod, QS, O));
    NttTables Tb;
    Check(Bf && Mul && buildNttTables(QS, N, Bf->Key.Opts.Red, Tb, &Err),
          "replay plans");
    PlanAux BfAux = makePlanAux(*Bf, QS), MulAux = makePlanAux(*Mul, QS);
    std::vector<const u64 *> BfP = BfAux.ptrs();
    ExecutionBackend &EB = Reg.backendFor(Bf->Key);
    bool Ok = true;
    auto Replay = [&] {
      std::copy(A.begin(), A.end(), C2.begin());
      std::copy(B.begin(), B.end(), Bs.begin());
      Ok = replayTransform(EB, *Bf, Tb, BfP, C2.data(), Scratch.data(), N, 1,
                           false) && Ok;
      Ok = replayTransform(EB, *Bf, Tb, BfP, Bs.data(), Scratch.data(), N, 1,
                           false) && Ok;
      BatchArgs Args;
      Args.Outs = {C2.data()};
      Args.Ins = {C2.data(), Bs.data()};
      Args.Aux = MulAux.ptrs();
      Ok = Reg.backendFor(Mul->Key).runBatch(*Mul, Args, N, 1) && Ok;
      Ok = replayTransform(EB, *Bf, Tb, BfP, C2.data(), Scratch.data(), N, 1,
                           true) && Ok;
    };
    double ReplayS = medianTime(301, Replay);
    Check(Ok && C2 == C, "replayed polyMul");
    metric("dispatcher.overhead_us_per_call", "us",
           (DirectPolyMulS - ReplayS) * 1e6);
  }
  {
    // Exact dispatch counts for one ntt-workload round, and the stage
    // times of its negacyclic shape.
    Dispatcher D(Reg);
    const size_t N1 = 4096, B1 = 8, N2 = 16384;
    std::vector<u64> A1 = randomBatch(R, Q128, N1 * B1),
                     X1 = randomBatch(R, Q128, N1 * B1), C1(A1.size());
    std::vector<u64> A2 = randomBatch(R, Q256, N2),
                     X2 = randomBatch(R, Q256, N2),
                     C2(A2.size());
    auto Round = [&] {
      return D.polyMul(Q128, A1.data(), X1.data(), C1.data(), N1, B1,
                       NttRing::Negacyclic) &&
             D.polyMul(Q256, A2.data(), X2.data(), C2.data(), N2, 1);
    };
    Check(Round(), "ntt round");
    auto S0 = D.dispatchStats();
    Check(Round(), "ntt round");
    auto S1 = D.dispatchStats();
    metric("dispatcher.batches_count", "count",
           double(S1.Batches - S0.Batches));
    metric("dispatcher.stage_groups_count", "count",
           double(S1.StageGroups - S0.StageGroups));
    metric("dispatcher.transforms_count", "count",
           double(S1.Transforms - S0.Transforms));
    bool Ok = true;
    metric("ntt.forward_us", "us", 1e6 * medianTime(7, [&] {
             Ok = D.nttForward(Q128, A1.data(), N1, B1, NttRing::Negacyclic) &&
                  Ok;
           }));
    metric("ntt.inverse_us", "us", 1e6 * medianTime(7, [&] {
             Ok = D.nttInverse(Q128, A1.data(), N1, B1, NttRing::Negacyclic) &&
                  Ok;
           }));
    metric("ntt.pointwise_us", "us", 1e6 * medianTime(7, [&] {
             Ok = D.vmul(Q128, A1.data(), X1.data(), C1.data(), N1 * B1) && Ok;
           }));
    Check(Ok, "ntt stages");
  }

  // rns: the residue-form edges and ops at the FHE shape.
  {
    Dispatcher D(Reg);
    std::vector<u64> Wide(size_t(WW) * FheN);
    {
      std::vector<Bignum> E;
      for (size_t I = 0; I < FheN; ++I)
        E.push_back(Bignum::random(R, Ctx.modulus()));
      Wide = packBatch(E, WW);
    }
    RnsTensor A(Ctx, FheN, 1, NttRing::Negacyclic), B = A, C = A, Tmp = A;
    bool Ok = D.fromWide(Wide.data(), A) && D.fromWide(Wide.data(), B);
    metric("rns.from_wide_us", "us", 1e6 * medianTime(21, [&] {
             Ok = D.fromWide(Wide.data(), C) && Ok;
           }));
    std::vector<u64> Back(Wide.size());
    metric("rns.to_wide_us", "us", 1e6 * medianTime(21, [&] {
             Ok = D.toWide(C, Back.data()) && Ok;
           }));
    Check(Ok && Back == Wide, "rns round trip");
    std::vector<double> PolyS, RescS;
    for (int I = 0; I < 11; ++I) {
      RnsTensor X = A, Y = B;
      auto T0 = Clock::now();
      Ok = D.rnsPolyMul(X, Y, Tmp) && Ok;
      PolyS.push_back(secondsSince(T0));
      RnsTensor Z = A;
      T0 = Clock::now();
      Ok = D.rnsRescale(Z) && Ok;
      RescS.push_back(secondsSince(T0));
    }
    Check(Ok, "rns ops");
    metric("rns.polymul_us", "us", 1e6 * median(PolyS));
    metric("rns.rescale_us", "us", 1e6 * median(RescS));
  }

  // fhe: the circuit's ops, one at a time.
  {
    Dispatcher D(Reg);
    Rng KR(Seed * 0xFE3 + 9);
    fhe::SecretKey SK = fhe::keyGen(FC, KR);
    fhe::RelinKey RK;
    auto T0 = Clock::now();
    Check(fhe::relinKeyGen(FC, D, SK, KR, RK), "relinKeyGen");
    metric("fhe.relin_keygen_s", "s", secondsSince(T0));
    const u64 Tm = FC.plainModulus().low64();
    std::vector<std::vector<u64>> M(3, std::vector<u64>(FheN));
    for (auto &Msg : M)
      for (u64 &V : Msg)
        V = KR.below(Tm);
    fhe::Ciphertext C[3];
    std::vector<double> EncS;
    for (int I = 0; I < 3; ++I) {
      T0 = Clock::now();
      Check(fhe::encrypt(FC, D, SK, M[size_t(I)], KR, C[I]), "encrypt");
      EncS.push_back(secondsSince(T0));
    }
    metric("fhe.encrypt_ms", "ms", 1e3 * median(EncS));
    std::vector<double> MulS, RelS, AddS, ResS;
    fhe::Ciphertext Sum;
    bool Ok = true;
    for (int I = 0; I < 5; ++I) {
      fhe::Ciphertext X = C[0], Y = C[1], P, S;
      T0 = Clock::now();
      Ok = fhe::ciphertextMul(D, X, Y, P) && Ok;
      MulS.push_back(secondsSince(T0));
      T0 = Clock::now();
      Ok = fhe::relinearize(D, P, RK) && Ok;
      RelS.push_back(secondsSince(T0));
      fhe::Ciphertext Z = C[2];
      T0 = Clock::now();
      Ok = fhe::ciphertextAdd(D, P, Z, S) && Ok;
      AddS.push_back(secondsSince(T0));
      if (I == 0)
        Sum = S;
      T0 = Clock::now();
      Ok = fhe::rescale(D, S) && Ok;
      ResS.push_back(secondsSince(T0));
    }
    Check(Ok, "fhe ops");
    metric("fhe.ctmul_ms", "ms", 1e3 * median(MulS));
    metric("fhe.relin_ms", "ms", 1e3 * median(RelS));
    metric("fhe.add_ms", "ms", 1e3 * median(AddS));
    metric("fhe.rescale_ms", "ms", 1e3 * median(ResS));
    std::vector<u64> Out;
    T0 = Clock::now();
    Check(fhe::decrypt(FC, D, SK, Sum, Out), "decrypt");
    metric("fhe.decrypt_ms", "ms", 1e3 * secondsSince(T0));
    std::vector<u64> Exp =
        hostPolyMul(M[0].data(), M[1].data(), FheN, Tm, true);
    for (size_t I = 0; I < FheN; ++I)
      Exp[I] = (Exp[I] + M[2][I]) % Tm;
    Check(Out == Exp, "fhe oracle");
  }

  // service: four seconds of the serve mix at the heavy rate.
  {
    ServeWorkload SW(ServeHeavyRate);
    SW.prepare(Seed);
    PrivateDir SDir("server");
    Check(SW.setup(SDir), "server setup");
    Tally ST;
    bool WasOn = Trace.On;
    Trace.On = false;
    SW.measure(4.0, ST);
    Trace.On = WasOn;
    T.Attempted += ST.Attempted;
    T.Failed += ST.Failed;
    const service::Server::Stats &S = SW.LastStats;
    metric("server.dispatches_per_req", "ratio",
           S.Requests ? double(S.Dispatches) / double(S.Requests) : 0);
    metric("server.max_batch", "count", double(S.MaxBatchSize));
    metric("server.rejected_count", "count", double(S.Rejected));
    metric("server.wait_ms_p50", "ms", (ST.LatencyS - DirectPolyMulS) * 1e3);
    metric("server.latency_p99_ms", "ms", ST.P99S * 1e3);
    metric("server.goodput_per_s", "1/s", SW.GoodPerS);
    metric("loadgen.late_p99_ms", "ms", ST.LateP99S * 1e3);
    SW.teardown();
  }
}

/// Saturates the Server with the serve mix (bounded in-flight window) and
/// prints the completed-request rate: the capacity the frozen serve rates
/// are shares of.
int calibrateServe(u64 Seed, double Seconds) {
  ServeWorkload SW(1e5);
  SW.PolySlots = 64;
  SW.CtSlotCount = 4;
  SW.prepare(Seed);
  PrivateDir Dir("calibrate");
  if (!SW.setup(Dir))
    die("calibration set-up failed");
  Tally T;
  auto T0 = Clock::now();
  SW.measure(Seconds, T);
  double Wall = secondsSince(T0);
  std::printf("serve capacity: %.1f req/s (%llu requests, %llu failed, "
              "p50 %.3f ms)\n",
              double(T.Attempted) / Wall, (unsigned long long)T.Attempted,
              (unsigned long long)T.Failed, T.LatencyS * 1e3);
  SW.teardown();
  return T.Failed ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string WName, TraceOut;
  u64 Seed = 1;
  double Seconds = 10;
  int TraceMode = 0;
  bool Calibrate = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= argc)
        die("missing value for " + A);
      return argv[++I];
    };
    if (A == "--workload")
      WName = Next();
    else if (A == "--seed")
      Seed = std::strtoull(Next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      Seconds = std::atof(Next().c_str());
    else if (A == "--trace")
      TraceMode = std::atoi(Next().c_str());
    else if (A == "--cache-root")
      CacheRoot = Next();
    else if (A == "--trace-out")
      TraceOut = Next();
    else if (A == "--corrupt")
      Corrupt = true;
    else if (A == "--calibrate")
      Calibrate = true;
    else
      die("unknown argument " + A);
  }
  std::unique_ptr<Workload> W = makeWorkload(WName);
  if (!W || Seconds <= 0)
    die("usage: moma_perfbench --workload blas|ntt|serve|serve-light "
        "--seed N --seconds S --trace 0|1");
  if (Calibrate)
    return calibrateServe(Seed, Seconds);

  W->prepare(Seed);

  // Set-up memory is the first set-up's peak RSS over the resident set it
  // starts from, the inputs and oracle answers being the benchmark's own.
  // Later set-ups in the same process reuse cached thread stacks and
  // arenas, so only the first is what a process pays to get ready.
  const double BaseRssMb = resetPeakRss();
  double SetupRssMb = 0;

  // Set-up is timed several times, each against a fresh empty cache, and
  // reported as the median; the last one stays up for the measurement.
  const int SetupReps = TraceMode ? 1 : 3;
  std::vector<double> SetupS;
  std::unique_ptr<PrivateDir> Dir;
  for (int R = 0; R < SetupReps; ++R) {
    if (R)
      W->teardown();
    Dir = std::make_unique<PrivateDir>("setup");
    auto T0 = Clock::now();
    if (!W->setup(*Dir))
      die("set-up failed for workload " + WName);
    SetupS.push_back(secondsSince(T0));
    if (R == 0)
      SetupRssMb = statusMb("VmHWM") - BaseRssMb;
  }
  std::fprintf(stderr, "perfbench: rss %.1f MiB after inputs, first set-up "
               "peak +%.2f MiB\n", BaseRssMb, SetupRssMb);

  Tally T;
  if (!TraceMode) {
    W->measure(Seconds, T);
    metric("setup_s", "s", median(SetupS));
    metric("setup_rss_mb", "MiB", SetupRssMb);
    metric("elem_per_s", "1/s", T.ElemPerS);
    metric("latency_ms", "ms", T.LatencyS * 1e3);
  } else {
    Tally Plain;
    W->measure(Seconds / 2, Plain);
    Trace.On = true;
    W->measure(Seconds / 2, T);
    Trace.On = false;
    T.Attempted += Plain.Attempted;
    T.Failed += Plain.Failed;
    // Closed loops: the throughput loss. Serve: the offered load is fixed,
    // so the cost shows as added median latency.
    metric("trace.overhead_pct", "%",
           (T.LatencyS / Plain.LatencyS - 1.0) * 100.0);
    // The untraced half's plain latency distribution, with its size.
    metric("latency.p50_ms", "ms", quantile(Plain.UnitS, 0.5) * 1e3);
    metric("latency.p90_ms", "ms", quantile(Plain.UnitS, 0.9) * 1e3);
    metric("latency.samples", "count", double(Plain.UnitS.size()));
    W->teardown();
    Dir.reset();
    metric("process.rss_growth_mb", "MiB", statusMb("VmHWM") - BaseRssMb);
    runLedger(Seed, T);
    if (!TraceOut.empty() && !Trace.write(TraceOut))
      die("cannot write " + TraceOut);
  }
  // The end-to-end set leaves error_rate out (it is 0 on a correct run);
  // "failed" / "attempted" carry it on every run.
  double ErrorRate =
      T.Attempted ? double(T.Failed) / double(T.Attempted) : 1.0;
  if (TraceMode)
    metric("error_rate", "ratio", ErrorRate);
  std::fprintf(stderr, "perfbench: error_rate %g (%llu of %llu failed)\n",
               ErrorRate, (unsigned long long)T.Failed,
               (unsigned long long)T.Attempted);
  W->teardown();
  bool Correct = T.Failed == 0 && T.Attempted > 0;
  printResult(Correct, T.Attempted, T.Failed);
  return Correct ? 0 : 1;
}
