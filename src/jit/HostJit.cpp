//===- jit/HostJit.cpp - Compile-and-dlopen runtime for emitted C --------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "jit/HostJit.h"

#include "support/FaultInjection.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <dlfcn.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/wait.h>
#include <system_error>
#include <unistd.h>

// The build system defines MOMA_HOST_CXX as the compiler it was configured
// with; a bare toolchain falls back to the system driver.
#ifndef MOMA_HOST_CXX
#define MOMA_HOST_CXX "cc"
#endif

namespace fs = std::filesystem;

namespace moma {
namespace jit {

namespace {

/// FNV-1a over the cache key material (compiler, flags, source).
std::uint64_t fnv1a(std::initializer_list<const std::string *> Parts) {
  std::uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](const char *Data, size_t N) {
    for (size_t I = 0; I < N; ++I) {
      H ^= static_cast<unsigned char>(Data[I]);
      H *= 0x100000001b3ull;
    }
  };
  for (const std::string *P : Parts) {
    Mix(P->data(), P->size());
    Mix("\0", 1); // unambiguous part separator
  }
  return H;
}

std::string hex64(std::uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

JitModule::~JitModule() {
  if (Handle)
    dlclose(Handle);
}

void *JitModule::symbol(const std::string &Name, std::string *DlError) const {
  // dlerror() is thread-local per POSIX; clear any stale diagnostic first
  // so the post-lookup read is unambiguously about this dlsym.
  dlerror();
  void *Sym = dlsym(Handle, Name.c_str());
  const char *Msg = dlerror();
  if (DlError)
    *DlError = Msg ? Msg : "";
  return Sym;
}

HostJit::HostJit(HostJitOptions O) : Opts(std::move(O)) {
  if (Opts.Compiler.empty()) {
    const char *Env = std::getenv("MOMA_HOST_CXX");
    Opts.Compiler = Env && *Env ? Env : MOMA_HOST_CXX;
  }
  if (Opts.CacheDir.empty()) {
    const char *Env = std::getenv("MOMA_JIT_CACHE_DIR");
    if (Env && *Env) {
      Opts.CacheDir = Env;
    } else {
      std::error_code EC;
      fs::path Tmp = fs::temp_directory_path(EC);
      if (EC)
        Tmp = "/tmp";
      Opts.CacheDir = (Tmp / "moma-jit-cache").string();
    }
  }
  std::error_code EC;
  fs::create_directories(Opts.CacheDir, EC);
  // A failure here surfaces on the first load(): the source write fails
  // and the compiler error is captured like any other.
}

HostJit::Stats HostJit::stats() const {
  Stats S;
  S.Compiles = Compiles.load(std::memory_order_relaxed);
  S.DiskHits = DiskHits.load(std::memory_order_relaxed);
  return S;
}

bool HostJit::compile(const std::string &Source, const std::string &ExtraFlags,
                      const std::string &SrcPath, const std::string &SoPath,
                      const std::string &LogPath, std::string &Error) {
  // Work on private temp names and rename into place, so that concurrent
  // processes racing on the same cache entry never read a half-written
  // source or dlopen a half-written .so. The suffix is unique per process
  // AND per compile so sibling HostJit instances on other threads never
  // clobber each other's temp files; the temp source keeps its .cpp
  // extension so the driver recognizes it.
  // Chaos hook standing in for every way a real compiler invocation dies
  // (missing driver, full /tmp, OOM-killed cc1plus); a delay policy here
  // models a wedged compiler for the deadline tests.
  if (support::faultShouldFail("jit.compile")) {
    Error = "HostJit: fault injected at jit.compile";
    return false;
  }
  static std::atomic<unsigned> Seq{0};
  std::string Uniq =
      std::to_string(::getpid()) + "-" + std::to_string(++Seq);
  std::string TmpSrc = SrcPath + ".tmp" + Uniq + ".cpp";
  std::string TmpSo = SoPath + ".tmp." + Uniq;
  std::string TmpLog = LogPath + ".tmp." + Uniq;
  // Every failure path removes all three temps (whichever exist): the
  // compiler log is captured into the error message before cleanup, so
  // nothing post-mortem-worthy is lost and a crashing client can retry
  // forever without the cache directory accreting orphaned temp files.
  auto CleanupTemps = [&] {
    std::error_code EC;
    fs::remove(TmpSrc, EC);
    fs::remove(TmpSo, EC);
    fs::remove(TmpLog, EC);
  };
  {
    std::ofstream Out(TmpSrc);
    Out << Source;
    if (!Out) {
      Error = "HostJit: cannot write source file " + TmpSrc;
      CleanupTemps();
      return false;
    }
  }
  // Paths are quoted (cache dirs may contain spaces); Compiler and the
  // flag strings are left bare on purpose — each may carry several shell
  // words ("ccache g++", "-O2 -march=native"). ExtraFlags come after the
  // instance-wide Flags so a per-plan -O3 overrides the -O1 default.
  std::string Cmd = Opts.Compiler + " " + Opts.Flags +
                    (ExtraFlags.empty() ? "" : " " + ExtraFlags) +
                    " -shared -fPIC -o \"" + TmpSo + "\" \"" + TmpSrc +
                    "\" 2>\"" + TmpLog + "\"";
  int Rc = std::system(Cmd.c_str());
  if (Rc != 0) {
    // Decode the wait status so the message matches what a user sees
    // rerunning the printed command by hand.
    std::string Reason;
    if (Rc == -1)
      Reason = "could not launch shell";
    else if (WIFEXITED(Rc))
      Reason = "exit status " + std::to_string(WEXITSTATUS(Rc));
    else if (WIFSIGNALED(Rc))
      Reason = "killed by signal " + std::to_string(WTERMSIG(Rc));
    else
      Reason = "wait status " + std::to_string(Rc);
    Error = "HostJit: host compiler failed (" + Reason +
            ")\ncommand: " + Cmd + "\n" + readFile(TmpLog);
    CleanupTemps();
    return false;
  }
  // Publish fail-safe: a disk hit requires source and .so to agree, so
  // first invalidate the entry by removing the stored source, then land
  // the .so, then the source last. A crash anywhere in between leaves a
  // mismatched or missing source and the next load() recompiles instead
  // of ever pairing a source with an object it was not built from.
  auto Publish = [&Error](const std::string &From, const std::string &To) {
    std::error_code EC;
    fs::rename(From, To, EC);
    if (EC) {
      Error = "HostJit: cannot move " + From + " to " + To + ": " +
              EC.message();
      return false;
    }
    return true;
  };
  if (!Publish(TmpSo, SoPath) || !Publish(TmpLog, LogPath) ||
      !Publish(TmpSrc, SrcPath)) {
    // Whichever temps were not renamed into place yet are swept here
    // (remove() on the already-published names' temp paths is a no-op).
    CleanupTemps();
    return false;
  }
  Compiles.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::shared_ptr<JitModule> HostJit::load(const std::string &Source,
                                         const std::string &ExtraFlags) {
  Err.clear();
  std::string Error;
  auto Fail = [&]() -> std::shared_ptr<JitModule> {
    Err.set(Error);
    return nullptr;
  };
  std::uint64_t Key = fnv1a({&Opts.Compiler, &Opts.Flags, &ExtraFlags,
                             &Source});
  std::string Base = Opts.CacheDir + "/moma-" + hex64(Key);
  std::string SrcPath = Base + ".cpp";
  std::string SoPath = Base + ".so";
  std::string LogPath = Base + ".log";

  // A disk entry counts as a hit only if the source it was built from is
  // byte-identical — this guards against both hash collisions and a
  // mangled cache directory. A miss removes the stored source before
  // compile() spends compiler time, so no stale pairing survives it.
  std::error_code EC;
  bool FromDisk = Opts.UseDiskCache && fs::exists(SoPath, EC) &&
                  readFile(SrcPath) == Source;
  if (!FromDisk) {
    fs::remove(SrcPath, EC); // invalidate any stale pairing first
    if (!compile(Source, ExtraFlags, SrcPath, SoPath, LogPath, Error))
      return Fail();
  }

  // Chaos hook for loader failures (corrupt .so, exhausted mmap space);
  // distinct from jit.compile so tests can fail the load of an object
  // that compiled fine.
  if (support::faultShouldFail("jit.dlopen")) {
    Error = "HostJit: fault injected at jit.dlopen";
    return Fail();
  }
  void *Handle = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle && FromDisk) {
    // A stale or truncated cache entry: rebuild once from source.
    FromDisk = false;
    fs::remove(SoPath, EC);
    fs::remove(SrcPath, EC);
    if (!compile(Source, ExtraFlags, SrcPath, SoPath, LogPath, Error))
      return Fail();
    Handle = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  }
  if (!Handle) {
    const char *DlMsg = dlerror();
    Error = std::string("HostJit: dlopen failed: ") +
            (DlMsg ? DlMsg : "(no message)");
    return Fail();
  }
  if (FromDisk)
    DiskHits.fetch_add(1, std::memory_order_relaxed);
  return std::shared_ptr<JitModule>(
      new JitModule(Handle, SoPath, SrcPath, FromDisk));
}

} // namespace jit
} // namespace moma
