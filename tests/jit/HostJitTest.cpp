//===- tests/jit/HostJitTest.cpp - host-JIT runtime unit tests ---------------===//
//
// The compile-and-load subsystem the codegen suites and examples build on:
// source goes in, a callable module comes out, errors are captured, and
// identical source never reaches the compiler twice (content-hash .so
// reuse within an instance and across instances).
//
//===----------------------------------------------------------------------===//

#include "jit/HostJit.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <unistd.h>

using namespace moma;

namespace {

/// A throwaway cache directory so the cache-behavior counters are
/// deterministic regardless of what earlier runs left in the shared cache.
class FreshCacheDir {
public:
  explicit FreshCacheDir(const std::string &Name)
      : Path(::testing::TempDir() + "/hostjit_" + Name + "_" +
             std::to_string(::getpid())) {
    std::filesystem::remove_all(Path);
  }
  ~FreshCacheDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  jit::HostJitOptions options() const {
    jit::HostJitOptions Opts;
    Opts.CacheDir = Path;
    return Opts;
  }
  const std::string Path;
};

const char *AddSource = "extern \"C\" long moma_jit_add(long A, long B) {"
                        " return A + B; }\n";

} // namespace

TEST(HostJit, CompilesLoadsAndResolves) {
  FreshCacheDir Dir("basic");
  jit::HostJit Jit(Dir.options());
  std::shared_ptr<jit::JitModule> M = Jit.load(AddSource);
  ASSERT_NE(M, nullptr) << Jit.error();
  EXPECT_TRUE(Jit.error().empty());
  EXPECT_FALSE(M->fromDiskCache());
  EXPECT_EQ(Jit.stats().Compiles, 1u);

  auto Add = M->symbolAs<long (*)(long, long)>("moma_jit_add");
  ASSERT_NE(Add, nullptr);
  EXPECT_EQ(Add(19, 23), 42);

  // The artifacts live in the cache directory for post-mortem inspection.
  EXPECT_TRUE(std::filesystem::exists(M->soPath()));
  EXPECT_TRUE(std::filesystem::exists(M->sourcePath()));
}

TEST(HostJit, SameSourceSameInstanceIsADiskHit) {
  // HostJit keeps no module map: a reload of the same source finds the
  // artifact the first load published and compiles nothing.
  FreshCacheDir Dir("reload");
  jit::HostJit Jit(Dir.options());
  std::shared_ptr<jit::JitModule> M1 = Jit.load(AddSource);
  ASSERT_NE(M1, nullptr) << Jit.error();
  std::shared_ptr<jit::JitModule> M2 = Jit.load(AddSource);
  ASSERT_NE(M2, nullptr) << Jit.error();
  EXPECT_FALSE(M1->fromDiskCache());
  EXPECT_TRUE(M2->fromDiskCache());
  EXPECT_EQ(M1->soPath(), M2->soPath());
  EXPECT_EQ(Jit.stats().Compiles, 1u);
  EXPECT_EQ(Jit.stats().DiskHits, 1u);
  // Both modules stay callable; dropping one leaves the other loaded.
  auto Add2 = M2->symbolAs<long (*)(long, long)>("moma_jit_add");
  M1.reset();
  ASSERT_NE(Add2, nullptr);
  EXPECT_EQ(Add2(40, 2), 42);
}

TEST(HostJit, SameSourceFreshInstanceIsADiskHit) {
  FreshCacheDir Dir("diskhit");
  {
    jit::HostJit First(Dir.options());
    ASSERT_NE(First.load(AddSource), nullptr) << First.error();
    EXPECT_EQ(First.stats().Compiles, 1u);
  }
  jit::HostJit Second(Dir.options());
  std::shared_ptr<jit::JitModule> M = Second.load(AddSource);
  ASSERT_NE(M, nullptr) << Second.error();
  EXPECT_TRUE(M->fromDiskCache());
  EXPECT_EQ(Second.stats().Compiles, 0u);
  EXPECT_EQ(Second.stats().DiskHits, 1u);
  auto Add = M->symbolAs<long (*)(long, long)>("moma_jit_add");
  ASSERT_NE(Add, nullptr);
  EXPECT_EQ(Add(-2, 2), 0);
}

TEST(HostJit, DifferentFlagsMissTheCache) {
  FreshCacheDir Dir("flags");
  jit::HostJitOptions O1 = Dir.options();
  O1.Flags = "-O1";
  jit::HostJitOptions O2 = Dir.options();
  O2.Flags = "-O2";
  jit::HostJit J1(O1), J2(O2);
  ASSERT_NE(J1.load(AddSource), nullptr) << J1.error();
  ASSERT_NE(J2.load(AddSource), nullptr) << J2.error();
  EXPECT_EQ(J2.stats().Compiles, 1u) << "flags are part of the cache key";
  EXPECT_EQ(J2.stats().DiskHits, 0u);
}

TEST(HostJit, PerLoadExtraFlagsAreDistinctModules) {
  // Per-call extra flags (the vector backend's -O3 -march=native) key
  // the cache: the same source at different optimization levels must be
  // two compiled modules, never one silently shared artifact.
  FreshCacheDir Dir("extraflags");
  jit::HostJit Jit(Dir.options());
  std::shared_ptr<jit::JitModule> MDefault = Jit.load(AddSource);
  ASSERT_NE(MDefault, nullptr) << Jit.error();
  std::shared_ptr<jit::JitModule> MFast = Jit.load(AddSource, "-O3");
  ASSERT_NE(MFast, nullptr) << Jit.error();
  EXPECT_FALSE(MFast->fromDiskCache());
  EXPECT_EQ(Jit.stats().Compiles, 2u);
  EXPECT_NE(MDefault->soPath(), MFast->soPath())
      << "extra flags are part of the disk-cache content hash";
  // Same source + same extra flags reloads that artifact without a
  // compile.
  std::shared_ptr<jit::JitModule> MAgain = Jit.load(AddSource, "-O3");
  ASSERT_NE(MAgain, nullptr) << Jit.error();
  EXPECT_EQ(MFast->soPath(), MAgain->soPath());
  EXPECT_EQ(Jit.stats().Compiles, 2u);
  EXPECT_EQ(Jit.stats().DiskHits, 1u);
  // And a fresh instance serves the flagged artifact from disk.
  jit::HostJit Second(Dir.options());
  std::shared_ptr<jit::JitModule> MDisk = Second.load(AddSource, "-O3");
  ASSERT_NE(MDisk, nullptr) << Second.error();
  EXPECT_TRUE(MDisk->fromDiskCache());
  EXPECT_EQ(Second.stats().Compiles, 0u);
}

TEST(HostJit, DiskCacheCanBeDisabled) {
  FreshCacheDir Dir("nocache");
  jit::HostJitOptions Opts = Dir.options();
  Opts.UseDiskCache = false;
  {
    jit::HostJit First(Opts);
    ASSERT_NE(First.load(AddSource), nullptr) << First.error();
  }
  jit::HostJit Second(Opts);
  std::shared_ptr<jit::JitModule> M = Second.load(AddSource);
  ASSERT_NE(M, nullptr) << Second.error();
  EXPECT_FALSE(M->fromDiskCache());
  EXPECT_EQ(Second.stats().Compiles, 1u);
}

TEST(HostJit, CapturesCompilerDiagnostics) {
  FreshCacheDir Dir("error");
  jit::HostJit Jit(Dir.options());
  std::shared_ptr<jit::JitModule> M =
      Jit.load("this is not a translation unit\n");
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(Jit.error().find("host compiler failed"), std::string::npos)
      << Jit.error();
  EXPECT_NE(Jit.error().find("error"), std::string::npos)
      << "compiler stderr should be captured: " << Jit.error();
  // A failed load leaves no .so behind to poison later lookups.
  jit::HostJit Retry(Dir.options());
  EXPECT_EQ(Retry.load("this is not a translation unit\n"), nullptr);
  EXPECT_EQ(Retry.stats().DiskHits, 0u);
}

TEST(HostJit, MissingSymbolIsNull) {
  FreshCacheDir Dir("nosym");
  jit::HostJit Jit(Dir.options());
  std::shared_ptr<jit::JitModule> M = Jit.load(AddSource);
  ASSERT_NE(M, nullptr) << Jit.error();
  EXPECT_EQ(M->symbol("definitely_not_here"), nullptr);
}

TEST(HostJit, DiskEntryWithMismatchedSourceIsNotReused) {
  // The disk cache is keyed by a 64-bit content hash; a hit only counts
  // when the stored source is byte-identical, so a colliding or mangled
  // entry recompiles instead of silently running the wrong kernel.
  FreshCacheDir Dir("mismatch");
  std::string SrcPath;
  {
    jit::HostJit First(Dir.options());
    std::shared_ptr<jit::JitModule> M1 = First.load(AddSource);
    ASSERT_NE(M1, nullptr) << First.error();
    SrcPath = M1->sourcePath();
  }
  { std::ofstream(SrcPath, std::ios::trunc) << "// some other kernel\n"; }
  jit::HostJit Second(Dir.options());
  std::shared_ptr<jit::JitModule> M2 = Second.load(AddSource);
  ASSERT_NE(M2, nullptr) << Second.error();
  EXPECT_FALSE(M2->fromDiskCache());
  EXPECT_EQ(Second.stats().Compiles, 1u);
  EXPECT_EQ(Second.stats().DiskHits, 0u);
  auto Add = M2->symbolAs<long (*)(long, long)>("moma_jit_add");
  ASSERT_NE(Add, nullptr);
  EXPECT_EQ(Add(40, 2), 42);
}

TEST(HostJit, StaleCacheEntryIsRebuilt) {
  FreshCacheDir Dir("stale");
  std::string SoPath;
  {
    // Scoped so the module is unloaded before its backing file is mangled.
    jit::HostJit First(Dir.options());
    std::shared_ptr<jit::JitModule> M1 = First.load(AddSource);
    ASSERT_NE(M1, nullptr) << First.error();
    SoPath = M1->soPath();
  }
  // Truncate the cached .so to something dlopen must reject.
  { std::ofstream(SoPath, std::ios::trunc) << "garbage"; }
  jit::HostJit Second(Dir.options());
  std::shared_ptr<jit::JitModule> M2 = Second.load(AddSource);
  ASSERT_NE(M2, nullptr) << Second.error();
  EXPECT_FALSE(M2->fromDiskCache());
  EXPECT_EQ(Second.stats().Compiles, 1u);
  auto Add = M2->symbolAs<long (*)(long, long)>("moma_jit_add");
  ASSERT_NE(Add, nullptr);
  EXPECT_EQ(Add(20, 22), 42);
}
