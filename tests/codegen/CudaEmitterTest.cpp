//===- tests/codegen/CudaEmitterTest.cpp - CUDA emission structure ------------===//
//
// No GPU is available in this environment (DESIGN.md §4), so these tests
// pin the structure of the emitted CUDA: launch geometry, the paper's
// thread mappings, port marshalling, and the shared scalar body whose
// semantics the dlopen tests already proved.
//
//===----------------------------------------------------------------------===//

#include "codegen/CudaEmitter.h"

#include "kernels/BlasKernels.h"
#include "kernels/NttKernels.h"

#include <gtest/gtest.h>

using namespace moma;
using namespace moma::codegen;
using kernels::ScalarKernelSpec;

TEST(CudaEmitter, ElementwiseHasGlobalKernelAndGrid) {
  std::string Cu =
      kernels::emitBlasCuda(kernels::BlasOp::VMul, ScalarKernelSpec{256, 0});
  EXPECT_NE(Cu.find("__global__ void moma_vmul_256("), std::string::npos);
  EXPECT_NE(Cu.find("__device__ static __forceinline__"), std::string::npos);
  EXPECT_NE(Cu.find("blockIdx.x"), std::string::npos);
  EXPECT_NE(Cu.find("threadIdx.x"), std::string::npos);
  EXPECT_NE(Cu.find("blockIdx.y"), std::string::npos)
      << "batch dimension (paper 5.1)";
  EXPECT_NE(Cu.find("if (i >= n) return;"), std::string::npos);
}

TEST(CudaEmitter, ElementwiseBroadcastsModulus) {
  std::string Cu =
      kernels::emitBlasCuda(kernels::BlasOp::VMul, ScalarKernelSpec{256, 0});
  // q and mu are loaded without the element offset e.
  EXPECT_NE(Cu.find("q[0]"), std::string::npos);
  EXPECT_NE(Cu.find("mu[0]"), std::string::npos);
  // data ports are element-indexed.
  EXPECT_NE(Cu.find("e * 4"), std::string::npos);
}

TEST(CudaEmitter, AllBlasOpsEmit) {
  for (auto Op : {kernels::BlasOp::VAdd, kernels::BlasOp::VSub,
                  kernels::BlasOp::VMul, kernels::BlasOp::Axpy}) {
    for (unsigned Bits : {128u, 256u, 512u}) {
      std::string Cu = kernels::emitBlasCuda(Op, ScalarKernelSpec{Bits, 0});
      EXPECT_NE(Cu.find("__global__"), std::string::npos)
          << kernels::blasOpName(Op) << Bits;
    }
  }
}

TEST(CudaEmitter, NttStageHasButterflyMapping) {
  std::string Cu = kernels::emitNttCuda(ScalarKernelSpec{256, 0});
  EXPECT_NE(Cu.find("__global__ void moma_ntt_butterfly_256_stage("),
            std::string::npos);
  // One thread per butterfly: t in [0, n/2).
  EXPECT_NE(Cu.find("if (t >= n / 2) return;"), std::string::npos);
  // The classic index math i0 = g*2*len + j, i1 = i0 + len.
  EXPECT_NE(Cu.find("g * 2 * len + j"), std::string::npos);
  EXPECT_NE(Cu.find("i0 + len"), std::string::npos);
  // Batch via grid.y.
  EXPECT_NE(Cu.find("blockIdx.y"), std::string::npos);
}

TEST(CudaEmitter, NttStageWordCountTracksPruning) {
  // 380-bit modulus in a 512 container: 6 stored words per element.
  std::string Cu = kernels::emitNttCuda(ScalarKernelSpec{512, 380});
  EXPECT_NE(Cu.find("* 6"), std::string::npos) << Cu.substr(0, 600);
}

TEST(CudaEmitter, KaratsubaAndSchoolbookDiffer) {
  std::string School = kernels::emitNttCuda(
      ScalarKernelSpec{256, 0}, mw::MulAlgorithm::Schoolbook);
  std::string Kara = kernels::emitNttCuda(ScalarKernelSpec{256, 0},
                                          mw::MulAlgorithm::Karatsuba);
  EXPECT_NE(School, Kara);
  EXPECT_NE(School.find("schoolbook multiply"), std::string::npos);
  EXPECT_NE(Kara.find("Karatsuba multiply"), std::string::npos);
}

TEST(CudaEmitter, EmitsLaunchInstructions) {
  std::string Cu = kernels::emitNttCuda(ScalarKernelSpec{128, 0});
  EXPECT_NE(Cu.find("// Launch per stage"), std::string::npos);
  EXPECT_NE(Cu.find("<<<grid"), std::string::npos);
}

TEST(CudaEmitter, RejectsNonButterflyKernel) {
  rewrite::LoweredKernel L = kernels::generateBlasKernel(
      kernels::BlasOp::VAdd, ScalarKernelSpec{128, 0});
  EXPECT_DEATH((void)emitCudaNttStage(L), "expected butterfly ports");
}

TEST(CudaEmitter, WideProductsUsePortableDeviceRows) {
  // 1024-bit products are wide helpers; the device copy has no x86 asm.
  std::string Cu =
      kernels::emitBlasCuda(kernels::BlasOp::VMul, ScalarKernelSpec{1024, 0});
  EXPECT_NE(Cu.find("__device__ static void moma_wmul_16x16_32("),
            std::string::npos);
  EXPECT_NE(Cu.find("  moma_wmul_16x16_32("), std::string::npos);
  EXPECT_NE(Cu.find("unsigned __int128 t = "), std::string::npos);
  EXPECT_EQ(Cu.find("__asm__"), std::string::npos);
  EXPECT_EQ(Cu.find("MOMA_MULX_ROWS"), std::string::npos);
}
