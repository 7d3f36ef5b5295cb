// Runtime kernel-variant selection: name round-trips, CPUID detection,
// table completeness for every compiled variant, and the resolution order
// (config > AE_KERNEL_VARIANT env > auto) including the scalar fallback for
// variants this host cannot run. Value-level parity between the tables is
// fused_parity_test's job; this suite covers the plumbing.

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dispatch.h"
#include "core/kernel_table.h"

namespace alphaevolve::core {
namespace {

TEST(DispatchTest, VariantNamesRoundTrip) {
  for (const KernelVariant v :
       {KernelVariant::kScalar, KernelVariant::kAvx2, KernelVariant::kAvx512,
        KernelVariant::kNeon}) {
    KernelVariant parsed;
    ASSERT_TRUE(ParseKernelVariant(KernelVariantName(v), &parsed))
        << KernelVariantName(v);
    EXPECT_EQ(parsed, v);
  }
  KernelVariant parsed;
  EXPECT_FALSE(ParseKernelVariant("", &parsed));
  EXPECT_FALSE(ParseKernelVariant("auto", &parsed));  // handled by caller
  EXPECT_FALSE(ParseKernelVariant("sse9", &parsed));
}

TEST(DispatchTest, ScalarAlwaysCompiledAndSupported) {
  EXPECT_TRUE(KernelVariantSupported(KernelVariant::kScalar));
  const KernelTable* scalar = GetKernelTable(KernelVariant::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->variant, KernelVariant::kScalar);
  EXPECT_STREQ(scalar->name, "scalar");
  const auto compiled = CompiledKernelVariants();
  EXPECT_NE(std::find(compiled.begin(), compiled.end(),
                      KernelVariant::kScalar),
            compiled.end());
  const auto runnable = RunnableKernelVariants();
  EXPECT_NE(std::find(runnable.begin(), runnable.end(),
                      KernelVariant::kScalar),
            runnable.end());
}

TEST(DispatchTest, CompiledTablesAreComplete) {
  // A table slot left null would only crash when a fuzzed program first hits
  // that op under that variant; refuse here instead, for every variant the
  // build produced (runnable on this host or not).
  for (const KernelVariant v : CompiledKernelVariants()) {
    SCOPED_TRACE(KernelVariantName(v));
    const KernelTable* table = GetKernelTable(v);
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->variant, v);
    EXPECT_STREQ(table->name, KernelVariantName(v));
    for (int i = 0; i < static_cast<int>(MicroKernelId::kNumMicroKernels);
         ++i) {
      EXPECT_NE(table->micro[i], nullptr) << "micro kernel id " << i;
    }
    EXPECT_NE(table->matmul, nullptr);
    EXPECT_NE(table->matvec, nullptr);
    EXPECT_NE(table->transpose, nullptr);
    EXPECT_NE(table->nn_matvec, nullptr);
    EXPECT_NE(table->nn_mattvec, nullptr);
    EXPECT_NE(table->nn_addouter, nullptr);
  }
}

TEST(DispatchTest, DetectReturnsRunnableVariant) {
  const KernelVariant detected = DetectKernelVariant();
  const auto runnable = RunnableKernelVariants();
  EXPECT_NE(std::find(runnable.begin(), runnable.end(), detected),
            runnable.end());
  EXPECT_TRUE(KernelVariantSupported(detected));
  EXPECT_NE(GetKernelTable(detected), nullptr);
}

TEST(DispatchTest, RunnableIsSubsetOfCompiled) {
  const auto compiled = CompiledKernelVariants();
  for (const KernelVariant v : RunnableKernelVariants()) {
    EXPECT_NE(std::find(compiled.begin(), compiled.end(), v), compiled.end())
        << KernelVariantName(v);
    EXPECT_TRUE(KernelVariantSupported(v)) << KernelVariantName(v);
  }
}

TEST(DispatchTest, ResolutionOrderConfigThenEnvThenAuto) {
  // Explicit request wins regardless of the environment.
  ASSERT_EQ(setenv("AE_KERNEL_VARIANT", "scalar", /*overwrite=*/1), 0);
  for (const KernelVariant v : RunnableKernelVariants()) {
    const KernelTable& table = ResolveKernelTable(KernelVariantName(v));
    EXPECT_EQ(table.variant, v) << KernelVariantName(v);
  }
  // Empty request defers to the env.
  EXPECT_EQ(ResolveKernelTable("").variant, KernelVariant::kScalar);
  // "auto" (explicit or via env) means detect.
  ASSERT_EQ(setenv("AE_KERNEL_VARIANT", "auto", 1), 0);
  EXPECT_EQ(ResolveKernelTable("").variant, DetectKernelVariant());
  EXPECT_EQ(ResolveKernelTable("auto").variant, DetectKernelVariant());
  ASSERT_EQ(unsetenv("AE_KERNEL_VARIANT"), 0);
  EXPECT_EQ(ResolveKernelTable("").variant, DetectKernelVariant());
}

TEST(DispatchTest, UnsupportedRequestFallsBackToScalar) {
  // Find a variant that is not runnable here (compiled out or CPU lacks
  // it); requesting it must yield the scalar table, not a crash. On a host
  // that can run everything, NEON is still compiled out on x86 and AVX-512
  // on AArch64, so such a variant always exists.
  const auto runnable = RunnableKernelVariants();
  for (const KernelVariant v :
       {KernelVariant::kAvx2, KernelVariant::kAvx512, KernelVariant::kNeon}) {
    if (std::find(runnable.begin(), runnable.end(), v) != runnable.end()) {
      continue;
    }
    const KernelTable& table = ResolveKernelTable(KernelVariantName(v));
    EXPECT_EQ(table.variant, KernelVariant::kScalar) << KernelVariantName(v);
  }
}

}  // namespace
}  // namespace alphaevolve::core
