/** @file Tests for the HLS C++ emitter, including a behavioural check that
 * compiles and runs the emitted code against a reference implementation. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "api/scalehls.h"
#include "model/dnn_dse.h"
#include "model/polybench.h"
#include "support/utils.h"

namespace scalehls {
namespace {

std::string
optimizedSyrkCpp()
{
    Compiler compiler = Compiler::fromC(syrkFig5Source());
    Operation *func = getTopFunc(compiler.module());
    applyLoopPerfectization(getLoopBands(func)[0][0]);
    applyRemoveVariableBound(getLoopBands(func)[0][0]);
    auto band = getLoopNest(getLoopBands(func)[0][0]);
    applyLoopOrderOpt(band);
    band = getLoopNest(band[0]);
    band = applyLoopTiling(band, {2, 1, 1});
    applyLoopPipelining(band.back(), 1);
    compiler.applySimplifications();
    applyArrayPartition(func);
    return compiler.emitCpp();
}

TEST(Emitter, PragmasPresent)
{
    std::string cpp = optimizedSyrkCpp();
    EXPECT_NE(cpp.find("void syrk("), std::string::npos);
    EXPECT_NE(cpp.find("#pragma HLS pipeline II=1"), std::string::npos);
    EXPECT_NE(cpp.find("#pragma HLS array_partition"), std::string::npos);
    EXPECT_NE(cpp.find("core=ram_s2p_bram"), std::string::npos);
    EXPECT_NE(cpp.find("cyclic factor="), std::string::npos);
    // Interface arrays are sized as in the source.
    EXPECT_NE(cpp.find("[16][16]"), std::string::npos);
    EXPECT_NE(cpp.find("[16][8]"), std::string::npos);
}

TEST(Emitter, ScalarOpsRendered)
{
    Compiler compiler =
        Compiler::fromC("void k(float a, float A[4]) {\n"
                        "  for (int i = 0; i < 4; i++)\n"
                        "    A[i] = a * A[i] + 1.0;\n"
                        "}");
    std::string cpp = compiler.emitCpp();
    EXPECT_NE(cpp.find("for (int"), std::string::npos);
    EXPECT_NE(cpp.find(" * "), std::string::npos);
    EXPECT_NE(cpp.find(" + "), std::string::npos);
}

TEST(Emitter, DataflowPragma)
{
    auto module = createModule();
    ModelBuilder m(module.get(), "net", {1, 3, 8, 8});
    Value *x = m.conv(m.input(), 4, 3, 1, 1, false);
    x = m.conv(x, 4, 3, 1, 1, false);
    Operation *func = m.finish(x);
    applyLegalizeDataflow(func, false);
    applySplitFunction(module.get(), func, 1);
    lowerGraphToAffine(module.get());
    std::string cpp = emitHlsCpp(module.get());
    EXPECT_NE(cpp.find("#pragma HLS dataflow"), std::string::npos);
    EXPECT_NE(cpp.find("net_dataflow0("), std::string::npos);
}

TEST(Emitter, RejectsTensorIR)
{
    auto module = createModule();
    ModelBuilder m(module.get(), "net", {1, 3, 8, 8});
    m.finish(m.conv(m.input(), 4, 3, 1, 1, false));
    EXPECT_THROW(emitHlsCpp(module.get()), FatalError);
}

/** Behavioural check: the emitted C++ for the optimized SYRK computes the
 * same result as a straightforward reference, validating that the whole
 * transform stack is semantics-preserving. Requires a host compiler. */
TEST(Emitter, EmittedCodeMatchesReference)
{
    if (std::system("which g++ > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "no host compiler available";

    std::string cpp = optimizedSyrkCpp();
    std::string dir = ::testing::TempDir();
    std::string src_path = dir + "/syrk_check.cc";
    std::string bin_path = dir + "/syrk_check";
    {
        std::ofstream os(src_path);
        os << cpp << R"(
#include <cmath>
#include <cstdio>

int main() {
    float C[16][16], R[16][16], A[16][8];
    for (int i = 0; i < 16; ++i)
        for (int j = 0; j < 16; ++j)
            C[i][j] = R[i][j] = 0.25f * i - 0.5f * j + 1.0f;
    for (int i = 0; i < 16; ++i)
        for (int k = 0; k < 8; ++k)
            A[i][k] = 0.125f * i + 0.0625f * k - 0.3f;
    float alpha = 1.5f, beta = 0.75f;

    // Reference (the original PolyBench loop nest).
    for (int i = 0; i < 16; ++i)
        for (int j = 0; j <= i; ++j) {
            R[i][j] *= beta;
            for (int k = 0; k < 8; ++k)
                R[i][j] += alpha * A[i][k] * A[j][k];
        }

    syrk(alpha, beta, C, A);

    for (int i = 0; i < 16; ++i)
        for (int j = 0; j < 16; ++j)
            if (std::fabs(C[i][j] - R[i][j]) > 1e-3f) {
                std::printf("mismatch at %d %d: %f vs %f\n", i, j,
                            C[i][j], R[i][j]);
                return 1;
            }
    return 0;
}
)";
    }
    std::string compile =
        "g++ -std=c++17 -O1 -o " + bin_path + " " + src_path;
    ASSERT_EQ(std::system(compile.c_str()), 0) << "emitted C++ does not "
                                                  "compile";
    EXPECT_EQ(std::system(bin_path.c_str()), 0)
        << "emitted C++ computes wrong results";
}

/** The same behavioural check for GEMM across several schedules. */
class EmitterGemmBehaviour
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>>
{};

TEST_P(EmitterGemmBehaviour, MatchesReference)
{
    if (std::system("which g++ > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "no host compiler available";
    auto [tile, ii] = GetParam();

    Compiler compiler = Compiler::fromC(polybenchSource("gemm", 8));
    Operation *func = getTopFunc(compiler.module());
    applyLoopPerfectization(getLoopBands(func)[0][0]);
    auto band = getLoopNest(getLoopBands(func)[0][0]);
    applyLoopOrderOpt(band);
    band = getLoopNest(band[0]);
    band = applyLoopTiling(band, {1, tile, 1});
    applyLoopPipelining(band.back(), ii);
    compiler.applySimplifications();
    applyArrayPartition(func);
    std::string cpp = compiler.emitCpp();

    std::string dir = ::testing::TempDir();
    std::string tag = std::to_string(tile) + "_" + std::to_string(ii);
    std::string src_path = dir + "/gemm_check_" + tag + ".cc";
    std::string bin_path = dir + "/gemm_check_" + tag;
    {
        std::ofstream os(src_path);
        os << cpp << R"(
#include <cmath>
int main() {
    float C[8][8], R[8][8], A[8][8], B[8][8];
    for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j) {
            C[i][j] = R[i][j] = 0.1f * i - 0.2f * j;
            A[i][j] = 0.3f * i + 0.05f * j;
            B[i][j] = -0.15f * i + 0.25f * j;
        }
    float alpha = 2.0f, beta = 0.5f;
    for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j) {
            R[i][j] *= beta;
            for (int k = 0; k < 8; ++k)
                R[i][j] += alpha * A[i][k] * B[k][j];
        }
    gemm(alpha, beta, C, A, B);
    for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
            if (std::fabs(C[i][j] - R[i][j]) > 1e-2f)
                return 1;
    return 0;
}
)";
    }
    std::string compile =
        "g++ -std=c++17 -O1 -o " + bin_path + " " + src_path;
    ASSERT_EQ(std::system(compile.c_str()), 0);
    EXPECT_EQ(std::system(bin_path.c_str()), 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EmitterGemmBehaviour,
                         ::testing::Values(std::tuple{1, 1},
                                           std::tuple{2, 1},
                                           std::tuple{4, 2},
                                           std::tuple{8, 1}));

/** True when the host compiler accepts @p cpp (syntax and types only;
 * the emitted code includes just <algorithm> and <cmath>). */
bool
hostCompilerAccepts(const std::string &cpp, const std::string &name)
{
    std::string src_path = ::testing::TempDir() + "/" + name + "_dse.cc";
    {
        std::ofstream os(src_path);
        os << cpp;
    }
    std::string check =
        "g++ -std=c++17 -fsyntax-only -Wno-unknown-pragmas " + src_path;
    return std::system(check.c_str()) == 0;
}

TEST(Emitter, DSEWinnersCompile)
{
    // Every DSE winner is materialized afresh from its point; the code
    // emitted for it must be valid C++ for every PolyBench kernel and a
    // whole-model design.
    if (std::system("which g++ > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "no host compiler available";

    DesignSpaceOptions space_options;
    space_options.maxTileSize = 8;
    space_options.maxTotalUnroll = 32;
    DSEOptions options;
    options.numInitialSamples = 8;
    options.maxIterations = 8;
    options.numThreads = 2;
    for (const char *kernel :
         {"bicg", "gemm", "gesummv", "syr2k", "syrk", "trmm", "2mm", "3mm"}) {
        auto module = parseCToModule(polybenchSource(kernel, 32));
        raiseScfToAffine(module.get());
        auto result =
            runDSE(module.get(), xc7z020(), space_options, options);
        ASSERT_TRUE(result.has_value()) << kernel;
        ASSERT_NE(result->module, nullptr) << kernel;
        EXPECT_TRUE(result->qorVerified) << kernel;
        EXPECT_TRUE(
            hostCompilerAccepts(emitHlsCpp(result->module.get()), kernel))
            << "emitted C++ for the " << kernel << " winner does not compile";
    }

    Compiler compiler(buildLoweredDNN("resnet18", 2));
    ExploreRequest request;
    request.budgetSpec = "vu9p-slr";
    request.space = space_options;
    request.dse = options;
    ASSERT_FALSE(request.validate());
    auto model = compiler.optimizeModel(request);
    ASSERT_TRUE(model.has_value());
    EXPECT_TRUE(model->verified);
    EXPECT_TRUE(hostCompilerAccepts(compiler.emitCpp(), "resnet18"))
        << "emitted C++ for the resnet18 design does not compile";
}

} // namespace
} // namespace scalehls
