/** @file Tests for the redundancy-elimination passes: canonicalize, CSE,
 * simplify-affine-if, affine-store-forward, simplify-memref-access. */

#include <gtest/gtest.h>

#include "frontend/irgen.h"
#include "ir/verifier.h"
#include "transform/pass.h"

namespace scalehls {
namespace {

std::unique_ptr<Operation>
affineModule(const std::string &source)
{
    auto module = parseCToModule(source);
    raiseScfToAffine(module.get());
    return module;
}

TEST(Canonicalize, ConstantFolding)
{
    auto module = createModule();
    Operation *func = createFunc(module.get(), "f",
                                 {Type::memref({4}, Type::f32())});
    Block *body = funcBody(func);
    OpBuilder b(body, body->back());
    Operation *c2 = createConstantIndex(b, 2);
    Operation *c3 = createConstantIndex(b, 3);
    Operation *sum =
        createBinary(b, ops::AddI, c2->result(0), c3->result(0));
    Operation *store = createMemStore(
        b, createConstantFloat(b, 1.0, Type::f32())->result(0),
        body->argument(0), {sum->result(0)});

    applyCanonicalize(func);
    // The add folded into a constant 5 feeding the store.
    auto c = getConstantIntValue(store->operand(2));
    ASSERT_TRUE(c);
    EXPECT_EQ(*c, 5);
    EXPECT_TRUE(func->collect(ops::AddI).empty());
}

TEST(Canonicalize, DeadCodeElimination)
{
    auto module = affineModule(
        "void k(float A[4]) { float unused = A[0] * 2.0; A[1] = 1.0; }");
    Operation *func = getTopFunc(module.get());
    applyAffineStoreForward(func); // Removes the dead scalar buffer.
    applyCanonicalize(func);
    // The unused load+mul chain is gone.
    EXPECT_TRUE(func->collect(ops::MulF).empty());
    EXPECT_EQ(func->collect(ops::Alloc).size(), 0u);
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(Canonicalize, EmptyLoopErased)
{
    auto module = affineModule(
        "void k(float A[4]) { for (int i = 0; i < 4; i++) { float t = "
        "A[i]; } }");
    Operation *func = getTopFunc(module.get());
    applyAffineStoreForward(func);
    applyCanonicalize(func);
    EXPECT_TRUE(func->collect(ops::AffineFor).empty());
}

TEST(CSE, DeduplicatesPureOps)
{
    auto module = createModule();
    Operation *func = createFunc(module.get(), "f", {Type::f32()});
    Block *body = funcBody(func);
    OpBuilder b(body, body->back());
    Value *arg = body->argument(0);
    Operation *m1 = createBinary(b, ops::MulF, arg, arg);
    Operation *m2 = createBinary(b, ops::MulF, arg, arg);
    Operation *sum =
        createBinary(b, ops::AddF, m1->result(0), m2->result(0));

    EXPECT_TRUE(applyCSE(func));
    EXPECT_EQ(sum->operand(0), sum->operand(1));
    EXPECT_EQ(func->collect(ops::MulF).size(), 1u);
}

TEST(CSE, KeepsDifferentBlocksApart)
{
    auto module = affineModule("void k(float A[4], float B[4]) {\n"
                               "  for (int i = 0; i < 4; i++)\n"
                               "    A[i] = 2.0 * 3.0;\n"
                               "  for (int i = 0; i < 4; i++)\n"
                               "    B[i] = 2.0 * 3.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    applyCanonicalize(func);
    applyCSE(func);
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(SimplifyAffineIf, AlwaysTrueInlined)
{
    auto module = affineModule("void k(float A[8]) {\n"
                               "  for (int i = 0; i < 8; i++)\n"
                               "    if (i >= 0) A[i] = 1.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    EXPECT_TRUE(applySimplifyAffineIf(func));
    EXPECT_TRUE(func->collect(ops::AffineIf).empty());
    EXPECT_EQ(func->collect(ops::AffineStore).size(), 1u);
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(SimplifyAffineIf, AlwaysFalseRemoved)
{
    auto module = affineModule("void k(float A[8]) {\n"
                               "  for (int i = 0; i < 8; i++)\n"
                               "    if (i >= 8) A[i] = 1.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    EXPECT_TRUE(applySimplifyAffineIf(func));
    applyCanonicalize(func);
    EXPECT_TRUE(func->collect(ops::AffineStore).empty());
}

TEST(SimplifyAffineIf, ElseBranchPromoted)
{
    auto module = affineModule("void k(float A[8]) {\n"
                               "  for (int i = 0; i < 8; i++) {\n"
                               "    if (i < 0) { A[i] = 1.0; }\n"
                               "    else { A[i] = 2.0; }\n"
                               "  }\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    EXPECT_TRUE(applySimplifyAffineIf(func));
    EXPECT_TRUE(func->collect(ops::AffineIf).empty());
    ASSERT_EQ(func->collect(ops::AffineStore).size(), 1u);
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(SimplifyAffineIf, KeepsUnknown)
{
    auto module = affineModule("void k(float A[8]) {\n"
                               "  for (int i = 0; i < 8; i++)\n"
                               "    if (i >= 4) A[i] = 1.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    EXPECT_FALSE(applySimplifyAffineIf(func));
    EXPECT_EQ(func->collect(ops::AffineIf).size(), 1u);
}

TEST(SimplifyAffineIf, AlwaysFalseOuterDropsNestedIfs)
{
    // The inner ifs are simplified first (one inlined, one kept), then the
    // outer if, which has no else, is erased together with them.
    auto module = affineModule("void k(float A[8]) {\n"
                               "  for (int i = 0; i < 8; i++)\n"
                               "    if (i >= 8) {\n"
                               "      if (i >= 4) A[i] = 1.0;\n"
                               "      if (i >= 0) A[i] = 2.0;\n"
                               "    }\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    EXPECT_TRUE(applySimplifyAffineIf(func));
    EXPECT_TRUE(func->collect(ops::AffineIf).empty());
    EXPECT_TRUE(func->collect(ops::AffineStore).empty());
    EXPECT_TRUE(verifyOk(module.get()));
    EXPECT_FALSE(applySimplifyAffineIf(func));
}

TEST(SimplifyAffineIf, AlwaysTrueOuterAndInnerBothInlined)
{
    auto module = affineModule("void k(float A[8]) {\n"
                               "  for (int i = 0; i < 8; i++)\n"
                               "    if (i >= 0) {\n"
                               "      if (i < 8) A[i] = 1.0;\n"
                               "    }\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    EXPECT_TRUE(applySimplifyAffineIf(func));
    EXPECT_TRUE(func->collect(ops::AffineIf).empty());
    auto stores = func->collect(ops::AffineStore);
    ASSERT_EQ(stores.size(), 1u);
    EXPECT_TRUE(isa(stores[0]->parentOp(), ops::AffineFor));
    EXPECT_TRUE(verifyOk(module.get()));
    EXPECT_FALSE(applySimplifyAffineIf(func));
}

TEST(SimplifyAffineIf, OnePassReachesTheFixpoint)
{
    // A kept outer if with a redundant constraint around an inlined inner
    // if and an unknown one: one call does all of it, a second finds
    // nothing.
    auto module = affineModule("void k(float A[8]) {\n"
                               "  for (int i = 0; i < 8; i++)\n"
                               "    if (i >= 2) {\n"
                               "      if (i < 8) A[i] = 1.0;\n"
                               "      if (i >= 5) A[i] = 2.0;\n"
                               "    }\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    ASSERT_EQ(func->collect(ops::AffineIf).size(), 3u);
    // Add i < 100, as 97 - (i - 2) >= 0 over the same operands.
    AffineIfOp outer(func->collect(ops::AffineIf)[0]);
    IntegerSet cond = outer.condition();
    ASSERT_EQ(cond.numConstraints(), 1u);
    AffineExpr lower = cond.constraint(0);
    AffineExpr upper = getAffineConstantExpr(97) - lower;
    IntegerSet redundant(cond.numDims(), {lower, upper}, {false, false});
    outer.setCondition(redundant);
    EXPECT_TRUE(applySimplifyAffineIf(func));
    EXPECT_EQ(outer.condition().numConstraints(), 1u);
    EXPECT_EQ(func->collect(ops::AffineIf).size(), 2u);
    EXPECT_EQ(func->collect(ops::AffineStore).size(), 2u);
    EXPECT_TRUE(verifyOk(module.get()));
    EXPECT_FALSE(applySimplifyAffineIf(func));
}

TEST(StoreForward, ForwardsStoredValue)
{
    auto module = affineModule(
        "void k(float A[4], float B[4]) {\n"
        "  float t = 0.0;\n"
        "  t = A[0];\n"
        "  B[0] = t;\n"
        "}");
    Operation *func = getTopFunc(module.get());
    EXPECT_TRUE(applyAffineStoreForward(func));
    applyCanonicalize(func);
    // The scalar buffer round trip is gone: B[0] = A[0] directly.
    EXPECT_EQ(func->collect(ops::Alloc).size(), 0u);
    EXPECT_EQ(func->collect(ops::AffineLoad).size(), 1u);
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(StoreForward, DeadStoreEliminated)
{
    auto module = affineModule("void k(float A[4]) {\n"
                               "  A[0] = 1.0;\n"
                               "  A[0] = 2.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    EXPECT_TRUE(applyAffineStoreForward(func));
    EXPECT_EQ(func->collect(ops::AffineStore).size(), 1u);
}

TEST(StoreForward, InterveningLoadBlocksDSE)
{
    auto module = affineModule("void k(float A[4], float B[4]) {\n"
                               "  A[0] = 1.0;\n"
                               "  B[0] = A[0];\n"
                               "  A[0] = 2.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    applyAffineStoreForward(func);
    // The load is forwarded (B[0] receives the constant), after which the
    // first store to A is dead and only the final stores remain.
    EXPECT_EQ(func->collect(ops::AffineStore).size(), 2u);
    EXPECT_TRUE(func->collect(ops::AffineLoad).empty());
}

TEST(SimplifyMemrefAccess, FoldsDuplicateLoads)
{
    auto module = affineModule("void k(float A[4], float B[4]) {\n"
                               "  B[0] = A[1] + A[1];\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    ASSERT_EQ(func->collect(ops::AffineLoad).size(), 2u);
    EXPECT_TRUE(applySimplifyMemrefAccess(func));
    EXPECT_EQ(func->collect(ops::AffineLoad).size(), 1u);
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(SimplifyMemrefAccess, StoreInvalidates)
{
    auto module = affineModule("void k(float A[4], float B[4]) {\n"
                               "  B[0] = A[1];\n"
                               "  A[1] = 5.0;\n"
                               "  B[1] = A[1];\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    EXPECT_FALSE(applySimplifyMemrefAccess(func));
    EXPECT_EQ(func->collect(ops::AffineLoad).size(), 2u);
}

} // namespace
} // namespace scalehls
