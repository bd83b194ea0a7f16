/** @file Tests for loop and memory analyses. */

#include <gtest/gtest.h>

#include <random>

#include "analysis/buffer_analysis.h"
#include "analysis/memory_analysis.h"
#include "frontend/irgen.h"
#include "model/polybench.h"
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

TEST(LoopAnalysis, BandExtraction)
{
    auto module = affineModule(polybenchSource("gemm", 16));
    Operation *func = getTopFunc(module.get());
    auto bands = getLoopBands(func);
    ASSERT_EQ(bands.size(), 1u);
    EXPECT_EQ(bands[0].size(), 3u);
    EXPECT_FALSE(isPerfectNest(bands[0])); // C[i][j] *= beta in between.
    EXPECT_EQ(loopDepth(bands[0][2]), 2);
    EXPECT_TRUE(containsLoops(bands[0][0]));
    EXPECT_FALSE(containsLoops(bands[0][2]));
}

TEST(LoopAnalysis, MultiBand)
{
    auto module = affineModule(polybenchSource("bicg", 16));
    Operation *func = getTopFunc(module.get());
    auto bands = getLoopBands(func);
    ASSERT_EQ(bands.size(), 2u); // s-init loop + main nest.
    EXPECT_EQ(bands[0].size(), 1u);
    EXPECT_EQ(bands[1].size(), 2u);
}

TEST(LoopAnalysis, TripCounts)
{
    auto module = affineModule(polybenchSource("gemm", 32));
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    for (Operation *loop : band)
        EXPECT_EQ(getTripCount(AffineForOp(loop)), 32);
    EXPECT_EQ(getBandTripCount(band), 32 * 32 * 32);
}

TEST(LoopAnalysis, TriangularWorstCaseTrip)
{
    auto module = affineModule(polybenchSource("syrk", 16));
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    // j-loop: 0 <= j < i+1 with i in [0,15]: worst case 16.
    EXPECT_EQ(getTripCount(AffineForOp(band[1])), 16);
}

TEST(LoopAnalysis, IVRanges)
{
    auto module = affineModule(polybenchSource("trmm", 8));
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    auto i_range = getIVRange(AffineForOp(band[0]).inductionVar());
    ASSERT_TRUE(i_range);
    EXPECT_EQ(*i_range, (std::pair<int64_t, int64_t>{0, 7}));
    // k in [i+1, 8): min 1, max 7.
    auto k_range = getIVRange(AffineForOp(band[2]).inductionVar());
    ASSERT_TRUE(k_range);
    EXPECT_EQ(k_range->first, 1);
    EXPECT_EQ(k_range->second, 7);
}

TEST(MemoryAnalysis, CollectAndNormalize)
{
    auto module = affineModule(polybenchSource("gemm", 16));
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    auto accesses = collectAccesses(band[0], bandIVs(band));
    // C: load+store (beta), load+store (accum); A, B: one load each.
    EXPECT_EQ(accesses.size(), 6u);
    for (const MemAccess &access : accesses)
        EXPECT_TRUE(access.normalized);
    auto groups = groupByMemRef(accesses);
    EXPECT_EQ(groups.size(), 3u);
}

TEST(MemoryAnalysis, PartitionMetricCyclic)
{
    // Two accesses at distance 2 in dim 0 (paper SYRK example):
    // P = 2 / 2 = 1 -> cyclic with factor 2.
    auto module =
        affineModule("void k(float C[16][16]) {\n"
                     "  for (int i = 0; i < 8; i++)\n"
                     "    for (int j = 0; j < 16; j++) {\n"
                     "      C[2 * i][j] = 0.0;\n"
                     "      C[2 * i + 1][j] = 1.0;\n"
                     "    }\n"
                     "}");
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    auto accesses = collectAccesses(band[0], bandIVs(band));
    Value *memref = accesses[0].memref;
    PartitionPlan plan = computePartitionPlan(memref, accesses);
    EXPECT_EQ(plan.kinds[0], PartitionKind::Cyclic);
    EXPECT_EQ(plan.factors[0], 2);
    EXPECT_EQ(plan.kinds[1], PartitionKind::None);
    EXPECT_EQ(plan.totalBanks(), 2);
}

TEST(MemoryAnalysis, PartitionMetricBlock)
{
    // Accesses at distance 8 with only 2 unique indices: P = 2/9 < 1 ->
    // block partition.
    auto module = affineModule("void k(float A[16]) {\n"
                               "  for (int i = 0; i < 8; i++) {\n"
                               "    A[i] = 0.0;\n"
                               "    A[i + 8] = 1.0;\n"
                               "  }\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    auto accesses = collectAccesses(band[0], bandIVs(band));
    PartitionPlan plan =
        computePartitionPlan(accesses[0].memref, accesses);
    EXPECT_EQ(plan.kinds[0], PartitionKind::Block);
    EXPECT_EQ(plan.factors[0], 2);
}

TEST(MemoryAnalysis, PartitionMapRoundTrip)
{
    PartitionPlan plan;
    plan.kinds = {PartitionKind::Cyclic, PartitionKind::None,
                  PartitionKind::Block};
    plan.factors = {4, 1, 2};
    std::vector<int64_t> shape = {16, 8, 10};
    AffineMap map = buildPartitionMap(plan, shape);
    EXPECT_EQ(map.numResults(), 6u);
    PartitionPlan decoded = decodePartitionMap(map, shape);
    EXPECT_EQ(decoded.kinds, plan.kinds);
    EXPECT_EQ(decoded.factors, plan.factors);

    // Bank of element (5, 3, 7): cyclic 5%4=1, none 0, block 7/5=1.
    auto banks = map.evaluate({5, 3, 7});
    EXPECT_EQ(banks[0], 1);
    EXPECT_EQ(banks[1], 0);
    EXPECT_EQ(banks[2], 1);
}

TEST(MemoryAnalysis, TrivialPlanHasNoLayout)
{
    PartitionPlan plan;
    plan.kinds = {PartitionKind::None};
    plan.factors = {1};
    EXPECT_TRUE(plan.isTrivial());
    EXPECT_TRUE(buildPartitionMap(plan, {8}).empty());
}

/** The pairwise definition markPartitionRelevantDims must reproduce. */
void
pairwiseRelevantDims(const std::vector<MemAccess> &group,
                     std::vector<bool> &mask)
{
    const size_t rank = mask.size();
    for (size_t i = 0; i < group.size(); ++i) {
        const MemAccess &a = group[i];
        if (!a.normalized || a.indices.size() != rank)
            continue;
        for (size_t j = i + 1; j < group.size(); ++j) {
            const MemAccess &b = group[j];
            if (!b.normalized || b.indices.size() != rank)
                continue;
            for (unsigned d = 0; d < rank; ++d) {
                auto diff = constantDiff(a.indices[d], b.indices[d]);
                if (diff && *diff != 0)
                    mask[d] = true;
            }
        }
    }
}

TEST(MemoryAnalysis, BucketedRelevanceMatchesPairwiseConstantDiff)
{
    // Seeded random access groups mixing linear subscripts (few
    // coefficients and constants, so buckets collide), non-linear ones
    // (mod, floordiv, symbols), non-normalized accesses and accesses
    // whose subscript count mismatches the rank.
    std::mt19937 rng(20221017);
    auto pick = [&](int n) {
        return static_cast<int>(rng() % static_cast<unsigned>(n));
    };
    auto subscript = [&]() {
        AffineExpr linear = getAffineConstantExpr(pick(3));
        for (unsigned dim = 0; dim < 2; ++dim)
            linear = linear + getAffineDimExpr(dim) * pick(3);
        switch (pick(6)) {
          case 0:
            return affineMod(linear, 4);
          case 1:
            return affineFloorDiv(linear, 2);
          case 2:
            return linear + getAffineSymbolExpr(0);
          default:
            return linear;
        }
    };
    size_t relevant_bits = 0, irrelevant_bits = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        const unsigned rank = 1 + pick(3);
        std::vector<MemAccess> group(pick(12));
        for (MemAccess &access : group) {
            access.normalized = pick(5) != 0;
            unsigned count = rank;
            if (pick(8) == 0)
                count = pick(2) ? rank + 1 : rank - 1;
            for (unsigned d = 0; d < count; ++d)
                access.indices.push_back(subscript());
        }
        std::vector<bool> seed(rank);
        for (unsigned d = 0; d < rank; ++d)
            seed[d] = pick(6) == 0;
        std::vector<bool> expected = seed;
        pairwiseRelevantDims(group, expected);
        std::vector<bool> mask = seed;
        markPartitionRelevantDims(group, mask);
        ASSERT_EQ(mask, expected) << "trial " << trial;
        for (bool bit : mask)
            ++(bit ? relevant_bits : irrelevant_bits);
    }
    // Both verdicts occur often, so the comparison is not vacuous.
    EXPECT_GT(relevant_bits, 500u);
    EXPECT_GT(irrelevant_bits, 500u);
}

TEST(MemoryAnalysis, RecurrenceDetection)
{
    // GEMM: C[i][j] accumulation carried by k (innermost).
    auto module = affineModule(polybenchSource("gemm", 16));
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    auto recurrences = findRecurrences(band);
    ASSERT_FALSE(recurrences.empty());
    bool carried_by_k = false;
    for (const Recurrence &rec : recurrences)
        carried_by_k |= (rec.carriedLevel == 2 && rec.flatDistance == 1);
    EXPECT_TRUE(carried_by_k);
}

TEST(MemoryAnalysis, NoRecurrenceWhenAllDimsUsed)
{
    auto module = affineModule("void k(float A[8][8]) {\n"
                               "  for (int i = 0; i < 8; i++)\n"
                               "    for (int j = 0; j < 8; j++)\n"
                               "      A[i][j] = A[i][j] * 2.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    EXPECT_TRUE(findRecurrences(band).empty());
}

/** Band roots of a function (analysis entry points). */
std::vector<Operation *>
bandRootsOf(Operation *func)
{
    std::vector<Operation *> roots;
    for (auto &band : getLoopBands(func))
        roots.push_back(band.front());
    return roots;
}

TEST(BufferAnalysis, BandLocalAlloc)
{
    // tmp's defs and uses are confined to the single band: band-local,
    // read somewhere, so cleanup keeps it.
    auto module = affineModule("void k(float A[16], float B[16]) {\n"
                               "  float tmp[16];\n"
                               "  for (int i = 0; i < 16; i++) {\n"
                               "    tmp[i] = A[i] * 2.0;\n"
                               "    B[i] = tmp[i] + 1.0;\n"
                               "  }\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    const OwnedBuffer &tmp = info.buffers[0];
    EXPECT_EQ(tmp.ownership, BufferOwnership::BandLocal);
    EXPECT_EQ(tmp.owner, 0);
    EXPECT_TRUE(tmp.kept);
    EXPECT_FALSE(tmp.writeOnly);
    EXPECT_TRUE(info.allOwned);
    EXPECT_TRUE(info.eligible(/*dataflow_top=*/false));
    EXPECT_TRUE(info.eligible(/*dataflow_top=*/true));
}

TEST(BufferAnalysis, WriteOnlyBandLocalAllocIsDead)
{
    // A buffer only ever stored to: still band-local, but cleanup's
    // write-only-buffer elimination erases it (kept == false), which is
    // what the digest note and the composed memory account key off.
    auto module = affineModule("void k(float A[16]) {\n"
                               "  float tmp[16];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    tmp[i] = A[i];\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    EXPECT_EQ(info.buffers[0].ownership, BufferOwnership::BandLocal);
    EXPECT_TRUE(info.buffers[0].writeOnly);
    EXPECT_FALSE(info.buffers[0].kept);
    EXPECT_EQ(info.digestNote(info.buffers[0].memref), "dead");
}

TEST(BufferAnalysis, SingleEdgeDataflowBuffer)
{
    // Producer band stores only, consumer band loads: exactly one
    // producer->consumer dataflow edge — a legal dataflow channel.
    auto module = affineModule("void k(float A[16], float B[16]) {\n"
                               "  float tmp[16];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    tmp[i] = A[i] * 2.0;\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    B[i] = tmp[i] + 1.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    const OwnedBuffer &tmp = info.buffers[0];
    EXPECT_EQ(tmp.ownership, BufferOwnership::DataflowEdge);
    EXPECT_EQ(tmp.owner, 0);
    EXPECT_EQ(tmp.consumer, 1);
    EXPECT_TRUE(tmp.kept);
    EXPECT_EQ(info.digestNote(tmp.memref), "kept");
    EXPECT_TRUE(info.eligible(/*dataflow_top=*/false));
    EXPECT_TRUE(info.eligible(/*dataflow_top=*/true));
}

TEST(BufferAnalysis, MultiConsumerBroadcastChannel)
{
    // One store-only producer band feeding TWO load-only reader bands:
    // a broadcast channel. Legal under a dataflow top (readers cannot
    // write back, so no WAR/WAW hazard crosses the stage overlap).
    auto module = affineModule("void k(float A[16], float B[16],\n"
                               "       float C[16]) {\n"
                               "  float tmp[16];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    tmp[i] = A[i] * 2.0;\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    B[i] = tmp[i] + 1.0;\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    C[i] = tmp[i] * 3.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    const OwnedBuffer &tmp = info.buffers[0];
    EXPECT_EQ(tmp.ownership, BufferOwnership::MultiConsumer);
    EXPECT_EQ(tmp.owner, 0);
    EXPECT_EQ(tmp.bands, (std::vector<int>{0, 1, 2}));
    EXPECT_TRUE(tmp.kept);
    EXPECT_EQ(info.digestNote(tmp.memref), "kept");
    EXPECT_TRUE(info.eligible(/*dataflow_top=*/false));
    EXPECT_TRUE(info.eligible(/*dataflow_top=*/true));
}

TEST(BufferAnalysis, MultiConsumerRequiresReadOnlyReaders)
{
    // A later stage that also WRITES the channel is not a broadcast
    // reader: the buffer degrades to SharedChain, which a dataflow top
    // must reject.
    auto module = affineModule("void k(float A[16], float B[16],\n"
                               "       float C[16]) {\n"
                               "  float tmp[16];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    tmp[i] = A[i] * 2.0;\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    tmp[i] = tmp[i] + B[i];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    C[i] = tmp[i] * 3.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    EXPECT_EQ(info.buffers[0].ownership, BufferOwnership::SharedChain);
    EXPECT_TRUE(info.eligible(/*dataflow_top=*/false));
    EXPECT_FALSE(info.eligible(/*dataflow_top=*/true));
}

TEST(BufferAnalysis, CrossBandSharedBuffer)
{
    // The lowered-DNN chain pattern: init-write, accumulate
    // (read+write), consume (read) across three bands. Owned — cleanup
    // stays band-determined — but NOT a single dataflow edge, so a
    // dataflow top must fall back while a sequential top may compose.
    auto module = affineModule("void k(float A[16], float B[16]) {\n"
                               "  float tmp[16];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    tmp[i] = 0.0;\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    tmp[i] = tmp[i] + A[i];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    B[i] = tmp[i];\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    const OwnedBuffer &tmp = info.buffers[0];
    EXPECT_EQ(tmp.ownership, BufferOwnership::SharedChain);
    EXPECT_EQ(tmp.bands, (std::vector<int>{0, 1, 2}));
    EXPECT_TRUE(tmp.kept);
    EXPECT_TRUE(info.allOwned);
    EXPECT_TRUE(info.eligible(/*dataflow_top=*/false));
    EXPECT_FALSE(info.eligible(/*dataflow_top=*/true));
}

TEST(BufferAnalysis, ReversedTwoBandPairIsNotAnEdge)
{
    // Read-before-write across two bands (an anti-dependence, not a
    // producer->consumer edge) must not classify as DataflowEdge.
    auto module = affineModule("void k(float A[16], float B[16]) {\n"
                               "  float tmp[16];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    B[i] = tmp[i];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    tmp[i] = A[i];\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    EXPECT_EQ(info.buffers[0].ownership, BufferOwnership::SharedChain);
}

TEST(BufferAnalysis, EscapingPointerIneligible)
{
    // Passing the buffer to a call: a non-load/store user escapes
    // band-local reasoning — the function must take the slow path.
    auto module = affineModule("void k(float A[16], float B[16]) {\n"
                               "  float tmp[16];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    tmp[i] = A[i] * 2.0;\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    B[i] = tmp[i] + 1.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    Value *tmp = func->collect(ops::Alloc)[0]->result(0);
    auto bands = getLoopBands(func);
    Block *leaf = AffineForOp(getLoopNest(bands[1][0]).back()).body();
    OpBuilder builder(leaf, leaf->front());
    builder.create(std::string(ops::Call), {}, {tmp},
                   {{kCallee, Attribute(std::string("sink"))}});

    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    EXPECT_EQ(info.buffers[0].ownership, BufferOwnership::Escaping);
    EXPECT_FALSE(info.allOwned);
    EXPECT_FALSE(info.eligible(/*dataflow_top=*/false));
    EXPECT_FALSE(info.eligible(/*dataflow_top=*/true));
}

TEST(BufferAnalysis, FlatScopeUserEscapes)
{
    // A store outside every band (here: a scalar's flat-scope init)
    // also escapes band-local reasoning.
    auto module = affineModule("void k(float A[16]) {\n"
                               "  float s = 3.0;\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    A[i] = A[i] + s;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    EXPECT_EQ(info.buffers[0].ownership, BufferOwnership::Escaping);
    EXPECT_FALSE(info.allOwned);
}

TEST(BufferAnalysis, DeadAllocHasNoOwner)
{
    auto module = affineModule("void k(float A[16]) {\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    A[i] = A[i] * 2.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    Block *body = funcBody(func);
    OpBuilder builder(body, body->back());
    createAlloc(builder, Type::memref({8}, Type::f32()));
    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    EXPECT_EQ(info.buffers[0].ownership, BufferOwnership::Dead);
    EXPECT_FALSE(info.buffers[0].kept);
    EXPECT_TRUE(info.allOwned);
    EXPECT_TRUE(info.eligible(/*dataflow_top=*/true));
}

/** Property: partition factors never exceed the dimension size. */
class PartitionFactorProperty : public ::testing::TestWithParam<int>
{};

TEST_P(PartitionFactorProperty, FactorBounded)
{
    int unroll = GetParam();
    std::ostringstream source;
    source << "void k(float A[8]) {\n  for (int i = 0; i < 8; i += "
           << unroll << ") {\n";
    for (int u = 0; u < unroll; ++u)
        source << "    A[i + " << u << "] = 1.0;\n";
    source << "  }\n}\n";
    auto module = affineModule(source.str());
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    auto accesses = collectAccesses(band[0], bandIVs(band));
    PartitionPlan plan =
        computePartitionPlan(accesses[0].memref, accesses);
    EXPECT_LE(plan.factors[0], 8);
    EXPECT_EQ(plan.factors[0], std::min(unroll, 8));
    if (unroll > 1)
        EXPECT_EQ(plan.kinds[0], PartitionKind::Cyclic);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PartitionFactorProperty,
                         ::testing::Values(1, 2, 4, 8));

} // namespace
} // namespace scalehls
