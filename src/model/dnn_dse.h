/**
 * @file
 * DNN design-space hookup: lower a model-zoo network through the
 * graph-level flow (dataflow legalization, function splitting,
 * bufferization) and extract each kernel function — the alloc-carrying
 * dataflow stages the per-kernel DSE explores — as a standalone module a
 * DesignSpace can be built on. This is the bridge between the paper's
 * Section VII-B multi-level flow and the band-incremental DSE machinery;
 * bench_estimator --dnn and the DNN plan-first tests both drive it.
 */

#ifndef SCALEHLS_MODEL_DNN_DSE_H
#define SCALEHLS_MODEL_DNN_DSE_H

#include <memory>
#include <string>
#include <vector>

#include "dialect/ops.h"

namespace scalehls {

/** One extracted DSE kernel: the stage function (marked top) plus its
 * transitive callee closure, cloned into a standalone module. */
struct DNNKernel
{
    std::string name;
    std::unique_ptr<Operation> module;
    size_t numBands = 0;
    size_t numAllocs = 0;
};

/** One call of the lowered model's dataflow top, in body order — the
 * unit the whole-model allocator assigns one frontier point to. */
struct DNNStage
{
    Operation *call = nullptr;   ///< The call op in the top's body.
    Operation *callee = nullptr; ///< The stage function it invokes.
    /** True when the stage is explorable per-kernel DSE territory: the
     * callee carries at least one loop band AND is called exactly once
     * from the top (a callee shared by several calls cannot take two
     * different frontier points at once, so it stays at its baseline). */
    bool kernel = false;
};

/** The dataflow stages of @p lowered's top function, in body order.
 * Empty when there is no top function. */
std::vector<DNNStage> collectDNNStages(Operation *lowered);

/** Build @p model ("resnet18", "vgg16" or "mobilenet"), lower it at
 * graph level @p graph_level, and return the whole lowered module. At
 * mid levels (e.g. 4) each dataflow stage spans several layers, so the
 * stage functions carry the intermediate feature maps as LOCAL allocs in
 * the init-write / accumulate / consume chain pattern the
 * buffer-ownership analysis classifies. */
std::unique_ptr<Operation> buildLoweredDNN(const std::string &model,
                                           int graph_level);

/** Extract every kernel function (at least one loop band) of
 * @p lowered as a standalone module, in module function order.
 * @p max_kernels bounds the count (0 = all). */
std::vector<DNNKernel> extractDNNKernels(Operation *lowered,
                                         size_t max_kernels = 0);

/** Convenience: buildLoweredDNN + extractDNNKernels. */
std::vector<DNNKernel> buildDNNKernelModules(const std::string &model,
                                             int graph_level,
                                             size_t max_kernels = 0);

} // namespace scalehls

#endif // SCALEHLS_MODEL_DNN_DSE_H
