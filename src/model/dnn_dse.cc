#include "model/dnn_dse.h"

#include <map>

#include "analysis/loop_analysis.h"
#include "api/scalehls.h"
#include "estimate/qor_estimator.h"
#include "model/graph_builder.h"

namespace scalehls {

std::vector<DNNStage>
collectDNNStages(Operation *lowered)
{
    std::vector<DNNStage> stages;
    Operation *top = getTopFunc(lowered);
    if (!top)
        return stages;

    // A callee called twice from the top cannot carry two different
    // frontier points; count call sites first so duplicates demote to
    // fixed (non-kernel) stages.
    std::map<Operation *, size_t> call_counts;
    for (auto &op : funcBody(top)->ops()) {
        if (!op->is(ops::Call))
            continue;
        Operation *callee =
            lookupFunc(lowered, op->attr(kCallee).getString());
        if (callee)
            ++call_counts[callee];
    }
    for (auto &op : funcBody(top)->ops()) {
        if (!op->is(ops::Call))
            continue;
        DNNStage stage;
        stage.call = op.get();
        stage.callee = lookupFunc(lowered, op->attr(kCallee).getString());
        stage.kernel = stage.callee &&
                       !getLoopBands(stage.callee).empty() &&
                       call_counts[stage.callee] == 1;
        stages.push_back(stage);
    }
    return stages;
}

std::unique_ptr<Operation>
buildLoweredDNN(const std::string &model, int graph_level)
{
    auto module = createModule();
    if (model == "resnet18")
        buildResNet18(module.get());
    else if (model == "vgg16")
        buildVGG16(module.get());
    else if (model == "mobilenet")
        buildMobileNet(module.get());
    else
        return nullptr;
    Compiler compiler(std::move(module));
    // Graph opt + bufferization only: the schedule (tiling, pipelining,
    // partitioning) is the DSE's to assign, so the loop/directive levels
    // of the fixed flow are intentionally NOT applied here.
    compiler.applyGraphOpt(graph_level).lowerToLoops();
    return compiler.takeModule();
}

std::vector<DNNKernel>
extractDNNKernels(Operation *lowered, size_t max_kernels)
{
    std::vector<DNNKernel> kernels;
    for (auto &op : lowered->region(0).front().ops()) {
        if (!op->is(ops::Func) || getLoopBands(op.get()).empty())
            continue;
        if (max_kernels != 0 && kernels.size() >= max_kernels)
            break;
        DNNKernel kernel;
        kernel.name = funcName(op.get());
        kernel.module = buildReducedClone(lowered, op.get());
        Operation *top = getTopFunc(kernel.module.get());
        kernel.numBands = getLoopBands(top).size();
        top->walk([&](Operation *nested) {
            kernel.numAllocs += nested->is(ops::Alloc) ? 1 : 0;
        });
        kernels.push_back(std::move(kernel));
    }
    return kernels;
}

std::vector<DNNKernel>
buildDNNKernelModules(const std::string &model, int graph_level,
                      size_t max_kernels)
{
    auto lowered = buildLoweredDNN(model, graph_level);
    if (!lowered)
        return {};
    return extractDNNKernels(lowered.get(), max_kernels);
}

} // namespace scalehls
