#include "api/scalehls.h"

#include "analysis/loop_analysis.h"
#include "model/dnn_dse.h"
#include "support/thread_pool.h"
#include "support/utils.h"

namespace scalehls {

namespace {

constexpr size_t kNoIndex = static_cast<size_t>(-1);

/** @p options with one estimate cache spanning the whole call: the
 * caller's injected sharedEstimates, else @p local. The per-point module
 * clones share all non-target functions verbatim (and often the callee
 * subtrees of the targets), so content-keyed estimates transfer across
 * kernels and workers alike. */
DSEOptions
withSharedCache(DSEOptions options, EstimateCache &local)
{
    if (!options.sharedEstimates) {
        options.applyCacheBounds(local);
        options.sharedEstimates = &local;
    }
    return options;
}

/** One kernel's live exploration: the reduced clone, the design space
 * and engine built on it — kept alive so ANY frontier point can later be
 * re-materialized cheaply through the still-warm plan/schedule caches
 * (DSEEngine::materializeEvaluated) — plus the frontier itself, raw and
 * retained. */
struct KernelExploration
{
    std::unique_ptr<Operation> sub;
    std::unique_ptr<DesignSpace> space;
    std::unique_ptr<DSEEngine> engine;
    /** explore() result, ascending latency. */
    std::vector<EvaluatedPoint> frontier;
    /** The same frontier with decoded schedules and full QoR. */
    std::vector<FrontierPoint> retained;
};

/** The per-kernel stage shared by optimizeFunctions and optimizeModel:
 * explore every function of @p kernels concurrently, each on its own
 * reduced clone of @p module (never mutated). Every kernel and its
 * engine's batches share @p pool, which must outlive the engines. Module
 * retention is scoped to @p retain_budget. Results come back in
 * @p kernels order. */
std::vector<KernelExploration>
exploreKernels(Operation *module, const std::vector<Operation *> &kernels,
               const ResourceBudget &retain_budget,
               const DesignSpaceOptions &space_options,
               const DSEOptions &options, ThreadPool &pool)
{
    std::vector<KernelExploration> explorations(kernels.size());
    pool.parallelFor(kernels.size(), [&](size_t k) {
        KernelExploration &e = explorations[k];
        e.sub = buildReducedClone(module, kernels[k]);
        e.space = std::make_unique<DesignSpace>(e.sub.get(), space_options);
        e.engine = std::make_unique<DSEEngine>(*e.space, options, &pool);
        e.engine->setFinalizeBudget(retain_budget);
        e.frontier = e.engine->explore();
        e.retained = retainFrontier(*e.space, e.frontier);
    });
    return explorations;
}

/** Replace @p original in @p module, in place, by the top function of
 * @p optimized (a reduced clone's materialized winner), marked top iff
 * @p top. False, leaving @p module untouched, when there is no winner. */
bool
spliceWinner(Operation *module, Operation *original,
             std::unique_ptr<Operation> optimized, bool top)
{
    Operation *winner = optimized ? getTopFunc(optimized.get()) : nullptr;
    if (!winner)
        return false;
    auto taken = optimized->region(0).front().take(winner);
    setTopFunc(taken.get(), top);
    Block &body = module->region(0).front();
    body.insertBefore(original, std::move(taken));
    body.erase(original);
    return true;
}

} // namespace

Compiler::Compiler(std::unique_ptr<Operation> module)
    : module_(std::move(module))
{}

Compiler
Compiler::fromC(const std::string &source, const std::string &top_func)
{
    Compiler compiler(parseCToModule(source, top_func));
    compiler.timed([&] { raiseScfToAffine(compiler.module()); });
    return compiler;
}

Compiler &
Compiler::applyGraphOpt(int level)
{
    level = std::clamp(level, 1, 7);
    timed([&] {
        bool insert_copy = level >= 4;
        std::vector<Operation *> funcs;
        for (auto &op : module_->region(0).front().ops())
            if (op->is(ops::Func))
                funcs.push_back(op.get());
        for (Operation *func : funcs) {
            if (!applyLegalizeDataflow(func, insert_copy))
                continue;
            // Count stages, then choose the granularity: level n targets
            // min(stages, 2^(n-1)) dataflow stages.
            int64_t num_stages = 0;
            for (auto &op : funcBody(func)->ops()) {
                Attribute stage = op->attr(kDataflowStage);
                if (stage.is<int64_t>())
                    num_stages =
                        std::max(num_stages, stage.getInt() + 1);
            }
            int64_t target =
                std::min<int64_t>(num_stages, int64_t(1) << (level - 1));
            int64_t min_gran = ceilDiv(num_stages, std::max<int64_t>(
                                                       1, target));
            if (!applySplitFunction(module_.get(), func, min_gran)) {
                // A single stage has no inter-stage overlap: drop the
                // dataflow directive so the QoR reflects reality.
                FuncDirective fd = getFuncDirective(func);
                fd.dataflow = false;
                setFuncDirective(func, fd);
            }
        }
    });
    return *this;
}

Compiler &
Compiler::lowerToLoops()
{
    timed([&] { lowerGraphToAffine(module_.get()); });
    return *this;
}

Compiler &
Compiler::applyLoopOpt(int level)
{
    level = std::clamp(level, 1, 7);
    int64_t factor = int64_t(1) << (level - 1);
    timed([&] {
        module_->walk([&](Operation *op) {
            if (!op->is(ops::Func))
                return;
            for (auto &band_loops : getLoopBands(op)) {
                std::vector<Operation *> band = band_loops;
                // Push recurrence-carrying (reduction) loops outward so
                // the pipelined II is not bound by the accumulator.
                applyLoopOrderOpt(band);
                band = getLoopNest(band.front());
                // Distribute the unroll factor as tile sizes, preferring
                // dims that appear in store subscripts (output-parallel
                // dims): unrolling reduction dims only serializes on the
                // accumulator's write port. Pipelining (the D step) fully
                // unrolls the generated point loops.
                std::vector<bool> parallel(band.size(), false);
                for (const MemAccess &access :
                     collectAccesses(band.front(), bandIVs(band))) {
                    if (!access.isWrite || !access.normalized)
                        continue;
                    for (unsigned level = 0; level < band.size(); ++level)
                        for (const auto &expr : access.indices)
                            if (expr.involvesDim(level))
                                parallel[level] = true;
                }
                std::vector<int64_t> sizes(band.size(), 1);
                int64_t remaining = factor;
                for (int pass = 0; pass < 2 && remaining > 1; ++pass) {
                    bool want_parallel = (pass == 0);
                    for (int i = static_cast<int>(band.size()) - 1;
                         i >= 0 && remaining > 1; --i) {
                        if (parallel[i] != want_parallel || sizes[i] > 1)
                            continue;
                        int64_t trip =
                            getTripCount(AffineForOp(band[i]))
                                .value_or(1);
                        sizes[i] = std::min(remaining, trip);
                        remaining = std::max<int64_t>(
                            1,
                            remaining / std::max<int64_t>(1, sizes[i]));
                    }
                }
                applyLoopTiling(band, sizes);
            }
        });
    });
    return *this;
}

Compiler &
Compiler::applyDirectiveOpt(int64_t target_ii)
{
    timed([&] {
        std::vector<Operation *> funcs;
        for (auto &op : module_->region(0).front().ops())
            if (op->is(ops::Func))
                funcs.push_back(op.get());
        for (Operation *func : funcs) {
            for (auto &band : getLoopBands(func)) {
                // Pipeline the innermost tile loop; intra-tile (point)
                // loops below it get fully unrolled by the legalization.
                Operation *target = band.back();
                for (auto it = band.rbegin(); it != band.rend(); ++it) {
                    if (!(*it)->attr(kPointLoop).is<bool>()) {
                        target = *it;
                        break;
                    }
                }
                applyLoopPipelining(target, target_ii);
            }
        }
    });
    applySimplifications();
    timed([&] {
        Operation *top = getTopFunc(module_.get());
        if (top)
            applyArrayPartition(top);
    });
    return *this;
}

Compiler &
Compiler::applySimplifications()
{
    timed([&] { applyRedundancyElimination(module_.get()); });
    return *this;
}

std::optional<DSEResult>
Compiler::optimize(const ExploreRequest &request)
{
    auto result =
        runDSE(module_.get(), request.budget, request.space, request.dse);
    if (result) {
        module_ = result->module->clone();
        opt_seconds_ += result->seconds;
    }
    return result;
}

std::vector<Compiler::FuncDSEResult>
Compiler::optimizeFunctions(const ExploreRequest &request)
{
    // The kernels: every function with at least one loop band.
    std::vector<Operation *> kernels;
    for (auto &op : module_->region(0).front().ops())
        if (op->is(ops::Func) && !getLoopBands(op.get()).empty())
            kernels.push_back(op.get());
    if (kernels.empty())
        return {};

    // Split the device budget evenly across kernels; each kernel's DSE
    // finalizes against its share.
    ResourceBudget share = request.budget;
    auto n = static_cast<int64_t>(kernels.size());
    share.dsp /= n;
    share.lut /= n;
    share.memoryBits /= n;

    auto start = std::chrono::steady_clock::now();
    // Declared before the explorations, whose engines borrow it.
    ThreadPool pool(request.dse.numThreads);
    EstimateCache local_estimates;
    std::vector<KernelExploration> explorations = exploreKernels(
        module_.get(), kernels, share, request.space,
        withSharedCache(request.dse, local_estimates), pool);

    // Finalize and splice the winners back sequentially, in module
    // function order, so the resulting module is deterministic.
    std::vector<FuncDSEResult> results(kernels.size());
    for (size_t i = 0; i < kernels.size(); ++i) {
        KernelExploration &e = explorations[i];
        FuncDSEResult &out = results[i];
        out.func = funcName(kernels[i]);
        // A default QoRResult claims feasibility; failed kernels must
        // carry the infeasible sentinel instead.
        out.qor.feasible = false;
        out.qor.latency = kInfeasibleQoR;
        out.qor.interval = kInfeasibleQoR;
        out.frontier = e.retained;
        out.stats = e.engine->stats();
        auto chosen = DSEEngine::finalize(e.frontier, share);
        if (!chosen)
            continue;
        auto module = e.engine->materializeEvaluated(*chosen);
        // On (release-build) re-estimation divergence, keep the QoR
        // consistent with the module actually spliced in.
        QoRResult qor = e.engine->qorVerified() ? chosen->qor
                                                : e.engine->verifiedQoR();
        if (!spliceWinner(module_.get(), kernels[i], std::move(module),
                          isTopFunc(kernels[i])))
            continue;
        out.point = chosen->point;
        out.qor = qor;
    }
    opt_seconds_ += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    return results;
}

std::optional<Compiler::ModelDSEResult>
Compiler::optimizeModel(const ExploreRequest &request)
{
    const ResourceBudget &budget = request.budget;
    const DesignSpaceOptions &space_options = request.space;
    const DSEOptions &options = request.dse;
    auto start = std::chrono::steady_clock::now();
    Operation *top = getTopFunc(module_.get());
    if (!top || !getFuncDirective(top).dataflow)
        return std::nullopt;
    std::vector<DNNStage> stages = collectDNNStages(module_.get());
    if (stages.empty())
        return std::nullopt;
    size_t n = stages.size();

    ModelDSEResult out;

    // One estimate cache spans the baseline estimation, every kernel
    // exploration and the final re-measurement, so the closing
    // estimateModule resolves mostly from content-keyed entries the
    // exploration already paid for.
    EstimateCache local_estimates;
    DSEOptions inner = withSharedCache(options, local_estimates);
    EstimateCache *shared = inner.sharedEstimates;

    // The call's one pool: estimates, kernels and batches all run on
    // it. Declared before the explorations, whose engines borrow it.
    ThreadPool pool(options.numThreads);

    // Baseline estimates of the whole module and of each stage callee.
    // The top's glue latency (the +2 epilogue plus any non-call body
    // ops) and its fixed resources (double-buffered channel buffers,
    // control logic) are derived by SUBTRACTION, so the composed
    // prediction mirrors the estimator's dataflow composition exactly
    // rather than approximating it.
    QoREstimator baseline(module_.get(), &pool, shared,
                          options.bandLevelCache,
                          options.partitionAwareBandKeys);
    QoRResult m0 = baseline.estimateModule();
    std::vector<QoRResult> base(n);
    int64_t glue = m0.latency;
    ResourceUsage fixed = m0.resources;
    for (size_t i = 0; i < n; ++i) {
        if (stages[i].callee)
            base[i] = baseline.estimateFunc(stages[i].callee);
        else
            base[i].feasible = false;
        if (!base[i].feasible) {
            base[i].latency = kInfeasibleQoR;
            base[i].interval = kInfeasibleQoR;
            continue; // Poisons the allocation below; glue is moot.
        }
        glue -= base[i].latency + 1; // The call-site overhead cycle.
        fixed.dsp -= base[i].resources.dsp;
        fixed.lut -= base[i].resources.lut;
        fixed.bram18k -= base[i].resources.bram18k;
        fixed.memoryBits -= base[i].resources.memoryBits;
    }
    glue = std::max<int64_t>(0, glue);

    // The per-kernel stage (shared with optimizeFunctions): explore
    // every kernel stage concurrently, retaining full frontiers. Module
    // retention is scoped to the WHOLE device budget — under global
    // allocation any design fitting the device could be chosen.
    std::vector<size_t> kernel_of_stage(n, kNoIndex);
    std::vector<Operation *> kernel_funcs;
    std::vector<size_t> stage_of_kernel;
    for (size_t i = 0; i < n; ++i) {
        if (!stages[i].kernel)
            continue;
        kernel_of_stage[i] = kernel_funcs.size();
        kernel_funcs.push_back(stages[i].callee);
        stage_of_kernel.push_back(i);
    }
    std::vector<KernelExploration> explorations = exploreKernels(
        module_.get(), kernel_funcs, budget, space_options, inner, pool);

    // Stage frontiers as seen from the top: candidate latencies carry
    // the +1 call overhead; fixed (non-kernel) stages get exactly their
    // baseline design.
    std::vector<StageFrontier> frontiers(n);
    for (size_t i = 0; i < n; ++i) {
        StageFrontier &frontier = frontiers[i];
        frontier.name =
            stages[i].callee ? funcName(stages[i].callee) : std::string();
        auto push = [&](const QoRResult &qor) {
            StageCandidate c;
            c.feasible = qor.feasible;
            c.latency = qor.feasible ? addQoRSaturating(qor.latency, 1)
                                     : kInfeasibleQoR;
            c.resources = qor.resources;
            frontier.candidates.push_back(c);
        };
        size_t k = kernel_of_stage[i];
        if (k != kNoIndex && !explorations[k].retained.empty()) {
            for (const FrontierPoint &fp : explorations[k].retained)
                push(fp.qor);
        } else {
            kernel_of_stage[i] = kNoIndex; // Keep the baseline design.
            push(base[i]);
        }
    }

    out.allocation = allocateGlobalBudget(frontiers, budget, fixed);
    out.uniform = allocateUniformSplit(frontiers, budget, fixed);

    out.stages.resize(n);
    for (size_t i = 0; i < n; ++i) {
        ModelStageResult &stage = out.stages[i];
        stage.func = frontiers[i].name;
        stage.kernel = kernel_of_stage[i] != kNoIndex;
        stage.qor = base[i];
        if (stage.kernel) {
            const KernelExploration &e =
                explorations[kernel_of_stage[i]];
            stage.frontier = e.retained;
            stage.evaluations = e.engine->numEvaluations();
            out.evaluations += stage.evaluations;
        }
        if (out.allocation.feasible) {
            stage.chosen = out.allocation.choice[i];
            if (stage.kernel && stage.chosen < stage.frontier.size())
                stage.qor = stage.frontier[stage.chosen].qor;
        }
    }

    if (!out.allocation.feasible) {
        // No budget-feasible composition: poison the prediction and
        // leave the module untouched.
        out.composed.feasible = false;
        out.composed.latency = kInfeasibleQoR;
        out.composed.interval = kInfeasibleQoR;
        out.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        opt_seconds_ += out.seconds;
        return out;
    }

    out.composed =
        composeDataflowQoR(frontiers, out.allocation.choice, glue, fixed);

    // Stitch the chosen frontier designs back into the model, replacing
    // each kernel stage function in place (deterministic module order:
    // stage_of_kernel is ascending).
    bool stage_qor_ok = true;
    for (size_t k = 0; k < kernel_funcs.size(); ++k) {
        size_t i = stage_of_kernel[k];
        if (kernel_of_stage[i] == kNoIndex)
            continue; // Demoted to its baseline design above.
        KernelExploration &e = explorations[k];
        auto optimized = e.engine->materializeEvaluated(
            e.frontier[out.allocation.choice[i]]);
        stage_qor_ok &= e.engine->qorVerified();
        // Stage functions are never the module top (the dataflow top
        // is).
        stage_qor_ok &= spliceWinner(module_.get(), stages[i].callee,
                                     std::move(optimized), false);
    }

    // Re-verify the composed module: the IR verifier at the -verify-each
    // level (L1 structural + L2 dialect), then the real estimator. The
    // measured QoR is authoritative — the composed prediction is only
    // trusted when it matches bit-identically.
    auto errors = verifyErrors(module_.get());
    QoREstimator measure(module_.get(), &pool, shared,
                         options.bandLevelCache,
                         options.partitionAwareBandKeys);
    out.measured = measure.estimateModule();
    out.composedVerified = out.measured == out.composed;
    out.verified = errors.empty() && stage_qor_ok;
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    opt_seconds_ += out.seconds;
    return out;
}

QoRResult
Compiler::estimate()
{
    QoREstimator estimator(module_.get());
    return estimator.estimateModule();
}

SynthesisReport
Compiler::synthesize(const ResourceBudget &budget)
{
    VirtualSynthesizer synthesizer(module_.get(), budget);
    return synthesizer.synthesize();
}

} // namespace scalehls
