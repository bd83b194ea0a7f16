#include "dse/dse_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>

#include "dse/pareto.h"

namespace scalehls {

std::vector<EvaluatedPoint>
DSEEngine::explore()
{
    evaluated_.clear();
    std::mt19937 rng(options_.seed);

    if (!pool_) {
        owned_pool_ = std::make_unique<ThreadPool>(options_.numThreads);
        pool_ = owned_pool_.get();
    }
    // Cross-point estimate cache: external if supplied, per-exploration
    // otherwise. Content-keyed, so it never changes results — only how
    // often the estimator re-walks identical IR.
    EstimateCache *estimates = options_.sharedEstimates;
    local_estimates_.reset();
    if (!estimates) {
        local_estimates_ = std::make_unique<EstimateCache>();
        options_.applyCacheBounds(*local_estimates_);
        estimates = local_estimates_.get();
    }
    estimates_in_use_ = estimates;

    EvaluatorOptions evaluator_options;
    evaluator_options.bandCache = options_.bandLevelCache;
    evaluator_options.partitionAwareKeys =
        options_.partitionAwareBandKeys;
    evaluator_options.audit = options_.auditMode;
    CachingEvaluator evaluator(space_, pool_, estimates, evaluator_options);
    SearchContext ctx(space_, evaluator, evaluated_, options_.batchSize);

    // Step 1: initial sampling, evaluated as one parallel batch. The
    // canonical seeds (the baseline schedule under each legalization
    // switch) guarantee a feasible frontier for the neighbor traversal
    // even when random tiles are mostly illegal.
    for (const DesignSpace::Point &seed : space_.canonicalSeedPoints())
        ctx.propose(seed);
    for (unsigned i = 0; i < options_.numInitialSamples; ++i)
        ctx.propose(space_.randomPoint(rng));
    ctx.flush();

    SearchStrategy::create(options_.strategy)
        ->run(ctx, rng, options_.maxIterations);

    stats_ = evaluator.stats();
    assert(stats_.evaluations == evaluated_.size());

    // Return the frontier sorted by latency. frontierIndices is already
    // ascending (latency, area, index); stable_sort keeps tie groups in
    // that deterministic order on every stdlib (an unstable sort could
    // scramble equal-latency members and change which one finalize()
    // picks first).
    std::vector<EvaluatedPoint> result;
    for (size_t idx : ctx.frontierIndices())
        result.push_back(evaluated_[idx]);
    std::stable_sort(result.begin(), result.end(),
                     [](const EvaluatedPoint &a, const EvaluatedPoint &b) {
                         return a.qor.latency < b.qor.latency;
                     });
    return result;
}

void
DSEOptions::applyCacheBounds(EstimateCache &cache) const
{
    if (estimateCacheTierCaps.any())
        cache.setTierMaxEntries(estimateCacheTierCaps);
}

std::vector<FrontierPoint>
retainFrontier(const DesignSpace &space,
               const std::vector<EvaluatedPoint> &frontier)
{
    std::vector<FrontierPoint> retained;
    retained.reserve(frontier.size());
    for (const EvaluatedPoint &e : frontier) {
        FrontierPoint fp;
        fp.point = e.point;
        fp.bands = space.decode(e.point).bands;
        fp.qor = e.qor;
        retained.push_back(std::move(fp));
    }
    return retained;
}

std::optional<EvaluatedPoint>
DSEEngine::finalize(const std::vector<EvaluatedPoint> &frontier,
                    const ResourceBudget &budget)
{
    // Step 5: ascending latency, first point meeting the constraints.
    for (const EvaluatedPoint &e : frontier)
        if (e.qor.feasible && e.qor.fits(budget))
            return e;
    return std::nullopt;
}

std::unique_ptr<Operation>
DSEEngine::materializeEvaluated(const EvaluatedPoint &chosen)
{
    qor_verified_ = false;
    std::unique_ptr<Operation> module = space_.materialize(chosen.point);
    if (!module)
        return nullptr;

    // Re-estimate against the still-warm content-keyed caches (a
    // function-tier hit makes this a digest + lookup, not a walk) and
    // check the module really carries the QoR the frontier promised —
    // this also end-to-end-verifies any plan-first composition that fed
    // the chosen point's recorded result.
    QoREstimator estimator(module.get(), pool_, estimates_in_use_,
                           options_.bandLevelCache,
                           options_.partitionAwareBandKeys);
    QoRResult check = estimator.estimateModule();
    if (!check.feasible) {
        check.latency = kInfeasibleQoR;
        check.interval = kInfeasibleQoR;
    }
    qor_verified_ = check == chosen.qor;
    // On divergence the re-estimated QoR is the one consistent with the
    // module being returned; callers (runDSE) adopt it over the recorded
    // value so result.module and result.qor can never disagree.
    verified_qor_ = check;
    assert(qor_verified_ &&
           "materialized module diverged from the recorded QoR");
    return module;
}

std::optional<DSEResult>
runDSE(Operation *module, const ResourceBudget &budget,
       DesignSpaceOptions space_options, DSEOptions options)
{
    auto start = std::chrono::steady_clock::now();
    DesignSpace space(module, space_options);
    DSEEngine engine(space, options);
    auto frontier = engine.explore();
    auto chosen = DSEEngine::finalize(frontier, budget);
    if (!chosen)
        return std::nullopt;

    DSEResult result;
    result.point = chosen->point;
    result.qor = chosen->qor;
    result.frontier = retainFrontier(space, frontier);
    result.module = engine.materializeEvaluated(*chosen);
    if (result.module && !engine.qorVerified()) {
        // Should not happen (asserted in debug builds); in release,
        // keep the QoR consistent with the module we actually return.
        result.qor = engine.verifiedQoR();
    }
    result.stats = engine.stats();
    result.qorVerified = engine.qorVerified();
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return result;
}

} // namespace scalehls
