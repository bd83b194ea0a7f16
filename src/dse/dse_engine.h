/**
 * @file
 * The automated DSE engine (paper Section V-E2): a 5-step
 * neighbor-traversing search for the Pareto frontier of the latency-area
 * space, exploiting the observation that Pareto points cluster in the
 * design-parameter space (paper Fig. 6).
 *
 * Exploration proposes batches of unevaluated points per round and
 * evaluates each batch in parallel over a thread pool (the QoR of
 * distinct points is independent — materialization clones the module per
 * point). The search trajectory is a function of the seed and the batch
 * size only, so for a fixed seed the resulting frontier is bit-identical
 * at any thread count.
 */

#ifndef SCALEHLS_DSE_DSE_ENGINE_H
#define SCALEHLS_DSE_DSE_ENGINE_H

#include <optional>

#include "dse/dse_stats.h"
#include "dse/search_strategy.h"

namespace scalehls {

/** Engine tuning knobs. */
struct DSEOptions
{
    unsigned numInitialSamples = 120; ///< Step 1 random samples.
    unsigned maxIterations = 400;     ///< Step 4 proposal budget.
    unsigned seed = 20220402;         ///< RNG seed (deterministic runs).
    DSEStrategy strategy = DSEStrategy::NeighborTraversal;
    /** QoR evaluation worker threads; 0 = hardware_concurrency. Sizes
     * the one pool a call shares across all its kernels and batches.
     * Does NOT affect results, only wall-clock. */
    unsigned numThreads = 0;
    /** Points proposed per exploration round. Part of the deterministic
     * trajectory — keep it fixed when comparing runs (it intentionally
     * does not default to numThreads). */
    unsigned batchSize = 8;
    /** Band-level tier of the estimate cache: additionally reuse
     * per-band estimates between points that differ only INSIDE another
     * band of the same function (keyed by a self-contained band digest,
     * so digest-identical bands share even across functions). Content-
     * keyed: never changes results. The schedule and plan tiers, and so
     * plan-first evaluation, build on it. */
    bool bandLevelCache = true;
    /** Partition-aware band keys: mask external memref layout dims the
     * band's estimate provably never reads out of the band digest, so
     * retuning band B no longer invalidates band A's cached estimate
     * just because it repartitioned a shared array along a dim A never
     * separates banks on. Content-keyed on everything the estimate can
     * read — never changes results. Off = the partition-sensitive PR 3
     * keying (kept for A/B comparison). */
    bool partitionAwareBandKeys = true;
    /** Audit mode (`-dse-audit` / SCALEHLS_DSE_AUDIT): run the L3/L4
     * auditors — overlay aliasing, overlay IR verification, PLAN digest
     * agreement, schedule-entry shape — at every plan-first decision of
     * the evaluator. A finding is counted, reported on stderr, and
     * forces the affected point onto the full pipeline, so an audited
     * run can be slower but never wrong. */
    bool auditMode = EvaluatorOptions::dseAuditEnvDefault();
    /** Max entries per tier (func/band/schedule/plan) of the
     * engine-owned estimate cache (coarse LRU eviction; 0 = that tier
     * unbounded). Bounds memory on week-long sweeps without changing
     * results; external sharedEstimates caches are the caller's to
     * bound. `-dse-cache-cap=<n>` caps every tier at n,
     * `-dse-cache-cap=f:b:s:p` sizes them separately — schedule/plan
     * entries are far heavier than function QoRs. */
    EstimateCacheTierCaps estimateCacheTierCaps;
    /** The owning tool's snapshot paths (estimate/cache_io): a tool that
     * owns a cache for its whole lifetime (scalehls-opt,
     * scalehls-translate) loads it from cacheLoadPath before exploring,
     * injects it as sharedEstimates, and saves it to cacheSavePath
     * afterwards. The library never reads these fields — no DSEEngine,
     * runDSE or Compiler call does file I/O. Both default to "" (no
     * persistence); ExploreRequest::applyEnvDefaults() points them at
     * $SCALEHLS_CACHE_DIR/estimate_cache.shlsnap when that is set. */
    std::string cacheLoadPath;
    std::string cacheSavePath;
    /** External estimate cache spanning multiple explorations (e.g. all
     * kernels of optimizeFunctions), NOT owned; nullptr = the engine
     * creates a per-exploration cache. */
    EstimateCache *sharedEstimates = nullptr;

    /** Apply the per-tier cache bounds to @p cache (when any are
     * set). */
    void applyCacheBounds(EstimateCache &cache) const;
};

/** The 5-step DSE algorithm over one kernel's design space. */
class DSEEngine
{
  public:
    /** @p pool (not owned) runs all evaluation and may be shared with
     * other engines; nullptr = explore() owns a `numThreads` pool. */
    DSEEngine(DesignSpace &space, DSEOptions options = {},
              ThreadPool *pool = nullptr)
        : space_(space), options_(options), pool_(pool)
    {}

    /** Steps 1-4: sample, then evolve the frontier by proposing batches
     * of nearest unevaluated neighbors of random Pareto points. Returns
     * the frontier in ascending latency order. */
    std::vector<EvaluatedPoint> explore();

    /** Step 5 (design finalization): the fastest Pareto point that meets
     * the resource constraints. */
    static std::optional<EvaluatedPoint> finalize(
        const std::vector<EvaluatedPoint> &frontier,
        const ResourceBudget &budget);

    /** No-op: exploration retains no module, so there is no retention
     * budget to scope. Kept only because the frozen e2ebench harness
     * still calls it. */
    void setFinalizeBudget(const ResourceBudget &) {}

    /** The materialized module of an explore()-evaluated point, always
     * built afresh (plan-first composition builds no module during
     * exploration). The module is then re-estimated against the warm
     * estimate cache and its QoR asserted equal to the recorded result
     * — qorVerified() reports the outcome. */
    std::unique_ptr<Operation> materializeEvaluated(
        const EvaluatedPoint &chosen);
    /** True when the re-estimated module matched the recorded QoR. */
    bool qorVerified() const { return qor_verified_; }
    /** The re-estimated QoR of the last materializeEvaluated module —
     * equal to the recorded result when qorVerified(); on divergence it
     * is the value consistent with the returned module. */
    const QoRResult &verifiedQoR() const { return verified_qor_; }

    /** All points evaluated during explore() (for Fig. 6 profiling). */
    const std::vector<EvaluatedPoint> &evaluated() const
    {
        return evaluated_;
    }
    /** Counters of the last explore(), as the evaluator counted them
     * (`evaluations` == evaluated().size()). */
    const DSEStats &stats() const { return stats_; }
    /** Shorthand reads of stats() (the e2ebench harness uses them). */
    size_t numEvaluations() const { return stats_.evaluations; }
    size_t numFullMaterializations() const
    {
        return stats_.fullMaterializations;
    }
    size_t numOverlayMaterializations() const
    {
        return stats_.overlayMaterializations;
    }
    size_t numPlanComposed() const { return stats_.planComposed; }
    size_t numPlanMismatches() const { return stats_.planMismatches; }

  private:
    DesignSpace &space_;
    DSEOptions options_;
    std::vector<EvaluatedPoint> evaluated_;
    DSEStats stats_;
    bool qor_verified_ = false;
    QoRResult verified_qor_;
    /** Exploration state kept alive across explore() so
     * materializeEvaluated can re-estimate against the warm caches. */
    ThreadPool *pool_;
    std::unique_ptr<ThreadPool> owned_pool_;
    std::unique_ptr<EstimateCache> local_estimates_;
    EstimateCache *estimates_in_use_ = nullptr;
};

/** One retained Pareto-frontier design: the encoded point, its decoded
 * per-band schedule, and the FULL QoR — decomposed ResourceUsage, not
 * just the scalar area — so a global allocator can trade stages against
 * each other per resource. Re-materializing a frontier point is cheap
 * through DSEEngine::materializeEvaluated while the engine (and its warm
 * plan/schedule caches) is alive. */
struct FrontierPoint
{
    DesignSpace::Point point;
    /** Decoded per-band schedule (function body order). */
    std::vector<DesignSpace::BandChoice> bands;
    QoRResult qor;
};

/** Decode and retain @p frontier (an explore() result, ascending
 * latency) as self-contained FrontierPoints. */
std::vector<FrontierPoint> retainFrontier(
    const DesignSpace &space, const std::vector<EvaluatedPoint> &frontier);

/** Convenience: run the full flow on a C-level module — returns the
 * finalized optimized module plus its QoR, or nullopt if no feasible
 * design exists. */
struct DSEResult
{
    DesignSpace::Point point;
    QoRResult qor;
    std::unique_ptr<Operation> module;
    /** The full evaluated Pareto frontier (ascending latency), retained
     * beyond the winner so callers can re-finalize under a different
     * budget or compose whole-model designs. */
    std::vector<FrontierPoint> frontier;
    DSEStats stats;
    /** True when the finalized module re-estimated to the recorded QoR. */
    bool qorVerified = false;
    double seconds = 0;
};
std::optional<DSEResult> runDSE(Operation *module,
                                const ResourceBudget &budget,
                                DesignSpaceOptions space_options = {},
                                DSEOptions options = {});

} // namespace scalehls

#endif // SCALEHLS_DSE_DSE_ENGINE_H
