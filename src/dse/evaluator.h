/**
 * @file
 * The QoR evaluation layer of the DSE stack: CachingEvaluator, with
 * single-point and batched entry points, materializes each point on its
 * own clone of the pristine module (so evaluations of distinct points
 * are independent) and fans a batch out over a ThreadPool.
 *
 * Results are returned BY VALUE: the memo cache is sharded and grows
 * concurrently, so a `const QoRResult&` into it could not survive a
 * neighboring insert. Batch results come back in input order regardless
 * of completion order, which is what keeps N-thread runs bit-identical
 * to 1-thread runs.
 */

#ifndef SCALEHLS_DSE_EVALUATOR_H
#define SCALEHLS_DSE_EVALUATOR_H

#include <memory>

#include "dse/band_plan.h"
#include "dse/design_space.h"
#include "dse/dse_stats.h"
#include "estimate/estimate_cache.h"
#include "support/concurrent_cache.h"
#include "support/thread_pool.h"

namespace scalehls {

/** An evaluated design point. */
struct EvaluatedPoint
{
    DesignSpace::Point point;
    QoRResult qor;
};

/** Tuning knobs of the default evaluator. */
struct EvaluatorOptions
{
    /** Band-level tier of the estimate cache. */
    bool bandCache = true;
    /** Partition-aware band keys: digest external memref layouts only
     * along dims the band's estimate reads (see
     * bandEstimateDigestInfo). */
    bool partitionAwareKeys = true;
    /** Audit mode (`-dse-audit` / SCALEHLS_DSE_AUDIT): run the L3/L4
     * auditors (overlay aliasing, schedule-entry shape, overlay IR
     * verification) at every plan-first decision. A finding is counted,
     * reported, and forces the full pipeline — audited runs trade time
     * for proof, never correctness. */
    bool audit = dseAuditEnvDefault();

    /** The env default for `audit`: set SCALEHLS_DSE_AUDIT (any value
     * but "0") to audit every evaluator in the process — how the
     * sanitizer CI legs switch whole test suites into audit mode. */
    static bool dseAuditEnvDefault();
};

/** The evaluator: materialize + estimate behind a sharded memo
 * cache, batches spread over @p pool (nullptr or a 1-wide pool runs
 * inline). The cache is keyed on the full point vector, so re-probing an
 * already-evaluated point is a lookup, not a re-materialization. A miss
 * is answered by plan-first composition when the kernel's shape allows
 * it (BandPlanner), otherwise — or when the planner falls back — by the
 * full pipeline: DesignSpace::materialize, then QoREstimator. Without an
 * estimate cache, or with the band tier off, every miss runs the full
 * pipeline: `CachingEvaluator(space)` is the uncached reference the
 * tests and the smith oracle compare the planner against.
 *
 * An infeasible estimate (unknown trips, call cycles, failed analysis)
 * is returned carrying the kInfeasibleQoR latency/interval sentinel —
 * the estimator's internal placeholder numbers never escape here, so
 * every consumer (Pareto ranking, annealing cost, reporting) sees an
 * infeasible point as maximally bad instead of accidentally optimal.
 *
 * @p estimates (optional, not owned) is the cross-point estimate cache:
 * per-function results keyed by content digest, shared across every
 * worker (and potentially across evaluators). The pool is also handed to
 * each QoREstimator so multi-function points estimate their callees
 * concurrently (intra-point parallelism). */
class CachingEvaluator
{
  public:
    explicit CachingEvaluator(const DesignSpace &space,
                              ThreadPool *pool = nullptr,
                              EstimateCache *estimates = nullptr,
                              EvaluatorOptions options = {})
        : space_(space), pool_(pool), estimates_(estimates),
          options_(options)
    {
        if (estimates_ && options_.bandCache) {
            planner_ = std::make_unique<BandPlanner>(
                space_, estimates_, options_.partitionAwareKeys,
                options_.audit);
            if (!planner_->enabled())
                planner_.reset();
        }
    }

    /** Evaluate one point: evaluateBatch of a one-point batch. */
    QoRResult evaluate(const DesignSpace::Point &point);
    /** Evaluate a batch; result[i] corresponds to points[i]. Call from
     * one thread at a time (the batch itself fans out over the pool). */
    std::vector<QoRResult>
    evaluateBatch(const std::vector<DesignSpace::Point> &points);

    /** Keep the module of the best slow-path evaluation seen so far
     * (lowest-latency feasible point, optionally restricted to designs
     * fitting @p budget — the finalize criterion), so the engine can
     * hand the winning module back without re-materializing it.
     * Retention decisions happen on the sequential result-merge path in
     * batch input order, so the retained point is identical at any
     * thread count. */
    void
    retainBestModule(std::optional<ResourceBudget> budget)
    {
        retention_enabled_ = true;
        retention_budget_ = std::move(budget);
    }
    /** The retained module if it belongs to exactly @p point (ownership
     * transfers); nullptr otherwise. */
    std::unique_ptr<Operation> takeRetainedModule(
        const DesignSpace::Point &point);

    /** Counters accumulated since construction (`evaluations` stays 0:
     * the engine owns that count). Each task fills its own DSEStats and
     * the batch merges them sequentially, so read this between calls,
     * never during one. */
    const DSEStats &stats() const { return stats_; }

  private:
    /** Evaluate one memo miss, counted into @p stats. @p module_out
     * (optional) receives the materialized module when the full
     * pipeline ran (plan-first composition builds none). */
    QoRResult evaluateFresh(const DesignSpace::Point &point,
                            DSEStats &stats,
                            std::unique_ptr<Operation> *module_out);
    /** Count + report audit findings (audit mode only). Returns true
     * when there was at least one finding. */
    static bool recordAuditFindings(
        const std::vector<VerifyError> &findings, DSEStats &stats);
    /** Retention hook; called only from sequential merge paths. */
    void maybeRetain(const DesignSpace::Point &point,
                     const QoRResult &qor,
                     std::unique_ptr<Operation> module);

    const DesignSpace &space_;
    ThreadPool *pool_;
    EstimateCache *estimates_ = nullptr;
    EvaluatorOptions options_;
    /** Plan-first evaluation over the PLAN cache tier (null without an
     * estimate cache with the band tier, or when the kernel's shape
     * rules it out). */
    std::unique_ptr<BandPlanner> planner_;
    ConcurrentCache<DesignSpace::Point, QoRResult, OrdinalVectorHash>
        cache_;
    DSEStats stats_;

    bool retention_enabled_ = false;
    std::optional<ResourceBudget> retention_budget_;
    std::unique_ptr<Operation> retained_module_;
    DesignSpace::Point retained_point_;
    QoRResult retained_qor_;
};

} // namespace scalehls

#endif // SCALEHLS_DSE_EVALUATOR_H
