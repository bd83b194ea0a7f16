#include "dse/evaluator.h"

#include <cstdlib>
#include <iostream>

#include "dse/pareto.h"

namespace scalehls {

bool
EvaluatorOptions::dseAuditEnvDefault()
{
    if (const char *env = std::getenv("SCALEHLS_DSE_AUDIT"))
        return std::string_view(env) != "0";
    return false;
}

bool
CachingEvaluator::recordAuditFindings(
    const std::vector<VerifyError> &findings, DSEStats &stats)
{
    if (findings.empty())
        return false;
    stats.auditViolations += findings.size();
    for (const VerifyError &e : findings)
        std::cerr << "dse-audit: " << e.str() << "\n";
    return true;
}

QoRResult
CachingEvaluator::evaluatePoint(const DesignSpace::Point &point,
                                DSEStats &stats)
{
    ++stats.evaluations;

    QoRResult result;
    auto finalize = [&](QoRResult qor) {
        if (!qor.feasible) {
            // An infeasible estimate (unknown trip counts, recursive
            // call cycles) carries internal placeholder latencies — e.g.
            // the recursion guard's latency-1 stub — that must not leak
            // into frontier ranking or annealing costs as if they were
            // excellent designs. Force the sentinel.
            qor.latency = kInfeasibleQoR;
            qor.interval = kInfeasibleQoR;
        }
        return qor;
    };

    if (planner_) {
        BandPlanner::Outcome planned = planner_->evaluate(point);
        stats.auditChecks += planned.auditChecks;
        recordAuditFindings(planned.auditFindings, stats);
        switch (planned.kind) {
          case BandPlanner::Outcome::Kind::Composed:
            if (planned.usedOverlay)
                ++stats.overlayMaterializations;
            else
                ++stats.planComposed;
            return finalize(planned.qor);
          case BandPlanner::Outcome::Kind::Infeasible:
            // Exactly what the full pipeline returns for a point whose
            // materialization fails — minus the clone and transforms.
            ++stats.planInfeasible;
            result.latency = kInfeasibleQoR;
            result.interval = kInfeasibleQoR;
            result.feasible = false;
            return result;
          case BandPlanner::Outcome::Kind::Fallback:
            if (planned.mismatched)
                ++stats.planMismatches;
            break; // Run the full pipeline below.
        }
    }

    ++stats.fullMaterializations;
    auto module = space_.materialize(point);
    if (!module) {
        result.latency = kInfeasibleQoR;
        result.interval = kInfeasibleQoR;
        result.feasible = false;
        return result;
    }

    QoREstimator estimator(module.get(), pool_, estimates_,
                           options_.bandCache,
                           options_.partitionAwareKeys);
    return finalize(estimator.estimateModule());
}

QoRResult
CachingEvaluator::evaluate(const DesignSpace::Point &point)
{
    return evaluatePoint(point, stats_);
}

std::vector<QoRResult>
CachingEvaluator::evaluateBatch(const std::vector<DesignSpace::Point> &points)
{
    std::vector<QoRResult> results(points.size());
    std::vector<DSEStats> slot_stats(points.size());
    auto evaluate_slot = [&](size_t i) {
        results[i] = evaluatePoint(points[i], slot_stats[i]);
    };
    if (pool_ && pool_->size() > 1 && points.size() > 1)
        pool_->parallelFor(points.size(), evaluate_slot);
    else
        for (size_t i = 0; i < points.size(); ++i)
            evaluate_slot(i);

    // Each slot counted into its own record; merge them after the fan-out.
    for (const DSEStats &stats : slot_stats)
        stats_ += stats;
    return results;
}

} // namespace scalehls
