#include "dse/evaluator.h"

#include <cstdlib>
#include <iostream>
#include <unordered_map>

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
CachingEvaluator::evaluateFresh(const DesignSpace::Point &point,
                                DSEStats &stats,
                                std::unique_ptr<Operation> *module_out)
{
    ++stats.materializations;

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
    result = finalize(estimator.estimateModule());
    if (module_out)
        *module_out = std::move(module);
    return result;
}

void
CachingEvaluator::maybeRetain(const DesignSpace::Point &point,
                              const QoRResult &qor,
                              std::unique_ptr<Operation> module)
{
    if (!retention_enabled_ || !module || !qor.feasible)
        return;
    if (retention_budget_ && !qor.fits(*retention_budget_))
        return;
    // Strictly-better latency wins; ties keep the earlier (batch input
    // order) point, so the retained point is thread-count independent.
    if (retained_module_ && retained_qor_.latency <= qor.latency)
        return;
    retained_module_ = std::move(module);
    retained_point_ = point;
    retained_qor_ = qor;
}

std::unique_ptr<Operation>
CachingEvaluator::takeRetainedModule(const DesignSpace::Point &point)
{
    if (!retained_module_ || retained_point_ != point)
        return nullptr;
    return std::move(retained_module_);
}

QoRResult
CachingEvaluator::evaluate(const DesignSpace::Point &point)
{
    return evaluateBatch({point}).front();
}

std::vector<QoRResult>
CachingEvaluator::evaluateBatch(const std::vector<DesignSpace::Point> &points)
{
    std::vector<QoRResult> results(points.size());

    // Resolve cache hits up front and dedup duplicate misses: identical
    // points in one batch materialize ONCE (the first slot computes,
    // later slots copy its result), so callers that cannot pre-dedup —
    // e.g. annealing chains re-proposing a neighbor — do not pay a
    // redundant materialization per duplicate slot.
    std::vector<size_t> misses;
    std::unordered_map<DesignSpace::Point, size_t, OrdinalVectorHash>
        first_miss;
    std::vector<std::pair<size_t, size_t>> duplicates; // (slot, miss idx)
    for (size_t i = 0; i < points.size(); ++i) {
        if (auto cached = cache_.lookup(points[i])) {
            ++stats_.cacheHits;
            results[i] = *cached;
            continue;
        }
        auto [it, inserted] =
            first_miss.try_emplace(points[i], misses.size());
        if (inserted) {
            misses.push_back(i);
        } else {
            duplicates.push_back({i, it->second});
            ++stats_.batchDedups;
        }
    }

    std::vector<std::unique_ptr<Operation>> modules(misses.size());
    std::vector<DSEStats> miss_stats(misses.size());
    auto evaluate_miss = [&](size_t mi) {
        size_t i = misses[mi];
        results[i] = evaluateFresh(
            points[i], miss_stats[mi],
            retention_enabled_ ? &modules[mi] : nullptr);
    };
    if (pool_ && pool_->size() > 1 && misses.size() > 1)
        pool_->parallelFor(misses.size(), evaluate_miss);
    else
        for (size_t mi = 0; mi < misses.size(); ++mi)
            evaluate_miss(mi);

    // Sequential merge in input order: retention decisions, cache
    // publication and counters stay deterministic at any thread count.
    for (size_t mi = 0; mi < misses.size(); ++mi) {
        size_t i = misses[mi];
        stats_ += miss_stats[mi];
        maybeRetain(points[i], results[i], std::move(modules[mi]));
        cache_.insert(points[i], results[i]);
    }
    for (auto [slot, mi] : duplicates)
        results[slot] = results[misses[mi]];
    return results;
}

} // namespace scalehls
