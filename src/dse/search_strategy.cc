#include "dse/search_strategy.h"

#include <cassert>
#include <cmath>

namespace scalehls {

//
// SearchContext
//

bool
SearchContext::propose(const DesignSpace::Point &point)
{
    size_t slot = evaluated_.size() + pending_.size();
    if (!index_.try_emplace(point, slot).second)
        return false;
    pending_.push_back(point);
    return true;
}

const QoRResult &
SearchContext::qorOf(const DesignSpace::Point &point) const
{
    size_t slot = index_.at(point);
    assert(slot < evaluated_.size() && "qorOf a point still pending");
    return evaluated_[slot].qor;
}

size_t
SearchContext::flush()
{
    if (pending_.empty())
        return 0;
    std::vector<QoRResult> results = evaluator_.evaluateBatch(pending_);
    for (size_t i = 0; i < pending_.size(); ++i)
        evaluated_.push_back({std::move(pending_[i]), results[i]});
    size_t count = pending_.size();
    pending_.clear();
    return count;
}

std::vector<size_t>
SearchContext::frontierIndices() const
{
    // Only feasible points compete for the frontier. paretoIndices keeps
    // every member of an identical-QoR tie group, and ALL infeasible
    // points share the one sentinel QoR — ranking them would turn an
    // all-infeasible evaluated set into an O(n) "frontier". Instead,
    // when nothing is feasible yet, a single representative keeps the
    // neighbor traversal seeded (deterministically: the earliest point).
    std::vector<QoRPoint> points;
    std::vector<size_t> feasible;
    points.reserve(evaluated_.size());
    for (size_t i = 0; i < evaluated_.size(); ++i) {
        const EvaluatedPoint &e = evaluated_[i];
        if (!e.qor.feasible)
            continue;
        points.push_back({e.qor.latency, areaOf(e.qor.resources)});
        feasible.push_back(i);
    }
    if (feasible.empty())
        return evaluated_.empty() ? std::vector<size_t>{}
                                  : std::vector<size_t>{0};
    std::vector<size_t> frontier;
    for (size_t idx : paretoIndices(points))
        frontier.push_back(feasible[idx]);
    return frontier;
}

//
// Strategies
//

std::unique_ptr<SearchStrategy>
SearchStrategy::create(DSEStrategy kind)
{
    switch (kind) {
      case DSEStrategy::NeighborTraversal:
        return std::make_unique<NeighborTraversalStrategy>();
      case DSEStrategy::RandomSampling:
        return std::make_unique<RandomSamplingStrategy>();
      case DSEStrategy::SimulatedAnnealing:
        return std::make_unique<SimulatedAnnealingStrategy>();
    }
    return std::make_unique<NeighborTraversalStrategy>();
}

void
NeighborTraversalStrategy::run(SearchContext &ctx, std::mt19937 &rng,
                               unsigned budget)
{
    // Per round: draw up to batchSize random frontier points, propose the
    // closest unevaluated neighbor of each, then evaluate the whole batch
    // at once. propose() marks points seen at proposal time, so drawing
    // the same frontier point twice in one round advances to its next
    // unevaluated neighbor instead of duplicating work.
    unsigned stalled_picks = 0;
    unsigned spent = 0;
    while (spent < budget) {
        auto frontier = ctx.frontierIndices();
        if (frontier.empty())
            break;
        unsigned round = std::min(ctx.batchSize(), budget - spent);
        size_t proposed = 0;
        for (unsigned k = 0; k < round; ++k) {
            size_t pick = frontier[std::uniform_int_distribution<size_t>(
                0, frontier.size() - 1)(rng)];
            const DesignSpace::Point &center =
                ctx.evaluated()[pick].point;
            for (const auto &neighbor : ctx.space().neighbors(center)) {
                if (ctx.propose(neighbor)) {
                    ++proposed;
                    break;
                }
            }
        }
        spent += round;
        if (proposed == 0) {
            // Every drawn frontier point had an exhausted neighborhood;
            // after ~2 full frontier sweeps of failed picks, the whole
            // frontier is almost surely exhausted.
            stalled_picks += round;
            if (stalled_picks > 2 * frontier.size())
                break;
        } else {
            stalled_picks = 0;
            ctx.flush(); // Step 3: evaluation (frontier auto-updates).
        }
    }
}

void
RandomSamplingStrategy::run(SearchContext &ctx, std::mt19937 &rng,
                            unsigned budget)
{
    for (unsigned spent = 0; spent < budget;) {
        unsigned round = std::min(ctx.batchSize(), budget - spent);
        for (unsigned k = 0; k < round; ++k)
            ctx.propose(ctx.space().randomPoint(rng));
        spent += round;
        ctx.flush();
    }
}

void
SimulatedAnnealingStrategy::run(SearchContext &ctx, std::mt19937 &rng,
                                unsigned budget)
{
    // Scalarized objective (latency; infeasible points already carry the
    // sentinel), classic exponential cooling.
    if (ctx.evaluated().empty())
        return;
    auto cost = [](const QoRResult &qor) {
        return static_cast<double>(qor.latency);
    };
    size_t best = 0;
    for (size_t i = 1; i < ctx.evaluated().size(); ++i)
        if (cost(ctx.evaluated()[i].qor) < cost(ctx.evaluated()[best].qor))
            best = i;
    DesignSpace::Point current = ctx.evaluated()[best].point;
    double current_cost = cost(ctx.evaluated()[best].qor);
    double t0 = current_cost > 0 ? current_cost : 1.0;

    unsigned iter = 0;
    while (iter < budget) {
        // Draw a round of candidate neighbors of the round-start point
        // and evaluate them together; the acceptance chain then walks the
        // draws in order, so the trajectory is thread-count independent.
        auto neighbors = ctx.space().neighbors(current);
        if (neighbors.empty())
            break;
        unsigned round = std::min(ctx.batchSize(), budget - iter);
        std::vector<DesignSpace::Point> draws;
        for (unsigned k = 0; k < round; ++k) {
            draws.push_back(neighbors[std::uniform_int_distribution<size_t>(
                0, neighbors.size() - 1)(rng)]);
            ctx.propose(draws.back());
        }
        ctx.flush();

        for (const DesignSpace::Point &candidate : draws) {
            double temperature =
                t0 * std::pow(0.01, static_cast<double>(iter + 1) / budget);
            ++iter;
            double candidate_cost = cost(ctx.qorOf(candidate));
            double delta = candidate_cost - current_cost;
            bool accept = delta <= 0;
            if (!accept && temperature > 0) {
                double p = std::exp(-delta / temperature);
                accept =
                    std::uniform_real_distribution<double>(0, 1)(rng) < p;
            }
            if (accept) {
                current = candidate;
                current_cost = candidate_cost;
            }
        }
    }
}

} // namespace scalehls
