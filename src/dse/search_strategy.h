/**
 * @file
 * Search strategies of the DSE engine, split behind a common interface:
 * the paper's neighbor-traversing Pareto search (Section V-E2), random
 * sampling, and simulated annealing. Strategies propose BATCHES of
 * unevaluated points per round through a SearchContext; the context
 * evaluates each batch (possibly in parallel) and merges results back in
 * proposal order, so the search trajectory depends only on the RNG seed
 * and the batch size — never on the thread count. The context is the
 * exploration's only point memo: each point is evaluated once, however
 * often it is proposed or its QoR read.
 */

#ifndef SCALEHLS_DSE_SEARCH_STRATEGY_H
#define SCALEHLS_DSE_SEARCH_STRATEGY_H

#include <map>
#include <memory>
#include <random>

#include "dse/evaluator.h"
#include "dse/pareto.h"

namespace scalehls {

/** Search strategy selector. The paper's engine is the neighbor-traversing
 * Pareto search; the alternatives exist for the extensibility the paper
 * calls out (Section VIII) and for the ablation benches. */
enum class DSEStrategy
{
    NeighborTraversal, ///< Paper Section V-E2 (default).
    RandomSampling,    ///< Pure random search at the same budget.
    SimulatedAnnealing ///< Classic annealer over the same space.
};

/** The shared exploration state strategies operate on: the evaluated-point
 * record, the index of every proposed point into it, and the pending
 * proposal batch. Single-threaded by contract — only flush() fans out,
 * through the evaluator. */
class SearchContext
{
  public:
    SearchContext(const DesignSpace &space, CachingEvaluator &evaluator,
                  std::vector<EvaluatedPoint> &evaluated,
                  unsigned batch_size)
        : space_(space), evaluator_(evaluator), evaluated_(evaluated),
          batch_size_(batch_size == 0 ? 1 : batch_size)
    {}

    const DesignSpace &space() const { return space_; }
    /** Target number of proposals per round. */
    unsigned batchSize() const { return batch_size_; }

    /** Queue @p point for the next flush unless it was ever proposed
     * before; marks it seen immediately so one round never queues the
     * same point twice. Returns true when queued. */
    bool propose(const DesignSpace::Point &point);
    /** True when the point was proposed (evaluated or pending). */
    bool isSeen(const DesignSpace::Point &point) const
    {
        return index_.count(point) != 0;
    }
    /** Evaluate the pending batch (input order preserved) and append the
     * results to evaluated(). Returns the number of points evaluated. */
    size_t flush();

    const std::vector<EvaluatedPoint> &evaluated() const
    {
        return evaluated_;
    }
    /** The recorded QoR of an already-evaluated point (proposed and
     * flushed); never calls the evaluator. */
    const QoRResult &qorOf(const DesignSpace::Point &point) const;

    /** Pareto-optimal indices over evaluated() (infeasible points carry
     * the kInfeasibleQoR sentinel and never win). */
    std::vector<size_t> frontierIndices() const;

  private:
    const DesignSpace &space_;
    CachingEvaluator &evaluator_;
    std::vector<EvaluatedPoint> &evaluated_;
    /** Every proposed point -> its index in evaluated_ (a pending point
     * maps to the slot flush() will append it to). */
    std::map<DesignSpace::Point, size_t> index_;
    std::vector<DesignSpace::Point> pending_;
    unsigned batch_size_;
};

/** A search strategy: evolves the context within a proposal budget. */
class SearchStrategy
{
  public:
    virtual ~SearchStrategy() = default;

    /** Run the search. @p budget bounds the number of proposal attempts
     * (the seed engine's maxIterations). @p rng is the engine's seeded
     * generator — draw from it only on the proposal path so runs stay
     * deterministic. */
    virtual void run(SearchContext &ctx, std::mt19937 &rng,
                     unsigned budget) = 0;

    static std::unique_ptr<SearchStrategy> create(DSEStrategy kind);
};

/** Steps 2-4 of the paper's engine: per round, propose the closest
 * unevaluated neighbor of up to batchSize random Pareto points, evaluate
 * the batch, repeat until the budget or the frontier is exhausted. */
class NeighborTraversalStrategy : public SearchStrategy
{
  public:
    void run(SearchContext &ctx, std::mt19937 &rng,
             unsigned budget) override;
};

/** Random search at the same budget (ablation baseline). */
class RandomSamplingStrategy : public SearchStrategy
{
  public:
    void run(SearchContext &ctx, std::mt19937 &rng,
             unsigned budget) override;
};

/** Classic exponential-cooling annealer. Each round draws a batch of
 * random neighbors of the current point, evaluates them together, then
 * walks the acceptance chain in draw order. */
class SimulatedAnnealingStrategy : public SearchStrategy
{
  public:
    void run(SearchContext &ctx, std::mt19937 &rng,
             unsigned budget) override;
};

} // namespace scalehls

#endif // SCALEHLS_DSE_SEARCH_STRATEGY_H
