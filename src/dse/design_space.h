/**
 * @file
 * The multi-dimensional design space of one HLS kernel (paper Section V-E):
 * each dimension is the on/off switch or tunable parameter of a transform
 * pass — loop perfectization, variable-bound removal, and, PER top-level
 * loop band, the loop order, tile size per loop, and pipeline II. Array
 * partitioning is derived automatically from the access pattern of each
 * materialized point.
 */

#ifndef SCALEHLS_DSE_DESIGN_SPACE_H
#define SCALEHLS_DSE_DESIGN_SPACE_H

#include <memory>
#include <random>

#include "estimate/qor_estimator.h"
#include "transform/pass.h"

namespace scalehls {

/** Options bounding the constructed space. */
struct DesignSpaceOptions
{
    int64_t maxTileSize = 64;      ///< Per-loop tile (unroll) cap.
    int64_t maxTotalUnroll = 512;  ///< Cap on the tile-size product PER BAND.
    int64_t maxII = 64;            ///< Largest candidate target II.
};

/** The tunable design space of a kernel function with one or more
 * top-level loop bands (multi-stage kernels like 2mm/3mm get per-band
 * order/tile/II dimensions; the historical single-band layout is the
 * one-band special case).
 *
 * Thread-safety: every const method (decode, materialize, neighbors,
 * randomPoint, canonicalSeedPoints, ...) is re-entrant — materialization
 * clones the pristine module per call and mutates only the clone — so
 * concurrent evaluation of distinct points through a shared DesignSpace
 * is safe. QoR evaluation/memoization lives in dse/evaluator.h. */
class DesignSpace
{
  public:
    /** A point: one ordinal per dimension. */
    using Point = std::vector<int>;

    /** @name Dimension layout
     * The first dimensions are the two legalization switches; then, for
     * each top-level band in function body order: the loop-order
     * permutation, one tile dimension per loop, and the pipeline II.
     * Use these accessors instead of magic indices. */
    ///@{
    size_t dimLoopPerfectization() const { return 0; }
    size_t dimRemoveVariableBound() const { return 1; }
    size_t dimPermutation(size_t band) const
    {
        return bands_[band].firstDim;
    }
    size_t dimFirstTile(size_t band) const
    {
        return bands_[band].firstDim + 1;
    }
    size_t dimTargetII(size_t band) const
    {
        return bands_[band].firstDim + 1 + bands_[band].tripCounts.size();
    }
    ///@}

    /** @p module is the unoptimized affine-level module; its top function
     * must contain at least one top-level loop band. */
    DesignSpace(Operation *module, DesignSpaceOptions options = {});

    /** Number of dimensions: 2 (LP, RVB) + per band (1 permutation +
     * #loops tile sizes + 1 II). */
    size_t numDims() const { return dim_sizes_.size(); }
    const std::vector<int> &dimSizes() const { return dim_sizes_; }
    /** Total number of design points. */
    double spaceSize() const;
    /** Number of tunable top-level bands. */
    size_t numBands() const { return bands_.size(); }
    /** Number of loops in band @p band. */
    size_t bandDepth(size_t band) const
    {
        return bands_[band].tripCounts.size();
    }
    /** Number of loops in the deepest (primary) band. */
    size_t bandDepth() const
    {
        return bands_[primaryBandIndex()].tripCounts.size();
    }

    Point randomPoint(std::mt19937 &rng) const;
    /** All ±1 single-dimension neighbors of @p point. */
    std::vector<Point> neighbors(const Point &point) const;

    /** The canonical seed points: the baseline schedule under each
     * combination of the legalization switches. These guarantee the
     * neighbor traversal a feasible frontier even when random tiles are
     * mostly illegal. */
    std::vector<Point> canonicalSeedPoints() const;

    /** The decoded schedule of one band. */
    struct BandChoice
    {
        std::vector<unsigned> permMap;
        std::vector<int64_t> tileSizes;
        int64_t targetII;
    };

    /** The decoded parameters of a point (for reporting, Table III). */
    struct Decoded
    {
        bool loopPerfectization;
        bool removeVariableBound;
        /** Per-band schedules, in function body order. */
        std::vector<BandChoice> bands;
        /** @name Primary-band view
         * The deepest band's schedule, mirrored for single-band
         * reporting (Table III kernels have exactly one band). */
        ///@{
        std::vector<unsigned> permMap;
        std::vector<int64_t> tileSizes;
        int64_t targetII;
        ///@}
    };
    Decoded decode(const Point &point) const;

    /** Clone the pristine module and apply the point's schedule: per
     * band applyBandSchedule, then the function-wide cleanup pipeline
     * and array partition. Returns nullptr when the point is not
     * materializable (e.g. unroll product too large, pipelining
     * fails). */
    std::unique_ptr<Operation> materialize(const Point &point) const;

    /** False when some band's tile-size product exceeds maxTotalUnroll:
     * such points are infeasible before any IR is built. */
    bool withinUnrollCap(const Decoded &decoded) const;

    /** The per-band structural transforms of @p decoded's band @p band,
     * in their one canonical order: LP, RVB, LP again when both are on,
     * then permutation, tiling and pipelining. Transforms the band
     * rooted at @p root in place and returns its new root; nullptr when
     * tiling or pipelining fails. Shared by materialize and the
     * plan-first overlay (BandPlanner). */
    static Operation *applyBandSchedule(Operation *root,
                                        const Decoded &decoded, size_t band);

    /** Per-memref partition factors of a materialized design, formatted
     * like Table III ("A:[8, 16]"). */
    static std::string partitionSummary(Operation *module);

    /** The pristine (untransformed) module every materialization clones.
     * Callers must treat it as immutable — the plan-first evaluator
     * reads it concurrently from every DSE worker. */
    Operation *pristineModule() const { return pristine_.get(); }

  private:
    /** The tunable sub-space of one top-level band. */
    struct BandSpace
    {
        size_t firstDim; ///< Index of this band's permutation dimension.
        std::vector<std::vector<unsigned>> permutations;
        std::vector<std::vector<int64_t>> tileCandidates;
        std::vector<int64_t> tripCounts;
    };

    /** The deepest band (ties resolved to the first). */
    size_t primaryBandIndex() const;

    std::unique_ptr<Operation> pristine_;
    DesignSpaceOptions options_;
    std::vector<int> dim_sizes_;
    std::vector<BandSpace> bands_;
    std::vector<int64_t> ii_candidates_;
};

} // namespace scalehls

#endif // SCALEHLS_DSE_DESIGN_SPACE_H
