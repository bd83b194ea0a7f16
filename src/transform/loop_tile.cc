/**
 * @file
 * -affine-loop-tile (paper Section V-B4): tiles a perfect band. Following
 * the paper's DSE usage, all generated intra-tile (point) loops are placed
 * in the innermost loop region, ready to be fully unrolled by the
 * pipelining pass to increase computation parallelism.
 */

#include "analysis/loop_analysis.h"
#include "support/utils.h"
#include "transform/pass.h"

namespace scalehls {

std::vector<Operation *>
applyLoopTiling(const std::vector<Operation *> &band,
                const std::vector<int64_t> &tile_sizes)
{
    if (band.empty() || tile_sizes.size() != band.size())
        return {};
    bool all_ones = true;
    for (int64_t t : tile_sizes)
        all_ones &= t <= 1;
    if (all_ones)
        return band; // Trivial request: valid on any nest.
    if (!isPerfectNest(band))
        return {};

    // Validate and clamp tile sizes.
    std::vector<int64_t> sizes(band.size(), 1);
    std::vector<int64_t> orig_steps(band.size());
    for (unsigned i = 0; i < band.size(); ++i) {
        AffineForOp loop(band[i]);
        orig_steps[i] = loop.step();
        int64_t t = std::max<int64_t>(1, tile_sizes[i]);
        if (t == 1) {
            sizes[i] = 1;
            continue;
        }
        auto trip = loop.constantTripCount();
        if (!trip || *trip == 0)
            return {}; // Tiling a variable-bound dim needs RVB first.
        t = std::min<int64_t>(t, *trip);
        // Clamp to a divisor so no epilogue loops are required.
        sizes[i] = divisorsUpTo(*trip, t).back();
    }

    bool any_tiled = false;
    for (int64_t t : sizes)
        any_tiled |= (t > 1);
    if (!any_tiled)
        return band; // Nothing to do; band unchanged is still valid.

    AffineForOp innermost(band.back());
    Block *inner_body = innermost.body();
    auto body_ops = inner_body->opsVector();

    // Scale the tile-loop steps.
    for (unsigned i = 0; i < band.size(); ++i)
        if (sizes[i] > 1)
            AffineForOp(band[i]).setStep(orig_steps[i] * sizes[i]);

    // Create point loops (in band order) inside the innermost body.
    OpBuilder b;
    b.setInsertionPointToEnd(inner_body);
    std::vector<Value *> point_ivs(band.size(), nullptr);
    for (unsigned i = 0; i < band.size(); ++i) {
        if (sizes[i] == 1)
            continue;
        Value *tile_iv = AffineForOp(band[i]).inductionVar();
        AffineExpr d0 = getAffineDimExpr(0);
        AffineForOp point = createAffineFor(
            b, AffineMap::get(1, d0), {tile_iv},
            AffineMap::get(1, d0 + sizes[i] * orig_steps[i]), {tile_iv},
            orig_steps[i]);
        // Mark intra-tile loops so directive passes pipeline the tile
        // loop and fully unroll these instead.
        point.op()->setAttr(kPointLoop, true);
        point_ivs[i] = point.inductionVar();
        b.setInsertionPointToEnd(point.body());
    }
    Block *deepest = b.insertionBlock();

    // Move the original body into the deepest point loop and retarget the
    // moved ops from tile IVs to point IVs.
    for (Operation *op : body_ops)
        deepest->pushBack(inner_body->take(op));
    for (Operation *op : body_ops) {
        op->walk([&](Operation *nested) {
            for (unsigned k = 0; k < nested->numOperands(); ++k) {
                for (unsigned i = 0; i < band.size(); ++i) {
                    if (point_ivs[i] &&
                        nested->operand(k) ==
                            AffineForOp(band[i]).inductionVar())
                        nested->setOperand(k, point_ivs[i]);
                }
            }
        });
    }
    return band;
}

} // namespace scalehls
