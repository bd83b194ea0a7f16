#include "dse/design_space.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "analysis/memory_analysis.h"
#include "support/utils.h"

namespace scalehls {

namespace {

std::vector<std::vector<unsigned>>
allPermutations(unsigned n)
{
    std::vector<unsigned> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    std::vector<std::vector<unsigned>> result;
    do {
        result.push_back(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
    return result;
}

} // namespace

DesignSpace::DesignSpace(Operation *module, DesignSpaceOptions options)
    : pristine_(module->clone()), options_(options)
{
    // Probe the post-LP/RVB structure of every top-level band for trip
    // counts. Bands are disjoint subtrees, so per-band legalization in
    // the probe clone cannot interfere across bands.
    auto probe = pristine_->clone();
    Operation *func = getTopFunc(probe.get());
    assert(func && "design space requires a top function");
    auto probe_bands = getLoopBands(func);
    assert(!probe_bands.empty() && "design space requires a loop band");

    for (int64_t ii : {1,  2,  3,  4,  5,  6,  7,  8,  10, 12,
                       14, 16, 20, 24, 28, 32, 40, 48, 56, 64})
        if (ii <= options_.maxII)
            ii_candidates_.push_back(ii);

    dim_sizes_ = {2, 2};
    for (auto &band_loops : probe_bands) {
        applyLoopPerfectization(band_loops.front());
        applyRemoveVariableBound(band_loops.front());
        applyLoopPerfectization(band_loops.front());
        auto band = getLoopNest(band_loops.front());

        BandSpace space;
        space.firstDim = dim_sizes_.size();
        for (Operation *loop : band)
            space.tripCounts.push_back(
                getTripCount(AffineForOp(loop)).value_or(1));
        space.permutations = allPermutations(band.size());
        for (int64_t trip : space.tripCounts) {
            std::vector<int64_t> tiles =
                divisorsUpTo(trip, options_.maxTileSize);
            if (tiles.empty())
                tiles.push_back(1);
            space.tileCandidates.push_back(std::move(tiles));
        }

        dim_sizes_.push_back(static_cast<int>(space.permutations.size()));
        for (const auto &tiles : space.tileCandidates)
            dim_sizes_.push_back(static_cast<int>(tiles.size()));
        dim_sizes_.push_back(static_cast<int>(ii_candidates_.size()));
        bands_.push_back(std::move(space));
    }
}

size_t
DesignSpace::primaryBandIndex() const
{
    size_t best = 0;
    for (size_t b = 1; b < bands_.size(); ++b)
        if (bands_[b].tripCounts.size() >
            bands_[best].tripCounts.size())
            best = b;
    return best;
}

double
DesignSpace::spaceSize() const
{
    double size = 1;
    for (int d : dim_sizes_)
        size *= d;
    return size;
}

DesignSpace::Point
DesignSpace::randomPoint(std::mt19937 &rng) const
{
    Point point(numDims());
    for (size_t i = 0; i < numDims(); ++i)
        point[i] = std::uniform_int_distribution<int>(
            0, dim_sizes_[i] - 1)(rng);
    return point;
}

std::vector<DesignSpace::Point>
DesignSpace::neighbors(const Point &point) const
{
    std::vector<Point> result;
    for (size_t i = 0; i < numDims(); ++i) {
        for (int delta : {-1, 1}) {
            int v = point[i] + delta;
            if (v < 0 || v >= dim_sizes_[i])
                continue;
            Point n = point;
            n[i] = v;
            result.push_back(std::move(n));
        }
    }
    return result;
}

DesignSpace::Decoded
DesignSpace::decode(const Point &point) const
{
    assert(point.size() == numDims());
    Decoded d;
    d.loopPerfectization = point[0] != 0;
    d.removeVariableBound = point[1] != 0;
    for (const BandSpace &space : bands_) {
        BandChoice choice;
        choice.permMap = space.permutations[point[space.firstDim]];
        for (size_t i = 0; i < space.tileCandidates.size(); ++i)
            choice.tileSizes.push_back(
                space.tileCandidates[i][point[space.firstDim + 1 + i]]);
        choice.targetII = ii_candidates_[point[space.firstDim + 1 +
                                               space.tileCandidates
                                                   .size()]];
        d.bands.push_back(std::move(choice));
    }
    const BandChoice &primary = d.bands[primaryBandIndex()];
    d.permMap = primary.permMap;
    d.tileSizes = primary.tileSizes;
    d.targetII = primary.targetII;
    return d;
}

bool
DesignSpace::withinUnrollCap(const Decoded &decoded) const
{
    for (const BandChoice &choice : decoded.bands) {
        int64_t product = 1;
        for (int64_t t : choice.tileSizes)
            product *= t;
        if (product > options_.maxTotalUnroll)
            return false;
    }
    return true;
}

Operation *
DesignSpace::applyBandSchedule(Operation *root, const Decoded &decoded,
                               size_t band)
{
    const BandChoice &choice = decoded.bands[band];
    if (decoded.loopPerfectization)
        applyLoopPerfectization(root);
    if (decoded.removeVariableBound)
        applyRemoveVariableBound(root);
    if (decoded.loopPerfectization && decoded.removeVariableBound) {
        // Ops below a variable-bound loop only sink once RVB has made
        // the bounds constant (e.g. TRMM's final scaling).
        applyLoopPerfectization(root);
    }
    std::vector<Operation *> nest = getLoopNest(root);
    if (nest.size() == choice.permMap.size())
        applyLoopPermutation(nest, choice.permMap);
    if (nest.size() == choice.tileSizes.size())
        nest = applyLoopTiling(nest, choice.tileSizes);
    if (nest.empty() || !applyLoopPipelining(nest.back(), choice.targetII))
        return nullptr;
    return nest.front();
}

std::unique_ptr<Operation>
DesignSpace::materialize(const Point &point) const
{
    Decoded d = decode(point);
    if (!withinUnrollCap(d))
        return nullptr;

    auto module = pristine_->clone();
    Operation *func = getTopFunc(module.get());
    auto band_roots = getLoopBands(func);
    if (band_roots.size() != d.bands.size())
        return nullptr;
    for (size_t b = 0; b < band_roots.size(); ++b)
        if (!applyBandSchedule(band_roots[b].front(), d, b))
            return nullptr;

    applyRedundancyElimination(func);
    applyArrayPartition(func);
    return module;
}

std::vector<DesignSpace::Point>
DesignSpace::canonicalSeedPoints() const
{
    std::vector<Point> seeds;
    size_t lp = dimLoopPerfectization();
    size_t rvb = dimRemoveVariableBound();
    for (int lp_on = 0; lp_on <= 1; ++lp_on) {
        for (int rvb_on = 0; rvb_on <= 1; ++rvb_on) {
            Point seed(numDims(), 0);
            seed[lp] = lp_on;
            seed[rvb] = rvb_on;
            if (std::find(seeds.begin(), seeds.end(), seed) == seeds.end())
                seeds.push_back(std::move(seed));
        }
    }
    return seeds;
}

std::string
DesignSpace::partitionSummary(Operation *module)
{
    Operation *func = getTopFunc(module);
    Block *body = funcBody(func);
    std::vector<std::string> arg_names;
    if (Attribute names = func->attr("arg_names");
        names.is<std::string>()) {
        std::istringstream is(names.getString());
        std::string token;
        while (std::getline(is, token, ','))
            arg_names.push_back(token);
    }

    std::ostringstream os;
    bool first = true;
    auto describe = [&](const std::string &name, Type t) {
        if (!t.isMemRef())
            return;
        PartitionPlan plan = decodePartitionMap(t.layout(), t.shape());
        if (plan.isTrivial())
            return;
        os << (first ? "" : ", ") << name << ":["
           << join(plan.factors, ", ") << "]";
        first = false;
    };
    for (unsigned i = 0; i < body->numArguments(); ++i) {
        std::string name =
            i < arg_names.size() ? arg_names[i] : "arg" + std::to_string(i);
        describe(name, body->argument(i)->type());
    }
    int local = 0;
    func->walk([&](Operation *op) {
        if (op->is(ops::Alloc))
            describe("buf" + std::to_string(local++),
                     op->result(0)->type());
    });
    return first ? "-" : os.str();
}

} // namespace scalehls
