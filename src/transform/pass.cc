#include "transform/pass.h"

#include <cstdlib>
#include <sstream>

#include "ir/verifier.h"
#include "support/utils.h"

namespace scalehls {

namespace {

/** Pass defined by a name and a callable. */
class LambdaPass : public Pass
{
  public:
    LambdaPass(std::string name, std::function<void(Operation *)> fn)
        : name_(std::move(name)), fn_(std::move(fn))
    {}

    std::string name() const override { return name_; }
    void runOnOperation(Operation *op) override { fn_(op); }

  private:
    std::string name_;
    std::function<void(Operation *)> fn_;
};

} // namespace

bool
PassManager::verifyEachDefault()
{
    if (const char *env = std::getenv("SCALEHLS_VERIFY_EACH"))
        return std::string_view(env) != "0";
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

void
PassManager::run(Operation *op)
{
    timings_.clear();
    for (auto &pass : passes_) {
        auto start = std::chrono::steady_clock::now();
        pass->runOnOperation(op);
        auto end = std::chrono::steady_clock::now();
        double seconds =
            std::chrono::duration<double>(end - start).count();
        timings_.emplace_back(pass->name(), seconds);
        if (!verify_each_)
            continue;
        auto errors = verifyErrors(op);
        if (errors.empty())
            continue;
        std::ostringstream os;
        os << "IR verification failed after pass " << pass->name() << ":";
        size_t shown = 0;
        for (const VerifyError &e : errors) {
            os << "\n  " << e.str();
            if (++shown == 8) {
                os << "\n  ... (" << errors.size() - shown << " more)";
                break;
            }
        }
        fatal(os.str());
    }
}

double
PassManager::totalSeconds() const
{
    double total = 0;
    for (const auto &[name, seconds] : timings_)
        total += seconds;
    return total;
}

std::string
PassManager::timingReport() const
{
    std::ostringstream os;
    os << "===- Pass execution timing report -===\n";
    for (const auto &[name, seconds] : timings_)
        os << "  " << seconds << "s  " << name << "\n";
    os << "  total: " << totalSeconds() << "s\n";
    return os.str();
}

std::unique_ptr<Pass>
makePass(std::string name, std::function<void(Operation *)> fn)
{
    return std::make_unique<LambdaPass>(std::move(name), std::move(fn));
}

void
applyRedundancyElimination(Operation *scope)
{
    applyCanonicalize(scope);
    applySimplifyAffineIf(scope);
    applyAffineStoreForward(scope);
    applySimplifyMemrefAccess(scope);
    applyCSE(scope);
    applyCanonicalize(scope);
}

//
// Pass factories: each traverses the IR and applies the callable transform
// to every suitable target, matching the command-line behaviour of Table II.
//

std::unique_ptr<Pass>
createRaiseScfToAffinePass()
{
    return makePass("-raise-scf-to-affine",
                    [](Operation *op) { raiseScfToAffine(op); });
}

std::unique_ptr<Pass>
createLoopPerfectizationPass()
{
    return makePass("-affine-loop-perfectization", [](Operation *op) {
        for (auto &band : getLoopBands(op))
            applyLoopPerfectization(band.front());
    });
}

std::unique_ptr<Pass>
createRemoveVariableBoundPass()
{
    return makePass("-remove-variable-bound", [](Operation *op) {
        for (auto &band : getLoopBands(op))
            applyRemoveVariableBound(band.front());
    });
}

std::unique_ptr<Pass>
createLoopOrderOptPass()
{
    return makePass("-affine-loop-order-opt", [](Operation *op) {
        for (auto &band : getLoopBands(op))
            applyLoopOrderOpt(band);
    });
}

std::unique_ptr<Pass>
createLoopTilePass(std::vector<int64_t> tile_sizes)
{
    return makePass("-affine-loop-tile", [tile_sizes](Operation *op) {
        for (auto &band : getLoopBands(op)) {
            std::vector<int64_t> sizes = tile_sizes;
            sizes.resize(band.size(), 1);
            applyLoopTiling(band, sizes);
        }
    });
}

std::unique_ptr<Pass>
createLoopUnrollPass(int64_t factor)
{
    return makePass("-affine-loop-unroll", [factor](Operation *op) {
        for (auto &band : getLoopBands(op))
            applyLoopUnroll(band.back(), factor);
    });
}

std::unique_ptr<Pass>
createLoopPipeliningPass(int64_t target_ii)
{
    return makePass("-loop-pipelining", [target_ii](Operation *op) {
        for (auto &band : getLoopBands(op))
            applyLoopPipelining(band.back(), target_ii);
    });
}

std::unique_ptr<Pass>
createFuncPipeliningPass(int64_t target_ii)
{
    return makePass("-func-pipelining", [target_ii](Operation *op) {
        op->walk([&](Operation *nested) {
            if (nested->is(ops::Func))
                applyFuncPipelining(nested, target_ii);
        });
    });
}

std::unique_ptr<Pass>
createArrayPartitionPass()
{
    return makePass("-array-partition", [](Operation *op) {
        if (op->is(ops::Module)) {
            applyArrayPartition(getTopFunc(op));
        } else {
            applyArrayPartition(op);
        }
    });
}

std::unique_ptr<Pass>
createSimplifyAffineIfPass()
{
    return makePass("-simplify-affine-if",
                    [](Operation *op) { applySimplifyAffineIf(op); });
}

std::unique_ptr<Pass>
createAffineStoreForwardPass()
{
    return makePass("-affine-store-forward",
                    [](Operation *op) { applyAffineStoreForward(op); });
}

std::unique_ptr<Pass>
createSimplifyMemrefAccessPass()
{
    return makePass("-simplify-memref-access",
                    [](Operation *op) { applySimplifyMemrefAccess(op); });
}

std::unique_ptr<Pass>
createCanonicalizePass()
{
    return makePass("-canonicalize",
                    [](Operation *op) { applyCanonicalize(op); });
}

std::unique_ptr<Pass>
createCSEPass()
{
    return makePass("-cse", [](Operation *op) { applyCSE(op); });
}

std::unique_ptr<Pass>
createLegalizeDataflowPass(bool insert_copy)
{
    return makePass("-legalize-dataflow", [insert_copy](Operation *op) {
        op->walk([&](Operation *nested) {
            if (nested->is(ops::Func))
                applyLegalizeDataflow(nested, insert_copy);
        });
    });
}

std::unique_ptr<Pass>
createSplitFunctionPass(int64_t min_gran)
{
    return makePass("-split-function", [min_gran](Operation *op) {
        assert(op->is(ops::Module) &&
               "-split-function must run on a module");
        std::vector<Operation *> funcs;
        for (auto &func : op->region(0).front().ops())
            if (func->is(ops::Func))
                funcs.push_back(func.get());
        for (Operation *func : funcs)
            applySplitFunction(op, func, min_gran);
    });
}

} // namespace scalehls
