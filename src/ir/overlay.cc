#include "ir/overlay.h"

#include <cassert>

namespace scalehls {

OverlayClone
overlayClone(Operation *base, const std::set<const Operation *> &skip)
{
    assert(base->numOperands() == 0 &&
           "overlay base must be operand-less (a func-like op)");
    OverlayClone out;

    std::vector<Type> result_types;
    result_types.reserve(base->numResults());
    for (unsigned i = 0; i < base->numResults(); ++i)
        result_types.push_back(base->result(i)->type());
    out.op = Operation::create(base->name(), std::move(result_types), {},
                               base->attrs(), base->numRegions());

    for (unsigned r = 0; r < base->numRegions(); ++r) {
        for (const auto &block : base->region(r).blocks()) {
            Block *overlay_block = out.op->region(r).addBlock();
            for (unsigned a = 0; a < block->numArguments(); ++a) {
                Value *arg = block->argument(a);
                out.map.map(arg, overlay_block->addArgument(arg->type()));
            }
            for (const auto &child : block->ops()) {
                if (skip.count(child.get()))
                    continue;
                bool child_complete = true;
                Operation *cloned = overlay_block->pushBack(
                    child->cloneStrict(out.map, child_complete));
                out.complete &= child_complete;
                out.children[child.get()] = cloned;
            }
        }
    }
    return out;
}

} // namespace scalehls
