#include "ir/verifier.h"

#include <cstdint>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "dialect/graph_ops.h"
#include "dialect/ops.h"
#include "ir/overlay.h"
#include "ir/printer.h"

namespace scalehls {

const char *
verifyKindName(VerifyKind kind)
{
    switch (kind) {
      case VerifyKind::NullOperand: return "NullOperand";
      case VerifyKind::DominanceViolation: return "DominanceViolation";
      case VerifyKind::RegionShape: return "RegionShape";
      case VerifyKind::TypeMismatch: return "TypeMismatch";
      case VerifyKind::StaleOpPosition: return "StaleOpPosition";
      case VerifyKind::InvalidBoundMap: return "InvalidBoundMap";
      case VerifyKind::InvalidAccessMap: return "InvalidAccessMap";
      case VerifyKind::BadTerminator: return "BadTerminator";
      case VerifyKind::InvalidDirective: return "InvalidDirective";
      case VerifyKind::InvalidDataflow: return "InvalidDataflow";
      case VerifyKind::UnknownCallee: return "UnknownCallee";
      case VerifyKind::DuplicateSymbol: return "DuplicateSymbol";
      case VerifyKind::InvalidModule: return "InvalidModule";
      case VerifyKind::OverlayIncomplete: return "OverlayIncomplete";
      case VerifyKind::OverlayBaseAlias: return "OverlayBaseAlias";
      case VerifyKind::OverlayUseLeak: return "OverlayUseLeak";
      case VerifyKind::StaleScheduleEntry: return "StaleScheduleEntry";
      case VerifyKind::MalformedScheduleEntry:
        return "MalformedScheduleEntry";
      case VerifyKind::DigestCoverageGap: return "DigestCoverageGap";
    }
    return "Unknown";
}

std::string
VerifyError::str() const
{
    return "[" + std::string(verifyKindName(kind)) + "] " + path + ": " +
           message;
}

namespace {

class Verifier
{
  public:
    explicit Verifier(VerifyLevel level) : level_(level) {}

    std::vector<VerifyError> errors;

    bool
    semantic() const
    {
        return level_ == VerifyLevel::Semantic;
    }

    void
    error(VerifyKind kind, Operation *op, const std::string &msg)
    {
        errors.push_back({kind, opPath(op), "'" + op->name() + "': " + msg});
    }

    /** True if @p value is visible at @p user: defined as a block argument
     * of an enclosing block, or by an op earlier in an enclosing block. */
    bool
    dominates(Value *value, Operation *user)
    {
        if (Block *owner = value->ownerBlock()) {
            // Block argument: user must be nested in the owner block.
            for (Block *b = user->parentBlock(); b;) {
                if (b == owner)
                    return true;
                Operation *parent = b->parentOp();
                b = parent ? parent->parentBlock() : nullptr;
            }
            return false;
        }
        Operation *def = value->definingOp();
        // Walk up from user to find the ancestor sharing def's block.
        for (Operation *u = user; u; u = u->parentOp()) {
            if (u->parentBlock() == def->parentBlock())
                return def != u && indexInBlock(def) < indexInBlock(u);
        }
        return false;
    }

    /** @p op's index in its parent block. Each block is numbered once per
     * verifier run, so dominance stays linear in the block size. An op
     * its parent block does not hold (reported as StaleOpPosition) sorts
     * last. */
    size_t
    indexInBlock(Operation *op)
    {
        Block *block = op->parentBlock();
        if (numbered_.insert(block).second) {
            size_t i = 0;
            for (auto &child : block->ops())
                index_[child.get()] = i++;
        }
        auto it = index_.find(op);
        return it == index_.end() ? SIZE_MAX : it->second;
    }

    /** L1: every op in @p op's regions names its block as parent and sits
     * at its recorded position, so O(1) unlink and insert stay sound. */
    void
    verifyOpLinks(Operation *op)
    {
        if (!op->positionValid())
            error(VerifyKind::StaleOpPosition, op,
                  "recorded position does not point back at the op");
        for (unsigned r = 0; r < op->numRegions(); ++r)
            for (auto &block : op->region(r).blocks())
                for (auto &child : block->ops())
                    if (child->parentBlock() != block.get())
                        error(VerifyKind::StaleOpPosition, child.get(),
                              "parent block is not the block holding it");
    }

    void
    verifyOperation(Operation *op)
    {
        verifyOpLinks(op);
        for (unsigned i = 0; i < op->numOperands(); ++i) {
            Value *v = op->operand(i);
            if (!v) {
                error(VerifyKind::NullOperand, op,
                      "null operand #" + std::to_string(i));
                continue;
            }
            if (op->parentBlock() && !dominates(v, op))
                error(VerifyKind::DominanceViolation, op,
                      "operand #" + std::to_string(i) +
                          " does not dominate its use");
        }

        if (op->is(ops::AffineFor)) {
            verifyAffineFor(op);
        } else if (op->is(ops::AffineIf)) {
            verifyAffineIf(op);
        } else if (op->is(ops::AffineLoad) || op->is(ops::AffineStore)) {
            verifyAffineAccess(op);
        } else if (op->is(ops::Func)) {
            verifyFunc(op);
        } else if (op->is(ops::ScfFor)) {
            verifyScfFor(op);
        } else if (op->dialect() == "arith" && op->numOperands() == 2 &&
                   op->numResults() == 1 && !op->is(ops::CmpI) &&
                   !op->is(ops::CmpF)) {
            if (op->operand(0) && op->operand(1) &&
                op->operand(0)->type() != op->operand(1)->type())
                error(VerifyKind::TypeMismatch, op,
                      "binary op operand type mismatch");
        }

        if (semantic()) {
            verifyDirectiveAttrs(op);
            verifyReturnPlacement(op);
        }
    }

    void
    verifyAffineFor(Operation *op)
    {
        if (op->numRegions() != 1 || op->region(0).size() != 1) {
            error(VerifyKind::RegionShape, op,
                  "affine.for must have a single-block region");
            return;
        }
        AffineForOp forOp(op);
        Block *body = forOp.body();
        if (body->numArguments() != 1 ||
            !body->argument(0)->type().isIndex())
            error(VerifyKind::RegionShape, op,
                  "affine.for body must have one index argument");
        if (!op->attr(kLowerMap).is<AffineMap>() ||
            !op->attr(kUpperMap).is<AffineMap>())
            error(VerifyKind::InvalidBoundMap, op,
                  "affine.for requires bound maps");
        else {
            unsigned total = forOp.lowerBoundMap().numDims() +
                             forOp.upperBoundMap().numDims();
            if (total != op->numOperands())
                error(VerifyKind::InvalidBoundMap, op,
                      "affine.for bound operand count mismatch");
        }
        if (!op->attr(kStep).is<int64_t>() || forOp.step() <= 0)
            error(VerifyKind::InvalidBoundMap, op,
                  "affine.for requires a positive constant step");
        for (Value *v : op->operands())
            if (v && !v->type().isIntOrIndex())
                error(VerifyKind::TypeMismatch, op,
                      "affine.for bound operands must be index values");
    }

    void
    verifyAffineIf(Operation *op)
    {
        if (op->numRegions() != 2) {
            error(VerifyKind::RegionShape, op,
                  "affine.if must have then and else regions");
            return;
        }
        if (!op->attr(kCondition).is<IntegerSet>()) {
            error(VerifyKind::InvalidBoundMap, op,
                  "affine.if requires an IntegerSet condition");
            return;
        }
        AffineIfOp ifOp(op);
        if (ifOp.condition().numDims() != op->numOperands())
            error(VerifyKind::InvalidBoundMap, op,
                  "affine.if operand count must match set dims");
        if (op->region(0).empty())
            error(VerifyKind::RegionShape, op,
                  "affine.if requires a then block");
    }

    void
    verifyAffineAccess(Operation *op)
    {
        bool is_load = op->is(ops::AffineLoad);
        unsigned memref_idx = is_load ? 0 : 1;
        if (op->numOperands() <= memref_idx) {
            error(VerifyKind::InvalidAccessMap, op,
                  "missing memref operand");
            return;
        }
        Value *memref = op->operand(memref_idx);
        if (!memref || !memref->type().isMemRef()) {
            error(VerifyKind::InvalidAccessMap, op,
                  "expected memref operand");
            return;
        }
        if (!op->attr(kMap).is<AffineMap>()) {
            error(VerifyKind::InvalidAccessMap, op,
                  "affine access requires a map attribute");
            return;
        }
        AffineMap map = op->attr(kMap).getAffineMap();
        if (map.numResults() != memref->type().rank())
            error(VerifyKind::InvalidAccessMap, op,
                  "access map result count must equal memref rank");
        unsigned num_map_operands = op->numOperands() - memref_idx - 1;
        if (map.numDims() != num_map_operands)
            error(VerifyKind::InvalidAccessMap, op,
                  "access map dim count must equal map operand count");
        if (is_load &&
            op->result(0)->type() != memref->type().elementType())
            error(VerifyKind::TypeMismatch, op,
                  "load result type must match memref element type");
        if (!is_load &&
            op->operand(0)->type() != memref->type().elementType())
            error(VerifyKind::TypeMismatch, op,
                  "stored value type must match memref element type");
    }

    void
    verifyFunc(Operation *op)
    {
        if (op->numRegions() != 1 || op->region(0).size() != 1) {
            error(VerifyKind::RegionShape, op,
                  "func must have a single-block body");
            return;
        }
        Block *body = funcBody(op);
        if (body->empty() || !body->back()->is(ops::Return))
            error(VerifyKind::BadTerminator, op,
                  "func body must end with func.return");
        if (!op->attr(kSymName).is<std::string>())
            error(VerifyKind::InvalidModule, op, "func requires sym_name");
        if (semantic())
            verifyDataflowTop(op);
    }

    void
    verifyScfFor(Operation *op)
    {
        if (op->numOperands() != 3)
            error(VerifyKind::InvalidBoundMap, op,
                  "scf.for requires lb, ub, step operands");
        if (op->numRegions() != 1 || op->region(0).size() != 1)
            error(VerifyKind::RegionShape, op,
                  "scf.for must have a single-block region");
    }

    /** L2: hlscpp directive attributes must be well-typed, placed on the
     * op class they describe, and carry a sane target II. */
    void
    verifyDirectiveAttrs(Operation *op)
    {
        if (op->hasAttr(kLoopDirective)) {
            Attribute a = op->attr(kLoopDirective);
            if (!a.is<LoopDirective>()) {
                error(VerifyKind::InvalidDirective, op,
                      "loop directive attribute has wrong type");
            } else if (!isLoop(op)) {
                error(VerifyKind::InvalidDirective, op,
                      "loop directive on a non-loop operation");
            } else if (a.getLoopDirective().targetII < 1) {
                error(VerifyKind::InvalidDirective, op,
                      "loop directive target II must be >= 1");
            }
        }
        if (op->hasAttr(kFuncDirective)) {
            Attribute a = op->attr(kFuncDirective);
            if (!a.is<FuncDirective>()) {
                error(VerifyKind::InvalidDirective, op,
                      "func directive attribute has wrong type");
            } else if (!op->is(ops::Func)) {
                error(VerifyKind::InvalidDirective, op,
                      "func directive on a non-func operation");
            } else if (a.getFuncDirective().targetII < 1) {
                error(VerifyKind::InvalidDirective, op,
                      "func directive target II must be >= 1");
            }
        }
        if (op->hasAttr(kDataflowStage)) {
            Attribute a = op->attr(kDataflowStage);
            if (!a.is<int64_t>() || a.getInt() < 0)
                error(VerifyKind::InvalidDirective, op,
                      "dataflow stage must be a non-negative integer");
        }
        if (op->hasAttr(kPointLoop)) {
            if (!op->attr(kPointLoop).is<bool>())
                error(VerifyKind::InvalidDirective, op,
                      "point-loop marker must be a bool");
            else if (!isLoop(op))
                error(VerifyKind::InvalidDirective, op,
                      "point-loop marker on a non-loop operation");
        }
        if (op->hasAttr(kTopFunc)) {
            if (!op->attr(kTopFunc).is<bool>() || !op->is(ops::Func))
                error(VerifyKind::InvalidDirective, op,
                      "top-func marker must be a bool on a func");
        }
    }

    /** L2: func.return only terminates a function body. The stage-overlap
     * model and the band walkers both assume control never leaves a band
     * early. */
    void
    verifyReturnPlacement(Operation *op)
    {
        if (!op->is(ops::Return))
            return;
        Operation *parent = op->parentOp();
        Block *block = op->parentBlock();
        if (!parent || !block)
            return; // detached return: nothing to judge it against
        if (!parent->is(ops::Func) || block->back() != op)
            error(VerifyKind::BadTerminator, op,
                  "func.return must be the last op of a func body");
    }

    /** L2: the body of a dataflow-top function may only contain stage
     * carriers (ops with a dataflow stage, calls, loops, graph ops) and
     * structural ops (allocs, constants, copies, the terminator). A bare
     * compute op here has no stage to overlap with — the dataflow latency
     * composition would silently misestimate it. */
    void
    verifyDataflowTop(Operation *func)
    {
        if (!getFuncDirective(func).dataflow)
            return;
        for (auto &child : funcBody(func)->ops()) {
            Operation *op = child.get();
            if (op->hasAttr(kDataflowStage) || op->is(ops::Call) ||
                isLoop(op) || op->is(ops::Alloc) ||
                op->is(ops::Constant) || op->is(ops::MemCopy) ||
                op->is(ops::Return) || op->dialect() == "graph")
                continue;
            error(VerifyKind::InvalidDataflow, op,
                  "op directly under a dataflow function carries no "
                  "dataflow stage");
        }
    }

    void
    verifyModule(Operation *module)
    {
        std::set<std::string> names;
        for (auto &op : module->region(0).front().ops()) {
            if (!op->is(ops::Func)) {
                error(VerifyKind::InvalidModule, op.get(),
                      "modules may only contain functions");
                continue;
            }
            std::string name = funcName(op.get());
            if (!names.insert(name).second)
                error(VerifyKind::DuplicateSymbol, op.get(),
                      "duplicate function name: " + name);
        }
        // Call graph: callees must exist with matching arity.
        module->walk([&](Operation *op) {
            if (!op->is(ops::Call))
                return;
            std::string callee = op->attr(kCallee).getString();
            Operation *target = lookupFunc(module, callee);
            if (!target) {
                error(VerifyKind::UnknownCallee, op,
                      "unknown callee: " + callee);
                return;
            }
            if (funcBody(target)->numArguments() != op->numOperands())
                error(VerifyKind::TypeMismatch, op,
                      "call arity mismatch for " + callee);
        });
    }

  private:
    VerifyLevel level_;
    std::unordered_set<const Block *> numbered_;
    std::unordered_map<const Operation *, size_t> index_;
};

} // namespace

std::vector<VerifyError>
verifyErrors(Operation *root, VerifyLevel level)
{
    Verifier v(level);
    if (root->is(ops::Module))
        v.verifyModule(root);
    root->walk([&](Operation *op) { v.verifyOperation(op); });
    return v.errors;
}

std::vector<VerifyError>
auditOverlayAliasing(const OverlayClone &overlay, Operation *base)
{
    std::vector<VerifyError> errors;
    if (!overlay.op) {
        errors.push_back({VerifyKind::OverlayIncomplete, "<overlay>",
                          "overlay has no operation"});
        return errors;
    }
    if (!overlay.complete)
        errors.push_back({VerifyKind::OverlayIncomplete,
                          opPath(overlay.op.get()),
                          "overlay clone is incomplete (a child referenced "
                          "a skipped subtree)"});

    // Values and ops owned by the overlay tree.
    std::unordered_set<const Value *> overlay_values;
    std::unordered_set<const Operation *> overlay_ops;
    overlay.op->walk([&](Operation *op) {
        overlay_ops.insert(op);
        for (unsigned i = 0; i < op->numResults(); ++i)
            overlay_values.insert(op->result(i));
        for (unsigned r = 0; r < op->numRegions(); ++r)
            for (auto &block : op->region(r).blocks())
                for (unsigned a = 0; a < block->numArguments(); ++a)
                    overlay_values.insert(block->argument(a));
    });

    // Every overlay operand must resolve inside the overlay or be the
    // null substitution cloneStrict leaves for read-only base references.
    overlay.op->walk([&](Operation *op) {
        for (unsigned i = 0; i < op->numOperands(); ++i) {
            Value *v = op->operand(i);
            if (v && !overlay_values.count(v))
                errors.push_back(
                    {VerifyKind::OverlayBaseAlias, opPath(op),
                     "'" + op->name() + "': operand #" + std::to_string(i) +
                         " aliases a value outside the overlay"});
        }
    });

    // The published value map must land inside the overlay tree.
    bool map_escapes = false;
    overlay.map.forEach([&](Value *, Value *overlay_v) {
        map_escapes |= overlay_v && !overlay_values.count(overlay_v);
    });
    if (map_escapes)
        errors.push_back({VerifyKind::OverlayBaseAlias,
                          opPath(overlay.op.get()),
                          "value map target lies outside the overlay"});
    for (const auto &[base_child, overlay_child] : overlay.children) {
        (void)base_child;
        if (overlay_child && !overlay_ops.count(overlay_child)) {
            errors.push_back({VerifyKind::OverlayBaseAlias,
                              opPath(overlay.op.get()),
                              "child map target lies outside the overlay"});
            break;
        }
    }

    // No base value may list an overlay op as a user: that is a mutable
    // path from the overlay into the shared pristine base (and a data
    // race under concurrent overlays).
    if (base) {
        base->walk([&](Operation *op) {
            auto check = [&](Value *v) {
                for (Operation *user : v->users())
                    if (overlay_ops.count(user))
                        errors.push_back(
                            {VerifyKind::OverlayUseLeak, opPath(user),
                             "overlay op '" + user->name() +
                                 "' is registered on the use list of a "
                                 "base value defined at " + opPath(op)});
            };
            for (unsigned i = 0; i < op->numResults(); ++i)
                check(op->result(i));
            for (unsigned r = 0; r < op->numRegions(); ++r)
                for (auto &block : op->region(r).blocks())
                    for (unsigned a = 0; a < block->numArguments(); ++a)
                        check(block->argument(a));
        });
    }
    return errors;
}

std::vector<std::string>
verify(Operation *root)
{
    std::vector<std::string> out;
    for (const VerifyError &e : verifyErrors(root))
        out.push_back(e.str());
    return out;
}

bool
verifyOk(Operation *root)
{
    return verify(root).empty();
}

} // namespace scalehls
