/**
 * @file
 * Copy-on-write overlay clones. An overlay is a partial deep copy of a
 * region-bearing operation (in practice: a function): the shell — name,
 * attributes, block arguments — plus every top-level child op EXCEPT a
 * caller-selected skip set, whose subtrees are simply omitted. Skipped
 * subtrees stay reachable only through the untouched base, so an overlay
 * over an N-band function pays for exactly the bands it rematerializes.
 *
 * The base is never written: children are cloned with
 * Operation::cloneStrict, which substitutes NULL for any operand that
 * would otherwise alias a base value (aliasing would register the clone
 * on the base value's use list — a data race under concurrent overlays
 * over one shared pristine module). An overlay whose clone came back
 * incomplete must be discarded; completeness is reported per overlay.
 */

#ifndef SCALEHLS_IR_OVERLAY_H
#define SCALEHLS_IR_OVERLAY_H

#include <memory>
#include <set>
#include <unordered_map>

#include "ir/ir.h"

namespace scalehls {

/** The result of overlayClone(): the overlay op, the base-to-overlay
 * value map (block arguments and every value defined by a cloned child),
 * and the overlay copy of each kept top-level child. */
struct OverlayClone
{
    std::unique_ptr<Operation> op;
    /** False when some cloned child referenced a value that is neither a
     * mapped block argument nor defined by an earlier kept child — e.g.
     * a result of a skipped subtree. The overlay is unusable then. */
    bool complete = true;
    /** Base value -> overlay value. */
    IRMapping map;
    /** Base top-level child -> its overlay clone (kept children only). */
    std::unordered_map<Operation *, Operation *> children;
};

/** Build a copy-on-write overlay of @p base (an operand-less region
 * op, e.g. a func): clone the shell and, in body order, every top-level
 * child not in @p skip. Children in @p skip are omitted entirely — their
 * subtrees are shared with (i.e. only exist in) the base. The base is
 * only read, never mutated, so concurrent overlayClone calls over one
 * base are safe. */
OverlayClone overlayClone(Operation *base,
                          const std::set<const Operation *> &skip);

} // namespace scalehls

#endif // SCALEHLS_IR_OVERLAY_H
