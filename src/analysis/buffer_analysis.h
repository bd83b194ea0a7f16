/**
 * @file
 * Buffer-ownership analysis over a function's locally allocated memrefs:
 * which top-level loop band(s) a buffer's defs/uses are confined to. The
 * plan-first DSE evaluator (dse/band_plan.h) uses it to decide whether
 * the function-wide cleanup pipeline is provably band-local on
 * alloc-carrying functions (DNN accelerator stages, dataflow channel
 * buffers), and to replay the memory-resource accounting of the skipped
 * phase 2.
 */

#ifndef SCALEHLS_ANALYSIS_BUFFER_ANALYSIS_H
#define SCALEHLS_ANALYSIS_BUFFER_ANALYSIS_H

#include <string>
#include <vector>

#include "dialect/ops.h"

namespace scalehls {

/** How a locally allocated buffer's uses relate to the function's
 * top-level loop bands. */
enum class BufferOwnership
{
    /** No users at all: cleanup erases the alloc. */
    Dead,
    /** Every user is a plain load/store inside ONE top-level band. */
    BandLocal,
    /** Users span exactly two bands as one producer→consumer edge: the
     * earlier band only stores, the later band loads (a dataflow channel
     * buffer, or the equivalent RAW edge of a sequential function). */
    DataflowEdge,
    /** One producer band, SEVERAL reader stages: the first band only
     * stores, every later band only loads (a broadcast channel — e.g.
     * one feature map consumed by two downstream layers). Still a legal
     * dataflow channel: the later stages cannot write back, so no
     * WAR/WAW hazard crosses the stage overlap. */
    MultiConsumer,
    /** Users are plain loads/stores confined to bands, but span a longer
     * producer/consumer chain (the init → accumulate → consume pattern
     * of lowered DNN layers). */
    SharedChain,
    /** The buffer escapes band-local reasoning: a user outside every
     * band, a non-load/store user (call, copy, return), or the memref
     * stored as a VALUE into other memory. */
    Escaping,
};

/** One classified buffer. */
struct OwnedBuffer
{
    Operation *alloc = nullptr;
    Value *memref = nullptr;
    BufferOwnership ownership = BufferOwnership::Escaping;
    /** BandLocal: the owning band. DataflowEdge/MultiConsumer: the
     * producer band. */
    int owner = -1;
    /** DataflowEdge: the consumer band. */
    int consumer = -1;
    /** Band indices that access the buffer, ascending. */
    std::vector<int> bands;
    /** True when every user is a store: -affine-store-forward's
     * write-only-buffer cleanup erases the alloc and all its stores. */
    bool writeOnly = false;
    /** True when cleanup keeps the buffer (some user reads it); the
     * opposite of writeOnly for non-Dead buffers. A kept buffer's FINAL
     * (possibly partitioned) type is what the function-level memory
     * accounting reads. */
    bool kept = false;
};

/** Ownership of every memref.alloc in one function. */
struct AllocOwnershipInfo
{
    std::vector<OwnedBuffer> buffers;

    /** True when no buffer is Escaping — the write-only-buffer cleanup's
     * per-buffer decision is then fully determined by the per-band use
     * pattern the analysis saw. */
    bool allOwned = true;

    /** The record of @p memref, or nullptr. */
    const OwnedBuffer *find(const Value *memref) const;

    /** True when every buffer is eligible for band-local cleanup
     * reasoning under the given top-level composition: sequential
     * functions admit Dead/BandLocal/DataflowEdge/MultiConsumer/
     * SharedChain; a dataflow top additionally requires every inter-band
     * buffer to be a legal channel — one producer feeding one consumer
     * (DataflowEdge) or several read-only stages (MultiConsumer). */
    bool eligible(bool dataflow_top) const;

    /** The digest annotation of @p memref's ownership ("kept"/"dead"),
     * folded into phase-1 band digests: a band's post-cleanup content
     * depends on whether each referenced local buffer survives the
     * write-only cleanup, which the band's own subtree cannot see. Empty
     * for values the analysis does not track. */
    std::string digestNote(const Value *memref) const;
};

/** Classify every memref.alloc of @p func against @p band_roots (the
 * function's top-level band roots, body order). Allocs nested INSIDE a
 * band are classified like flat ones (their users are confined to the
 * enclosing band by dominance, so they come out BandLocal). */
AllocOwnershipInfo bandLocalAllocs(
    Operation *func, const std::vector<Operation *> &band_roots);

} // namespace scalehls

#endif // SCALEHLS_ANALYSIS_BUFFER_ANALYSIS_H
