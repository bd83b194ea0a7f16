/**
 * @file
 * The SSA IR core: Value, Operation, Block, Region and IRMapping.
 *
 * The design mirrors MLIR's structure at the scale this project needs:
 * an Operation is the minimal unit of code; it accepts typed operands,
 * produces typed results, carries named attributes and may contain Regions;
 * a Region holds Blocks; a Block holds a sequence of Operations plus typed
 * block arguments (used for loop induction variables and function
 * parameters). Def-use chains are maintained eagerly so transforms can query
 * users and rewrite uses. An IRMapping records which value stands for which
 * while a tree is cloned.
 */

#ifndef SCALEHLS_IR_IR_H
#define SCALEHLS_IR_IR_H

#include <cassert>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ir/attributes.h"
#include "ir/types.h"

namespace scalehls {

class Operation;
class Block;
class Region;

/** The owning op list of a Block. */
using OpList = std::list<std::unique_ptr<Operation>>;

/** An SSA value: either the result of an Operation or a Block argument. */
class Value
{
  public:
    /** Where this value comes from. */
    enum class Kind { OpResult, BlockArg };

    Value(Kind kind, Type type, unsigned index)
        : kind_(kind), type_(std::move(type)), index_(index)
    {}

    Kind kind() const { return kind_; }
    bool isOpResult() const { return kind_ == Kind::OpResult; }
    bool isBlockArg() const { return kind_ == Kind::BlockArg; }

    Type type() const { return type_; }
    /** Mutate the type in place (used when re-typing memrefs, e.g. by the
     * array-partition pass). All uses observe the new type. */
    void setType(Type type) { type_ = std::move(type); }

    /** Result / argument position. */
    unsigned index() const { return index_; }

    /** The defining operation, or nullptr for block arguments. */
    Operation *definingOp() const
    {
        return isOpResult() ? owner_ : nullptr;
    }
    /** The owning block for block arguments, or nullptr. */
    Block *ownerBlock() const { return isBlockArg() ? block_ : nullptr; }

    /** Operations using this value; one entry per use (duplicates possible
     * when an op uses the value in several operand slots). */
    const std::vector<Operation *> &users() const { return users_; }
    bool useEmpty() const { return users_.empty(); }
    size_t numUses() const { return users_.size(); }

    /** Rewrite every use of this value to use @p other instead. */
    void replaceAllUsesWith(Value *other);

  private:
    friend class Operation;
    friend class Block;

    Kind kind_;
    Type type_;
    unsigned index_;
    Operation *owner_ = nullptr;
    Block *block_ = nullptr;
    std::vector<Operation *> users_;
};

/** The value map of a clone: source value -> cloned value. Open-addressed
 * and pointer-keyed with linear probing; a clone reserves room for the
 * cloned tree's values up front, so it rehashes at most once.
 * Callers that clone op after op into one block (unrolling, inlining,
 * overlays) pass the same mapping to every clone, so later ops resolve
 * their operands to earlier clones; each clone costs O(its own size),
 * never a copy of the entries already recorded. */
class IRMapping
{
  public:
    explicit IRMapping(size_t expected = 0) { rehash(capacityFor(expected)); }

    /** Record @p from -> @p to, overwriting an earlier entry for @p from. */
    void
    map(Value *from, Value *to)
    {
        if ((size_ + 1) * 2 > slots_.size())
            rehash(slots_.size() * 2);
        insertSlot(from, to);
    }

    /** The value @p from maps to, or nullptr when it is unmapped. */
    Value *
    lookupOrNull(Value *from) const
    {
        for (size_t i = hash(from) & mask_;; i = (i + 1) & mask_) {
            const auto &slot = slots_[i];
            if (!slot.first)
                return nullptr;
            if (slot.first == from)
                return slot.second;
        }
    }

    /** The value @p from maps to; @p from must be mapped. */
    Value *
    lookup(Value *from) const
    {
        Value *to = lookupOrNull(from);
        assert(to && "IRMapping::lookup of an unmapped value");
        return to;
    }

    /** Number of recorded entries. */
    size_t size() const { return size_; }

    /** Make room for @p count entries in total without further growth. */
    void
    reserve(size_t count)
    {
        if (count * 2 > slots_.size())
            rehash(capacityFor(count));
    }

    /** Call @p fn(from, to) on every entry, in unspecified order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const auto &slot : slots_)
            if (slot.first)
                fn(slot.first, slot.second);
    }

  private:
    static size_t
    capacityFor(size_t count)
    {
        size_t cap = 16;
        while (cap < count * 2)
            cap <<= 1;
        return cap;
    }

    static size_t
    hash(const Value *v)
    {
        // Pointer bits are alignment-poor in the low bits; mix them.
        auto x = reinterpret_cast<uintptr_t>(v);
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdull;
        x ^= x >> 29;
        return static_cast<size_t>(x);
    }

    void
    insertSlot(Value *from, Value *to)
    {
        for (size_t i = hash(from) & mask_;; i = (i + 1) & mask_) {
            if (!slots_[i].first) {
                slots_[i] = {from, to};
                ++size_;
                return;
            }
            if (slots_[i].first == from) {
                slots_[i].second = to;
                return;
            }
        }
    }

    void
    rehash(size_t capacity)
    {
        auto old = std::move(slots_);
        slots_.assign(capacity, {nullptr, nullptr});
        mask_ = capacity - 1;
        size_ = 0;
        for (const auto &slot : old)
            if (slot.first)
                insertSlot(slot.first, slot.second);
    }

    std::vector<std::pair<Value *, Value *>> slots_;
    size_t mask_ = 0;
    size_t size_ = 0;
};

/** Ordered attribute dictionary (ordered for deterministic printing). */
using AttrMap = std::map<std::string, Attribute>;

/** An operation: name + operands + results + attributes + regions. */
class Operation
{
  public:
    ~Operation();
    Operation(const Operation &) = delete;
    Operation &operator=(const Operation &) = delete;

    /** Create a detached operation. Insert it into a Block to give it a
     * position; top-level module ops stay detached. */
    static std::unique_ptr<Operation> create(std::string name,
                                             std::vector<Type> result_types,
                                             std::vector<Value *> operands,
                                             AttrMap attrs = {},
                                             unsigned num_regions = 0);

    /** Process-wide count of operations ever created (relaxed counter).
     * Deltas around a code path measure its IR construction cost: a
     * zero delta proves the path built no IR at all (module clones are
     * create() storms, so "zero creations" implies "zero clones"). */
    static size_t createdCount();

    const std::string &name() const { return name_; }
    bool is(std::string_view n) const { return name_ == n; }
    /** Dialect prefix, e.g. "affine" for "affine.for". */
    std::string dialect() const;

    /** @name Operands */
    ///@{
    unsigned numOperands() const { return operands_.size(); }
    Value *operand(unsigned i) const { return operands_[i]; }
    const std::vector<Value *> &operands() const { return operands_; }
    void setOperand(unsigned i, Value *value);
    void setOperands(const std::vector<Value *> &values);
    void addOperand(Value *value);
    void eraseOperand(unsigned i);
    /** Drop all operand uses (sets them to null). Recurses into regions. */
    void dropAllReferences();
    ///@}

    /** @name Results */
    ///@{
    unsigned numResults() const { return results_.size(); }
    Value *result(unsigned i = 0) const { return results_[i].get(); }
    std::vector<Value *> results() const;
    /** True if no result has any use. */
    bool useEmpty() const;
    /** Replace all uses of each result with the corresponding result of
     * @p other (must have at least as many results). */
    void replaceAllUsesWith(Operation *other);
    ///@}

    /** @name Attributes */
    ///@{
    const AttrMap &attrs() const { return attrs_; }
    bool hasAttr(const std::string &name) const
    {
        return attrs_.count(name) != 0;
    }
    /** The attribute or a null Attribute if absent. */
    Attribute attr(const std::string &name) const;
    void setAttr(const std::string &name, Attribute value)
    {
        attrs_[name] = std::move(value);
    }
    void removeAttr(const std::string &name) { attrs_.erase(name); }
    ///@}

    /** @name Regions */
    ///@{
    unsigned numRegions() const { return regions_.size(); }
    Region &region(unsigned i = 0) { return *regions_[i]; }
    const Region &region(unsigned i = 0) const { return *regions_[i]; }
    ///@}

    /** @name Position */
    ///@{
    Block *parentBlock() const { return parent_; }
    /** The op owning the region this op's block belongs to. */
    Operation *parentOp() const;
    /** Nearest ancestor (not self) with the given name, or nullptr. */
    Operation *parentOfName(std::string_view name) const;
    /** True if this op is an ancestor of (properly contains) @p other. */
    bool isAncestorOf(const Operation *other) const;
    /** Next / previous op in the parent block (nullptr at the ends). */
    Operation *nextOp() const;
    Operation *prevOp() const;
    /** True if this op appears before @p other in the same block. */
    bool isBeforeInBlock(const Operation *other) const;
    /** True if this op sits at its recorded position in its parent block
     * (the structural verifier's check; always true for detached ops). */
    bool positionValid() const;
    /** Unlink from the current block and insert before/after @p anchor. */
    void moveBefore(Operation *anchor);
    void moveAfter(Operation *anchor);
    /** Unlink from the parent block and delete. Results must be unused. */
    void erase();
    ///@}

    /** @name Traversal */
    ///@{
    /** Pre-order walk over this op and all nested ops. The walk snapshots
     * the op list first, so the callback may erase the op it is given (but
     * must not erase other not-yet-visited ops). */
    void walk(const std::function<void(Operation *)> &fn);
    /** Post-order variant (nested ops first). */
    void walkPostOrder(const std::function<void(Operation *)> &fn);
    /** Collect all ops with the given name, in pre-order. */
    std::vector<Operation *> collect(std::string_view name);
    ///@}

    /** Deep-clone this operation. Operand uses are remapped through
     * @p mapping (falling back to the original value for values defined
     * outside the cloned tree); cloned results/block-args are recorded
     * into @p mapping. */
    std::unique_ptr<Operation> clone(IRMapping &mapping) const;
    /** Clone with a fresh empty mapping. Hot path of the DSE stack (one
     * clone per materialized design point). */
    std::unique_ptr<Operation> clone() const;

    /** Strict deep-clone for copy-on-write overlays: like clone(), but a
     * use of a value that is neither in @p mapping nor defined inside the
     * cloned tree becomes a NULL operand and clears @p complete, instead
     * of falling back to the original value. The fallback would register
     * the clone on the original value's use list — a write to the shared
     * base that races concurrent overlay builds over one pristine module.
     * An incomplete strict clone must be discarded by the caller. */
    std::unique_ptr<Operation> cloneStrict(IRMapping &mapping,
                                           bool &complete) const;

    /** Number of values (op results + block arguments) defined inside
     * this op's tree, i.e. the number of remap entries a clone records. */
    size_t countValues() const;

  private:
    Operation() = default;
    friend class Block;

    /** Shared clone core over a pre-sized mapping. With @p complete
     * non-null, unmapped external uses become null operands and clear it
     * (the strict mode of cloneStrict); with it null, they fall back to
     * the original value (the classic clone semantics). */
    std::unique_ptr<Operation> cloneImpl(IRMapping &mapping,
                                         bool *complete = nullptr) const;

    std::string name_;
    std::vector<Value *> operands_;
    std::vector<std::unique_ptr<Value>> results_;
    AttrMap attrs_;
    std::vector<std::unique_ptr<Region>> regions_;
    Block *parent_ = nullptr;
    /** This op's node in parent_->ops_; meaningful only while parent_ is
     * set. Every block insertion records it, so unlinking, moving and
     * neighbour queries are O(1) instead of a scan of the block. */
    OpList::iterator pos_;
};

/** A straight-line sequence of operations with typed block arguments. */
class Block
{
  public:
    Block() = default;
    ~Block();
    Block(const Block &) = delete;
    Block &operator=(const Block &) = delete;

    /** @name Arguments */
    ///@{
    unsigned numArguments() const { return args_.size(); }
    Value *argument(unsigned i) const { return args_[i].get(); }
    std::vector<Value *> arguments() const;
    Value *addArgument(Type type);
    ///@}

    /** @name Operations */
    ///@{
    bool empty() const { return ops_.empty(); }
    size_t size() const { return ops_.size(); }
    Operation *front() const { return ops_.front().get(); }
    Operation *back() const { return ops_.back().get(); }
    /** Snapshot of the op list (safe to mutate the block afterwards). */
    std::vector<Operation *> opsVector() const;
    const OpList &ops() const { return ops_; }

    Operation *pushBack(std::unique_ptr<Operation> op);
    Operation *pushFront(std::unique_ptr<Operation> op);
    /** Insert before @p anchor (anchor==nullptr appends). Insertion, take
     * and erase are O(1): each op records its own list position. */
    Operation *insertBefore(Operation *anchor,
                            std::unique_ptr<Operation> op);
    Operation *insertAfter(Operation *anchor, std::unique_ptr<Operation> op);
    /** Unlink @p op without destroying it. */
    std::unique_ptr<Operation> take(Operation *op);
    /** Unlink and destroy @p op. */
    void erase(Operation *op);
    ///@}

    Region *parentRegion() const { return parent_; }
    Operation *parentOp() const;

  private:
    friend class Region;
    friend class Operation;

    /** Link @p op into ops_ before @p it and record its position. */
    Operation *link(OpList::iterator it, std::unique_ptr<Operation> op);

    std::vector<std::unique_ptr<Value>> args_;
    OpList ops_;
    Region *parent_ = nullptr;
};

/** A list of blocks owned by an operation. Structured-control-flow regions
 * in this project always hold exactly one block. */
class Region
{
  public:
    Region() = default;
    Region(const Region &) = delete;
    Region &operator=(const Region &) = delete;

    bool empty() const { return blocks_.empty(); }
    size_t size() const { return blocks_.size(); }
    Block &front() { return *blocks_.front(); }
    const Block &front() const { return *blocks_.front(); }
    const std::list<std::unique_ptr<Block>> &blocks() const
    {
        return blocks_;
    }

    Block *addBlock();
    Operation *parentOp() const { return parent_; }

  private:
    friend class Operation;

    std::list<std::unique_ptr<Block>> blocks_;
    Operation *parent_ = nullptr;
};

/** Convenience: op != nullptr and has the given name. */
inline bool
isa(const Operation *op, std::string_view name)
{
    return op && op->is(name);
}

} // namespace scalehls

#endif // SCALEHLS_IR_IR_H
