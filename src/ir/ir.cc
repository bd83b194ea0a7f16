#include "ir/ir.h"

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "support/utils.h"

namespace scalehls {

//
// Value
//

void
Value::replaceAllUsesWith(Value *other)
{
    assert(other != this && "self replacement");
    // Snapshot: setOperand mutates users_.
    auto users = users_;
    for (Operation *user : users) {
        for (unsigned i = 0; i < user->numOperands(); ++i) {
            if (user->operand(i) == this)
                user->setOperand(i, other);
        }
    }
}

//
// Operation
//

namespace {
/** Relaxed is enough: readers only ever diff two snapshots taken on the
 * same thread around the measured code path. */
std::atomic<size_t> created_count{0};
} // namespace

size_t
Operation::createdCount()
{
    return created_count.load(std::memory_order_relaxed);
}

std::unique_ptr<Operation>
Operation::create(std::string name, std::vector<Type> result_types,
                  std::vector<Value *> operands, AttrMap attrs,
                  unsigned num_regions)
{
    created_count.fetch_add(1, std::memory_order_relaxed);
    std::unique_ptr<Operation> op(new Operation());
    op->name_ = std::move(name);
    op->attrs_ = std::move(attrs);
    for (unsigned i = 0; i < result_types.size(); ++i) {
        auto res = std::make_unique<Value>(Value::Kind::OpResult,
                                           result_types[i], i);
        res->owner_ = op.get();
        op->results_.push_back(std::move(res));
    }
    for (Value *v : operands)
        op->addOperand(v);
    for (unsigned i = 0; i < num_regions; ++i) {
        auto region = std::make_unique<Region>();
        region->parent_ = op.get();
        op->regions_.push_back(std::move(region));
    }
    return op;
}

Operation::~Operation()
{
    // Nested state is destroyed by Region/Block destructors; ensure our own
    // operand uses are dropped so use counts stay consistent.
    dropAllReferences();
    for (auto &res : results_) {
        assert(res->useEmpty() && "destroying op with live uses");
        (void)res;
    }
}

std::string
Operation::dialect() const
{
    auto pos = name_.find('.');
    return pos == std::string::npos ? name_ : name_.substr(0, pos);
}

void
Operation::setOperand(unsigned i, Value *value)
{
    assert(i < operands_.size());
    Value *old = operands_[i];
    if (old == value)
        return;
    if (old) {
        auto &users = old->users_;
        auto it = std::find(users.begin(), users.end(), this);
        assert(it != users.end() && "use-list out of sync");
        users.erase(it);
    }
    operands_[i] = value;
    if (value)
        value->users_.push_back(this);
}

void
Operation::setOperands(const std::vector<Value *> &values)
{
    while (numOperands() > values.size())
        eraseOperand(numOperands() - 1);
    for (unsigned i = 0; i < values.size(); ++i) {
        if (i < numOperands())
            setOperand(i, values[i]);
        else
            addOperand(values[i]);
    }
}

void
Operation::addOperand(Value *value)
{
    operands_.push_back(nullptr);
    setOperand(operands_.size() - 1, value);
}

void
Operation::eraseOperand(unsigned i)
{
    setOperand(i, nullptr);
    operands_.erase(operands_.begin() + i);
}

void
Operation::dropAllReferences()
{
    for (unsigned i = 0; i < operands_.size(); ++i)
        setOperand(i, nullptr);
    operands_.clear();
    for (auto &region : regions_)
        for (auto &block : region->blocks_)
            for (auto &op : block->ops_)
                op->dropAllReferences();
}

std::vector<Value *>
Operation::results() const
{
    std::vector<Value *> out;
    out.reserve(results_.size());
    for (auto &r : results_)
        out.push_back(r.get());
    return out;
}

bool
Operation::useEmpty() const
{
    for (auto &r : results_)
        if (!r->useEmpty())
            return false;
    return true;
}

void
Operation::replaceAllUsesWith(Operation *other)
{
    assert(other->numResults() >= numResults());
    for (unsigned i = 0; i < numResults(); ++i)
        result(i)->replaceAllUsesWith(other->result(i));
}

Attribute
Operation::attr(const std::string &name) const
{
    auto it = attrs_.find(name);
    return it == attrs_.end() ? Attribute() : it->second;
}

Operation *
Operation::parentOp() const
{
    return parent_ ? parent_->parentOp() : nullptr;
}

Operation *
Operation::parentOfName(std::string_view name) const
{
    for (Operation *p = parentOp(); p; p = p->parentOp())
        if (p->is(name))
            return p;
    return nullptr;
}

bool
Operation::isAncestorOf(const Operation *other) const
{
    for (const Operation *p = other->parentOp(); p; p = p->parentOp())
        if (p == this)
            return true;
    return false;
}

Operation *
Operation::nextOp() const
{
    assert(parent_);
    auto it = std::next(pos_);
    return it == parent_->ops_.end() ? nullptr : it->get();
}

Operation *
Operation::prevOp() const
{
    assert(parent_);
    return pos_ == parent_->ops_.begin() ? nullptr : std::prev(pos_)->get();
}

bool
Operation::isBeforeInBlock(const Operation *other) const
{
    assert(parent_ && parent_ == other->parent_ &&
           "ops must share a block");
    for (auto &op : parent_->ops_) {
        if (op.get() == this)
            return true;
        if (op.get() == other)
            return false;
    }
    return false;
}

bool
Operation::positionValid() const
{
    return !parent_ || pos_->get() == this;
}

void
Operation::moveBefore(Operation *anchor)
{
    assert(anchor->parentBlock());
    auto self = parent_->take(this);
    anchor->parentBlock()->insertBefore(anchor, std::move(self));
}

void
Operation::moveAfter(Operation *anchor)
{
    assert(anchor->parentBlock());
    auto self = parent_->take(this);
    anchor->parentBlock()->insertAfter(anchor, std::move(self));
}

void
Operation::erase()
{
    assert(parent_ && "erasing a detached op");
    parent_->erase(this);
}

namespace {

void
collectPreOrder(Operation *op, std::vector<Operation *> &out)
{
    out.push_back(op);
    for (unsigned i = 0; i < op->numRegions(); ++i)
        for (auto &block : op->region(i).blocks())
            for (auto &nested : block->ops())
                collectPreOrder(nested.get(), out);
}

void
collectPostOrder(Operation *op, std::vector<Operation *> &out)
{
    for (unsigned i = 0; i < op->numRegions(); ++i)
        for (auto &block : op->region(i).blocks())
            for (auto &nested : block->ops())
                collectPostOrder(nested.get(), out);
    out.push_back(op);
}

} // namespace

void
Operation::walk(const std::function<void(Operation *)> &fn)
{
    std::vector<Operation *> ops;
    collectPreOrder(this, ops);
    for (Operation *op : ops)
        fn(op);
}

void
Operation::walkPostOrder(const std::function<void(Operation *)> &fn)
{
    std::vector<Operation *> ops;
    collectPostOrder(this, ops);
    for (Operation *op : ops)
        fn(op);
}

std::vector<Operation *>
Operation::collect(std::string_view name)
{
    std::vector<Operation *> out;
    walk([&](Operation *op) {
        if (op->is(name))
            out.push_back(op);
    });
    return out;
}

size_t
Operation::countValues() const
{
    size_t count = results_.size();
    for (const auto &region : regions_)
        for (const auto &block : region->blocks_) {
            count += block->args_.size();
            for (const auto &op : block->ops_)
                count += op->countValues();
        }
    return count;
}

std::unique_ptr<Operation>
Operation::cloneImpl(IRMapping &mapping, bool *complete) const
{
    std::vector<Type> result_types;
    result_types.reserve(results_.size());
    for (auto &r : results_)
        result_types.push_back(r->type());

    std::vector<Value *> new_operands;
    new_operands.reserve(operands_.size());
    for (Value *v : operands_) {
        Value *mapped = v ? mapping.lookupOrNull(v) : nullptr;
        if (!mapped && v && complete) {
            // Strict mode: never alias the original value (that would
            // mutate its use list — the shared base of an overlay).
            *complete = false;
            v = nullptr;
        }
        new_operands.push_back(mapped ? mapped : v);
    }

    auto cloned = create(name_, std::move(result_types),
                         std::move(new_operands), attrs_, 0);
    for (unsigned i = 0; i < numResults(); ++i)
        mapping.map(results_[i].get(), cloned->results_[i].get());

    for (auto &region : regions_) {
        auto new_region = std::make_unique<Region>();
        new_region->parent_ = cloned.get();
        for (auto &block : region->blocks_) {
            Block *new_block = new_region->addBlock();
            for (auto &arg : block->args_) {
                Value *new_arg = new_block->addArgument(arg->type());
                mapping.map(arg.get(), new_arg);
            }
            for (auto &op : block->ops_)
                new_block->pushBack(op->cloneImpl(mapping, complete));
        }
        cloned->regions_.push_back(std::move(new_region));
    }
    return cloned;
}

std::unique_ptr<Operation>
Operation::clone(IRMapping &mapping) const
{
    mapping.reserve(mapping.size() + countValues());
    return cloneImpl(mapping);
}

std::unique_ptr<Operation>
Operation::clone() const
{
    IRMapping mapping(countValues());
    return cloneImpl(mapping);
}

std::unique_ptr<Operation>
Operation::cloneStrict(IRMapping &mapping, bool &complete) const
{
    complete = true;
    mapping.reserve(mapping.size() + countValues());
    return cloneImpl(mapping, &complete);
}

//
// Block
//

Block::~Block()
{
    // First drop all references so ops may be destroyed in any order.
    for (auto &op : ops_)
        op->dropAllReferences();
    ops_.clear();
}

std::vector<Value *>
Block::arguments() const
{
    std::vector<Value *> out;
    out.reserve(args_.size());
    for (auto &a : args_)
        out.push_back(a.get());
    return out;
}

Value *
Block::addArgument(Type type)
{
    auto arg = std::make_unique<Value>(Value::Kind::BlockArg,
                                       std::move(type), args_.size());
    arg->block_ = this;
    args_.push_back(std::move(arg));
    return args_.back().get();
}

std::vector<Operation *>
Block::opsVector() const
{
    std::vector<Operation *> out;
    out.reserve(ops_.size());
    for (auto &op : ops_)
        out.push_back(op.get());
    return out;
}

Operation *
Block::link(OpList::iterator it, std::unique_ptr<Operation> op)
{
    Operation *raw = op.get();
    raw->parent_ = this;
    raw->pos_ = ops_.insert(it, std::move(op));
    return raw;
}

Operation *
Block::pushBack(std::unique_ptr<Operation> op)
{
    return link(ops_.end(), std::move(op));
}

Operation *
Block::pushFront(std::unique_ptr<Operation> op)
{
    return link(ops_.begin(), std::move(op));
}

Operation *
Block::insertBefore(Operation *anchor, std::unique_ptr<Operation> op)
{
    if (!anchor)
        return pushBack(std::move(op));
    assert(anchor->parent_ == this);
    return link(anchor->pos_, std::move(op));
}

Operation *
Block::insertAfter(Operation *anchor, std::unique_ptr<Operation> op)
{
    assert(anchor && anchor->parent_ == this);
    return link(std::next(anchor->pos_), std::move(op));
}

std::unique_ptr<Operation>
Block::take(Operation *op)
{
    assert(op->parent_ == this && "op not in this block");
    auto owned = std::move(*op->pos_);
    ops_.erase(op->pos_);
    owned->parent_ = nullptr;
    return owned;
}

void
Block::erase(Operation *op)
{
    auto owned = take(op);
    owned->dropAllReferences();
    // owned destroyed here; results must be unused (asserted in ~Operation).
}

Operation *
Block::parentOp() const
{
    return parent_ ? parent_->parentOp() : nullptr;
}

//
// Region
//

Block *
Region::addBlock()
{
    auto block = std::make_unique<Block>();
    block->parent_ = this;
    blocks_.push_back(std::move(block));
    return blocks_.back().get();
}

} // namespace scalehls
