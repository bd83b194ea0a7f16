/** @file Unit tests for the IR core: ops, use lists, cloning, verifier. */

#include <gtest/gtest.h>

#include "dialect/ops.h"
#include "ir/printer.h"
#include "ir/verifier.h"

namespace scalehls {
namespace {

/** Build func @f(memref<8xf32>) { %c = const 0; %v = load %arg[%c];
 * %s = addf %v, %v; store %s, %arg[%c]; return }. */
struct SimpleFunc
{
    std::unique_ptr<Operation> module = createModule();
    Operation *func = nullptr;
    Value *arg = nullptr;

    SimpleFunc()
    {
        func = createFunc(module.get(), "f",
                          {Type::memref({8}, Type::f32())});
        arg = funcBody(func)->argument(0);
    }
};

TEST(IR, CreateAndUseList)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    Operation *c0 = createConstantIndex(b, 0);
    Operation *load = createMemLoad(b, f.arg, {c0->result(0)});
    Operation *add =
        createBinary(b, ops::AddF, load->result(0), load->result(0));

    EXPECT_EQ(load->result(0)->numUses(), 2u);
    EXPECT_EQ(c0->result(0)->numUses(), 1u);
    EXPECT_EQ(add->operand(0), load->result(0));
    EXPECT_EQ(load->parentBlock(), body);
    EXPECT_EQ(load->parentOp(), f.func);
    EXPECT_EQ(f.func->parentOp(), f.module.get());
}

TEST(IR, ReplaceAllUsesWith)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    Operation *c0 = createConstantIndex(b, 0);
    Operation *c1 = createConstantIndex(b, 1);
    Operation *load = createMemLoad(b, f.arg, {c0->result(0)});
    c0->result(0)->replaceAllUsesWith(c1->result(0));
    EXPECT_EQ(load->operand(1), c1->result(0));
    EXPECT_TRUE(c0->result(0)->useEmpty());
    EXPECT_EQ(c1->result(0)->numUses(), 1u);
}

TEST(IR, EraseRequiresNoUses)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    Operation *c0 = createConstantIndex(b, 0);
    Operation *load = createMemLoad(b, f.arg, {c0->result(0)});
    // Erase the load first, then the constant.
    load->erase();
    EXPECT_TRUE(c0->result(0)->useEmpty());
    c0->erase();
    EXPECT_EQ(body->size(), 1u); // Only func.return remains.
}

TEST(IR, MoveBeforeAfter)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    Operation *c0 = createConstantIndex(b, 0);
    Operation *c1 = createConstantIndex(b, 1);
    EXPECT_TRUE(c0->isBeforeInBlock(c1));
    c0->moveAfter(c1);
    EXPECT_TRUE(c1->isBeforeInBlock(c0));
    c0->moveBefore(c1);
    EXPECT_TRUE(c0->isBeforeInBlock(c1));
    EXPECT_EQ(c0->nextOp(), c1);
    EXPECT_EQ(c1->prevOp(), c0);
}

TEST(IR, WalkOrders)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    AffineForOp loop = createAffineFor(b, 0, 4);
    OpBuilder inner(loop.body());
    createConstantIndex(inner, 7);

    std::vector<std::string> pre;
    f.module->walk([&](Operation *op) { pre.push_back(op->name()); });
    ASSERT_EQ(pre.size(), 5u);
    EXPECT_EQ(pre[0], "builtin.module");
    EXPECT_EQ(pre[1], "func.func");
    EXPECT_EQ(pre[2], "affine.for");
    EXPECT_EQ(pre[3], "arith.constant");

    std::vector<std::string> post;
    f.module->walkPostOrder(
        [&](Operation *op) { post.push_back(op->name()); });
    EXPECT_EQ(post.back(), "builtin.module");
    EXPECT_EQ(post.front(), "arith.constant");
}

TEST(IR, CloneDeep)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    AffineForOp loop = createAffineFor(b, 0, 8, 2);
    OpBuilder inner(loop.body());
    Operation *load = createAffineLoad(
        inner, f.arg, AffineMap::identity(1), {loop.inductionVar()});
    createAffineStore(inner, load->result(0), f.arg,
                      AffineMap::identity(1), {loop.inductionVar()});

    auto cloned_module = f.module->clone();
    EXPECT_TRUE(verifyOk(cloned_module.get()));

    // The clone has its own values: mutating the original types must not
    // leak into the clone.
    Operation *orig_func = getTopFunc(f.module.get());
    Operation *new_func = getTopFunc(cloned_module.get());
    EXPECT_NE(orig_func, new_func);
    EXPECT_EQ(printOp(orig_func), printOp(new_func));
    funcBody(orig_func)->argument(0)->setType(
        Type::memref({8}, Type::f64()));
    EXPECT_EQ(funcBody(new_func)->argument(0)->type(),
              Type::memref({8}, Type::f32()));
}

TEST(IR, CloneRemapNestedRegionsAndMultiResult)
{
    // The clone mapping must remap operands across nested regions and
    // through multi-result ops.
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    Operation *multi =
        b.create("test.multi", {Type::f32(), Type::index()}, {});
    AffineForOp outer = createAffineFor(b, 0, 4);
    OpBuilder mid(outer.body());
    AffineForOp inner_loop = createAffineFor(mid, 0, 2);
    OpBuilder inner(inner_loop.body());
    // Operands reach across two region levels and pick specific results.
    Operation *load = createAffineLoad(
        inner, f.arg, AffineMap::identity(1), {multi->result(1)});
    Operation *add =
        createBinary(inner, ops::AddF, load->result(0),
                     multi->result(0));
    createAffineStore(inner, add->result(0), f.arg,
                      AffineMap::identity(1),
                      {inner_loop.inductionVar()});

    IRMapping mapping;
    auto cloned = f.func->clone(mapping);

    // Every value of the tree is recorded, results and block args alike.
    EXPECT_EQ(mapping.size(), f.func->countValues());
    mapping.forEach([](Value *from, Value *to) {
        EXPECT_NE(from, to);
        EXPECT_EQ(from->type(), to->type());
        EXPECT_EQ(from->index(), to->index());
    });

    // The cloned load/add reference the CLONED multi-result op, slot by
    // slot, and the cloned store uses the cloned inner loop's IV.
    Operation *cloned_multi = cloned->collect("test.multi").front();
    Operation *cloned_load =
        cloned->collect(ops::AffineLoad).front();
    Operation *cloned_add = cloned->collect(ops::AddF).front();
    Operation *cloned_store =
        cloned->collect(ops::AffineStore).front();
    EXPECT_EQ(cloned_load->operand(1), cloned_multi->result(1));
    EXPECT_EQ(cloned_add->operand(1), cloned_multi->result(0));
    Operation *cloned_inner = cloned->collect(ops::AffineFor)[1];
    EXPECT_EQ(cloned_store->operand(2),
              cloned_inner->region(0).front().argument(0));
    // Values defined OUTSIDE the cloned tree keep their original
    // identity (the function argument is inside here, but the module's
    // print must match either way).
    EXPECT_EQ(printOp(f.func), printOp(cloned.get()));
}

TEST(IR, ClonePrepopulatedMappingRedirectsExternals)
{
    // clone(mapping) with pre-seeded entries must redirect references to
    // values defined outside the cloned subtree — the loop-tiling /
    // perfectization transforms rely on this.
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    Operation *c0 = createConstantIndex(b, 0);
    Operation *c1 = createConstantIndex(b, 1);
    AffineForOp loop = createAffineFor(b, 0, 4);
    OpBuilder inner(loop.body());
    createMemLoad(inner, f.arg, {c0->result(0)});

    IRMapping mapping;
    mapping.map(c0->result(0), c1->result(0));
    auto cloned_loop = loop.op()->clone(mapping);
    Operation *cloned_load =
        cloned_loop->collect(ops::MemLoad).front();
    EXPECT_EQ(cloned_load->operand(1), c1->result(0));
    // Pre-seeded entries survive alongside the new ones.
    EXPECT_EQ(mapping.lookup(c0->result(0)), c1->result(0));
    EXPECT_EQ(mapping.size(), 1 + cloned_loop->countValues());
    // An unmapped external (the function argument) falls back to itself.
    EXPECT_EQ(mapping.lookupOrNull(f.arg), nullptr);
    EXPECT_EQ(cloned_load->operand(0), f.arg);
}

TEST(IR, SuccessiveClonesIntoOneMappingAccumulate)
{
    // Op-by-op cloning into one block (unrolling, inlining, overlays)
    // shares one mapping: a later clone resolves its operands to the
    // earlier clones, and the mapping holds every cloned value once.
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    Operation *c0 = createConstantIndex(b, 0);
    Operation *load = createMemLoad(b, f.arg, {c0->result(0)});
    AffineForOp loop = createAffineFor(b, 0, 4);
    OpBuilder inner(loop.body());
    createMemStore(inner, load->result(0), f.arg, {c0->result(0)});

    IRMapping mapping;
    size_t cloned_values = 0;
    std::vector<Operation *> clones;
    for (Operation *op : {c0, load, loop.op()}) {
        clones.push_back(
            body->insertBefore(body->back(), op->clone(mapping)));
        cloned_values += op->countValues();
        EXPECT_EQ(mapping.size(), cloned_values);
    }
    Operation *new_c0 = clones[0];
    Operation *new_load = clones[1];
    EXPECT_EQ(new_load->operand(1), new_c0->result(0));
    Operation *new_store = clones[2]->collect(ops::MemStore).front();
    EXPECT_EQ(new_store->operand(0), new_load->result(0));
    EXPECT_EQ(new_store->operand(2), new_c0->result(0));
    EXPECT_EQ(mapping.lookup(load->result(0)), new_load->result(0));

    // Cloning the same ops again overwrites their entries in place: the
    // size stays put and lookups name the newest clones.
    auto again = c0->clone(mapping);
    EXPECT_EQ(mapping.size(), cloned_values);
    EXPECT_EQ(mapping.lookup(c0->result(0)), again->result(0));
    EXPECT_TRUE(verifyOk(f.module.get()));
}

TEST(IR, IRMappingGrowsPastItsReservation)
{
    // Entries survive every rehash, and overwrites never add entries.
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    std::vector<Value *> values;
    for (int i = 0; i < 100; ++i)
        values.push_back(createConstantIndex(b, i)->result(0));
    IRMapping mapping(2);
    for (size_t i = 0; i < values.size(); ++i)
        mapping.map(values[i], values[(i + 1) % values.size()]);
    for (size_t i = 0; i < values.size(); i += 2)
        mapping.map(values[i], values[i]);
    EXPECT_EQ(mapping.size(), values.size());
    for (size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(mapping.lookup(values[i]),
                  i % 2 ? values[(i + 1) % values.size()] : values[i]);
    size_t visited = 0;
    mapping.forEach([&](Value *, Value *) { ++visited; });
    EXPECT_EQ(visited, values.size());
    EXPECT_EQ(mapping.lookupOrNull(f.arg), nullptr);
}

TEST(IR, IsAncestorOf)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    AffineForOp loop = createAffineFor(b, 0, 4);
    OpBuilder inner(loop.body());
    Operation *c = createConstantIndex(inner, 0);
    EXPECT_TRUE(loop.op()->isAncestorOf(c));
    EXPECT_TRUE(f.func->isAncestorOf(c));
    EXPECT_FALSE(c->isAncestorOf(loop.op()));
}

/** A detached op with no operands or results, for list bookkeeping. */
std::unique_ptr<Operation>
plainOp(const std::string &name)
{
    return Operation::create(name, {}, {});
}

/** Op names of @p block, front to back, space-separated. */
std::string
opNames(const Block &block)
{
    std::string names;
    for (auto &op : block.ops())
        names += (names.empty() ? "" : " ") + op->name();
    return names;
}

/** Every op of @p block names it as parent, sits at its recorded
 * position, and links to its list neighbours. */
void
expectLinked(Block &block)
{
    Operation *prev = nullptr;
    for (auto &owned : block.ops()) {
        Operation *op = owned.get();
        EXPECT_EQ(op->parentBlock(), &block);
        EXPECT_TRUE(op->positionValid());
        EXPECT_EQ(op->prevOp(), prev);
        if (prev) {
            EXPECT_EQ(prev->nextOp(), op);
        }
        prev = op;
    }
    if (prev) {
        EXPECT_EQ(prev->nextOp(), nullptr);
    }
}

TEST(IRPosition, InsertAtFrontMiddleAndEnd)
{
    Block block;
    Operation *a = block.pushBack(plainOp("a"));
    Operation *c = block.pushBack(plainOp("c"));
    // Middle, front, end, middle, append, then push to the front.
    block.insertBefore(c, plainOp("b"));
    block.insertBefore(a, plainOp("front"));
    block.insertAfter(c, plainOp("end"));
    block.insertAfter(a, plainOp("a2"));
    block.insertBefore(nullptr, plainOp("last"));
    block.pushFront(plainOp("first"));
    EXPECT_EQ(opNames(block), "first front a a2 b c end last");
    expectLinked(block);
}

TEST(IRPosition, TakeReinsertElsewhereThenErase)
{
    Block from, to;
    Operation *a = from.pushBack(plainOp("a"));
    Operation *b = from.pushBack(plainOp("b"));
    from.pushBack(plainOp("c"));
    Operation *x = to.pushBack(plainOp("x"));

    auto owned = from.take(b);
    EXPECT_EQ(owned->parentBlock(), nullptr);
    EXPECT_TRUE(owned->positionValid());
    EXPECT_EQ(a->nextOp()->name(), "c");
    EXPECT_EQ(to.insertBefore(x, std::move(owned)), b);
    EXPECT_EQ(opNames(from), "a c");
    EXPECT_EQ(opNames(to), "b x");
    expectLinked(from);
    expectLinked(to);

    b->erase();
    EXPECT_EQ(opNames(to), "x");
    expectLinked(to);
    x->erase();
    EXPECT_TRUE(to.empty());
}

TEST(IRPosition, MoveAndNeighboursAtTheEnds)
{
    Block one, two;
    Operation *a = one.pushBack(plainOp("a"));
    Operation *b = one.pushBack(plainOp("b"));
    Operation *c = one.pushBack(plainOp("c"));
    Operation *y = two.pushBack(plainOp("y"));

    EXPECT_EQ(a->prevOp(), nullptr);
    EXPECT_EQ(c->nextOp(), nullptr);
    EXPECT_EQ(b->prevOp(), a);
    EXPECT_EQ(b->nextOp(), c);

    a->moveAfter(c); // within the block, to the end
    EXPECT_EQ(opNames(one), "b c a");
    EXPECT_EQ(b->prevOp(), nullptr);
    EXPECT_EQ(a->nextOp(), nullptr);
    a->moveBefore(b); // back to the front
    EXPECT_EQ(opNames(one), "a b c");
    c->moveBefore(y); // across blocks
    b->moveAfter(y);
    EXPECT_EQ(opNames(one), "a");
    EXPECT_EQ(opNames(two), "c y b");
    EXPECT_EQ(a->prevOp(), nullptr);
    EXPECT_EQ(a->nextOp(), nullptr);
    expectLinked(one);
    expectLinked(two);
}

TEST(IRPosition, LargeBlockKeepsInsertionOrder)
{
    constexpr size_t kOps = 10000;
    Block block;
    block.pushBack(plainOp("end"));
    std::vector<Operation *> inserted;
    for (size_t i = 0; i < kOps; ++i)
        inserted.push_back(block.insertBefore(block.back(), plainOp("op")));
    inserted.push_back(block.back());
    EXPECT_EQ(block.opsVector(), inserted);
    expectLinked(block);
}

TEST(IRPosition, VerifierAcceptsMovedOps)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    AffineForOp loop = createAffineFor(b, 0, 4);
    Operation *c0 = createConstantIndex(b, 0);
    Operation *c1 = createConstantIndex(b, 1);
    OpBuilder inner(loop.body());
    Operation *c2 = createConstantIndex(inner, 2);
    c1->moveBefore(loop.op());
    c0->moveBefore(c2);
    c2->moveAfter(c1);
    expectLinked(*body);
    expectLinked(*loop.body());
    auto errors = verifyErrors(f.module.get(), VerifyLevel::Structural);
    EXPECT_TRUE(errors.empty());
}

TEST(Verifier, CatchesDominanceViolation)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    Operation *c0 = createConstantIndex(b, 0);
    Operation *load = createMemLoad(b, f.arg, {c0->result(0)});
    (void)load;
    // Move the constant after its use.
    c0->moveAfter(load);
    auto errors = verify(f.module.get());
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors[0].find("dominate"), std::string::npos);
}

TEST(Verifier, CatchesBadCall)
{
    auto module = createModule();
    Operation *func = createFunc(module.get(), "main", {});
    Block *body = funcBody(func);
    OpBuilder b(body, body->back());
    b.create(std::string(ops::Call), {}, {},
             {{kCallee, Attribute("missing")}});
    auto errors = verify(module.get());
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors[0].find("unknown callee"), std::string::npos);
}

TEST(Verifier, CatchesDuplicateFuncNames)
{
    auto module = createModule();
    createFunc(module.get(), "f", {});
    createFunc(module.get(), "f", {});
    auto errors = verify(module.get());
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors[0].find("duplicate"), std::string::npos);
}

TEST(Verifier, AcceptsWellFormedAffine)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    AffineForOp loop = createAffineFor(b, 0, 8);
    OpBuilder inner(loop.body());
    Operation *load = createAffineLoad(
        inner, f.arg, AffineMap::identity(1), {loop.inductionVar()});
    createAffineStore(inner, load->result(0), f.arg,
                      AffineMap::identity(1), {loop.inductionVar()});
    EXPECT_TRUE(verifyOk(f.module.get()));
}

TEST(Verifier, CatchesAccessArityMismatch)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    // Map has 2 results but the memref is rank 1: bypass the helper
    // assert by building the op manually.
    Operation *c0 = createConstantIndex(b, 0);
    AffineMap bad(1, 0, {getAffineDimExpr(0), getAffineDimExpr(0)});
    b.create(std::string(ops::AffineLoad), {Type::f32()},
             {f.arg, c0->result(0)}, {{kMap, Attribute(bad)}});
    auto errors = verify(f.module.get());
    ASSERT_FALSE(errors.empty());
}

TEST(Printer, RendersStructuredOps)
{
    SimpleFunc f;
    Block *body = funcBody(f.func);
    OpBuilder b(body, body->back());
    AffineForOp loop = createAffineFor(b, 0, 16, 2);
    LoopDirective d;
    d.pipeline = true;
    d.targetII = 2;
    loop.setDirective(d);
    OpBuilder inner(loop.body());
    Operation *load = createAffineLoad(
        inner, f.arg, AffineMap::get(1, getAffineDimExpr(0) + 1),
        {loop.inductionVar()});
    (void)load;

    std::string ir = printOp(f.module.get());
    EXPECT_NE(ir.find("affine.for"), std::string::npos);
    EXPECT_NE(ir.find("step 2"), std::string::npos);
    EXPECT_NE(ir.find("affine.load"), std::string::npos);
    EXPECT_NE(ir.find("+ 1"), std::string::npos);
    EXPECT_NE(ir.find("loop_directive"), std::string::npos);
}

} // namespace
} // namespace scalehls
