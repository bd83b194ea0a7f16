/**
 * @file
 * Affine expressions: the arithmetic language used for loop bounds, memory
 * subscripts, partition layout maps and if-conditions.
 *
 * An AffineExpr is an immutable tree over dimension identifiers
 * (d0, d1, ...), symbol identifiers (s0, s1, ...) and integer
 * constants, combined with
 * + , * , mod, floordiv and ceildiv. Construction performs local
 * simplification (constant folding, identity elimination, canonical
 * constant-on-the-right ordering) so that structurally equal expressions
 * compare equal in most practical cases.
 */

#ifndef SCALEHLS_IR_AFFINE_EXPR_H
#define SCALEHLS_IR_AFFINE_EXPR_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace scalehls {

/** The node kinds of the affine expression tree. */
enum class AffineExprKind
{
    Constant,
    DimId,
    SymbolId,
    Add,
    Mul,
    Mod,
    FloorDiv,
    CeilDiv,
};

class AffineExprNode;

/** Shared-immutable handle to an affine expression node. A default
 * constructed AffineExpr is null and may be tested with explicit bool. */
class AffineExpr
{
  public:
    AffineExpr() = default;
    explicit AffineExpr(std::shared_ptr<const AffineExprNode> node)
        : node_(std::move(node))
    {}

    explicit operator bool() const { return node_ != nullptr; }
    const AffineExprNode &node() const { return *node_; }
    const AffineExprNode *operator->() const { return node_.get(); }

    AffineExprKind kind() const;

    /** Constant value; asserts kind()==Constant. */
    int64_t constantValue() const;
    /** Dim/symbol position; asserts kind()==DimId or SymbolId. */
    unsigned position() const;
    /** Left/right children of a binary node. */
    AffineExpr lhs() const;
    AffineExpr rhs() const;

    bool isConstant() const { return kind() == AffineExprKind::Constant; }
    /** True if this is the constant @p v. */
    bool isConstantEqual(int64_t v) const;

    /** Structural equality. Rejects on a structural-hash mismatch before
     * recursing, so unequal expressions almost always compare in O(1). */
    bool equals(const AffineExpr &other) const;

    /** Evaluate with concrete dim/symbol values. */
    int64_t evaluate(const std::vector<int64_t> &dims,
                     const std::vector<int64_t> &symbols = {}) const;

    /** Substitute dims[i] for d_i and symbols[i] for s_i, re-simplifying.
     * Out-of-range identifiers are kept as-is. */
    AffineExpr replaceDimsAndSymbols(
        const std::vector<AffineExpr> &dims,
        const std::vector<AffineExpr> &symbols = {}) const;

    /** Shift every dim id by @p offset (d_i -> d_{i+offset}). */
    AffineExpr shiftDims(unsigned offset) const;

    /** True if the given dim id appears anywhere in the tree. */
    bool involvesDim(unsigned pos) const;

    /** Largest dim position used, or -1 if none. */
    int maxDimPosition() const;

    /** The memoized linear form: sparse (dim, coefficient) pairs plus the
     * constant term; nullptr-like (false) when the expression is not
     * linear (mod/div/symbols). */
    bool linearForm(std::vector<std::pair<unsigned, int64_t>> &coeffs,
                    int64_t &constant) const;

    /** If the expression is a pure linear form
     * c0 + sum_i coeff_i * d_i (no mod/div, no symbols), return the
     * coefficients: result[0..numDims-1] are dim coefficients, result
     * back() is the constant term. */
    std::optional<std::vector<int64_t>> linearCoefficients(
        unsigned num_dims) const;

    /** Render with dim names d0..dn / symbol names s0..sn. */
    std::string toString() const;

  private:
    std::shared_ptr<const AffineExprNode> node_;
};

/** Immutable affine expression tree node. Use the factory functions below.
 * The linear form (coefficient per dim + constant) and the structural hash
 * are computed eagerly at construction from the children's already-computed
 * values; the analyses compare subscripts pairwise, so these caches turn
 * O(n^2) tree walks into O(n). Eager computation (rather than a lazy mutable
 * memo) keeps nodes truly immutable: expression handles are shared across
 * concurrently evaluated module clones by the parallel DSE. */
class AffineExprNode
{
  public:
    AffineExprKind kind;
    /** Structural hash over kind, value and children: equal for
     * structurally equal expressions. 32 bits fill the padding after
     * kind, so the node is no larger than without it. */
    uint32_t hash = 0;
    int64_t value = 0;    ///< Constant value or dim/symbol position.
    AffineExpr lhs, rhs;  ///< Children for binary kinds.

    bool linValid = false;
    std::vector<std::pair<unsigned, int64_t>> linCoeffs;
    int64_t linConst = 0;
};

/** @name Factories (with local simplification) */
///@{
AffineExpr getAffineConstantExpr(int64_t value);
AffineExpr getAffineDimExpr(unsigned position);
AffineExpr getAffineSymbolExpr(unsigned position);
AffineExpr getAffineBinaryExpr(AffineExprKind kind, AffineExpr lhs,
                               AffineExpr rhs);
///@}

/** Constant difference a - b when provable (equal expressions, or both
 * linear with identical dim coefficients); nullopt otherwise. */
std::optional<int64_t> constantDiff(const AffineExpr &a,
                                    const AffineExpr &b);

/** @name Operator sugar */
///@{
AffineExpr operator+(AffineExpr lhs, AffineExpr rhs);
AffineExpr operator+(AffineExpr lhs, int64_t rhs);
AffineExpr operator-(AffineExpr lhs, AffineExpr rhs);
AffineExpr operator-(AffineExpr lhs, int64_t rhs);
AffineExpr operator*(AffineExpr lhs, AffineExpr rhs);
AffineExpr operator*(AffineExpr lhs, int64_t rhs);
AffineExpr affineMod(AffineExpr lhs, int64_t rhs);
AffineExpr affineFloorDiv(AffineExpr lhs, int64_t rhs);
AffineExpr affineCeilDiv(AffineExpr lhs, int64_t rhs);
///@}

} // namespace scalehls

#endif // SCALEHLS_IR_AFFINE_EXPR_H
