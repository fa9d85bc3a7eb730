// The circle operator Sigma ∘ g (paper Definition 8): partially
// evaluates a dimension constraint against a fixed subhierarchy g,
// replacing
//   - every path atom by its truth value in g,
//   - every composed/through shorthand by its truth value in g (it is a
//     finite disjunction of path atoms, so its circled value is decided
//     by g alone),
//   - every equality atom c_i.c_j ~ k whose source has no path to c_j
//     in g by False,
// leaving only equality atoms over categories of g. A constraint whose
// *root* is not in g is vacuous for any frozen dimension induced by g
// and is replaced by True outright (DESIGN.md deviation 1).
//
// Reachability is read off g's exact Below sets (Subhierarchy::Reaches),
// so circling needs no per-g table.

#ifndef OLAPDC_CORE_CIRCLE_H_
#define OLAPDC_CORE_CIRCLE_H_

#include "constraint/expr.h"
#include "core/subhierarchy.h"

namespace olapdc {

/// Circles a bare expression.
ExprPtr ApplyCircleToExpr(const ExprPtr& e, const Subhierarchy& g);

/// Circles a constraint: True when the root is outside g, otherwise
/// ApplyCircleToExpr of its expression. The result is NOT simplified,
/// matching the figure-5 presentation; pass it through Simplify() for
/// decision procedures.
ExprPtr ApplyCircleToConstraint(const DimensionConstraint& c,
                                const Subhierarchy& g);

/// The truth value Simplify() would fold a circled expression to:
/// kTrue / kFalse exactly when Simplify(ApplyCircleTo*(...)) is the
/// literal True / False, kOpen when equality or order atoms survive.
enum class CircleTruth { kTrue, kFalse, kOpen };

/// Evaluates the circled expression three-valued (Kleene rules, matching
/// Simplify's constant folding connective by connective) without
/// building it: no allocation, and an AND/OR stops at its first
/// deciding operand. CHECK uses it to drop True constraints and to
/// reject g at the first False before any expression tree is built.
CircleTruth CircleTruthOf(const Expr& e, const Subhierarchy& g);
/// Same for a constraint: kTrue when its root is outside g.
CircleTruth CircleTruthOf(const DimensionConstraint& c, const Subhierarchy& g);

}  // namespace olapdc

#endif  // OLAPDC_CORE_CIRCLE_H_
