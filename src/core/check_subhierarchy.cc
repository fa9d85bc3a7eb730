#include "core/check_subhierarchy.h"

#include <utility>

#include "constraint/normalize.h"
#include "core/circle.h"

namespace olapdc {

CheckOutcome CheckSubhierarchy(std::span<const DimensionConstraint> relevant,
                               const Subhierarchy& g,
                               const CheckOptions& options) {
  CheckOutcome outcome;

  // Proposition 2, condition (a), read off g's exact Below sets.
  if (g.HasCycleIn() || g.HasShortcut()) {
    outcome.structurally_rejected = true;
    return outcome;
  }

  // Sigma(ds, c) ∘ g, decided three-valued first: a constraint that
  // folds to False means no assignment can help, and one that folds to
  // True (vacuous ones, whose root is outside g, included) is dropped.
  // Most candidates are settled here without building any expression.
  bool open = false;
  for (const DimensionConstraint& c : relevant) {
    const CircleTruth t = CircleTruthOf(c, g);
    if (t == CircleTruth::kFalse) {
      outcome.circle_rejected = true;
      return outcome;  // no frozen dimension
    }
    open |= (t == CircleTruth::kOpen);
  }

  // Only the open constraints are circled and simplified, in Sigma
  // order, for the c-assignment search.
  std::vector<ExprPtr> circled;
  if (open) {
    for (const DimensionConstraint& c : relevant) {
      if (CircleTruthOf(c, g) != CircleTruth::kOpen) continue;
      circled.push_back(Simplify(ApplyCircleToConstraint(c, g)));
      OLAPDC_DCHECK(!circled.back()->IsLiteralTruth());
    }
  }

  AssignmentSearchResult search =
      FindAssignments(g, circled, options.assignment);
  outcome.assignments_tried = search.tried;
  outcome.frozen.reserve(search.assignments.size());
  for (CAssignment& ca : search.assignments) {
    outcome.frozen.push_back(FrozenDimension{g, std::move(ca)});
  }
  return outcome;
}

}  // namespace olapdc
