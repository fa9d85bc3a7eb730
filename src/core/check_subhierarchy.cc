#include "core/check_subhierarchy.h"

#include <utility>

#include "constraint/normalize.h"
#include "core/circle.h"

namespace olapdc {

CheckOutcome CheckSubhierarchy(std::span<const DimensionConstraint> relevant,
                               const Subhierarchy& g,
                               const CheckOptions& options) {
  CheckOutcome outcome;

  // One reachability closure serves all three phases of the check:
  // cycle detection, shortcut detection, and the circle operator.
  const std::vector<DynamicBitset> reach = g.ComputeReach();

  // Proposition 2, condition (a).
  if (g.HasCycleIn(reach) || g.HasShortcut(reach)) {
    outcome.structurally_rejected = true;
    return outcome;
  }

  // Sigma(ds, c) ∘ g, simplified. A literal False means no assignment
  // can help; vacuous (root outside g) constraints simplify to True and
  // are dropped.
  std::vector<ExprPtr> circled;
  circled.reserve(relevant.size());
  for (const DimensionConstraint& c : relevant) {
    ExprPtr e = Simplify(ApplyCircleToConstraint(c, g, reach));
    if (IsTrueLiteral(e)) continue;
    if (IsFalseLiteral(e)) return outcome;  // no frozen dimension
    circled.push_back(std::move(e));
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
