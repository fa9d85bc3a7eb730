#include "core/implication.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/span.h"

namespace olapdc {

Result<ImplicationResult> Implies(const DimensionSchema& ds,
                                  const DimensionConstraint& alpha,
                                  const DimsatOptions& options) {
  OLAPDC_CHECK(alpha.expr != nullptr);
  OLAPDC_CHECK(alpha.root != ds.hierarchy().all())
      << "constraints cannot be rooted at All";
  obs::ObsSpan span("implication.query");
  obs::Count("olapdc.implication.queries");

  DimensionConstraint negated{alpha.root, MakeNot(alpha.expr),
                              alpha.label.empty() ? "" : "!" + alpha.label};
  DimensionSchema extended = ds.WithExtraConstraint(std::move(negated));

  DimsatResult search = Dimsat(extended, alpha.root, options);

  ImplicationResult result;
  result.stats = search.stats;
  if (!search.status.ok()) {
    // A satisfiable early stop is already definitive ("not implied"):
    // the witness found is a genuine counterexample no matter how much
    // of the search space went unexplored.
    if (!search.satisfiable || !IsBudgetError(search.status)) {
      if (!IsBudgetError(search.status)) return search.status;
      obs::Count("olapdc.implication.unknown");
      if (span.active()) span.AddStat("outcome", "unknown");
      result.status = search.status;
      return result;
    }
  }
  result.implied = !search.satisfiable;
  if (search.satisfiable) {
    result.counterexample = std::move(search.frozen.front());
    obs::Count("olapdc.implication.counterexamples");
  }
  obs::Count(result.implied ? "olapdc.implication.implied"
                            : "olapdc.implication.not_implied");
  if (span.active()) {
    span.AddStat("outcome", result.implied ? "implied" : "not_implied");
    span.AddStat("expand_calls", result.stats.expand_calls);
  }
  return result;
}

Result<bool> IsCategorySatisfiable(const DimensionSchema& ds,
                                   CategoryId category,
                                   const DimsatOptions& options) {
  DimsatResult search = Dimsat(ds, category, options);
  // A witness makes "satisfiable" definitive even if a budget expired
  // while winding down; only a budget-truncated *negative* is unknown.
  if (search.satisfiable) return true;
  OLAPDC_RETURN_NOT_OK(search.status);
  return false;
}

}  // namespace olapdc
