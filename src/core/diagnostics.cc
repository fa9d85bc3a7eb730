#include "core/diagnostics.h"

#include <utility>

#include "core/implication.h"

namespace olapdc {

namespace {

/// Schema with the constraint subset selected by `keep`.
DimensionSchema Restrict(const DimensionSchema& ds,
                         const std::vector<bool>& keep) {
  std::vector<DimensionConstraint> subset;
  for (size_t i = 0; i < ds.constraints().size(); ++i) {
    if (keep[i]) subset.push_back(ds.constraints()[i]);
  }
  return DimensionSchema(ds.hierarchy_ptr(), std::move(subset));
}

}  // namespace

Result<std::vector<size_t>> FindRedundantConstraints(
    const DimensionSchema& ds, const DimsatOptions& options) {
  std::vector<size_t> redundant;
  const size_t n = ds.constraints().size();
  for (size_t i = 0; i < n; ++i) {
    std::vector<bool> keep(n, true);
    keep[i] = false;
    DimensionSchema rest = Restrict(ds, keep);
    OLAPDC_ASSIGN_OR_RETURN(
        ImplicationResult r,
        Implies(rest, ds.constraints()[i], options));
    OLAPDC_RETURN_NOT_OK(r.status);
    if (r.implied) redundant.push_back(i);
  }
  return redundant;
}

Result<DimensionSchema> MinimizeConstraintSet(const DimensionSchema& ds,
                                              const DimsatOptions& options) {
  const size_t n = ds.constraints().size();
  std::vector<bool> keep(n, true);
  // Greedy deletion, later constraints first so that earlier (usually
  // more fundamental) constraints survive equivalences.
  for (size_t i = n; i-- > 0;) {
    keep[i] = false;
    DimensionSchema rest = Restrict(ds, keep);
    OLAPDC_ASSIGN_OR_RETURN(
        ImplicationResult r,
        Implies(rest, ds.constraints()[i], options));
    OLAPDC_RETURN_NOT_OK(r.status);
    if (!r.implied) keep[i] = true;  // load-bearing; restore
  }
  return Restrict(ds, keep);
}

Result<std::vector<size_t>> UnsatisfiableCore(const DimensionSchema& ds,
                                              CategoryId category,
                                              const DimsatOptions& options) {
  // Sequential, so budget stops fall where they always did.
  DimsatOptions sequential = options;
  sequential.num_threads = 1;
  {
    DimsatResult full = Dimsat(ds, category, sequential);
    OLAPDC_RETURN_NOT_OK(full.status);
    if (full.satisfiable) {
      return Status::InvalidArgument(
          "category is satisfiable; no unsatisfiable core exists");
    }
  }
  const size_t n = ds.constraints().size();
  std::vector<bool> keep(n, true);
  for (size_t i = 0; i < n; ++i) {
    keep[i] = false;
    DimensionSchema rest = Restrict(ds, keep);
    DimsatResult r = Dimsat(rest, category, sequential);
    OLAPDC_RETURN_NOT_OK(r.status);
    if (r.satisfiable) keep[i] = true;  // needed for unsatisfiability
  }
  std::vector<size_t> core;
  for (size_t i = 0; i < n; ++i) {
    if (keep[i]) core.push_back(i);
  }
  return core;
}

}  // namespace olapdc
