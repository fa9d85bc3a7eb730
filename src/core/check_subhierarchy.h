// The CHECK procedure of the DIMSAT algorithm (paper Figure 6 +
// Proposition 2): decides whether a fully built subhierarchy g induces
// at least one frozen dimension, i.e. whether
//   (a) g is cycle-free and shortcut-free, and
//   (b) some c-assignment satisfies Sigma(ds, c) ∘ g.
// Shared by DIMSAT and the brute-force NaiveSat baseline.
//
// Condition (a) is always verified here rather than trusted to the
// EXPAND-time pruning: the paper's incremental Ss test misses shortcuts
// completed "at distance" when an already-expanded category gains a new
// incoming edge (DESIGN.md, deviations section).

#ifndef OLAPDC_CORE_CHECK_SUBHIERARCHY_H_
#define OLAPDC_CORE_CHECK_SUBHIERARCHY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/assignment.h"
#include "core/frozen.h"
#include "core/schema.h"
#include "core/subhierarchy.h"

namespace olapdc {

struct CheckOptions {
  /// Passed through to the c-assignment search.
  AssignmentOptions assignment;
};

struct CheckOutcome {
  /// The frozen dimensions induced by g (empty if none; a single
  /// witness unless assignment.enumerate_all).
  std::vector<FrozenDimension> frozen;
  /// True when g failed the structural test (cycle or shortcut).
  bool structurally_rejected = false;
  /// True when g passed it but some circled constraint folded to False,
  /// so no c-assignment search ran.
  bool circle_rejected = false;
  /// c-assignment candidates explored.
  uint64_t assignments_tried = 0;
};

/// Runs CHECK(g). `relevant` must be Sigma(ds, root) with
/// composed/through shorthands already expanded (see DimsatRun::Prepare
/// in dimsat.cc) — or, for a component search of a decomposed run, the
/// component's share of it; `g` must contain the root.
///
/// The structural test and the three-valued circle verdict
/// (CircleTruthOf) allocate nothing, so a g rejected by either costs no
/// allocation; circled expression trees are built only for the
/// constraints left open, and only when the assignment search runs.
CheckOutcome CheckSubhierarchy(std::span<const DimensionConstraint> relevant,
                               const Subhierarchy& g,
                               const CheckOptions& options = {});

}  // namespace olapdc

#endif  // OLAPDC_CORE_CHECK_SUBHIERARCHY_H_
