// DIMSAT checkpoint/resume: the persistence half of crash-proof
// request lifecycles. When a budget (deadline, cancellation, memory,
// expand cap) expires mid-search, the engine serializes its live
// frontier — the stack of partially processed EXPAND nodes — instead of
// discarding the work. ResumeDimsat() continues exactly where the
// interrupted run stopped: the interrupted and resumed runs partition
// the search tree, so their combined verdict, frozen set, and stats
// equal an uninterrupted run's (checkpoint_test.cc proves this
// property over many seeded workloads).
//
// A frame stores only (subhierarchy, next subset mask, depth). The
// derived per-node state — chosen top category, allowed/into sets, the
// free-successor array — is a pure function of the subhierarchy and the
// schema, so the resume recomputes it deterministically rather than
// trusting a serialized copy. Frames are ordered deepest-first: that is
// the order the unwinding interrupted run captures them in, and
// replaying them in that order reproduces the original depth-first
// traversal order.
//
// Checkpoints deliberately carry no statistics and no collected frozen
// dimensions: those already left with the interrupted run's
// DimsatResult (budget-errors-are-data), and a resumed run reports only
// the fresh work it performs — callers accumulate.

#ifndef OLAPDC_CORE_CHECKPOINT_H_
#define OLAPDC_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/frozen.h"
#include "core/subhierarchy.h"

namespace olapdc {

class DimensionSchema;

/// One partially processed EXPAND node of the interrupted search.
struct DimsatCheckpointFrame {
  /// The subhierarchy as it was when this node's EXPAND ran.
  Subhierarchy g;
  /// First unprocessed subset of the node's free-successor choices
  /// (0 = the node was not processed at all and is redone in full).
  uint32_t next_mask = 0;
  /// Recursion depth of the node (drives split-depth decisions and
  /// undo-log accounting on resume).
  int depth = 0;
  /// Component this frame belongs to when the interrupted run was a
  /// decomposed search (DimsatOptions::decompose); -1 for monolithic
  /// frames. Component indices refer to the deterministic split the
  /// resume recomputes from (schema, root, options).
  int component = -1;
};

/// The complete model set of one already-solved component of an
/// interrupted decomposed run. The composition step needs every
/// per-component model, so solved components travel with the
/// checkpoint (unlike monolithic frozen dimensions, which leave with
/// the interrupted run's result and are never re-emitted). An entry
/// with zero models records "solved, UNSAT" — without it the resume
/// could not distinguish an unsatisfiable component from an
/// unstarted one.
struct DimsatSolvedComponent {
  int component = -1;
  std::vector<FrozenDimension> models;
};

struct DimsatCheckpoint {
  CategoryId root = 0;
  int num_categories = 0;
  /// Deepest-first: index 0 is the innermost interrupted node.
  /// For decomposed checkpoints, frames of the same component keep
  /// deepest-first order among themselves.
  std::vector<DimsatCheckpointFrame> frames;
  /// Decomposed checkpoints only: number of components of the split
  /// (0 = monolithic checkpoint), and the model sets of components
  /// the interrupted run finished.
  int num_components = 0;
  std::vector<DimsatSolvedComponent> solved;
  /// Branching order of the run that captured the checkpoint: true for
  /// most-constrained-first (DimsatOptions::branch_heuristic), false
  /// for id order. A frame's next_mask indexes the successor subsets of
  /// the category *that* order picked, so ResumeDimsat() replays the
  /// frames under the recorded order, never the resumer's.
  bool branch_heuristic = false;

  bool empty() const { return frames.empty() && solved.empty(); }

  /// Line-oriented text form, stable across runs. Monolithic
  /// checkpoints use the v1 format:
  ///   dimsat-checkpoint v1
  ///   root <r> categories <n> frames <k> [order most-constrained]
  ///   frame <next_mask> <depth> <edges> <u1> <v1> ... <ue> <ve>
  /// Decomposed checkpoints (num_components > 0) emit v2, which tags
  /// every frame with its component and appends the solved-component
  /// model sets (assignment names %-escaped):
  ///   dimsat-checkpoint v2
  ///   root <r> categories <n> frames <k> components <w> solved <s>
  ///       [order most-constrained]
  ///   frame <component> <next_mask> <depth> <edges> <u> <v> ...
  ///   solved <component> <models>
  ///   model <edges> <u> <v> ... <assigned> <cat> <name> ...
  /// The optional `order` suffix of the summary line records
  /// branch_heuristic; its absence means id order, which is how every
  /// checkpoint written before the suffix existed was captured (and a
  /// reader that predates the suffix rejects such text instead of
  /// misresuming it).
  std::string Serialize() const;

  /// Inverse of Serialize(). Rejects malformed input, version
  /// mismatches, and frames whose edges do not form a root-reachable
  /// partial subhierarchy (kParseError / kInvalidArgument). Accepts
  /// both v1 and v2.
  static Result<DimsatCheckpoint> Deserialize(std::string_view text);
};

/// Resume hook for the request plane: deserializes `text` and
/// validates it against (ds, root) up front, so a service can reject a
/// stale or mismatched client checkpoint with kInvalidArgument before
/// committing a request slot to the run (ResumeDimsat would reject it
/// too, but only after the caller has built options and budgets).
Result<DimsatCheckpoint> ParseCheckpointFor(const DimensionSchema& ds,
                                            CategoryId root,
                                            std::string_view text);

}  // namespace olapdc

#endif  // OLAPDC_CORE_CHECKPOINT_H_
