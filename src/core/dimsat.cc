#include "core/dimsat.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "common/fault_injector.h"
#include "common/memory_budget.h"
#include "common/string_util.h"
#include "constraint/normalize.h"
#include "core/check_subhierarchy.h"
#include "core/decompose.h"
#include "exec/admission.h"
#include "exec/work_stealing_pool.h"
#include "obs/metrics.h"
#include "obs/search_tree.h"
#include "obs/span.h"

namespace olapdc {

namespace {
/// Inventory registration for the chaos campaign's site sweep.
[[maybe_unused]] const bool kExpandSite = RegisterFaultSite("dimsat.expand");
[[maybe_unused]] const bool kSubmitSite = RegisterFaultSite("exec.submit");
}  // namespace

void AccumulateStats(DimsatStats* total, const DimsatStats& delta) {
  total->expand_calls += delta.expand_calls;
  total->check_calls += delta.check_calls;
  total->structural_rejections += delta.structural_rejections;
  total->circle_rejections += delta.circle_rejections;
  total->assignments_tried += delta.assignments_tried;
  total->into_prunes += delta.into_prunes;
  total->shortcut_prunes += delta.shortcut_prunes;
  total->cycle_prunes += delta.cycle_prunes;
  total->dead_ends += delta.dead_ends;
  total->frozen_found += delta.frozen_found;
  total->parallel_tasks += delta.parallel_tasks;
  total->parallel_steals += delta.parallel_steals;
}

void FlushDimsatMetrics(const DimsatStats& stats, const Status& status,
                        double elapsed_us) {
  if (!obs::MetricsEnabled()) return;
  // Zero deltas still register the name, so the exported inventory is
  // complete even for rules that never fired on this workload.
  obs::Count("olapdc.dimsat.runs");
  obs::Count("olapdc.dimsat.nodes_expanded", stats.expand_calls);
  obs::Count("olapdc.dimsat.check_calls", stats.check_calls);
  obs::Count("olapdc.dimsat.structural_rejections",
             stats.structural_rejections);
  obs::Count("olapdc.dimsat.circle_rejections", stats.circle_rejections);
  obs::Count("olapdc.dimsat.assignments_tried", stats.assignments_tried);
  obs::Count("olapdc.dimsat.prune.into", stats.into_prunes);
  obs::Count("olapdc.dimsat.prune.shortcut", stats.shortcut_prunes);
  obs::Count("olapdc.dimsat.prune.cycle", stats.cycle_prunes);
  obs::Count("olapdc.dimsat.dead_ends", stats.dead_ends);
  obs::Count("olapdc.dimsat.frozen_found", stats.frozen_found);
  obs::Count("olapdc.dimsat.parallel.tasks", stats.parallel_tasks);
  obs::Count("olapdc.dimsat.parallel.steals", stats.parallel_steals);
  obs::Count("olapdc.dimsat.budget_stops", IsBudgetError(status) ? 1 : 0);
  obs::LatencyUs("olapdc.dimsat.latency_us", elapsed_us);
}

std::string DimsatTraceEvent::ToString(const HierarchySchema& schema) const {
  std::string out;
  switch (kind) {
    case Kind::kExpand: out = "EXPAND "; break;
    case Kind::kCheckFail: out = "CHECK(fail) "; break;
    case Kind::kCheckSuccess: out = "CHECK(ok) "; break;
    case Kind::kPruned: out = "PRUNE "; break;
    case Kind::kDeadEnd: out = "DEADEND "; break;
  }
  out += "g={";
  out += JoinMapped(edges, ", ", [&](const std::pair<int, int>& e) {
    return schema.CategoryName(e.first) + "->" +
           schema.CategoryName(e.second);
  });
  out += "} top={";
  out += JoinMapped(top, ", ",
                    [&](CategoryId c) { return schema.CategoryName(c); });
  out += "}";
  return out;
}

namespace {

/// Heap-byte estimate of one Subhierarchy over n categories (three
/// n-vectors of n-bit sets plus the top-level sets) — the unit of the
/// memory-budget accounting for search state, parallel task seeds, and
/// collected frozen dimensions. A governor estimate, not an rlimit
/// (see common/memory_budget.h).
uint64_t ApproxSubhierarchyBytes(int num_categories) {
  const uint64_t n = static_cast<uint64_t>(num_categories);
  const uint64_t bitset_bytes = 16 + ((n + 63) / 64) * 8;
  return 3 * n * bitset_bytes + 3 * bitset_bytes + 128;
}

/// A frozen dimension is a subhierarchy plus its name assignment.
uint64_t ApproxFrozenBytes(int num_categories) {
  return ApproxSubhierarchyBytes(num_categories) +
         static_cast<uint64_t>(num_categories) * 24;
}

/// Emits the EXPAND begin/end pair of one search-tree node into the
/// explain recorder (RAII so every exit path — prune, dead end,
/// budget stop mid-loop — closes the node). A null recorder (explain
/// off, or a checkpoint-replayed node whose entry accounting already
/// happened) records nothing.
class ExplainExpandScope {
 public:
  ExplainExpandScope(obs::SearchTreeRecorder* recorder, int depth,
                     int category, uint64_t expand_calls)
      : recorder_(recorder), depth_(depth), category_(category) {
    if (recorder_ == nullptr) return;
    obs::ExplainEvent event;
    event.kind = obs::ExplainEvent::Kind::kExpandBegin;
    event.depth = depth_;
    event.category = category_;
    event.aux = expand_calls;
    recorder_->Record(event);
  }
  ~ExplainExpandScope() {
    if (recorder_ == nullptr) return;
    obs::ExplainEvent event;
    event.kind = obs::ExplainEvent::Kind::kExpandEnd;
    event.depth = depth_;
    event.category = category_;
    recorder_->Record(event);
  }
  ExplainExpandScope(const ExplainExpandScope&) = delete;
  ExplainExpandScope& operator=(const ExplainExpandScope&) = delete;

 private:
  obs::SearchTreeRecorder* const recorder_;
  const int depth_;
  const int category_;
};

class DimsatSearch {
 public:
  /// `relevant` is borrowed: the caller keeps it alive for the lifetime
  /// of the search (parallel tasks share one prepared vector).
  DimsatSearch(const DimensionSchema& ds, CategoryId root,
               const DimsatOptions& options,
               std::span<const DimensionConstraint> relevant)
      : ds_(ds),
        schema_(ds.hierarchy()),
        root_(root),
        options_(options),
        relevant_(relevant),
        budget_checker_(options.budget, options.budget_check_stride,
                        "dimsat.expand"),
        checkpoint_(options.checkpoint),
        mem_(options.budget != nullptr ? options.budget->memory() : nullptr),
        g_(schema_.num_categories(), root) {
    check_options_.assignment.require_injective =
        options.require_injective_names;
    check_options_.assignment.enumerate_all = options.enumerate_all;
    check_options_.assignment.max_results = options.max_frozen;
    const uint64_t n = static_cast<uint64_t>(schema_.num_categories());
    const uint64_t bitset_bytes = 16 + ((n + 63) / 64) * 8;
    subhierarchy_bytes_ = ApproxSubhierarchyBytes(schema_.num_categories());
    // One undo frame journals the expanded category's Below snapshots —
    // a handful of bitsets in the common case.
    frame_bytes_ = 4 * bitset_bytes + 96;
    frozen_bytes_ = ApproxFrozenBytes(schema_.num_categories());
    // The explain gate is cached once per search (like the metrics
    // enabled bit) so the disabled hot path pays one pointer test.
    if (obs::SearchTreeRecorder::Global().enabled()) {
      recorder_ = &obs::SearchTreeRecorder::Global();
    }
  }

  /// Searches from the bare root (the subhierarchy the constructor
  /// built).
  DimsatResult Run() { return Start(0); }

  /// Continues the search from a partially built subhierarchy at the
  /// given recursion depth (the work-stealing driver seeds tasks this
  /// way).
  DimsatResult RunFrom(Subhierarchy seed, int depth) {
    g_ = std::move(seed);
    return Start(depth);
  }

  /// Replays an interrupted run's frontier, deepest frame first (the
  /// original depth-first order). Reports only fresh work; if this run
  /// is interrupted too, the not-yet-replayed frames carry over into
  /// the new checkpoint after whatever Expand() itself captured —
  /// which preserves deepest-first order, since Expand's captures all
  /// lie inside the currently replayed (deepest remaining) frame.
  DimsatResult RunResume(DimsatCheckpoint&& from) {
    Replay(&from.frames);
    Finish();
    return std::move(result_);
  }

  /// Solves one component of a decomposed run (core/decompose.h):
  /// restricts successor choices to `universe` (the component's
  /// categories plus root and All), checks against the component's
  /// constraints, tags captured checkpoint frames with `component`,
  /// and returns the component's models. It replays `*frames` when
  /// non-empty (a resumed component) and otherwise searches from the
  /// bare root. The sequential driver runs every component on one
  /// search — its subhierarchy, undo log, memory reservation, budget
  /// checker and statistics — so statistics accumulate across
  /// components; each parallel component task has a search of its own.
  /// A non-OK status() after the call means the run stopped in this
  /// component. `universe` and `relevant` are borrowed until the next
  /// call.
  std::vector<FrozenDimension> SolveComponent(
      int component, const DynamicBitset& universe,
      std::span<const DimensionConstraint> relevant,
      std::vector<DimsatCheckpointFrame>* frames) {
    component_ = component;
    universe_ = &universe;
    relevant_ = relevant;
    if (!frames->empty()) {
      Replay(frames);
      // The replayed frames left their subhierarchies behind; later
      // components start from the bare root again.
      g_ = Subhierarchy(schema_.num_categories(), root_);
    } else if (ReserveWorkingSet()) {
      // Every fresh search rolls g_ back to the bare root on the way
      // out, so the previous component left it ready.
      Expand(0);
    } else {
      MaybeCapture(0, 0);
    }
    std::vector<FrozenDimension> models;
    models.swap(result_.frozen);
    return models;
  }

  const DimsatStats& stats() const { return result_.stats; }
  const Status& status() const { return result_.status; }

  /// Shared early-stop flag for parallel runs: once any worker decides
  /// the global answer, the others abandon their subtrees.
  void set_external_stop(std::atomic<bool>* stop) { external_stop_ = stop; }

  /// Work-stealing hook: while the recursion depth is below
  /// `split_depth`, child subhierarchies are handed to `spawner`
  /// (becoming stealable tasks) instead of being expanded in-place.
  void set_spawner(std::function<void(Subhierarchy&&, int)> spawner,
                   int split_depth) {
    spawner_ = std::move(spawner);
    split_depth_ = split_depth;
  }

  /// Parallel runs: every search of one run counts its EXPANDs against
  /// options.max_expand_calls on this shared counter, so the cap bounds
  /// the run, not each task. An uncapped run keeps its workers off the
  /// shared cache line. Not owned; must outlive the search.
  void set_expand_counter(std::atomic<uint64_t>* counter) {
    if (options_.max_expand_calls != UINT64_MAX) run_expands_ = counter;
  }

  /// Most-constrained-first branching (options.branch_heuristic):
  /// EXPAND picks the pending category with the smallest rank instead
  /// of the smallest id. Not owned; must outlive the search.
  void set_branch_rank(const std::vector<uint64_t>* rank) {
    branch_rank_ = rank;
  }

 private:
  /// Searches from g_ at `depth`.
  DimsatResult Start(int depth) {
    if (ReserveWorkingSet()) {
      Expand(depth);
    } else {
      // Too exhausted even for the working set: the whole subtree is
      // captured unprocessed and nothing is counted.
      MaybeCapture(depth, 0);
    }
    Finish();
    return std::move(result_);
  }

  /// Charges the search's working set, once per search (component
  /// searches share it). False, with the budget error in
  /// result_.status, when the memory budget cannot cover it.
  bool ReserveWorkingSet() {
    if (working_set_reserved_) return true;
    Status reserve = mem_.Reserve(subhierarchy_bytes_, "dimsat.search");
    if (!reserve.ok()) {
      result_.status = std::move(reserve);
      return false;
    }
    working_set_reserved_ = true;
    return true;
  }

  /// Replays checkpoint frames deepest first (see RunResume()).
  void Replay(std::vector<DimsatCheckpointFrame>* frames) {
    if (!ReserveWorkingSet()) {
      AppendRemaining(frames, 0);
      return;
    }
    for (size_t i = 0; i < frames->size(); ++i) {
      if (!ShouldContinue()) {
        if (IsBudgetError(result_.status)) AppendRemaining(frames, i);
        break;
      }
      DimsatCheckpointFrame& frame = (*frames)[i];
      g_ = std::move(frame.g);
      Expand(frame.depth, frame.next_mask);
    }
    frames->clear();
  }

  void Trace(DimsatTraceEvent::Kind kind, const Subhierarchy& g) {
    if (!options_.collect_trace ||
        result_.trace.size() >= options_.max_trace) {
      return;
    }
    // Under a memory budget the trace degrades by silent truncation —
    // the same contract as the max_trace cap — rather than tripping
    // the whole search over an advisory artifact.
    MemoryBudget* mb = mem_.budget();
    if (mb != nullptr) {
      const uint64_t est =
          96 + 16 * (static_cast<uint64_t>(g.num_edges()) + g.top().count());
      if (mb->limit() > 0 && mb->reserved() + est > mb->limit()) return;
      if (!mem_.Reserve(est, "dimsat.trace").ok()) return;
    }
    DimsatTraceEvent event;
    event.kind = kind;
    event.edges = g.Edges();
    g.top().ForEach([&](int c) { event.top.push_back(c); });
    result_.trace.push_back(std::move(event));
  }

  /// Reserves undo-log headroom up to recursion level `depth` (a
  /// high-water charge: backtracking reuses frame storage, so the
  /// estimate only ever grows). Charged at EXPAND entry — before the
  /// node does anything — so a trip captures the node whole.
  Status ChargeDepth(int depth) {
    if (mem_.budget() == nullptr) return Status::OK();
    const uint64_t target = static_cast<uint64_t>(depth) + 1;
    if (target <= undo_charged_depth_) return Status::OK();
    OLAPDC_RETURN_NOT_OK(mem_.Reserve(
        (target - undo_charged_depth_) * frame_bytes_, "dimsat.undo"));
    undo_charged_depth_ = target;
    return Status::OK();
  }

  void Finish() {
    result_.satisfiable = !result_.frozen.empty();
    result_.stats.frozen_found = result_.frozen.size();
  }

  /// Captures the current node as a checkpoint frame iff a checkpoint
  /// sink is attached and the search stopped on a budget error (the
  /// only stops a resume can continue from). `next_mask` is the first
  /// unprocessed successor subset; 0 means the node is redone in full.
  void MaybeCapture(int depth, uint32_t next_mask) {
    if (checkpoint_ == nullptr || !IsBudgetError(result_.status)) return;
    checkpoint_->root = root_;
    checkpoint_->num_categories = schema_.num_categories();
    checkpoint_->branch_heuristic = branch_rank_ != nullptr;
    checkpoint_->frames.push_back(
        DimsatCheckpointFrame{g_, next_mask, depth, component_});
  }

  /// Hands frames[start..] of an interrupted resume back to the new
  /// checkpoint (they were never replayed).
  void AppendRemaining(std::vector<DimsatCheckpointFrame>* frames,
                       size_t start) {
    if (checkpoint_ == nullptr) return;
    checkpoint_->root = root_;
    checkpoint_->num_categories = schema_.num_categories();
    checkpoint_->branch_heuristic = branch_rank_ != nullptr;
    for (size_t j = start; j < frames->size(); ++j) {
      checkpoint_->frames.push_back(std::move((*frames)[j]));
    }
  }

  /// True while the search should continue; false aborts every open
  /// recursion (first witness found, budget hit, or cap reached).
  bool ShouldContinue() const {
    if (external_stop_ != nullptr &&
        external_stop_->load(std::memory_order_relaxed)) {
      return false;
    }
    if (!result_.status.ok()) return false;
    if (result_.frozen.empty()) return true;
    if (!options_.enumerate_all) return false;
    return result_.frozen.size() < options_.max_frozen;
  }

  /// Records one explain decision (no-op when --explain is off).
  void RecordExplain(obs::ExplainEvent::Kind kind, int depth,
                     int category = -1, int edge_from = -1, int edge_to = -1,
                     uint64_t aux = 0) {
    if (recorder_ == nullptr) return;
    obs::ExplainEvent event;
    event.kind = kind;
    event.depth = depth;
    event.category = category;
    event.edge_from = edge_from;
    event.edge_to = edge_to;
    event.aux = aux;
    recorder_->Record(event);
  }

  /// Returns false when the memory budget could not cover the CHECK's
  /// outcome: result_.status is set and *nothing* is recorded — no
  /// stats, no frozen — so the resumed run redoes the node wholesale
  /// and the combined counts stay exact (in particular, no frozen
  /// dimension is ever emitted twice across an interrupt/resume pair).
  bool RunCheck(const Subhierarchy& g, int depth) {
    CheckOutcome outcome = CheckSubhierarchy(relevant_, g, check_options_);
    if (!outcome.frozen.empty()) {
      Status reserve = mem_.Reserve(
          static_cast<uint64_t>(outcome.frozen.size()) * frozen_bytes_,
          "dimsat.frozen");
      if (!reserve.ok()) {
        result_.status = std::move(reserve);
        return false;
      }
    }
    ++result_.stats.check_calls;
    result_.stats.assignments_tried += outcome.assignments_tried;
    if (outcome.structurally_rejected) {
      ++result_.stats.structural_rejections;
    }
    if (outcome.circle_rejected) ++result_.stats.circle_rejections;
    if (outcome.frozen.empty()) {
      Trace(DimsatTraceEvent::Kind::kCheckFail, g);
      RecordExplain(obs::ExplainEvent::Kind::kCheckFail, depth);
      return true;
    }
    Trace(DimsatTraceEvent::Kind::kCheckSuccess, g);
    RecordExplain(obs::ExplainEvent::Kind::kCheckOk, depth, -1, -1, -1,
                  outcome.frozen.size());
    for (FrozenDimension& f : outcome.frozen) {
      if (result_.frozen.size() >= options_.max_frozen) break;
      result_.frozen.push_back(std::move(f));
    }
    return true;
  }

  /// The EXPAND procedure (Figure 6), with the subset loop corrected to
  /// admit R = Into (DESIGN.md deviation 2). Backtracking is mutation +
  /// rollback on the member subhierarchy (the undo log journals each
  /// expansion), so the hot path allocates nothing: the working sets
  /// are small-buffer bitsets and a stack array. Below the split depth
  /// (work-stealing runs only) children are copied out and spawned as
  /// pool tasks instead of recursed into.
  ///
  /// `start_mask` > 0 replays a checkpointed node from its first
  /// unprocessed successor subset. Such a node is *not fresh*: its
  /// entry-side accounting (the expand_calls increment, the trace
  /// event, the prune counters of the deterministic successor scan)
  /// already happened in the interrupted run, so the replay recomputes
  /// the derived state silently — that is what keeps interrupted +
  /// resumed statistics exactly equal to an uninterrupted run's.
  void Expand(int depth, uint32_t start_mask = 0) {
    const bool fresh = (start_mask == 0);
    if (!ShouldContinue()) return;
    // Wall-clock / cancellation / memory probe, amortized by the
    // checker so the common case is one branch per EXPAND.
    Status budget = budget_checker_.Check();
    if (budget.ok()) {
      budget = FaultInjector::Global().MaybeFail("dimsat.expand");
    }
    if (budget.ok()) {
      budget = ChargeDepth(depth);
    }
    if (!budget.ok()) {
      result_.status = std::move(budget);
      RecordExplain(obs::ExplainEvent::Kind::kBudgetStop, depth, -1, -1, -1,
                    result_.stats.expand_calls);
      MaybeCapture(depth, start_mask);
      return;
    }
    if (fresh) {
      if (++result_.stats.expand_calls > options_.max_expand_calls ||
          (run_expands_ != nullptr &&
           run_expands_->fetch_add(1, std::memory_order_relaxed) >=
               options_.max_expand_calls)) {
        // Uncount the node: it is captured unprocessed (next_mask 0),
        // so the resumed run counts it when it actually expands it.
        --result_.stats.expand_calls;
        result_.status = Status::ResourceExhausted(
            "DIMSAT exceeded max_expand_calls");
        RecordExplain(obs::ExplainEvent::Kind::kBudgetStop, depth, -1, -1, -1,
                      result_.stats.expand_calls);
        MaybeCapture(depth, 0);
        return;
      }
      Trace(DimsatTraceEvent::Kind::kExpand, g_);
    }

    // Line (6): g complete once only All awaits expansion.
    DynamicBitset pending = g_.top();
    pending.reset(schema_.all());
    if (pending.none()) {
      if (!RunCheck(g_, depth)) {
        // The CHECK could not afford its outcome: uncount the node and
        // capture it whole so the resume redoes it (frozen dimensions
        // are emitted exactly once across the interrupt/resume pair).
        if (fresh) --result_.stats.expand_calls;
        MaybeCapture(depth, 0);
      }
      return;
    }

    // Line (10): pick a pending top category — lowest id by default,
    // lowest branch rank under the most-constrained-first heuristic.
    // Both are deterministic, so checkpoint replays recompute the
    // interrupted run's exact choice.
    CategoryId ctop = pending.First();
    if (branch_rank_ != nullptr) {
      uint64_t best = (*branch_rank_)[ctop];
      pending.ForEach([&](int c) {
        if ((*branch_rank_)[c] < best) {
          best = (*branch_rank_)[c];
          ctop = c;
        }
      });
    }
    const DynamicBitset& below = g_.Below(ctop);

    // Explain: bracket this node (fresh only — a checkpoint replay's
    // entry was already recorded by the interrupted run, matching the
    // stats contract above).
    ExplainExpandScope explain_scope(fresh ? recorder_ : nullptr, depth, ctop,
                                     result_.stats.expand_calls);

    // Lines (11)-(13): successor choices that are structurally allowed.
    DynamicBitset allowed(schema_.num_categories());
    DynamicBitset into(schema_.num_categories());
    for (CategoryId c : schema_.graph().OutNeighbors(ctop)) {
      // Component searches never leave their universe; filtered
      // successors belong to sibling components and are someone
      // else's search (they are not counted as prunes).
      if (universe_ != nullptr && !universe_->test(c)) continue;
      bool blocked = false;
      // Ss: an existing edge from below ctop into c would become a
      // shortcut once ctop -> c completes the longer path.
      if (options_.prune_shortcuts && g_.In(c).Intersects(below)) {
        blocked = true;
        if (fresh) {
          ++result_.stats.shortcut_prunes;
          RecordExplain(obs::ExplainEvent::Kind::kPruneShortcut, depth, ctop,
                        ctop, c);
        }
      }
      // Sc: c already reaches ctop; the edge would close a cycle.
      if (options_.prune_cycles && below.test(c)) {
        blocked = true;
        if (fresh) {
          ++result_.stats.cycle_prunes;
          RecordExplain(obs::ExplainEvent::Kind::kPruneCycle, depth, ctop,
                        ctop, c);
        }
      }
      if (!blocked) allowed.set(c);
      if (ds_.IntoTargets(ctop).test(c)) into.set(c);
    }

    if (options_.prune_into) {
      // Line (15): a blocked into-target dooms every choice at ctop.
      // AndNotAny is the fused kernel — no temporary bitset.
      if (into.AndNotAny(allowed)) {
        if (fresh) {
          ++result_.stats.into_prunes;
          Trace(DimsatTraceEvent::Kind::kPruned, g_);
          if (recorder_ != nullptr) {
            // Name every blocked into-target: each is an edge the
            // constraint forces but a structural rule forbids.
            (into - allowed).ForEach([&](int c) {
              RecordExplain(obs::ExplainEvent::Kind::kPruneInto, depth, ctop,
                            ctop, c);
            });
          }
        }
        return;
      }
    } else {
      into.clear();
    }

    if (allowed.none()) {
      if (fresh) {
        ++result_.stats.dead_ends;
        Trace(DimsatTraceEvent::Kind::kDeadEnd, g_);
        RecordExplain(obs::ExplainEvent::Kind::kDeadEnd, depth, ctop);
      }
      return;
    }

    // Line (16), corrected: iterate S' over all subsets of the free
    // choices (including the empty set) and recurse on R = S' ∪ Into
    // whenever R is non-empty.
    std::array<CategoryId, 31> free;
    int num_free = 0;
    (allowed - into).ForEach([&](int c) {
      OLAPDC_CHECK(num_free < 31) << "category out-degree too large";
      free[num_free++] = c;
    });
    const bool split = spawner_ && depth < split_depth_;
    const uint32_t subsets = uint32_t{1} << num_free;
    for (uint32_t mask = start_mask; mask < subsets; ++mask) {
      if (!ShouldContinue()) {
        // A budget stop mid-loop captures this node's continuation
        // (subsets [mask, end)); any deeper frame was captured by the
        // child before unwinding, keeping frames deepest-first. On
        // non-budget stops (witness found) MaybeCapture is a no-op.
        MaybeCapture(depth, mask);
        return;
      }
      DynamicBitset r = into;
      for (int i = 0; i < num_free; ++i) {
        if (mask & (uint32_t{1} << i)) r.set(free[i]);
      }
      if (r.none()) continue;
      if (split) {
        Subhierarchy child = g_;
        child.Expand(ctop, r);
        spawner_(std::move(child), depth + 1);
      } else {
        g_.ExpandLogged(ctop, r, &undo_);
        Expand(depth + 1);
        g_.Rollback(&undo_);
      }
    }
  }

  const DimensionSchema& ds_;
  const HierarchySchema& schema_;
  const CategoryId root_;
  const DimsatOptions& options_;
  std::span<const DimensionConstraint> relevant_;
  CheckOptions check_options_;
  BudgetChecker budget_checker_;
  /// Checkpoint sink (null = no capture); sequential runs only.
  DimsatCheckpoint* checkpoint_;
  /// Memory-budget accounting scoped to this search; every byte is
  /// returned when the search dies, on every exit path.
  MemoryReservation mem_;
  bool working_set_reserved_ = false;
  uint64_t undo_charged_depth_ = 0;
  uint64_t subhierarchy_bytes_ = 0;
  uint64_t frame_bytes_ = 0;
  uint64_t frozen_bytes_ = 0;
  Subhierarchy g_;
  SubhierarchyUndoLog undo_;
  /// Explain recorder, cached at construction (null = --explain off).
  obs::SearchTreeRecorder* recorder_ = nullptr;
  DimsatResult result_;
  std::atomic<bool>* external_stop_ = nullptr;
  /// The parallel run's shared EXPAND count (null = this search's own).
  std::atomic<uint64_t>* run_expands_ = nullptr;
  std::function<void(Subhierarchy&&, int)> spawner_;
  int split_depth_ = 0;
  /// Category universe restriction (decomposed component searches).
  const DynamicBitset* universe_ = nullptr;
  /// Branching rank (options.branch_heuristic); null = id order.
  const std::vector<uint64_t>* branch_rank_ = nullptr;
  /// Component tag for captured checkpoint frames (-1 = monolithic).
  int component_ = -1;
};

/// Most-constrained-first branching rank: a key per category ordering
/// the categories by (free successor choices ascending, forced
/// into-target count descending — so out-degree ascending among
/// equals); EXPAND breaks ties towards the lower id. Free choices =
/// out-degree minus forced into-targets — the branching factor EXPAND
/// actually faces at the category; expanding the tightest category
/// first shrinks the subset loop fan-out near the top of the tree. A
/// pure function of the schema, so checkpoint resumes and parallel
/// workers recompute it identically.
std::vector<uint64_t> ComputeBranchRank(const DimensionSchema& ds) {
  const HierarchySchema& schema = ds.hierarchy();
  const int n = schema.num_categories();
  const uint64_t base = static_cast<uint64_t>(n) + 1;
  std::vector<uint64_t> rank(n);
  for (int c = 0; c < n; ++c) {
    uint64_t outdeg = 0, forced = 0;
    for (CategoryId t : schema.graph().OutNeighbors(c)) {
      ++outdeg;
      if (ds.IntoTargets(c).test(t)) ++forced;
    }
    rank[c] = (outdeg - forced) * base + (base - 1 - forced);
  }
  return rank;
}

/// Cross-product composition of the per-component model sets
/// (enumerate mode): every combination picking one model per
/// component — or "absent" for components whose constraints allow it —
/// yields one frozen dimension, except the all-absent combination
/// (the root must expand somewhere). Each composed model is charged
/// against the memory reservation; a non-OK return means the budget
/// could not cover it (out->truncated at that point).
Status ComposeFrozen(const ComponentSplit& split,
                     const std::vector<std::vector<FrozenDimension>>& models,
                     size_t max_frozen, uint64_t frozen_bytes,
                     MemoryReservation* mem,
                     std::vector<FrozenDimension>* out) {
  const int w = static_cast<int>(split.num_components());
  // A component that must be present but has no model kills every
  // combination.
  for (int k = 0; k < w; ++k) {
    if (!split.absent_valid[k] && models[k].empty()) return Status::OK();
  }
  // Mixed-base odometer: digit -1 = absent (absent-valid components
  // only), 0..m-1 = that model. Starts at the lowest combination.
  std::vector<int> choice(w);
  for (int k = 0; k < w; ++k) choice[k] = split.absent_valid[k] ? -1 : 0;
  while (true) {
    int first_present = -1;
    for (int k = 0; k < w; ++k) {
      if (choice[k] >= 0) {
        first_present = k;
        break;
      }
    }
    if (first_present >= 0) {  // skip the all-absent combination
      if (out->size() >= max_frozen) return Status::OK();
      OLAPDC_RETURN_NOT_OK(mem->Reserve(frozen_bytes, "dimsat.frozen"));
      FrozenDimension fd = models[first_present][choice[first_present]];
      for (int k = first_present + 1; k < w; ++k) {
        if (choice[k] >= 0) MergeDisjointInto(models[k][choice[k]], &fd);
      }
      out->push_back(std::move(fd));
    }
    int k = 0;
    for (; k < w; ++k) {
      if (++choice[k] < static_cast<int>(models[k].size())) break;
      choice[k] = split.absent_valid[k] ? -1 : 0;
    }
    if (k == w) return Status::OK();
  }
}

/// The prepared constraints regrouped component by component (in
/// split.constraint_order; vacuous True constraints, which belong to
/// no component, are dropped), so each component checks against a span
/// of one vector instead of a copy of its share.
class ComponentConstraints {
 public:
  /// `split` is borrowed and must outlive this object.
  ComponentConstraints(std::vector<DimensionConstraint> relevant,
                       const ComponentSplit& split)
      : begin_(split.constraint_begin) {
    grouped_.reserve(split.constraint_order.size());
    for (size_t i : split.constraint_order) {
      grouped_.push_back(std::move(relevant[i]));
    }
  }

  std::span<const DimensionConstraint> of(int k) const {
    return std::span<const DimensionConstraint>(grouped_).subspan(
        begin_[k], begin_[k + 1] - begin_[k]);
  }

 private:
  std::vector<DimensionConstraint> grouped_;
  const std::vector<size_t>& begin_;
};

/// Which components a decomposed run searches, in deterministic order.
/// Enumerate mode needs every component's full model set. Decision
/// mode with must-be-present components searches exactly those (a
/// witness merges one model from each; the optional components stay
/// absent). Decision mode where every component may be absent
/// (`*scan_mode`) scans components in order until one yields a witness.
std::vector<int> ComponentsToSearch(const ComponentSplit& split,
                                    bool enumerate_all, bool* scan_mode) {
  const int w = static_cast<int>(split.num_components());
  bool any_required = false;
  for (int k = 0; k < w; ++k) {
    if (!split.absent_valid[k]) any_required = true;
  }
  *scan_mode = !enumerate_all && !any_required;
  std::vector<int> to_search;
  for (int k = 0; k < w; ++k) {
    if (enumerate_all || *scan_mode || !split.absent_valid[k]) {
      to_search.push_back(k);
    }
  }
  return to_search;
}

/// The verdict and composition of a decomposed run once its component
/// searches have stopped, shared by the sequential and the parallel
/// driver. `models[k]` holds component k's models, `err` the first
/// budget error of a searched component (OK if none), and `unsat` says
/// a required component was searched to completion without a model
/// (decision mode). Composed models are charged against the memory
/// budget; a charge that fails leaves its error in result->status and
/// no frozen dimension behind.
void ComposeComponents(const DimsatOptions& options, int num_categories,
                       const ComponentSplit& split,
                       const std::vector<int>& to_search, bool scan_mode,
                       bool unsat, const Status& err,
                       std::vector<std::vector<FrozenDimension>>* models,
                       DimsatResult* result) {
  if (!options.enumerate_all) {
    if (scan_mode) {
      // A witness is a verdict even when another component errored.
      for (int k : to_search) {
        if (!(*models)[k].empty()) {
          result->frozen.push_back(std::move((*models)[k][0]));
          break;
        }
      }
      if (result->frozen.empty()) result->status = err;
    } else if (unsat) {
      // Some required component is exhaustively UNSAT: the whole
      // query is, regardless of how the other components stopped.
    } else if (!err.ok()) {
      result->status = err;
    } else {
      // Every searched component yielded a model: the witness is the
      // union of each one's first.
      FrozenDimension fd = std::move((*models)[to_search[0]][0]);
      for (size_t j = 1; j < to_search.size(); ++j) {
        MergeDisjointInto((*models)[to_search[j]][0], &fd);
      }
      result->frozen.push_back(std::move(fd));
    }
  } else if (!err.ok()) {
    result->status = err;
  } else {
    MemoryReservation mem(options.budget != nullptr
                              ? options.budget->memory()
                              : nullptr);
    Status composed =
        ComposeFrozen(split, *models, options.max_frozen,
                      ApproxFrozenBytes(num_categories), &mem,
                      &result->frozen);
    if (!composed.ok()) {
      result->status = std::move(composed);
      result->frozen.clear();
    }
  }
  result->satisfiable = !result->frozen.empty();
  result->stats.frozen_found = result->frozen.size();
}

DimsatResult Failed(Status status) {
  DimsatResult result;
  result.status = std::move(status);
  return result;
}

/// The prologue and epilogue every entry point shares. Construction
/// opens the run's span and starts its wall clock (sampled only when
/// metrics or a trace sink listen, so an unobserved run pays one
/// branch); Prepare() builds what the drivers search with; Finish()
/// publishes the finished run.
class DimsatRun {
 public:
  DimsatRun(const DimensionSchema& ds, CategoryId root,
            const DimsatOptions& options, const char* span_name,
            bool resume)
      : ds(ds),
        root(root),
        options(options),
        resume_(resume),
        span_(span_name),
        observed_(obs::MetricsEnabled() ||
                  obs::TraceSink::Global().enabled()) {
    if (observed_) start_ = std::chrono::steady_clock::now();
  }

  /// Sigma(ds, root) with composed/through shorthands expanded into
  /// plain path atoms (so the circle operator and the into-detection
  /// see the Definition 3 core language), the checkpoint sink cleared,
  /// the branching rank when `branch_heuristic`, and the component
  /// split when `decompose`.
  Status Prepare(bool branch_heuristic, bool decompose) {
    for (const DimensionConstraint* c : ds.RelevantConstraints(root)) {
      OLAPDC_ASSIGN_OR_RETURN(
          ExprPtr expanded,
          ExpandShorthands(ds.hierarchy(), c->expr, options.path_limit));
      relevant.push_back(
          DimensionConstraint{c->root, Simplify(expanded), c->label});
    }
    if (options.checkpoint != nullptr) *options.checkpoint = DimsatCheckpoint{};
    if (branch_heuristic) {
      rank_ = ComputeBranchRank(ds);
      branch_rank = &rank_;
    }
    if (decompose) {
      split = ComputeComponentSplit(ds, root, relevant);
    }
    return Status::OK();
  }

  /// Publishes the run counters, the olapdc.dimsat.* metrics and the
  /// span statistics; a parallel run (`pool` non-null) adds the pool's
  /// thread, task and steal counts.
  void Finish(const DimsatResult& result, exec::WorkStealingPool* pool) {
    if (obs::MetricsEnabled()) {
      if (resume_) {
        obs::Count("olapdc.dimsat.resumes");
      } else if (split.eligible) {
        obs::Count("olapdc.dimsat.decomposed_runs");
      }
      if (options.checkpoint != nullptr && !options.checkpoint->empty()) {
        obs::Count("olapdc.dimsat.checkpoints");
      }
    }
    if (!observed_) return;
    if (pool != nullptr) pool->PublishMetricNames();
    FlushDimsatMetrics(result.stats, result.status,
                       std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start_)
                           .count());
    if (!span_.active()) return;
    if (pool != nullptr) {
      span_.AddStat("threads", pool->num_threads());
      span_.AddStat("tasks", result.stats.parallel_tasks);
      span_.AddStat("steals", result.stats.parallel_steals);
    }
    span_.AddStat("root", ds.hierarchy().CategoryName(root));
    span_.AddStat("satisfiable", result.satisfiable);
    span_.AddStat("expand_calls", result.stats.expand_calls);
    span_.AddStat("check_calls", result.stats.check_calls);
    span_.AddStat("prune_into", result.stats.into_prunes);
    span_.AddStat("prune_shortcut", result.stats.shortcut_prunes);
    span_.AddStat("prune_cycle", result.stats.cycle_prunes);
    span_.AddStat("dead_ends", result.stats.dead_ends);
    span_.AddStat("frozen_found", result.stats.frozen_found);
    if (!result.status.ok()) {
      span_.AddStat("status", StatusCodeToString(result.status.code()));
    }
  }

  const DimensionSchema& ds;
  const CategoryId root;
  const DimsatOptions& options;
  std::vector<DimensionConstraint> relevant;
  /// The most-constrained-first rank; null = id order.
  const std::vector<uint64_t>* branch_rank = nullptr;
  /// Eligible only when the run decomposes.
  ComponentSplit split;

 private:
  const bool resume_;
  obs::ObsSpan span_;
  const bool observed_;
  std::chrono::steady_clock::time_point start_;
  std::vector<uint64_t> rank_;
};

/// The sequential decomposed driver: the components are searched one
/// after another on a single DimsatSearch, in deterministic order, then
/// composed. Handles both fresh runs and checkpoint resumes
/// (`resume_from`); on a budget stop it captures a v2 checkpoint —
/// frames of the interrupted component, models collected so far, and
/// seed frames for components not yet started — and reports *no*
/// frozen dimensions (partial per-component sets cannot compose; the
/// resume emits the full composed set instead).
DimsatResult RunDecomposedSequential(DimsatRun& run,
                                     DimsatCheckpoint* resume_from) {
  const DimsatOptions& options = run.options;
  const ComponentSplit& split = run.split;
  const int n = run.ds.hierarchy().num_categories();
  const int w = static_cast<int>(split.num_components());
  DimsatResult result;
  const ComponentConstraints constraints(std::move(run.relevant), split);
  bool scan_mode = false;
  const std::vector<int> to_search =
      ComponentsToSearch(split, options.enumerate_all, &scan_mode);

  // Resume bookkeeping: partition the interrupted run's checkpoint
  // into per-component frontiers and already-collected model sets.
  std::vector<std::vector<DimsatCheckpointFrame>> frames(w);
  std::vector<std::vector<FrozenDimension>> models(w);
  std::vector<char> done(w, 0);
  if (resume_from != nullptr) {
    std::vector<char> has_entry(w, 0);
    for (DimsatCheckpointFrame& frame : resume_from->frames) {
      OLAPDC_DCHECK(0 <= frame.component && frame.component < w);
      frames[frame.component].push_back(std::move(frame));
    }
    for (DimsatSolvedComponent& comp : resume_from->solved) {
      OLAPDC_DCHECK(0 <= comp.component && comp.component < w);
      has_entry[comp.component] = 1;
      models[comp.component] = std::move(comp.models);
    }
    for (int k = 0; k < w; ++k) {
      done[k] = has_entry[k] && frames[k].empty();
    }
  }

  DimsatCheckpoint local_cp;
  DimsatOptions search_options = options;
  search_options.checkpoint =
      options.checkpoint != nullptr ? &local_cp : nullptr;
  DimsatSearch search(run.ds, run.root, search_options, {});
  search.set_branch_rank(run.branch_rank);
  // The v2 checkpoint this run leaves behind, header filled in.
  auto capture = [&]() {
    DimsatCheckpoint* cp = options.checkpoint;
    cp->root = run.root;
    cp->num_categories = n;
    cp->num_components = w;
    cp->branch_heuristic = run.branch_rank != nullptr;
    return cp;
  };

  int interrupted_idx = -1;
  bool unsat_proven = false;
  for (size_t idx = 0; idx < to_search.size(); ++idx) {
    const int k = to_search[idx];
    if (!done[k]) {
      std::vector<FrozenDimension> found =
          search.SolveComponent(k, split.universes[k], constraints.of(k),
                                &frames[k]);
      for (FrozenDimension& f : found) models[k].push_back(std::move(f));
      if (!search.status().ok()) {
        interrupted_idx = static_cast<int>(idx);
        break;
      }
      done[k] = 1;
    }
    if (!options.enumerate_all) {
      // A scan-mode witness, or a required component without a model,
      // decides the run.
      if (scan_mode && !models[k].empty()) break;
      if (!scan_mode && models[k].empty()) {
        unsat_proven = true;
        break;
      }
    }
  }
  result.stats = search.stats();

  if (interrupted_idx >= 0) {
    result.status = search.status();
    if (IsBudgetError(result.status) && options.checkpoint != nullptr) {
      DimsatCheckpoint* cp = capture();
      cp->frames = std::move(local_cp.frames);
      const int interrupted_comp = to_search[interrupted_idx];
      if (!models[interrupted_comp].empty()) {
        cp->solved.push_back(DimsatSolvedComponent{
            interrupted_comp, std::move(models[interrupted_comp])});
      }
      for (int k = 0; k < w; ++k) {
        if (done[k]) {
          cp->solved.push_back(
              DimsatSolvedComponent{k, std::move(models[k])});
        }
      }
      for (size_t j = interrupted_idx + 1; j < to_search.size(); ++j) {
        const int k = to_search[j];
        if (done[k]) continue;
        if (!frames[k].empty()) {
          // An earlier interrupt's still-unreplayed frontier for this
          // component carries over verbatim.
          for (DimsatCheckpointFrame& f : frames[k]) {
            cp->frames.push_back(std::move(f));
          }
        } else {
          cp->frames.push_back(DimsatCheckpointFrame{
              Subhierarchy(n, run.root), 0, 0, k});
        }
      }
    }
    result.satisfiable = false;
    result.stats.frozen_found = 0;
    return result;
  }

  ComposeComponents(options, n, split, to_search, scan_mode, unsat_proven,
                    Status::OK(), &models, &result);
  if (IsBudgetError(result.status) && options.checkpoint != nullptr) {
    // Only the composition can stop here. Everything is solved; the
    // resume only needs to recompose.
    DimsatCheckpoint* cp = capture();
    for (int k = 0; k < w; ++k) {
      cp->solved.push_back(DimsatSolvedComponent{k, std::move(models[k])});
    }
  }
  return result;
}

/// Everything the tasks of one parallel run share. Lives on the
/// caller's stack; the TaskGroup drains before it dies.
struct ParallelShared {
  ParallelShared(DimsatRun& run, exec::WorkStealingPool* pool)
      : run(run),
        mem(run.options.budget != nullptr ? run.options.budget->memory()
                                          : nullptr),
        seed_bytes(
            ApproxSubhierarchyBytes(run.ds.hierarchy().num_categories())),
        group(pool) {}

  DimsatRun& run;
  /// Queued task seeds are charged against the request's memory budget
  /// while they sit in the pool (reserved at spawn, released when the
  /// task starts and the seed is consumed).
  MemoryBudget* const mem;
  const uint64_t seed_bytes;
  exec::TaskGroup group;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> tasks{0};
  std::atomic<uint64_t> stolen{0};
  /// The run's EXPAND count against options.max_expand_calls.
  std::atomic<uint64_t> expands{0};
  std::mutex mu;
  DimsatResult merged;  // frozen/stats/status guarded by mu
};

void RunSubtreeTask(ParallelShared* shared, Subhierarchy seed, int depth);

void SpawnSubtree(ParallelShared* shared, Subhierarchy&& child, int depth) {
  // Chaos site: a failed submission degrades to inline execution on
  // the calling thread — slower, never lost (degraded-but-correct).
  if (!FaultInjector::Global().MaybeFail("exec.submit").ok()) {
    RunSubtreeTask(shared, std::move(child), depth);
    return;
  }
  bool charged = false;
  if (shared->mem != nullptr) {
    charged = shared->mem->Reserve(shared->seed_bytes, "dimsat.seed").ok();
    if (!charged) {
      // Exhausted: skip the queued copy and run inline; the search
      // trips on its first budget probe and degrades with partial
      // stats instead of piling more seeds into a full request.
      RunSubtreeTask(shared, std::move(child), depth);
      return;
    }
  }
  shared->group.Spawn(
      [shared, seed = std::move(child), depth, charged]() mutable {
        if (charged) shared->mem->Release(shared->seed_bytes);
        RunSubtreeTask(shared, std::move(seed), depth);
      });
}

void RunSubtreeTask(ParallelShared* shared, Subhierarchy seed, int depth) {
  shared->tasks.fetch_add(1, std::memory_order_relaxed);
  // depth 0 is the externally injected root task; "stolen" only makes
  // sense for worker-spawned children.
  if (depth > 0 && exec::WorkStealingPool::CurrentTaskStolen()) {
    shared->stolen.fetch_add(1, std::memory_order_relaxed);
  }
  if (shared->stop.load(std::memory_order_acquire)) return;

  const DimsatRun& run = shared->run;
  DimsatSearch search(run.ds, run.root, run.options, run.relevant);
  search.set_branch_rank(run.branch_rank);
  search.set_external_stop(&shared->stop);
  search.set_expand_counter(&shared->expands);
  search.set_spawner(
      [shared](Subhierarchy&& child, int child_depth) {
        SpawnSubtree(shared, std::move(child), child_depth);
      },
      run.options.parallel_split_depth);
  DimsatResult partial = search.RunFrom(std::move(seed), depth);

  std::lock_guard<std::mutex> lock(shared->mu);
  AccumulateStats(&shared->merged.stats, partial.stats);
  if (!partial.status.ok()) {
    // First budget expiry / cap overrun wins and stops every worker —
    // this is what bounds wall-clock after a Cancel().
    if (shared->merged.status.ok()) shared->merged.status = partial.status;
    shared->stop.store(true, std::memory_order_release);
  }
  for (FrozenDimension& f : partial.frozen) {
    if (shared->merged.frozen.size() >= run.options.max_frozen) break;
    shared->merged.frozen.push_back(std::move(f));
  }
  if (!shared->merged.frozen.empty() && !run.options.enumerate_all) {
    shared->stop.store(true, std::memory_order_release);
  }
  if (shared->merged.frozen.size() >= run.options.max_frozen) {
    shared->stop.store(true, std::memory_order_release);
  }
}

/// The monolithic work-stealing driver: EXPAND nodes above
/// options.parallel_split_depth become stealable tasks, so skewed
/// subtrees rebalance dynamically instead of serializing on whichever
/// worker drew them.
DimsatResult RunWorkStealing(ParallelShared* shared) {
  const DimsatRun& run = shared->run;
  SpawnSubtree(shared,
               Subhierarchy(run.ds.hierarchy().num_categories(), run.root),
               0);
  shared->group.Wait();

  DimsatResult merged = std::move(shared->merged);
  // A budget error from a worker that was merely told to stop early is
  // not an error of the whole run.
  if (shared->stop.load() && !run.options.enumerate_all &&
      !merged.frozen.empty()) {
    merged.status = Status::OK();
  }
  merged.satisfiable = !merged.frozen.empty();
  merged.stats.frozen_found = merged.frozen.size();
  return merged;
}

/// The decomposed parallel driver: one pool task per component — the
/// component *is* the steal granularity, replacing the depth split of
/// the monolithic driver (components are independent by construction,
/// so no merge locking, no cross-task subtree spawning, and the
/// shared stop flag only fires on verdict-deciding events and budget
/// stops). Each task solves its component sequentially; the
/// composition runs on the caller's thread after the group drains.
DimsatResult RunDecomposedParallel(ParallelShared* shared) {
  DimsatRun& run = shared->run;
  const DimsatOptions& options = run.options;
  const ComponentSplit& split = run.split;
  const int w = static_cast<int>(split.num_components());
  const ComponentConstraints constraints(std::move(run.relevant), split);
  bool scan_mode = false;
  const std::vector<int> to_search =
      ComponentsToSearch(split, options.enumerate_all, &scan_mode);

  std::vector<std::vector<FrozenDimension>> models(w);
  std::vector<DimsatResult> partials(w);  // stats and status only
  /// Set only by semantic verdicts (a scan-mode witness, a required
  /// component proven UNSAT) — never by budget errors, so the
  /// composition can tell "decided" from "interrupted".
  std::atomic<bool> decided{false};
  for (int k : to_search) {
    shared->group.Spawn([&, shared, k]() {
      shared->tasks.fetch_add(1, std::memory_order_relaxed);
      if (exec::WorkStealingPool::CurrentTaskStolen()) {
        shared->stolen.fetch_add(1, std::memory_order_relaxed);
      }
      if (shared->stop.load(std::memory_order_acquire)) return;
      DimsatSearch search(run.ds, run.root, options, {});
      search.set_branch_rank(run.branch_rank);
      search.set_external_stop(&shared->stop);
      search.set_expand_counter(&shared->expands);
      std::vector<DimsatCheckpointFrame> fresh;
      models[k] = search.SolveComponent(k, split.universes[k],
                                        constraints.of(k), &fresh);
      partials[k].stats = search.stats();
      partials[k].status = search.status();
      const bool errored = !search.status().ok();
      bool verdict = false;
      if (!errored && !options.enumerate_all &&
          !shared->stop.load(std::memory_order_acquire)) {
        // Completed cleanly: a scan-mode witness or a required
        // component with no model decides the whole run.
        verdict = scan_mode ? !models[k].empty() : models[k].empty();
      }
      if (verdict) decided.store(true, std::memory_order_release);
      if (verdict || errored) {
        shared->stop.store(true, std::memory_order_release);
      }
    });
  }
  shared->group.Wait();

  DimsatResult result;
  Status first_err;
  for (int k = 0; k < w; ++k) {
    AccumulateStats(&result.stats, partials[k].stats);
    if (!partials[k].status.ok() && first_err.ok()) {
      first_err = partials[k].status;
    }
  }
  ComposeComponents(options, run.ds.hierarchy().num_categories(), split,
                    to_search, scan_mode, decided.load(), first_err, &models,
                    &result);
  return result;
}

bool Decomposable(const DimsatOptions& options) {
  return options.decompose && !options.collect_trace &&
         !options.require_injective_names;
}

}  // namespace

DimsatResult Dimsat(const DimensionSchema& ds, CategoryId root,
                    const DimsatOptions& options) {
  OLAPDC_CHECK(0 <= root && root < ds.hierarchy().num_categories());
  // The Figure 7 trace and frontier capture are properties of one
  // depth-first traversal: both run the sequential engine.
  const bool parallel = options.num_threads > 1 && !options.collect_trace &&
                        options.checkpoint == nullptr;
  // Overload shedding happens before any other work: a shed request
  // costs microseconds, holds nothing, and is safe to retry verbatim.
  exec::AdmissionGate::Ticket ticket(parallel ? options.admission : nullptr);
  if (!ticket.admitted()) return Failed(ticket.status());

  DimsatRun run(ds, root, options,
                parallel ? "dimsat.parallel_run" : "dimsat.run",
                /*resume=*/false);
  Status prepared = run.Prepare(options.branch_heuristic,
                                Decomposable(options));
  if (!prepared.ok()) return Failed(std::move(prepared));

  DimsatResult result;
  std::unique_ptr<exec::WorkStealingPool> local_pool;
  exec::WorkStealingPool* pool = nullptr;
  if (parallel) {
    // An explicit options.pool wins. Otherwise use the shared process
    // pool — unless it is smaller than the requested num_threads, in
    // which case a run-local pool honors the caller's explicit request
    // (e.g. num_threads=8 on a host whose process pool was sized 1)
    // rather than silently degrading to the smaller pool.
    pool = options.pool;
    if (pool == nullptr) {
      pool = &exec::ProcessPool();
      if (pool->num_threads() < options.num_threads) {
        local_pool =
            std::make_unique<exec::WorkStealingPool>(options.num_threads);
        pool = local_pool.get();
      }
    }
    ParallelShared shared(run, pool);
    // Independent components replace the depth split as the steal
    // granularity when the split is eligible.
    result = run.split.eligible ? RunDecomposedParallel(&shared)
                                : RunWorkStealing(&shared);
    result.stats.parallel_tasks = shared.tasks.load();
    result.stats.parallel_steals = shared.stolen.load();
  } else if (run.split.eligible) {
    result = RunDecomposedSequential(run, nullptr);
  } else {
    DimsatSearch search(ds, root, options, run.relevant);
    search.set_branch_rank(run.branch_rank);
    result = search.Run();
  }
  run.Finish(result, pool);
  return result;
}

DimsatResult ResumeDimsat(const DimensionSchema& ds, CategoryId root,
                          const DimsatOptions& options,
                          DimsatCheckpoint checkpoint) {
  OLAPDC_CHECK(0 <= root && root < ds.hierarchy().num_categories());
  if (checkpoint.empty()) {
    // The interrupted run already covered the whole tree.
    return DimsatResult{};
  }
  if (checkpoint.root != root ||
      checkpoint.num_categories != ds.hierarchy().num_categories()) {
    return Failed(Status::InvalidArgument(
        "checkpoint does not match this schema/root (root " +
        std::to_string(checkpoint.root) + "/" + std::to_string(root) +
        ", categories " + std::to_string(checkpoint.num_categories) + "/" +
        std::to_string(ds.hierarchy().num_categories()) + ")"));
  }
  DimsatRun run(ds, root, options, "dimsat.resume", /*resume=*/true);
  // The frames' next_mask values index the successor subsets of the
  // categories the interrupted run's order picked: replay under that
  // order, whatever these options ask for.
  const bool decomposed = checkpoint.num_components > 0;
  Status prepared = run.Prepare(checkpoint.branch_heuristic,
                                decomposed && Decomposable(options));
  if (!prepared.ok()) return Failed(std::move(prepared));

  DimsatResult result;
  if (decomposed) {
    // A decomposed checkpoint only resumes under options that
    // reproduce the interrupted run's exact component split (the
    // split is a pure function of schema and root).
    if (!run.split.eligible ||
        static_cast<int>(run.split.num_components()) !=
            checkpoint.num_components) {
      return Failed(Status::InvalidArgument(
          "decomposed checkpoint does not match: the current options and "
          "schema do not reproduce the interrupted run's component split"));
    }
    result = RunDecomposedSequential(run, &checkpoint);
  } else {
    DimsatSearch search(ds, root, options, run.relevant);
    search.set_branch_rank(run.branch_rank);
    result = search.RunResume(std::move(checkpoint));
  }
  run.Finish(result, nullptr);
  return result;
}

DimsatResult EnumerateFrozenDimensions(const DimensionSchema& ds,
                                       CategoryId root,
                                       DimsatOptions options) {
  options.enumerate_all = true;
  return Dimsat(ds, root, options);
}

}  // namespace olapdc
