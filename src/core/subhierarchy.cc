#include "core/subhierarchy.h"

namespace olapdc {

Subhierarchy::Subhierarchy(int num_categories, CategoryId root)
    : n_(num_categories),
      root_(root),
      cats_(num_categories),
      top_(num_categories),
      sets_(3 * static_cast<size_t>(num_categories),
            DynamicBitset(num_categories)) {
  OLAPDC_CHECK(0 <= root && root < num_categories);
  cats_.set(root);
  top_.set(root);
}

int Subhierarchy::num_edges() const {
  int count = 0;
  cats_.ForEach([&](int u) { count += out_of(u).count(); });
  return count;
}

void Subhierarchy::Expand(CategoryId ctop, const DynamicBitset& r) {
  OLAPDC_DCHECK(top_.test(ctop)) << "Expand target must be a top category";
  OLAPDC_DCHECK(r.any());
  top_.reset(ctop);

  // Everything below ctop — plus ctop itself — now reaches every
  // category that r's members reach.
  DynamicBitset delta = below_of(ctop);
  delta.set(ctop);

  std::vector<CategoryId> frontier;
  r.ForEach([&](int c) {
    if (!cats_.test(c)) {
      cats_.set(c);
      top_.set(c);
    }
    out_of(ctop).set(c);
    in_of(c).set(ctop);
    frontier.push_back(c);
  });

  // Propagate delta to every category reachable from r (inclusive).
  // Prior Below sets were exact, so the new facts are exactly `delta`
  // on that reachable region.
  DynamicBitset visited(n_);
  while (!frontier.empty()) {
    CategoryId x = frontier.back();
    frontier.pop_back();
    if (visited.test(x)) continue;
    visited.set(x);
    below_of(x) |= delta;
    out_of(x).ForEach([&](int y) {
      if (!visited.test(y)) frontier.push_back(y);
    });
  }
}

void Subhierarchy::ExpandLogged(CategoryId ctop, const DynamicBitset& r,
                                SubhierarchyUndoLog* log) {
  OLAPDC_DCHECK(top_.test(ctop)) << "Expand target must be a top category";
  OLAPDC_DCHECK(r.any());
  OLAPDC_DCHECK(out_of(ctop).none()) << "top category cannot have edges yet";
  SubhierarchyUndoLog::Frame frame;
  frame.ctop = ctop;
  frame.cats_start = static_cast<uint32_t>(log->new_cats_.size());
  frame.below_start = static_cast<uint32_t>(log->below_used_);
  top_.reset(ctop);

  if (log->scratch_delta_.size() != n_) {
    log->scratch_delta_ = DynamicBitset(n_);
    log->scratch_visit_ = DynamicBitset(n_);
    log->scratch_visited_ = DynamicBitset(n_);
  }
  DynamicBitset& delta = log->scratch_delta_;
  delta = below_of(ctop);
  delta.set(ctop);

  r.ForEach([&](int c) {
    if (!cats_.test(c)) {
      cats_.set(c);
      top_.set(c);
      log->new_cats_.push_back(c);
    }
    out_of(ctop).set(c);
    in_of(c).set(ctop);
  });

  // Propagate delta to every category reachable from r (inclusive),
  // saving each touched Below so Rollback can restore it bit-exactly
  // (|= may re-set bits that were already present, so a shared delta
  // alone cannot be subtracted back out).
  DynamicBitset& to_visit = log->scratch_visit_;
  DynamicBitset& visited = log->scratch_visited_;
  to_visit = r;
  visited.clear();
  for (int x = to_visit.First(); x >= 0; x = to_visit.First()) {
    to_visit.reset(x);
    visited.set(x);
    if (log->below_used_ == log->saved_below_.size()) {
      log->saved_below_.push_back({x, below_of(x)});
    } else {
      SubhierarchyUndoLog::SavedBelow& slot =
          log->saved_below_[log->below_used_];
      slot.cat = x;
      slot.old_below = below_of(x);
    }
    ++log->below_used_;
    below_of(x) |= delta;
    to_visit |= out_of(x);
    to_visit -= visited;
  }
  log->frames_.push_back(frame);
}

void Subhierarchy::Rollback(SubhierarchyUndoLog* log) {
  OLAPDC_DCHECK(!log->frames_.empty());
  const SubhierarchyUndoLog::Frame frame = log->frames_.back();
  log->frames_.pop_back();

  // Restore the journalled Below snapshots (disjoint categories within
  // a frame, so order is irrelevant).
  for (size_t i = frame.below_start; i < log->below_used_; ++i) {
    SubhierarchyUndoLog::SavedBelow& saved = log->saved_below_[i];
    below_of(saved.cat) = saved.old_below;
  }
  log->below_used_ = frame.below_start;

  // Deeper frames have already been rolled back, so out_of(ctop) is again
  // exactly the R of this frame's expansion.
  out_of(frame.ctop).ForEach([&](int c) { in_of(c).reset(frame.ctop); });
  out_of(frame.ctop).clear();

  // Drop the categories this frame introduced.
  for (size_t i = frame.cats_start; i < log->new_cats_.size(); ++i) {
    const CategoryId c = log->new_cats_[i];
    cats_.reset(c);
    top_.reset(c);
  }
  log->new_cats_.resize(frame.cats_start);
  top_.set(frame.ctop);
}

bool Subhierarchy::IsPath(const std::vector<CategoryId>& path) const {
  if (path.empty()) return false;
  if (!cats_.test(path[0])) return false;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    if (!HasEdge(path[i], path[i + 1])) return false;
  }
  return true;
}

std::vector<std::pair<CategoryId, CategoryId>> Subhierarchy::Edges() const {
  std::vector<std::pair<CategoryId, CategoryId>> edges;
  cats_.ForEach([&](int u) {
    out_of(u).ForEach([&](int v) { edges.emplace_back(u, v); });
  });
  return edges;
}

Digraph Subhierarchy::ToDigraph() const {
  Digraph g(n_);
  for (const auto& [u, v] : Edges()) g.AddEdge(u, v);
  return g;
}

bool Subhierarchy::HasCycleIn() const {
  bool found = false;
  cats_.ForEach([&](int u) { found |= below_of(u).test(u); });
  return found;
}

bool Subhierarchy::HasShortcut() const {
  bool found = false;
  cats_.ForEach([&](int u) {
    if (found) return;
    out_of(u).ForEach([&](int v) {
      if (found) return;
      // Edge (u, v) plus a path u -> w -> ... -> v for some other
      // successor w of u, i.e. w in Below(v). v itself is in Below(v)
      // only on a cycle, so the word-wise test suffices unless it is.
      if (!below_of(v).test(v)) {
        found = out_of(u).Intersects(below_of(v));
      } else {
        out_of(u).ForEach(
            [&](int w) { found |= (w != v && below_of(v).test(w)); });
      }
    });
  });
  return found;
}

void Subhierarchy::UnionWith(const Subhierarchy& other) {
  OLAPDC_DCHECK(n_ == other.n_);
  OLAPDC_DCHECK(root_ == other.root_);
  cats_ |= other.cats_;
  for (size_t i = 0; i < sets_.size(); ++i) sets_[i] |= other.sets_[i];
  top_.clear();
  cats_.ForEach([&](int c) {
    if (!out_of(c).any()) top_.set(c);
  });
}

std::optional<Subhierarchy> Subhierarchy::FromEdgeList(
    int num_categories, CategoryId root,
    const std::vector<std::pair<CategoryId, CategoryId>>& edges) {
  if (root < 0 || root >= num_categories) return std::nullopt;
  Subhierarchy g(num_categories, root);
  for (const auto& [u, v] : edges) {
    if (u < 0 || u >= num_categories || v < 0 || v >= num_categories ||
        u == v) {
      return std::nullopt;
    }
    g.cats_.set(u);
    g.cats_.set(v);
    g.out_of(u).set(v);
    g.in_of(v).set(u);
  }

  // Every category of g must be reachable from root (invariant of each
  // EXPAND step, so of every checkpointed frontier).
  DynamicBitset seen(num_categories);
  std::vector<CategoryId> frontier{root};
  seen.set(root);
  while (!frontier.empty()) {
    CategoryId u = frontier.back();
    frontier.pop_back();
    g.out_of(u).ForEach([&](int v) {
      if (!seen.test(v)) {
        seen.set(v);
        frontier.push_back(v);
      }
    });
  }
  if (!g.cats_.IsSubsetOf(seen)) return std::nullopt;

  // In a search state, top() is exactly the not-yet-expanded categories
  // — the ones with no outgoing edge (the search removes a category
  // from top() precisely when it gains its edges).
  g.top_.clear();
  g.cats_.ForEach([&](int u) {
    if (g.out_of(u).none()) g.top_.set(u);
  });
  return g;
}

void Subhierarchy::RebuildBelow() {
  // Relaxation to a fixpoint of Below(v) = union over edges (u, v) of
  // {u} ∪ Below(u). Edge sets may be cyclic (pruning off, or a
  // brute-force candidate); a category on a cycle ends up in its own
  // Below, exactly as EXPAND's propagation leaves it.
  bool changed = true;
  while (changed) {
    changed = false;
    cats_.ForEach([&](int v) {
      DynamicBitset& below = below_of(v);
      in_of(v).ForEach([&](int u) {
        if (below.test(u) && below_of(u).IsSubsetOf(below)) return;
        below.set(u);
        below |= below_of(u);
        changed = true;
      });
    });
  }
}

std::optional<Subhierarchy> Subhierarchy::FromPartialEdges(
    int num_categories, CategoryId root,
    const std::vector<std::pair<CategoryId, CategoryId>>& edges) {
  std::optional<Subhierarchy> g = FromEdgeList(num_categories, root, edges);
  if (g.has_value()) g->RebuildBelow();
  return g;
}

std::optional<Subhierarchy> Subhierarchy::FromEdges(
    int num_categories, CategoryId root, CategoryId all,
    const std::vector<std::pair<CategoryId, CategoryId>>& edges) {
  std::optional<Subhierarchy> g = FromEdgeList(num_categories, root, edges);
  if (!g.has_value()) return std::nullopt;
  // Unless g is the single node root == All, All must be in g and be
  // its only category without outgoing edges (any other cannot reach
  // All). With acyclicity this implies c ->* All for all c. (Cyclic
  // edge sets are representable — the structural CHECK rejects them.)
  const bool lone_all = root == all && g->cats_.count() == 1;
  if (!lone_all) {
    if (all < 0 || all >= num_categories || !g->top_.test(all) ||
        g->top_.count() != 1) {
      return std::nullopt;
    }
  }
  g->RebuildBelow();
  return g;
}

}  // namespace olapdc
