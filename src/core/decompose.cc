#include "core/decompose.h"

#include <numeric>

namespace olapdc {

namespace {

/// Evaluates a constraint expression under the all-atoms-false
/// valuation — the truth value the constraint takes on any model in
/// which its component is entirely absent (every path, equality, and
/// order atom then fails, because each mentions at least one absent
/// intermediate category; see the gates in decompose.h).
bool EvalAllFalse(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kTrue:
      return true;
    case ExprKind::kFalse:
    case ExprKind::kPathAtom:
    case ExprKind::kEqualityAtom:
    case ExprKind::kComposedAtom:
    case ExprKind::kThroughAtom:
    case ExprKind::kOrderAtom:
      return false;
    case ExprKind::kNot:
      return !EvalAllFalse(*e.children[0]);
    case ExprKind::kAnd: {
      for (const ExprPtr& c : e.children) {
        if (!EvalAllFalse(*c)) return false;
      }
      return true;
    }
    case ExprKind::kOr: {
      for (const ExprPtr& c : e.children) {
        if (EvalAllFalse(*c)) return true;
      }
      return false;
    }
    case ExprKind::kImplies:
      return !EvalAllFalse(*e.children[0]) || EvalAllFalse(*e.children[1]);
    case ExprKind::kEquiv:
      return EvalAllFalse(*e.children[0]) == EvalAllFalse(*e.children[1]);
    case ExprKind::kXor:
      return EvalAllFalse(*e.children[0]) != EvalAllFalse(*e.children[1]);
    case ExprKind::kExactlyOne: {
      int truths = 0;
      for (const ExprPtr& c : e.children) {
        if (EvalAllFalse(*c)) ++truths;
      }
      return truths == 1;
    }
  }
  return false;
}

/// Adds every category an expression's atoms reference to `out`.
/// Returns false as soon as an equality or order atom targets `a` or
/// `b` (the G4 gate: assignment branching on a shared category).
bool CollectMentioned(const Expr& e, CategoryId a, CategoryId b,
                      DynamicBitset* out) {
  if (e.IsAtom()) {
    if ((e.kind == ExprKind::kEqualityAtom ||
         e.kind == ExprKind::kOrderAtom) &&
        (e.target == a || e.target == b)) {
      return false;
    }
    for (CategoryId c : e.path) out->set(c);
    if (e.root != kNoCategory) out->set(e.root);
    if (e.via != kNoCategory) out->set(e.via);
    if (e.target != kNoCategory) out->set(e.target);
    return true;
  }
  for (const ExprPtr& c : e.children) {
    if (!CollectMentioned(*c, a, b, out)) return false;
  }
  return true;
}

uint64_t MixSalt(uint64_t a, uint64_t b) {
  uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

ComponentSplit ComputeComponentSplit(
    const DimensionSchema& ds, CategoryId root,
    const std::vector<DimensionConstraint>& relevant, uint64_t nogood_salt) {
  ComponentSplit split;
  const HierarchySchema& schema = ds.hierarchy();
  const CategoryId all = schema.all();
  const int n = schema.num_categories();
  if (root == all) {
    split.ineligible_reason = "query root is All";
    return split;
  }
  DynamicBitset inter = schema.UpSet(root);
  inter.reset(root);
  inter.reset(all);
  if (static_cast<int>(inter.count()) < 2) {
    split.ineligible_reason = "fewer than two intermediate categories";
    return split;
  }
  if (schema.graph().HasEdge(root, all)) {
    split.ineligible_reason = "direct root->All edge";
    return split;
  }
  bool cycle_through_root = false;
  inter.ForEach([&](int u) {
    if (schema.graph().HasEdge(u, root)) cycle_through_root = true;
  });
  if (cycle_through_root) {
    split.ineligible_reason = "schema cycle through the query root";
    return split;
  }

  // Union-find over category ids; only intermediate categories are
  // ever united.
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](int a, int b) { parent[find(a)] = find(b); };

  // (a) Hierarchy edges between intermediate categories. Constraint
  // coupling only ever merges these groups, so a hierarchy that is
  // connected above the root (most schemas) is settled here, before
  // any constraint is looked at.
  inter.ForEach([&](int u) {
    for (CategoryId v : schema.graph().OutNeighbors(u)) {
      if (inter.test(v)) unite(u, v);
    }
  });
  int hierarchy_groups = 0;
  inter.ForEach([&](int c) {
    if (find(c) == c) ++hierarchy_groups;
  });
  if (hierarchy_groups < 2) {
    split.ineligible_reason = "single weakly connected component";
    return split;
  }

  // (b) Constraint coupling: all intermediate categories one
  // constraint mentions share a component. Gates that make a
  // constraint unassignable trip here.
  std::vector<CategoryId> anchor(relevant.size(), kNoCategory);
  DynamicBitset mentioned(n);
  for (size_t i = 0; i < relevant.size(); ++i) {
    const Expr& e = *relevant[i].expr;
    if (e.kind == ExprKind::kTrue) continue;  // vacuous: no component
    if (e.kind == ExprKind::kFalse) {
      split.ineligible_reason = "relevant constraint is literally False";
      return split;
    }
    mentioned.clear();
    if (!CollectMentioned(e, root, all, &mentioned)) {
      split.ineligible_reason =
          "equality/order atom targets the query root or All";
      return split;
    }
    mentioned &= inter;
    CategoryId first = kNoCategory;
    mentioned.ForEach([&](int c) {
      if (first == kNoCategory) {
        first = c;
      } else {
        unite(first, c);
      }
    });
    if (first == kNoCategory) {
      split.ineligible_reason =
          "relevant constraint mentions no intermediate category";
      return split;
    }
    anchor[i] = first;
  }

  // Components in ascending order of their smallest member: comp[c]
  // is c's component, set through its representative find(c) first.
  std::vector<int> comp(n, -1);
  int num_components = 0;
  inter.ForEach([&](int c) {
    const int r = find(c);
    if (comp[r] < 0) comp[r] = num_components++;
    comp[c] = comp[r];
  });
  if (num_components < 2) {
    split.ineligible_reason = "single weakly connected component";
    return split;
  }

  split.universes.assign(num_components, DynamicBitset(n));
  for (int k = 0; k < num_components; ++k) {
    split.universes[k].set(root);
    split.universes[k].set(all);
  }
  inter.ForEach([&](int c) { split.universes[comp[c]].set(c); });

  // Counting sort of the assigned constraints by component: count
  // component k's constraints into begin[k + 2], so that after the
  // prefix sum begin[k + 1] is k's first slot; placing advances it to
  // k's end, which is where k + 1 begins.
  std::vector<size_t>& begin = split.constraint_begin;
  begin.assign(num_components + 2, 0);
  for (size_t i = 0; i < relevant.size(); ++i) {
    if (anchor[i] != kNoCategory) ++begin[comp[anchor[i]] + 2];
  }
  for (int k = 2; k <= num_components + 1; ++k) begin[k] += begin[k - 1];
  split.constraint_order.resize(begin[num_components + 1]);
  split.absent_valid.assign(num_components, true);
  for (size_t i = 0; i < relevant.size(); ++i) {
    if (anchor[i] == kNoCategory) continue;  // vacuous True constraint
    const int k = comp[anchor[i]];
    split.constraint_order[begin[k + 1]++] = i;
    // Only constraints rooted at the query root can be non-vacuous on
    // a model that omits this component (intermediate-rooted ones lose
    // their root along with the component).
    if (relevant[i].root == root && !EvalAllFalse(*relevant[i].expr)) {
      split.absent_valid[k] = false;
    }
  }
  begin.pop_back();

  split.salts.reserve(num_components);
  for (int k = 0; k < num_components; ++k) {
    split.salts.push_back(MixSalt(
        nogood_salt, static_cast<uint64_t>(split.universes[k].Hash())));
  }
  split.eligible = true;
  return split;
}

}  // namespace olapdc
