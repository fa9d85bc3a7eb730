#include "core/circle.h"

#include <utility>
#include <vector>

namespace olapdc {

namespace {

CircleTruth FromBool(bool b) {
  return b ? CircleTruth::kTrue : CircleTruth::kFalse;
}

CircleTruth Negate(CircleTruth t) {
  if (t == CircleTruth::kOpen) return t;
  return t == CircleTruth::kTrue ? CircleTruth::kFalse : CircleTruth::kTrue;
}

/// The circled value of an atom: kOpen only for an equality or order
/// atom that survives (its root reaches its target in g).
CircleTruth AtomTruth(const Expr& e, const Subhierarchy& g) {
  switch (e.kind) {
    case ExprKind::kPathAtom:
      return FromBool(g.IsPath(e.path));
    case ExprKind::kEqualityAtom:
    case ExprKind::kOrderAtom:
      // Definition 8(b): an equality (or order) atom whose root cannot
      // reach the target inside g is false (the frozen dimension has no
      // such ancestor). Otherwise the atom survives, to be decided by
      // the c-assignment.
      return g.Reaches(e.root, e.target) ? CircleTruth::kOpen
                                         : CircleTruth::kFalse;
    case ExprKind::kComposedAtom:
      // c.ci is a finite disjunction of path atoms; under ∘g it is true
      // iff some simple path c -> ci lies inside g, i.e. iff ci is
      // reachable from c in g (g is checked shortcut/cycle-free before
      // its candidate frozen dimensions are consulted).
      if (e.root == e.target) return CircleTruth::kTrue;
      return FromBool(g.Reaches(e.root, e.target));
    case ExprKind::kThroughAtom: {
      const CategoryId c = e.root, ci = e.via, cj = e.target;
      if (c == ci && ci == cj) return CircleTruth::kTrue;
      if (c == cj && c != ci) return CircleTruth::kFalse;
      if (c == ci) return FromBool(g.Reaches(c, cj));
      if (ci == cj) return FromBool(g.Reaches(c, ci));
      return FromBool(g.Reaches(c, ci) && g.Reaches(ci, cj));
    }
    default:
      OLAPDC_CHECK(false) << "not an atom";
      return CircleTruth::kOpen;
  }
}

}  // namespace

ExprPtr ApplyCircleToExpr(const ExprPtr& e, const Subhierarchy& g) {
  OLAPDC_CHECK(e != nullptr);
  if (e->IsLiteralTruth()) return e;
  if (e->IsAtom()) {
    switch (AtomTruth(*e, g)) {
      case CircleTruth::kTrue:
        return MakeTrue();
      case CircleTruth::kFalse:
        return MakeFalse();
      case CircleTruth::kOpen:
        return e;
    }
  }
  std::vector<ExprPtr> children;
  children.reserve(e->children.size());
  bool changed = false;
  for (const ExprPtr& child : e->children) {
    ExprPtr circled = ApplyCircleToExpr(child, g);
    changed |= (circled != child);
    children.push_back(std::move(circled));
  }
  if (!changed) return e;
  auto copy = std::make_shared<Expr>(*e);
  copy->children = std::move(children);
  return copy;
}

ExprPtr ApplyCircleToConstraint(const DimensionConstraint& c,
                                const Subhierarchy& g) {
  if (!g.Contains(c.root)) return MakeTrue();
  return ApplyCircleToExpr(c.expr, g);
}

CircleTruth CircleTruthOf(const Expr& e, const Subhierarchy& g) {
  // Each case mirrors the constant folding of Simplify() in
  // constraint/normalize.cc, so kOpen means "Simplify leaves a formula".
  switch (e.kind) {
    case ExprKind::kTrue:
      return CircleTruth::kTrue;
    case ExprKind::kFalse:
      return CircleTruth::kFalse;
    case ExprKind::kNot:
      return Negate(CircleTruthOf(*e.children[0], g));
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      // AND: False absorbs, True drops out, nothing left is True; OR
      // dually.
      const CircleTruth absorbing =
          e.kind == ExprKind::kAnd ? CircleTruth::kFalse : CircleTruth::kTrue;
      bool open = false;
      for (const ExprPtr& child : e.children) {
        const CircleTruth t = CircleTruthOf(*child, g);
        if (t == absorbing) return absorbing;
        open |= (t == CircleTruth::kOpen);
      }
      return open ? CircleTruth::kOpen : Negate(absorbing);
    }
    case ExprKind::kImplies: {
      const CircleTruth a = CircleTruthOf(*e.children[0], g);
      if (a == CircleTruth::kFalse) return CircleTruth::kTrue;
      const CircleTruth b = CircleTruthOf(*e.children[1], g);
      if (b == CircleTruth::kTrue) return CircleTruth::kTrue;
      if (a == CircleTruth::kTrue) return b;
      return CircleTruth::kOpen;  // a open: a -> False folds to !a
    }
    case ExprKind::kEquiv:
    case ExprKind::kXor: {
      // Folded only when both sides are known (a known side reduces the
      // formula to the other side or its negation).
      const CircleTruth a = CircleTruthOf(*e.children[0], g);
      if (a == CircleTruth::kOpen) return a;
      const CircleTruth b = CircleTruthOf(*e.children[1], g);
      if (b == CircleTruth::kOpen) return b;
      return FromBool((a == b) == (e.kind == ExprKind::kEquiv));
    }
    case ExprKind::kExactlyOne: {
      // Two known-true operands: False. One: True if nothing is open,
      // else the open operands must all be false (a formula). None:
      // False if nothing is open.
      int known_true = 0;
      bool open = false;
      for (const ExprPtr& child : e.children) {
        const CircleTruth t = CircleTruthOf(*child, g);
        if (t == CircleTruth::kTrue && ++known_true == 2) {
          return CircleTruth::kFalse;
        }
        open |= (t == CircleTruth::kOpen);
      }
      if (open) return CircleTruth::kOpen;
      return FromBool(known_true == 1);
    }
    default:
      return AtomTruth(e, g);
  }
}

CircleTruth CircleTruthOf(const DimensionConstraint& c,
                          const Subhierarchy& g) {
  if (!g.Contains(c.root)) return CircleTruth::kTrue;
  return CircleTruthOf(*c.expr, g);
}

}  // namespace olapdc
