// Tests for the circle operator Sigma ∘ g (Definition 8), including a
// verbatim reproduction of Figure 5 on the Example 12 subhierarchy, and
// the property that the allocation-free three-valued verdict
// CircleTruthOf agrees with Simplify(ApplyCircleTo*(...)) everywhere.

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "constraint/normalize.h"
#include "constraint/printer.h"
#include "core/assignment.h"
#include "core/circle.h"
#include "core/location_example.h"
#include "core/schema.h"
#include "tests/test_util.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

/// What Simplify folds a circled expression to, as a CircleTruth.
CircleTruth FoldedTruth(const ExprPtr& circled) {
  const ExprPtr e = Simplify(circled);
  if (IsTrueLiteral(e)) return CircleTruth::kTrue;
  if (IsFalseLiteral(e)) return CircleTruth::kFalse;
  return CircleTruth::kOpen;
}

const char* TruthName(CircleTruth t) {
  switch (t) {
    case CircleTruth::kTrue:
      return "True";
    case CircleTruth::kFalse:
      return "False";
    case CircleTruth::kOpen:
      return "Open";
  }
  return "?";
}

/// Checks CircleTruthOf against Simplify(ApplyCircleToConstraint(c, g))
/// for every constraint of `sigma` and every candidate subhierarchy the
/// brute-force NaiveSat enumerates from `root` (every edge subset among
/// the categories above root that FromEdges accepts — cyclic and
/// shortcut candidates included). Returns the number of candidates.
int ExpectVerdictsMatchOnEveryCandidate(
    const HierarchySchema& schema, CategoryId root,
    const std::vector<DimensionConstraint>& sigma) {
  const DynamicBitset& up = schema.UpSet(root);
  std::vector<std::pair<CategoryId, CategoryId>> edges;
  for (const auto& [u, v] : schema.graph().Edges()) {
    if (up.test(u) && up.test(v)) edges.emplace_back(u, v);
  }
  OLAPDC_CHECK(edges.size() <= 16) << "too many edges to enumerate";
  int candidates = 0;
  for (uint64_t mask = 0; mask < (uint64_t{1} << edges.size()); ++mask) {
    std::vector<std::pair<CategoryId, CategoryId>> chosen;
    for (size_t i = 0; i < edges.size(); ++i) {
      if (mask & (uint64_t{1} << i)) chosen.push_back(edges[i]);
    }
    std::optional<Subhierarchy> g = Subhierarchy::FromEdges(
        schema.num_categories(), root, schema.all(), chosen);
    if (!g.has_value()) continue;
    ++candidates;
    for (const DimensionConstraint& c : sigma) {
      const CircleTruth want = FoldedTruth(ApplyCircleToConstraint(c, *g));
      const CircleTruth got = CircleTruthOf(c, *g);
      EXPECT_EQ(got, want) << "constraint " << c.label << " root "
                           << schema.CategoryName(root) << " edge mask "
                           << mask << ": CircleTruthOf " << TruthName(got)
                           << ", Simplify " << TruthName(want);
    }
  }
  return candidates;
}

/// Sigma with shorthands expanded and simplified, exactly as NaiveSat
/// and DIMSAT prepare it for CHECK.
std::vector<DimensionConstraint> PreparedSigma(const DimensionSchema& ds) {
  std::vector<DimensionConstraint> out;
  for (const DimensionConstraint& c : ds.constraints()) {
    auto expanded = ExpandShorthands(ds.hierarchy(), c.expr);
    OLAPDC_CHECK(expanded.ok());
    out.push_back(DimensionConstraint{c.root, Simplify(*expanded), c.label});
  }
  return out;
}

class CircleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(ds_, LocationSchema());
    const HierarchySchema& schema = ds_->hierarchy();
    store_ = schema.FindCategory("Store");
    city_ = schema.FindCategory("City");
    province_ = schema.FindCategory("Province");
    state_ = schema.FindCategory("State");
    sale_region_ = schema.FindCategory("SaleRegion");
    country_ = schema.FindCategory("Country");
    all_ = schema.all();
  }

  /// The Example 12 subhierarchy: a "mixed" structure containing both
  /// Province and State:
  ///   Store->City, City->{Province, State}, Province->SaleRegion,
  ///   State->Country, SaleRegion->Country, Country->All.
  Subhierarchy Example12Subhierarchy() {
    auto g = Subhierarchy::FromEdges(
        ds_->hierarchy().num_categories(), store_, all_,
        {{store_, city_},
         {city_, province_},
         {city_, state_},
         {province_, sale_region_},
         {state_, country_},
         {sale_region_, country_},
         {country_, all_}});
    OLAPDC_CHECK(g.has_value());
    return *g;
  }

  std::string Circled(const DimensionConstraint& c, const Subhierarchy& g) {
    PrinterOptions paper;
    paper.paper_symbols = true;
    return ExprToString(ds_->hierarchy(),
                        ApplyCircleToConstraint(c, g), paper);
  }

  std::optional<DimensionSchema> ds_;
  CategoryId store_, city_, province_, state_, sale_region_, country_, all_;
};

TEST_F(CircleTest, Figure5Reproduction) {
  Subhierarchy g = Example12Subhierarchy();
  EXPECT_FALSE(g.HasCycleIn());
  EXPECT_FALSE(g.HasShortcut());

  const auto& sigma = ds_->constraints();
  ASSERT_EQ(sigma.size(), 7u);

  // Figure 5, right column, row by row.
  EXPECT_EQ(Circled(sigma[0], g), "⊤");  // (a) Store_City
  EXPECT_EQ(Circled(sigma[1], g), "⊤");  // (b) Store.SaleRegion
  EXPECT_EQ(Circled(sigma[2], g),
            "City≈Washington ≡ ⊥");  // (c)
  EXPECT_EQ(Circled(sigma[3], g),
            "City≈Washington ⊃ City.Country≈USA");  // (d) unchanged
  EXPECT_EQ(Circled(sigma[4], g),
            "State.Country≈Mexico ∨ State.Country≈USA");  // (e) unchanged
  EXPECT_EQ(Circled(sigma[5], g),
            "State.Country≈Mexico ≡ ⊥");  // (f)
  EXPECT_EQ(Circled(sigma[6], g),
            "Province.Country≈Canada");  // (g) unchanged
}

TEST_F(CircleTest, Example12SubhierarchyInducesNoFrozenDimension) {
  // (e) forces Country ∈ {Mexico, USA}; (g) forces Country = Canada.
  // The mixed subhierarchy therefore fails CHECK — the schema keeps the
  // Canadian and Mexican/US structures apart.
  Subhierarchy g = Example12Subhierarchy();
  std::vector<ExprPtr> circled;
  for (const DimensionConstraint& c : ds_->constraints()) {
    ExprPtr e = Simplify(ApplyCircleToConstraint(c, g));
    if (!IsTrueLiteral(e)) circled.push_back(e);
  }
  AssignmentSearchResult search = FindAssignments(g, circled);
  EXPECT_TRUE(search.assignments.empty());
}

TEST_F(CircleTest, ConstraintWithRootOutsideGIsVacuous) {
  // The Canada structure contains no State category; the State-rooted
  // constraints (e) and (f) must circle to ⊤, not ⊥ (DESIGN.md
  // deviation 1).
  auto g = Subhierarchy::FromEdges(
      ds_->hierarchy().num_categories(), store_, all_,
      {{store_, city_},
       {city_, province_},
       {province_, sale_region_},
       {sale_region_, country_},
       {country_, all_}});
  ASSERT_TRUE(g.has_value());
  const auto& sigma = ds_->constraints();
  EXPECT_TRUE(IsTrueLiteral(ApplyCircleToConstraint(sigma[4], *g)));
  EXPECT_TRUE(IsTrueLiteral(ApplyCircleToConstraint(sigma[5], *g)));
  // And the Canada structure does induce a frozen dimension.
  std::vector<ExprPtr> circled;
  for (const DimensionConstraint& c : sigma) {
    ExprPtr e = Simplify(ApplyCircleToConstraint(c, *g));
    ASSERT_FALSE(IsFalseLiteral(e)) << c.label;
    if (!IsTrueLiteral(e)) circled.push_back(e);
  }
  AssignmentSearchResult search = FindAssignments(*g, circled);
  ASSERT_EQ(search.assignments.size(), 1u);
  EXPECT_EQ(search.assignments[0][country_], "Canada");
  EXPECT_FALSE(search.assignments[0][city_].has_value());  // nk
}

TEST_F(CircleTest, PathAtomsReplacedByTruthValues) {
  Subhierarchy g = Example12Subhierarchy();
  ExprPtr in_g = MakePathAtom({store_, city_, province_});
  ExprPtr not_in_g = MakePathAtom({store_, sale_region_});
  EXPECT_TRUE(IsTrueLiteral(ApplyCircleToExpr(in_g, g)));
  EXPECT_TRUE(IsFalseLiteral(ApplyCircleToExpr(not_in_g, g)));
}

TEST_F(CircleTest, ComposedAndThroughAtomsCircledByReachability) {
  Subhierarchy g = Example12Subhierarchy();
  EXPECT_TRUE(IsTrueLiteral(
      ApplyCircleToExpr(MakeComposedAtom(store_, country_), g)));
  EXPECT_TRUE(IsTrueLiteral(
      ApplyCircleToExpr(MakeThroughAtom(store_, state_, country_), g)));
  // No path from Store through SaleRegion to State exists in g:
  EXPECT_TRUE(IsFalseLiteral(ApplyCircleToExpr(
      MakeThroughAtom(store_, sale_region_, state_), g)));
  EXPECT_TRUE(IsTrueLiteral(
      ApplyCircleToExpr(MakeComposedAtom(store_, store_), g)));
}

TEST_F(CircleTest, EqualityAtomTargetOutsideReachIsFalse) {
  Subhierarchy g = Example12Subhierarchy();
  // Province-rooted atom about State: no path Province -> State.
  ExprPtr atom = MakeEqualityAtom(province_, state_, "x");
  EXPECT_TRUE(IsFalseLiteral(ApplyCircleToExpr(atom, g)));
}

// Every connective with every mix of True, False and Open operands,
// each given both as a literal and as an atom that circles to it —
// including ExactlyOne with one and with two or more known-true
// operands.
TEST_F(CircleTest, TruthOfMatchesSimplifyConnectiveByConnective) {
  Subhierarchy g = Example12Subhierarchy();
  const std::vector<std::pair<const char*, ExprPtr>> operands = {
      {"T", MakeTrue()},
      {"F", MakeFalse()},
      {"path-in-g", MakePathAtom({store_, city_, province_})},
      {"path-not-in-g", MakePathAtom({store_, sale_region_})},
      {"eq-open", MakeEqualityAtom(city_, country_, "USA")},
      {"eq-unreachable", MakeEqualityAtom(province_, state_, "x")},
      {"composed-true", MakeComposedAtom(store_, country_)},
      {"through-false", MakeThroughAtom(store_, sale_region_, state_)},
  };
  auto expect_match = [&](const ExprPtr& e, const std::string& what) {
    EXPECT_EQ(CircleTruthOf(*e, g), FoldedTruth(ApplyCircleToExpr(e, g)))
        << what;
  };
  for (const auto& [name, a] : operands) {
    expect_match(a, name);
    expect_match(MakeNot(a), std::string("!") + name);
    for (const auto& [name_b, b] : operands) {
      const std::string pair = std::string(name) + "," + name_b;
      expect_match(MakeImplies(a, b), "implies " + pair);
      expect_match(MakeEquiv(a, b), "equiv " + pair);
      expect_match(MakeXor(a, b), "xor " + pair);
    }
  }
  // n-ary connectives over every operand sequence of length 0..3.
  std::vector<std::vector<int>> sequences = {{}};
  for (int len = 1; len <= 3; ++len) {
    std::vector<std::vector<int>> longer;
    for (const std::vector<int>& seq : sequences) {
      if (static_cast<int>(seq.size()) != len - 1) continue;
      for (int i = 0; i < static_cast<int>(operands.size()); ++i) {
        std::vector<int> next = seq;
        next.push_back(i);
        longer.push_back(std::move(next));
      }
    }
    sequences.insert(sequences.end(), longer.begin(), longer.end());
  }
  for (const std::vector<int>& seq : sequences) {
    std::vector<ExprPtr> children;
    std::string what;
    for (int i : seq) {
      children.push_back(operands[i].second);
      what += std::string(operands[i].first) + " ";
    }
    expect_match(MakeAnd(children), "and " + what);
    expect_match(MakeOr(children), "or " + what);
    expect_match(MakeExactlyOne(children), "one " + what);
  }
}

// Random nested formulas: the verdict composes exactly like Simplify's
// bottom-up folding.
TEST_F(CircleTest, TruthOfMatchesSimplifyOnRandomFormulas) {
  Subhierarchy g = Example12Subhierarchy();
  const std::vector<ExprPtr> leaves = {
      MakeTrue(),
      MakeFalse(),
      MakePathAtom({city_, state_}),
      MakePathAtom({city_, country_}),
      MakeEqualityAtom(store_, state_, "Texas"),
      MakeEqualityAtom(sale_region_, city_, "x"),
      MakeComposedAtom(province_, country_),
      MakeThroughAtom(city_, province_, country_),
  };
  std::mt19937 rng(7);
  std::function<ExprPtr(int)> random_expr = [&](int depth) -> ExprPtr {
    if (depth == 0 || rng() % 4 == 0) return leaves[rng() % leaves.size()];
    auto kids = [&] {
      std::vector<ExprPtr> out(rng() % 4);
      for (ExprPtr& kid : out) kid = random_expr(depth - 1);
      return out;
    };
    switch (rng() % 7) {
      case 0:
        return MakeNot(random_expr(depth - 1));
      case 1:
        return MakeAnd(kids());
      case 2:
        return MakeOr(kids());
      case 3:
        return MakeExactlyOne(kids());
      case 4:
        return MakeImplies(random_expr(depth - 1), random_expr(depth - 1));
      case 5:
        return MakeEquiv(random_expr(depth - 1), random_expr(depth - 1));
      default:
        return MakeXor(random_expr(depth - 1), random_expr(depth - 1));
    }
  };
  for (int i = 0; i < 5000; ++i) {
    ExprPtr e = random_expr(4);
    EXPECT_EQ(CircleTruthOf(*e, g), FoldedTruth(ApplyCircleToExpr(e, g)))
        << ExprToString(ds_->hierarchy(), e);
  }
}

// Every candidate subhierarchy NaiveSat enumerates for the location
// schema, from every root, for Σ as written (Figure 5's input) and as
// CHECK receives it.
TEST_F(CircleTest, TruthOfMatchesSimplifyOnEveryLocationCandidate) {
  const HierarchySchema& schema = ds_->hierarchy();
  const std::vector<DimensionConstraint> prepared = PreparedSigma(*ds_);
  int candidates = 0;
  for (CategoryId root = 0; root < schema.num_categories(); ++root) {
    candidates +=
        ExpectVerdictsMatchOnEveryCandidate(schema, root, ds_->constraints());
    ExpectVerdictsMatchOnEveryCandidate(schema, root, prepared);
  }
  EXPECT_GT(candidates, 20);
}

// The same over the 24-seed layered and multi-component corpus of the
// DIMSAT ablation tests, from every root with at most 16 candidate
// edges.
TEST(CircleCorpusTest, TruthOfMatchesSimplifyOnSmallRootsOfTheCorpus) {
  int roots = 0;
  for (int seed = 0; seed < 24; ++seed) {
    Result<DimensionSchema> ds = Status::Internal("unset");
    if (seed % 3 == 0) {
      MultiComponentGenOptions options;
      options.num_components = 3;
      options.levels_per_component = 2;
      options.categories_per_level = 3;
      options.seed = static_cast<uint64_t>(seed) * 613 + 7;
      ds = GenerateMultiComponentSchema(options);
    } else {
      SchemaGenOptions schema_options;
      schema_options.num_levels = 3;
      schema_options.categories_per_level = 2;
      schema_options.extra_edge_prob = 0.3;
      schema_options.seed = static_cast<uint64_t>(seed) * 911 + 3;
      auto hierarchy = GenerateLayeredHierarchy(schema_options);
      ASSERT_OK(hierarchy.status());
      ConstraintGenOptions constraint_options;
      constraint_options.into_fraction = 0.4;
      constraint_options.num_choice_constraints = 1;
      constraint_options.num_equality_constraints = 1;
      constraint_options.seed = seed;
      ds = GenerateConstrainedSchema(*hierarchy, constraint_options);
    }
    ASSERT_OK(ds.status());
    const HierarchySchema& schema = ds->hierarchy();
    const std::vector<DimensionConstraint> prepared = PreparedSigma(*ds);
    for (CategoryId root = 0; root < schema.num_categories(); ++root) {
      int edges = 0;
      const DynamicBitset& up = schema.UpSet(root);
      for (const auto& [u, v] : schema.graph().Edges()) {
        edges += up.test(u) && up.test(v);
      }
      if (edges > 16) continue;
      ++roots;
      ExpectVerdictsMatchOnEveryCandidate(schema, root, prepared);
    }
  }
  EXPECT_GT(roots, 24);
}

}  // namespace
}  // namespace olapdc
