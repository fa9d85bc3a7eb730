// Tests for CHECK (Figure 6 + Proposition 2) as CheckSubhierarchy runs
// it: which stage settles each candidate, and that the structural test
// and the three-valued circle verdict settle theirs without touching
// the allocator (this binary counts every global operator new).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "constraint/normalize.h"
#include "core/check_subhierarchy.h"
#include "core/location_example.h"
#include "tests/test_util.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Over-aligned types (DynamicBitset is 32-byte aligned) take this path.
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace olapdc {
namespace {

class CheckSubhierarchyTest : public ::testing::Test {
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
    // Sigma(locationSch, Store), prepared as DIMSAT prepares it.
    for (const DimensionConstraint* c : ds_->RelevantConstraints(store_)) {
      ASSERT_OK_AND_ASSIGN(ExprPtr expanded,
                           ExpandShorthands(schema, c->expr));
      relevant_.push_back(
          DimensionConstraint{c->root, Simplify(expanded), c->label});
    }
  }

  Subhierarchy Make(
      const std::vector<std::pair<CategoryId, CategoryId>>& edges) {
    auto g = Subhierarchy::FromEdges(ds_->hierarchy().num_categories(),
                                     store_, all_, edges);
    OLAPDC_CHECK(g.has_value());
    return *std::move(g);
  }

  /// Runs CHECK(g) and returns how many allocations it made.
  uint64_t CountedCheck(const Subhierarchy& g, CheckOutcome* outcome) {
    const uint64_t before = g_allocations.load();
    *outcome = CheckSubhierarchy(relevant_, g);
    return g_allocations.load() - before;
  }

  std::optional<DimensionSchema> ds_;
  std::vector<DimensionConstraint> relevant_;
  CategoryId store_, city_, province_, state_, sale_region_, country_, all_;
};

TEST_F(CheckSubhierarchyTest, CircleRejectionAllocatesNothing) {
  // No SaleRegion: Store.SaleRegion circles to False.
  Subhierarchy g = Make({{store_, city_},
                         {city_, state_},
                         {state_, country_},
                         {country_, all_}});
  CheckOutcome outcome;
  EXPECT_EQ(CountedCheck(g, &outcome), 0u);
  EXPECT_TRUE(outcome.circle_rejected);
  EXPECT_FALSE(outcome.structurally_rejected);
  EXPECT_TRUE(outcome.frozen.empty());
  EXPECT_EQ(outcome.assignments_tried, 0u);
}

TEST_F(CheckSubhierarchyTest, StructuralRejectionAllocatesNothing) {
  // City -> Country shortcuts City -> State -> Country.
  Subhierarchy g = Make({{store_, city_},
                         {city_, state_},
                         {city_, country_},
                         {state_, country_},
                         {country_, all_}});
  CheckOutcome outcome;
  EXPECT_EQ(CountedCheck(g, &outcome), 0u);
  EXPECT_TRUE(outcome.structurally_rejected);
  EXPECT_FALSE(outcome.circle_rejected);
  EXPECT_TRUE(outcome.frozen.empty());
}

TEST_F(CheckSubhierarchyTest, OpenConstraintsGoToTheAssignmentSearch) {
  // Example 12's mixed structure: nothing folds to False, and no
  // c-assignment satisfies what stays open.
  Subhierarchy mixed = Make({{store_, city_},
                             {city_, province_},
                             {city_, state_},
                             {province_, sale_region_},
                             {state_, country_},
                             {sale_region_, country_},
                             {country_, all_}});
  CheckOutcome outcome;
  EXPECT_GT(CountedCheck(mixed, &outcome), 0u)
      << "the counter must see the circled trees this CHECK builds";
  EXPECT_FALSE(outcome.structurally_rejected);
  EXPECT_FALSE(outcome.circle_rejected);
  EXPECT_TRUE(outcome.frozen.empty());
  EXPECT_EQ(outcome.assignments_tried, 6u);  // as Figure 5's harness prints

  // The Canada structure induces exactly one frozen dimension.
  Subhierarchy canada = Make({{store_, city_},
                              {city_, province_},
                              {province_, sale_region_},
                              {sale_region_, country_},
                              {country_, all_}});
  CountedCheck(canada, &outcome);
  EXPECT_FALSE(outcome.circle_rejected);
  ASSERT_EQ(outcome.frozen.size(), 1u);
  EXPECT_EQ(outcome.frozen[0].names[country_], "Canada");
}

}  // namespace
}  // namespace olapdc
