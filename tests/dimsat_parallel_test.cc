// Tests for parallel DIMSAT (Dimsat() with options.num_threads > 1):
// semantic equivalence with the sequential search across thread
// counts, workloads, and modes, prompt propagation of Budget
// cancellation to every worker, a run-wide max_expand_calls cap, and
// the rule that sends trace and checkpoint runs to the sequential
// engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "exec/work_stealing_pool.h"
#include "tests/test_util.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

// Canonical serialization of a frozen-dimension set: sorted rendered
// strings, so two enumerations compare as sets regardless of the order
// workers happened to discover them in.
std::vector<std::string> Canonical(const std::vector<FrozenDimension>& fs,
                                   const HierarchySchema& schema) {
  std::vector<std::string> out;
  out.reserve(fs.size());
  for (const FrozenDimension& f : fs) out.push_back(f.ToString(schema));
  std::sort(out.begin(), out.end());
  return out;
}

DimsatResult Parallel(const DimensionSchema& ds, CategoryId root,
                      DimsatOptions options, int threads) {
  options.num_threads = threads;
  return Dimsat(ds, root, options);
}

DimensionSchema MultiComponentSchema(int seed) {
  MultiComponentGenOptions options;
  options.num_components = 3;
  options.levels_per_component = 2;
  options.categories_per_level = 3;
  options.seed = static_cast<uint64_t>(seed) * 613 + 7;
  auto ds = GenerateMultiComponentSchema(options);
  OLAPDC_CHECK(ds.ok()) << ds.status().ToString();
  return *std::move(ds);
}

TEST(ParallelDimsatTest, LocationEnumerationMatchesSequential) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");
  DimsatOptions options;
  options.enumerate_all = true;
  DimsatResult sequential = Dimsat(ds, store, options);
  for (int threads : {1, 2, 4, 8}) {
    DimsatResult parallel = Parallel(ds, store, options, threads);
    ASSERT_OK(parallel.status);
    EXPECT_EQ(Canonical(parallel.frozen, ds.hierarchy()),
              Canonical(sequential.frozen, ds.hierarchy()))
        << threads << " threads";
  }
}

TEST(ParallelDimsatTest, ExplicitPoolIsUsed) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");
  exec::WorkStealingPool pool(3);
  DimsatOptions options;
  options.enumerate_all = true;
  options.pool = &pool;
  DimsatResult sequential = Dimsat(ds, store, options);
  DimsatResult parallel = Parallel(ds, store, options, 3);
  ASSERT_OK(parallel.status);
  EXPECT_EQ(Canonical(parallel.frozen, ds.hierarchy()),
            Canonical(sequential.frozen, ds.hierarchy()));
  // The search ran as pool tasks, and the pool saw them.
  EXPECT_GT(parallel.stats.parallel_tasks, 0u);
  EXPECT_GT(pool.Stats().tasks_executed, 0u);
}

TEST(ParallelDimsatTest, DecisionModeFindsAWitness) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");
  DimsatResult r = Parallel(ds, store, {}, 4);
  ASSERT_OK(r.status);
  EXPECT_TRUE(r.satisfiable);
  ASSERT_FALSE(r.frozen.empty());
  // Whatever witness a worker found, it is a genuine frozen dimension.
  ASSERT_OK(r.frozen.front().ToInstance(ds).status());
}

TEST(ParallelDimsatTest, UnsatisfiableStaysUnsatisfiable) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  DimensionSchema extended = ds.WithExtraConstraint(
      testing_util::ParseC(ds.hierarchy(), "!SaleRegion/Country"));
  CategoryId store = ds.hierarchy().FindCategory("Store");
  for (int threads : {2, 4}) {
    DimsatResult r = Parallel(extended, store, {}, threads);
    ASSERT_OK(r.status);
    EXPECT_FALSE(r.satisfiable);
  }
}

TEST(ParallelDimsatTest, AllRootFallsBackToSequential) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  DimsatResult r = Parallel(ds, ds.hierarchy().all(), {}, 4);
  EXPECT_TRUE(r.satisfiable);
}

// A cancelled Budget must stop every worker promptly: cancellation is
// polled through per-worker BudgetCheckers and fanned out via the
// shared stop flag, so the whole pool drains in bounded time even when
// the search space is astronomically larger than any deadline allows.
TEST(ParallelDimsatTest, CancelStopsAllWorkersPromptly) {
  SchemaGenOptions schema_options;
  schema_options.num_levels = 7;
  schema_options.categories_per_level = 3;
  schema_options.extra_edge_prob = 0.35;
  schema_options.seed = 99;
  ASSERT_OK_AND_ASSIGN(HierarchySchemaPtr hierarchy,
                       GenerateLayeredHierarchy(schema_options));
  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = 0.3;
  constraint_options.num_choice_constraints = 1;
  constraint_options.num_equality_constraints = 1;
  constraint_options.seed = 99;
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, GenerateConstrainedSchema(
                                               hierarchy, constraint_options));
  CategoryId base = ds.hierarchy().FindCategory("Base");

  CancellationSource source;
  Budget budget = Budget::Unbounded();
  budget.SetCancellation(source.token());

  DimsatOptions options;
  options.enumerate_all = true;
  options.max_frozen = 1u << 20;
  options.max_expand_calls = ~0ull;
  options.budget = &budget;

  DimsatResult result;
  std::thread runner([&] { result = Parallel(ds, base, options, 4); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto cancel_time = std::chrono::steady_clock::now();
  source.RequestCancel();
  runner.join();
  const double drain_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - cancel_time)
          .count();

  // Generous bound (sanitizer builds are slow), but far below what the
  // full enumeration would take: each worker notices the cancellation
  // within one BudgetChecker stride.
  EXPECT_LT(drain_ms, 10000.0) << "workers did not stop promptly";
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled)
      << result.status.ToString();
}

class ParallelRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelRandomTest, MatchesSequentialOnRandomSchemas) {
  const int seed = GetParam();
  SchemaGenOptions schema_options;
  schema_options.num_levels = 3;
  schema_options.categories_per_level = 2;
  schema_options.extra_edge_prob = 0.3;
  schema_options.seed = static_cast<uint64_t>(seed) * 911 + 3;
  auto hierarchy = GenerateLayeredHierarchy(schema_options);
  ASSERT_TRUE(hierarchy.ok());
  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = 0.4;
  constraint_options.num_choice_constraints = 1;
  constraint_options.num_equality_constraints = 1;
  constraint_options.seed = seed;
  auto ds = GenerateConstrainedSchema(*hierarchy, constraint_options);
  ASSERT_TRUE(ds.ok());
  CategoryId base = ds->hierarchy().FindCategory("Base");

  DimsatOptions options;
  options.enumerate_all = true;
  DimsatResult sequential = Dimsat(*ds, base, options);
  ASSERT_OK(sequential.status);
  DimsatResult parallel = Parallel(*ds, base, options, 4);
  ASSERT_OK(parallel.status);
  EXPECT_EQ(Canonical(parallel.frozen, ds->hierarchy()),
            Canonical(sequential.frozen, ds->hierarchy()))
      << "seed " << seed;
  // Decision mode agrees on satisfiability.
  DimsatResult decision = Parallel(*ds, base, {}, 4);
  EXPECT_EQ(decision.satisfiable, sequential.satisfiable);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelRandomTest, ::testing::Range(0, 24));

// max_expand_calls caps the whole parallel run, not each task or
// component: with the cap at two thirds of the uncapped EXPAND count,
// the run must stop with kResourceExhausted having done at most the
// cap, for both the decomposed and the monolithic driver.
TEST(ParallelDimsatTest, ExpandCapBoundsTheWholeRun) {
  for (bool decompose : {true, false}) {
    for (int seed = 1; seed <= 4; ++seed) {
      const DimensionSchema ds = MultiComponentSchema(seed);
      const CategoryId base = ds.hierarchy().FindCategory("Base");
      DimsatOptions options;
      options.enumerate_all = true;
      options.decompose = decompose;
      const DimsatResult uncapped = Dimsat(ds, base, options);
      ASSERT_OK(uncapped.status);
      options.max_expand_calls = uncapped.stats.expand_calls * 2 / 3;
      for (int threads : {1, 4}) {
        const DimsatResult capped = Parallel(ds, base, options, threads);
        EXPECT_EQ(capped.status.code(), StatusCode::kResourceExhausted)
            << "decompose " << decompose << " seed " << seed << " threads "
            << threads << ": " << capped.stats.expand_calls
            << " EXPANDs against a cap of " << options.max_expand_calls;
        EXPECT_LE(capped.stats.expand_calls, options.max_expand_calls);
      }
    }
  }
}

// Trace collection is a property of one depth-first traversal, so a
// trace-collecting run takes the sequential engine whatever
// num_threads says, and returns the sequential trace.
TEST(ParallelDimsatTest, TraceRunsSequentially) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");
  DimsatOptions options;
  options.collect_trace = true;
  const DimsatResult sequential = Dimsat(ds, store, options);
  const DimsatResult threaded = Parallel(ds, store, options, 4);
  ASSERT_FALSE(sequential.trace.empty());
  ASSERT_EQ(threaded.trace.size(), sequential.trace.size());
  for (size_t i = 0; i < sequential.trace.size(); ++i) {
    EXPECT_EQ(threaded.trace[i].ToString(ds.hierarchy()),
              sequential.trace[i].ToString(ds.hierarchy()))
        << "event " << i;
  }
  EXPECT_EQ(threaded.stats.parallel_tasks, 0u);
}

// A checkpoint request also takes the sequential engine: the capped
// run leaves a checkpoint whose resume completes the enumeration.
TEST(ParallelDimsatTest, CheckpointRunsSequentiallyAndResumes) {
  const DimensionSchema ds = MultiComponentSchema(2);
  const CategoryId base = ds.hierarchy().FindCategory("Base");
  DimsatOptions options;
  options.enumerate_all = true;
  const DimsatResult truth = Dimsat(ds, base, options);
  ASSERT_OK(truth.status);

  DimsatCheckpoint checkpoint;
  options.checkpoint = &checkpoint;
  options.max_expand_calls = truth.stats.expand_calls / 2;
  const DimsatResult first = Parallel(ds, base, options, 4);
  ASSERT_EQ(first.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(first.stats.parallel_tasks, 0u);
  ASSERT_FALSE(checkpoint.empty());

  DimsatOptions resume_options;
  resume_options.enumerate_all = true;
  const DimsatResult rest =
      ResumeDimsat(ds, base, resume_options, std::move(checkpoint));
  ASSERT_OK(rest.status);
  std::vector<FrozenDimension> combined = first.frozen;
  combined.insert(combined.end(), rest.frozen.begin(), rest.frozen.end());
  EXPECT_EQ(Canonical(combined, ds.hierarchy()),
            Canonical(truth.frozen, ds.hierarchy()));
  EXPECT_EQ(first.stats.expand_calls + rest.stats.expand_calls,
            truth.stats.expand_calls);
}

}  // namespace
}  // namespace olapdc
