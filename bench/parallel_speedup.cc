// E16 (supplementary): parallel DIMSAT. Compares the sequential
// reference search with the work-stealing driver (Dimsat() with
// num_threads > 1: EXPAND nodes below the split depth become stealable
// tasks on the src/exec pool) at 2, 4 and 8 threads, on two workloads.
// The uniform workload has evenly sized first-level subtrees. The
// skewed workload puts nearly all the search under one first-level
// choice, so only dynamic rebalancing keeps every worker busy; its
// 4-thread row carries worksteal_speedup_4t, the figure CI floors.
// Every run's frozen-dimension set is checked equal (as a canonical
// sorted serialization) to the sequential baseline.

#include <cstdio>
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/dimsat.h"
#include "core/schema.h"
#include "dim/hierarchy_schema.h"
#include "exec/work_stealing_pool.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

using bench::BenchReporter;
using bench::PrintHeader;
using bench::Unwrap;
using bench::WallTimer;

std::vector<std::string> Canonical(const std::vector<FrozenDimension>& fs,
                                   const HierarchySchema& schema) {
  std::vector<std::string> out;
  out.reserve(fs.size());
  for (const FrozenDimension& f : fs) out.push_back(f.ToString(schema));
  std::sort(out.begin(), out.end());
  return out;
}

// Evenly balanced seed subtrees: a generated layered hierarchy whose
// first-level choices cover categories of comparable weight.
DimensionSchema UniformWorkload() {
  SchemaGenOptions schema_options;
  schema_options.num_levels = 5;
  schema_options.categories_per_level = 3;
  schema_options.extra_edge_prob = 0.25;
  schema_options.seed = 4;
  HierarchySchemaPtr hierarchy =
      Unwrap(GenerateLayeredHierarchy(schema_options));
  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = 0.4;
  constraint_options.num_choice_constraints = 2;
  constraint_options.num_equality_constraints = 2;
  constraint_options.seed = 29;
  return Unwrap(GenerateConstrainedSchema(hierarchy, constraint_options));
}

// Adversarial for a static partition: Base has two parents, a light
// one going straight to All and a heavy one opening into a dense
// layered subgraph. The three first-level subtrees ({L}, {H}, {L,H})
// are wildly uneven — almost all EXPAND work sits under the ones that
// include H — so a subtree-per-thread split leaves most threads idle.
DimensionSchema SkewedWorkload() {
  HierarchySchemaBuilder builder;
  builder.AddEdge("Base", "Light");
  builder.AddEdge("Light", "All");
  builder.AddEdge("Base", "Heavy");
  // Sized so the full enumeration finishes well under max_frozen: the
  // set-equality check needs every driver to see the complete set.
  constexpr int kLevels = 3;
  constexpr int kWidth = 3;
  for (int w = 0; w < kWidth; ++w) {
    builder.AddEdge("Heavy", "H1_" + std::to_string(w));
  }
  for (int level = 1; level < kLevels; ++level) {
    for (int from = 0; from < kWidth; ++from) {
      for (int to = 0; to < kWidth; ++to) {
        builder.AddEdge("H" + std::to_string(level) + "_" +
                            std::to_string(from),
                        "H" + std::to_string(level + 1) + "_" +
                            std::to_string(to));
      }
    }
  }
  for (int w = 0; w < kWidth; ++w) {
    builder.AddEdge("H" + std::to_string(kLevels) + "_" + std::to_string(w),
                    "All");
  }
  HierarchySchemaPtr hierarchy = Unwrap(builder.BuildShared());
  return DimensionSchema(std::move(hierarchy), {});
}

struct WorkloadCase {
  const char* name;
  DimensionSchema ds;
  CategoryId base;
};

void RunWorkload(BenchReporter& reporter, const WorkloadCase& workload,
                 const DimsatOptions& base_options) {
  PrintHeader(std::string("E16: parallel DIMSAT — ") + workload.name +
              " workload");
  std::printf("%10s %8s %12s %10s %10s %8s %8s\n", "mode", "threads", "ms",
              "frozen", "expands", "steals", "speedup");
  bench::PrintRule();
  // threads == 1 is the sequential search; its set is the golden one.
  // Each run's result is dropped once checked, so at most one
  // enumeration is held beside the golden strings.
  std::vector<std::string> golden;
  double seq_ms = 0;
  for (int threads : {1, 2, 4, 8}) {
    std::unique_ptr<exec::WorkStealingPool> pool;
    if (threads > 1) pool = std::make_unique<exec::WorkStealingPool>(threads);
    DimsatOptions options = base_options;
    options.pool = pool.get();
    options.num_threads = threads;
    WallTimer timer;
    const DimsatResult result = Dimsat(workload.ds, workload.base, options);
    const double ms = timer.ElapsedMs();
    OLAPDC_CHECK(result.status.ok()) << result.status.ToString();
    std::vector<std::string> canonical =
        Canonical(result.frozen, workload.ds.hierarchy());
    if (threads == 1) {
      golden = std::move(canonical);
      seq_ms = ms;
    } else {
      OLAPDC_CHECK(canonical == golden)
          << "worksteal@" << threads
          << ": parallel enumeration must match the sequential set";
    }
    const char* mode = threads == 1 ? "sequential" : "worksteal";
    const double speedup = seq_ms / (ms > 0 ? ms : 1e-3);
    std::printf("%10s %8d %12.2f %10zu %10llu %8llu %7.2fx\n", mode,
                threads, ms, result.frozen.size(),
                static_cast<unsigned long long>(result.stats.expand_calls),
                static_cast<unsigned long long>(result.stats.parallel_steals),
                speedup);
    BenchReporter::Row& row =
        reporter.AddRow()
            .Set("workload", workload.name)
            .Set("mode", mode)
            .Set("threads", threads)
            .Set("ms", ms)
            .Set("frozen", static_cast<uint64_t>(result.frozen.size()))
            .Set("expand_calls", result.stats.expand_calls)
            .Set("tasks", result.stats.parallel_tasks)
            .Set("steals", result.stats.parallel_steals)
            .Set("speedup", speedup);
    if (threads == 1) continue;
    // No row can show a speedup on one hardware thread, and the gated
    // 4-thread row needs four: mark such rows so bench_gate's floors
    // exempt them instead of failing on an impossible claim.
    const bool gated = std::string(workload.name) == "skewed" && threads == 4;
    if (gated) row.Set("worksteal_speedup_4t", speedup);
    if (std::thread::hardware_concurrency() < (gated ? 4u : 2u)) {
      row.Set("single_core_host", true);
    }
  }
}

void Run() {
  // Monolithic id-order search, so the driver splits the same tree the
  // committed BENCH_parallel rows measured.
  DimsatOptions options;
  options.decompose = false;
  options.branch_heuristic = false;
  options.enumerate_all = true;
  options.max_frozen = 1 << 20;

  BenchReporter reporter("parallel");
  WorkloadCase uniform{"uniform", UniformWorkload(), kNoCategory};
  uniform.base = uniform.ds.hierarchy().FindCategory("Base");
  RunWorkload(reporter, uniform, options);

  WorkloadCase skewed{"skewed", SkewedWorkload(), kNoCategory};
  skewed.base = skewed.ds.hierarchy().FindCategory("Base");
  RunWorkload(reporter, skewed, options);

  std::printf(
      "\nExpected shape: on multi-core hosts the work-stealing driver "
      "speeds up both workloads, the skewed one included (stealing "
      "rebalances the heavy subtree). This host reports %u hardware "
      "threads — on a single core only the correctness claim and the "
      "scheduling overhead are observable.\n",
      std::thread::hardware_concurrency());
  reporter.WriteJson();
}

}  // namespace
}  // namespace olapdc

int main() {
  olapdc::Run();
  return 0;
}
