// Seeded request sequences for the end-to-end benchmark, and the
// answer oracle they are checked against.
//
// A workload is everything one round replays against a fresh olapdcd:
// the schema registrations that make the daemon ready, an untimed
// warm-up pass, and the timed sequence. All of it is a pure function of
// (workload name, seed); the daemon only ever receives the generated
// request bodies.

#ifndef OLAPDC_PERFBENCH_WORKLOADS_H_
#define OLAPDC_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/schema.h"

namespace perfbench {

enum class Op { kRegister, kCheck, kImplies, kSummarizable };

const char* OpName(Op op);

/// One schema version: the text a /v1/schemas write installs under
/// `name`, parsed in-process for the oracle and the traced run.
struct SchemaVersion {
  std::string name;
  /// The generator that made it: "layered", "components" or "fixed".
  std::string shape;
  std::string text;
  std::shared_ptr<const olapdc::DimensionSchema> schema;
};

struct Request {
  Op op = Op::kCheck;
  std::string path;
  std::string body;
  /// Index into Workload::versions: the version a read is asked
  /// against, or the version a write installs.
  int version = -1;
  /// Reads: the category (check, summarizable) or the constraint text
  /// (implies). Writes: unused.
  std::string arg;
  /// Summarizable sources.
  std::vector<std::string> sources;
  /// Reads: index into Workload::expected.
  int question = -1;
};

struct Workload {
  std::string name;
  /// Client connections of the timed phase (closed loop each).
  int connections = 1;
  /// olapdcd --cache-budget-mb (0 disables every cache layer).
  int64_t cache_budget_mb = 0;
  std::vector<SchemaVersion> versions;
  /// Registrations that make the daemon ready (part of set-up).
  std::vector<Request> setup;
  /// Untimed reads replayed after the registrations (part of set-up).
  std::vector<Request> warmup;
  /// The measured sequence; position i is request i of this vector.
  std::vector<Request> timed;
  /// Oracle verdict of each distinct question (Request::question).
  std::vector<bool> expected;
};

/// Builds workload `name` from `seed`; false when the name is unknown.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/// Fills Workload::expected: each distinct question answered
/// in-process, independently of the daemon — NaiveSat for check on
/// schemas with at most kOracleNaiveEdges relevant edges, sequential
/// DIMSAT with decomposition, branching and no-goods off elsewhere.
/// Returns false (with a message) when an oracle query fails.
bool ComputeOracle(Workload* workload, std::string* error);

/// NaiveSat enumerates 2^edges candidate subhierarchies; above this it
/// is too slow to run once per seed, and DIMSAT answers instead.
inline constexpr int kOracleNaiveEdges = 14;

}  // namespace perfbench

#endif  // OLAPDC_PERFBENCH_WORKLOADS_H_
