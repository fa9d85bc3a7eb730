// Reasoner: a memoizing, budget-aware façade over the decision
// procedures. The interactive tools (summarizability matrix, view
// selection, aggregate navigation) ask many overlapping implication
// questions against one fixed schema; the reasoner caches definitive
// answers keyed by the canonical rendering of the query so repeated
// questions are O(1).
//
// Because category satisfiability is NP-complete (Theorem 4) and
// implication CoNP-complete (Theorem 2), some queries will not finish
// under any reasonable budget. The reasoner therefore answers in three
// values — kYes / kNo / kUnknown — never an error for a mere resource
// limit. Each query runs an iterative-deepening ladder: a small
// max_expand_calls budget first, grown geometrically on exhaustion, all
// rungs under one caller-supplied wall-clock Budget. Easy queries stay
// cheap, hard ones get the full budget, and a deadline or cancellation
// degrades to kUnknown with the partial work accounted.
//
// The cache is sound because a DimensionSchema is immutable: answers
// never need invalidation. Only definitive answers are cached; kUnknown
// is retried from scratch on the next ask. A Reasoner is
// single-threaded (like the rest of the library's mutable objects), but
// with options.dimsat.num_threads > 1 each ladder rung's search runs on
// the shared work-stealing pool (src/exec), so one Reasoner query can
// still saturate every core.

#ifndef OLAPDC_CORE_REASONER_H_
#define OLAPDC_CORE_REASONER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/budget.h"
#include "common/result.h"
#include "common/retry.h"
#include "core/answer_cache.h"
#include "core/dimsat.h"
#include "core/implication.h"
#include "core/schema.h"
#include "core/summarizability.h"

namespace olapdc {

/// Three-valued answer of a budgeted decision procedure.
enum class Truth {
  kNo = 0,
  kYes = 1,
  /// The budget expired (or an internal fault fired) before the search
  /// finished; see ReasonerAnswer::reason.
  kUnknown = 2,
};

std::string_view TruthToString(Truth truth);

struct ReasonerAnswer {
  Truth truth = Truth::kUnknown;
  /// OK for definitive answers. For kUnknown: kDeadlineExceeded /
  /// kCancelled (wall-clock budget), kResourceExhausted (every ladder
  /// rung hit its expand cap), or the hard error that aborted the
  /// query.
  Status reason;
  /// DIMSAT work across every rung, partial rungs included — the
  /// budget actually consumed by this query.
  DimsatStats work;
  /// Ladder rungs run (0 on a cache hit).
  int attempts = 0;
  bool from_cache = false;

  bool definitive() const { return truth != Truth::kUnknown; }
  bool yes() const { return truth == Truth::kYes; }
};

struct ReasonerOptions {
  /// Base options for every DIMSAT run. `max_expand_calls` acts as the
  /// ladder's overall cap; `budget` is overridden per query by the
  /// caller-supplied Budget.
  DimsatOptions dimsat;
  /// Expand-call budget of the first ladder rung.
  uint64_t initial_expand_budget = 1 << 12;
  /// Geometric growth factor between rungs (>= 2).
  uint64_t expand_budget_growth = 8;
  /// Maximum ladder rungs per query (shed retries, which run no
  /// search, are bounded separately by `retry.max_retries`).
  int max_attempts = 5;
  /// Backoff policy for overload sheds (kUnavailable from an
  /// admission-gated pool): the rung is retried *without* growing its
  /// expand budget after an exponential, jittered backoff that honors
  /// the gate's retry-after-ms hint and never outlives the query's
  /// wall-clock Budget.
  RetryPolicy retry;
  /// Carry a DIMSAT checkpoint across satisfiability rungs: a rung
  /// interrupted by its expand cap leaves its live search frontier
  /// behind, and the next rung *continues* from it instead of
  /// re-exploring the tree. Effective for sequential searches
  /// (dimsat.num_threads <= 1, no trace); other query shapes restart
  /// each rung as before.
  bool resume_from_checkpoint = true;
  /// Cross-instance verdict cache (core/answer_cache.h); not owned, may
  /// be shared across Reasoners and threads. Consulted after the
  /// run-local cache misses; definitive answers are written to both.
  /// The caller owns epoch discipline via `shared_scope`.
  AnswerCache* shared_cache = nullptr;
  /// Prefix prepended to every shared-cache key — encode the
  /// (schema, Σ) content epoch here (e.g. "e<hex>/") so a theory edit
  /// can never serve a stale verdict. The run-local cache stays
  /// unprefixed (its Reasoner owns exactly one immutable schema).
  std::string shared_scope;
};

class Reasoner {
 public:
  explicit Reasoner(DimensionSchema schema, ReasonerOptions options = {});
  /// Convenience: wraps plain DimsatOptions (legacy call sites).
  Reasoner(DimensionSchema schema, DimsatOptions dimsat_options);

  const DimensionSchema& schema() const { return schema_; }

  /// Three-valued, budget-aware queries. `budget` may be null
  /// (unbounded deadline; the expand-call ladder still applies) and
  /// must outlive the call.
  ReasonerAnswer QueryImplies(const DimensionConstraint& alpha,
                              const Budget* budget = nullptr);
  ReasonerAnswer QuerySatisfiable(CategoryId category,
                                  const Budget* budget = nullptr);
  ReasonerAnswer QuerySummarizable(CategoryId target,
                                   const std::vector<CategoryId>& sources,
                                   const Budget* budget = nullptr);

  /// Two-valued legacy façade: kUnknown surfaces as the non-OK reason
  /// Status. Counterexamples are not retained in the cache; use
  /// olapdc::Implies() directly when you need the witness.
  Result<bool> Implies(const DimensionConstraint& alpha);
  Result<bool> IsSatisfiable(CategoryId category);
  Result<bool> IsSummarizable(CategoryId target,
                              const std::vector<CategoryId>& sources);

  struct Stats {
    uint64_t queries = 0;
    uint64_t hits = 0;
    /// Subset of `hits` answered by the shared AnswerCache (another
    /// request or Reasoner did the work).
    uint64_t shared_hits = 0;
    /// Queries that ended kUnknown.
    uint64_t unknown = 0;
    /// Ladder rungs beyond the first, across all queries.
    uint64_t retries = 0;
    /// Overload sheds the ladder backed off from and retried.
    uint64_t shed_backoffs = 0;
    /// Rungs that continued from a previous rung's checkpoint instead
    /// of restarting the search.
    uint64_t checkpoint_resumes = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  /// One rung's outcome, fed back into the ladder.
  struct Attempt {
    Truth truth = Truth::kUnknown;
    Status status;      // OK, budget error, or hard error
    DimsatStats stats;  // work done by this rung
  };

  /// `attempt` runs one rung. `resume` (null when checkpoint resume is
  /// disabled) is the in/out frontier carried between rungs: non-empty
  /// on entry means "continue from here", and an attempt that is
  /// interrupted again writes the new frontier back. Query shapes that
  /// cannot resume simply ignore it.
  ReasonerAnswer RunLadder(
      const std::string& key, const Budget* budget,
      const std::function<Attempt(const DimsatOptions&, DimsatCheckpoint*)>&
          attempt);

  Result<bool> TwoValued(const ReasonerAnswer& answer);

  DimensionSchema schema_;
  ReasonerOptions options_;
  std::unordered_map<std::string, bool> cache_;
  Stats stats_;
};

}  // namespace olapdc

#endif  // OLAPDC_CORE_REASONER_H_
