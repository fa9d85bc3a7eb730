#include "core/reasoner.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/fault_injector.h"
#include "constraint/printer.h"
#include "exec/admission.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace olapdc {

std::string_view TruthToString(Truth truth) {
  switch (truth) {
    case Truth::kNo:
      return "no";
    case Truth::kYes:
      return "yes";
    case Truth::kUnknown:
      return "unknown";
  }
  return "unknown";
}

Reasoner::Reasoner(DimensionSchema schema, ReasonerOptions options)
    : schema_(std::move(schema)), options_(std::move(options)) {
  if (options_.expand_budget_growth < 2) options_.expand_budget_growth = 2;
  if (options_.max_attempts < 1) options_.max_attempts = 1;
  if (options_.initial_expand_budget == 0) options_.initial_expand_budget = 1;
}

Reasoner::Reasoner(DimensionSchema schema, DimsatOptions dimsat_options)
    : Reasoner(std::move(schema), [&] {
        ReasonerOptions options;
        options.dimsat = std::move(dimsat_options);
        return options;
      }()) {}

namespace {

/// Inventory registration for the chaos campaign's site sweep.
[[maybe_unused]] const bool kQuerySite = RegisterFaultSite("reasoner.query");

/// Publishes one finished query into the registry (olapdc.reasoner.*)
/// and annotates its trace span. The ladder's per-rung DIMSAT runs
/// already flush their own olapdc.dimsat.* metrics.
void ObserveQuery(obs::ObsSpan& span, const std::string& key,
                  const ReasonerAnswer& answer, double elapsed_us) {
  if (obs::MetricsEnabled()) {
    obs::Count("olapdc.reasoner.queries");
    obs::Count("olapdc.reasoner.cache_hits", answer.from_cache ? 1 : 0);
    obs::Count("olapdc.reasoner.cache_misses", answer.from_cache ? 0 : 1);
    obs::Count("olapdc.reasoner.ladder_rungs",
               static_cast<uint64_t>(answer.attempts));
    obs::Count("olapdc.reasoner.unknown",
               answer.truth == Truth::kUnknown ? 1 : 0);
    obs::LatencyUs("olapdc.reasoner.latency_us", elapsed_us);
  }
  if (span.active()) {
    span.AddStat("key", key);
    span.AddStat("truth", TruthToString(answer.truth));
    span.AddStat("from_cache", answer.from_cache);
    span.AddStat("attempts", answer.attempts);
    span.AddStat("expand_calls", answer.work.expand_calls);
  }
}

}  // namespace

ReasonerAnswer Reasoner::RunLadder(
    const std::string& key, const Budget* budget,
    const std::function<Attempt(const DimsatOptions&, DimsatCheckpoint*)>&
        attempt) {
  ++stats_.queries;
  ReasonerAnswer answer;

  obs::ObsSpan span("reasoner.query");
  const bool observed = obs::MetricsEnabled() || span.active();
  const auto start = observed ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point();
  auto finish = [&]() {
    if (!observed) return;
    const double elapsed_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count();
    ObserveQuery(span, key, answer, elapsed_us);
  };

  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++stats_.hits;
    answer.truth = it->second ? Truth::kYes : Truth::kNo;
    answer.from_cache = true;
    finish();
    return answer;
  }
  // The shared AnswerCache: another Reasoner instance over the same
  // epoch may already have derived this verdict. A hit is promoted into
  // the run-local map so repeats within this Reasoner skip even the
  // shared cache's shard lock.
  if (options_.shared_cache != nullptr) {
    bool yes = false;
    if (options_.shared_cache->Lookup(options_.shared_scope + key, &yes)) {
      ++stats_.hits;
      ++stats_.shared_hits;
      cache_.emplace(key, yes);
      answer.truth = yes ? Truth::kYes : Truth::kNo;
      answer.from_cache = true;
      finish();
      return answer;
    }
  }

  // Iterative deepening: each rung widens the expand-call budget
  // geometrically; the caller's wall-clock Budget caps the whole
  // ladder. With checkpoint resume the rungs *continue* one another,
  // so the ladder explores each search node at most once; without it,
  // restarting wastes at most a constant factor (geometric series)
  // over running the final rung alone.
  uint64_t rung_budget = options_.initial_expand_budget;
  const uint64_t overall_cap = options_.dimsat.max_expand_calls;
  // Frontier carried between rungs; jitter salt desynchronizes
  // concurrent retriers of different queries.
  DimsatCheckpoint resume;
  const uint64_t salt = std::hash<std::string>{}(key);
  int shed_retries = 0;
  for (int rung = 0; rung < options_.max_attempts; ++rung) {
    if (rung > 0) ++stats_.retries;
    ++answer.attempts;

    Status fault = FaultInjector::Global().MaybeFail("reasoner.query");
    if (!fault.ok()) {
      answer.reason = std::move(fault);
      break;
    }

    DimsatOptions rung_options = options_.dimsat;
    rung_options.budget = budget;
    rung_options.max_expand_calls = std::min(rung_budget, overall_cap);
    const bool last_possible_rung =
        rung + 1 >= options_.max_attempts || rung_options.max_expand_calls >= overall_cap;

    Attempt outcome = attempt(
        rung_options, options_.resume_from_checkpoint ? &resume : nullptr);
    AccumulateStats(&answer.work, outcome.stats);

    if (outcome.status.ok()) {
      answer.truth = outcome.truth;
      answer.reason = Status::OK();
      const bool yes = outcome.truth == Truth::kYes;
      cache_.emplace(key, yes);
      if (options_.shared_cache != nullptr) {
        options_.shared_cache->Insert(options_.shared_scope + key, yes);
      }
      finish();
      return answer;
    }
    answer.reason = outcome.status;

    // An overload shed ran no search at all: back off (honoring the
    // admission gate's retry-after hint) and retry the *same* rung —
    // there is nothing to deepen, the pool was just full.
    if (outcome.status.code() == StatusCode::kUnavailable &&
        options_.retry.ShouldRetry(outcome.status, shed_retries)) {
      ++stats_.shed_backoffs;
      if (obs::MetricsEnabled()) obs::Count("olapdc.reasoner.backoffs");
      const double hint_ms = static_cast<double>(
          exec::RetryAfterMsFromStatus(outcome.status));
      if (options_.retry.BackoffMs(shed_retries, salt) < hint_ms &&
          (budget == nullptr || budget->RemainingMs() > hint_ms)) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(hint_ms));
      } else {
        options_.retry.SleepBackoff(shed_retries, budget, salt);
      }
      ++shed_retries;
      if (budget != nullptr && !budget->Check().ok()) {
        answer.reason = budget->Check();
        break;
      }
      --rung;  // the rung neither ran nor deepened
      continue;
    }

    // Only an *expand-cap* exhaustion is retryable by deepening:
    // growing the budget can help (and with a carried checkpoint the
    // next rung continues instead of restarting). A deadline, a
    // cancellation, or a failure that made no progress (e.g.
    // path_limit during constraint preparation) will recur identically
    // — stop the ladder.
    const bool expand_cap_hit =
        outcome.status.code() == StatusCode::kResourceExhausted &&
        outcome.stats.expand_calls >= rung_options.max_expand_calls;
    if (!expand_cap_hit || last_possible_rung) break;
    rung_budget *= options_.expand_budget_growth;
  }

  answer.truth = Truth::kUnknown;
  ++stats_.unknown;
  finish();
  return answer;
}

ReasonerAnswer Reasoner::QueryImplies(const DimensionConstraint& alpha,
                                      const Budget* budget) {
  // Canonical key: root id + printed expression (printing is injective
  // up to re-parse, which is what semantic identity needs here).
  const std::string key = "i/" + std::to_string(alpha.root) + "/" +
                          ExprToString(schema_.hierarchy(), alpha.expr);
  return RunLadder(key, budget, [&](const DimsatOptions& options,
                                    DimsatCheckpoint*) {
    Attempt a;
    Result<ImplicationResult> r = olapdc::Implies(schema_, alpha, options);
    if (!r.ok()) {
      a.status = r.status();
      return a;
    }
    a.stats = r->stats;
    a.status = r->status;
    if (a.status.ok()) a.truth = r->implied ? Truth::kYes : Truth::kNo;
    return a;
  });
}

ReasonerAnswer Reasoner::QuerySatisfiable(CategoryId category,
                                          const Budget* budget) {
  const std::string key = "s/" + std::to_string(category);
  return RunLadder(key, budget, [&](const DimsatOptions& options,
                                    DimsatCheckpoint* resume) {
    Attempt a;
    DimsatResult r;
    // Single sequential search: the one query shape whose rungs can
    // continue one another through a checkpoint instead of restarting.
    if (resume != nullptr && options.num_threads <= 1 &&
        !options.collect_trace) {
      DimsatOptions opts = options;
      opts.checkpoint = resume;
      if (!resume->empty()) {
        ++stats_.checkpoint_resumes;
        DimsatCheckpoint from = std::move(*resume);
        resume->frames.clear();
        r = ResumeDimsat(schema_, category, opts, std::move(from));
      } else {
        r = Dimsat(schema_, category, opts);
      }
    } else {
      r = Dimsat(schema_, category, options);
    }
    a.stats = r.stats;
    // A witness is definitive regardless of an expiring budget; a
    // truncated negative is not.
    if (r.satisfiable) {
      a.truth = Truth::kYes;
    } else if (r.status.ok()) {
      a.truth = Truth::kNo;
    } else {
      a.status = r.status;
    }
    return a;
  });
}

ReasonerAnswer Reasoner::QuerySummarizable(
    CategoryId target, const std::vector<CategoryId>& sources,
    const Budget* budget) {
  std::vector<CategoryId> sorted = sources;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::string key = "m/" + std::to_string(target);
  for (CategoryId c : sorted) key += "," + std::to_string(c);
  return RunLadder(key, budget, [&](const DimsatOptions& options,
                                    DimsatCheckpoint*) {
    Attempt a;
    Result<SummarizabilityResult> r =
        olapdc::IsSummarizable(schema_, target, sorted, options);
    if (!r.ok()) {
      a.status = r.status();
      return a;
    }
    a.stats = r->stats;
    a.status = r->status;
    if (a.status.ok()) a.truth = r->summarizable ? Truth::kYes : Truth::kNo;
    return a;
  });
}

Result<bool> Reasoner::TwoValued(const ReasonerAnswer& answer) {
  if (answer.truth == Truth::kUnknown) {
    return answer.reason.ok()
               ? Status::Internal("unknown answer without a reason")
               : answer.reason;
  }
  return answer.truth == Truth::kYes;
}

Result<bool> Reasoner::Implies(const DimensionConstraint& alpha) {
  return TwoValued(QueryImplies(alpha));
}

Result<bool> Reasoner::IsSatisfiable(CategoryId category) {
  return TwoValued(QuerySatisfiable(category));
}

Result<bool> Reasoner::IsSummarizable(CategoryId target,
                                      const std::vector<CategoryId>& sources) {
  return TwoValued(QuerySummarizable(target, sources));
}

}  // namespace olapdc
