// DimService: the transport-free request plane of olapdcd.
//
// HandleRequest() maps one parsed HTTP request to one response, with
// the full crash-proof lifecycle around every call into the reasoning
// engines:
//
//   admission  — an AdmissionGate ticket is taken before any work;
//                overload (or drain) sheds with 503 and a Retry-After
//                header derived from the gate's adaptive hint (the
//                same "retry-after-ms=" hint the CLI/RetryPolicy
//                parse — one source of truth).
//   budgets    — every request runs under its own Budget: a clamped
//                deadline, the service-wide drain cancellation token,
//                and a fresh per-request MemoryBudget, so one greedy
//                request exhausts itself, not the process.
//   body JSON  — parsed with src/io's depth-capped parser; malformed
//                bodies are 400 with a line:column diagnostic, and
//                missing/mistyped fields are 400 naming the field
//                (never silently defaulted).
//   drain      — BeginDrain() sheds new work; CancelInFlight() trips
//                the shared cancellation token so in-flight DIMSAT
//                runs stop at the next budget probe and return their
//                serialized DimsatCheckpoint to the client, who can
//                resubmit it as "resume" (here or on another replica).
//   isolation  — requests reason against shared_ptr<const> schema
//                snapshots from the SchemaRegistry; a poisoned request
//                (fault-injected, malformed, out-of-memory) dies with
//                its own response and leaves no state behind.
//
// Endpoints (POST, JSON bodies):
//   /v1/check         {schema, category, deadline_ms?, threads?, resume?}
//   /v1/implies       {schema, constraint, deadline_ms?, threads?}
//   /v1/summarizable  {schema, category, sources, deadline_ms?, threads?}
//   /v1/batch         {requests: [{op, ...}, ...], deadline_ms?}
//   /v1/schemas       {name, text}   (registers/replaces a schema)
//
// Engine budget expiries are *data*, not transport errors: the
// response is 200 with "definitive": false, the partial statistics,
// and (sequential runs) a "checkpoint" to resume from. Only hard
// errors (bad input 4xx, unknown schema 404, internal faults 500)
// surface as HTTP error statuses.
//
// The outcome accounting (requests == ok + errors + shed) is exact and
// exposed via counters — the chaos soak's conservation invariant.

#ifndef OLAPDC_SERVICE_DIM_SERVICE_H_
#define OLAPDC_SERVICE_DIM_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/budget.h"
#include "exec/admission.h"
#include "obs/http_server.h"
#include "service/schema_registry.h"

namespace olapdc {
struct JsonValue;
}  // namespace olapdc

namespace olapdc::service {

class ServiceCaches;

class DimService {
 public:
  struct Options {
    /// Required; not owned.
    SchemaRegistry* registry = nullptr;
    /// Optional overload shedding; not owned.
    exec::AdmissionGate* gate = nullptr;
    /// Deadline applied when the request names none, and the clamp
    /// ceiling when it does.
    int64_t default_deadline_ms = 2000;
    int64_t max_deadline_ms = 30000;
    /// Per-request memory envelope.
    uint64_t memory_budget_bytes = 64ull << 20;
    /// Ceiling on a request's "threads" field (1 = sequential only).
    int max_threads = 1;
    /// Ceiling on /v1/batch fan-out.
    size_t max_batch = 64;
    /// EXPAND-call cap forwarded to every DIMSAT run.
    uint64_t max_expand_calls = UINT64_MAX;
    /// Whether POST /v1/schemas may (re)register schemas.
    bool allow_register = true;
    /// Cross-request response cache (service_caches.h); not owned,
    /// null disables caching — request handling is then bit-identical
    /// to the uncached service. With the cache attached, definitive
    /// answers are served from it when the epoch matches (marked
    /// "cached": true in the body). Resume requests bypass it.
    ServiceCaches* caches = nullptr;
  };

  explicit DimService(const Options& options) : options_(options) {}
  DimService(const DimService&) = delete;
  DimService& operator=(const DimService&) = delete;

  /// Serves one request. Thread-safe.
  obs::HttpResponse HandleRequest(const obs::HttpRequest& request);

  /// Drain, phase 1: shed every new request (503) while in-flight ones
  /// run to completion.
  void BeginDrain();

  /// Drain, phase 2: trip the shared cancellation token so in-flight
  /// runs stop at their next budget probe and checkpoint.
  void CancelInFlight();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Outcome accounting: requests() == ok() + errors() + shed() holds
  /// whenever no request is mid-flight.
  uint64_t requests() const { return requests_.load(); }
  uint64_t ok() const { return ok_.load(); }
  uint64_t errors() const { return errors_.load(); }
  uint64_t shed() const { return shed_.load(); }
  /// Responses that carried a resumable checkpoint.
  uint64_t checkpointed() const { return checkpointed_.load(); }

 private:
  obs::HttpResponse Route(const obs::HttpRequest& request);
  obs::HttpResponse DoCheck(const JsonValue& body, const Budget& budget);
  obs::HttpResponse DoImplies(const JsonValue& body, const Budget& budget);
  obs::HttpResponse DoSummarizable(const JsonValue& body,
                                   const Budget& budget);
  obs::HttpResponse DoBatch(const JsonValue& body, const Budget& budget);
  obs::HttpResponse DoRegisterSchema(const JsonValue& body,
                                     const Budget& budget);

  Options options_;
  CancellationSource drain_cancel_;
  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> checkpointed_{0};
};

}  // namespace olapdc::service

#endif  // OLAPDC_SERVICE_DIM_SERVICE_H_
