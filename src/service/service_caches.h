// ServiceCaches: the cross-request cache plane of olapdcd. For one
// (schema, Σ) content epoch of the SchemaRegistry, DIMSAT's answers are
// deterministic, so the only reuse the daemon needs is one memoized
// answer per canonical question: the full 200 JSON body of a
// definitive answer, keyed by op + epoch + canonical inputs. An
// identical request against an unchanged epoch is one hash lookup and
// zero engine work.
//
// Invalidation is the registry's epoch model: a replaced theory gets a
// new content fingerprint, every key under the old epoch goes
// permanently cold, and the LRU reclaims the bytes. Nothing is ever
// served across epochs, including after a daemon restart (every
// snapshotted key carries its epoch).
//
// The cache owns the whole byte envelope, enforced by the ShardedCache
// LRU and *charged* to a track-only MemoryBudget so cache residency is
// visible on the olapdc.mem gauges next to request memory. Losing an
// entry is always safe — the cache is a pure memoization of
// deterministic engines.

#ifndef OLAPDC_SERVICE_SERVICE_CACHES_H_
#define OLAPDC_SERVICE_SERVICE_CACHES_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/cache_shard.h"
#include "common/memory_budget.h"
#include "common/status.h"

namespace olapdc::service {

class ServiceCaches {
 public:
  struct Options {
    /// Byte envelope of the response cache. 0 disables byte caps
    /// (test/bench use).
    uint64_t memory_budget_bytes = 32ull << 20;
    size_t num_shards = 8;
  };

  ServiceCaches() : ServiceCaches(Options{}) {}
  explicit ServiceCaches(Options options);

  ServiceCaches(const ServiceCaches&) = delete;
  ServiceCaches& operator=(const ServiceCaches&) = delete;

  /// Keys are op + epoch + canonical inputs; values are the response
  /// JSON body (no trailing newline, no "cached" marker — the serve
  /// path appends it).
  bool LookupResponse(const std::string& key, std::string* body) {
    return responses_.Lookup(key, body);
  }
  void InsertResponse(const std::string& key, const std::string& body) {
    responses_.Insert(key, body, key.size() + body.size());
  }

  /// Accounting (invalidations live on the SchemaRegistry, which owns
  /// the epochs).
  CacheStatsSnapshot ResponseStats() const { return responses_.Stats(); }
  /// Always empty. Kept only because perfbench/replay.cc reads it and
  /// the benchmark's sources stay fixed across commits.
  CacheStatsSnapshot NoGoodStats() const { return CacheStatsSnapshot{}; }

  /// Publishes the olapdc.cache.constraint.entries / .bytes gauges and
  /// the olapdc.mem residency gauges. Called per request by
  /// DimService; cheap (a handful of uncontended shard locks).
  void PublishGauges() const;

  /// Warm-set snapshot: up to `max_entries` response-cache entries as
  /// `olapdc-responses v1` text (length-prefixed key/body pairs —
  /// bodies are opaque bytes). Part of the olapdcd snapshot
  /// (service/snapshot.h); keys carry their epoch, so re-loading a
  /// stale snapshot is harmless (stale keys never hit). `written`
  /// (optional) receives the number of entries serialized.
  std::string SerializeResponses(size_t max_entries,
                                 size_t* written = nullptr) const;
  /// Re-inserts a SerializeResponses snapshot. All-or-nothing: the
  /// text is parsed into staging first, so malformed input returns
  /// ParseError and inserts nothing (tests/snapshot_test.cc's
  /// adversarial corpus).
  Status LoadResponses(std::string_view text);

 private:
  /// Track-only (limit 0): see class comment.
  MemoryBudget memory_{0};
  ShardedCache<std::string, std::string> responses_;
};

}  // namespace olapdc::service

#endif  // OLAPDC_SERVICE_SERVICE_CACHES_H_
