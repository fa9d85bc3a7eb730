// SchemaRegistry: the resident daemon's pre-parsed schema store.
//
// The whole point of a long-lived service (ROADMAP item 1) is that
// schemas and constraint theories are parsed once and kept hot; every
// request then reasons against an immutable snapshot. Entries are
// handed out as shared_ptr<const DimensionSchema>, which is the
// sticky-failure isolation mechanism: a request holds its own
// reference for its whole lifetime, so a concurrent re-registration
// (or a poisoned request dying mid-run) can never mutate or free the
// schema under it, and a failed registration never disturbs the entry
// it would have replaced.

#ifndef OLAPDC_SERVICE_SCHEMA_REGISTRY_H_
#define OLAPDC_SERVICE_SCHEMA_REGISTRY_H_

// The registry also owns the cache epoch model: every entry carries a
// 128-bit *content fingerprint* of its serialized schema + constraint
// theory. The epoch is part of every response-cache key, so replacing
// a schema invalidates all cached answers for it logically and
// atomically — entries under the old epoch can never hit again and age
// out through the LRU. Content addressing also means a replace with an
// identical theory keeps the cache warm (same Σ, same answers) and
// that snapshotted responses survive a daemon restart soundly: they
// only ever hit against a byte-identical theory.

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/cache_shard.h"
#include "common/status.h"
#include "core/schema.h"

namespace olapdc::service {

class SchemaRegistry {
 public:
  struct Snapshot {
    std::shared_ptr<const DimensionSchema> schema;
    /// Content fingerprint of the schema + Σ; Fingerprint128{} (zero)
    /// iff schema == nullptr.
    Fingerprint128 epoch;
  };

  SchemaRegistry() = default;
  SchemaRegistry(const SchemaRegistry&) = delete;
  SchemaRegistry& operator=(const SchemaRegistry&) = delete;

  /// Parses `schema_text` (the schema text format) and installs it
  /// under `name`, replacing any previous entry *only on success* — a
  /// parse failure (or budget expiry during the parse) leaves the
  /// registry exactly as it was. `budget` bounds the parse.
  Status Register(const std::string& name, std::string_view schema_text,
                  const Budget* budget = nullptr);

  /// Installs an already-built schema (workload generators, tests).
  void RegisterParsed(const std::string& name, DimensionSchema schema);

  /// The schema registered under `name`, or null. The returned
  /// reference stays valid for as long as the caller holds it,
  /// regardless of later re-registrations.
  std::shared_ptr<const DimensionSchema> Find(const std::string& name) const;

  /// Find() plus the entry's cache epoch — the lookup every cached
  /// request path uses, so schema and epoch are one consistent read.
  Snapshot FindEntry(const std::string& name) const;

  std::vector<std::string> Names() const;
  size_t size() const;

  /// All (name, content epoch) pairs, one consistent read — what the
  /// snapshot plane checkpoints so a restart can tell which persisted
  /// cache state still matches a live theory.
  std::vector<std::pair<std::string, Fingerprint128>> Epochs() const;

  /// Registrations that *replaced* an entry with different content
  /// (i.e. changed its epoch and thereby invalidated every cached
  /// answer for that schema). Also counted as
  /// olapdc.cache.invalidations.
  uint64_t invalidations() const;

 private:
  void Install(const std::string& name,
               std::shared_ptr<const DimensionSchema> entry);

  mutable std::mutex mutex_;
  std::map<std::string, Snapshot> schemas_;
  uint64_t invalidations_ = 0;
};

}  // namespace olapdc::service

#endif  // OLAPDC_SERVICE_SCHEMA_REGISTRY_H_
