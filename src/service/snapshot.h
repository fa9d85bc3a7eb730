// Snapshot plane: olapdcd's periodic crash-durability checkpoint
// (docs/robustness.md "Crash durability & recovery").
//
// A snapshot is a durable file (io/durable_file.h) whose records are
// the `olapdc-snapshot v1` layout:
//
//   record 0 — meta:      "olapdc-snapshot v1\nseq N\nresponse_entries K\n"
//                         (K = entries in the responses record)
//   record 1 — epochs:    "section epochs\n" + one "<hex32> <name>\n"
//                         line per registered schema
//   record 2 — responses: "section responses\n" + SerializeResponses
//                         text (the warm set, capped by the builder)
//
// Because each record is independently CRC-framed, a kill -9 (or a
// lost tail page) mid-write can only cost whole trailing records: a
// snapshot torn after the epochs record still restores the epochs and
// simply starts the response cache cold. The responses section is also
// loaded all-or-nothing (ServiceCaches::LoadResponses is staged), so a
// bit flip that survives framing still can't half-load the cache.
//
// Recovery is the mirror: read with torn-tail truncation, verify the
// meta record, then apply every intact section. The per-section salvage
// means recovery never *fails* on a torn snapshot — the invariant the
// crash harness (chaos_campaign --crash) asserts over hundreds of
// kill points.

#ifndef OLAPDC_SERVICE_SNAPSHOT_H_
#define OLAPDC_SERVICE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "service/schema_registry.h"
#include "service/service_caches.h"

namespace olapdc::service {

struct SnapshotOptions {
  /// Warm-set cap: how many response-cache entries to checkpoint.
  size_t max_response_entries = 4096;
};

/// Builds the `olapdc-snapshot v1` record sequence for
/// WriteDurableFile. `seq` is the monotone snapshot sequence number
/// (the daemon's, not the file's). `response_entries` (optional)
/// receives K, the number of entries written to the responses record.
std::vector<std::string> BuildSnapshotRecords(
    uint64_t seq, const SchemaRegistry& registry, const ServiceCaches& caches,
    const SnapshotOptions& options = SnapshotOptions{},
    uint64_t* response_entries = nullptr);

struct SnapshotRestore {
  /// seq of the snapshot that was loaded.
  uint64_t seq = 0;
  /// Response entry count recorded at snapshot time (meta record); 0
  /// for a snapshot whose meta predates the count.
  uint64_t response_entries = 0;
  /// Sections that were intact and applied.
  bool loaded_epochs = false;
  bool loaded_responses = false;
  /// (name, epoch) pairs from the epochs section, for logging.
  std::vector<std::pair<std::string, Fingerprint128>> epochs;
  /// Salvage accounting copied from the durable read.
  uint64_t torn_tail_truncations = 0;
  uint64_t crc_drops = 0;
  uint64_t bytes = 0;
};

/// Applies the records of a recovered snapshot file to `caches`.
/// Trailing records lost to a torn tail lose only their own section;
/// a malformed *intact* section is skipped (counted in the caches'
/// ParseError) rather than failing recovery. Fails only if record 0
/// is missing or is not an `olapdc-snapshot v1` meta record.
Result<SnapshotRestore> LoadSnapshotRecords(
    const std::vector<std::string>& records, ServiceCaches* caches);

}  // namespace olapdc::service

#endif  // OLAPDC_SERVICE_SNAPSHOT_H_
