#include "service/snapshot.h"

#include <utility>

namespace olapdc::service {

namespace {

bool ParseHex128(std::string_view hex, Fingerprint128* out) {
  if (hex.size() != 32) return false;
  uint64_t words[2] = {0, 0};
  for (int i = 0; i < 32; ++i) {
    const char c = hex[static_cast<size_t>(i)];
    uint64_t nibble;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    words[i / 16] = (words[i / 16] << 4) | nibble;
  }
  out->hi = words[0];
  out->lo = words[1];
  return true;
}

std::string_view NextLine(std::string_view* rest) {
  const size_t eol = rest->find('\n');
  std::string_view line;
  if (eol == std::string_view::npos) {
    line = *rest;
    *rest = std::string_view();
  } else {
    line = rest->substr(0, eol);
    *rest = rest->substr(eol + 1);
  }
  return line;
}

bool ParseU64(std::string_view digits, uint64_t* out) {
  if (digits.empty() || digits.size() > 19) return false;
  uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

/// "prefix N" -> N, or false.
bool ParseKeyedU64(std::string_view line, std::string_view key,
                   uint64_t* out) {
  if (line.substr(0, key.size()) != key) return false;
  return ParseU64(line.substr(key.size()), out);
}

}  // namespace

std::vector<std::string> BuildSnapshotRecords(uint64_t seq,
                                              const SchemaRegistry& registry,
                                              const ServiceCaches& caches,
                                              const SnapshotOptions& options,
                                              uint64_t* response_entries) {
  size_t written = 0;
  std::string responses =
      "section responses\n" +
      caches.SerializeResponses(options.max_response_entries, &written);
  if (response_entries != nullptr) *response_entries = written;

  std::vector<std::string> records;
  records.reserve(3);
  records.push_back("olapdc-snapshot v1\nseq " + std::to_string(seq) +
                    "\nresponse_entries " + std::to_string(written) + "\n");

  std::string epochs = "section epochs\n";
  for (const auto& [name, epoch] : registry.Epochs()) {
    epochs += epoch.ToHex() + " " + name + "\n";
  }
  records.push_back(std::move(epochs));
  records.push_back(std::move(responses));
  return records;
}

Result<SnapshotRestore> LoadSnapshotRecords(
    const std::vector<std::string>& records, ServiceCaches* caches) {
  if (records.empty()) {
    return Status::ParseError("snapshot has no meta record");
  }
  std::string_view meta = records[0];
  if (NextLine(&meta) != "olapdc-snapshot v1") {
    return Status::ParseError(
        "snapshot meta record must start with \"olapdc-snapshot v1\"");
  }
  SnapshotRestore restore;
  const bool seq_ok = ParseKeyedU64(NextLine(&meta), "seq ", &restore.seq);
  const std::string_view count_line = NextLine(&meta);
  // Legacy meta: snapshots written while a no-good store existed carry
  // "nogood_entries K" instead; K counted no-goods, so it is dropped.
  uint64_t legacy_nogoods = 0;
  if (!seq_ok ||
      !(ParseKeyedU64(count_line, "response_entries ",
                      &restore.response_entries) ||
        ParseKeyedU64(count_line, "nogood_entries ", &legacy_nogoods))) {
    return Status::ParseError("snapshot meta record malformed");
  }

  // Every record past the meta is an independent section; a torn tail
  // already removed trailing ones, and a malformed survivor is skipped
  // so one bad section never takes down the rest of recovery.
  for (size_t i = 1; i < records.size(); ++i) {
    std::string_view rest = records[i];
    const std::string_view header = NextLine(&rest);
    if (header == "section epochs") {
      std::vector<std::pair<std::string, Fingerprint128>> epochs;
      bool ok = true;
      while (!rest.empty()) {
        const std::string_view line = NextLine(&rest);
        if (line.empty()) continue;
        Fingerprint128 epoch;
        if (line.size() < 34 || line[32] != ' ' ||
            !ParseHex128(line.substr(0, 32), &epoch)) {
          ok = false;
          break;
        }
        epochs.emplace_back(std::string(line.substr(33)), epoch);
      }
      if (ok) {
        restore.epochs = std::move(epochs);
        restore.loaded_epochs = true;
      }
    } else if (header == "section responses") {
      if (caches->LoadResponses(rest).ok()) restore.loaded_responses = true;
    }
    // Unknown section headers are forward compatibility: skipped. So is
    // the legacy "section nogoods" record of older snapshots.
  }
  return restore;
}

}  // namespace olapdc::service
