#include "service/service_caches.h"

#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace olapdc::service {

namespace {

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

}  // namespace

ServiceCaches::ServiceCaches(Options options)
    : responses_({/*name=*/"constraint", options.num_shards,
                  options.memory_budget_bytes,
                  /*entry_overhead_bytes=*/160, &memory_}) {}

void ServiceCaches::PublishGauges() const {
  if (!obs::MetricsEnabled()) return;
  const CacheStatsSnapshot response = ResponseStats();
  obs::Gauge("olapdc.cache.constraint.entries",
             static_cast<int64_t>(response.entries));
  obs::Gauge("olapdc.cache.constraint.bytes",
             static_cast<int64_t>(response.bytes));
  memory_.PublishGauges();
  // Complete-inventory rule (docs/observability.md): the aggregate
  // counter names exist from the first scrape, even at zero.
  obs::Count("olapdc.cache.hits", 0);
  obs::Count("olapdc.cache.misses", 0);
  obs::Count("olapdc.cache.evictions", 0);
  obs::Count("olapdc.cache.invalidations", 0);
}

std::string ServiceCaches::SerializeResponses(size_t max_entries,
                                              size_t* written) const {
  std::vector<std::pair<std::string, std::string>> entries;
  responses_.ForEach([&](const std::string& key, const std::string& body) {
    if (entries.size() < max_entries) entries.emplace_back(key, body);
  });
  if (written != nullptr) *written = entries.size();
  std::string out = "olapdc-responses v1\n";
  out += "entries " + std::to_string(entries.size()) + "\n";
  for (const auto& [key, body] : entries) {
    out += std::to_string(key.size()) + " " + std::to_string(body.size()) +
           "\n";
    out += key;
    out += body;
    out += '\n';
  }
  return out;
}

Status ServiceCaches::LoadResponses(std::string_view text) {
  std::string_view rest = text;
  if (NextLine(&rest) != "olapdc-responses v1") {
    return Status::ParseError(
        "response snapshot must start with \"olapdc-responses v1\"");
  }
  std::string_view count_line = NextLine(&rest);
  constexpr std::string_view kEntries = "entries ";
  if (count_line.substr(0, kEntries.size()) != kEntries ||
      count_line.size() == kEntries.size()) {
    return Status::ParseError("response snapshot missing \"entries N\"");
  }
  uint64_t expected = 0;
  for (const char c : count_line.substr(kEntries.size())) {
    if (c < '0' || c > '9') {
      return Status::ParseError("malformed response entry count");
    }
    expected = expected * 10 + static_cast<uint64_t>(c - '0');
    if (expected > (1u << 20)) {
      return Status::ParseError("implausible response entry count");
    }
  }
  auto parse_size = [](std::string_view digits, size_t* out) {
    if (digits.empty()) return false;
    uint64_t value = 0;
    for (const char c : digits) {
      if (c < '0' || c > '9') return false;
      value = value * 10 + static_cast<uint64_t>(c - '0');
      if (value > (64u << 20)) return false;  // one entry past 64MB: no
    }
    *out = static_cast<size_t>(value);
    return true;
  };
  std::vector<std::pair<std::string, std::string>> staged;
  staged.reserve(static_cast<size_t>(expected));
  for (uint64_t i = 0; i < expected; ++i) {
    const std::string_view sizes_line = NextLine(&rest);
    const size_t space = sizes_line.find(' ');
    size_t key_len = 0, body_len = 0;
    if (space == std::string_view::npos ||
        !parse_size(sizes_line.substr(0, space), &key_len) ||
        !parse_size(sizes_line.substr(space + 1), &body_len)) {
      return Status::ParseError("malformed response entry header at entry " +
                                std::to_string(i));
    }
    if (rest.size() < key_len + body_len + 1 ||
        rest[key_len + body_len] != '\n') {
      return Status::ParseError("truncated response entry " +
                                std::to_string(i));
    }
    staged.emplace_back(std::string(rest.substr(0, key_len)),
                        std::string(rest.substr(key_len, body_len)));
    rest = rest.substr(key_len + body_len + 1);
  }
  for (const auto& [key, body] : staged) InsertResponse(key, body);
  return Status::OK();
}

}  // namespace olapdc::service
