// ShardedCache: the substrate of the cross-request caches — the
// daemon's canonicalized response cache (service/service_caches.h) and
// the Reasoner's shared AnswerCache (core/answer_cache.h). Callers key
// every entry by a (schema, Σ) epoch so a theory edit invalidates
// logically and atomically: the epoch is part of every key, so entries
// of a dead epoch can never hit again and age out through the LRU like
// any other cold entry.
//
// Concurrency is sharded: the key hash picks one of a power-of-two
// number of shards, each an independently locked LRU map, so readers
// on different keys do not serialize. Entries are byte-charged against
// a per-shard slice of the configured capacity and the least recently
// used entries are evicted *before* an insert would exceed it — the
// cache can therefore never be the component that runs the process out
// of memory. The same charges flow through an optional MemoryBudget
// (Reserve/Release) so cache residency shows up on the olapdc.mem
// accounting; the budget is used for *observability*, not enforcement,
// because MemoryBudget exhaustion is deliberately sticky (memory
// pressure does not un-happen within a request) while a cache must
// keep admitting entries after evicting under pressure.
//
// Every operation counts into the olapdc.cache.* metric family, both
// the aggregate (olapdc.cache.hits) and a per-layer breakdown
// (olapdc.cache.<name>.hits) — docs/caching.md has the inventory.

#ifndef OLAPDC_COMMON_CACHE_SHARD_H_
#define OLAPDC_COMMON_CACHE_SHARD_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/memory_budget.h"
#include "obs/metrics.h"

namespace olapdc {

/// A 128-bit content fingerprint: two independent 64-bit FNV-1a style
/// streams over the same bytes. Used for schema epochs and the
/// constraint identities in response-cache keys — places where a
/// collision would silently alias two different theories, so
/// 64 bits (birthday-bounded at ~2^32 entries) is not enough margin.
struct Fingerprint128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const Fingerprint128& o) const {
    return hi == o.hi && lo == o.lo;
  }
  bool operator!=(const Fingerprint128& o) const { return !(*this == o); }
  bool operator<(const Fingerprint128& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }

  /// Compact stable rendering for cache keys, /varz, and snapshots.
  std::string ToHex() const {
    static const char* kDigits = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 32; ++i) {
      const uint64_t word = i < 16 ? hi : lo;
      out[static_cast<size_t>(i)] =
          kDigits[(word >> (60 - 4 * (i & 15))) & 0xF];
    }
    return out;
  }
};

/// Incremental 128-bit hasher: mix in bytes and integers, then take the
/// fingerprint. Both streams see every input, with different offset
/// bases and a different post-mix, so they fail independently.
class Fingerprinter {
 public:
  Fingerprinter() = default;

  Fingerprinter& Mix(std::string_view bytes) {
    for (const char c : bytes) MixByte(static_cast<unsigned char>(c));
    return *this;
  }

  Fingerprinter& Mix(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      MixByte(static_cast<unsigned char>(value >> (8 * i)));
    }
    return *this;
  }

  Fingerprint128 Final() const {
    // Finalization (splitmix64) so short inputs still diffuse into all
    // 128 bits.
    return Fingerprint128{Scramble(a_ + 0x9E3779B97F4A7C15ull),
                          Scramble(b_ ^ 0x94D049BB133111EBull)};
  }

 private:
  void MixByte(unsigned char c) {
    a_ = (a_ ^ c) * 0x100000001B3ull;         // FNV-1a prime
    b_ = (b_ ^ c) * 0x00000100000001B3ull + 0x2545F4914F6CDD1Dull;
  }

  static uint64_t Scramble(uint64_t x) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
  }

  uint64_t a_ = 0xCBF29CE484222325ull;  // FNV-1a offset basis
  uint64_t b_ = 0x84222325CBF29CE4ull;
};

inline Fingerprint128 FingerprintBytes(std::string_view bytes) {
  return Fingerprinter().Mix(bytes).Final();
}

/// Point-in-time counters of one cache (atomically sampled; the fields
/// are mutually consistent only when the cache is quiescent — the same
/// contract as DimService's outcome accounting).
struct CacheStatsSnapshot {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
  uint64_t bytes = 0;
};

/// A sharded, byte-capped LRU map. Thread-safe. Key and Value must be
/// copyable (values are copied out under the shard lock so a concurrent
/// eviction can never invalidate a returned value).
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedCache {
 public:
  struct Options {
    /// Metric label: operations count into olapdc.cache.<name>.* and
    /// the olapdc.cache.* aggregate. Empty disables the per-layer
    /// breakdown (the aggregate still counts).
    std::string name;
    /// Rounded up to a power of two.
    size_t num_shards = 8;
    /// Byte capacity across all shards (each shard enforces its slice);
    /// 0 means uncapped.
    uint64_t max_bytes = 8ull << 20;
    /// Fixed per-entry overhead added to the caller's value_bytes
    /// (list node, map node, key storage).
    uint64_t entry_overhead_bytes = 96;
    /// Observability charge target; not owned, may be null. Eviction is
    /// enforced by max_bytes, never by this budget (see file comment).
    MemoryBudget* memory = nullptr;
  };

  explicit ShardedCache(Options options) : options_(std::move(options)) {
    size_t shards = 1;
    while (shards < options_.num_shards) shards <<= 1;
    shard_mask_ = shards - 1;
    shards_ = std::vector<Shard>(shards);
    shard_max_bytes_ = options_.max_bytes == 0
                           ? 0
                           : std::max<uint64_t>(options_.max_bytes / shards, 1);
    if (!options_.name.empty()) {
      hit_metric_ = "olapdc.cache." + options_.name + ".hits";
      miss_metric_ = "olapdc.cache." + options_.name + ".misses";
      eviction_metric_ = "olapdc.cache." + options_.name + ".evictions";
    }
  }

  ~ShardedCache() { Clear(); }

  ShardedCache(const ShardedCache&) = delete;
  ShardedCache& operator=(const ShardedCache&) = delete;

  /// True (and copies the value into *out, which may be null) iff `key`
  /// is resident; a hit refreshes the entry's LRU position.
  bool Lookup(const Key& key, Value* out) {
    Shard& shard = ShardFor(key);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        if (out != nullptr) *out = it->second->value;
        hits_.fetch_add(1, std::memory_order_relaxed);
        CountOp(hit_metric_, "olapdc.cache.hits");
        return true;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    CountOp(miss_metric_, "olapdc.cache.misses");
    return false;
  }

  /// Inserts (or refreshes) key -> value, charging entry_overhead +
  /// value_bytes. LRU entries are evicted first whenever the shard's
  /// byte slice would overflow; a value larger than the whole slice is
  /// not admitted at all (callers shouldn't cache what they couldn't
  /// retain).
  void Insert(const Key& key, Value value, uint64_t value_bytes) {
    const uint64_t bytes = value_bytes + options_.entry_overhead_bytes;
    if (shard_max_bytes_ != 0 && bytes > shard_max_bytes_) return;
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      // Refresh in place; re-charge the delta.
      ChargeBytes(shard, bytes);
      ReleaseBytes(shard, it->second->bytes);
      it->second->value = std::move(value);
      it->second->bytes = bytes;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      EvictOverflow(shard);
      return;
    }
    ChargeBytes(shard, bytes);
    shard.lru.push_front(Entry{key, std::move(value), bytes});
    shard.map.emplace(key, shard.lru.begin());
    insertions_.fetch_add(1, std::memory_order_relaxed);
    EvictOverflow(shard);
  }

  /// Drops every entry. (Epoch-keyed callers rarely need this — dead
  /// epochs age out — but tests and explicit flush endpoints do.)
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      ReleaseBytes(shard, shard.bytes);
      shard.map.clear();
      shard.lru.clear();
    }
  }

  CacheStatsSnapshot Stats() const {
    CacheStatsSnapshot s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.insertions = insertions_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      s.entries += shard.map.size();
      s.bytes += shard.bytes;
    }
    return s;
  }

  uint64_t size() const { return Stats().entries; }
  uint64_t max_bytes() const { return options_.max_bytes; }
  const std::string& name() const { return options_.name; }

  /// Calls fn(key, value) for every resident entry, shard by shard
  /// (the response-cache snapshot). Entries inserted or evicted
  /// concurrently may or may not be visited.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const Entry& entry : shard.lru) fn(entry.key, entry.value);
    }
  }

 private:
  struct Entry {
    Key key;
    Value value;
    uint64_t bytes;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> map;
    uint64_t bytes = 0;  // guarded by mu
  };

  Shard& ShardFor(const Key& key) {
    return shards_[Hash{}(key) & shard_mask_];
  }

  void ChargeBytes(Shard& shard, uint64_t bytes) {
    shard.bytes += bytes;
    if (options_.memory != nullptr) {
      // Observability only: a track-only charge that can't fail when
      // the budget's limit is 0, and whose failure (shared capped
      // budget) we deliberately ignore — max_bytes is the enforcer.
      (void)options_.memory->Reserve(bytes, "cache.insert");
    }
  }

  void ReleaseBytes(Shard& shard, uint64_t bytes) {
    shard.bytes -= bytes;
    if (options_.memory != nullptr) options_.memory->Release(bytes);
  }

  /// Evicts least-recently-used entries until the shard fits its slice.
  /// Called with shard.mu held.
  void EvictOverflow(Shard& shard) {
    if (shard_max_bytes_ == 0) return;
    while (shard.bytes > shard_max_bytes_ && !shard.lru.empty()) {
      Entry& victim = shard.lru.back();
      ReleaseBytes(shard, victim.bytes);
      shard.map.erase(victim.key);
      shard.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
      CountOp(eviction_metric_, "olapdc.cache.evictions");
    }
  }

  void CountOp(const std::string& layer_metric, const char* aggregate) {
    if (!obs::MetricsEnabled()) return;
    obs::Count(aggregate);
    if (!layer_metric.empty()) obs::Count(layer_metric);
  }

  Options options_;
  size_t shard_mask_ = 0;
  uint64_t shard_max_bytes_ = 0;
  std::vector<Shard> shards_;
  std::string hit_metric_;
  std::string miss_metric_;
  std::string eviction_metric_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace olapdc

#endif  // OLAPDC_COMMON_CACHE_SHARD_H_
