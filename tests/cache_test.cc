// Tests for the cross-request cache substrate:
// common/cache_shard.h (Fingerprinter + ShardedCache), the Reasoner's
// shared AnswerCache, the SchemaRegistry epoch model that keys every
// entry, and the ServiceCaches response cache.

#include <string>
#include <vector>

#include "common/cache_shard.h"
#include "core/answer_cache.h"
#include "core/location_example.h"
#include "gtest/gtest.h"
#include "io/schema_io.h"
#include "service/schema_registry.h"
#include "service/service_caches.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

// ---------------------------------------------------------------------------
// Fingerprinter

TEST(FingerprinterTest, DistinctInputsProduceDistinctFingerprints) {
  const Fingerprint128 a = FingerprintBytes("schema-a");
  const Fingerprint128 b = FingerprintBytes("schema-b");
  EXPECT_NE(a, b);
  EXPECT_NE(a, Fingerprint128{});
  // Deterministic: the same bytes always fingerprint identically.
  EXPECT_EQ(a, FingerprintBytes("schema-a"));
}

TEST(FingerprinterTest, MixOrderAndWidthMatter) {
  // "ab" then "c" must equal "abc" (stream semantics) ...
  EXPECT_EQ(Fingerprinter().Mix("ab").Mix("c").Final(),
            FingerprintBytes("abc"));
  // ... while mixing the same bits as an integer is a different stream
  // position and must not collide with the text form.
  EXPECT_NE(Fingerprinter().Mix(uint64_t{0x616263}).Final(),
            FingerprintBytes("abc"));
}

TEST(FingerprinterTest, ToHexIsStableAndInvertiblyOrdered) {
  const Fingerprint128 fp = FingerprintBytes("epoch");
  const std::string hex = fp.ToHex();
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(hex, fp.ToHex());
  EXPECT_NE(hex, FingerprintBytes("hcope").ToHex());
}

// ---------------------------------------------------------------------------
// ShardedCache

using StringCache = ShardedCache<std::string, std::string>;

StringCache::Options SingleShard(uint64_t max_bytes) {
  StringCache::Options options;
  options.name = "";  // keep test runs out of the metric families
  options.num_shards = 1;
  options.max_bytes = max_bytes;
  options.entry_overhead_bytes = 0;  // byte math exact in tests
  return options;
}

TEST(ShardedCacheTest, MissThenHitThenClear) {
  StringCache cache(SingleShard(1 << 20));
  std::string out;
  EXPECT_FALSE(cache.Lookup("k", &out));
  cache.Insert("k", "v", 1);
  ASSERT_TRUE(cache.Lookup("k", &out));
  EXPECT_EQ(out, "v");
  cache.Clear();
  EXPECT_FALSE(cache.Lookup("k", &out));
  const CacheStatsSnapshot stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(ShardedCacheTest, ByteCapEvictsLeastRecentlyUsedFirst) {
  // Capacity for exactly three 10-byte entries.
  StringCache cache(SingleShard(30));
  cache.Insert("a", "1", 10);
  cache.Insert("b", "2", 10);
  cache.Insert("c", "3", 10);
  // Touch "a" so "b" becomes the LRU victim.
  ASSERT_TRUE(cache.Lookup("a", nullptr));
  cache.Insert("d", "4", 10);
  EXPECT_TRUE(cache.Lookup("a", nullptr));
  EXPECT_FALSE(cache.Lookup("b", nullptr));
  EXPECT_TRUE(cache.Lookup("c", nullptr));
  EXPECT_TRUE(cache.Lookup("d", nullptr));
  EXPECT_EQ(cache.Stats().evictions, 1u);
}

TEST(ShardedCacheTest, EntryLargerThanTheSliceIsNotAdmitted) {
  StringCache cache(SingleShard(30));
  cache.Insert("huge", "x", 64);
  EXPECT_FALSE(cache.Lookup("huge", nullptr));
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST(ShardedCacheTest, RefreshingAKeyRechargesItsBytes) {
  StringCache cache(SingleShard(100));
  cache.Insert("k", "small", 10);
  cache.Insert("k", "bigger", 40);
  const CacheStatsSnapshot stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 40u);
  std::string out;
  ASSERT_TRUE(cache.Lookup("k", &out));
  EXPECT_EQ(out, "bigger");
}

TEST(ShardedCacheTest, ZeroMaxBytesMeansUncapped) {
  StringCache cache(SingleShard(0));
  for (int i = 0; i < 1000; ++i) {
    cache.Insert("k" + std::to_string(i), "v", 1 << 16);
  }
  EXPECT_EQ(cache.Stats().entries, 1000u);
  EXPECT_EQ(cache.Stats().evictions, 0u);
}

TEST(ShardedCacheTest, TrackOnlyBudgetObservesResidency) {
  // A limit-0 budget never rejects; the cache charges and releases
  // through it so residency is visible without enforcement.
  MemoryBudget budget(0);
  StringCache::Options options = SingleShard(1 << 20);
  options.memory = &budget;
  StringCache cache(options);
  cache.Insert("k", "v", 100);
  EXPECT_EQ(budget.reserved(), 100u);
  cache.Clear();
  EXPECT_EQ(budget.reserved(), 0u);
}

// ---------------------------------------------------------------------------
// AnswerCache

TEST(AnswerCacheTest, VerdictRoundTripBothWays) {
  AnswerCache cache;
  bool yes = false;
  EXPECT_FALSE(cache.Lookup("e00/s/3", &yes));
  cache.Insert("e00/s/3", true);
  cache.Insert("e00/i/3:Store/City", false);
  ASSERT_TRUE(cache.Lookup("e00/s/3", &yes));
  EXPECT_TRUE(yes);
  ASSERT_TRUE(cache.Lookup("e00/i/3:Store/City", &yes));
  EXPECT_FALSE(yes);
  EXPECT_EQ(cache.size(), 2u);
}

// ---------------------------------------------------------------------------
// SchemaRegistry epochs

std::string LocationText() {
  Result<DimensionSchema> loc = LocationSchema();
  EXPECT_TRUE(loc.ok());
  return SerializeSchema(*loc);
}

TEST(SchemaRegistryEpochTest, EpochIsContentAddressed) {
  service::SchemaRegistry registry;
  ASSERT_TRUE(registry.Register("s", LocationText()).ok());
  const service::SchemaRegistry::Snapshot first = registry.FindEntry("s");
  ASSERT_NE(first.schema, nullptr);
  EXPECT_NE(first.epoch, Fingerprint128{});

  // Re-registering byte-identical content keeps the epoch (caches stay
  // warm) and is not an invalidation.
  ASSERT_TRUE(registry.Register("s", LocationText()).ok());
  const service::SchemaRegistry::Snapshot same = registry.FindEntry("s");
  EXPECT_EQ(same.epoch, first.epoch);
  EXPECT_EQ(registry.invalidations(), 0u);

  // Different content bumps the epoch and counts the invalidation.
  SchemaGenOptions gen;
  gen.seed = 7;
  auto hierarchy = GenerateLayeredHierarchy(gen);
  ASSERT_TRUE(hierarchy.ok());
  auto generated = GenerateConstrainedSchema(*hierarchy, {});
  ASSERT_TRUE(generated.ok());
  registry.RegisterParsed("s", std::move(*generated));
  const service::SchemaRegistry::Snapshot replaced = registry.FindEntry("s");
  EXPECT_NE(replaced.epoch, first.epoch);
  EXPECT_EQ(registry.invalidations(), 1u);

  // A name never registered has a null schema and the zero epoch.
  const service::SchemaRegistry::Snapshot missing = registry.FindEntry("no");
  EXPECT_EQ(missing.schema, nullptr);
  EXPECT_EQ(missing.epoch, Fingerprint128{});
}

// ---------------------------------------------------------------------------
// ServiceCaches

TEST(ServiceCachesTest, TinyBudgetEvictsButKeepsAdmitting) {
  service::ServiceCaches::Options options;
  options.memory_budget_bytes = 8 << 10;
  options.num_shards = 1;
  service::ServiceCaches caches(options);
  const std::string body(256, 'x');
  for (int i = 0; i < 200; ++i) {
    caches.InsertResponse("check/e1/s/" + std::to_string(i), body);
  }
  EXPECT_GT(caches.ResponseStats().evictions, 0u);
  // The cache still admits after sustained pressure: the most recent
  // insert is resident.
  std::string out;
  EXPECT_TRUE(caches.LookupResponse("check/e1/s/199", &out));
}

}  // namespace
}  // namespace olapdc
