// service/snapshot.h: the olapdc-snapshot v1 build/restore cycle, its
// per-section salvage, the reading of snapshots written before the
// no-good store was removed, and the all-or-nothing contract of the
// underlying ServiceCaches::LoadResponses parser — including the
// committed adversarial corpus in tests/data/corrupt_snapshots/
// (truncated mid-record, malformed sizes, oversized counts, wrong
// magic): every corpus file must ParseError and load *nothing*, never
// a partial warm set.

#include "service/snapshot.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "gtest/gtest.h"
#include "io/durable_file.h"
#include "obs/http_server.h"
#include "service/dim_service.h"
#include "service/schema_registry.h"
#include "service/service_caches.h"

namespace olapdc::service {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string LocationText() {
  return ReadFileOrDie(std::string(OLAPDC_SOURCE_DIR) +
                       "/data/location.olapdc");
}

/// A registry with the shipped location schema, plus a response cache
/// warmed with two responses under its epoch.
struct Fixture {
  SchemaRegistry registry;
  ServiceCaches caches;
  Fingerprint128 epoch;

  Fixture() {
    EXPECT_TRUE(registry.Register("loc", LocationText()).ok());
    epoch = registry.FindEntry("loc").epoch;
    caches.InsertResponse("check|" + epoch.ToHex() + "|loc",
                          "{\"satisfiable\": true}");
    caches.InsertResponse("check|" + epoch.ToHex() + "|loc2",
                          "{\"satisfiable\": false}");
  }
};

TEST(SnapshotTest, BuildLoadRoundTrip) {
  Fixture fix;
  uint64_t written = 0;
  const std::vector<std::string> records = BuildSnapshotRecords(
      /*seq=*/42, fix.registry, fix.caches, SnapshotOptions{}, &written);
  ASSERT_EQ(records.size(), 3u);  // meta, epochs, responses
  EXPECT_EQ(written, 2u);

  ServiceCaches fresh;
  auto restore = LoadSnapshotRecords(records, &fresh);
  ASSERT_TRUE(restore.ok()) << restore.status().message();
  EXPECT_EQ(restore->seq, 42u);
  EXPECT_EQ(restore->response_entries, 2u);
  EXPECT_TRUE(restore->loaded_epochs);
  EXPECT_TRUE(restore->loaded_responses);
  ASSERT_EQ(restore->epochs.size(), 1u);
  EXPECT_EQ(restore->epochs[0].first, "loc");
  EXPECT_EQ(restore->epochs[0].second, fix.epoch);

  EXPECT_EQ(fresh.ResponseStats().entries, 2u);
  std::string body;
  ASSERT_TRUE(fresh.LookupResponse("check|" + fix.epoch.ToHex() + "|loc",
                                   &body));
  EXPECT_EQ(body, "{\"satisfiable\": true}");
}

TEST(SnapshotTest, MetaCountsOnlyTheEntriesWritten) {
  Fixture fix;
  SnapshotOptions options;
  options.max_response_entries = 1;
  uint64_t written = 0;
  const std::vector<std::string> records = BuildSnapshotRecords(
      /*seq=*/3, fix.registry, fix.caches, options, &written);
  EXPECT_EQ(written, 1u);

  ServiceCaches fresh;
  auto restore = LoadSnapshotRecords(records, &fresh);
  ASSERT_TRUE(restore.ok());
  EXPECT_EQ(restore->response_entries, 1u);
  EXPECT_EQ(fresh.ResponseStats().entries, 1u);
}

TEST(SnapshotTest, TornTailLosesOnlyTrailingSections) {
  Fixture fix;
  std::vector<std::string> records =
      BuildSnapshotRecords(/*seq=*/7, fix.registry, fix.caches);
  // A kill -9 that tore off the responses record: the epochs still
  // restore, only the response cache starts cold.
  records.resize(2);

  ServiceCaches fresh;
  auto restore = LoadSnapshotRecords(records, &fresh);
  ASSERT_TRUE(restore.ok());
  EXPECT_TRUE(restore->loaded_epochs);
  EXPECT_FALSE(restore->loaded_responses);
  EXPECT_EQ(fresh.ResponseStats().entries, 0u);
}

/// A snapshot written by the daemon while it still kept a DIMSAT
/// no-good store: its meta record says "nogood_entries K" and it
/// carries a "section nogoods" record between the epochs and the
/// responses. The reader skips both and restores the rest, and the
/// restored responses serve hits against the same schema content.
/// The fixture holds the five answers of a daemon that served three
/// checks (Store, City, SaleRegion), one implies and one summarizable
/// on the location schema, then drained.
TEST(SnapshotTest, LegacySnapshotWithNoGoodsRestoresEpochsAndResponses) {
  constexpr uint64_t kLegacyResponses = 5;
  auto read = ReadDurableFile(std::string(OLAPDC_SOURCE_DIR) +
                              "/tests/data/snapshot_with_nogoods.olapdc");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->records.size(), 4u);
  ASSERT_EQ(read->records[0].find("nogood_entries "),
            std::string("olapdc-snapshot v1\nseq 1\n").size());
  ASSERT_EQ(read->records[2].rfind("section nogoods\n", 0), 0u);

  ServiceCaches fresh;
  auto restore = LoadSnapshotRecords(read->records, &fresh);
  ASSERT_TRUE(restore.ok()) << restore.status().ToString();
  EXPECT_EQ(restore->response_entries, 0u);
  EXPECT_TRUE(restore->loaded_epochs);
  EXPECT_TRUE(restore->loaded_responses);
  EXPECT_EQ(fresh.ResponseStats().entries, kLegacyResponses);

  SchemaRegistry registry;
  ASSERT_TRUE(registry.Register("loc", LocationText()).ok());
  ASSERT_EQ(restore->epochs.size(), 1u);
  EXPECT_EQ(restore->epochs[0].first, "loc");
  EXPECT_EQ(restore->epochs[0].second, registry.FindEntry("loc").epoch);

  DimService::Options options;
  options.registry = &registry;
  options.caches = &fresh;
  DimService service(options);
  obs::HttpRequest request;
  request.method = "POST";
  request.path = "/v1/check";
  request.body = "{\"schema\": \"loc\", \"category\": \"Store\"}";
  const obs::HttpResponse response = service.HandleRequest(request);
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("\"cached\": true"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"satisfiable\": true"), std::string::npos)
      << response.body;
}

TEST(SnapshotTest, MetaRecordIsMandatory) {
  ServiceCaches fresh;
  EXPECT_EQ(LoadSnapshotRecords({}, &fresh).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(LoadSnapshotRecords({"not a snapshot\n"}, &fresh)
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(LoadSnapshotRecords({"olapdc-snapshot v1\nseq x\n"}, &fresh)
                .status()
                .code(),
            StatusCode::kParseError);
}

TEST(SnapshotTest, MalformedIntactSectionIsSkippedNotPartiallyLoaded) {
  Fixture fix;
  std::vector<std::string> records =
      BuildSnapshotRecords(/*seq=*/7, fix.registry, fix.caches);
  // A bit flip that survived CRC framing (or a buggy writer): the
  // responses section parses its first entry, then hits a mangled size
  // line. The section is dropped whole; the epochs section still loads.
  const size_t second_entry = records[2].find("}\n") + 2;
  ASSERT_LT(second_entry, records[2].size());
  records[2][second_entry] = 'x';

  ServiceCaches fresh;
  auto restore = LoadSnapshotRecords(records, &fresh);
  ASSERT_TRUE(restore.ok());
  EXPECT_TRUE(restore->loaded_epochs);
  EXPECT_FALSE(restore->loaded_responses);
  EXPECT_EQ(fresh.ResponseStats().entries, 0u);  // all-or-nothing
}

TEST(SnapshotTest, UnknownSectionsAreForwardCompatible) {
  Fixture fix;
  std::vector<std::string> records =
      BuildSnapshotRecords(/*seq=*/7, fix.registry, fix.caches);
  records.push_back("section future-layer\nopaque bytes\n");

  ServiceCaches fresh;
  auto restore = LoadSnapshotRecords(records, &fresh);
  ASSERT_TRUE(restore.ok());
  EXPECT_TRUE(restore->loaded_epochs);
  EXPECT_TRUE(restore->loaded_responses);
}

TEST(SnapshotTest, SurvivesDurableFileTornTailEndToEnd) {
  Fixture fix;
  const std::string path = ::testing::TempDir() + "/snapshot_torn.olapdc";
  ASSERT_TRUE(
      WriteDurableFile(path,
                       BuildSnapshotRecords(/*seq=*/9, fix.registry,
                                            fix.caches))
          .ok());
  // Tear mid-way into the last record's payload, as a crash would.
  {
    std::ifstream in(path, std::ios::binary);
    std::string raw((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << raw.substr(0, raw.size() - 5);
  }
  auto read = ReadDurableFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->torn_tail_truncations, 1u);

  ServiceCaches fresh;
  auto restore = LoadSnapshotRecords(read->records, &fresh);
  ASSERT_TRUE(restore.ok());
  EXPECT_EQ(restore->seq, 9u);
  EXPECT_TRUE(restore->loaded_epochs);
  EXPECT_FALSE(restore->loaded_responses);
  EXPECT_EQ(fresh.ResponseStats().entries, 0u);
}

/// Every file in the committed corpus must be rejected with ParseError
/// and load nothing — a truncated or corrupted snapshot section can
/// never half-populate the response cache.
TEST(SnapshotTest, CorruptCorpusNeverPartiallyLoads) {
  const std::filesystem::path dir =
      std::filesystem::path(OLAPDC_SOURCE_DIR) / "tests" / "data" /
      "corrupt_snapshots";
  size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    const std::string text = ReadFileOrDie(entry.path().string());
    ServiceCaches fresh;
    const Status status = fresh.LoadResponses(text);
    EXPECT_FALSE(status.ok()) << name;
    EXPECT_EQ(status.code(), StatusCode::kParseError) << name;
    EXPECT_EQ(fresh.ResponseStats().entries, 0u) << name;
    ++checked;
  }
  // The corpus is committed; an empty directory means the test checked
  // nothing.
  EXPECT_GE(checked, 10u);
}

TEST(SnapshotTest, LoadResponsesIsAtomicUnderTruncation) {
  Fixture fix;
  const std::string full = fix.caches.SerializeResponses(/*max_entries=*/16);
  for (size_t cut = full.size() - 1; cut > full.size() - 8; --cut) {
    ServiceCaches fresh;
    EXPECT_FALSE(fresh.LoadResponses(full.substr(0, cut)).ok())
        << "cut=" << cut;
    EXPECT_EQ(fresh.ResponseStats().entries, 0u) << "cut=" << cut;
  }
  ServiceCaches fresh;
  ASSERT_TRUE(fresh.LoadResponses(full).ok());
  EXPECT_EQ(fresh.ResponseStats().entries, 2u);
}

TEST(SnapshotTest, SerializeResponsesHonorsWarmSetCap) {
  ServiceCaches caches;
  for (int i = 0; i < 10; ++i) {
    caches.InsertResponse("key" + std::to_string(i), "body");
  }
  ServiceCaches fresh;
  ASSERT_TRUE(fresh.LoadResponses(caches.SerializeResponses(3)).ok());
  EXPECT_EQ(fresh.ResponseStats().entries, 3u);
}

}  // namespace
}  // namespace olapdc::service
