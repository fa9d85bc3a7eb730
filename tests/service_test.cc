// Tests for src/service — the olapdcd request plane (DimService +
// SchemaRegistry) and its hostile-client defenses on the HttpServer
// transport: pipelined requests, truncated POST bodies,
// Content-Length mismatches, oversized JSON, UTF-8 garbage schema
// names. Every hostile shape must be a clean 4xx with a counted
// metric — never a crash, never a 200.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "constraint/parser.h"
#include "core/dimsat.h"
#include "core/implication.h"
#include "core/location_example.h"
#include "core/summarizability.h"
#include "exec/admission.h"
#include "gtest/gtest.h"
#include "io/schema_io.h"
#include "obs/http_server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "service/dim_service.h"
#include "service/schema_registry.h"
#include "service/service_caches.h"
#include "workload/schema_generator.h"

namespace olapdc::service {
namespace {

using obs::HttpRequest;
using obs::HttpResponse;

HttpRequest Post(const std::string& path, const std::string& body) {
  HttpRequest request;
  request.method = "POST";
  request.path = path;
  request.body = body;
  return request;
}

std::string LocationSchemaText() {
  Result<DimensionSchema> loc = LocationSchema();
  EXPECT_TRUE(loc.ok());
  return SerializeSchema(*loc);
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::Global().Enable();
    ASSERT_TRUE(registry_.Register("loc", LocationSchemaText()).ok());
    options_.registry = &registry_;
    options_.max_threads = 2;
  }

  static uint64_t Counter(const std::string& name) {
    return obs::MetricsRegistry::Global().Snapshot().counter(name);
  }

  SchemaRegistry registry_;
  DimService::Options options_;
};

// ---------------------------------------------------------------------------
// The request plane, transport-free (HandleRequest directly).

TEST_F(ServiceTest, CheckAnswersDefinitivelyOnLocationExample) {
  DimService service(options_);
  HttpResponse response = service.HandleRequest(
      Post("/v1/check", "{\"schema\": \"loc\", \"category\": \"Store\"}"));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"definitive\": true"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"satisfiable\": "), std::string::npos);
  EXPECT_NE(response.body.find("\"expand_calls\": "), std::string::npos);
  EXPECT_EQ(service.ok(), 1u);
  EXPECT_EQ(service.requests(), 1u);
}

TEST_F(ServiceTest, ImpliesAndSummarizableAndBatchAnswer) {
  DimService service(options_);
  HttpResponse implies = service.HandleRequest(Post(
      "/v1/implies",
      "{\"schema\": \"loc\", \"constraint\": \"Store/City\"}"));
  EXPECT_EQ(implies.status, 200);
  EXPECT_NE(implies.body.find("\"implied\": "), std::string::npos)
      << implies.body;

  HttpResponse summarizable = service.HandleRequest(Post(
      "/v1/summarizable",
      "{\"schema\": \"loc\", \"category\": \"Country\", "
      "\"sources\": [\"Store\"]}"));
  EXPECT_EQ(summarizable.status, 200);
  EXPECT_NE(summarizable.body.find("\"summarizable\": "), std::string::npos)
      << summarizable.body;

  HttpResponse batch = service.HandleRequest(Post(
      "/v1/batch",
      "{\"requests\": [{\"op\": \"check\", \"schema\": \"loc\", "
      "\"category\": \"Store\"}, {\"op\": \"implies\", \"schema\": "
      "\"loc\", \"constraint\": \"Store/City\"}]}"));
  EXPECT_EQ(batch.status, 200);
  EXPECT_NE(batch.body.find("\"count\": 2"), std::string::npos) << batch.body;
  EXPECT_EQ(service.requests(), service.ok());
}

TEST_F(ServiceTest, UnknownSchemaIs404AndUnknownPathIs404) {
  DimService service(options_);
  HttpResponse unknown_schema = service.HandleRequest(
      Post("/v1/check", "{\"schema\": \"nope\", \"category\": \"X\"}"));
  EXPECT_EQ(unknown_schema.status, 404);
  EXPECT_NE(unknown_schema.body.find("Not found"), std::string::npos)
      << unknown_schema.body;

  HttpResponse unknown_path = service.HandleRequest(Post("/v1/zap", "{}"));
  EXPECT_EQ(unknown_path.status, 404);
  EXPECT_EQ(service.errors(), 2u);
}

TEST_F(ServiceTest, NonPostIs405) {
  DimService service(options_);
  HttpRequest get;
  get.method = "GET";
  get.path = "/v1/check";
  EXPECT_EQ(service.HandleRequest(get).status, 405);
}

TEST_F(ServiceTest, MalformedJsonIs400WithLineColumnAndCountedMetric) {
  DimService service(options_);
  const uint64_t before = Counter("olapdc.service.bad_json");
  HttpResponse response =
      service.HandleRequest(Post("/v1/check", "{\"schema\": "));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("line 1:"), std::string::npos) << response.body;
  EXPECT_EQ(Counter("olapdc.service.bad_json"), before + 1);

  // A non-object body is rejected before any field lookup.
  EXPECT_EQ(service.HandleRequest(Post("/v1/check", "[1, 2]")).status, 400);
  EXPECT_EQ(service.errors(), 2u);
}

TEST_F(ServiceTest, MistypedFieldIs400NamingTheField) {
  DimService service(options_);
  HttpResponse response = service.HandleRequest(Post(
      "/v1/check",
      "{\"schema\": \"loc\", \"category\": \"Store\", "
      "\"deadline_ms\": \"soon\"}"));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("deadline_ms"), std::string::npos)
      << response.body;
}

TEST_F(ServiceTest, Utf8GarbageSchemaNamesAre400NeverCrash) {
  DimService service(options_);
  const std::string hostile_names[] = {
      std::string("\xFF\xFE"),     // invalid lead bytes
      std::string("\xC0\xAF"),     // overlong encoding
      std::string("\x80garbled"),  // stray continuation byte
      std::string("trunc\xC3"),    // truncated multibyte sequence
      std::string(200, 'a'),       // over the 128-byte length cap
  };
  for (const std::string& name : hostile_names) {
    // The raw bytes travel inside the JSON string literal unescaped —
    // exactly what a hostile client would send.
    HttpResponse response = service.HandleRequest(Post(
        "/v1/check",
        "{\"schema\": \"" + name + "\", \"category\": \"Store\"}"));
    EXPECT_EQ(response.status, 400) << "name bytes: " << name;
    EXPECT_NE(response.body.find("\"code\": "), std::string::npos)
        << response.body;
  }
  // Valid multibyte UTF-8 is a legal name.
  ASSERT_TRUE(registry_.Register("sch\xC3\xA9ma", LocationSchemaText()).ok());
  HttpResponse ok = service.HandleRequest(Post(
      "/v1/check",
      "{\"schema\": \"sch\xC3\xA9ma\", \"category\": \"Store\"}"));
  EXPECT_EQ(ok.status, 200) << ok.body;
}

TEST_F(ServiceTest, AdmissionShedIs503WithRetryAfterHeader) {
  exec::AdmissionGate gate(exec::AdmissionGate::Options{1, 50});
  options_.gate = &gate;
  DimService service(options_);
  // Hold the only slot so the service's ticket is shed.
  ASSERT_TRUE(gate.TryAdmit().ok());
  HttpResponse response = service.HandleRequest(
      Post("/v1/check", "{\"schema\": \"loc\", \"category\": \"Store\"}"));
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("retry-after-ms="), std::string::npos)
      << response.body;
  bool has_retry_after = false;
  for (const auto& [key, value] : response.headers) {
    if (key == "Retry-After") {
      has_retry_after = true;
      EXPECT_GE(std::stoll(value), 1);
    }
  }
  EXPECT_TRUE(has_retry_after);
  EXPECT_EQ(service.shed(), 1u);
  gate.Release();

  // With the slot free the same request is admitted and succeeds.
  EXPECT_EQ(service
                .HandleRequest(Post("/v1/check",
                                    "{\"schema\": \"loc\", \"category\": "
                                    "\"Store\"}"))
                .status,
            200);
  EXPECT_EQ(service.requests(), service.ok() + service.shed());
}

TEST_F(ServiceTest, DrainShedsNewRequests) {
  exec::AdmissionGate gate;
  options_.gate = &gate;
  DimService service(options_);
  service.BeginDrain();
  EXPECT_TRUE(service.draining());
  HttpResponse response = service.HandleRequest(
      Post("/v1/check", "{\"schema\": \"loc\", \"category\": \"Store\"}"));
  EXPECT_EQ(response.status, 503);
  EXPECT_EQ(service.shed(), 1u);
}

// Pulls the value of a JSON string field out of a rendered response
// body and undoes obs::JsonEscape (checkpoints serialize to printable
// ASCII + newlines, so the n/r/t escapes cover it).
std::string ExtractStringField(const std::string& body,
                               const std::string& field) {
  const std::string key = "\"" + field + "\": \"";
  const size_t start = body.find(key);
  if (start == std::string::npos) return "";
  std::string out;
  size_t i = start + key.size();
  while (i < body.size() && body[i] != '"') {
    if (body[i] == '\\' && i + 1 < body.size()) {
      ++i;
      switch (body[i]) {
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        default: out += body[i];
      }
    } else {
      out += body[i];
    }
    ++i;
  }
  return out;
}

TEST_F(ServiceTest, TinyDeadlineDegradesWithCheckpointAndResumesToTruth) {
  // A workload big enough that a 1ms deadline genuinely interrupts the
  // search on most machines. Either outcome of one hop is legitimate;
  // when interrupted, the response must carry a resumable checkpoint
  // and the resume chain must converge to the unbudgeted answer.
  SchemaGenOptions gen;
  gen.num_levels = 5;
  gen.categories_per_level = 4;
  gen.extra_edge_prob = 0.4;
  gen.seed = 1234;
  auto hierarchy = GenerateLayeredHierarchy(gen);
  ASSERT_TRUE(hierarchy.ok());
  ConstraintGenOptions cgen;
  cgen.into_fraction = 0.4;
  cgen.num_choice_constraints = 2;
  cgen.seed = 99;
  auto schema = GenerateConstrainedSchema(*hierarchy, cgen);
  ASSERT_TRUE(schema.ok());
  registry_.RegisterParsed("big", std::move(*schema));

  DimService service(options_);
  // Ground truth with an effectively unbounded budget.
  HttpResponse truth = service.HandleRequest(Post(
      "/v1/check",
      "{\"schema\": \"big\", \"category\": \"Base\", "
      "\"deadline_ms\": 30000}"));
  ASSERT_EQ(truth.status, 200) << truth.body;
  ASSERT_NE(truth.body.find("\"definitive\": true"), std::string::npos)
      << truth.body;
  const bool truth_satisfiable =
      truth.body.find("\"satisfiable\": true") != std::string::npos;

  std::string body =
      "{\"schema\": \"big\", \"category\": \"Base\", \"deadline_ms\": 1}";
  for (int hop = 0; hop < 512; ++hop) {
    HttpResponse response = service.HandleRequest(Post("/v1/check", body));
    ASSERT_EQ(response.status, 200) << response.body;
    if (response.body.find("\"definitive\": true") != std::string::npos) {
      EXPECT_EQ(
          response.body.find("\"satisfiable\": true") != std::string::npos,
          truth_satisfiable)
          << response.body;
      return;
    }
    ASSERT_NE(response.body.find("\"definitive\": false"), std::string::npos);
    const std::string checkpoint =
        ExtractStringField(response.body, "checkpoint");
    if (checkpoint.empty()) {
      continue;  // expired before any frontier existed; try again
    }
    // Give resume hops a workable deadline so the chain terminates.
    body = "{\"schema\": \"big\", \"category\": \"Base\", "
           "\"deadline_ms\": 500, \"resume\": " +
           obs::JsonString(checkpoint) + "}";
  }
  FAIL() << "resume chain did not converge in 512 hops";
}

TEST_F(ServiceTest, RegisterEndpointRoundTripsAndHonorsDisable) {
  DimService service(options_);
  HttpResponse registered = service.HandleRequest(Post(
      "/v1/schemas", "{\"name\": \"copy\", \"text\": " +
                         obs::JsonString(LocationSchemaText()) + "}"));
  EXPECT_EQ(registered.status, 200) << registered.body;
  EXPECT_NE(registered.body.find("\"categories\": "), std::string::npos);
  EXPECT_NE(registry_.Find("copy"), nullptr);

  // A bad schema text must not disturb the existing entry.
  auto before = registry_.Find("copy");
  HttpResponse bad = service.HandleRequest(Post(
      "/v1/schemas", "{\"name\": \"copy\", \"text\": \"category \"}"));
  EXPECT_EQ(bad.status, 400) << bad.body;
  EXPECT_EQ(registry_.Find("copy"), before);

  options_.allow_register = false;
  DimService frozen(options_);
  HttpResponse denied = frozen.HandleRequest(Post(
      "/v1/schemas", "{\"name\": \"x\", \"text\": \"\"}"));
  EXPECT_EQ(denied.status, 400);
  EXPECT_NE(denied.body.find("disabled"), std::string::npos) << denied.body;
}

TEST_F(ServiceTest, BatchCapsFanOutAndEmbedsPerItemErrors) {
  options_.max_batch = 2;
  DimService service(options_);
  HttpResponse overflow = service.HandleRequest(Post(
      "/v1/batch",
      "{\"requests\": [{\"op\": \"check\"}, {\"op\": \"check\"}, "
      "{\"op\": \"check\"}]}"));
  EXPECT_EQ(overflow.status, 400) << overflow.body;

  HttpResponse mixed = service.HandleRequest(Post(
      "/v1/batch",
      "{\"requests\": [{\"op\": \"check\", \"schema\": \"loc\", "
      "\"category\": \"Store\"}, {\"op\": \"check\", \"schema\": "
      "\"nope\", \"category\": \"X\"}]}"));
  EXPECT_EQ(mixed.status, 200);
  EXPECT_NE(mixed.body.find("\"http_status\": 404"), std::string::npos)
      << mixed.body;
}

// ---------------------------------------------------------------------------
// The cross-request cache plane (ServiceCaches wired into DimService).

TEST_F(ServiceTest, CacheHitAfterMissServesMarkedResponse) {
  ServiceCaches caches;
  options_.caches = &caches;
  DimService service(options_);
  const std::string body = "{\"schema\": \"loc\", \"category\": \"Store\"}";

  HttpResponse cold = service.HandleRequest(Post("/v1/check", body));
  ASSERT_EQ(cold.status, 200) << cold.body;
  EXPECT_EQ(cold.body.find("\"cached\""), std::string::npos) << cold.body;
  const bool truth =
      cold.body.find("\"satisfiable\": true") != std::string::npos;

  const uint64_t served_before = Counter("olapdc.service.cache_served");
  HttpResponse warm = service.HandleRequest(Post("/v1/check", body));
  ASSERT_EQ(warm.status, 200);
  EXPECT_NE(warm.body.find("\"cached\": true"), std::string::npos)
      << warm.body;
  EXPECT_NE(warm.body.find("\"cache_layer\": \"response\""),
            std::string::npos)
      << warm.body;
  EXPECT_EQ(warm.body.find("\"satisfiable\": true") != std::string::npos,
            truth);
  EXPECT_EQ(Counter("olapdc.service.cache_served"), served_before + 1);

  // The other two ops memoize the same way.
  const std::string implies =
      "{\"schema\": \"loc\", \"constraint\": \"Store/City\"}";
  HttpResponse implies_cold = service.HandleRequest(Post("/v1/implies", implies));
  ASSERT_EQ(implies_cold.status, 200) << implies_cold.body;
  HttpResponse implies_warm = service.HandleRequest(Post("/v1/implies", implies));
  EXPECT_NE(implies_warm.body.find("\"cached\": true"), std::string::npos)
      << implies_warm.body;

  const std::string summarizable =
      "{\"schema\": \"loc\", \"category\": \"City\", \"sources\": []}";
  HttpResponse sum_cold =
      service.HandleRequest(Post("/v1/summarizable", summarizable));
  ASSERT_EQ(sum_cold.status, 200) << sum_cold.body;
  HttpResponse sum_warm =
      service.HandleRequest(Post("/v1/summarizable", summarizable));
  EXPECT_NE(sum_warm.body.find("\"cached\": true"), std::string::npos)
      << sum_warm.body;
}

TEST_F(ServiceTest, EpochBumpInvalidatesEveryCacheLayer) {
  ServiceCaches caches;
  options_.caches = &caches;
  DimService service(options_);
  const std::string body = "{\"schema\": \"loc\", \"category\": \"Store\"}";

  // Warm all layers for the current epoch.
  ASSERT_EQ(service.HandleRequest(Post("/v1/check", body)).status, 200);
  HttpResponse warm = service.HandleRequest(Post("/v1/check", body));
  ASSERT_NE(warm.body.find("\"cached\": true"), std::string::npos);

  // Replace "loc" with a *different* theory (one extra constraint):
  // the content epoch changes, so every cached answer for the old
  // theory is logically gone in the same instant.
  Result<DimensionSchema> loc = LocationSchema();
  ASSERT_TRUE(loc.ok());
  auto extra = ParseConstraint(loc->hierarchy(), "Store/SaleRegion");
  ASSERT_TRUE(extra.ok()) << extra.status().ToString();
  registry_.RegisterParsed("loc", loc->WithExtraConstraint(*extra));
  EXPECT_EQ(registry_.invalidations(), 1u);

  HttpResponse fresh = service.HandleRequest(Post("/v1/check", body));
  ASSERT_EQ(fresh.status, 200) << fresh.body;
  EXPECT_EQ(fresh.body.find("\"cached\""), std::string::npos)
      << "served a stale epoch: " << fresh.body;
  // The recompute ran the engine (no closure short-circuit either).
  EXPECT_EQ(fresh.body.find("\"expand_calls\": 0"), std::string::npos)
      << fresh.body;

  // Restoring byte-identical content restores the *original* epoch —
  // and with it every cached answer learned under it.
  Result<DimensionSchema> restored = LocationSchema();
  ASSERT_TRUE(restored.ok());
  registry_.RegisterParsed("loc", std::move(*restored));
  HttpResponse back = service.HandleRequest(Post("/v1/check", body));
  ASSERT_EQ(back.status, 200);
  EXPECT_NE(back.body.find("\"cached\": true"), std::string::npos)
      << back.body;
}

TEST_F(ServiceTest, TinyCacheBudgetEvictsButNeverChangesAnswers) {
  // Truth from an uncached service.
  DimService uncached(options_);
  ServiceCaches::Options tiny;
  tiny.memory_budget_bytes = 4 << 10;  // a few responses at most
  tiny.num_shards = 1;
  ServiceCaches caches(tiny);
  options_.caches = &caches;
  DimService service(options_);

  Result<DimensionSchema> loc = LocationSchema();
  ASSERT_TRUE(loc.ok());
  const HierarchySchema& hierarchy = loc->hierarchy();
  for (int pass = 0; pass < 3; ++pass) {
    for (CategoryId c = 0; c < hierarchy.num_categories(); ++c) {
      if (c == hierarchy.all()) continue;
      const std::string body =
          "{\"schema\": \"loc\", \"category\": " +
          obs::JsonString(hierarchy.CategoryName(c)) + "}";
      HttpResponse truth = uncached.HandleRequest(Post("/v1/check", body));
      HttpResponse cached = service.HandleRequest(Post("/v1/check", body));
      ASSERT_EQ(truth.status, 200);
      ASSERT_EQ(cached.status, 200);
      EXPECT_EQ(
          cached.body.find("\"satisfiable\": true") != std::string::npos,
          truth.body.find("\"satisfiable\": true") != std::string::npos)
          << "category " << hierarchy.CategoryName(c) << " pass " << pass;
    }
  }
}

/// The seeded corpus of the DIMSAT equivalence tests: layered schemas
/// (one connected search) and, every third seed, multi-component ones
/// (the shape decomposition splits).
DimensionSchema EquivalenceCorpusSchema(int seed) {
  if (seed % 3 == 0) {
    MultiComponentGenOptions options;
    options.num_components = 3;
    options.levels_per_component = 2;
    options.categories_per_level = 3;
    options.seed = static_cast<uint64_t>(seed) * 613 + 7;
    Result<DimensionSchema> ds = GenerateMultiComponentSchema(options);
    OLAPDC_CHECK(ds.ok()) << ds.status().ToString();
    return *std::move(ds);
  }
  SchemaGenOptions schema_options;
  schema_options.num_levels = 3;
  schema_options.categories_per_level = 2;
  schema_options.extra_edge_prob = 0.3;
  schema_options.seed = static_cast<uint64_t>(seed) * 911 + 3;
  auto hierarchy = GenerateLayeredHierarchy(schema_options);
  OLAPDC_CHECK(hierarchy.ok()) << hierarchy.status().ToString();
  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = 0.4;
  constraint_options.num_choice_constraints = 1;
  constraint_options.num_equality_constraints = 1;
  constraint_options.seed = seed;
  Result<DimensionSchema> ds =
      GenerateConstrainedSchema(*hierarchy, constraint_options);
  OLAPDC_CHECK(ds.ok()) << ds.status().ToString();
  return *std::move(ds);
}

/// The verdict a definitive 200 response carries in `field`; nullopt
/// for anything else.
std::optional<bool> Verdict(const HttpResponse& response,
                            const std::string& field) {
  if (response.status != 200 ||
      response.body.find("\"definitive\": true") == std::string::npos) {
    return std::nullopt;
  }
  if (response.body.find("\"" + field + "\": true") != std::string::npos) {
    return true;
  }
  if (response.body.find("\"" + field + "\": false") != std::string::npos) {
    return false;
  }
  return std::nullopt;
}

// The service runs the default search (component decomposition and
// most-constrained-first branching). Over the seeded corpus its check,
// implies and summarizable verdicts must equal the monolithic id-order
// search's, run in-process — cold (no caches), and through the cache
// plane both on the first ask and on the cache-served repeat.
TEST_F(ServiceTest, DefaultEngineAgreesWithMonolithicIdOrderSearch) {
  DimService cold(options_);
  ServiceCaches caches(ServiceCaches::Options{});
  DimService::Options cached_options = options_;
  cached_options.caches = &caches;
  DimService cached(cached_options);
  DimsatOptions baseline;
  baseline.decompose = false;
  baseline.branch_heuristic = false;

  const uint64_t decomposed_before = Counter("olapdc.dimsat.decomposed_runs");
  int questions = 0;
  auto expect_agree = [&](const std::string& path, const std::string& body,
                          const std::string& field, bool truth) {
    ++questions;
    EXPECT_EQ(Verdict(cold.HandleRequest(Post(path, body)), field), truth)
        << "cold " << path << " " << body;
    for (const char* ask : {"first", "repeat"}) {
      EXPECT_EQ(Verdict(cached.HandleRequest(Post(path, body)), field), truth)
          << "cached (" << ask << ") " << path << " " << body;
    }
  };

  for (int seed = 0; seed < 24; ++seed) {
    const DimensionSchema ds = EquivalenceCorpusSchema(seed);
    const HierarchySchema& h = ds.hierarchy();
    const std::string name = "corpus" + std::to_string(seed);
    registry_.RegisterParsed(name, ds);
    const std::string schema_field =
        "{\"schema\": " + obs::JsonString(name) + ", ";
    for (CategoryId c = 0; c < h.num_categories(); ++c) {
      if (c == h.all()) continue;
      const std::string category = obs::JsonString(h.CategoryName(c));

      expect_agree("/v1/check",
                   schema_field + "\"category\": " + category + "}",
                   "satisfiable", Dimsat(ds, c, baseline).satisfiable);

      // Implies: every edge as a path atom, every non-adjacent ancestor
      // as a composed atom.
      for (CategoryId a = 0; a < h.num_categories(); ++a) {
        if (a == c || a == h.all() || !h.Reaches(c, a)) continue;
        const std::string text = h.CategoryName(c) +
                                 (h.HasEdge(c, a) ? "/" : ".") +
                                 h.CategoryName(a);
        Result<DimensionConstraint> alpha = ParseConstraint(h, text);
        ASSERT_TRUE(alpha.ok()) << text;
        Result<ImplicationResult> truth = Implies(ds, *alpha, baseline);
        ASSERT_TRUE(truth.ok()) << text;
        expect_agree("/v1/implies",
                     schema_field + "\"constraint\": " +
                         obs::JsonString(text) + "}",
                     "implied", truth->implied);
      }

      // Summarizable from all direct children.
      const std::vector<int>& children = h.graph().InNeighbors(c);
      if (children.empty()) continue;
      std::string sources;
      for (int child : children) {
        sources += (sources.empty() ? "" : ", ") +
                   obs::JsonString(h.CategoryName(child));
      }
      Result<SummarizabilityResult> truth = IsSummarizable(
          ds, c, std::vector<CategoryId>(children.begin(), children.end()),
          baseline);
      ASSERT_TRUE(truth.ok());
      expect_agree("/v1/summarizable",
                   schema_field + "\"category\": " + category +
                       ", \"sources\": [" + sources + "]}",
                   "summarizable", truth->summarizable);
    }
  }
  EXPECT_GT(questions, 500);
  // The corpus actually drives the decomposed search through the service.
  EXPECT_GT(Counter("olapdc.dimsat.decomposed_runs"), decomposed_before);
}

TEST_F(ServiceTest, ResumeRequestsBypassTheCacheReadPath) {
  SchemaGenOptions gen;
  gen.num_levels = 5;
  gen.categories_per_level = 4;
  gen.extra_edge_prob = 0.4;
  gen.seed = 1234;
  auto hierarchy = GenerateLayeredHierarchy(gen);
  ASSERT_TRUE(hierarchy.ok());
  ConstraintGenOptions cgen;
  cgen.into_fraction = 0.4;
  cgen.num_choice_constraints = 2;
  cgen.seed = 99;
  auto schema = GenerateConstrainedSchema(*hierarchy, cgen);
  ASSERT_TRUE(schema.ok());
  registry_.RegisterParsed("big", std::move(*schema));

  ServiceCaches caches;
  options_.caches = &caches;
  DimService service(options_);

  std::string body =
      "{\"schema\": \"big\", \"category\": \"Base\", \"deadline_ms\": 1}";
  bool saw_resume = false;
  for (int hop = 0; hop < 512; ++hop) {
    HttpResponse response = service.HandleRequest(Post("/v1/check", body));
    ASSERT_EQ(response.status, 200) << response.body;
    // Neither a degraded answer nor a resumed one may come from (or
    // land in) the response cache: only definitive first-shot answers
    // are memoized.
    EXPECT_EQ(response.body.find("\"cached\""), std::string::npos)
        << response.body;
    if (response.body.find("\"definitive\": true") != std::string::npos) {
      // On most machines the 1ms first hop was interrupted and the
      // chain went through >= 1 resume; a machine fast enough to finish
      // inside the deadline legitimately never exercises the bypass.
      (void)saw_resume;
      return;
    }
    const std::string checkpoint =
        ExtractStringField(response.body, "checkpoint");
    if (checkpoint.empty()) continue;
    saw_resume = true;
    body = "{\"schema\": \"big\", \"category\": \"Base\", "
           "\"deadline_ms\": 500, \"resume\": " +
           obs::JsonString(checkpoint) + "}";
  }
  FAIL() << "resume chain did not converge in 512 hops";
}

TEST_F(ServiceTest, ChaosMidCacheFillNeverCachesFailures) {
  ServiceCaches caches;
  options_.caches = &caches;
  DimService service(options_);
  const std::string body = "{\"schema\": \"loc\", \"category\": \"Store\"}";
  {
    ScopedFaultInjection guard(/*seed=*/77);
    FaultInjector::Global().SetFault("dimsat.expand", StatusCode::kInternal,
                                     1.0, "injected mid-fill bug");
    HttpResponse failed = service.HandleRequest(Post("/v1/check", body));
    EXPECT_EQ(failed.status, 500) << failed.body;
  }
  // The failure must not have populated any layer: the first fault-free
  // request recomputes, the second is the real first hit.
  HttpResponse recomputed = service.HandleRequest(Post("/v1/check", body));
  ASSERT_EQ(recomputed.status, 200) << recomputed.body;
  EXPECT_EQ(recomputed.body.find("\"cached\""), std::string::npos)
      << recomputed.body;
  HttpResponse warm = service.HandleRequest(Post("/v1/check", body));
  ASSERT_EQ(warm.status, 200);
  EXPECT_NE(warm.body.find("\"cached\": true"), std::string::npos)
      << warm.body;
}

// ---------------------------------------------------------------------------
// The transport: hostile parsing edges over a real loopback socket.

/// Sends raw bytes and collects everything the server writes back
/// until it closes (or `linger_ms` of quiet).
std::string RawExchange(int port, const std::string& bytes,
                        bool half_close = true, int linger_ms = 5000) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  if (half_close) ::shutdown(fd, SHUT_WR);
  timeval tv{linger_ms / 1000, (linger_ms % 1000) * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

class ServiceTransportTest : public ServiceTest {
 protected:
  void StartServer(obs::HttpServer::Options overrides = {}) {
    service_.emplace(options_);
    overrides.handler = [this](const HttpRequest& request) {
      return service_->HandleRequest(request);
    };
    ASSERT_TRUE(server_.Start(overrides)) << server_.last_error();
  }

  void TearDown() override { server_.Stop(); }

  static std::string FramedPost(const std::string& path,
                                const std::string& body) {
    return "POST " + path + " HTTP/1.1\r\nHost: x\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
  }

  std::optional<DimService> service_;
  obs::HttpServer server_;
};

TEST_F(ServiceTransportTest, PipelinedRequestsAllServedInOrder) {
  StartServer();
  const std::string one = FramedPost(
      "/v1/check", "{\"schema\": \"loc\", \"category\": \"Store\"}");
  const std::string two = FramedPost(
      "/v1/implies", "{\"schema\": \"loc\", \"constraint\": \"Store/City\"}");
  const std::string response = RawExchange(server_.port(), one + two);
  // Two complete responses on one connection, in request order.
  const size_t first = response.find("HTTP/1.1 200");
  ASSERT_NE(first, std::string::npos) << response;
  ASSERT_NE(response.find("HTTP/1.1 200", first + 1), std::string::npos)
      << response;
  EXPECT_LT(response.find("\"satisfiable\""), response.find("\"implied\""))
      << response;
  EXPECT_EQ(service_->requests(), 2u);
}

TEST_F(ServiceTransportTest, TruncatedPostBodyIs400AndCounted) {
  StartServer();
  const uint64_t before = Counter("olapdc.http.bad_requests");
  // Promise 100 bytes, deliver 9, half-close: the server must answer
  // 400 (truncated request), count it, and survive.
  const std::string response = RawExchange(
      server_.port(),
      "POST /v1/check HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n"
      "{\"trunc\":");
  EXPECT_NE(response.find("400"), std::string::npos) << response;
  EXPECT_GE(Counter("olapdc.http.bad_requests"), before + 1);
  EXPECT_EQ(service_->requests(), 0u);  // never reached the handler
}

TEST_F(ServiceTransportTest, ContentLengthMismatchFailsCleanly) {
  StartServer();
  // Content-Length smaller than the bytes actually sent: the surplus
  // is parsed as a next pipelined request and must fail as a clean
  // 4xx on that connection, leaving the server healthy.
  const std::string body =
      "{\"schema\": \"loc\", \"category\": \"Store\"}GARBAGE TRAILING";
  const std::string request =
      "POST /v1/check HTTP/1.1\r\nHost: x\r\nContent-Length: " +
      std::to_string(body.size() - 16) + "\r\n\r\n" + body;
  const std::string response = RawExchange(server_.port(), request);
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;

  // The server is still healthy for the next connection.
  const std::string again = RawExchange(
      server_.port(),
      FramedPost("/v1/check",
                 "{\"schema\": \"loc\", \"category\": \"Store\"}"));
  EXPECT_NE(again.find("HTTP/1.1 200"), std::string::npos) << again;
}

TEST_F(ServiceTransportTest, OversizedJsonBodyIs413AndCounted) {
  obs::HttpServer::Options small;
  small.max_body_bytes = 1024;
  StartServer(small);
  const uint64_t before = Counter("olapdc.http.bad_requests");
  const std::string big = "{\"pad\": \"" + std::string(4096, 'x') + "\"}";
  const std::string response =
      RawExchange(server_.port(), FramedPost("/v1/check", big));
  EXPECT_NE(response.find("413"), std::string::npos) << response;
  EXPECT_GE(Counter("olapdc.http.bad_requests"), before + 1);
  EXPECT_EQ(service_->requests(), 0u);
}

TEST_F(ServiceTransportTest, OversizedHeadersAre431) {
  obs::HttpServer::Options small;
  small.max_header_bytes = 512;
  StartServer(small);
  const std::string response = RawExchange(
      server_.port(), "POST /v1/check HTTP/1.1\r\nX-Pad: " +
                          std::string(2048, 'h') + "\r\n\r\n");
  EXPECT_NE(response.find("431"), std::string::npos) << response;
}

TEST_F(ServiceTransportTest, SlowLorisTimesOutWith408) {
  obs::HttpServer::Options impatient;
  impatient.read_timeout_ms = 150;
  StartServer(impatient);
  const uint64_t before = Counter("olapdc.http.timeouts");
  // Dribble an incomplete request line and then stall (no half-close:
  // the connection stays open, the server's read deadline must fire).
  const std::string response = RawExchange(
      server_.port(), "POST /v1/check HTT", /*half_close=*/false,
      /*linger_ms=*/5000);
  EXPECT_NE(response.find("408"), std::string::npos) << response;
  EXPECT_GE(Counter("olapdc.http.timeouts"), before + 1);
}

TEST_F(ServiceTransportTest, GarbageRequestLineIs400) {
  StartServer();
  const std::string response =
      RawExchange(server_.port(), "EXPLODE now\r\n\r\n");
  EXPECT_NE(response.find("400"), std::string::npos) << response;
}

}  // namespace
}  // namespace olapdc::service
