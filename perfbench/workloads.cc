#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <utility>

#include "common/result.h"
#include "constraint/parser.h"
#include "core/dimsat.h"
#include "core/implication.h"
#include "core/location_example.h"
#include "core/naive_sat.h"
#include "core/summarizability.h"
#include "io/schema_io.h"
#include "obs/json.h"
#include "workload/realistic.h"
#include "workload/schema_generator.h"

namespace perfbench {

using olapdc::CategoryId;
using olapdc::DimensionSchema;
using olapdc::HierarchySchema;

const char* OpName(Op op) {
  switch (op) {
    case Op::kRegister:
      return "register";
    case Op::kCheck:
      return "check";
    case Op::kImplies:
      return "implies";
    case Op::kSummarizable:
      return "summarizable";
  }
  return "?";
}

namespace {

using Rng = std::mt19937_64;

/// Uniform in [0, n); written out so sequences do not depend on the
/// standard library's distribution implementation.
size_t Below(Rng& rng, size_t n) { return static_cast<size_t>(rng() % n); }

/// A read question over one schema version (no request body yet).
struct Question {
  Op op = Op::kCheck;
  std::string arg;
  std::vector<std::string> sources;
};

/// Every question the generator asks about `ds`: a check per category,
/// implies over into / composed / disjunctive / through atoms that the
/// schema's edges make well-formed, and summarizable from each
/// category's direct children (all of them, and each alone).
std::vector<Question> QuestionsFor(const DimensionSchema& ds) {
  const HierarchySchema& h = ds.hierarchy();
  const CategoryId all = h.all();
  std::vector<Question> out;
  for (CategoryId c = 0; c < h.num_categories(); ++c) {
    if (c == all) continue;
    out.push_back({Op::kCheck, h.CategoryName(c), {}});
  }
  for (CategoryId u = 0; u < h.num_categories(); ++u) {
    if (u == all) continue;
    const std::string& un = h.CategoryName(u);
    std::vector<CategoryId> parents;
    for (int p : h.graph().OutNeighbors(u)) {
      if (p != all) parents.push_back(p);
    }
    for (CategoryId p : parents) {
      out.push_back({Op::kImplies, un + "/" + h.CategoryName(p), {}});
    }
    for (CategoryId a = 0; a < h.num_categories(); ++a) {
      if (a == u || a == all || !h.Reaches(u, a) || h.HasEdge(u, a)) continue;
      out.push_back({Op::kImplies, un + "." + h.CategoryName(a), {}});
    }
    if (parents.size() >= 2) {
      out.push_back({Op::kImplies,
                     un + "/" + h.CategoryName(parents[0]) + " | " + un +
                         "/" + h.CategoryName(parents[1]),
                     {}});
    }
    for (CategoryId p : parents) {
      for (int a : h.graph().OutNeighbors(p)) {
        if (a == all) continue;
        out.push_back({Op::kImplies,
                       un + "." + h.CategoryName(a) + " -> " + un + "." +
                           h.CategoryName(p) + "." + h.CategoryName(a),
                       {}});
        break;
      }
    }
  }
  for (CategoryId c = 0; c < h.num_categories(); ++c) {
    if (c == all) continue;
    const std::vector<int>& children = h.graph().InNeighbors(c);
    if (children.empty()) continue;
    Question q{Op::kSummarizable, h.CategoryName(c), {}};
    for (int child : children) q.sources.push_back(h.CategoryName(child));
    out.push_back(q);
    if (children.size() < 2) continue;
    for (int child : children) {
      out.push_back({Op::kSummarizable, h.CategoryName(c),
                     {h.CategoryName(child)}});
    }
  }
  return out;
}

/// Builds workloads: owns the version table, the distinct-question
/// table, and the request rendering.
class Builder {
 public:
  explicit Builder(Workload* w) : w_(w) {}

  /// Adds a version of schema `name` and returns its index. The text
  /// is the schema's canonical serialization, so equal content always
  /// means equal text.
  int AddVersion(const std::string& name, const std::string& shape,
                 const DimensionSchema& ds) {
    SchemaVersion v;
    v.name = name;
    v.shape = shape;
    v.text = olapdc::SerializeSchema(ds);
    v.schema = std::make_shared<const DimensionSchema>(ds);
    w_->versions.push_back(std::move(v));
    return static_cast<int>(w_->versions.size()) - 1;
  }

  Request Register(int version) const {
    const SchemaVersion& v = w_->versions[version];
    Request r;
    r.op = Op::kRegister;
    r.path = "/v1/schemas";
    r.body = "{\"name\": " + olapdc::obs::JsonString(v.name) +
             ", \"text\": " + olapdc::obs::JsonString(v.text) + "}";
    r.version = version;
    return r;
  }

  /// A read of question `q` against `version`.
  Request Read(int version, const Question& q) {
    const std::string& name = w_->versions[version].name;
    Request r;
    r.op = q.op;
    r.version = version;
    r.arg = q.arg;
    r.sources = q.sources;
    const std::string schema = "{\"schema\": " + olapdc::obs::JsonString(name);
    switch (q.op) {
      case Op::kCheck:
        r.path = "/v1/check";
        r.body = schema + ", \"category\": " +
                 olapdc::obs::JsonString(q.arg) + "}";
        break;
      case Op::kImplies:
        r.path = "/v1/implies";
        r.body = schema + ", \"constraint\": " +
                 olapdc::obs::JsonString(q.arg) + "}";
        break;
      case Op::kSummarizable: {
        r.path = "/v1/summarizable";
        std::string sources = "[";
        for (size_t i = 0; i < q.sources.size(); ++i) {
          if (i > 0) sources += ", ";
          sources += olapdc::obs::JsonString(q.sources[i]);
        }
        r.body = schema + ", \"category\": " +
                 olapdc::obs::JsonString(q.arg) + ", \"sources\": " +
                 sources + "]}";
        break;
      }
      case Op::kRegister:
        break;
    }
    // Repeats of a question share its index (and oracle verdict).
    std::string key = std::to_string(version) + "|" + OpName(q.op) + "|" +
                      q.arg;
    for (const std::string& s : q.sources) key += "|" + s;
    auto [it, inserted] =
        question_index_.emplace(key, static_cast<int>(w_->expected.size()));
    if (inserted) w_->expected.push_back(false);
    r.question = it->second;
    return r;
  }

 private:
  Workload* w_;
  std::map<std::string, int> question_index_;
};

template <typename T>
T Unwrap(olapdc::Result<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: generator failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).ValueOrDie();
}

/// The DIMSAT options the oracle and the work bands are defined under:
/// the plain sequential search, spelled out so that a later change of
/// DimsatOptions' defaults changes neither the workloads nor the
/// verdicts they are checked against.
olapdc::DimsatOptions ReferenceOptions() {
  olapdc::DimsatOptions o;
  o.decompose = false;
  o.branch_heuristic = false;
  o.nogoods = nullptr;
  o.num_threads = 1;
  return o;
}

/// Reference work of a question: the EXPAND calls the reference search
/// makes to answer it, or UINT64_MAX when that exceeds `limit`.
/// Deterministic, so bands built on it are the same on every host.
uint64_t ReferenceWork(const DimensionSchema& ds, const Question& q,
                       uint64_t limit) {
  const HierarchySchema& h = ds.hierarchy();
  olapdc::DimsatOptions o = ReferenceOptions();
  o.max_expand_calls = limit;
  olapdc::Status status;
  uint64_t work = 0;
  if (q.op == Op::kCheck) {
    const olapdc::DimsatResult r = olapdc::Dimsat(ds, h.FindCategory(q.arg), o);
    status = r.status;
    work = r.stats.expand_calls;
  } else if (q.op == Op::kImplies) {
    const auto r = Unwrap(olapdc::Implies(
        ds, Unwrap(olapdc::ParseConstraint(h, q.arg)), o));
    status = r.status;
    work = r.stats.expand_calls;
  } else {
    std::vector<CategoryId> sources;
    for (const std::string& s : q.sources) sources.push_back(h.FindCategory(s));
    const auto r = Unwrap(
        olapdc::IsSummarizable(ds, h.FindCategory(q.arg), sources, o));
    status = r.status;
    work = r.stats.expand_calls;
  }
  return status.ok() ? work : UINT64_MAX;
}

DimensionSchema LayeredSchema(Rng& rng) {
  olapdc::SchemaGenOptions s;
  s.num_levels = 3;
  s.categories_per_level = 3;
  s.extra_edge_prob = 0.35;
  s.max_level_jump = 2;
  s.seed = rng();
  olapdc::ConstraintGenOptions c;
  c.into_fraction = 0.6;
  c.num_choice_constraints = 3;
  c.num_equality_constraints = 2;
  c.seed = rng();
  return Unwrap(olapdc::GenerateConstrainedSchema(
      Unwrap(olapdc::GenerateLayeredHierarchy(s)), c));
}

DimensionSchema MultiComponentSchema(Rng& rng) {
  olapdc::MultiComponentGenOptions m;
  m.num_components = 3;
  m.levels_per_component = 2;
  m.categories_per_level = 2;
  m.extra_edge_prob = 0.3;
  m.into_fraction = 0.3;
  m.seed = rng();
  return Unwrap(olapdc::GenerateMultiComponentSchema(m));
}

/// Bands of reference work per question: band k holds questions with
/// kWorkBands[k-1] <= work < kWorkBands[k].
constexpr uint64_t kWorkBands[] = {16,   32,   64,   128,  256,  384,  512,
                                   768,  1024, 1280, 1536, 1792, 2048, 2560,
                                   3072, 4096, 8192};
constexpr size_t kNumBands = std::size(kWorkBands);
/// Bands from 256 EXPAND calls up (see ColdDesign).
constexpr size_t kFirstHeavyBand = 4;

size_t BandOf(uint64_t work) {
  size_t k = 0;
  while (k < kNumBands && work >= kWorkBands[k]) ++k;
  return k;  // kNumBands: above every band
}

void WarmNavigator(Rng& rng, Workload* w) {
  w->connections = 2;
  w->cache_budget_mb = 32;
  Builder b(w);
  const std::vector<std::pair<std::string, DimensionSchema>> schemas = {
      {"location", Unwrap(olapdc::LocationSchema())},
      {"healthcare", Unwrap(olapdc::HealthcareSchema())},
      {"product", Unwrap(olapdc::ProductSchema())},
      {"time", Unwrap(olapdc::TimeSchema())}};
  // The warm-up asks every question once; the timed reads repeat them.
  for (const auto& [name, ds] : schemas) {
    const int v = b.AddVersion(name, "fixed", ds);
    w->setup.push_back(b.Register(v));
    for (const Question& q : QuestionsFor(ds)) w->warmup.push_back(b.Read(v, q));
  }
  for (int i = 0; i < 2000; ++i) {
    w->timed.push_back(w->warmup[Below(rng, w->warmup.size())]);
  }
}

// Questions per band of reference work, for each schema shape. Random
// schemas' search costs are heavy-tailed: drawn freely, a few seeds
// would carry most of the work and p99 would follow the seed, not the
// program. So each seed fills the same quotas — roughly the natural
// frequencies of each band — and differs only in which schemas and
// questions fill them.
constexpr int kLayeredQuota[kNumBands] = {799, 109, 73, 81, 93, 45, 31, 30, 14,
                                          4,   4,   4,  4,  3,  3,  4,  2};
constexpr int kComponentQuota[kNumBands] = {482, 49, 9, 11, 19, 21, 25, 32, 23,
                                            10,  8,  4, 3,  3,  0,  0,  0};

void ColdDesign(Rng& rng, Workload* w) {
  w->connections = 1;
  w->cache_budget_mb = 0;
  Builder b(w);
  // Two shapes: layered schemas (one connected search) and
  // multi-component ones (independent sub-hierarchies, the shape
  // decomposition splits). Every question is asked exactly once.
  std::vector<std::pair<int, Question>> pool;
  auto fill = [&](const char* prefix, DimensionSchema (*make)(Rng&),
                  const int (&quota)[kNumBands]) {
    int left[kNumBands];
    int missing = 0;
    for (size_t k = 0; k < kNumBands; ++k) missing += left[k] = quota[k];
    for (int i = 0; missing > 0; ++i) {
      const DimensionSchema ds = make(rng);
      std::vector<Question> questions = QuestionsFor(ds);
      std::shuffle(questions.begin(), questions.end(), rng);
      std::vector<Question> taken;
      std::vector<bool> band_used(kNumBands, false);
      for (const Question& q : questions) {
        // Work above the highest band still open is of no use; stop
        // the reference search there.
        size_t open = kNumBands;
        while (open > 0 && left[open - 1] == 0) --open;
        if (open == 0) break;
        const size_t k = BandOf(ReferenceWork(ds, q, kWorkBands[open - 1]));
        if (k == kNumBands || left[k] == 0) continue;
        // Questions of one schema often run the same search; one per
        // heavy band keeps a seed's heavy tail from a few schemas.
        if (k >= kFirstHeavyBand && band_used[k]) continue;
        band_used[k] = true;
        --left[k];
        --missing;
        taken.push_back(q);
      }
      if (taken.empty()) continue;
      const int v = b.AddVersion(prefix + std::to_string(i), prefix, ds);
      w->setup.push_back(b.Register(v));
      for (const Question& q : taken) pool.emplace_back(v, q);
    }
  };
  fill("layered", LayeredSchema, kLayeredQuota);
  fill("components", MultiComponentSchema, kComponentQuota);
  std::shuffle(pool.begin(), pool.end(), rng);
  for (const auto& [v, q] : pool) w->timed.push_back(b.Read(v, q));
}

/// A new version of `base`: one constraint added, dropped or replaced,
/// with content no earlier version of that schema had.
DimensionSchema Mutate(Rng& rng, const DimensionSchema& base,
                       std::set<std::string>* seen) {
  const HierarchySchema& h = base.hierarchy();
  const std::vector<std::pair<int, int>> edges = h.graph().Edges();
  for (;;) {
    std::vector<olapdc::DimensionConstraint> constraints = base.constraints();
    const size_t kind = Below(rng, 3);
    if (kind != 0 && !constraints.empty()) {
      constraints.erase(constraints.begin() +
                        static_cast<long>(Below(rng, constraints.size())));
    }
    if (kind != 1) {
      const auto& [u, p] = edges[Below(rng, edges.size())];
      if (p == h.all()) continue;
      const std::string text =
          Below(rng, 2) == 0
              ? h.CategoryName(u) + "/" + h.CategoryName(p)
              : "!" + h.CategoryName(u) + "/" + h.CategoryName(p);
      constraints.push_back(Unwrap(olapdc::ParseConstraint(h, text)));
    }
    DimensionSchema next(base.hierarchy_ptr(), std::move(constraints));
    if (seen->insert(olapdc::SerializeSchema(next)).second) return next;
  }
}

/// The questions schema_churn asks about one schema version: a fixed
/// number per band of reference work (a band short of questions passes
/// its shortfall to the next lighter band), so every version costs
/// about the same to answer cold whatever its content.
constexpr uint64_t kMenuBands[] = {16, 64, 256, 512, 1024};
constexpr int kMenuQuota[] = {44, 7, 4, 3, 2};

std::vector<Question> Menu(Rng& rng, const DimensionSchema& ds) {
  constexpr size_t kBands = std::size(kMenuBands);
  std::vector<Question> questions = QuestionsFor(ds);
  std::shuffle(questions.begin(), questions.end(), rng);
  std::vector<std::vector<Question>> by_band(kBands);
  for (const Question& q : questions) {
    const uint64_t work = ReferenceWork(ds, q, kMenuBands[kBands - 1]);
    size_t k = 0;
    while (k < kBands && work >= kMenuBands[k]) ++k;
    if (k < kBands) by_band[k].push_back(q);
  }
  std::vector<Question> menu;
  int carry = 0;
  for (size_t k = kBands; k-- > 0;) {
    const size_t want = static_cast<size_t>(kMenuQuota[k] + carry);
    const size_t take = std::min(want, by_band[k].size());
    menu.insert(menu.end(), by_band[k].begin(), by_band[k].begin() + take);
    carry = static_cast<int>(want - take);
  }
  return menu;
}

void SchemaChurn(Rng& rng, Workload* w) {
  w->connections = 1;
  // Small enough that the run's dead epochs fill it and drive eviction.
  w->cache_budget_mb = 1;
  Builder b(w);
  constexpr int kSchemas = 24;
  std::vector<int> current;
  std::vector<std::vector<Question>> menus;
  std::vector<std::set<std::string>> seen(kSchemas);
  for (int i = 0; i < kSchemas; ++i) {
    const int v =
        b.AddVersion("churn" + std::to_string(i), "layered", LayeredSchema(rng));
    seen[i].insert(w->versions[v].text);
    w->setup.push_back(b.Register(v));
    current.push_back(v);
    menus.push_back(Menu(rng, *w->versions[v].schema));
  }
  // Every 50th position writes a new version of one schema; reads pick
  // a schema and a question from its current version's menu. A
  // question repeats within an epoch (a hit) until the next write;
  // about 60 % of reads are first asks (misses), which is what makes
  // the run fill the response cache and evict.
  for (int i = 0; i < 6000; ++i) {
    const size_t s = Below(rng, kSchemas);
    if (i % 50 == 25) {
      const DimensionSchema next =
          Mutate(rng, *w->versions[current[s]].schema, &seen[s]);
      current[s] = b.AddVersion(w->versions[current[s]].name, "layered", next);
      menus[s] = Menu(rng, next);
      w->timed.push_back(b.Register(current[s]));
      continue;
    }
    w->timed.push_back(b.Read(current[s], menus[s][Below(rng, menus[s].size())]));
  }
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  *out = Workload{};
  out->name = name;
  // Each workload draws from its own stream of the seed.
  uint64_t stream = 14695981039346656037ull;  // FNV-1a of the name
  for (char c : name) stream = (stream ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  Rng rng(seed * 0x9E3779B97F4A7C15ull ^ stream);
  if (name == "warm_navigator") {
    WarmNavigator(rng, out);
  } else if (name == "cold_design") {
    ColdDesign(rng, out);
  } else if (name == "schema_churn") {
    SchemaChurn(rng, out);
  } else {
    return false;
  }
  return true;
}

namespace {

int RelevantEdges(const HierarchySchema& h, CategoryId root) {
  const olapdc::DynamicBitset& up = h.UpSet(root);
  int n = 0;
  for (const auto& [u, v] : h.graph().Edges()) {
    if (up.test(u) && up.test(v)) ++n;
  }
  return n;
}

}  // namespace

bool ComputeOracle(Workload* workload, std::string* error) {
  std::vector<bool> done(workload->expected.size(), false);
  auto answer = [&](const Request& r) -> bool {
    if (r.question < 0 || done[r.question]) return true;
    const DimensionSchema& ds = *workload->versions[r.version].schema;
    const HierarchySchema& h = ds.hierarchy();
    const olapdc::DimsatOptions sequential = ReferenceOptions();
    bool verdict = false;
    olapdc::Status status;
    if (r.op == Op::kCheck) {
      const CategoryId root = h.FindCategory(r.arg);
      if (RelevantEdges(h, root) <= kOracleNaiveEdges) {
        olapdc::NaiveSatOptions naive;
        naive.max_edges = kOracleNaiveEdges;
        auto result = olapdc::NaiveSat(ds, root, naive);
        status = result.ok() ? result->status : result.status();
        if (result.ok()) verdict = result->satisfiable;
      } else {
        const olapdc::DimsatResult result = olapdc::Dimsat(ds, root, sequential);
        status = result.status;
        verdict = result.satisfiable;
      }
    } else if (r.op == Op::kImplies) {
      auto alpha = olapdc::ParseConstraint(h, r.arg);
      if (!alpha.ok()) {
        status = alpha.status();
      } else {
        auto result = olapdc::Implies(ds, *alpha, sequential);
        status = result.ok() ? result->status : result.status();
        if (result.ok()) verdict = result->implied;
      }
    } else {
      std::vector<CategoryId> sources;
      for (const std::string& s : r.sources) sources.push_back(h.FindCategory(s));
      auto result = olapdc::IsSummarizable(ds, h.FindCategory(r.arg), sources,
                                           sequential);
      status = result.ok() ? result->status : result.status();
      if (result.ok()) verdict = result->summarizable;
    }
    if (!status.ok()) {
      *error = std::string("oracle failed on ") + OpName(r.op) + " " + r.arg +
               " of " + workload->versions[r.version].name + ": " +
               status.ToString();
      return false;
    }
    workload->expected[r.question] = verdict;
    done[r.question] = true;
    return true;
  };
  for (const Request& r : workload->warmup) {
    if (!answer(r)) return false;
  }
  for (const Request& r : workload->timed) {
    if (!answer(r)) return false;
  }
  return true;
}

}  // namespace perfbench
