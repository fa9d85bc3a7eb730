// Tests for core/nogood.h — the DIMSAT learned-pruning store (ROADMAP
// item 2, layer b). Three layers of assurance:
//
//   1. store semantics: record/probe, signature discrimination over
//      structure / option bits / theory salt, persistence round-trip;
//   2. engine equivalence: a search with a store attached (cold, warm,
//      or mid-fill) must return exactly the frozen-dimension set and
//      satisfiability verdict of a storeless search — over the
//      location example and a 24-seed generated corpus;
//   3. chaos: faults injected mid-fill must never poison the store —
//      the guards at the recording sites only admit subtrees whose
//      exploration completed cleanly.

#include <algorithm>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "core/nogood.h"
#include "core/subhierarchy.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

// Canonical serialization of a frozen-dimension set: sorted rendered
// strings, so two enumerations compare as sets regardless of discovery
// order (the store changes visit order, never the answer).
std::vector<std::string> Canonical(const std::vector<FrozenDimension>& fs,
                                   const HierarchySchema& schema) {
  std::vector<std::string> out;
  out.reserve(fs.size());
  for (const FrozenDimension& f : fs) out.push_back(f.ToString(schema));
  std::sort(out.begin(), out.end());
  return out;
}

/// The generated corpus shape used throughout: small enough that full
/// enumeration is fast, constrained enough that barren subtrees exist.
Result<DimensionSchema> CorpusSchema(uint64_t seed) {
  SchemaGenOptions gen;
  gen.num_levels = 4;
  gen.categories_per_level = 3;
  gen.extra_edge_prob = 0.3;
  gen.max_level_jump = 2;
  gen.seed = seed;
  auto hierarchy = GenerateLayeredHierarchy(gen);
  if (!hierarchy.ok()) return hierarchy.status();
  ConstraintGenOptions cgen;
  cgen.into_fraction = 0.5;
  cgen.num_choice_constraints = 3;
  cgen.num_equality_constraints = 2;
  cgen.seed = seed;
  return GenerateConstrainedSchema(*hierarchy, cgen);
}

// ---------------------------------------------------------------------------
// Store semantics

TEST(NoGoodStoreTest, RecordProbeAndClear) {
  NoGoodStore store;
  const Fingerprint128 sig = FingerprintBytes("subtree");
  EXPECT_FALSE(store.Probe(sig));
  store.Record(sig);
  EXPECT_TRUE(store.Probe(sig));
  EXPECT_EQ(store.size(), 1u);
  store.Clear();
  EXPECT_FALSE(store.Probe(sig));
  EXPECT_EQ(store.size(), 0u);
}

TEST(NoGoodStoreTest, SignatureDiscriminatesRootOptionsAndSalt) {
  const Subhierarchy at_zero(8, /*root=*/0);
  const Subhierarchy at_one(8, /*root=*/1);
  const Fingerprint128 base = NoGoodStore::Signature(at_zero, 0);
  // Same inputs, same signature.
  EXPECT_EQ(base, NoGoodStore::Signature(at_zero, 0));
  // A different root is a different subtree.
  EXPECT_NE(base, NoGoodStore::Signature(at_one, 0));
  // Different semantic option bits must not alias (a subtree barren
  // under Ss+Sc pruning may not be barren without them).
  EXPECT_NE(base, NoGoodStore::Signature(at_zero, 7));
  // Different theory salts must not alias (Σ vs Σ ∪ {¬α}).
  EXPECT_NE(base, NoGoodStore::Signature(at_zero, 0, /*theory_salt=*/1));
}

TEST(NoGoodStoreTest, SerializeLoadRoundTrip) {
  NoGoodStore store;
  std::vector<Fingerprint128> sigs;
  for (int i = 0; i < 5; ++i) {
    sigs.push_back(FingerprintBytes("subtree-" + std::to_string(i)));
    store.Record(sigs.back());
  }
  const std::string text = store.Serialize();

  NoGoodStore restored;
  size_t consumed = 0;
  ASSERT_TRUE(restored.Load(text, &consumed).ok());
  EXPECT_EQ(consumed, text.size());
  EXPECT_EQ(restored.size(), store.size());
  for (const Fingerprint128& sig : sigs) EXPECT_TRUE(restored.Probe(sig));

  EXPECT_FALSE(restored.Load("dimsat-nogoods v2\n").ok());
  EXPECT_FALSE(restored.Load("garbage").ok());
}

// ---------------------------------------------------------------------------
// Engine equivalence

TEST(NoGoodDimsatTest, WarmEnumerationPrunesAndMatchesColdExactly) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, CorpusSchema(4));
  NoGoodStore store;
  uint64_t cold_expands = 0, warm_expands = 0, prunes = 0;
  for (CategoryId c = 0; c < ds.hierarchy().num_categories(); ++c) {
    if (c == ds.hierarchy().all()) continue;
    DimsatOptions plain;
    plain.enumerate_all = true;
    const DimsatResult cold = Dimsat(ds, c, plain);
    ASSERT_TRUE(cold.status.ok());
    cold_expands += cold.stats.expand_calls;

    DimsatOptions learned = plain;
    learned.nogoods = &store;
    const DimsatResult fill = Dimsat(ds, c, learned);
    const DimsatResult warm = Dimsat(ds, c, learned);
    warm_expands += warm.stats.expand_calls;
    prunes += warm.stats.nogood_prunes;

    // The store may reorder or skip exploration, never change answers.
    EXPECT_EQ(Canonical(fill.frozen, ds.hierarchy()),
              Canonical(cold.frozen, ds.hierarchy()))
        << "fill run diverged at category " << c;
    EXPECT_EQ(Canonical(warm.frozen, ds.hierarchy()),
              Canonical(cold.frozen, ds.hierarchy()))
        << "warm run diverged at category " << c;
  }
  // The whole point: learned pruning actually fires and saves work.
  EXPECT_GT(store.size(), 0u);
  EXPECT_GT(prunes, 0u);
  EXPECT_LT(warm_expands, cold_expands);
}

TEST(NoGoodDimsatTest, CachedVsColdSetEqualityOver24Seeds) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    ASSERT_OK_AND_ASSIGN(DimensionSchema ds, CorpusSchema(seed));
    NoGoodStore store;  // shared across every category of this schema
    for (CategoryId c = 0; c < ds.hierarchy().num_categories(); ++c) {
      if (c == ds.hierarchy().all()) continue;
      DimsatOptions plain;
      plain.enumerate_all = true;
      const DimsatResult cold = Dimsat(ds, c, plain);
      ASSERT_TRUE(cold.status.ok()) << "seed " << seed;

      DimsatOptions learned = plain;
      learned.nogoods = &store;
      const DimsatResult cached = Dimsat(ds, c, learned);
      ASSERT_TRUE(cached.status.ok()) << "seed " << seed;
      EXPECT_EQ(Canonical(cached.frozen, ds.hierarchy()),
                Canonical(cold.frozen, ds.hierarchy()))
          << "seed " << seed << " category " << c;

      // Witness mode (the /v1/check default) must agree on the verdict
      // even though the store was learned under enumeration.
      DimsatOptions witness;
      witness.nogoods = &store;
      const DimsatResult quick = Dimsat(ds, c, witness);
      ASSERT_TRUE(quick.status.ok()) << "seed " << seed;
      EXPECT_EQ(quick.satisfiable, cold.satisfiable)
          << "seed " << seed << " category " << c;
    }
  }
}

TEST(NoGoodDimsatTest, TheorySaltKeepsForeignLemmasInvisible) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, CorpusSchema(4));
  NoGoodStore store;
  uint64_t salted_prunes = 0, resalted_prunes = 0;
  for (CategoryId c = 0; c < ds.hierarchy().num_categories(); ++c) {
    if (c == ds.hierarchy().all()) continue;
    DimsatOptions learned;
    learned.enumerate_all = true;
    learned.nogoods = &store;
    learned.nogood_salt = 1;
    Dimsat(ds, c, learned);  // fill under theory salt 1

    // Probing under a different salt sees nothing — lemmas learned
    // against one effective theory never leak into another.
    DimsatOptions other = learned;
    other.nogood_salt = 2;
    salted_prunes += Dimsat(ds, c, other).stats.nogood_prunes;
    resalted_prunes += Dimsat(ds, c, learned).stats.nogood_prunes;
  }
  EXPECT_EQ(salted_prunes, 0u);
  EXPECT_GT(resalted_prunes, 0u);
}

// ---------------------------------------------------------------------------
// Chaos: mid-fill faults never poison the store

TEST(NoGoodDimsatTest, FaultsMidFillNeverCorruptLaterAnswers) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, CorpusSchema(4));
  // Ground truth, storeless and fault-free.
  std::vector<std::vector<std::string>> truth;
  for (CategoryId c = 0; c < ds.hierarchy().num_categories(); ++c) {
    if (c == ds.hierarchy().all()) continue;
    DimsatOptions plain;
    plain.enumerate_all = true;
    truth.push_back(Canonical(Dimsat(ds, c, plain).frozen,
                              ds.hierarchy()));
  }

  NoGoodStore store;
  {
    // Fill passes under a 2% deadline-fault rate: many searches die
    // mid-subtree. The recording guards (OK status only, subtree
    // completed inline) must keep every partial exploration out.
    ScopedFaultInjection guard(/*seed=*/2024);
    FaultInjector::Global().SetFault("dimsat.expand",
                                     StatusCode::kDeadlineExceeded, 0.02,
                                     "injected mid-fill fault");
    for (int round = 0; round < 3; ++round) {
      for (CategoryId c = 0; c < ds.hierarchy().num_categories(); ++c) {
        if (c == ds.hierarchy().all()) continue;
        DimsatOptions learned;
        learned.enumerate_all = true;
        learned.nogoods = &store;
        Dimsat(ds, c, learned);  // outcome irrelevant; store is not
      }
    }
    EXPECT_GE(FaultInjector::Global().failures("dimsat.expand"), 1u);
  }

  // Fault-free warm runs against the chaos-filled store: answers must
  // equal ground truth exactly.
  size_t i = 0;
  for (CategoryId c = 0; c < ds.hierarchy().num_categories(); ++c) {
    if (c == ds.hierarchy().all()) continue;
    DimsatOptions learned;
    learned.enumerate_all = true;
    learned.nogoods = &store;
    const DimsatResult warm = Dimsat(ds, c, learned);
    ASSERT_TRUE(warm.status.ok());
    EXPECT_EQ(Canonical(warm.frozen, ds.hierarchy()), truth[i])
        << "category " << c << " diverged after chaos fill";
    ++i;
  }
}

}  // namespace
}  // namespace olapdc
