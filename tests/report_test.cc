// Tests for the heterogeneity report and the homogeneity test.

#include <gtest/gtest.h>

#include <string>

#include "core/location_example.h"
#include "core/report.h"
#include "tests/test_util.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

using testing_util::MakeSchema;

TEST(ReportTest, LocationReportMentionsEverything) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  ASSERT_OK_AND_ASSIGN(std::string report, HeterogeneityReport(ds));
  // Sections.
  for (const char* marker :
       {"== structure ==", "== constraints (7) ==", "== satisfiability ==",
        "== frozen dimensions", "== summarizability matrix"}) {
    EXPECT_NE(report.find(marker), std::string::npos) << marker;
  }
  // Content spot checks.
  EXPECT_NE(report.find("4 frozen dimension(s)"), std::string::npos);
  EXPECT_NE(report.find("all categories satisfiable"), std::string::npos);
  EXPECT_NE(report.find("Washington"), std::string::npos);
  EXPECT_NE(report.find("City->Country"), std::string::npos);  // shortcut
}

// The report lists frozen dimensions in the sequential enumeration
// order, so a thread count must not change a byte of it.
TEST(ReportTest, ThreadCountDoesNotChangeTheReport) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema location, LocationSchema());
  MultiComponentGenOptions generated_options;
  generated_options.seed = 620;
  ASSERT_OK_AND_ASSIGN(DimensionSchema generated,
                       GenerateMultiComponentSchema(generated_options));
  for (const DimensionSchema* ds : {&location, &generated}) {
    ReportOptions options;
    options.max_frozen_per_bottom = 1000;
    ASSERT_OK_AND_ASSIGN(std::string sequential,
                         HeterogeneityReport(*ds, options));
    options.dimsat.num_threads = 4;
    ASSERT_OK_AND_ASSIGN(std::string threaded,
                         HeterogeneityReport(*ds, options));
    EXPECT_EQ(threaded, sequential);
  }
}

TEST(ReportTest, UnsatisfiableCategoryCalledOut) {
  DimensionSchema ds = MakeSchema({{"A", "B"}, {"B", "All"}}, {"!A/B"});
  ReportOptions options;
  options.include_summarizability_matrix = false;
  ASSERT_OK_AND_ASSIGN(std::string report, HeterogeneityReport(ds, options));
  EXPECT_NE(report.find("A: UNSATISFIABLE"), std::string::npos);
  EXPECT_EQ(report.find("summarizability matrix"), std::string::npos);
}

TEST(HomogeneityTest, LocationIsHeterogeneous) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  ASSERT_OK_AND_ASSIGN(bool homogeneous, IsHomogeneousSchema(ds));
  EXPECT_FALSE(homogeneous);
}

TEST(HomogeneityTest, FullyIntoConstrainedChainIsHomogeneous) {
  DimensionSchema ds = MakeSchema(
      {{"A", "B"}, {"B", "C"}, {"C", "All"}}, {"A/B", "B/C"});
  ASSERT_OK_AND_ASSIGN(bool homogeneous, IsHomogeneousSchema(ds));
  EXPECT_TRUE(homogeneous);
}

TEST(HomogeneityTest, UnconstrainedDiamondIsHeterogeneous) {
  DimensionSchema ds = MakeSchema(
      {{"A", "B"}, {"A", "C"}, {"B", "All"}, {"C", "All"}}, {});
  ASSERT_OK_AND_ASSIGN(bool homogeneous, IsHomogeneousSchema(ds));
  EXPECT_FALSE(homogeneous) << "members may pick B, C, or both";
}

TEST(HomogeneityTest, ConstraintsCanRestoreHomogeneity) {
  DimensionSchema ds = MakeSchema(
      {{"A", "B"}, {"A", "C"}, {"B", "All"}, {"C", "All"}},
      {"A/B & A/C"});
  ASSERT_OK_AND_ASSIGN(bool homogeneous, IsHomogeneousSchema(ds));
  EXPECT_TRUE(homogeneous) << "both parents forced -> single structure";
}

TEST(ReportTest, FrozenDotOutput) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  DimsatResult r = EnumerateFrozenDimensions(
      ds, ds.hierarchy().FindCategory("Store"));
  ASSERT_OK(r.status);
  ASSERT_FALSE(r.frozen.empty());
  std::string all_dots;
  for (const FrozenDimension& f : r.frozen) {
    std::string dot = f.ToDot(ds.hierarchy());
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    all_dots += dot;
  }
  // The Washington structure annotates City with its constant.
  EXPECT_NE(all_dots.find("Washington"), std::string::npos);
}

}  // namespace
}  // namespace olapdc
