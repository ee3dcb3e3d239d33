#include "core/scorer.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "webgraph/generator.h"

namespace lswc {
namespace {

ScoreInputs RelevantParent(double confidence) {
  ScoreInputs inputs;
  inputs.parent_relevant = true;
  inputs.parent_confidence = confidence;
  return inputs;
}

ScoreInputs IrrelevantParent(uint8_t annotation) {
  ScoreInputs inputs;
  inputs.parent_relevant = false;
  inputs.parent_confidence = 0.9;  // Must be ignored for irrelevant parents.
  inputs.annotation = annotation;
  return inputs;
}

TEST(ScorerRegistryTest, BuiltinsAreRegistered) {
  const std::vector<std::string> names = ScorerRegistry::Global().names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* builtin :
       {"lang", "parent", "indegree", "depth", "random"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), builtin), names.end())
        << builtin;
  }
}

TEST(ScorerRegistryTest, UnknownScorerNamesTheRegisteredOnes) {
  auto s = ScorerRegistry::Global().Make("pagerank", ScorerEnv{});
  ASSERT_FALSE(s.ok());
  const std::string message = s.status().ToString();
  EXPECT_NE(message.find("unknown scorer 'pagerank'"), std::string::npos)
      << message;
  // The message lists what IS available, so a typo is self-diagnosing.
  EXPECT_NE(message.find("lang"), std::string::npos) << message;
  EXPECT_NE(message.find("indegree"), std::string::npos) << message;
}

TEST(ScorerRegistryTest, RegisterReplacesAndExtends) {
  class ConstantScorer final : public Scorer {
   public:
    double Score(PageId, const ScoreInputs&) const override { return 0.25; }
    std::string name() const override { return "test-constant"; }
  };
  ScorerRegistry::Global().Register(
      "test-constant",
      [](const ScorerEnv&) -> StatusOr<std::unique_ptr<Scorer>> {
        return std::unique_ptr<Scorer>(new ConstantScorer());
      });
  auto composite = MakeCompositeScorer("test-constant:4.0", ScorerEnv{});
  ASSERT_TRUE(composite.ok()) << composite.status();
  EXPECT_DOUBLE_EQ((*composite)->Score(0, ScoreInputs{}), 1.0);
}

TEST(ScorerTest, LangScoreIsTheReferrerConfidence) {
  auto lang = ScorerRegistry::Global().Make("lang", ScorerEnv{});
  ASSERT_TRUE(lang.ok()) << lang.status();
  EXPECT_DOUBLE_EQ((*lang)->Score(0, RelevantParent(0.7)), 0.7);
  EXPECT_DOUBLE_EQ((*lang)->Score(0, RelevantParent(1.0)), 1.0);
  EXPECT_DOUBLE_EQ((*lang)->Score(0, IrrelevantParent(0)), 0.0);
  EXPECT_EQ((*lang)->name(), "lang");
}

TEST(ScorerTest, ParentScoreDecaysWithTheIrrelevantRun) {
  auto parent = ScorerRegistry::Global().Make("parent", ScorerEnv{});
  ASSERT_TRUE(parent.ok()) << parent.status();
  EXPECT_DOUBLE_EQ((*parent)->Score(0, RelevantParent(0.5)), 1.0);
  EXPECT_DOUBLE_EQ((*parent)->Score(0, IrrelevantParent(0)), 0.5);
  EXPECT_DOUBLE_EQ((*parent)->Score(0, IrrelevantParent(2)), 0.25);
  // Monotone: a longer irrelevant run never scores higher.
  double last = 1.0;
  for (uint8_t run = 0; run < 10; ++run) {
    const double score = (*parent)->Score(0, IrrelevantParent(run));
    EXPECT_LT(score, last);
    last = score;
  }
}

TEST(ScorerTest, GraphScorersRequireAGraph) {
  for (const char* name : {"indegree", "depth"}) {
    auto s = ScorerRegistry::Global().Make(name, ScorerEnv{});
    ASSERT_FALSE(s.ok()) << name;
    const std::string message = s.status().ToString();
    EXPECT_NE(message.find(name), std::string::npos) << message;
    EXPECT_NE(message.find("graph"), std::string::npos) << message;
  }
}

TEST(ScorerTest, IndegreeScoresPopularPagesHighest) {
  auto graph = GenerateWebGraph(ThaiLikeOptions(2000, /*seed=*/5));
  ASSERT_TRUE(graph.ok()) << graph.status();
  ScorerEnv env;
  env.graph = &*graph;
  auto scorer = ScorerRegistry::Global().Make("indegree", env);
  ASSERT_TRUE(scorer.ok()) << scorer.status();

  std::vector<uint32_t> indegree(graph->num_pages(), 0);
  for (PageId p = 0; p < graph->num_pages(); ++p) {
    for (PageId target : graph->outlinks(p)) ++indegree[target];
  }
  const PageId most_popular = static_cast<PageId>(
      std::max_element(indegree.begin(), indegree.end()) - indegree.begin());
  ASSERT_GT(indegree[most_popular], 0u);

  EXPECT_DOUBLE_EQ((*scorer)->Score(most_popular, ScoreInputs{}), 1.0);
  for (PageId p = 0; p < graph->num_pages(); ++p) {
    const double score = (*scorer)->Score(p, ScoreInputs{});
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
    if (indegree[p] == 0) {
      EXPECT_DOUBLE_EQ(score, 0.0) << p;
    }
  }
}

TEST(ScorerTest, DepthScoresHostRootsHighest) {
  auto graph = GenerateWebGraph(ThaiLikeOptions(2000, /*seed=*/5));
  ASSERT_TRUE(graph.ok()) << graph.status();
  ScorerEnv env;
  env.graph = &*graph;
  auto scorer = ScorerRegistry::Global().Make("depth", env);
  ASSERT_TRUE(scorer.ok()) << scorer.status();
  for (PageId p = 0; p < graph->num_pages(); ++p) {
    const double score = (*scorer)->Score(p, ScoreInputs{});
    if (graph->PageIndexInHost(p) == 0) {
      EXPECT_DOUBLE_EQ(score, 1.0) << p;
    } else {
      EXPECT_LT(score, 1.0) << p;
      EXPECT_GT(score, 0.0) << p;
    }
  }
}

TEST(ScorerTest, RandomIsSeededDeterministicAndBounded) {
  ScorerEnv env_a;
  env_a.seed = 42;
  ScorerEnv env_b;
  env_b.seed = 43;
  auto a1 = ScorerRegistry::Global().Make("random", env_a);
  auto a2 = ScorerRegistry::Global().Make("random", env_a);
  auto b = ScorerRegistry::Global().Make("random", env_b);
  ASSERT_TRUE(a1.ok() && a2.ok() && b.ok());
  bool any_seed_difference = false;
  for (PageId url = 0; url < 256; ++url) {
    const double score = (*a1)->Score(url, ScoreInputs{});
    EXPECT_GE(score, 0.0);
    EXPECT_LT(score, 1.0);
    EXPECT_DOUBLE_EQ(score, (*a2)->Score(url, ScoreInputs{})) << url;
    if (score != (*b)->Score(url, ScoreInputs{})) any_seed_difference = true;
  }
  EXPECT_TRUE(any_seed_difference);
}

TEST(CompositeScorerTest, WeightedSumInSpecOrder) {
  auto composite = MakeCompositeScorer("lang:2.0,parent:0.5", ScorerEnv{});
  ASSERT_TRUE(composite.ok()) << composite.status();
  EXPECT_EQ((*composite)->name(), "lang:2.0,parent:0.5");
  // Relevant referrer at confidence 0.6: 2.0 * 0.6 + 0.5 * 1.0.
  EXPECT_DOUBLE_EQ((*composite)->Score(0, RelevantParent(0.6)), 1.7);
  // Irrelevant referrer, run 2: 2.0 * 0 + 0.5 * 0.25.
  EXPECT_DOUBLE_EQ((*composite)->Score(0, IrrelevantParent(2)), 0.125);
}

TEST(CompositeScorerTest, OmittedWeightDefaultsToOne) {
  auto composite = MakeCompositeScorer("parent", ScorerEnv{});
  ASSERT_TRUE(composite.ok()) << composite.status();
  EXPECT_DOUBLE_EQ((*composite)->Score(0, IrrelevantParent(0)), 0.5);
}

TEST(CompositeScorerTest, SpecErrorsNameTheOffendingToken) {
  const std::string empty = MakeCompositeScorer("", ScorerEnv{})
                                .status()
                                .ToString();
  EXPECT_NE(empty.find("empty"), std::string::npos) << empty;

  const std::string hole = MakeCompositeScorer("lang,,parent", ScorerEnv{})
                               .status()
                               .ToString();
  EXPECT_NE(hole.find("empty entry"), std::string::npos) << hole;

  const std::string weight = MakeCompositeScorer("lang:abc", ScorerEnv{})
                                 .status()
                                 .ToString();
  EXPECT_NE(weight.find("'lang'"), std::string::npos) << weight;
  EXPECT_NE(weight.find("'abc'"), std::string::npos) << weight;

  const std::string unknown = MakeCompositeScorer("lang:1.0,nope", ScorerEnv{})
                                  .status()
                                  .ToString();
  EXPECT_NE(unknown.find("unknown scorer 'nope'"), std::string::npos)
      << unknown;
}

// A NaN score breaks the strict weak order selection sorts by, and an
// infinite weight gives one (inf x 0 for an irrelevant referrer).
TEST(CompositeScorerTest, NonFiniteWeightsAreRejected) {
  for (const std::string spec :
       {"lang:nan", "lang:inf,parent:1", "lang:-inf", "lang:1e400"}) {
    const auto composite = MakeCompositeScorer(spec, ScorerEnv{});
    ASSERT_FALSE(composite.ok()) << spec;
    EXPECT_EQ(composite.status().code(), StatusCode::kInvalidArgument);
    const std::string message = composite.status().ToString();
    EXPECT_NE(message.find("'lang'"), std::string::npos) << message;
    EXPECT_NE(message.find("non-finite"), std::string::npos) << message;
    EXPECT_NE(message.find("'" + spec + "'"), std::string::npos) << message;
  }
}

}  // namespace
}  // namespace lswc
