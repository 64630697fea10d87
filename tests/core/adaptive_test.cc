// Progressive re-optimization in CrossPlatformExecutor, configured through
// `executor.reoptimize_threshold` and `executor.max_reoptimizations`.

#include <gtest/gtest.h>

#include "core/executor/executor.h"
#include "core/operators/physical_ops.h"
#include "core/optimizer/channel.h"
#include "platforms/javasim/javasim_platform.h"
#include "platforms/relsim/relsim_platform.h"
#include "platforms/sparksim/sparksim_platform.h"

namespace rheem {
namespace {

Dataset Numbers(int n) {
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) records.push_back(Record({Value(i)}));
  return Dataset(std::move(records));
}

/// Plan whose Filter lies about its selectivity: the hint promises `hint`,
/// the predicate actually keeps everything. A pinned relsim prefix forces a
/// stage boundary after the filter so the executor has a mid-flight
/// decision point.
struct LyingPlan {
  Plan plan;
  EnumeratorOptions options;
};

std::unique_ptr<LyingPlan> BuildLyingPlan(int rows, double hint) {
  auto built = std::make_unique<LyingPlan>();
  auto* src = built->plan.Add<CollectionSourceOp>({}, Numbers(rows));
  PredicateUdf pred;
  pred.fn = [](const Record&) { return true; };  // actually keeps everything
  pred.meta.selectivity = hint;                  // ...but claims otherwise
  auto* filter = built->plan.Add<FilterOp>({src}, pred);
  MapUdf udf;
  udf.fn = [](const Record& r) {
    double x = r[0].ToDoubleOr(0);
    for (int k = 0; k < 200; ++k) x = x * 1.000001 + 0.5;
    return Record({Value(x)});
  };
  udf.meta.cost_factor = 200.0;
  auto* map = built->plan.Add<MapOp>({filter}, udf);
  built->plan.SetSink(built->plan.Add<CollectOp>({map}));
  built->options.pinned_platforms[src->id()] = "relsim";
  built->options.pinned_platforms[filter->id()] = "relsim";
  return built;
}

class AdaptiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Config config;
    ASSERT_TRUE(
        registry_.Register(std::make_unique<JavaSimPlatform>(config)).ok());
    ASSERT_TRUE(
        registry_.Register(std::make_unique<SparkSimPlatform>(config)).ok());
    ASSERT_TRUE(
        registry_.Register(std::make_unique<RelSimPlatform>(config)).ok());
  }

  /// Compiles `plan` the way RheemContext::Compile does (estimates and
  /// enumerator options kept on the execution plan) and runs it on an
  /// executor armed to re-plan with threshold and budget from config.
  Result<ExecutionResult> Run(const Plan& plan,
                              const EnumeratorOptions& options,
                              double threshold = 3.0, int64_t budget = 2) {
    RHEEM_ASSIGN_OR_RETURN(EstimateMap estimates,
                           CardinalityEstimator::Estimate(plan));
    Enumerator enumerator(&registry_, &movement_);
    RHEEM_ASSIGN_OR_RETURN(PlatformAssignment assignment,
                           enumerator.Run(plan, estimates, options));
    RHEEM_ASSIGN_OR_RETURN(ExecutionPlan eplan,
                           StageSplitter::Split(plan, std::move(assignment)));
    eplan.estimates = std::move(estimates);
    eplan.enum_options = options;
    Config config;
    config.SetDouble("executor.reoptimize_threshold", threshold);
    config.SetInt("executor.max_reoptimizations", budget);
    CrossPlatformExecutor executor(config);
    executor.EnableFailover(&registry_, &movement_);
    return executor.Execute(eplan);
  }

  PlatformRegistry registry_;
  MovementCostModel movement_;
};

TEST_F(AdaptiveTest, ExecutesPlainPlanWithoutAdaptation) {
  Plan plan;
  auto* src = plan.Add<CollectionSourceOp>({}, Numbers(100));
  MapUdf udf;
  udf.fn = [](const Record& r) { return Record({Value(r[0].ToInt64Or(0) + 1)}); };
  auto* m = plan.Add<MapOp>({src}, udf);
  plan.SetSink(plan.Add<CollectOp>({m}));
  auto result = Run(plan, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->output.size(), 100u);
  EXPECT_EQ(result->output.at(0)[0], Value(1));
  EXPECT_EQ(result->metrics.reoptimizations, 0);
}

TEST_F(AdaptiveTest, ReoptimizesWhenSelectivityHintIsWrong) {
  auto lying = BuildLyingPlan(60000, /*hint=*/0.0005);
  auto result = Run(lying->plan, lying->options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The filter "estimated" 30 records but produced 60000: one re-plan.
  EXPECT_EQ(result->metrics.reoptimizations, 1);
  ASSERT_EQ(result->decisions.size(), 1u);
  EXPECT_NE(result->decisions[0].find("Filter"), std::string::npos);
  // All records survive the (lying) filter and get mapped.
  EXPECT_EQ(result->output.size(), 60000u);
}

TEST_F(AdaptiveTest, AccurateHintNeedsNoAdaptation) {
  auto honest = BuildLyingPlan(60000, /*hint=*/1.0);
  auto result = Run(honest->plan, honest->options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->metrics.reoptimizations, 0);
  EXPECT_TRUE(result->decisions.empty());
  EXPECT_EQ(result->output.size(), 60000u);
}

TEST_F(AdaptiveTest, InvalidOptionsAreRejectedAtSubmit) {
  Plan plan;
  auto* src = plan.Add<CollectionSourceOp>({}, Numbers(10));
  plan.SetSink(plan.Add<CollectOp>({src}));

  // A threshold <= 1.0 can never be exceeded by the symmetric error ratio
  // (always >= 1): it would silently disable re-planning, so it errors.
  for (double threshold : {1.0, 0.5}) {
    auto r = Run(plan, {}, threshold, /*budget=*/2);
    ASSERT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
    EXPECT_NE(r.status().ToString().find("reoptimize_threshold"),
              std::string::npos);
  }

  auto negative = Run(plan, {}, /*threshold=*/3.0, /*budget=*/-1);
  ASSERT_TRUE(negative.status().IsInvalidArgument())
      << negative.status().ToString();
  EXPECT_NE(negative.status().ToString().find("max_reoptimizations"),
            std::string::npos);

  // Zero stays valid: it means "re-planning off", not a typo.
  EXPECT_TRUE(Run(plan, {}, /*threshold=*/3.0, /*budget=*/0).ok());
}

TEST_F(AdaptiveTest, ExecutorConfigValidationMatchesAdaptiveOptions) {
  // The same knobs are validated on a plain executor that could never
  // re-plan (no failover registry, no estimates on the plan): a bad value
  // is a config typo whether or not re-optimization is armed.
  auto run = [&](double threshold, int64_t budget) {
    Plan plan;
    auto* src = plan.Add<CollectionSourceOp>({}, Numbers(10));
    plan.SetSink(plan.Add<CollectOp>({src}));
    auto estimates = CardinalityEstimator::Estimate(plan).ValueOrDie();
    Enumerator enumerator(&registry_, &movement_);
    auto assignment = enumerator.Run(plan, estimates, {}).ValueOrDie();
    auto eplan = StageSplitter::Split(plan, std::move(assignment)).ValueOrDie();
    Config config;
    config.SetDouble("executor.reoptimize_threshold", threshold);
    config.SetInt("executor.max_reoptimizations", budget);
    CrossPlatformExecutor executor(config);
    return executor.Execute(eplan).status();
  };
  EXPECT_TRUE(run(0.5, 2).IsInvalidArgument());
  EXPECT_TRUE(run(3.0, -1).IsInvalidArgument());
  EXPECT_TRUE(run(3.0, 0).ok());
}

TEST_F(AdaptiveTest, AdaptationRespectsMaxReoptimizations) {
  auto lying = BuildLyingPlan(20000, /*hint=*/0.0001);
  auto result = Run(lying->plan, lying->options, 3.0, /*budget=*/0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->metrics.reoptimizations, 0);
  EXPECT_TRUE(result->decisions.empty());
  EXPECT_EQ(result->output.size(), 20000u);
}

TEST_F(AdaptiveTest, ExecutedWorkIsNotRedone) {
  auto lying = BuildLyingPlan(30000, /*hint=*/0.001);
  auto result = Run(lying->plan, lying->options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->metrics.reoptimizations, 1);
  // The relsim prefix ran once; after re-optimization only the remaining
  // stage(s) execute: total stages executed stays small (prefix + <=2).
  EXPECT_LE(result->metrics.stages_run, 3);
  EXPECT_EQ(result->output.size(), 30000u);
}

TEST_F(AdaptiveTest, ResultMatchesStaticExecutorOutput) {
  auto lying = BuildLyingPlan(5000, /*hint=*/0.001);
  auto adaptive = Run(lying->plan, lying->options);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status().ToString();
  EXPECT_EQ(adaptive->metrics.reoptimizations, 1);

  auto twin = BuildLyingPlan(5000, /*hint=*/0.001);
  auto expected = Run(twin->plan, twin->options, 3.0, /*budget=*/0);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(expected->metrics.reoptimizations, 0);
  ASSERT_EQ(adaptive->output.size(), expected->output.size());
  for (std::size_t i = 0; i < adaptive->output.size(); ++i) {
    EXPECT_EQ(adaptive->output.at(i), expected->output.at(i));
  }
}

}  // namespace
}  // namespace rheem
