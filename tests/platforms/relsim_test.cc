#include "platforms/relsim/relsim_platform.h"

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "core/optimizer/stage_splitter.h"
#include "platforms/javasim/javasim_platform.h"

namespace rheem {
namespace {

TEST(RelSimPlatformTest, SupportsRelationalSubsetOnly) {
  Config config;
  RelSimPlatform rel(config);
  CountOp count;
  CrossProductOp cross;
  EXPECT_TRUE(rel.Supports(count));
  EXPECT_TRUE(rel.Supports(cross));
  MapUdf udf;
  udf.fn = [](const Record& r) { return r; };
  MapOp map(udf);
  EXPECT_FALSE(rel.Supports(map));
  SampleOp sample(0.5, 1);
  EXPECT_FALSE(rel.Supports(sample));
  IEJoinOp iejoin(IEJoinSpec{});
  EXPECT_FALSE(rel.Supports(iejoin));
}

TEST(RelSimPlatformTest, ExecutesRelationalStage) {
  Config config;
  RelSimPlatform rel(config);
  Plan plan;
  std::vector<Record> rows;
  for (int i = 0; i < 20; ++i) rows.push_back(Record({Value(i % 4), Value(i)}));
  auto* src = plan.Add<CollectionSourceOp>({}, Dataset(std::move(rows)));
  KeyUdf key;
  key.fn = [](const Record& r) { return r[0]; };
  ReduceUdf red;
  red.fn = [](const Record& a, const Record& b) {
    return Record({a[0], Value(a[1].ToInt64Or(0) + b[1].ToInt64Or(0))});
  };
  auto* agg = plan.Add<ReduceByKeyOp>({src}, key, red);
  auto* sink = plan.Add<CollectOp>({agg});
  plan.SetSink(sink);
  PlatformAssignment a;
  a.by_op = {{src->id(), &rel}, {agg->id(), &rel}, {sink->id(), &rel}};
  auto eplan = StageSplitter::Split(plan, std::move(a)).ValueOrDie();
  ExecutionMetrics metrics;
  auto out = rel.ExecuteStage(eplan.stages[0], {}, &metrics);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[0].size(), 4u);
  EXPECT_GT(metrics.sim_overhead_micros, 0);
}

// A boundary input enters relsim through the columnar Batch format; one that
// Batch cannot hold stays as rows and is counted as a fallback. Either way
// the stage sees exactly the records it was given.
TEST(RelSimPlatformTest, IngestRoundTripsThroughColumnarFormat) {
  Config config;
  JavaSimPlatform java(config);
  RelSimPlatform rel(config);
  Plan plan;
  auto* src = plan.Add<CollectionSourceOp>({}, Dataset());
  auto* sink = plan.Add<CollectOp>({src});
  plan.SetSink(sink);
  PlatformAssignment a;
  a.by_op = {{src->id(), &java}, {sink->id(), &rel}};
  auto eplan = StageSplitter::Split(plan, std::move(a)).ValueOrDie();
  const Stage* rel_stage = nullptr;
  for (const Stage& s : eplan.stages) {
    if (s.platform() == &rel) rel_stage = &s;
  }
  ASSERT_NE(rel_stage, nullptr);

  MetricsRegistry& registry = MetricsRegistry::Global();
  const bool metrics_were_enabled = registry.enabled();
  registry.set_enabled(true);
  struct Ingested {
    Dataset out;
    int64_t conversions = 0;
    int64_t fallbacks = 0;
  };
  auto ingest = [&](const Dataset& in) {
    const MetricsSnapshot before = registry.Snapshot();
    ExecutionMetrics metrics;
    auto out = rel.ExecuteStage(*rel_stage, {{src->id(), &in}}, &metrics);
    const MetricsSnapshot after = registry.Snapshot();
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    Ingested r;
    if (out.ok()) r.out = std::move((*out)[0]);
    r.conversions = after.counter("batch.conversions_total") -
                    before.counter("batch.conversions_total");
    r.fallbacks = after.counter("batch.fallbacks_total") -
                  before.counter("batch.fallbacks_total");
    return r;
  };

  Dataset columnar(std::vector<Record>{Record({Value(1), Value("a")}),
                                       Record({Value(2), Value("b")})});
  Ingested batched = ingest(columnar);
  ASSERT_EQ(batched.out.size(), 2u);
  EXPECT_EQ(batched.out.at(1), columnar.at(1));
  EXPECT_EQ(batched.conversions, 2);  // FromDataset + ToDataset
  EXPECT_EQ(batched.fallbacks, 0);

  // A double_list cell has no columnar representation.
  Dataset rows(std::vector<Record>{
      Record({Value(1), Value(std::vector<double>{0.5, 1.5})}),
      Record({Value(2), Value(std::vector<double>{})})});
  Ingested fallback = ingest(rows);
  ASSERT_EQ(fallback.out.size(), 2u);
  EXPECT_EQ(fallback.out.at(0), rows.at(0));
  EXPECT_EQ(fallback.out.at(1), rows.at(1));
  EXPECT_EQ(fallback.conversions, 0);
  EXPECT_EQ(fallback.fallbacks, 1);
  registry.set_enabled(metrics_were_enabled);
}

}  // namespace
}  // namespace rheem
