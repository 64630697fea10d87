#include "core/executor/executor.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "core/executor/execution_state.h"
#include "core/operators/physical_ops.h"
#include "core/optimizer/enumerator.h"
#include "platforms/javasim/javasim_platform.h"
#include "platforms/sparksim/sparksim_platform.h"

namespace rheem {
namespace {

Dataset Numbers(int n) {
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) records.push_back(Record({Value(i)}));
  return Dataset(std::move(records));
}

MapUdf PlusOne() {
  MapUdf udf;
  udf.fn = [](const Record& r) {
    return Record({Value(r[0].ToInt64Or(0) + 1)});
  };
  return udf;
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : java_(config_), spark_(config_) {}

  ExecutionPlan MakeCrossPlatformPlan(Plan* plan) {
    auto* src = plan->Add<CollectionSourceOp>({}, Numbers(10));
    auto* m1 = plan->Add<MapOp>({src}, PlusOne());
    auto* m2 = plan->Add<MapOp>({m1}, PlusOne());
    auto* sink = plan->Add<CollectOp>({m2});
    plan->SetSink(sink);
    PlatformAssignment a;
    a.by_op = {{src->id(), &java_}, {m1->id(), &java_},
               {m2->id(), &spark_}, {sink->id(), &spark_}};
    return StageSplitter::Split(*plan, std::move(a)).ValueOrDie();
  }

  Config config_;
  JavaSimPlatform java_;
  SparkSimPlatform spark_;
};

TEST_F(ExecutorTest, RunsTwoStagePlanAndMovesData) {
  Plan plan;
  ExecutionPlan eplan = MakeCrossPlatformPlan(&plan);
  CrossPlatformExecutor executor;
  auto result = executor.Execute(eplan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->output.size(), 10u);
  EXPECT_EQ(result->output.at(0)[0], Value(2));  // 0 +1 +1
  EXPECT_EQ(result->metrics.stages_run, 2);
  EXPECT_EQ(result->metrics.moved_records, 10);
  EXPECT_GT(result->metrics.moved_bytes, 0);
}

TEST_F(ExecutorTest, RetriesTransientFailures) {
  Plan plan;
  ExecutionPlan eplan = MakeCrossPlatformPlan(&plan);
  CrossPlatformExecutor executor;
  // First two attempts of stage 0 fail; the third succeeds.
  FaultInjector::Global().Clear();
  FaultInjector::Global().Seed(1);
  ASSERT_TRUE(FaultInjector::Global()
                  .AddSpec("executor.stage_attempt",
                           FaultTrigger::EveryK(1, /*max_fires=*/2),
                           "stage=0,")
                  .ok());
  FaultInjector::Global().set_enabled(true);
  ExecutionMonitor monitor;
  executor.set_monitor(&monitor);
  auto result = executor.Execute(eplan);
  FaultInjector::Global().set_enabled(false);
  FaultInjector::Global().Clear();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->metrics.retries, 2);
  EXPECT_EQ(monitor.failures(), 2);
  EXPECT_EQ(result->output.size(), 10u);
  EXPECT_NE(monitor.Report().find("FAIL"), std::string::npos);
}

TEST_F(ExecutorTest, GivesUpAfterMaxRetries) {
  Plan plan;
  ExecutionPlan eplan = MakeCrossPlatformPlan(&plan);
  Config config;
  config.SetInt("executor.max_retries", 1);
  CrossPlatformExecutor executor(config);
  FaultInjector::Global().Clear();
  FaultInjector::Global().Seed(1);
  ASSERT_TRUE(FaultInjector::Global()
                  .AddSpec("executor.stage_attempt", FaultTrigger::EveryK(1))
                  .ok());
  FaultInjector::Global().set_enabled(true);
  auto result = executor.Execute(eplan);
  FaultInjector::Global().set_enabled(false);
  FaultInjector::Global().Clear();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsExecutionError());
  EXPECT_NE(result.status().message().find("after 2 attempt"),
            std::string::npos);
}

TEST_F(ExecutorTest, EmptyPlanRejected) {
  CrossPlatformExecutor executor;
  ExecutionPlan empty;
  EXPECT_TRUE(executor.Execute(empty).status().IsInvalidPlan());
}

TEST_F(ExecutorTest, MonitorRecordsPerStage) {
  Plan plan;
  ExecutionPlan eplan = MakeCrossPlatformPlan(&plan);
  CrossPlatformExecutor executor;
  ExecutionMonitor monitor;
  executor.set_monitor(&monitor);
  ASSERT_TRUE(executor.Execute(eplan).ok());
  ASSERT_EQ(monitor.records().size(), 2u);
  EXPECT_EQ(monitor.records()[0].platform, "javasim");
  EXPECT_EQ(monitor.records()[1].platform, "sparksim");
  EXPECT_TRUE(monitor.records()[0].succeeded);
  EXPECT_EQ(monitor.records()[1].output_records, 10);
}

TEST_F(ExecutorTest, DagParallelMatchesSerialOnDiamondPlan) {
  // src -> {m1, m2} -> union: the two middle stages are independent, so the
  // DAG scheduler may run them concurrently; results must match serial mode.
  auto build = [this](Plan* plan) {
    auto* src = plan->Add<CollectionSourceOp>({}, Numbers(10));
    auto* m1 = plan->Add<MapOp>({src}, PlusOne());
    MapUdf times2;
    times2.fn = [](const Record& r) {
      return Record({Value(r[0].ToInt64Or(0) * 2)});
    };
    auto* m2 = plan->Add<MapOp>({src}, times2);
    auto* u = plan->Add<UnionOp>(std::vector<Operator*>{m1, m2});
    auto* sink = plan->Add<CollectOp>({u});
    plan->SetSink(sink);
    PlatformAssignment a;
    a.by_op = {{src->id(), &java_}, {m1->id(), &java_},
               {m2->id(), &spark_}, {u->id(), &java_},
               {sink->id(), &java_}};
    return StageSplitter::Split(*plan, std::move(a)).ValueOrDie();
  };

  auto collect_sorted = [](const ExecutionResult& r) {
    std::vector<int64_t> values;
    for (const Record& rec : r.output.records()) {
      values.push_back(rec[0].ToInt64Or(-1));
    }
    std::sort(values.begin(), values.end());
    return values;
  };

  Plan parallel_plan;
  ExecutionPlan parallel_eplan = build(&parallel_plan);
  CrossPlatformExecutor parallel_exec;  // executor.parallel_stages defaults on
  auto parallel_result = parallel_exec.Execute(parallel_eplan);
  ASSERT_TRUE(parallel_result.ok()) << parallel_result.status().ToString();

  Plan serial_plan;
  ExecutionPlan serial_eplan = build(&serial_plan);
  Config config;
  config.SetBool("executor.parallel_stages", false);
  CrossPlatformExecutor serial_exec(config);
  auto serial_result = serial_exec.Execute(serial_eplan);
  ASSERT_TRUE(serial_result.ok()) << serial_result.status().ToString();

  EXPECT_EQ(parallel_result->output.size(), 20u);
  EXPECT_EQ(collect_sorted(*parallel_result), collect_sorted(*serial_result));
  EXPECT_EQ(parallel_result->metrics.stages_run,
            serial_result->metrics.stages_run);
}

TEST_F(ExecutorTest, CancelledTokenStopsBeforeFirstStage) {
  Plan plan;
  ExecutionPlan eplan = MakeCrossPlatformPlan(&plan);
  CrossPlatformExecutor executor;
  CancelToken token;
  token.Cancel();
  StopCondition stop;
  stop.token = &token;
  executor.set_stop_condition(stop);
  auto result = executor.Execute(eplan);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
}

TEST_F(ExecutorTest, ExpiredDeadlineStopsExecution) {
  Plan plan;
  ExecutionPlan eplan = MakeCrossPlatformPlan(&plan);
  CrossPlatformExecutor executor;
  StopCondition stop;
  stop.has_deadline = true;
  stop.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);
  executor.set_stop_condition(stop);
  auto result = executor.Execute(eplan);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
}

TEST(ExecutionMonitorTest, ConcurrentRecordStageIsSafe) {
  ExecutionMonitor monitor;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&monitor, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        ExecutionMonitor::StageRecord record;
        record.stage_id = t;
        record.platform = "javasim";
        record.succeeded = (i % 2 == 0);
        record.error = record.succeeded ? "" : "boom";
        monitor.RecordStage(std::move(record));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(monitor.records().size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(monitor.failures(), kThreads * kPerThread / 2);
  EXPECT_FALSE(monitor.Report().empty());
}

TEST(ExecutionStateTest, PutGetEvict) {
  ExecutionState state;
  EXPECT_FALSE(state.Get(1).ok());
  state.Put(1, Numbers(3));
  ASSERT_TRUE(state.Has(1));
  EXPECT_EQ((*state.Get(1))->size(), 3u);
  state.Evict(1);
  EXPECT_FALSE(state.Has(1));
  EXPECT_TRUE(state.Get(1).status().IsExecutionError());
}

}  // namespace
}  // namespace rheem
