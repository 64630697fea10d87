#include "core/service/job_server.h"

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/trace.h"
#include "core/api/data_quanta.h"
#include "core/service/plan_cache.h"
#include "core/sql/sql.h"
#include "storage/hot_buffer.h"
#include "storage/mem_column_store.h"

namespace rheem {
namespace {

Dataset Numbers(int n) {
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) records.push_back(Record({Value(i)}));
  return Dataset(std::move(records));
}

/// Builds `n -> n * 2` over Numbers(count); optionally sleeping per record
/// so a job occupies its worker long enough to observe queueing.
Plan* BuildDoublerPlan(RheemJob* job, int count, int sleep_ms_per_record = 0) {
  auto quanta = job->LoadCollection(Numbers(count))
                    .Map([sleep_ms_per_record](const Record& r) {
                      if (sleep_ms_per_record > 0) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(sleep_ms_per_record));
                      }
                      return Record({Value(r[0].ToInt64Or(0) * 2)});
                    });
  auto sealed = quanta.Seal();
  EXPECT_TRUE(sealed.ok()) << sealed.status().ToString();
  return sealed.ValueOrDie();
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(ctx_.RegisterDefaultPlatforms().ok()); }

  RheemContext ctx_;
};

TEST_F(ServiceTest, SubmitAndWaitReturnsResult) {
  RheemJob job(&ctx_);
  Plan* plan = BuildDoublerPlan(&job, 10);
  auto handle = ctx_.Submit(*plan);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto result = handle->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->output.size(), 10u);
  EXPECT_EQ(handle->state(), JobState::kSucceeded);
  EXPECT_TRUE(handle->done());
}

TEST_F(ServiceTest, SixteenConcurrentJobsAllSucceed) {
  Config config;
  config.SetInt("service.max_concurrent", 4);
  config.SetInt("service.queue_depth", 32);
  RheemContext ctx(config);
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());

  std::vector<std::unique_ptr<RheemJob>> jobs;
  std::vector<JobHandle> handles;
  for (int i = 0; i < 16; ++i) {
    jobs.push_back(std::make_unique<RheemJob>(&ctx));
    Plan* plan = BuildDoublerPlan(jobs.back().get(), 50);
    auto handle = ctx.Submit(*plan);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(*handle);
  }
  for (JobHandle& h : handles) {
    auto result = h.Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->output.size(), 50u);
    EXPECT_EQ(h.state(), JobState::kSucceeded);
  }
  JobServerStats stats = ctx.job_server().stats();
  EXPECT_EQ(stats.submitted, 16);
  EXPECT_EQ(stats.succeeded, 16);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
}

TEST_F(ServiceTest, FullQueueRejectsWithResourceExhausted) {
  Config config;
  config.SetInt("service.max_concurrent", 1);
  config.SetInt("service.queue_depth", 1);
  RheemContext ctx(config);
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());

  // One slow job occupies the only worker; one more fits in the queue; the
  // rest must be rejected with backpressure, not queued unboundedly.
  RheemJob slow_job(&ctx);
  Plan* slow = BuildDoublerPlan(&slow_job, 20, /*sleep_ms_per_record=*/25);
  auto running = ctx.Submit(*slow);
  ASSERT_TRUE(running.ok());

  RheemJob fill_job(&ctx);
  Plan* fill = BuildDoublerPlan(&fill_job, 5);
  bool saw_rejection = false;
  JobHandle queued;
  for (int i = 0; i < 50 && !saw_rejection; ++i) {
    auto h = ctx.Submit(*fill);
    if (h.ok()) {
      queued = *h;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    } else {
      EXPECT_TRUE(h.status().IsResourceExhausted()) << h.status().ToString();
      saw_rejection = true;
    }
  }
  EXPECT_TRUE(saw_rejection);
  EXPECT_GE(ctx.job_server().stats().rejected, 1);
  ASSERT_TRUE(running->Wait().ok());
  if (queued.valid()) {
    EXPECT_TRUE(queued.Wait().ok());
  }
}

TEST_F(ServiceTest, PlanCacheHitsOnResubmission) {
  RheemJob job(&ctx_);
  Plan* plan = BuildDoublerPlan(&job, 10);
  for (int round = 0; round < 3; ++round) {
    auto handle = ctx_.Submit(*plan);
    ASSERT_TRUE(handle.ok());
    auto result = handle->Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->output.size(), 10u);
  }
  PlanCache::Stats cache = ctx_.job_server().stats().cache;
  EXPECT_EQ(cache.misses, 1);
  EXPECT_EQ(cache.hits, 2);
  EXPECT_EQ(cache.size, 1u);
}

TEST_F(ServiceTest, PlanCacheDistinguishesSourceData) {
  RheemJob job_a(&ctx_);
  RheemJob job_b(&ctx_);
  Plan* a = BuildDoublerPlan(&job_a, 10);
  Plan* b = BuildDoublerPlan(&job_b, 11);  // same shape, different data
  auto ha = ctx_.Submit(*a);
  ASSERT_TRUE(ha.ok());
  ASSERT_TRUE(ha->Wait().ok());
  auto hb = ctx_.Submit(*b);
  ASSERT_TRUE(hb.ok());
  auto rb = hb->Wait();
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb->output.size(), 11u);  // must NOT reuse plan a's embedded data
  PlanCache::Stats cache = ctx_.job_server().stats().cache;
  EXPECT_EQ(cache.misses, 2);
  EXPECT_EQ(cache.hits, 0);
}

TEST_F(ServiceTest, OptingOutOfPlanCacheCompilesFresh) {
  RheemJob job(&ctx_);
  Plan* plan = BuildDoublerPlan(&job, 10);
  JobOptions options;
  options.use_plan_cache = false;
  for (int round = 0; round < 2; ++round) {
    auto handle = ctx_.Submit(*plan, options);
    ASSERT_TRUE(handle.ok());
    ASSERT_TRUE(handle->Wait().ok());
  }
  PlanCache::Stats cache = ctx_.job_server().stats().cache;
  EXPECT_EQ(cache.hits, 0);
  EXPECT_EQ(cache.misses, 0);
}

TEST_F(ServiceTest, CancelledQueuedJobNeverRuns) {
  Config config;
  config.SetInt("service.max_concurrent", 1);
  RheemContext ctx(config);
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());

  RheemJob slow_job(&ctx);
  Plan* slow = BuildDoublerPlan(&slow_job, 20, /*sleep_ms_per_record=*/10);
  auto running = ctx.Submit(*slow);
  ASSERT_TRUE(running.ok());

  RheemJob victim_job(&ctx);
  Plan* victim_plan = BuildDoublerPlan(&victim_job, 5);
  auto victim = ctx.Submit(*victim_plan);
  ASSERT_TRUE(victim.ok());
  victim->Cancel();

  auto result = victim->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_EQ(victim->state(), JobState::kCancelled);
  ASSERT_TRUE(running->Wait().ok());
}

TEST_F(ServiceTest, DeadlineExpiredInQueueFailsWithDeadlineExceeded) {
  Config config;
  config.SetInt("service.max_concurrent", 1);
  RheemContext ctx(config);
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());

  RheemJob slow_job(&ctx);
  Plan* slow = BuildDoublerPlan(&slow_job, 20, /*sleep_ms_per_record=*/15);
  auto running = ctx.Submit(*slow);
  ASSERT_TRUE(running.ok());

  RheemJob late_job(&ctx);
  Plan* late_plan = BuildDoublerPlan(&late_job, 5);
  JobOptions options;
  options.deadline = std::chrono::milliseconds(1);  // expires while queued
  auto late = ctx.Submit(*late_plan, options);
  ASSERT_TRUE(late.ok());

  auto result = late->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status().ToString();
  EXPECT_EQ(late->state(), JobState::kFailed);
  ASSERT_TRUE(running->Wait().ok());
}

// Regression: a negative deadline budget is already expired at Submit().
// It used to slip through the `count() > 0` guard and run with *no*
// deadline; it must instead resolve DeadlineExceeded immediately — never
// queued, never compiled (no compile span), no server stats drift.
TEST_F(ServiceTest, AlreadyExpiredDeadlineResolvesImmediatelyWithoutCompile) {
  Tracer::Global().Clear();
  Tracer::Global().set_enabled(true);

  RheemJob job(&ctx_);
  Plan* plan = BuildDoublerPlan(&job, 5);
  JobOptions options;
  options.deadline = std::chrono::milliseconds(-1);  // expired before Submit
  auto handle = ctx_.Submit(*plan, options);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  // Resolved synchronously: no queue wait, done before any Wait().
  EXPECT_TRUE(handle->done());
  auto result = handle->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_EQ(handle->state(), JobState::kFailed);

  auto stats = ctx_.job_server().stats();
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.failed, 1);

  // The job was never compiled or run: no compile (or job) span exists.
  for (const auto& span : Tracer::Global().Spans()) {
    EXPECT_NE(span.name, "compile") << "expired job emitted a compile span";
    EXPECT_NE(span.name, "job") << "expired job emitted a job span";
  }
  Tracer::Global().set_enabled(false);
  Tracer::Global().Clear();
}

TEST_F(ServiceTest, ShutdownDrainsQueuedJobs) {
  Config config;
  config.SetInt("service.max_concurrent", 2);
  RheemContext ctx(config);
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());

  std::vector<std::unique_ptr<RheemJob>> jobs;
  std::vector<JobHandle> handles;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(std::make_unique<RheemJob>(&ctx));
    Plan* plan = BuildDoublerPlan(jobs.back().get(), 10,
                                  /*sleep_ms_per_record=*/2);
    auto handle = ctx.Submit(*plan);
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }
  ctx.job_server().Shutdown(/*drain=*/true);
  for (JobHandle& h : handles) {
    EXPECT_TRUE(h.done());
    EXPECT_TRUE(h.Wait().ok());
    EXPECT_EQ(h.state(), JobState::kSucceeded);
  }
  // After shutdown, admissions are refused.
  RheemJob post_job(&ctx);
  Plan* post = BuildDoublerPlan(&post_job, 3);
  auto refused = ctx.Submit(*post);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsCancelled());
}

TEST_F(ServiceTest, ShutdownWithoutDrainCancelsInFlight) {
  Config config;
  config.SetInt("service.max_concurrent", 1);
  RheemContext ctx(config);
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());

  std::vector<std::unique_ptr<RheemJob>> jobs;
  std::vector<JobHandle> handles;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(std::make_unique<RheemJob>(&ctx));
    Plan* plan = BuildDoublerPlan(jobs.back().get(), 20,
                                  /*sleep_ms_per_record=*/10);
    auto handle = ctx.Submit(*plan);
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }
  ctx.job_server().Shutdown(/*drain=*/false);
  int cancelled = 0;
  for (JobHandle& h : handles) {
    EXPECT_TRUE(h.done());  // every admitted handle resolves
    auto result = h.Wait();
    if (!result.ok() && result.status().IsCancelled()) ++cancelled;
  }
  EXPECT_GE(cancelled, 1);  // the queued tail never ran
}

TEST_F(ServiceTest, StatsCountTerminalStates) {
  RheemJob job(&ctx_);
  Plan* plan = BuildDoublerPlan(&job, 10);
  auto handle = ctx_.Submit(*plan);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(handle->Wait().ok());
  JobServerStats stats = ctx_.job_server().stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.succeeded, 1);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.cancelled, 0);
}

TEST_F(ServiceTest, ResultCacheReusesStagesAcrossSubmissions) {
  RheemJob job(&ctx_);
  Plan* plan = BuildDoublerPlan(&job, 10);
  auto cold = ctx_.Submit(*plan);
  ASSERT_TRUE(cold.ok());
  auto cold_result = cold->Wait();
  ASSERT_TRUE(cold_result.ok()) << cold_result.status().ToString();
  EXPECT_EQ(cold_result->metrics.stages_reused, 0);
  ASSERT_GT(cold_result->metrics.stages_run, 0);

  auto warm = ctx_.Submit(*plan);
  ASSERT_TRUE(warm.ok());
  auto warm_result = warm->Wait();
  ASSERT_TRUE(warm_result.ok()) << warm_result.status().ToString();
  // Every stage of the warm run is served from the result cache.
  EXPECT_EQ(warm_result->metrics.stages_run, 0);
  EXPECT_EQ(warm_result->metrics.stages_reused,
            cold_result->metrics.stages_run);
  ASSERT_EQ(warm_result->output.size(), cold_result->output.size());
  for (std::size_t i = 0; i < warm_result->output.size(); ++i) {
    EXPECT_EQ(warm_result->output.at(i), cold_result->output.at(i));
  }
  ResultCache::Stats stats = ctx_.job_server().stats().result_cache;
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.inserts, 0);
}

std::multiset<std::string> Rows(const std::vector<Record>& records) {
  std::multiset<std::string> out;
  for (const Record& r : records) out.insert(r.ToString());
  return out;
}

/// Catalog with one table t(k, v, w) whose SUM and MAX per k differ and
/// whose v and w orders differ.
class ServiceSqlTwinTest : public ServiceTest {
 protected:
  void SetUp() override {
    ServiceTest::SetUp();
    Dataset t({Record({Value(0), Value(1), Value(40)}),
               Record({Value(0), Value(5), Value(10)}),
               Record({Value(1), Value(2), Value(30)}),
               Record({Value(1), Value(7), Value(20)})},
              Schema::Of({{"k", ValueType::kInt64},
                          {"v", ValueType::kInt64},
                          {"w", ValueType::kInt64}}));
    ASSERT_TRUE(catalog_.Register("t", t).ok());
  }

  /// Serves `first` and then `second` through the context's JobServer, with
  /// the plan cache and the result cache on; returns the rows of `second`.
  std::multiset<std::string> ServeTwins(const std::string& first,
                                        const std::string& second) {
    std::vector<Record> rows;
    for (const std::string* text : {&first, &second}) {
      auto handle = ctx_.SubmitSql(*text, catalog_);
      EXPECT_TRUE(handle.ok()) << handle.status().ToString();
      if (!handle.ok()) return {};
      auto result = handle->Wait();
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (!result.ok()) return {};
      rows = result->output.records();
    }
    return Rows(rows);
  }

  sql::InMemoryCatalog catalog_;
};

TEST_F(ServiceSqlTwinTest, WarmCachesKeepAggregateKindsApart) {
  EXPECT_EQ(ServeTwins("SELECT k, SUM(v) AS a FROM t GROUP BY k",
                       "SELECT k, MAX(v) AS a FROM t GROUP BY k"),
            Rows({Record({Value(0), Value(5)}), Record({Value(1), Value(7)})}));
}

TEST_F(ServiceSqlTwinTest, WarmCachesKeepOrderKeysApart) {
  EXPECT_EQ(ServeTwins("SELECT k, v, w FROM t ORDER BY v LIMIT 3",
                       "SELECT k, v, w FROM t ORDER BY w LIMIT 3"),
            Rows({Record({Value(0), Value(5), Value(10)}),
                  Record({Value(1), Value(7), Value(20)}),
                  Record({Value(1), Value(2), Value(30)})}));
}

TEST_F(ServiceTest, OptingOutOfResultCacheRunsEveryStage) {
  RheemJob job(&ctx_);
  Plan* plan = BuildDoublerPlan(&job, 10);
  JobOptions options;
  options.use_result_cache = false;
  for (int round = 0; round < 2; ++round) {
    auto handle = ctx_.Submit(*plan, options);
    ASSERT_TRUE(handle.ok());
    auto result = handle->Wait();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->metrics.stages_reused, 0);
    EXPECT_GT(result->metrics.stages_run, 0);
  }
  ResultCache::Stats stats = ctx_.job_server().stats().result_cache;
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.inserts, 0);
}

TEST_F(ServiceTest, ZeroResultCacheCapacityDisablesReuse) {
  Config config;
  config.SetInt("executor.result_cache_capacity_bytes", 0);
  RheemContext ctx(config);
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  RheemJob job(&ctx);
  Plan* plan = BuildDoublerPlan(&job, 10);
  for (int round = 0; round < 2; ++round) {
    auto handle = ctx.Submit(*plan);
    ASSERT_TRUE(handle.ok());
    auto result = handle->Wait();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->metrics.stages_reused, 0);
    EXPECT_GT(result->metrics.stages_run, 0);
  }
  EXPECT_EQ(ctx.job_server().stats().result_cache.capacity_bytes, 0);
}

TEST_F(ServiceTest, StorageWriteNeverLeavesStaleReads) {
  // The acceptance path for the reuse layer: a dataset flows from storage
  // through the hot buffer into jobs served by the result cache; rewriting
  // it through the manager must invalidate everything in between. The
  // manager is declared before the context: AttachStorage borrows it for
  // the context's lifetime.
  storage::StorageManager manager;
  ASSERT_TRUE(
      manager.RegisterBackend(std::make_unique<storage::MemColumnStore>())
          .ok());
  ASSERT_TRUE(manager.Put("mem-column", "nums", Numbers(10)).ok());
  RheemContext ctx;
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  ASSERT_TRUE(ctx.AttachStorage(&manager).ok());

  auto build = [&](RheemJob* job) -> Plan* {
    auto loaded = job->LoadFromStorage("nums");
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    auto sealed = loaded
                      ->Map([](const Record& r) {
                        return Record({Value(r[0].ToInt64Or(0) * 2)});
                      })
                      .Seal();
    EXPECT_TRUE(sealed.ok());
    return sealed.ValueOrDie();
  };

  RheemJob job1(&ctx);
  auto h1 = ctx.Submit(*build(&job1));
  ASSERT_TRUE(h1.ok());
  auto r1 = h1->Wait();
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->output.at(0)[0], Value(0));  // 0 * 2
  EXPECT_EQ(ctx.hot_buffer()->misses(), 1);

  // Same submission again: hot buffer serves the parse, result cache serves
  // the stages.
  RheemJob job2(&ctx);
  auto h2 = ctx.Submit(*build(&job2));
  ASSERT_TRUE(h2.ok());
  auto r2 = h2->Wait();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(ctx.hot_buffer()->hits(), 1);
  EXPECT_GT(r2->metrics.stages_reused, 0);

  // Rewrite through the manager: the buffered entry drops, and the new
  // content hash keys different sub-plan fingerprints — no stale result can
  // surface through either cache.
  std::vector<Record> fresh;
  for (int i = 0; i < 10; ++i) fresh.push_back(Record({Value(i + 100)}));
  ASSERT_TRUE(
      manager.Put("mem-column", "nums", Dataset(std::move(fresh))).ok());
  EXPECT_EQ(ctx.hot_buffer()->resident_entries(), 0u);

  RheemJob job3(&ctx);
  auto h3 = ctx.Submit(*build(&job3));
  ASSERT_TRUE(h3.ok());
  auto r3 = h3->Wait();
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->metrics.stages_reused, 0);
  EXPECT_EQ(r3->output.at(0)[0], Value(200));  // 100 * 2, not a stale 0
}

TEST(PlanCacheTest, LruEvictsOldestAndCountsStats) {
  PlanCache cache(2);
  auto job1 = std::make_shared<const CompiledJob>();
  auto job2 = std::make_shared<const CompiledJob>();
  auto job3 = std::make_shared<const CompiledJob>();
  EXPECT_EQ(cache.Lookup(1), nullptr);  // miss
  cache.Insert(1, job1);
  cache.Insert(2, job2);
  EXPECT_EQ(cache.Lookup(1), job1);  // hit refreshes recency
  cache.Insert(3, job3);             // evicts 2 (LRU), not 1
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_EQ(cache.Lookup(1), job1);
  EXPECT_EQ(cache.Lookup(3), job3);
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);
  cache.Clear();
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(PlanCacheTest, ZeroCapacityDisables) {
  PlanCache cache(0);
  cache.Insert(7, std::make_shared<const CompiledJob>());
  EXPECT_EQ(cache.Lookup(7), nullptr);
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(PlanCacheTest, ClearResetsStatsButKeepsLifetimeTotals) {
  PlanCache cache(2);
  auto job = std::make_shared<const CompiledJob>();
  EXPECT_EQ(cache.Lookup(1), nullptr);  // miss
  cache.Insert(1, job);
  EXPECT_EQ(cache.Lookup(1), job);  // hit
  cache.Clear();
  PlanCache::Stats cleared = cache.stats();
  // Post-clear stats describe only post-clear traffic...
  EXPECT_EQ(cleared.hits, 0);
  EXPECT_EQ(cleared.misses, 0);
  EXPECT_EQ(cleared.size, 0u);
  // ...while the lifetime totals keep the pre-clear history.
  EXPECT_EQ(cleared.lifetime_hits, 1);
  EXPECT_EQ(cleared.lifetime_misses, 1);
  EXPECT_EQ(cache.Lookup(1), nullptr);  // post-clear miss
  PlanCache::Stats after = cache.stats();
  EXPECT_EQ(after.hits, 0);
  EXPECT_EQ(after.misses, 1);
  EXPECT_EQ(after.lifetime_hits, 1);
  EXPECT_EQ(after.lifetime_misses, 2);
}

}  // namespace
}  // namespace rheem
