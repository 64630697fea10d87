// Randomized differential testing of the whole compilation stack: randomly
// generated dataflow pipelines are executed with the multi-platform optimizer
// free to choose (and split) platforms, forced onto javasim, forced onto
// sparksim, and — where the plan is expressible — forced onto relsim. All
// results must be bag-equal: the platform-independence contract under
// thousands of operator combinations no hand-written test would cover.
//
// Every divergence message carries the plan's tape seed. To replay one plan,
// re-run the test with RHEEM_FUZZ_SEED=<seed> (one round, that exact plan).
// CI rotates coverage across runs via RHEEM_FUZZ_SEED_OFFSET, which shifts
// the per-shard base seeds without touching the generator.

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/api/data_quanta.h"
#include "core/operators/kernels.h"
#include "core/service/job_server.h"
#include "core/sql/sql.h"
#include "random_plans.h"

namespace rheem {
namespace {

using testutil::AsMultiset;
using testutil::RandomPairs;
using testutil::RandomPipeline;

uint64_t EnvSeedOffset() { return testutil::EnvU64("RHEEM_FUZZ_SEED_OFFSET"); }

bool EnvReplaySeed(uint64_t* seed) {
  return testutil::EnvReplaySeed("RHEEM_FUZZ_SEED", seed);
}

/// Differential suites compare repeated runs of one plan, so the shared
/// context must not learn between them: a statistics-catalog hit on the
/// second compilation could legally change the platform assignment and break
/// the "same plan, same stages" premise the oracles rest on. The adaptive
/// differential below exercises the learning/re-optimization machinery with
/// per-run contexts instead.
inline Config NoLearningConfig() {
  Config config;
  config.SetBool("stats.enabled", false);
  return config;
}

class FuzzPlansTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { ASSERT_TRUE(ctx_.RegisterDefaultPlatforms().ok()); }
  RheemContext ctx_{NoLearningConfig()};
};

// 16 shards x 32 rounds = 512 random plans, each executed on every backend.
TEST_P(FuzzPlansTest, DifferentialBackendsAgree) {
  uint64_t replay = 0;
  const bool has_replay = EnvReplaySeed(&replay);
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 1 + EnvSeedOffset());
  const int rounds = has_replay ? 1 : 32;
  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = has_replay ? replay : rng.NextU64();
    // Build from the same random tape once per execution mode.
    auto run = [&](const std::string& force) {
      Rng tape(seed);
      RheemJob job(&ctx_);
      job.options().force_platform = force;
      DataQuanta q = job.LoadCollection(RandomPairs(&tape, 200));
      q = RandomPipeline(&tape, &job, q);
      return q.Collect();
    };
    auto reference = run("javasim");
    ASSERT_TRUE(reference.ok())
        << "javasim failed; replay with RHEEM_FUZZ_SEED=" << seed << ": "
        << reference.status().ToString();
    const auto expect = AsMultiset(*reference);

    for (const char* force : {"", "sparksim"}) {
      auto got = run(force);
      ASSERT_TRUE(got.ok())
          << "backend '" << force
          << "' failed; replay with RHEEM_FUZZ_SEED=" << seed << ": "
          << got.status().ToString();
      EXPECT_EQ(AsMultiset(*got), expect)
          << "backend '" << force
          << "' diverged; replay with RHEEM_FUZZ_SEED=" << seed;
    }

    // relsim covers a relational subset; a plan it cannot express skips
    // (Unsupported from enumeration), but an execution failure or a result
    // divergence on an expressible plan is a bug.
    auto rel = run("relsim");
    if (rel.ok()) {
      EXPECT_EQ(AsMultiset(*rel), expect)
          << "backend 'relsim' diverged; replay with RHEEM_FUZZ_SEED=" << seed;
    } else {
      ASSERT_TRUE(rel.status().IsUnsupported())
          << "backend 'relsim' failed (not a mere expressibility skip); "
          << "replay with RHEEM_FUZZ_SEED=" << seed << ": "
          << rel.status().ToString();
    }
  }
}

// Reuse-differential mode: every random plan runs three times against one
// JobServer — once with the result cache opted out (the reference), once
// cold (populating the cache), once warm (served from it). All three must be
// bag-equal: a cache-served stage result that differs from the computed one
// is a reuse bug, not a legal divergence. 16 shards x 32 rounds = 512 plans.
TEST_P(FuzzPlansTest, ReuseDifferentialColdWarmAgree) {
  uint64_t replay = 0;
  const bool has_replay = EnvReplaySeed(&replay);
  Rng rng(static_cast<uint64_t>(GetParam()) * 15485863 + 5 + EnvSeedOffset());
  const int rounds = has_replay ? 1 : 32;
  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = has_replay ? replay : rng.NextU64();
    // Build from the same random tape once per submission, so the three
    // submissions carry identical plans (and identical fingerprints).
    auto run = [&](bool use_result_cache) {
      Rng tape(seed);
      RheemJob job(&ctx_);
      DataQuanta q = job.LoadCollection(RandomPairs(&tape, 200));
      q = RandomPipeline(&tape, &job, q);
      auto plan = q.Seal();
      EXPECT_TRUE(plan.ok()) << plan.status().ToString();
      JobOptions options;
      options.use_result_cache = use_result_cache;
      auto handle = ctx_.Submit(**plan, options);
      if (!handle.ok()) return Result<ExecutionResult>(handle.status());
      return handle->Wait();
    };
    auto reference = run(/*use_result_cache=*/false);
    ASSERT_TRUE(reference.ok())
        << "reference failed; replay with RHEEM_FUZZ_SEED=" << seed << ": "
        << reference.status().ToString();
    const auto expect = AsMultiset(reference->output);

    auto cold = run(/*use_result_cache=*/true);
    ASSERT_TRUE(cold.ok())
        << "cold run failed; replay with RHEEM_FUZZ_SEED=" << seed << ": "
        << cold.status().ToString();
    EXPECT_EQ(AsMultiset(cold->output), expect)
        << "cold run diverged; replay with RHEEM_FUZZ_SEED=" << seed;

    auto warm = run(/*use_result_cache=*/true);
    ASSERT_TRUE(warm.ok())
        << "warm run failed; replay with RHEEM_FUZZ_SEED=" << seed << ": "
        << warm.status().ToString();
    EXPECT_EQ(AsMultiset(warm->output), expect)
        << "warm run diverged; replay with RHEEM_FUZZ_SEED=" << seed;
    EXPECT_GE(warm->metrics.stages_reused, 1)
        << "warm run reused nothing; replay with RHEEM_FUZZ_SEED=" << seed;
  }
}

// Expression-vs-closure differential mode: the same random pipeline spec is
// realized twice — once through the declarative expression overloads (which
// the optimizer splits, pushes down, batch-evaluates, and fingerprints) and
// once through independently-written closures that never touch the expression
// interpreter. The closure build on javasim is the reference; the declarative
// build must be bag-equal on javasim, the free optimizer, and sparksim, and
// on relsim where expressible. 16 shards x 32 rounds = 512 plans.
TEST_P(FuzzPlansTest, DeclarativeClosureDifferentialAgree) {
  uint64_t replay = 0;
  const bool has_replay = EnvReplaySeed(&replay);
  Rng rng(static_cast<uint64_t>(GetParam()) * 6700417 + 7 + EnvSeedOffset());
  const int rounds = has_replay ? 1 : 32;
  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = has_replay ? replay : rng.NextU64();
    auto run = [&](bool declarative, const std::string& force) {
      Rng tape(seed);
      RheemJob job(&ctx_);
      job.options().force_platform = force;
      DataQuanta q = job.LoadCollection(RandomPairs(&tape, 200));
      q = testutil::RandomExprPipeline(&tape, &job, q, declarative);
      return q.Collect();
    };
    auto reference = run(/*declarative=*/false, "javasim");
    ASSERT_TRUE(reference.ok())
        << "closure reference failed; replay with RHEEM_FUZZ_SEED=" << seed
        << ": " << reference.status().ToString();
    const auto expect = AsMultiset(*reference);

    for (const char* force : {"javasim", "", "sparksim"}) {
      auto got = run(/*declarative=*/true, force);
      ASSERT_TRUE(got.ok())
          << "declarative build on '" << force
          << "' failed; replay with RHEEM_FUZZ_SEED=" << seed << ": "
          << got.status().ToString();
      EXPECT_EQ(AsMultiset(*got), expect)
          << "declarative build on '" << force
          << "' diverged from closure reference; replay with RHEEM_FUZZ_SEED="
          << seed;
    }

    auto rel = run(/*declarative=*/true, "relsim");
    if (rel.ok()) {
      EXPECT_EQ(AsMultiset(*rel), expect)
          << "declarative build on 'relsim' diverged; replay with "
          << "RHEEM_FUZZ_SEED=" << seed;
    } else {
      ASSERT_TRUE(rel.status().IsUnsupported())
          << "declarative build on 'relsim' failed (not a mere "
          << "expressibility skip); replay with RHEEM_FUZZ_SEED=" << seed
          << ": " << rel.status().ToString();
    }
  }
}

// Batch-vs-row differential mode: the same declarative plan is executed with
// the columnar batch kernels enabled and with the process-wide columnar
// switch forced off (every kernel takes its row-at-a-time path). The row
// build on javasim is the
// reference; the columnar build must be bag-equal on javasim, the free
// optimizer, and sparksim. Declarative pipelines are used because they are
// the ones the vectorized evaluator and columnar aggregates actually
// accelerate; the generator's agg step exercises the columnar ReduceByKey
// accumulators specifically. 16 shards x 24 rounds = 384 plans.
TEST_P(FuzzPlansTest, ColumnarRowDifferentialAgree) {
  uint64_t replay = 0;
  const bool has_replay = EnvReplaySeed(&replay);
  Rng rng(static_cast<uint64_t>(GetParam()) * 32452843 + 11 + EnvSeedOffset());
  const int rounds = has_replay ? 1 : 24;
  const bool entry_columnar = kernels::ColumnarEnabled();
  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = has_replay ? replay : rng.NextU64();
    auto run = [&](bool columnar, const std::string& force) {
      kernels::SetColumnarEnabled(columnar);
      Rng tape(seed);
      RheemJob job(&ctx_);
      job.options().force_platform = force;
      DataQuanta q = job.LoadCollection(RandomPairs(&tape, 200));
      q = testutil::RandomExprPipeline(&tape, &job, q, /*declarative=*/true);
      auto out = q.Collect();
      kernels::SetColumnarEnabled(entry_columnar);
      return out;
    };
    auto reference = run(/*columnar=*/false, "javasim");
    ASSERT_TRUE(reference.ok())
        << "row reference failed; replay with RHEEM_FUZZ_SEED=" << seed
        << ": " << reference.status().ToString();
    const auto expect = AsMultiset(*reference);

    for (const char* force : {"javasim", "", "sparksim"}) {
      auto got = run(/*columnar=*/true, force);
      ASSERT_TRUE(got.ok())
          << "columnar build on '" << force
          << "' failed; replay with RHEEM_FUZZ_SEED=" << seed << ": "
          << got.status().ToString();
      EXPECT_EQ(AsMultiset(*got), expect)
          << "columnar build on '" << force
          << "' diverged from row reference; replay with RHEEM_FUZZ_SEED="
          << seed;
    }
  }
}

// SQL-vs-plan differential: each round generates one random query in two
// independent representations — SQL text compiled through the frontend
// (tokenizer, parser, analyzer, plan compiler) and a hand-built closure
// pipeline that never touches the SQL stack or the expression IR. The
// hand-built plan on javasim is the reference; the SQL-compiled plan must be
// bag-equal on javasim, the free optimizer, and sparksim (relsim where
// expressible). 16 shards x 32 rounds = 512 queries.
TEST_P(FuzzPlansTest, SqlPlanDifferentialAgree) {
  uint64_t replay = 0;
  const bool has_replay = EnvReplaySeed(&replay);
  Rng rng(static_cast<uint64_t>(GetParam()) * 86028121 + 13 + EnvSeedOffset());
  const int rounds = has_replay ? 1 : 32;
  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = has_replay ? replay : rng.NextU64();
    Rng tape(seed);
    const testutil::SqlTwinCase twin = testutil::RandomSqlTwin(&tape);

    RheemJob job(&ctx_);
    job.options().force_platform = "javasim";
    auto reference = twin.hand(&job).Collect();
    ASSERT_TRUE(reference.ok())
        << "hand-built reference failed; replay with RHEEM_FUZZ_SEED=" << seed
        << ": " << reference.status().ToString() << "\nSQL: " << twin.sql;
    const auto expect = AsMultiset(*reference);

    sql::InMemoryCatalog catalog;
    for (const auto& entry : twin.tables) {
      ASSERT_TRUE(catalog.Register(entry.first, entry.second).ok());
    }
    auto stmt = ctx_.Sql(twin.sql, catalog);
    ASSERT_TRUE(stmt.ok()) << "SQL failed to compile; replay with "
                           << "RHEEM_FUZZ_SEED=" << seed << ": "
                           << stmt.status().ToString() << "\nSQL: " << twin.sql;

    for (const char* force : {"javasim", "", "sparksim"}) {
      ExecutionOptions options;
      options.force_platform = force;
      auto got = stmt->Collect(options);
      ASSERT_TRUE(got.ok())
          << "SQL plan on backend '" << force
          << "' failed; replay with RHEEM_FUZZ_SEED=" << seed << ": "
          << got.status().ToString() << "\nSQL: " << twin.sql;
      EXPECT_EQ(AsMultiset(*got), expect)
          << "SQL plan diverged from hand-built plan on backend '" << force
          << "'; replay with RHEEM_FUZZ_SEED=" << seed << "\nSQL: " << twin.sql
          << "\nplan:\n"
          << stmt->PlanText();
    }

    ExecutionOptions rel_options;
    rel_options.force_platform = "relsim";
    auto rel = stmt->Collect(rel_options);
    if (rel.ok()) {
      EXPECT_EQ(AsMultiset(*rel), expect)
          << "SQL plan diverged on relsim; replay with RHEEM_FUZZ_SEED="
          << seed << "\nSQL: " << twin.sql;
    } else {
      ASSERT_TRUE(rel.status().IsUnsupported())
          << "relsim failed (not a mere expressibility skip); replay with "
          << "RHEEM_FUZZ_SEED=" << seed << ": " << rel.status().ToString()
          << "\nSQL: " << twin.sql;
    }
  }
}

// Warm-cache twin differential: each round submits two SQL texts that differ
// in exactly one payload (aggregate kind, GROUP BY key, ORDER BY key or
// direction, projection, filter constant) back to back through the shard's
// JobServer, with the plan cache and the result cache both on. Each answer
// must bag-equal the same text's cold run: an operator identity that omits
// the varied payload would serve the first text's rows for the second.
// 16 shards x 16 rounds = 256 pairs.
TEST_P(FuzzPlansTest, WarmCacheTwinDifferentialAgree) {
  uint64_t replay = 0;
  const bool has_replay = EnvReplaySeed(&replay);
  Rng rng(static_cast<uint64_t>(GetParam()) * 67867967 + 19 + EnvSeedOffset());
  const int rounds = has_replay ? 1 : 16;
  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = has_replay ? replay : rng.NextU64();
    Rng tape(seed);
    const testutil::SqlTwinPair twins = testutil::RandomSqlTwinPair(&tape);
    sql::InMemoryCatalog catalog;
    ASSERT_TRUE(catalog.Register("t", twins.table).ok());
    for (const std::string& text : {twins.first, twins.second}) {
      auto stmt = ctx_.Sql(text, catalog);
      ASSERT_TRUE(stmt.ok()) << "SQL failed to compile; replay with "
                             << "RHEEM_FUZZ_SEED=" << seed << ": "
                             << stmt.status().ToString() << "\nSQL: " << text;
      auto cold = stmt->Collect();
      ASSERT_TRUE(cold.ok()) << "cold run failed; replay with RHEEM_FUZZ_SEED="
                             << seed << ": " << cold.status().ToString()
                             << "\nSQL: " << text;
      auto handle = ctx_.job_server().SubmitSql(text, catalog);
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      auto warm = handle->Wait();
      ASSERT_TRUE(warm.ok()) << "served run failed; replay with "
                             << "RHEEM_FUZZ_SEED=" << seed << ": "
                             << warm.status().ToString() << "\nSQL: " << text;
      EXPECT_EQ(AsMultiset(warm->output), AsMultiset(*cold))
          << "warm caches changed the answer; replay with RHEEM_FUZZ_SEED="
          << seed << "\nfirst:  " << twins.first
          << "\nsecond: " << twins.second << "\nfailing: " << text;
    }
  }
}

// Adaptive-vs-static differential: every random plan is prefixed with a
// filter whose selectivity hint lies by ~500x and a pinned platform boundary
// right behind it, so the compile-time estimates are provably wrong and the
// executor's progressive re-optimization has a mid-job decision point. The
// honest-hint run is the reference; the lying run with re-optimization armed
// and the lying run with re-optimization disabled (static) must both be
// bag-equal with it — a mid-flight re-plan may change platforms, never
// results. Decisions, job metrics and the registry counter must reconcile:
// decisions.size() == metrics.reoptimizations == reoptimizations_total
// delta. 16 shards x 24 rounds = 384 plans.
TEST_P(FuzzPlansTest, AdaptiveStaticDifferentialAgree) {
  uint64_t replay = 0;
  const bool has_replay = EnvReplaySeed(&replay);
  Rng rng(static_cast<uint64_t>(GetParam()) * 49979687 + 17 + EnvSeedOffset());
  const int rounds = has_replay ? 1 : 24;

  MetricsRegistry& registry = MetricsRegistry::Global();
  const bool metrics_were_enabled = registry.enabled();
  registry.set_enabled(true);
  int64_t total_reopts = 0;

  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = has_replay ? replay : rng.NextU64();
    // Per-run contexts: the adaptive run must not learn this plan's actual
    // cardinalities before it executes, or nothing would be mis-estimated.
    auto run = [&](double hint, int64_t max_reopts) {
      Config config;
      config.SetBool("stats.enabled", false);
      config.SetBool("metrics.enabled", true);
      config.SetInt("executor.max_reoptimizations", max_reopts);
      RheemContext ctx(config);
      EXPECT_TRUE(ctx.RegisterDefaultPlatforms().ok());
      Rng tape(seed);
      RheemJob job(&ctx);
      DataQuanta q = job.LoadCollection(RandomPairs(&tape, 200));
      // The lie: `hint` promises almost nothing survives; everything does.
      q = q.Filter([](const Record&) { return true; }, UdfMeta{hint, 1.0})
              .OnPlatform("javasim");
      // Pinned boundary: the lying filter's stage is never the final stage.
      q = q.Map([](const Record& r) { return Record({r[0], r[1]}); })
              .OnPlatform("sparksim");
      q = RandomPipeline(&tape, &job, q);
      return q.CollectWithMetrics();
    };

    auto reference = run(/*hint=*/1.0, /*max_reopts=*/2);
    ASSERT_TRUE(reference.ok())
        << "honest run failed; replay with RHEEM_FUZZ_SEED=" << seed << ": "
        << reference.status().ToString();
    const auto expect = AsMultiset(reference->output);

    const MetricsSnapshot before = registry.Snapshot();
    auto adaptive = run(/*hint=*/0.002, /*max_reopts=*/2);
    const MetricsSnapshot after = registry.Snapshot();
    ASSERT_TRUE(adaptive.ok())
        << "adaptive run failed; replay with RHEEM_FUZZ_SEED=" << seed << ": "
        << adaptive.status().ToString();
    EXPECT_EQ(AsMultiset(adaptive->output), expect)
        << "adaptive run diverged; replay with RHEEM_FUZZ_SEED=" << seed;
    EXPECT_EQ(static_cast<int64_t>(adaptive->decisions.size()),
              adaptive->metrics.reoptimizations)
        << "decisions do not reconcile; replay with RHEEM_FUZZ_SEED=" << seed;
    EXPECT_EQ(after.counter("executor.reoptimizations_total") -
                  before.counter("executor.reoptimizations_total"),
              adaptive->metrics.reoptimizations)
        << "registry counter off; replay with RHEEM_FUZZ_SEED=" << seed;
    if (adaptive->metrics.reoptimizations > 0) {
      EXPECT_NE(adaptive->report.find("re-optimized:"), std::string::npos)
          << "re-plan missing from report; replay with RHEEM_FUZZ_SEED="
          << seed;
    }
    total_reopts += adaptive->metrics.reoptimizations;

    auto static_run = run(/*hint=*/0.002, /*max_reopts=*/0);
    ASSERT_TRUE(static_run.ok())
        << "static run failed; replay with RHEEM_FUZZ_SEED=" << seed << ": "
        << static_run.status().ToString();
    EXPECT_EQ(AsMultiset(static_run->output), expect)
        << "static run diverged; replay with RHEEM_FUZZ_SEED=" << seed;
    EXPECT_EQ(static_run->metrics.reoptimizations, 0);
    EXPECT_TRUE(static_run->decisions.empty());
  }
  // Across a shard, the 500x lie must actually trigger (a plan needs >= 4
  // source rows for the error to clear the 3x threshold; all-tiny shards are
  // astronomically unlikely).
  if (!has_replay) EXPECT_GE(total_reopts, 1);
  registry.set_enabled(metrics_were_enabled);
}

TEST_P(FuzzPlansTest, ExplainAlwaysCompiles) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 3 + EnvSeedOffset());
  for (int round = 0; round < 4; ++round) {
    RheemJob job(&ctx_);
    DataQuanta q = job.LoadCollection(RandomPairs(&rng, 100));
    q = RandomPipeline(&rng, &job, q);
    auto text = q.Explain();
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    EXPECT_NE(text->find("stage 0"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPlansTest, ::testing::Range(0, 16));

}  // namespace
}  // namespace rheem
