// Invariants of the tracing + metrics subsystem, end to end: spans always
// close and nest properly, per-stage spans reconcile with the
// ExecutionMonitor, registry counters reconcile with per-job
// ExecutionMetrics, the Chrome trace export is valid JSON with the
// job -> stage -> kernel hierarchy, and snapshot/export stay consistent
// while jobs keep draining concurrently.

#include <atomic>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/api/data_quanta.h"
#include "core/service/job_server.h"

namespace rheem {
namespace {

// --- a minimal JSON well-formedness checker (no dependency available) ------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        const char e = s_[pos_ + 1];
        if (e == 'u') {
          if (pos_ + 5 >= s_.size()) return false;
          for (int i = 2; i <= 5; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 6;
        } else if (e == '"' || e == '\\' || e == '/' || e == 'b' || e == 'f' ||
                   e == 'n' || e == 'r' || e == 't') {
          pos_ += 2;
        } else {
          return false;
        }
      } else if (c == '"') {
        ++pos_;
        return true;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      } else {
        ++pos_;
      }
    }
    return false;
  }
  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    MetricsRegistry::Global().set_enabled(true);
    Tracer::Global().Clear();
    Tracer::Global().set_enabled(true);
  }
  void TearDown() override {
    MetricsRegistry::Global().set_enabled(false);
    Tracer::Global().set_enabled(false);
    Tracer::Global().Clear();
  }

  static Config ObservableConfig() {
    Config config;
    config.SetBool("metrics.enabled", true);
    config.SetBool("trace.enabled", true);
    return config;
  }

  static Dataset Rows(int n) {
    std::vector<Record> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      out.push_back(Record({Value(static_cast<int64_t>(i % 16)),
                            Value(static_cast<int64_t>(i))}));
    }
    return Dataset(std::move(out));
  }
};

TEST_F(ObservabilityTest, CountersGaugesHistograms) {
  auto& registry = MetricsRegistry::Global();
  Counter* c = registry.counter("test.counter");
  c->Increment();
  c->Add(4);
  EXPECT_EQ(c->value(), 5);
  EXPECT_EQ(registry.counter("test.counter"), c);  // stable get-or-create

  Gauge* g = registry.gauge("test.gauge");
  g->Set(7);
  g->Add(-2);
  EXPECT_EQ(g->value(), 5);

  Histogram* h = registry.histogram("test.hist", {10, 100, 1000});
  h->Observe(3);
  h->Observe(50);
  h->Observe(5000);
  EXPECT_EQ(h->count(), 3);
  EXPECT_EQ(h->sum(), 5053);

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("test.counter"), 5);
  EXPECT_EQ(snap.counter("test.missing"), 0);
  EXPECT_EQ(snap.gauges.at("test.gauge"), 5);
  const auto& hv = snap.histograms.at("test.hist");
  ASSERT_EQ(hv.cumulative.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(hv.cumulative[0], 1);       // <= 10
  EXPECT_EQ(hv.cumulative[1], 2);       // <= 100
  EXPECT_EQ(hv.cumulative[2], 2);       // <= 1000
  EXPECT_EQ(hv.cumulative[3], 3);       // +Inf
  EXPECT_NE(snap.ToString().find("test.counter"), std::string::npos);
}

TEST_F(ObservabilityTest, ResetZeroesInPlaceKeepingPointersValid) {
  auto& registry = MetricsRegistry::Global();
  Counter* c = registry.counter("test.reset");
  c->Add(9);
  registry.Reset();
  EXPECT_EQ(c->value(), 0);      // same object, zeroed
  c->Increment();                // cached pointer still usable
  EXPECT_EQ(registry.Snapshot().counter("test.reset"), 1);
}

TEST_F(ObservabilityTest, DisabledRegistryCountsNothing) {
  auto& registry = MetricsRegistry::Global();
  Counter* c = registry.counter("test.gated");
  registry.set_enabled(false);
  CountIfEnabled(c, 5);
  EXPECT_EQ(c->value(), 0);
  registry.set_enabled(true);
  CountIfEnabled(c, 5);
  EXPECT_EQ(c->value(), 5);
}

TEST_F(ObservabilityTest, SpansNestImplicitlyAndExplicitly) {
  auto& tracer = Tracer::Global();
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  {
    TraceSpan outer("outer", "test");
    outer_id = outer.id();
    ASSERT_NE(outer_id, 0u);
    EXPECT_EQ(Tracer::CurrentSpanId(), outer_id);
    {
      TraceSpan inner("inner", "test");
      inner_id = inner.id();
      inner.AddTag("k", "v");
      inner.AddTag("n", static_cast<int64_t>(42));
    }
    // Cross-thread: the child passes the parent id it captured here.
    uint64_t remote_id = 0;
    std::thread t([&]() {
      TraceSpan remote("remote", "test", outer_id);
      remote_id = remote.id();
    });
    t.join();
    ASSERT_NE(remote_id, 0u);
  }
  EXPECT_EQ(Tracer::CurrentSpanId(), 0u);
  EXPECT_EQ(tracer.OpenSpanCount(), 0u);

  std::map<uint64_t, SpanRecord> by_id;
  for (const SpanRecord& s : tracer.Spans()) by_id[s.id] = s;
  ASSERT_EQ(by_id.size(), 3u);
  EXPECT_EQ(by_id.at(inner_id).parent_id, outer_id);
  EXPECT_EQ(by_id.at(outer_id).parent_id, 0u);
  const auto& tags = by_id.at(inner_id).tags;
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[0].first, "k");
  EXPECT_EQ(tags[0].second, "v");
  EXPECT_EQ(tags[1].second, "42");
  for (const auto& [id, s] : by_id) {
    EXPECT_TRUE(s.closed()) << "span " << id << " never closed";
  }
}

TEST_F(ObservabilityTest, ExportSkipsOpenSpansAndRespectsCap) {
  auto& tracer = Tracer::Global();
  uint64_t open_id = tracer.BeginSpan("left_open", "test");
  {
    TraceSpan closed("closed", "test");
  }
  const std::string json = tracer.ExportChromeTrace();
  EXPECT_EQ(json.find("left_open"), std::string::npos);
  EXPECT_NE(json.find("closed"), std::string::npos);
  tracer.EndSpan(open_id);

  tracer.Clear();
  tracer.set_max_spans(2);
  uint64_t a = tracer.BeginSpan("a", "test");
  uint64_t b = tracer.BeginSpan("b", "test");
  uint64_t c = tracer.BeginSpan("c", "test");  // over the cap -> dropped
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_EQ(c, 0u);
  EXPECT_GE(tracer.dropped_spans(), 1);
  tracer.EndSpan(a);
  tracer.EndSpan(b);
  tracer.EndSpan(c);  // no-op on 0
  tracer.Clear();
  tracer.set_max_spans(1 << 20);
}

TEST_F(ObservabilityTest, JobSpansCloseNestAndMatchMonitor) {
  RheemContext ctx(ObservableConfig());
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  ExecutionMonitor monitor;

  RheemJob job(&ctx);
  job.options().monitor = &monitor;
  DataQuanta q = job.LoadCollection(Rows(500));
  q = q.Map([](const Record& r) {
         return Record({r[0], Value(r[1].ToInt64Or(0) * 2)});
       })
          .OnPlatform("javasim");
  q = q.ReduceByKey(
           [](const Record& r) { return r[0]; },
           [](const Record& a, const Record& b) {
             return Record({a[0], Value(a[1].ToInt64Or(0) + b[1].ToInt64Or(0))});
           })
          .OnPlatform("sparksim");
  auto result = q.CollectWithMetrics();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto& tracer = Tracer::Global();
  EXPECT_EQ(tracer.OpenSpanCount(), 0u) << "a span leaked open";

  std::map<uint64_t, SpanRecord> by_id;
  int stage_spans = 0;
  int kernel_spans = 0;
  bool saw_optimize = false;
  bool saw_execute = false;
  for (const SpanRecord& s : tracer.Spans()) {
    by_id[s.id] = s;
    if (s.name == "stage") ++stage_spans;
    if (s.name == "kernel") ++kernel_spans;
    if (s.name == "optimize") saw_optimize = true;
    if (s.name == "execute") saw_execute = true;
  }
  EXPECT_TRUE(saw_optimize);
  EXPECT_TRUE(saw_execute);
  EXPECT_GT(kernel_spans, 0);

  // One stage span per stage attempt, exactly what the monitor recorded.
  EXPECT_EQ(stage_spans, static_cast<int>(monitor.records().size()));

  // Every span closed; every child's lifetime inside its parent's.
  for (const auto& [id, s] : by_id) {
    EXPECT_TRUE(s.closed()) << "span " << id << " (" << s.name << ") open";
    if (s.parent_id == 0) continue;
    auto parent = by_id.find(s.parent_id);
    ASSERT_NE(parent, by_id.end()) << "dangling parent of span " << id;
    EXPECT_LE(parent->second.start_micros, s.start_micros)
        << s.name << " started before its parent " << parent->second.name;
    EXPECT_GE(parent->second.end_micros, s.end_micros)
        << s.name << " outlived its parent " << parent->second.name;
  }
}

TEST_F(ObservabilityTest, CountersReconcileWithJobResult) {
  Config config = ObservableConfig();
  config.SetBool("kernels.parallel", true);
  config.SetInt("kernels.morsel_size", 64);
  RheemContext ctx(config);
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  ExecutionMonitor monitor;

  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();

  RheemJob job(&ctx);
  job.options().monitor = &monitor;
  job.options().force_platform = "javasim";
  DataQuanta q = job.LoadCollection(Rows(1000));
  q = q.Map([](const Record& r) {
    return Record({r[0], Value(r[1].ToInt64Or(0) + 1)});
  });
  auto result = q.CollectWithMetrics();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  auto delta = [&](const std::string& name) {
    return after.counter(name) - before.counter(name);
  };

  // Input (1000 records) exceeds the morsel size (64) with parallel kernels
  // on, so at least one morsel ran.
  EXPECT_GE(delta("kernels.morsels_executed"), 1);
  EXPECT_GE(delta("kernels.invocations"), 1);

  EXPECT_EQ(delta("executor.jobs_total"), 1);
  EXPECT_EQ(delta("executor.stage_attempts_total"),
            static_cast<int64_t>(monitor.records().size()));
  EXPECT_EQ(delta("executor.moved_records_total"),
            result->metrics.moved_records);
  EXPECT_EQ(delta("executor.moved_bytes_total"), result->metrics.moved_bytes);
  EXPECT_EQ(delta("executor.retries_total"), result->metrics.retries);
  EXPECT_EQ(delta("executor.boundary_cache_hits"),
            result->metrics.boundary_conversions_reused);
}

// The retry path must reconcile exactly like the clean path: attempts match
// the monitor, retries match the job metrics, and — because retried attempts
// re-assemble their boundary inputs — movement must not be double-charged by
// the extra attempts.
TEST_F(ObservabilityTest, CountersReconcileUnderRetry) {
  RheemContext ctx(ObservableConfig());
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());

  // Two pinned stages so the plan has a real javasim -> sparksim boundary.
  auto run = [&](ExecutionMonitor* monitor) {
    RheemJob job(&ctx);
    job.options().monitor = monitor;
    DataQuanta q = job.LoadCollection(Rows(500));
    q = q.Map([](const Record& r) {
           return Record({r[0], Value(r[1].ToInt64Or(0) + 1)});
         }).OnPlatform("javasim");
    q = q.Map([](const Record& r) {
           return Record({r[0], Value(r[1].ToInt64Or(0) * 2)});
         }).OnPlatform("sparksim");
    return q.CollectWithMetrics();
  };

  // Fault-free reference for the movement totals.
  auto clean = run(nullptr);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_GT(clean->metrics.moved_records, 0);

  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  ExecutionMonitor monitor;
  FaultInjector::Global().Clear();
  FaultInjector::Global().Seed(3);
  // Every stage's first attempt fails; each retry must succeed.
  ASSERT_TRUE(FaultInjector::Global()
                  .AddSpec("executor.stage_attempt", FaultTrigger::EveryK(1),
                           "attempt=0")
                  .ok());
  FaultInjector::Global().set_enabled(true);
  auto retried = run(&monitor);
  FaultInjector::Global().set_enabled(false);
  FaultInjector::Global().Clear();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();

  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  auto delta = [&](const std::string& name) {
    return after.counter(name) - before.counter(name);
  };
  EXPECT_GT(retried->metrics.retries, 0);
  EXPECT_EQ(delta("executor.retries_total"), retried->metrics.retries);
  EXPECT_EQ(delta("executor.stage_attempts_total"),
            static_cast<int64_t>(monitor.records().size()));
  EXPECT_EQ(delta("executor.stage_failures_total"), retried->metrics.retries);
  // Movement identical to the fault-free run, in the job metrics and the
  // registry: re-attempts reuse the cached boundary conversion.
  EXPECT_EQ(retried->metrics.moved_records, clean->metrics.moved_records);
  EXPECT_EQ(retried->metrics.moved_bytes, clean->metrics.moved_bytes);
  EXPECT_EQ(delta("executor.moved_records_total"),
            retried->metrics.moved_records);
  EXPECT_EQ(delta("executor.moved_bytes_total"), retried->metrics.moved_bytes);
}

// Same reconciliation across a platform blackout: the failover re-plan must
// surface in the job metrics, the registry and the report, without
// double-charging movement for work re-planned onto the surviving platform.
TEST_F(ObservabilityTest, CountersReconcileUnderFailover) {
  RheemContext ctx(ObservableConfig());
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());

  auto run = [&]() {
    RheemJob job(&ctx);
    DataQuanta q = job.LoadCollection(Rows(500));
    q = q.Map([](const Record& r) {
           return Record({r[0], Value(r[1].ToInt64Or(0) + 1)});
         }).OnPlatform("javasim");
    q = q.Map([](const Record& r) {
           return Record({r[0], Value(r[1].ToInt64Or(0) * 2)});
         }).OnPlatform("sparksim");
    return q.CollectWithMetrics();
  };

  auto clean = run();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  FaultInjector::Global().Clear();
  FaultInjector::Global().Seed(3);
  // sparksim is down for the whole job; the pinned stage exhausts its
  // retries there and the executor re-plans it onto a healthy platform.
  ASSERT_TRUE(FaultInjector::Global()
                  .AddSpec("executor.stage_attempt", FaultTrigger::EveryK(1),
                           "platform=sparksim")
                  .ok());
  FaultInjector::Global().set_enabled(true);
  auto failed_over = run();
  FaultInjector::Global().set_enabled(false);
  FaultInjector::Global().Clear();
  ASSERT_TRUE(failed_over.ok()) << failed_over.status().ToString();

  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  auto delta = [&](const std::string& name) {
    return after.counter(name) - before.counter(name);
  };
  EXPECT_GE(failed_over->metrics.failovers, 1);
  EXPECT_EQ(delta("executor.failovers_total"), failed_over->metrics.failovers);
  EXPECT_NE(failed_over->report.find("failover:"), std::string::npos)
      << failed_over->report;
  EXPECT_EQ(delta("executor.retries_total"), failed_over->metrics.retries);
  // Movement totals still reconcile between the job view and the registry —
  // whatever the re-planned boundaries moved is charged once, in both.
  EXPECT_EQ(delta("executor.moved_records_total"),
            failed_over->metrics.moved_records);
  EXPECT_EQ(delta("executor.moved_bytes_total"),
            failed_over->metrics.moved_bytes);
  // Same rows out as the clean run.
  EXPECT_EQ(failed_over->output.size(), clean->output.size());
}

// Progressive re-optimization must reconcile across every surface it is
// reported on: AdaptiveResult-style decisions threaded into ExecutionResult,
// the per-job metrics, the registry counter, the EXPLAIN ANALYZE report, and
// the trace ("reoptimize" spans under the execute span; "reopt_N" tags on
// the JobServer's job span).
TEST_F(ObservabilityTest, ReoptimizationDecisionsReconcileEverywhere) {
  Config config = ObservableConfig();
  // No learning: the second (lying) compilation must actually mis-estimate.
  config.SetBool("stats.enabled", false);
  RheemContext ctx(config);
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());

  // The filter claims 1-in-1000 survive; everything does. The pinned
  // javasim -> sparksim boundary guarantees the lying stage is not final.
  auto build = [&](RheemJob* job, double hint) {
    DataQuanta q = job->LoadCollection(Rows(500));
    q = q.Filter([](const Record&) { return true; }, UdfMeta{hint, 1.0})
            .OnPlatform("javasim");
    q = q.Map([](const Record& r) {
           return Record({r[0], Value(r[1].ToInt64Or(0) + 1)});
         }).OnPlatform("sparksim");
    return q;
  };

  // Honest hint: no re-optimization, no decisions, clean report.
  {
    RheemJob job(&ctx);
    auto clean = build(&job, 1.0).CollectWithMetrics();
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_EQ(clean->metrics.reoptimizations, 0);
    EXPECT_TRUE(clean->decisions.empty());
    EXPECT_EQ(clean->report.find("re-optimized:"), std::string::npos)
        << clean->report;
  }

  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  Tracer::Global().Clear();
  RheemJob job(&ctx);
  auto reopt = build(&job, 0.001).CollectWithMetrics();
  ASSERT_TRUE(reopt.ok()) << reopt.status().ToString();
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  auto delta = [&](const std::string& name) {
    return after.counter(name) - before.counter(name);
  };

  // One divergence (estimated 0.5, observed 500): exactly one re-plan, and
  // decisions.size() == metrics.reoptimizations == the registry counter.
  ASSERT_GE(reopt->metrics.reoptimizations, 1);
  EXPECT_EQ(static_cast<int64_t>(reopt->decisions.size()),
            reopt->metrics.reoptimizations);
  EXPECT_EQ(delta("executor.reoptimizations_total"),
            reopt->metrics.reoptimizations);
  EXPECT_EQ(reopt->output.size(), 500u);  // the re-plan changed no results

  // The decision lines name the culprit and both cardinalities.
  for (const std::string& decision : reopt->decisions) {
    EXPECT_NE(decision.find("estimated"), std::string::npos) << decision;
    EXPECT_NE(decision.find("produced"), std::string::npos) << decision;
  }

  // EXPLAIN ANALYZE surfaces each decision and the totals line.
  EXPECT_NE(reopt->report.find("re-optimized:"), std::string::npos)
      << reopt->report;
  EXPECT_NE(reopt->report.find("reoptimizations=" +
                               std::to_string(reopt->metrics.reoptimizations)),
            std::string::npos)
      << reopt->report;

  // Trace: one "reoptimize" span per re-plan, tagged with the divergence,
  // parented under the job's execute span.
  std::map<uint64_t, SpanRecord> by_id;
  for (const SpanRecord& s : Tracer::Global().Spans()) by_id[s.id] = s;
  int64_t reopt_spans = 0;
  for (const auto& [id, s] : by_id) {
    if (s.name != "reoptimize") continue;
    ++reopt_spans;
    bool has_op = false, has_error = false;
    for (const auto& [k, v] : s.tags) {
      if (k == "op") has_op = true;
      if (k == "error") has_error = true;
    }
    EXPECT_TRUE(has_op && has_error) << "untagged reoptimize span";
    auto parent = by_id.find(s.parent_id);
    ASSERT_NE(parent, by_id.end());
    EXPECT_EQ(parent->second.name, "execute");
  }
  EXPECT_EQ(reopt_spans, reopt->metrics.reoptimizations);
}

// The same reconciliation through the service layer: a submitted job that
// re-optimizes carries its decisions onto the JobServer's job span.
TEST_F(ObservabilityTest, JobSpanCarriesReoptimizationDecisions) {
  Config config = ObservableConfig();
  config.SetBool("stats.enabled", false);
  RheemContext ctx(config);
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());

  RheemJob job(&ctx);
  DataQuanta q = job.LoadCollection(Rows(500));
  q = q.Filter([](const Record&) { return true; }, UdfMeta{0.001, 1.0})
          .OnPlatform("javasim");
  q = q.Map([](const Record& r) { return Record({r[0], r[1]}); })
          .OnPlatform("sparksim");
  auto plan = q.Seal();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto handle = ctx.Submit(**plan);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto result = handle->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ctx.job_server().Shutdown(/*drain=*/true);
  ASSERT_GE(result->metrics.reoptimizations, 1);
  EXPECT_EQ(static_cast<int64_t>(result->decisions.size()),
            result->metrics.reoptimizations);

  bool job_span_tagged = false;
  bool decision_tagged = false;
  for (const SpanRecord& s : Tracer::Global().Spans()) {
    if (s.name != "job") continue;
    for (const auto& [k, v] : s.tags) {
      if (k == "reoptimizations" &&
          v == std::to_string(result->metrics.reoptimizations)) {
        job_span_tagged = true;
      }
      if (k == "reopt_1" && v.find("estimated") != std::string::npos) {
        decision_tagged = true;
      }
    }
  }
  EXPECT_TRUE(job_span_tagged) << "job span missing reoptimizations tag";
  EXPECT_TRUE(decision_tagged) << "job span missing reopt_1 decision tag";
}

TEST_F(ObservabilityTest, ExplainAnalyzeReportAttachedWhenEnabled) {
  RheemContext ctx(ObservableConfig());
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  RheemJob job(&ctx);
  DataQuanta q = job.LoadCollection(Rows(100));
  q = q.Filter([](const Record& r) { return r[1].ToInt64Or(0) % 2 == 0; });
  auto result = q.CollectWithMetrics();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->report.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(result->report.find("stage 0"), std::string::npos);
  EXPECT_NE(result->report.find("rows="), std::string::npos);

  // Disabled via config (the executor re-applies the context's config each
  // run, so the config is the authoritative switch): no report is built.
  ctx.mutable_config().SetBool("metrics.enabled", false);
  auto quiet = q.CollectWithMetrics();
  ASSERT_TRUE(quiet.ok());
  EXPECT_TRUE(quiet->report.empty());
  EXPECT_FALSE(MetricsRegistry::Global().enabled());
}

TEST_F(ObservabilityTest, ChromeTraceIsValidJsonWithJobStageKernelNesting) {
  Config config = ObservableConfig();
  const std::string path =
      ::testing::TempDir() + "/rheem_observability_trace.json";
  config.Set("trace.path", path);
  RheemContext ctx(config);
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());

  // Two pinned platforms force a cross-platform split, so the trace carries
  // stage spans for both a javasim and a sparksim stage.
  RheemJob job(&ctx);
  DataQuanta q = job.LoadCollection(Rows(400));
  q = q.Map([](const Record& r) {
         return Record({r[0], Value(r[1].ToInt64Or(0) - 3)});
       })
          .OnPlatform("javasim");
  q = q.ReduceByKey(
           [](const Record& r) { return r[0]; },
           [](const Record& a, const Record& b) {
             return Record({a[0], Value(a[1].ToInt64Or(0) + b[1].ToInt64Or(0))});
           })
          .OnPlatform("sparksim");
  auto plan = q.Seal();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto handle = ctx.Submit(**plan);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto result = handle->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The worker flushes the trace after the handle resolves; drain the server
  // so the file is complete before reading it.
  ctx.job_server().Shutdown(/*drain=*/true);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file not written: " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  std::remove(path.c_str());

  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << "export is not well-formed JSON";
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  // Structural nesting: kernel spans under stage spans under the job's
  // execute span, with stages tagged for both platforms.
  std::map<uint64_t, SpanRecord> by_id;
  for (const SpanRecord& s : Tracer::Global().Spans()) by_id[s.id] = s;
  bool javasim_stage = false;
  bool sparksim_stage = false;
  bool kernel_under_stage_under_execute = false;
  for (const auto& [id, s] : by_id) {
    if (s.name == "stage") {
      for (const auto& [k, v] : s.tags) {
        if (k == "platform" && v == "javasim") javasim_stage = true;
        if (k == "platform" && v == "sparksim") sparksim_stage = true;
      }
    }
    if (s.name != "kernel") continue;
    // Walk ancestors: expect a stage span, then the execute span above it.
    bool saw_stage = false;
    for (uint64_t p = s.parent_id; p != 0;) {
      auto it = by_id.find(p);
      if (it == by_id.end()) break;
      if (it->second.name == "stage") saw_stage = true;
      if (it->second.name == "execute" && saw_stage) {
        kernel_under_stage_under_execute = true;
      }
      p = it->second.parent_id;
    }
  }
  EXPECT_TRUE(javasim_stage);
  EXPECT_TRUE(sparksim_stage);
  EXPECT_TRUE(kernel_under_stage_under_execute);
}

// Regression for the multi-consumer movement accounting bug: a producer
// whose output crosses to two consumer stages on the same target platform is
// one data movement, not two. The conversion cache encodes the shared edge
// once, and the per-job totals must reconcile with the global registry
// counters.
TEST_F(ObservabilityTest, MovedBytesCountOncePerMultiConsumerEdge) {
  auto run = [&]() -> ExecutionResult {
    RheemContext ctx(ObservableConfig());
    EXPECT_TRUE(ctx.RegisterDefaultPlatforms().ok());
    RheemJob job(&ctx);
    DataQuanta src = job.LoadCollection(Rows(200)).OnPlatform("javasim");
    // Distinct UdfMeta keeps the two consumers' fingerprints apart so no
    // stage is served from the result cache within the run.
    DataQuanta a = src.Map([](const Record& r) {
                        return Record({r[0], Value(r[1].ToInt64Or(0) + 1)});
                      })
                       .OnPlatform("sparksim");
    DataQuanta b = src.Map(
                          [](const Record& r) {
                            return Record({r[0], Value(r[1].ToInt64Or(0) * 2)});
                          },
                          UdfMeta::Expensive(2.0))
                       .OnPlatform("sparksim");
    DataQuanta merged = a.Union(b).OnPlatform("javasim");
    auto result = merged.CollectWithMetrics();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->output.size(), 400u);
    return std::move(*result);
  };

  auto delta = [](const MetricsSnapshot& before, const MetricsSnapshot& after,
                  const std::string& name) {
    return after.counter(name) - before.counter(name);
  };

  const MetricsSnapshot s0 = MetricsRegistry::Global().Snapshot();
  const ExecutionResult serialized = run();
  const MetricsSnapshot s1 = MetricsRegistry::Global().Snapshot();

  // The src -> sparksim edge is encoded once and the second consumer stage
  // reuses the conversion.
  EXPECT_EQ(serialized.metrics.boundary_conversions_reused, 1);
  EXPECT_EQ(delta(s0, s1, "executor.boundary_cache_hits"), 1);
  // The shared edge counts once: src -> sparksim (200) + each map's output
  // -> javasim (200 + 200).
  EXPECT_EQ(serialized.metrics.moved_records, 600);

  // Per-job metrics reconcile with the global registry.
  EXPECT_EQ(delta(s0, s1, "executor.moved_records_total"),
            serialized.metrics.moved_records);
  EXPECT_EQ(delta(s0, s1, "executor.moved_bytes_total"),
            serialized.metrics.moved_bytes);
  // Every consumer that shares a conversion is a cache hit, including one
  // that lost the race to insert it.
  EXPECT_EQ(delta(s0, s1, "executor.boundary_cache_hits"),
            serialized.metrics.boundary_conversions_reused);
}

// Satellite 4 regression: hammer Snapshot()/ExportChromeTrace()/ReportText()
// from reader threads while a JobServer drains concurrent submissions. The
// exporters must observe consistent copies, never the live containers.
TEST_F(ObservabilityTest, SnapshotDuringConcurrentDrainsStaysConsistent) {
  Config config = ObservableConfig();
  config.SetInt("service.max_concurrent", 4);
  config.SetInt("service.queue_depth", 64);
  RheemContext ctx(config);
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());

  std::vector<std::unique_ptr<RheemJob>> jobs;
  std::vector<JobHandle> handles;
  for (int i = 0; i < 24; ++i) {
    auto job = std::make_unique<RheemJob>(&ctx);
    DataQuanta q = job->LoadCollection(Rows(300));
    q = q.Map([](const Record& r) {
           return Record({r[0], Value(r[1].ToInt64Or(0) * 3)});
         })
            .ReduceByKey(
                [](const Record& r) { return r[0]; },
                [](const Record& a, const Record& b) {
                  return Record(
                      {a[0], Value(a[1].ToInt64Or(0) + b[1].ToInt64Or(0))});
                });
    auto plan = q.Seal();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto handle = ctx.Submit(**plan);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(*handle);
    jobs.push_back(std::move(job));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> exports{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&]() {
      int64_t last_jobs = 0;
      do {  // at least one pass even when every job drains immediately
        const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
        const int64_t jobs_now = snap.counter("service.jobs_succeeded");
        EXPECT_GE(jobs_now, last_jobs);  // counters are monotone
        last_jobs = jobs_now;
        const std::string json = Tracer::Global().ExportChromeTrace();
        EXPECT_FALSE(json.empty());
        (void)MetricsRegistry::Global().ReportText();
        exports.fetch_add(1);
      } while (!stop.load());
    });
  }

  for (auto& handle : handles) {
    auto result = handle.Wait();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_GT(exports.load(), 0);

  const std::string json = Tracer::Global().ExportChromeTrace();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid());
}

}  // namespace
}  // namespace rheem
