#include "layers.h"

#include <cmath>

#include "common/metrics.h"
#include "core/executor/executor.h"
#include "core/executor/monitor.h"

namespace perfbench {

using rheem::CrossPlatformExecutor;
using rheem::ExecutionMonitor;
using rheem::ExecutionResult;

namespace {

const char* const kCounters[] = {"batch.fallbacks_total",
                                  "batch.rows_vectorized_total"};

std::map<std::string, int64_t> ReadCounters() {
  const auto snap = rheem::MetricsRegistry::Global().Snapshot();
  std::map<std::string, int64_t> out;
  for (const char* name : kCounters) out[name] = snap.counter(name);
  return out;
}

}  // namespace

rheem::Result<ExecutionResult> LayerProbe::Run(
    const rheem::Plan& plan, const rheem::ExecutionOptions& options,
    uint64_t op, uint64_t parent, rheem::ResultCache* cache) {
  ScopedSpan compile_span(spans_, "optimizer.compile", op, parent);
  auto compiled = ctx_->Compile(plan, options);
  last_run_ms_ = compile_span.Finish();
  compile_ms_.Add(last_run_ms_);
  if (!compiled.ok()) return compiled.status();

  ScopedSpan exec_span(spans_, "executor.execute", op, parent);
  ExecutionMonitor monitor;
  CrossPlatformExecutor executor(ctx_->config());
  executor.set_monitor(&monitor);
  executor.EnableFailover(&ctx_->platforms(), &ctx_->movement_model());
  executor.set_stats_catalog(ctx_->stats_catalog());
  if (cache != nullptr) executor.set_result_cache(cache);
  auto result = executor.Execute(compiled->eplan);
  const double exec_ms = exec_span.Finish();
  execute_ms_.Add(exec_ms);

  // Freeing the compiled plan (it owns copies of the source data) is part
  // of every job's cost; RheemContext::Execute pays it before returning.
  ScopedSpan release_span(spans_, "plan.release", op, parent);
  *compiled = rheem::CompiledJob();
  const double release_ms = release_span.Finish();
  release_ms_.Add(release_ms);
  last_run_ms_ += exec_ms + release_ms;
  ++ops_;
  if (!result.ok()) return result;

  double stage_sum = 0.0;
  int64_t stages = 0;
  for (const auto& rec : monitor.records()) {
    const double ms = static_cast<double>(rec.wall_micros) * 1e-3;
    stage_sum += ms;
    platform_stage_ms_[rec.platform] += ms;
    ++platform_stages_[rec.platform];
    ++stages;
  }
  stages_total_ += stages;
  stage_ms_.Add(stage_sum);
  overhead_ms_.Add(exec_ms - stage_sum);
  stages_per_op_.Add(static_cast<double>(stages));

  const auto& m = result->metrics;
  sim_overhead_ms_ += static_cast<double>(m.sim_overhead_micros) * 1e-3;
  shuffle_mb_ += static_cast<double>(m.shuffle_bytes) / (1024.0 * 1024.0);
  moved_mb_ += static_cast<double>(m.moved_bytes) / (1024.0 * 1024.0);
  tasks_ += m.tasks_launched;
  boundary_reuse_ += m.boundary_conversions_reused;
  stages_reused_ += m.stages_reused;
  retries_ += m.retries;
  reoptimizations_ += m.reoptimizations;
  return result;
}

void LayerProbe::BeginWindow() {
  kernels_before_ = rheem::kernels::SnapshotKernelTimings();
  counters_before_ = ReadCounters();
}

void LayerProbe::EndWindow() {
  std::map<std::string, rheem::kernels::KernelTiming> before;
  for (const auto& k : kernels_before_) before[k.kernel] = k;
  for (const auto& k : rheem::kernels::SnapshotKernelTimings()) {
    const auto it = before.find(k.kernel);
    const bool seen = it != before.end();
    const int64_t invocations =
        k.invocations - (seen ? it->second.invocations : 0);
    if (invocations <= 0) continue;
    auto [acc, fresh] = kernels_delta_.try_emplace(k.kernel);
    if (fresh) acc->second.kernel = k.kernel;
    acc->second.invocations += invocations;
    acc->second.records_in += k.records_in - (seen ? it->second.records_in : 0);
    acc->second.wall_micros += k.wall_micros - (seen ? it->second.wall_micros : 0);
    acc->second.serial_micros +=
        k.serial_micros - (seen ? it->second.serial_micros : 0);
    acc->second.parallel_cpu_micros +=
        k.parallel_cpu_micros - (seen ? it->second.parallel_cpu_micros : 0);
  }
  for (const auto& [name, v] : ReadCounters()) {
    counters_delta_[name] += v - counters_before_[name];
  }
}

void LayerProbe::AddOpWall(double wall_ms, double covered_ms) {
  op_wall_.Add(wall_ms);
  covered_.Add(covered_ms);
  unexplained_.Add(wall_ms - covered_ms);
}

void LayerProbe::Emit(Report* report) const {
  const double n = ops_ > 0 ? static_cast<double>(ops_) : 1.0;
  report->Set("optimizer.compile_ms", compile_ms_.Median(), "ms");
  report->Set("optimizer.stages_per_op", stages_per_op_.Mean(), "count");
  for (const auto& [platform, count] : platform_stages_) {
    report->Set("optimizer.platform_mix." + platform,
                stages_total_ > 0 ? static_cast<double>(count) /
                                        static_cast<double>(stages_total_)
                                  : 0.0,
                "share");
  }
  report->Set("executor.execute_ms", execute_ms_.Median(), "ms");
  report->Set("plan.release_ms", release_ms_.Median(), "ms");
  report->Set("executor.stage_ms", stage_ms_.Median(), "ms");
  report->Set("executor.overhead_ms", overhead_ms_.Median(), "ms");
  report->Set("executor.moved_mb_per_op", moved_mb_ / n, "MiB");
  report->Set("executor.boundary_reuse",
              static_cast<double>(boundary_reuse_ + stages_reused_) / n,
              "count");
  report->Set("executor.retries", static_cast<double>(retries_), "count");
  report->Set("executor.reoptimizations",
              static_cast<double>(reoptimizations_), "count");
  for (const char* platform : {"javasim", "sparksim", "relsim"}) {
    auto it = platform_stage_ms_.find(platform);
    report->Set(std::string(platform) + ".stage_ms",
                it == platform_stage_ms_.end() ? 0.0 : it->second / n, "ms");
  }
  report->Set("sparksim.sim_overhead_ms", sim_overhead_ms_ / n, "ms");
  report->Set("sparksim.shuffle_mb", shuffle_mb_ / n, "MiB");
  report->Set("sparksim.tasks", static_cast<double>(tasks_) / n, "count");

  int64_t wall = 0, serial = 0, records = 0;
  for (const auto& [name, k] : kernels_delta_) {
    report->Set("kernels." + k.kernel + ".wall_ms",
                static_cast<double>(k.wall_micros) * 1e-3 / n, "ms");
    report->Set("kernels." + k.kernel + ".serial_ms",
                static_cast<double>(k.serial_micros) * 1e-3 / n, "ms");
    wall += k.wall_micros;
    serial += k.serial_micros;
    records += k.records_in;
  }
  report->Set("kernels.wall_ms", static_cast<double>(wall) * 1e-3 / n, "ms");
  report->Set("kernels.serial_fraction",
              wall > 0 ? static_cast<double>(serial) / static_cast<double>(wall)
                       : 0.0,
              "share");
  report->Set("kernels.records_in", static_cast<double>(records) / n, "count");
  auto counter = [this](const char* name) {
    auto it = counters_delta_.find(name);
    return it == counters_delta_.end() ? 0.0 : static_cast<double>(it->second);
  };
  report->Set("batch.fallbacks", counter("batch.fallbacks_total") / n, "count");
  report->Set("batch.rows_vectorized",
              counter("batch.rows_vectorized_total") / n, "count");
  for (const auto& [name, s] : extra_) {
    report->Set(name, s.Median(), "ms");
  }

  // Reconciliation: layer spans vs each traced op's wall.
  const double wall_p50 = op_wall_.Median();
  const double unexplained_p50 = unexplained_.Median();
  const double share = wall_p50 > 0 ? unexplained_p50 / wall_p50 : 0.0;
  report->Set("trace.op_wall_ms", wall_p50, "ms");
  report->Set("trace.unexplained_ms", unexplained_p50, "ms");
  const bool reconciled = share <= kReconcileTolerance;
  report->Line(Format(
      "reconcile: traced op wall p50 %.3f ms = layers %.3f ms + unexplained "
      "%.3f ms (%.2f%% of wall; tolerance %.0f%%) -> %s",
      wall_p50, covered_.Median(), unexplained_p50, share * 100.0,
      kReconcileTolerance * 100.0, reconciled ? "reconciled" : "NOT RECONCILED"));
  if (!reconciled) {
    report->Fail(Format("traced op wall not reconciled: %.2f%% unexplained",
                        share * 100.0));
  }
  report->Line(Format(
      "reconcile: executor.execute p50 %.3f ms = stages %.3f ms + executor "
      "self %.3f ms (negative when independent stages overlapped)",
      execute_ms_.Median(), stage_ms_.Median(), overhead_ms_.Median()));
  report->Line(Format(
      "reconcile: kernels wall %.3f ms/op inside stage wall %.3f ms/op; "
      "platform self %.3f ms/op; sparksim simulated overhead %.3f ms/op is "
      "virtual and not part of any wall",
      static_cast<double>(wall) * 1e-3 / n, stage_ms_.Mean(),
      stage_ms_.Mean() - static_cast<double>(wall) * 1e-3 / n,
      sim_overhead_ms_ / n));
}

void CheckAgainstWall(Report* report, const std::string& what,
                      double layers_ms, double wall_ms, bool residual_expected) {
  const double share = wall_ms > 0 ? (wall_ms - layers_ms) / wall_ms : 0.0;
  const bool ok = residual_expected ? share >= -kWallTolerance
                                    : std::fabs(share) <= kWallTolerance;
  report->Line(Format(
      "reconcile: %s: untraced wall p50 %.3f ms vs traced layers p50 %.3f ms: "
      "%s %.2f%% of wall (tolerance %.0f%%) -> %s",
      what.c_str(), wall_ms, layers_ms,
      residual_expected ? "residual" : "difference", share * 100.0,
      kWallTolerance * 100.0, ok ? "reconciled" : "NOT RECONCILED"));
  if (!ok) report->Fail("not reconciled with the untraced wall: " + what);
}

}  // namespace perfbench
