// The traced run's layer probe: compiles and executes a logical plan the way
// RheemContext::Execute does, but as two separately timed public calls —
// RheemContext::Compile (optimizer) and CrossPlatformExecutor::Execute
// (executor, with an ExecutionMonitor for per-stage platform wall) — and
// accumulates the per-layer figures the report prints. Kernel and batch
// figures come from the process-wide counters, read before and after a
// window of traced operations.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/api/context.h"
#include "core/executor/result_cache.h"
#include "core/operators/kernels.h"
#include "harness.h"

namespace perfbench {

/// Reconciliation tolerance: the benchmark's own spans around the public
/// calls must cover each traced op's wall up to this share; the uncovered
/// rest is printed as `unexplained`, never folded into a layer. The op wall
/// is one timer around the whole op, teardown of its plan and output
/// included, so the spans do not build it.
constexpr double kReconcileTolerance = 0.05;

/// Tolerance of the second reconciliation, against a wall measured without
/// any span: the summed layers of a traced op against the untraced median
/// of the same work (apps_batch: a round of the public calls, interleaved
/// with the traced rounds; SQL: the same first-time texts over TCP, where
/// the rest is net+service). It holds tracing cost and the noise between
/// two sets of ops, hence wider: interleaved apps rounds differed by up to
/// 6.3%, single jobs by up to 19%.
constexpr double kWallTolerance = 0.15;

/// Prints how `layers_ms` compares with `wall_ms`, a median measured without
/// spans, and fails the run when the layers differ from it by more than
/// kWallTolerance of the wall. With `residual_expected` the wall also holds
/// layers the benchmark cannot wrap, so only layers above the wall fail.
void CheckAgainstWall(Report* report, const std::string& what,
                      double layers_ms, double wall_ms, bool residual_expected);

class LayerProbe {
 public:
  LayerProbe(rheem::RheemContext* ctx, SpanLog* spans)
      : ctx_(ctx), spans_(spans) {}

  /// Compile + execute `plan` with `options`; `cache` (may be null) is the
  /// result cache the executor consults, as the JobServer's workers do.
  rheem::Result<rheem::ExecutionResult> Run(const rheem::Plan& plan,
                                            const rheem::ExecutionOptions& options,
                                            uint64_t op, uint64_t parent,
                                            rheem::ResultCache* cache = nullptr);

  /// Opens / closes a window over which kernel and batch counters are
  /// differenced; the deltas of successive windows add up, so untraced
  /// work between two windows stays out of the per-layer figures.
  void BeginWindow();
  void EndWindow();

  /// One traced operation's wall and the sum of its timed children; feeds
  /// the reconciliation lines.
  void AddOpWall(double wall_ms, double covered_ms);

  /// Records a layer time the caller measured itself (sql compile,
  /// fingerprint, page encode, plan construction).
  void AddLayer(const std::string& name, double ms) { extra_[name].Add(ms); }

  /// Writes every per-layer metric gathered so far into `report`, prints the
  /// reconciliation lines, and fails the run when the spans leave more than
  /// kReconcileTolerance of the op wall unexplained.
  void Emit(Report* report) const;

  /// Compile + execute + plan release time of the latest Run().
  double last_run_ms() const { return last_run_ms_; }

 private:
  rheem::RheemContext* ctx_;
  SpanLog* spans_;

  int64_t ops_ = 0;
  double last_run_ms_ = 0.0;
  Samples compile_ms_, execute_ms_, release_ms_, stage_ms_, overhead_ms_,
      stages_per_op_;
  Samples op_wall_, covered_, unexplained_;
  std::map<std::string, Samples> extra_;
  std::map<std::string, double> platform_stage_ms_;
  std::map<std::string, int64_t> platform_stages_;
  int64_t stages_total_ = 0;
  double sim_overhead_ms_ = 0, shuffle_mb_ = 0, moved_mb_ = 0;
  int64_t tasks_ = 0, boundary_reuse_ = 0, stages_reused_ = 0, retries_ = 0,
          reoptimizations_ = 0;

  std::vector<rheem::kernels::KernelTiming> kernels_before_;
  std::map<std::string, rheem::kernels::KernelTiming> kernels_delta_;
  std::map<std::string, int64_t> counters_before_, counters_delta_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
