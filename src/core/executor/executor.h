#ifndef RHEEM_CORE_EXECUTOR_EXECUTOR_H_
#define RHEEM_CORE_EXECUTOR_EXECUTOR_H_

#include <functional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/executor/cancellation.h"
#include "core/executor/monitor.h"
#include "core/optimizer/stage_splitter.h"

namespace rheem {

class ResultCache;         // core/executor/result_cache.h
class MovementCostModel;   // core/optimizer/channel.h
class StatisticsCatalog;   // core/optimizer/stats_catalog.h

/// \brief Result of executing one RHEEM job end to end.
struct ExecutionResult {
  Dataset output;
  ExecutionMetrics metrics;
  /// EXPLAIN ANALYZE-style per-stage report (platform, attempts, wall time,
  /// output rows, movement totals, failover and re-optimization events).
  /// Populated when the process-wide MetricsRegistry is enabled
  /// (`metrics.enabled`); empty otherwise so the disabled path does no
  /// string work.
  std::string report;
  /// One human-readable line per mid-job re-optimization: which operator's
  /// observed cardinality diverged, by how much, and what was re-planned.
  /// Always populated (operators need these even with metrics disabled);
  /// size() == metrics.reoptimizations.
  std::vector<std::string> decisions;
};

/// \brief RHEEM's Executor (paper Figure 1 / §4.2): schedules the execution
/// plan's task atoms onto their platforms, moves data across platform
/// boundaries, monitors progress, retries failed atoms, and hands the final
/// aggregate back to the caller.
///
/// Independent stages (task atoms with no dependency path between them) run
/// concurrently on a ThreadPool; dependent stages respect the DAG order. The
/// calling thread acts as the scheduler and blocks until the job finishes,
/// so it must not itself be a worker of the stage pool.
///
/// Cross-platform boundaries perform *real* serialization+deserialization of
/// the crossing datasets (ChannelKind::kSerializedStream), so the movement
/// costs reported by benchmarks are measured, not modelled. Within one job a
/// producer crossing to several consumer stages on the same foreign platform
/// is encoded/decoded once — later consumers share the first conversion —
/// and movement totals count each (producer, target platform) edge once.
///
/// Fault tolerance ("coping with failures", paper §4.2): each stage attempt
/// retries with exponential, deadline-aware backoff; after
/// `executor.failover_threshold` consecutive failures on one platform the
/// platform is declared blacked out and — when EnableFailover() armed the
/// executor with the platform registry — the remaining unexecuted stages are
/// re-enumerated onto the healthy platforms, so a platform blackout degrades
/// the job to a slower plan instead of failing it. Materialized stage
/// outputs, cached boundary conversions and checkpoints all stay valid
/// across the re-plan. Every failure path is instrumented with FaultInjector
/// sites (see docs/fault_tolerance.md).
///
/// Config keys:
///   executor.max_retries        (int, default 2)   retries per failed stage
///   executor.retry_backoff_us   (int, default 1000): base of the exponential
///       per-retry backoff (doubles per attempt); 0 disables sleeping.
///   executor.retry_backoff_max_us (int, default 250000): backoff ceiling.
///   executor.failover_threshold (int, default 3): consecutive stage-attempt
///       failures on one platform before it is blacked out.
///   executor.max_failovers      (int, default 2): re-plans per job.
///   executor.parallel_stages    (bool, default true): run independent stages
///       concurrently; disable for strictly serial stage-by-stage execution.
///   executor.checkpoint_dir     (string, default "" = off): directory where
///       every stage's boundary outputs are persisted (checksummed; torn or
///       corrupt files are detected and re-executed); a re-run of the same
///       job (keyed by executor.job_id) skips stages whose products are
///       already checkpointed — coarse-grained fault recovery for long
///       multi-platform jobs ("coping with failures", paper §4.2).
///   executor.job_id             (string, default "job")
///   executor.reoptimize_threshold (double, default 3.0, must be > 1.0):
///       progressive re-optimization (paper §4.2 feedback edge, RHEEMix):
///       when a completed stage's observed output cardinality diverges from
///       its compile-time estimate by more than this factor (in either
///       direction), the remaining unexecuted stages are re-enumerated with
///       completed stages pinned — the same machinery as platform failover,
///       but triggered by mis-estimates instead of blackouts. Requires
///       EnableFailover() (the registry + movement model) and an
///       ExecutionPlan carrying its compile-time estimates
///       (RheemContext::Compile populates them).
///   executor.max_reoptimizations (int, default 2, must be >= 0): re-plan
///       budget per job; 0 disables progressive re-optimization.
class CrossPlatformExecutor {
 public:
  explicit CrossPlatformExecutor(Config config = Config());

  void set_monitor(ExecutionMonitor* monitor) { monitor_ = monitor; }

  /// Pool carrying concurrent stage tasks (not owned). Defaults to the
  /// process-wide DefaultThreadPool().
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Cancellation/deadline polled at stage boundaries and during retry
  /// backoff: a cancelled or overdue job stops before its next stage attempt
  /// and Execute returns Cancelled / DeadlineExceeded.
  void set_stop_condition(StopCondition stop) { stop_ = stop; }

  /// Cross-job sub-plan result cache (not owned; typically the JobServer's).
  /// When set and enabled, a stage whose every output is cached under its
  /// sub-plan fingerprint is skipped entirely, and every executed stage's
  /// outputs are inserted for future jobs. Reuse relies on the
  /// Operator::FingerprintToken contract — see ResultCache.
  void set_result_cache(ResultCache* cache) { result_cache_ = cache; }

  /// Arms platform failover: when a platform blacks out mid-job, the
  /// remaining unexecuted stages are re-enumerated over `registry` (minus
  /// the blacked-out platforms) using `movement` for boundary costs. Both
  /// are borrowed and must outlive Execute(). Without this call a blackout
  /// fails the job after the retry budget, as before.
  void EnableFailover(const PlatformRegistry* registry,
                      const MovementCostModel* movement) {
    registry_ = registry;
    movement_ = movement;
  }

  /// Learned-statistics sink (not owned; typically the RheemContext's).
  /// When set, every job records its observed sub-plan cardinalities and
  /// per-(operator, platform) cost ratios into the catalog after execution,
  /// so later compilations plan with measured numbers.
  void set_stats_catalog(StatisticsCatalog* catalog) {
    stats_catalog_ = catalog;
  }

  /// Runs all stages of `eplan` and returns the plan sink's output.
  Result<ExecutionResult> Execute(const ExecutionPlan& eplan);

 private:
  Config config_;
  ExecutionMonitor* monitor_ = nullptr;  // optional, not owned
  ThreadPool* pool_ = nullptr;           // optional, not owned
  ResultCache* result_cache_ = nullptr;  // optional, not owned
  const PlatformRegistry* registry_ = nullptr;     // failover, not owned
  const MovementCostModel* movement_ = nullptr;    // failover, not owned
  StatisticsCatalog* stats_catalog_ = nullptr;     // optional, not owned
  StopCondition stop_;
};

}  // namespace rheem

#endif  // RHEEM_CORE_EXECUTOR_EXECUTOR_H_
