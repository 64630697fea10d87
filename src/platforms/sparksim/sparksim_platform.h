#ifndef RHEEM_PLATFORMS_SPARKSIM_SPARKSIM_PLATFORM_H_
#define RHEEM_PLATFORMS_SPARKSIM_SPARKSIM_PLATFORM_H_

#include <memory>

#include "common/config.h"
#include "common/thread_pool.h"
#include "core/mapping/platform.h"
#include "platforms/sparksim/overhead.h"

namespace rheem {

/// \brief The cluster-style platform of the paper's Figure 2: partitioned
/// datasets, task-parallel narrow transforms on worker slots, real hash
/// shuffles at key boundaries, broadcast side inputs, and fixed per-job /
/// per-stage / per-task scheduling overheads charged as simulated time.
///
/// Strengths: large inputs, where the slots' parallel throughput dominates.
/// Weakness: fixed overheads swamp small and iterative jobs — a plain
/// in-process program beats it by an order of magnitude there, which is
/// exactly the behaviour Figure 2 reports for SVM on small LIBSVM datasets.
///
/// Config keys:
///   sparksim.slots           (int, default 8)  worker threads ("executors")
///   sparksim.partitions      (int, default = slots)
///   sparksim.per_quantum_us  (double, default 0.03)
///   sparksim.task_retries    (int, default 3) per-task retry budget
///   sparksim.job_submit_us / stage_us / task_us / shuffle_fixed_us /
///   collect_fixed_us         (see SparkOverheadModel)
///   kernels.fusion_discount  (double, default 0.75) modeled per-tuple
///                            discount for the narrow chains it fuses into
///                            one pass per partition
class SparkSimPlatform : public Platform {
 public:
  static constexpr const char* kName = "sparksim";

  explicit SparkSimPlatform(const Config& config = Config());

  const PlatformCostModel& cost_model() const override { return cost_model_; }

  Result<std::vector<Dataset>> ExecuteStage(const Stage& stage,
                                            const BoundaryMap& boundary_inputs,
                                            ExecutionMetrics* metrics) override;

  std::size_t num_partitions() const { return num_partitions_; }

 private:
  sparksim::SparkOverheadModel overhead_;
  std::unique_ptr<ThreadPool> pool_;
  std::size_t num_partitions_;
  int task_retries_;
  BasicCostModel cost_model_;
};

}  // namespace rheem

#endif  // RHEEM_PLATFORMS_SPARKSIM_SPARKSIM_PLATFORM_H_
