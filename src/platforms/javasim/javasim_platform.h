#ifndef RHEEM_PLATFORMS_JAVASIM_JAVASIM_PLATFORM_H_
#define RHEEM_PLATFORMS_JAVASIM_JAVASIM_PLATFORM_H_

#include "common/config.h"
#include "core/mapping/platform.h"
#include "core/operators/kernels.h"

namespace rheem {

/// \brief The "plain Java program" platform of the paper's Figure 2:
/// eager, in-process, with essentially zero fixed overheads.
///
/// Strengths (encoded in its cost model): tiny/medium inputs and iterative
/// jobs, where cluster-style platforms drown in scheduling latency. Its
/// kernels run morsel-parallel on the shared thread pool and fuse
/// record-at-a-time chains into single passes, but it has no cluster-scale
/// horizontal parallelism, so throughput-bound jobs still favor sparksim.
///
/// Config keys:
///   javasim.per_quantum_us    (double, default 0.03) estimated cost/quantum
///   kernels.parallel          (bool,   default true) morsel parallelism
///   kernels.morsel_size       (int,    default 16384) records per morsel
///   kernels.cost_parallelism  (double, default 3.0) modeled speedup from
///                             morsel parallelism when kernels.parallel is on
///   kernels.fusion_discount   (double, default 0.75) modeled per-tuple
///                             discount for the ops it fuses
class JavaSimPlatform : public Platform {
 public:
  static constexpr const char* kName = "javasim";

  explicit JavaSimPlatform(const Config& config = Config());

  const PlatformCostModel& cost_model() const override { return cost_model_; }

  Result<std::vector<Dataset>> ExecuteStage(const Stage& stage,
                                            const BoundaryMap& boundary_inputs,
                                            ExecutionMetrics* metrics) override;

 private:
  kernels::KernelOptions kernel_opts_;
  BasicCostModel cost_model_;
};

}  // namespace rheem

#endif  // RHEEM_PLATFORMS_JAVASIM_JAVASIM_PLATFORM_H_
