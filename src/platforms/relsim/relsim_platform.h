#ifndef RHEEM_PLATFORMS_RELSIM_RELSIM_PLATFORM_H_
#define RHEEM_PLATFORMS_RELSIM_RELSIM_PLATFORM_H_

#include "common/config.h"
#include "core/mapping/platform.h"

namespace rheem {

/// \brief The relational platform (the reproduction's PostgreSQL stand-in).
///
/// Like every platform it is its operator mappings, cost model and stage
/// executor. The mappings cover only the relational subset of the physical
/// operator pool — filters, projections, aggregations, equi-joins, sort,
/// distinct, union — and none of the UDF-iteration machinery (no
/// Map/FlatMap/BroadcastMap, no loops). Its cost model makes
/// scans/aggregations cheap and its boundary expensive: entering the
/// platform columnarizes each boundary input into a Batch and back (real
/// work; inputs Batch cannot hold stay rows and count
/// `batch.fallbacks_total`), which is why the optimizer only routes
/// aggregation-heavy subplans here when they are large enough to amortize
/// the ingestion (ablation A2). Stages then run on the shared kernels.
///
/// Config keys:
///   relsim.per_quantum_us (double, default 0.012)
///   relsim.query_setup_us (double, default 400)
class RelSimPlatform : public Platform {
 public:
  static constexpr const char* kName = "relsim";

  explicit RelSimPlatform(const Config& config = Config());

  const PlatformCostModel& cost_model() const override { return cost_model_; }

  Result<std::vector<Dataset>> ExecuteStage(const Stage& stage,
                                            const BoundaryMap& boundary_inputs,
                                            ExecutionMetrics* metrics) override;

 private:
  double query_setup_us_;
  BasicCostModel cost_model_;
};

}  // namespace rheem

#endif  // RHEEM_PLATFORMS_RELSIM_RELSIM_PLATFORM_H_
