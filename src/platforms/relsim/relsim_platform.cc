#include "platforms/relsim/relsim_platform.h"

#include "common/metrics.h"
#include "common/trace.h"
#include "core/optimizer/stage_splitter.h"
#include "data/batch.h"
#include "platforms/javasim/javasim_operators.h"

namespace rheem {

namespace {

BasicCostModel::Params RelParams(const Config& config, double query_setup_us) {
  BasicCostModel::Params p;
  p.per_quantum_micros =
      config.GetDouble("relsim.per_quantum_us", 0.012).ValueOr(0.012);
  p.parallelism = 2.0;  // intra-query parallelism of a classical engine
  p.stage_overhead_micros = query_setup_us;
  p.job_overhead_micros = query_setup_us;
  p.boundary_micros_per_byte = 0.002;  // COPY-in / COPY-out style transfer
  p.boundary_fixed_micros = 200.0;
  p.shuffle_micros_per_quantum = 0.0;
  return p;
}

MappingTable RelMappings() {
  MappingTable t;
  auto add = [&t](OpKind kind, const char* exec, double weight,
                  const char* context = "") {
    t.Add(OperatorMapping{kind, "", exec, weight, context});
  };
  add(OpKind::kCollectionSource, "RelTableScan", 1.0);
  add(OpKind::kFilter, "RelFilterUdf", 2.0,
      "UDF predicate evaluated row-at-a-time");
  add(OpKind::kProject, "RelProject", 0.3, "columnar projection");
  add(OpKind::kDistinct, "RelHashDistinct", 0.6);
  add(OpKind::kSort, "RelOrderBy", 0.6);
  add(OpKind::kReduceByKey, "RelHashAggregate", 0.5,
      "hash aggregation, combiner fused");
  t.Add(OperatorMapping{OpKind::kGroupByKey, "HashGroupBy", "RelHashGroup",
                        0.6, ""});
  t.Add(OperatorMapping{OpKind::kGroupByKey, "SortGroupBy", "RelSortGroup",
                        0.7, ""});
  add(OpKind::kGlobalReduce, "RelScalarAggregate", 0.5);
  add(OpKind::kCount, "RelCountStar", 0.1, "catalog row count");
  t.Add(OperatorMapping{OpKind::kJoin, "HashJoin", "RelHashJoin", 0.5, ""});
  t.Add(OperatorMapping{OpKind::kJoin, "SortMergeJoin", "RelMergeJoin", 0.6,
                        ""});
  add(OpKind::kCrossProduct, "RelNestedLoop", 1.0);
  add(OpKind::kUnion, "RelUnionAll", 0.3);
  add(OpKind::kIntersect, "RelIntersect", 0.6);
  add(OpKind::kSubtract, "RelExcept", 0.6);
  add(OpKind::kTopK, "RelOrderByLimit", 0.5);
  add(OpKind::kCollect, "RelCursorFetch", 1.0);
  // No Map/FlatMap/Sample/ZipWithId/BroadcastMap/ThetaJoin/IEJoin/loops:
  // arbitrary record-shaping UDFs and iterative drivers are outside a
  // classical relational engine's operator surface.
  return t;
}

}  // namespace

RelSimPlatform::RelSimPlatform(const Config& config)
    : Platform(kName),
      query_setup_us_(
          config.GetDouble("relsim.query_setup_us", 400.0).ValueOr(400.0)),
      cost_model_(RelParams(config, query_setup_us_)) {
  mappings_ = RelMappings();
}

Result<std::vector<Dataset>> RelSimPlatform::ExecuteStage(
    const Stage& stage, const BoundaryMap& boundary_inputs,
    ExecutionMetrics* metrics) {
  // Query planning/setup charge per submitted atom.
  metrics->sim_overhead_micros += static_cast<int64_t>(query_setup_us_);
  metrics->jobs_run += 1;
  CountIfEnabled(MetricsRegistry::Global().counter("relsim.queries_run"), 1);

  // Ingest boundary data through the columnar Batch format (real measured
  // conversion work), then run the atom on the shared kernels. An input
  // Batch cannot hold (ragged rows, a double_list cell, a mixed int64/double
  // column) stays as rows, counted like the kernels' row fallback.
  std::vector<Dataset> ingested;
  ingested.reserve(boundary_inputs.size());
  BoundaryMap converted;
  {
    TraceSpan ingest_span("ingest", "relsim");
    ingest_span.AddTag("inputs", static_cast<int64_t>(boundary_inputs.size()));
    for (const auto& [op_id, dataset] : boundary_inputs) {
      auto batch = Batch::FromDataset(*dataset);
      if (!batch.ok()) {
        CountIfEnabled(
            MetricsRegistry::Global().counter("batch.fallbacks_total"), 1);
        converted[op_id] = dataset;
        continue;
      }
      ingested.push_back(batch->ToDataset());
      if (dataset->has_schema()) ingested.back().set_schema(dataset->schema());
      converted[op_id] = &ingested.back();
    }
  }

  javasim::DatasetWalker walker(metrics);
  RHEEM_RETURN_IF_ERROR(walker.RunOps(stage.ops(), converted));
  std::vector<Dataset> outputs;
  outputs.reserve(stage.outputs().size());
  for (const Operator* out : stage.outputs()) {
    RHEEM_ASSIGN_OR_RETURN(const Dataset* d, walker.ResultOf(out->id()));
    outputs.push_back(*d);
  }
  return outputs;
}

}  // namespace rheem
