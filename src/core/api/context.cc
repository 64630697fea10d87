#include "core/api/context.h"

#include <filesystem>
#include <set>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/api/logical_nodes.h"
#include "core/optimizer/enumerator.h"
#include "core/optimizer/fingerprint.h"
#include "core/optimizer/logical_rewrites.h"
#include "core/optimizer/stats_catalog.h"
#include "core/service/job_server.h"
#include "storage/hot_buffer.h"
#include "platforms/javasim/javasim_platform.h"
#include "platforms/relsim/relsim_platform.h"
#include "platforms/sparksim/sparksim_platform.h"

namespace rheem {

RheemContext::RheemContext(Config config) : config_(std::move(config)) {
  ApplyObservabilityConfig(config_);
  if (config_.GetBool("stats.enabled", true).ValueOr(true)) {
    stats_ = std::make_unique<StatisticsCatalog>();
    const std::string path = config_.GetString("stats.path", "").ValueOr("");
    std::error_code ec;
    if (!path.empty() && std::filesystem::exists(path, ec)) {
      // A corrupt stats file is rejected and counted
      // (stats_catalog.corrupt_total); the context starts with an empty
      // catalog rather than planning from poisoned statistics.
      if (Status loaded = stats_->LoadFromFile(path); !loaded.ok()) {
        RHEEM_LOG(Warning) << "ignoring stats catalog at " << path << ": "
                           << loaded.ToString();
      }
    }
  }
}

RheemContext::~RheemContext() = default;  // JobServer's dtor drains

JobServer& RheemContext::job_server() {
  std::lock_guard<std::mutex> lock(server_mu_);
  if (server_ == nullptr) server_ = std::make_unique<JobServer>(this);
  return *server_;
}

Status RheemContext::AttachStorage(storage::StorageManager* manager) {
  if (manager == nullptr) {
    return Status::InvalidArgument("cannot attach a null StorageManager");
  }
  const int64_t capacity =
      config_.GetInt("storage.hot_buffer_capacity_bytes", 256ll * 1024 * 1024)
          .ValueOr(256ll * 1024 * 1024);
  // Replace-then-assign order: the old buffer unregisters its write observer
  // from the old manager before the new one registers.
  hot_buffer_.reset();
  hot_buffer_ = std::make_unique<storage::HotDataBuffer>(manager, capacity);
  storage_ = manager;
  return Status::OK();
}

Result<JobHandle> RheemContext::Submit(const Plan& logical_plan) {
  return job_server().Submit(logical_plan);
}

Result<JobHandle> RheemContext::Submit(const Plan& logical_plan,
                                       const JobOptions& options) {
  return job_server().Submit(logical_plan, options);
}

Result<JobHandle> RheemContext::SubmitSql(const std::string& query,
                                          sql::Catalog& catalog) {
  return job_server().SubmitSql(query, catalog);
}

Status RheemContext::RegisterDefaultPlatforms() {
  RHEEM_ASSIGN_OR_RETURN(
      std::string list,
      config_.GetString("rheem.platforms", "javasim,sparksim,relsim"));
  for (const std::string& raw : SplitString(list, ',')) {
    const std::string name(TrimWhitespace(raw));
    if (name.empty()) continue;
    if (name == "javasim") {
      RHEEM_RETURN_IF_ERROR(
          registry_.Register(std::make_unique<JavaSimPlatform>(config_)));
    } else if (name == "sparksim") {
      RHEEM_RETURN_IF_ERROR(
          registry_.Register(std::make_unique<SparkSimPlatform>(config_)));
    } else if (name == "relsim") {
      RHEEM_RETURN_IF_ERROR(
          registry_.Register(std::make_unique<RelSimPlatform>(config_)));
    } else {
      return Status::InvalidArgument("unknown built-in platform '" + name +
                                     "' in rheem.platforms");
    }
  }
  return Status::OK();
}

namespace {

/// Translates one GenericLogicalOp into its physical counterpart.
Result<Operator*> TranslateGeneric(const GenericLogicalOp& node,
                                   std::vector<Operator*> inputs,
                                   Plan* physical) {
  switch (node.kind()) {
    case OpKind::kCollectionSource:
      return physical->Add<CollectionSourceOp>(std::move(inputs),
                                               node.source_data);
    case OpKind::kLoopState:
      return physical->Add<LoopStateOp>(std::move(inputs));
    case OpKind::kLoopData:
      return physical->Add<LoopDataOp>(std::move(inputs));
    case OpKind::kMap:
      return physical->Add<MapOp>(std::move(inputs), node.map);
    case OpKind::kFlatMap:
      return physical->Add<FlatMapOp>(std::move(inputs), node.flat_map);
    case OpKind::kFilter:
      return physical->Add<FilterOp>(std::move(inputs), node.predicate);
    case OpKind::kProject:
      return physical->Add<ProjectOp>(std::move(inputs), node.columns);
    case OpKind::kDistinct:
      return physical->Add<DistinctOp>(std::move(inputs));
    case OpKind::kSort:
      return physical->Add<SortOp>(std::move(inputs), node.key);
    case OpKind::kSample:
      return physical->Add<SampleOp>(std::move(inputs), node.fraction,
                                     node.seed);
    case OpKind::kZipWithId:
      return physical->Add<ZipWithIdOp>(std::move(inputs));
    case OpKind::kReduceByKey:
      return physical->Add<ReduceByKeyOp>(std::move(inputs), node.key,
                                          node.reduce);
    case OpKind::kGroupByKey:
      return physical->Add<GroupByKeyOp>(std::move(inputs), node.key,
                                         node.group, node.groupby_algorithm);
    case OpKind::kGlobalReduce:
      return physical->Add<GlobalReduceOp>(std::move(inputs), node.reduce);
    case OpKind::kCount:
      return physical->Add<CountOp>(std::move(inputs));
    case OpKind::kBroadcastMap:
      return physical->Add<BroadcastMapOp>(std::move(inputs),
                                           node.broadcast_map);
    case OpKind::kJoin:
      return physical->Add<JoinOp>(std::move(inputs), node.key, node.key2,
                                   node.join_algorithm);
    case OpKind::kThetaJoin:
      return physical->Add<ThetaJoinOp>(std::move(inputs), node.theta);
    case OpKind::kIEJoin:
      return physical->Add<IEJoinOp>(std::move(inputs), node.iejoin);
    case OpKind::kCrossProduct:
      return physical->Add<CrossProductOp>(std::move(inputs));
    case OpKind::kUnion:
      return physical->Add<UnionOp>(std::move(inputs));
    case OpKind::kIntersect:
      return physical->Add<IntersectOp>(std::move(inputs));
    case OpKind::kSubtract:
      return physical->Add<SubtractOp>(std::move(inputs));
    case OpKind::kTopK:
      return physical->Add<TopKOp>(std::move(inputs), node.key, node.topk,
                                   node.ascending);
    case OpKind::kCollect:
      return physical->Add<CollectOp>(std::move(inputs));
    case OpKind::kRepeat:
    case OpKind::kDoWhile: {
      if (node.loop == nullptr || node.loop->body == nullptr) {
        return Status::InvalidPlan("loop node without a body");
      }
      std::map<int, std::string> body_pins;  // pins inside bodies are ignored
      RHEEM_ASSIGN_OR_RETURN(
          std::unique_ptr<Plan> body,
          RheemContext::TranslateToPhysical(*node.loop->body, &body_pins));
      std::shared_ptr<Plan> shared_body(std::move(body));
      if (node.kind() == OpKind::kRepeat) {
        return physical->Add<RepeatOp>(std::move(inputs),
                                       node.loop->iterations, shared_body);
      }
      return physical->Add<DoWhileOp>(std::move(inputs), node.loop->condition,
                                      node.loop->max_iterations, shared_body);
    }
    default:
      return Status::Unsupported(std::string("cannot translate logical kind ") +
                                 OpKindToString(node.kind()));
  }
}

}  // namespace

Result<std::unique_ptr<Plan>> RheemContext::TranslateToPhysical(
    const Plan& logical_plan, std::map<int, std::string>* pins) {
  if (logical_plan.sink() == nullptr) {
    return Status::InvalidPlan("logical plan has no sink");
  }
  // Reachable-from-sink set: Collect() style APIs leave unterminated side
  // branches behind; they are simply not part of this job.
  std::set<int> reachable;
  {
    std::vector<Operator*> work{logical_plan.sink()};
    while (!work.empty()) {
      Operator* op = work.back();
      work.pop_back();
      if (!reachable.insert(op->id()).second) continue;
      for (Operator* in : op->inputs()) work.push_back(in);
    }
  }
  RHEEM_ASSIGN_OR_RETURN(std::vector<Operator*> topo,
                         logical_plan.TopologicalOrder());

  auto physical = std::make_unique<Plan>();
  std::map<int, Operator*> translated;  // logical id -> physical op
  for (Operator* base : topo) {
    if (reachable.count(base->id()) == 0) continue;
    std::vector<Operator*> inputs;
    for (Operator* in : base->inputs()) {
      auto it = translated.find(in->id());
      if (it == translated.end()) {
        return Status::Internal("translation order violated");
      }
      inputs.push_back(it->second);
    }
    Operator* phys = nullptr;
    if (auto* generic = dynamic_cast<GenericLogicalOp*>(base)) {
      RHEEM_ASSIGN_OR_RETURN(phys, TranslateGeneric(*generic,
                                                    std::move(inputs),
                                                    physical.get()));
      if (pins != nullptr && !generic->pinned_platform.empty()) {
        (*pins)[phys->id()] = generic->pinned_platform;
      }
    } else if (auto* logical = dynamic_cast<LogicalOperator*>(base)) {
      // Paper §3.2 (core layer): arbitrary application logical operators get
      // a *wrapper* physical operator that invokes their ApplyOp per data
      // quantum. The logical plan must outlive execution of this job.
      if (logical->arity() != 1) {
        return Status::Unsupported(
            "only unary logical operators can be auto-wrapped; '" +
            logical->name() + "' must be compiled by its application");
      }
      FlatMapUdf wrapper;
      wrapper.meta.selectivity = logical->SelectivityHint();
      wrapper.meta.cost_factor = logical->CostHint();
      wrapper.fn = [logical](const Record& r) {
        std::vector<Record> out;
        Status st = logical->ApplyOp(r, &out);
        if (!st.ok()) out.clear();  // UDF contract: errors drop the quantum
        return out;
      };
      phys = physical->Add<FlatMapOp>(std::move(inputs), std::move(wrapper));
      phys->set_name("Wrapper(" + logical->name() + ")");
    } else {
      return Status::InvalidPlan("plan contains a non-logical operator '" +
                                 base->name() + "'");
    }
    translated[base->id()] = phys;
  }
  physical->SetSink(translated.at(logical_plan.sink()->id()));
  return physical;
}

Result<CompiledJob> RheemContext::Compile(const Plan& logical_plan,
                                          const ExecutionOptions& options) const {
  TraceSpan optimize_span("optimize", "optimizer");
  const uint64_t optimize_id = optimize_span.id();
  CountIfEnabled(MetricsRegistry::Global().counter("optimizer.plans_compiled"),
                 1);

  std::map<int, std::string> pins;
  std::unique_ptr<Plan> physical;
  {
    TraceSpan span("translate", "optimizer", optimize_id);
    RHEEM_ASSIGN_OR_RETURN(physical, TranslateToPhysical(logical_plan, &pins));
  }
  if (options.apply_logical_rewrites) {
    TraceSpan span("rewrite", "optimizer", optimize_id);
    RHEEM_ASSIGN_OR_RETURN(auto stats,
                           ApplicationRewrites::Apply(physical.get(), &pins));
    span.AddTag("rules_applied", static_cast<int64_t>(stats.total()));
  } else {
    RHEEM_ASSIGN_OR_RETURN(auto remap, physical->PruneToSink());
    std::map<int, std::string> updated;
    for (const auto& [old_id, platform] : pins) {
      auto it = remap.find(old_id);
      if (it != remap.end()) updated[it->second] = platform;
    }
    pins = std::move(updated);
  }
  RHEEM_RETURN_IF_ERROR(physical->Validate());

  EstimateMap estimates;
  {
    TraceSpan span("estimate", "optimizer", optimize_id);
    // Learned statistics: recorded cardinalities short-circuit the
    // estimator for every sub-plan a previous job already measured
    // (matched by platform-free fingerprint), so repeat traffic plans
    // with observed numbers instead of static selectivity guesses.
    EstimateMap learned;
    if (stats_ != nullptr) {
      auto fps = PlanFingerprint::SubPlans(*physical);
      if (fps.ok()) {
        for (const auto& [op_id, fp] : *fps) {
          Estimate e;
          if (stats_->LookupCardinality(fp, &e)) learned[op_id] = e;
        }
      }
      span.AddTag("learned", static_cast<int64_t>(learned.size()));
    }
    RHEEM_ASSIGN_OR_RETURN(
        estimates, CardinalityEstimator::Estimate(*physical, learned));
  }
  Enumerator enumerator(&registry_, &movement_);
  EnumeratorOptions eo;
  eo.force_platform = options.force_platform;
  eo.pinned_platforms = pins;
  eo.movement_aware = options.movement_aware;
  eo.stats = stats_.get();
  PlatformAssignment assignment;
  {
    TraceSpan span("enumerate", "optimizer", optimize_id);
    span.AddTag("operators", static_cast<int64_t>(physical->size()));
    RHEEM_ASSIGN_OR_RETURN(assignment, enumerator.Run(*physical, estimates, eo));
  }
  ExecutionPlan eplan;
  {
    TraceSpan span("split_stages", "optimizer", optimize_id);
    RHEEM_ASSIGN_OR_RETURN(
        eplan, StageSplitter::Split(*physical, std::move(assignment)));
    span.AddTag("stages", static_cast<int64_t>(eplan.stages.size()));
  }
  CountIfEnabled(MetricsRegistry::Global().counter("optimizer.stages_planned"),
                 static_cast<int64_t>(eplan.stages.size()));
  // The execution plan carries its estimates and enumeration constraints so
  // the executor can re-optimize mid-job under the same rules it was
  // planned with.
  eplan.estimates = estimates;
  eplan.enum_options = eo;
  CompiledJob job;
  job.physical = std::move(physical);
  job.estimates = std::move(estimates);
  job.eplan = std::move(eplan);
  return job;
}

Result<ExecutionResult> RheemContext::Execute(
    const Plan& logical_plan, const ExecutionOptions& options) const {
  RHEEM_ASSIGN_OR_RETURN(CompiledJob job, Compile(logical_plan, options));
  CrossPlatformExecutor executor(config_);
  if (options.monitor != nullptr) executor.set_monitor(options.monitor);
  executor.EnableFailover(&registry_, &movement_);
  executor.set_stats_catalog(stats_.get());
  auto result = executor.Execute(job.eplan);
  // Direct (non-JobServer) runs flush the trace here, once the job's spans
  // have all closed.
  const std::string trace_path =
      config_.GetString("trace.path", "").ValueOr("");
  if (!trace_path.empty() && Tracer::Global().enabled()) {
    if (Status st = Tracer::Global().WriteChromeTrace(trace_path); !st.ok()) {
      RHEEM_LOG(Warning) << "failed to write trace to " << trace_path << ": "
                         << st.ToString();
    }
  }
  return result;
}

}  // namespace rheem
