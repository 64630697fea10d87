#include "core/api/logical_nodes.h"

namespace rheem {

int GenericLogicalOp::arity() const {
  switch (kind_) {
    case OpKind::kCollectionSource:
    case OpKind::kStageInput:
    case OpKind::kLoopState:
    case OpKind::kLoopData:
      return 0;
    case OpKind::kBroadcastMap:
    case OpKind::kJoin:
    case OpKind::kThetaJoin:
    case OpKind::kIEJoin:
    case OpKind::kCrossProduct:
    case OpKind::kUnion:
    case OpKind::kIntersect:
    case OpKind::kSubtract:
    case OpKind::kRepeat:
    case OpKind::kDoWhile:
      return 2;
    default:
      return 1;
  }
}

Status GenericLogicalOp::ApplyOp(const Record& in, std::vector<Record>* out) {
  switch (kind_) {
    case OpKind::kMap:
      if (!map.fn) return Status::InvalidArgument("Map UDF not set");
      out->push_back(map.fn(in));
      return Status::OK();
    case OpKind::kFlatMap: {
      if (!flat_map.fn) return Status::InvalidArgument("FlatMap UDF not set");
      for (auto& r : flat_map.fn(in)) out->push_back(std::move(r));
      return Status::OK();
    }
    case OpKind::kFilter:
      if (!predicate.fn) return Status::InvalidArgument("Filter UDF not set");
      if (predicate.fn(in)) out->push_back(in);
      return Status::OK();
    case OpKind::kProject:
      out->push_back(in.Project(columns));
      return Status::OK();
    default:
      return Status::Unsupported(
          kind_name() +
          " is a set-oriented template; it has no per-quantum ApplyOp");
  }
}

double GenericLogicalOp::SelectivityHint() const {
  switch (kind_) {
    case OpKind::kMap: return map.meta.selectivity;
    case OpKind::kFlatMap: return flat_map.meta.selectivity;
    case OpKind::kFilter: return predicate.meta.selectivity;
    case OpKind::kSample: return fraction;
    case OpKind::kReduceByKey:
    case OpKind::kGroupByKey:
      return key.meta.selectivity;
    case OpKind::kThetaJoin: return theta.meta.selectivity;
    default: return 1.0;
  }
}

OpIdentity GenericLogicalOp::Describe(OpIdentity::Form form) const {
  OpIdentity id(form, kind_name());
  switch (kind_) {
    case OpKind::kCollectionSource: id.Add(source_data); break;
    case OpKind::kMap: id.Add(map); break;
    case OpKind::kFilter: id.Add(predicate); break;
    case OpKind::kProject: id.AddColumns(columns); break;
    case OpKind::kSort: id.Add(key); break;
    case OpKind::kSample: id.AddSample(fraction, seed); break;
    case OpKind::kReduceByKey:
      id.Add(key);
      id.Add(reduce);
      break;
    case OpKind::kGroupByKey:
      id.Add(key);
      id.AddClosure();
      break;
    case OpKind::kGlobalReduce: id.Add(reduce); break;
    case OpKind::kJoin: id.AddJoinKeys(key, key2); break;
    case OpKind::kThetaJoin: id.Add(theta); break;
    case OpKind::kIEJoin: id.Add(iejoin); break;
    case OpKind::kTopK:
      id.AddTopK(topk, ascending);
      id.Add(key);
      break;
    case OpKind::kRepeat:
    case OpKind::kDoWhile:
      if (loop != nullptr) {
        const bool do_while = kind_ == OpKind::kDoWhile;
        id.AddLoop(do_while ? loop->max_iterations : loop->iterations,
                   loop->body.get());
        if (do_while) id.AddClosure();
      }
      break;
    case OpKind::kFlatMap:
    case OpKind::kBroadcastMap:
      id.AddClosure();
      break;
    default:
      break;
  }
  return id;
}

std::string GenericLogicalOp::FingerprintToken() const {
  // Planning inputs follow the payload: they steer the optimizer, so they
  // key the plan cache, but they never change the output bag.
  std::string t = Describe(OpIdentity::Form::kToken).str();
  if (!pinned_platform.empty()) t += "|pin=" + pinned_platform;
  t += "|sel=" + std::to_string(SelectivityHint()) +
       "|cost=" + std::to_string(CostHint());
  if (kind_ == OpKind::kJoin) {
    t += join_algorithm == JoinAlgorithm::kHash ? "|hash" : "|merge";
  } else if (kind_ == OpKind::kGroupByKey) {
    t += groupby_algorithm == GroupByAlgorithm::kHash ? "|hash" : "|sort";
  }
  return t;
}

std::string GenericLogicalOp::Detail() const {
  return Describe(OpIdentity::Form::kDetail).str();
}

double GenericLogicalOp::CostHint() const {
  switch (kind_) {
    case OpKind::kMap: return map.meta.cost_factor;
    case OpKind::kFlatMap: return flat_map.meta.cost_factor;
    case OpKind::kFilter: return predicate.meta.cost_factor;
    case OpKind::kBroadcastMap: return broadcast_map.meta.cost_factor;
    case OpKind::kReduceByKey: return reduce.meta.cost_factor;
    case OpKind::kGroupByKey: return group.meta.cost_factor;
    case OpKind::kThetaJoin: return theta.meta.cost_factor;
    default: return 1.0;
  }
}

}  // namespace rheem
