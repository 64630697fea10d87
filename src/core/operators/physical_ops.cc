#include "core/operators/physical_ops.h"

namespace rheem {

namespace {

template <typename T>
const T& As(const PhysicalOperator* op) {
  return *static_cast<const T*>(op);
}

}  // namespace

OpIdentity PhysicalOperator::Describe(OpIdentity::Form form) const {
  OpIdentity id(form, OpKindToString(kind()));
  switch (kind()) {
    case OpKind::kCollectionSource:
      id.Add(As<CollectionSourceOp>(this).data());
      break;
    case OpKind::kStageInput:
      id.AddSlot(As<StageInputOp>(this).slot());
      break;
    case OpKind::kMap: id.Add(As<MapOp>(this).udf()); break;
    case OpKind::kFilter: id.Add(As<FilterOp>(this).udf()); break;
    case OpKind::kProject: id.AddColumns(As<ProjectOp>(this).columns()); break;
    case OpKind::kSort: id.Add(As<SortOp>(this).key()); break;
    case OpKind::kSample:
      id.AddSample(As<SampleOp>(this).fraction(), As<SampleOp>(this).seed());
      break;
    case OpKind::kReduceByKey:
      id.Add(As<ReduceByKeyOp>(this).key());
      id.Add(As<ReduceByKeyOp>(this).reduce());
      break;
    case OpKind::kGroupByKey:
      id.Add(As<GroupByKeyOp>(this).key());
      id.AddClosure();
      break;
    case OpKind::kGlobalReduce:
      id.Add(As<GlobalReduceOp>(this).reduce());
      break;
    case OpKind::kJoin:
      id.AddJoinKeys(As<JoinOp>(this).left_key(), As<JoinOp>(this).right_key());
      break;
    case OpKind::kThetaJoin:
      id.Add(As<ThetaJoinOp>(this).condition());
      break;
    case OpKind::kIEJoin: id.Add(As<IEJoinOp>(this).spec()); break;
    case OpKind::kTopK:
      id.AddTopK(As<TopKOp>(this).k(), As<TopKOp>(this).ascending());
      id.Add(As<TopKOp>(this).key());
      break;
    case OpKind::kRepeat:
      id.AddLoop(As<RepeatOp>(this).num_iterations(),
                 As<RepeatOp>(this).body_ptr().get());
      break;
    case OpKind::kDoWhile:
      id.AddLoop(As<DoWhileOp>(this).max_iterations(),
                 As<DoWhileOp>(this).body_ptr().get());
      id.AddClosure();
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

std::string PhysicalOperator::FingerprintToken() const {
  return Describe(OpIdentity::Form::kToken).str();
}

std::string PhysicalOperator::Detail() const {
  return Describe(OpIdentity::Form::kDetail).str();
}

bool PhysicalOperator::opaque() const {
  return Describe(OpIdentity::Form::kDetail).opaque();
}

const char* OpKindToString(OpKind kind) {
  switch (kind) {
    case OpKind::kCollectionSource: return "CollectionSource";
    case OpKind::kStageInput: return "StageInput";
    case OpKind::kLoopState: return "LoopState";
    case OpKind::kLoopData: return "LoopData";
    case OpKind::kMap: return "Map";
    case OpKind::kFlatMap: return "FlatMap";
    case OpKind::kFilter: return "Filter";
    case OpKind::kProject: return "Project";
    case OpKind::kDistinct: return "Distinct";
    case OpKind::kSort: return "Sort";
    case OpKind::kSample: return "Sample";
    case OpKind::kZipWithId: return "ZipWithId";
    case OpKind::kReduceByKey: return "ReduceByKey";
    case OpKind::kGroupByKey: return "GroupByKey";
    case OpKind::kGlobalReduce: return "GlobalReduce";
    case OpKind::kCount: return "Count";
    case OpKind::kTopK: return "TopK";
    case OpKind::kBroadcastMap: return "BroadcastMap";
    case OpKind::kJoin: return "Join";
    case OpKind::kThetaJoin: return "ThetaJoin";
    case OpKind::kIEJoin: return "IEJoin";
    case OpKind::kCrossProduct: return "CrossProduct";
    case OpKind::kUnion: return "Union";
    case OpKind::kIntersect: return "Intersect";
    case OpKind::kSubtract: return "Subtract";
    case OpKind::kRepeat: return "Repeat";
    case OpKind::kDoWhile: return "DoWhile";
    case OpKind::kCollect: return "Collect";
  }
  return "?";
}

Result<OpKind> OpKindFromString(const std::string& name) {
  static const OpKind kAll[] = {
      OpKind::kCollectionSource, OpKind::kStageInput, OpKind::kLoopState,
      OpKind::kLoopData,         OpKind::kMap,        OpKind::kFlatMap,
      OpKind::kFilter,           OpKind::kProject,    OpKind::kDistinct,
      OpKind::kSort,             OpKind::kSample,     OpKind::kZipWithId,
      OpKind::kReduceByKey,      OpKind::kGroupByKey, OpKind::kGlobalReduce,
      OpKind::kCount,            OpKind::kBroadcastMap, OpKind::kJoin,
      OpKind::kThetaJoin,        OpKind::kIEJoin,     OpKind::kCrossProduct,
      OpKind::kUnion,            OpKind::kRepeat,     OpKind::kDoWhile,
      OpKind::kIntersect,        OpKind::kSubtract,   OpKind::kTopK,
      OpKind::kCollect};
  for (OpKind kind : kAll) {
    if (name == OpKindToString(kind)) return kind;
  }
  return Status::NotFound("unknown operator kind '" + name + "'");
}

}  // namespace rheem
