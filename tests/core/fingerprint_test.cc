#include "core/optimizer/fingerprint.h"

#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/api/data_quanta.h"
#include "core/api/logical_nodes.h"
#include "core/expr/expr.h"
#include "core/operators/physical_ops.h"

namespace rheem {
namespace {

Dataset Numbers(int n) {
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) records.push_back(Record({Value(i)}));
  return Dataset(std::move(records));
}

MapUdf PlusOne() {
  MapUdf udf;
  udf.fn = [](const Record& r) {
    return Record({Value(r[0].ToInt64Or(0) + 1)});
  };
  return udf;
}

/// src -> map -> collect over Numbers(n), with a parameterizable TopK tail.
uint64_t PhysicalPipelineFp(int n, int64_t k, bool ascending) {
  Plan plan;
  auto* src = plan.Add<CollectionSourceOp>({}, Numbers(n));
  auto* map = plan.Add<MapOp>({src}, PlusOne());
  KeyUdf key;
  key.fn = [](const Record& r) { return r[0]; };
  auto* topk = plan.Add<TopKOp>({map}, key, k, ascending);
  auto* sink = plan.Add<CollectOp>({topk});
  plan.SetSink(sink);
  auto fp = PlanFingerprint::Compute(plan);
  EXPECT_TRUE(fp.ok()) << fp.status().ToString();
  return fp.ValueOr(0);
}

TEST(FingerprintTest, IdenticalPlansAgree) {
  EXPECT_EQ(PhysicalPipelineFp(10, 3, true), PhysicalPipelineFp(10, 3, true));
}

TEST(FingerprintTest, ParameterChangesFingerprint) {
  const uint64_t base = PhysicalPipelineFp(10, 3, true);
  EXPECT_NE(base, PhysicalPipelineFp(10, 5, true));   // k
  EXPECT_NE(base, PhysicalPipelineFp(10, 3, false));  // sort direction
}

TEST(FingerprintTest, SourceDataChangesFingerprint) {
  EXPECT_NE(PhysicalPipelineFp(10, 3, true), PhysicalPipelineFp(11, 3, true));
}

TEST(FingerprintTest, StructureChangesFingerprint) {
  Plan one;
  auto* src1 = one.Add<CollectionSourceOp>({}, Numbers(10));
  auto* map1 = one.Add<MapOp>({src1}, PlusOne());
  one.SetSink(one.Add<CollectOp>({map1}));

  Plan two;
  auto* src2 = two.Add<CollectionSourceOp>({}, Numbers(10));
  auto* map2a = two.Add<MapOp>({src2}, PlusOne());
  auto* map2b = two.Add<MapOp>({map2a}, PlusOne());
  two.SetSink(two.Add<CollectOp>({map2b}));

  auto fp_one = PlanFingerprint::Compute(one);
  auto fp_two = PlanFingerprint::Compute(two);
  ASSERT_TRUE(fp_one.ok());
  ASSERT_TRUE(fp_two.ok());
  EXPECT_NE(*fp_one, *fp_two);
}

TEST(FingerprintTest, PlanWithoutSinkIsAnError) {
  Plan plan;
  plan.Add<CollectionSourceOp>({}, Numbers(3));
  EXPECT_FALSE(PlanFingerprint::Compute(plan).ok());
}

TEST(FingerprintTest, LogicalPlansFingerprintViaSeal) {
  RheemContext ctx;
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  auto build = [&ctx](double selectivity) {
    auto job = std::make_unique<RheemJob>(&ctx);
    Plan* plan =
        job->LoadCollection(Numbers(10))
            .Filter([](const Record& r) { return r[0].ToInt64Or(0) > 3; },
                    UdfMeta::Selective(selectivity))
            .Seal()
            .ValueOrDie();
    auto fp = PlanFingerprint::Compute(*plan);
    EXPECT_TRUE(fp.ok()) << fp.status().ToString();
    return fp.ValueOr(0);
  };
  EXPECT_EQ(build(0.5), build(0.5));  // same pipeline -> same key
  EXPECT_NE(build(0.5), build(0.9));  // UDF metadata participates
}

TEST(FingerprintTest, DeclarativeConstantChangesFingerprint) {
  // The plan-cache soundness fix: closure predicates hash only by shape, so
  // two filters differing in a constant used to collide. Declarative
  // predicates fold their canonical encoding — including every literal.
  RheemContext ctx;
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  auto build = [&ctx](int64_t threshold) {
    auto job = std::make_unique<RheemJob>(&ctx);
    Plan* plan = job->LoadCollection(Numbers(10))
                     .Filter(expr::Gt(expr::Field(0, ValueType::kInt64),
                                      expr::Lit(threshold)))
                     .Seal()
                     .ValueOrDie();
    return PlanFingerprint::Compute(*plan).ValueOr(0);
  };
  EXPECT_EQ(build(3), build(3));
  EXPECT_NE(build(3), build(4));  // same shape, different constant
}

TEST(FingerprintTest, DeclarativePhysicalTokensFoldExpressions) {
  auto fp = [](int64_t threshold) {
    Plan plan;
    auto* src = plan.Add<CollectionSourceOp>({}, Numbers(10));
    auto udf = expr::MakePredicateUdf(
                   expr::Gt(expr::Field(0, ValueType::kInt64),
                            expr::Lit(threshold)))
                   .ValueOrDie();
    auto* f = plan.Add<FilterOp>({src}, udf);
    plan.SetSink(plan.Add<CollectOp>({f}));
    return PlanFingerprint::Compute(plan).ValueOr(0);
  };
  EXPECT_EQ(fp(3), fp(3));
  EXPECT_NE(fp(3), fp(4));  // result-cache keys distinguish constants too
}

TEST(FingerprintTest, CommutedConjunctionsShareFingerprint) {
  // Conjunction normalization: a AND b fingerprints like b AND a.
  auto fp = [](bool flipped) {
    Plan plan;
    auto* src = plan.Add<CollectionSourceOp>({}, Numbers(10));
    auto a = expr::Gt(expr::Field(0, ValueType::kInt64), expr::Lit(2));
    auto b = expr::Lt(expr::Field(0, ValueType::kInt64), expr::Lit(8));
    auto udf = expr::MakePredicateUdf(flipped ? expr::And(b, a)
                                              : expr::And(a, b))
                   .ValueOrDie();
    auto* f = plan.Add<FilterOp>({src}, udf);
    plan.SetSink(plan.Add<CollectOp>({f}));
    return PlanFingerprint::Compute(plan).ValueOr(0);
  };
  EXPECT_EQ(fp(false), fp(true));
}

TEST(FingerprintTest, DatasetHashCoversContent) {
  const uint64_t a = PlanFingerprint::OfDataset(Numbers(5));
  const uint64_t b = PlanFingerprint::OfDataset(Numbers(5));
  const uint64_t c = PlanFingerprint::OfDataset(Numbers(6));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// --- one operator identity ---------------------------------------------------

using Tweak = std::function<void(GenericLogicalOp*)>;

expr::ExprPtr F(int i) { return expr::Field(i, ValueType::kInt64); }

/// Loop body state -> Map([$0 + c]).
std::shared_ptr<LogicalLoopSpec> LoopBody(int64_t c) {
  auto spec = std::make_shared<LogicalLoopSpec>();
  spec->iterations = 3;
  spec->max_iterations = 3;
  spec->body = std::make_shared<Plan>();
  auto* state = spec->body->Add<GenericLogicalOp>({}, OpKind::kLoopState);
  spec->body->Add<GenericLogicalOp>({}, OpKind::kLoopData);
  auto* map = spec->body->Add<GenericLogicalOp>({state}, OpKind::kMap);
  map->map.projection = {expr::Add(F(0), expr::Lit(c))};
  spec->body->SetSink(map);
  return spec;
}

/// One row per logical kind: the baseline payload, tweaks that each change
/// one payload field (both the logical key and the physical identity must
/// move), and tweaks that each change one planning input (only the logical
/// key may move).
struct IdentityRow {
  OpKind kind;
  Tweak payload;
  std::vector<Tweak> payload_changes;
  std::vector<Tweak> planning_changes;
};

std::vector<IdentityRow> IdentityRows() {
  const Tweak pin = [](GenericLogicalOp* op) {
    op->pinned_platform = "sparksim";
  };
  return {
      {OpKind::kCollectionSource, nullptr,
       {[](GenericLogicalOp* op) { op->source_data = Numbers(9); }},
       {pin}},
      {OpKind::kLoopState, nullptr, {}, {pin}},
      {OpKind::kLoopData, nullptr, {}, {pin}},
      {OpKind::kMap,
       [](GenericLogicalOp* op) { op->map.projection = {F(0), F(1)}; },
       {[](GenericLogicalOp* op) { op->map.projection = {F(1), F(0)}; },
        [](GenericLogicalOp* op) { op->map.projection = {F(0)}; }},
       {pin, [](GenericLogicalOp* op) { op->map.meta.selectivity = 0.5; },
        [](GenericLogicalOp* op) { op->map.meta.cost_factor = 4.0; }}},
      {OpKind::kFlatMap, nullptr, {},
       {pin, [](GenericLogicalOp* op) { op->flat_map.meta.selectivity = 3.0; },
        [](GenericLogicalOp* op) { op->flat_map.meta.cost_factor = 4.0; }}},
      {OpKind::kFilter,
       [](GenericLogicalOp* op) {
         op->predicate.expr = expr::Gt(F(0), expr::Lit(3));
       },
       {[](GenericLogicalOp* op) {
          op->predicate.expr = expr::Gt(F(0), expr::Lit(4));
        },
        [](GenericLogicalOp* op) {
          op->predicate.expr = expr::Gt(F(1), expr::Lit(3));
        }},
       {pin, [](GenericLogicalOp* op) { op->predicate.meta.selectivity = 0.1; },
        [](GenericLogicalOp* op) { op->predicate.meta.cost_factor = 4.0; }}},
      {OpKind::kProject, [](GenericLogicalOp* op) { op->columns = {0, 1}; },
       {[](GenericLogicalOp* op) { op->columns = {1, 0}; },
        [](GenericLogicalOp* op) { op->columns = {0}; }},
       {pin}},
      {OpKind::kDistinct, nullptr, {}, {pin}},
      {OpKind::kSort, [](GenericLogicalOp* op) { op->key.expr = F(0); },
       {[](GenericLogicalOp* op) { op->key.expr = F(1); }},
       {pin}},
      {OpKind::kSample,
       [](GenericLogicalOp* op) {
         op->fraction = 0.5;
         op->seed = 7;
       },
       {[](GenericLogicalOp* op) { op->fraction = 0.5000001; },
        [](GenericLogicalOp* op) { op->seed = 8; }},
       {pin}},
      {OpKind::kZipWithId, nullptr, {}, {pin}},
      {OpKind::kReduceByKey,
       [](GenericLogicalOp* op) {
         op->key.expr = F(0);
         op->reduce.aggs = {{0, AggKind::kFirst}, {1, AggKind::kSum}};
       },
       {[](GenericLogicalOp* op) { op->key.expr = F(1); },
        [](GenericLogicalOp* op) { op->reduce.aggs[1].kind = AggKind::kMax; },
        [](GenericLogicalOp* op) { op->reduce.aggs.pop_back(); }},
       {pin, [](GenericLogicalOp* op) { op->key.meta.selectivity = 0.2; },
        [](GenericLogicalOp* op) { op->reduce.meta.cost_factor = 4.0; }}},
      {OpKind::kGroupByKey, [](GenericLogicalOp* op) { op->key.expr = F(0); },
       {[](GenericLogicalOp* op) { op->key.expr = F(1); }},
       {pin, [](GenericLogicalOp* op) { op->key.meta.selectivity = 0.2; },
        [](GenericLogicalOp* op) { op->group.meta.cost_factor = 4.0; },
        [](GenericLogicalOp* op) {
          op->groupby_algorithm = GroupByAlgorithm::kSort;
        }}},
      {OpKind::kGlobalReduce,
       [](GenericLogicalOp* op) {
         op->reduce.aggs = {{0, AggKind::kSum}, {1, AggKind::kMin}};
       },
       {[](GenericLogicalOp* op) { op->reduce.aggs[1].kind = AggKind::kMax; }},
       {pin}},
      {OpKind::kCount, nullptr, {}, {pin}},
      {OpKind::kTopK,
       [](GenericLogicalOp* op) {
         op->key.expr = F(0);
         op->topk = 3;
       },
       {[](GenericLogicalOp* op) { op->key.expr = F(1); },
        [](GenericLogicalOp* op) { op->topk = 4; },
        [](GenericLogicalOp* op) { op->ascending = false; },
        [](GenericLogicalOp* op) {
          op->topk = std::numeric_limits<int64_t>::max();
        }},
       {pin}},
      {OpKind::kBroadcastMap, nullptr, {},
       {pin, [](GenericLogicalOp* op) {
          op->broadcast_map.meta.cost_factor = 4.0;
        }}},
      {OpKind::kJoin,
       [](GenericLogicalOp* op) {
         op->key.expr = F(0);
         op->key2.expr = F(0);
       },
       {[](GenericLogicalOp* op) { op->key.expr = F(1); },
        [](GenericLogicalOp* op) { op->key2.expr = F(1); }},
       {pin, [](GenericLogicalOp* op) {
          op->join_algorithm = JoinAlgorithm::kSortMerge;
        }}},
      {OpKind::kThetaJoin,
       [](GenericLogicalOp* op) { op->theta.pair_expr = expr::Lt(F(0), F(1)); },
       {[](GenericLogicalOp* op) {
         op->theta.pair_expr = expr::Lt(F(0), F(2));
       }},
       {pin, [](GenericLogicalOp* op) { op->theta.meta.selectivity = 0.3; },
        [](GenericLogicalOp* op) { op->theta.meta.cost_factor = 4.0; }}},
      {OpKind::kIEJoin, nullptr,
       {[](GenericLogicalOp* op) { op->iejoin.left_col1 = 1; },
        [](GenericLogicalOp* op) { op->iejoin.op1 = CompareOp::kLessEqual; },
        [](GenericLogicalOp* op) { op->iejoin.right_col1 = 1; },
        [](GenericLogicalOp* op) { op->iejoin.left_col2 = 1; },
        [](GenericLogicalOp* op) { op->iejoin.op2 = CompareOp::kGreaterEqual; },
        [](GenericLogicalOp* op) { op->iejoin.right_col2 = 1; }},
       {pin}},
      {OpKind::kCrossProduct, nullptr, {}, {pin}},
      {OpKind::kUnion, nullptr, {}, {pin}},
      {OpKind::kIntersect, nullptr, {}, {pin}},
      {OpKind::kSubtract, nullptr, {}, {pin}},
      {OpKind::kRepeat, [](GenericLogicalOp* op) { op->loop = LoopBody(1); },
       {[](GenericLogicalOp* op) { op->loop->iterations = 4; },
        [](GenericLogicalOp* op) { op->loop = LoopBody(2); }},
       {pin}},
      {OpKind::kDoWhile, [](GenericLogicalOp* op) { op->loop = LoopBody(1); },
       {[](GenericLogicalOp* op) { op->loop->max_iterations = 4; },
        [](GenericLogicalOp* op) { op->loop = LoopBody(2); }},
       {pin}},
      {OpKind::kCollect, nullptr, {}, {pin}},
  };
}

struct Identity {
  std::string logical_key;
  std::string physical_key;
  std::string logical_detail;
  std::string physical_detail;
};

/// Builds sources -> op -> Collect, applies the row's payload and then
/// `tweak` to op, and reads op's identity at both levels.
Identity IdentityOf(const IdentityRow& row, const Tweak& tweak) {
  Plan plan;
  std::vector<Operator*> inputs;
  for (int i = 0; i < GenericLogicalOp(row.kind).arity(); ++i) {
    auto* src = plan.Add<GenericLogicalOp>({}, OpKind::kCollectionSource);
    src->source_data = Numbers(3 + i);
    inputs.push_back(src);
  }
  auto* op = plan.Add<GenericLogicalOp>(inputs, row.kind);
  if (row.payload) row.payload(op);
  if (tweak) tweak(op);
  plan.SetSink(plan.Add<GenericLogicalOp>({op}, OpKind::kCollect));
  auto physical = RheemContext::TranslateToPhysical(plan, nullptr);
  EXPECT_TRUE(physical.ok()) << physical.status().ToString();
  if (!physical.ok()) return {};
  const auto* phys =
      static_cast<const PhysicalOperator*>((*physical)->sink()->inputs()[0]);
  EXPECT_EQ(phys->kind(), row.kind);
  return {op->FingerprintToken(), phys->FingerprintToken(), op->Detail(),
          phys->Detail()};
}

TEST(OperatorIdentityTest, EveryKindKeysPayloadsAtBothLevels) {
  std::set<OpKind> covered;
  for (const IdentityRow& row : IdentityRows()) {
    covered.insert(row.kind);
    const std::string kind = OpKindToString(row.kind);
    const Identity base = IdentityOf(row, nullptr);
    // One encoder: a logical operator prints what its physical twin prints,
    // and its key is the physical identity plus planning inputs (loop
    // bodies aside, which are plans of different levels).
    EXPECT_EQ(base.logical_detail, base.physical_detail) << kind;
    if (row.kind != OpKind::kRepeat && row.kind != OpKind::kDoWhile) {
      EXPECT_EQ(base.logical_key.rfind("L:" + base.physical_key, 0), 0u)
          << base.logical_key << " vs " << base.physical_key;
    }
    for (std::size_t i = 0; i < row.payload_changes.size(); ++i) {
      const Identity changed = IdentityOf(row, row.payload_changes[i]);
      EXPECT_NE(changed.logical_key, base.logical_key)
          << kind << " payload change " << i;
      EXPECT_NE(changed.physical_key, base.physical_key)
          << kind << " payload change " << i;
    }
    for (std::size_t i = 0; i < row.planning_changes.size(); ++i) {
      const Identity changed = IdentityOf(row, row.planning_changes[i]);
      EXPECT_NE(changed.logical_key, base.logical_key)
          << kind << " planning change " << i;
      EXPECT_EQ(changed.physical_key, base.physical_key)
          << kind << " planning change " << i;
    }
  }
  // Every kind but the physical-only stage-input placeholder has a row.
  EXPECT_EQ(covered.size(), static_cast<std::size_t>(OpKind::kCollect));
  EXPECT_NE(StageInputOp(0).FingerprintToken(),
            StageInputOp(1).FingerprintToken());
}

TEST(OperatorIdentityTest, AlgorithmVariantStaysOutOfThePhysicalIdentity) {
  // The enumerator flips these after the compile-time fingerprints are
  // taken; the identity must not see the flip.
  JoinOp hash(KeyUdf{}, KeyUdf{}, JoinAlgorithm::kHash);
  JoinOp merge(KeyUdf{}, KeyUdf{}, JoinAlgorithm::kSortMerge);
  EXPECT_NE(hash.kind_name(), merge.kind_name());
  EXPECT_EQ(hash.FingerprintToken(), merge.FingerprintToken());
  GroupByKeyOp hashed(KeyUdf{}, GroupUdf{}, GroupByAlgorithm::kHash);
  GroupByKeyOp sorted(KeyUdf{}, GroupUdf{}, GroupByAlgorithm::kSort);
  EXPECT_EQ(hashed.FingerprintToken(), sorted.FingerprintToken());
}

TEST(OperatorIdentityTest, DeclaredPayloadsAreNotOpaque) {
  KeyUdf key;
  key.expr = F(0);
  ReduceUdf sum = MakeAggReduceUdf({{0, AggKind::kFirst}, {1, AggKind::kSum}})
                      .ValueOrDie();
  ReduceByKeyOp declared(key, sum);
  EXPECT_FALSE(declared.opaque());
  EXPECT_EQ(declared.Detail(), "key=$0 aggs=[first($0), sum($1)]");
  TopKOp top(key, 3, /*ascending=*/false);
  EXPECT_FALSE(top.opaque());
  EXPECT_EQ(top.Detail(), "k=3 desc key=$0");

  ReduceByKeyOp closure(KeyUdf{}, ReduceUdf{});
  EXPECT_TRUE(closure.opaque());
  EXPECT_EQ(closure.Detail(), "");
  EXPECT_TRUE(GroupByKeyOp(key, GroupUdf{}).opaque());  // group function
}

}  // namespace
}  // namespace rheem
