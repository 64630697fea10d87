#include "core/expr/expr.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "data/batch.h"
#include "data/dataset.h"
#include "data/record.h"

namespace rheem {
namespace expr {
namespace {

Record Row(std::vector<Value> vs) { return Record(std::move(vs)); }

ExprPtr IntField(int i) { return Field(i, ValueType::kInt64); }
ExprPtr DblField(int i) { return Field(i, ValueType::kDouble); }
ExprPtr StrField(int i) { return Field(i, ValueType::kString); }

// --- type checker -----------------------------------------------------------

TEST(ExprTypeCheck, AcceptsWellTypedTrees) {
  // ($0 + 1) * $1 > 10.0 AND $2 == "eng"
  auto e = And(Gt(Mul(Add(IntField(0), Lit(1)), DblField(1)), Lit(10.0)),
               Eq(StrField(2), Lit("eng")));
  auto t = TypeCheck(*e);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(*t, ValueType::kBool);
  EXPECT_TRUE(TypeCheckPredicate(*e).ok());
}

TEST(ExprTypeCheck, MixedNumericsWidenToDouble) {
  auto t = TypeCheck(*Add(IntField(0), Lit(1.5)));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, ValueType::kDouble);
  // Two int64 operands stay integer, including division.
  auto ti = TypeCheck(*Div(IntField(0), Lit(2)));
  ASSERT_TRUE(ti.ok());
  EXPECT_EQ(*ti, ValueType::kInt64);
}

TEST(ExprTypeCheck, RejectsIllTypedTrees) {
  // Arithmetic over strings.
  EXPECT_FALSE(TypeCheck(*Add(StrField(0), Lit(1))).ok());
  // Comparison across type classes.
  EXPECT_FALSE(TypeCheck(*Eq(IntField(0), Lit("x"))).ok());
  EXPECT_FALSE(TypeCheck(*Lt(StrField(0), Lit(3))).ok());
  // Logical connectives over non-bool operands.
  EXPECT_FALSE(TypeCheck(*And(IntField(0), Lit(true))).ok());
  EXPECT_FALSE(TypeCheck(*Not(IntField(0))).ok());
  // Modulo requires int64 on both sides.
  EXPECT_FALSE(TypeCheck(*Mod(DblField(0), Lit(2))).ok());
  // Negative field index; unsupported declared field type.
  EXPECT_FALSE(TypeCheck(*Field(-1, ValueType::kInt64)).ok());
  EXPECT_FALSE(TypeCheck(*Field(0, ValueType::kDoubleList)).ok());
  // Null literal has no static type.
  EXPECT_FALSE(TypeCheck(*Lit(Value::Null())).ok());
}

TEST(ExprTypeCheck, PredicateMustBeBool) {
  EXPECT_FALSE(TypeCheckPredicate(*Add(IntField(0), Lit(1))).ok());
  EXPECT_TRUE(TypeCheckPredicate(*Lit(true)).ok());
}

// --- evaluator --------------------------------------------------------------

TEST(ExprEval, ArithmeticAndComparison) {
  const Record r = Row({Value(int64_t{7}), Value(2.5)});
  EXPECT_EQ(Eval(*Add(IntField(0), Lit(3)), r), Value(int64_t{10}));
  EXPECT_EQ(Eval(*Div(IntField(0), Lit(2)), r), Value(int64_t{3}));  // int div
  EXPECT_EQ(Eval(*Mod(IntField(0), Lit(4)), r), Value(int64_t{3}));
  EXPECT_EQ(Eval(*Mul(DblField(1), Lit(2.0)), r), Value(5.0));
  EXPECT_EQ(Eval(*Add(IntField(0), DblField(1)), r), Value(9.5));
  EXPECT_TRUE(EvalPredicate(*Gt(IntField(0), Lit(5)), r));
  EXPECT_FALSE(EvalPredicate(*Lt(IntField(0), Lit(5)), r));
}

TEST(ExprEval, MissingFieldIsNullAndDropsInPredicates) {
  const Record r = Row({Value(int64_t{1})});
  EXPECT_TRUE(Eval(*IntField(5), r).is_null());
  // Null comparison -> Null -> predicate drops.
  EXPECT_FALSE(EvalPredicate(*Gt(IntField(5), Lit(0)), r));
  // ... and NOT(Null) is still Null, not true.
  EXPECT_FALSE(EvalPredicate(*Not(Gt(IntField(5), Lit(0))), r));
}

TEST(ExprEval, RuntimeTypeMismatchIsNull) {
  const Record r = Row({Value("text")});
  EXPECT_TRUE(Eval(*IntField(0), r).is_null());
  EXPECT_FALSE(EvalPredicate(*Gt(IntField(0), Lit(0)), r));
}

TEST(ExprEval, DivisionByZeroIsNull) {
  const Record r = Row({Value(int64_t{4}), Value(0.0)});
  EXPECT_TRUE(Eval(*Div(IntField(0), Lit(0)), r).is_null());
  EXPECT_TRUE(Eval(*Mod(IntField(0), Lit(0)), r).is_null());
  EXPECT_TRUE(Eval(*Div(Lit(1.0), DblField(1)), r).is_null());
  EXPECT_FALSE(EvalPredicate(*Gt(Div(IntField(0), Lit(0)), Lit(0)), r));
}

TEST(ExprEval, Int64MinOverMinusOneIsNullOnRowAndColumnarPaths) {
  // INT64_MIN / -1 does not fit in int64 and is NULL, like a zero divisor;
  // x % -1 is 0. Raw int64 division traps on both.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const Record none = Row({});
  EXPECT_TRUE(Eval(*Div(Lit(kMin), Lit(-1)), none).is_null());
  EXPECT_EQ(Eval(*Mod(Lit(kMin), Lit(-1)), none), Value(int64_t{0}));
  EXPECT_EQ(Eval(*Div(Lit(7), Lit(-1)), none), Value(int64_t{-7}));
  EXPECT_EQ(Eval(*Mod(Lit(-7), Lit(-1)), none), Value(int64_t{0}));

  const Dataset data({Row({Value(kMin), Value(int64_t{-1})}),
                      Row({Value(int64_t{7}), Value(int64_t{-1})}),
                      Row({Value(kMin), Value(int64_t{2})}),
                      Row({Value(int64_t{7}), Value(int64_t{0})})});
  auto batch = Batch::FromDataset(data);
  ASSERT_TRUE(batch.ok());
  std::vector<const ColumnData*> ptrs;
  const BatchView view = batch->View(&ptrs);
  const std::vector<std::pair<ExprPtr, std::vector<Value>>> cases = {
      {Div(IntField(0), IntField(1)),
       {Value::Null(), Value(int64_t{-7}), Value(kMin / 2), Value::Null()}},
      {Mod(IntField(0), IntField(1)),
       {Value(int64_t{0}), Value(int64_t{0}), Value(int64_t{0}),
        Value::Null()}},
      {Div(IntField(0), Lit(-1)),
       {Value::Null(), Value(int64_t{-7}), Value::Null(), Value(int64_t{-7})}},
  };
  for (const auto& [e, expected] : cases) {
    ColumnData col;
    EvalExprView(*e, view, &col);
    for (std::size_t i = 0; i < data.size(); ++i) {
      SCOPED_TRACE(Pretty(*e) + " row " + std::to_string(i));
      EXPECT_EQ(Eval(*e, data.at(i)), expected[i]);
      EXPECT_EQ(col.IsNull(i), expected[i].is_null());
      if (!expected[i].is_null()) {
        EXPECT_EQ(col.i64[i], expected[i].int64_unchecked());
      }
    }
  }
}

TEST(ExprEval, KleeneLogic) {
  const Record r = Row({Value(int64_t{1})});
  auto null_pred = Gt(IntField(9), Lit(0));  // evaluates to Null
  // false AND Null = false; true OR Null = true.
  EXPECT_FALSE(EvalPredicate(*And(Lit(false), null_pred), r));
  EXPECT_TRUE(EvalPredicate(*Or(Lit(true), null_pred), r));
  // true AND Null = Null (drop); false OR Null = Null (drop).
  EXPECT_FALSE(EvalPredicate(*And(Lit(true), null_pred), r));
  EXPECT_FALSE(EvalPredicate(*Or(Lit(false), null_pred), r));
}

TEST(ExprEval, PairPredicateAddressesConcatenation) {
  const Record a = Row({Value(int64_t{1}), Value(int64_t{10})});
  const Record b = Row({Value(int64_t{2}), Value(int64_t{5})});
  // $1 (a) > $3 (b's second field).
  EXPECT_TRUE(EvalPredicatePair(*Gt(IntField(1), IntField(3)), a, b));
  EXPECT_FALSE(EvalPredicatePair(*Gt(IntField(0), IntField(2)), a, b));
}

TEST(ExprEval, BatchMatchesScalar) {
  std::vector<Record> rows;
  for (int i = -5; i < 25; ++i) {
    rows.push_back(Row({Value(int64_t{i}), Value(i * 0.5)}));
  }
  rows.push_back(Row({Value("bad")}));     // short + mistyped row
  rows.push_back(Row({}));                 // empty row
  auto pred = And(Gt(IntField(0), Lit(0)),
                  Or(Lt(DblField(1), Lit(4.0)), Eq(IntField(0), Lit(20))));
  std::vector<unsigned char> keep;
  EvalPredicateBatch(*pred, rows, 0, rows.size(), &keep);
  ASSERT_EQ(keep.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(keep[i] != 0, EvalPredicate(*pred, rows[i])) << "row " << i;
  }
  // Sub-range evaluation indexes keep from `begin`.
  EvalPredicateBatch(*pred, rows, 10, 20, &keep);
  ASSERT_EQ(keep.size(), 10u);
  for (std::size_t i = 10; i < 20; ++i) {
    EXPECT_EQ(keep[i - 10] != 0, EvalPredicate(*pred, rows[i]));
  }
}

// --- canonical serialization ------------------------------------------------

TEST(ExprCanonical, StableAndDistinguishesConstants) {
  auto p30 = Gt(Field(2, ValueType::kInt64, "age"), Lit(30));
  auto p31 = Gt(Field(2, ValueType::kInt64, "age"), Lit(31));
  EXPECT_EQ(Canonical(*p30), Canonical(*p30));
  EXPECT_NE(Canonical(*p30), Canonical(*p31));
  // The field display name is cosmetic and must not leak into the encoding.
  EXPECT_EQ(Canonical(*p30), Canonical(*Gt(IntField(2), Lit(30))));
}

TEST(ExprCanonical, CommutedConjunctionsNormalize) {
  auto a = Gt(IntField(0), Lit(1));
  auto b = Eq(StrField(1), Lit("x"));
  auto c = Lt(DblField(2), Lit(0.5));
  EXPECT_EQ(Canonical(*And(a, And(b, c))), Canonical(*And(And(c, b), a)));
  EXPECT_EQ(Canonical(*Or(a, b)), Canonical(*Or(b, a)));
  // AND vs OR of the same operands stay distinct.
  EXPECT_NE(Canonical(*And(a, b)), Canonical(*Or(a, b)));
}

TEST(ExprCanonical, TypeAndValueDistinct) {
  EXPECT_NE(Canonical(*Lit(1)), Canonical(*Lit(1.0)));
  EXPECT_NE(Canonical(*IntField(0)), Canonical(*DblField(0)));
  EXPECT_NE(Canonical(*Lit("1")), Canonical(*Lit(1)));
}

TEST(ExprPretty, ReadableInfix) {
  auto e = And(Gt(Field(0, ValueType::kInt64, "age"), Lit(30)),
               Eq(Field(1, ValueType::kString, "dept"), Lit("eng")));
  EXPECT_EQ(Pretty(*e), "age>30 AND dept==\"eng\"");
  // Unnamed fields print positionally; precedence inserts parens only when
  // needed.
  EXPECT_EQ(Pretty(*Mul(Add(IntField(0), Lit(1)), IntField(2))),
            "($0+1)*$2");
}

// --- selectivity ------------------------------------------------------------

TEST(ExprSelectivity, BoundedAndOrdered) {
  std::vector<ExprPtr> preds = {
      Eq(IntField(0), Lit(1)),
      Ne(IntField(0), Lit(1)),
      Lt(IntField(0), Lit(1)),
      And(Eq(IntField(0), Lit(1)), Lt(IntField(1), Lit(2))),
      Or(Eq(IntField(0), Lit(1)), Eq(IntField(1), Lit(2))),
      Not(Eq(IntField(0), Lit(1))),
      Lit(true),
      Lit(false),
  };
  for (const auto& p : preds) {
    const double s = EstimateSelectivity(*p);
    EXPECT_GE(s, 0.0) << Pretty(*p);
    EXPECT_LE(s, 1.0) << Pretty(*p);
  }
  // Structure matters: a conjunction is more selective than its conjuncts.
  EXPECT_LT(EstimateSelectivity(*preds[3]), EstimateSelectivity(*preds[0]));
  EXPECT_EQ(EstimateSelectivity(*Lit(true)), 1.0);
  EXPECT_EQ(EstimateSelectivity(*Lit(false)), 0.0);
}

// --- structural helpers -----------------------------------------------------

TEST(ExprHelpers, SplitAndRecombineConjuncts) {
  auto a = Gt(IntField(0), Lit(1));
  auto b = Lt(IntField(1), Lit(5));
  auto c = Eq(IntField(2), Lit(3));
  auto split = SplitConjuncts(And(a, And(b, c)));
  ASSERT_EQ(split.size(), 3u);
  auto recombined = AndAll(split);
  EXPECT_EQ(Canonical(*recombined), Canonical(*And(And(a, b), c)));
  // A non-AND root is its own single conjunct; OR does not split.
  EXPECT_EQ(SplitConjuncts(Or(a, b)).size(), 1u);
}

TEST(ExprHelpers, FieldCollectionRemapShift) {
  auto e = And(Gt(IntField(3), Lit(1)), Lt(DblField(1), Lit(2.0)));
  std::set<int> fields;
  CollectFields(*e, &fields);
  EXPECT_EQ(fields, (std::set<int>{1, 3}));
  EXPECT_EQ(MaxFieldIndex(*e), 3);
  EXPECT_EQ(MaxFieldIndex(*Lit(1)), -1);

  auto remapped = RemapFields(e, {{3, 0}, {1, 7}});
  ASSERT_TRUE(remapped.ok());
  std::set<int> after;
  CollectFields(**remapped, &after);
  EXPECT_EQ(after, (std::set<int>{0, 7}));
  // Unmapped field -> error.
  EXPECT_FALSE(RemapFields(e, {{3, 0}}).ok());

  auto shifted = ShiftFields(e, -1);
  std::set<int> shifted_fields;
  CollectFields(*shifted, &shifted_fields);
  EXPECT_EQ(shifted_fields, (std::set<int>{0, 2}));
}

// --- UDF compilation --------------------------------------------------------

TEST(ExprUdf, PredicateUdfCarriesTreeAndSelectivity) {
  auto udf = MakePredicateUdf(Gt(IntField(0), Lit(10)));
  ASSERT_TRUE(udf.ok()) << udf.status().ToString();
  EXPECT_NE(udf->expr, nullptr);
  EXPECT_GE(udf->meta.selectivity, 0.0);
  EXPECT_LE(udf->meta.selectivity, 1.0);
  EXPECT_TRUE(udf->fn(Row({Value(int64_t{11})})));
  EXPECT_FALSE(udf->fn(Row({Value(int64_t{9})})));
  // Ill-typed trees are rejected at compile time.
  EXPECT_FALSE(MakePredicateUdf(Add(IntField(0), Lit(1))).ok());
  EXPECT_FALSE(MakePredicateUdf(nullptr).ok());
}

TEST(ExprUdf, MapUdfProjects) {
  auto udf = MakeMapUdf({IntField(1), Add(IntField(0), Lit(100))});
  ASSERT_TRUE(udf.ok()) << udf.status().ToString();
  ASSERT_EQ(udf->projection.size(), 2u);
  Record out = udf->fn(Row({Value(int64_t{1}), Value(int64_t{2})}));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], Value(int64_t{2}));
  EXPECT_EQ(out[1], Value(int64_t{101}));
  EXPECT_FALSE(MakeMapUdf({}).ok());
  EXPECT_FALSE(MakeMapUdf({Not(IntField(0))}).ok());
}

TEST(ExprUdf, KeyAndThetaUdfs) {
  auto key = MakeKeyUdf(IntField(0));
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(key->fn(Row({Value(int64_t{42})})), Value(int64_t{42}));

  auto theta = MakeThetaUdf(Gt(IntField(1), IntField(3)));
  ASSERT_TRUE(theta.ok());
  EXPECT_TRUE(theta->fn(Row({Value(int64_t{0}), Value(int64_t{9})}),
                        Row({Value(int64_t{0}), Value(int64_t{1})})));
  EXPECT_FALSE(MakeThetaUdf(Add(IntField(0), Lit(1))).ok());
}

// --- concurrency (exercised under TSan in CI) -------------------------------

TEST(ExprConcurrency, SharedTreeEvaluatesFromManyThreads) {
  auto pred = And(Gt(IntField(0), Lit(10)),
                  Or(Lt(DblField(1), Lit(0.5)), Eq(StrField(2), Lit("x"))));
  std::vector<Record> rows;
  for (int i = 0; i < 256; ++i) {
    rows.push_back(
        Row({Value(int64_t{i}), Value(i * 0.01), Value(i % 3 ? "x" : "y")}));
  }
  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      int kept = 0;
      for (const Record& r : rows) {
        if (EvalPredicate(*pred, r)) ++kept;
      }
      total += kept;
    });
  }
  for (auto& t : threads) t.join();
  int expect = 0;
  for (const Record& r : rows) {
    if (EvalPredicate(*pred, r)) ++expect;
  }
  EXPECT_EQ(total.load(), 8 * expect);
}

}  // namespace
}  // namespace expr
}  // namespace rheem
