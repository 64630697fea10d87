#ifndef RHEEM_CORE_OPERATORS_DESCRIPTORS_H_
#define RHEEM_CORE_OPERATORS_DESCRIPTORS_H_

#include <functional>
#include <string>
#include <vector>

#include <memory>

#include "common/result.h"
#include "data/dataset.h"
#include "data/record.h"
#include "data/value.h"

namespace rheem {

namespace expr {
class Expr;
}  // namespace expr

/// Optional declarative form of a UDF (core/expr/expr.h). When set, the
/// closure `fn` was compiled from this tree, and the optimizer may inspect,
/// push down, fingerprint, and estimate the operator instead of treating it
/// as a black box. Null for hand-written closures.
using DeclaredExpr = std::shared_ptr<const expr::Expr>;

/// \brief Optimizer-facing metadata attached to every UDF.
///
/// The paper (§4.2) requires the multi-platform optimizer to treat UDF
/// operators as first-class citizens, in the spirit of Manimal/PACTs/SOFA.
/// Since we cannot introspect a std::function, developers annotate their
/// UDFs; the cardinality estimator and cost models consume these hints.
struct UdfMeta {
  /// Expected output quanta per input quantum (filters <1, flat maps >=1).
  double selectivity = 1.0;
  /// Relative CPU weight of one invocation; 1.0 = a few arithmetic ops.
  double cost_factor = 1.0;

  static UdfMeta Selective(double selectivity, double cost_factor = 1.0) {
    return UdfMeta{selectivity, cost_factor};
  }
  static UdfMeta Expensive(double cost_factor) {
    return UdfMeta{1.0, cost_factor};
  }
};

/// Record -> Record transformation (Map).
struct MapUdf {
  std::function<Record(const Record&)> fn;
  UdfMeta meta;
  /// Non-empty: declarative projection — output field i is projection[i]
  /// evaluated over the input record.
  std::vector<DeclaredExpr> projection;
};

/// Record -> zero or more Records (FlatMap).
struct FlatMapUdf {
  std::function<std::vector<Record>(const Record&)> fn;
  UdfMeta meta;
};

/// Record -> keep/drop decision (Filter).
struct PredicateUdf {
  std::function<bool(const Record&)> fn;
  UdfMeta meta{0.5, 1.0};
  /// Non-null: declarative boolean predicate equivalent to `fn`.
  DeclaredExpr expr;
};

/// Record -> grouping/join key.
struct KeyUdf {
  std::function<Value(const Record&)> fn;
  UdfMeta meta;
  /// Non-null: declarative key-extraction expression equivalent to `fn`.
  DeclaredExpr expr;
};

/// Column-wise aggregate kinds for declarative reductions. kFirst keeps the
/// first-seen value (in input order), the others follow Value semantics:
/// kSum stays int64 for int64 columns and widens to double otherwise,
/// kMin/kMax pick an operand by Value::Compare (ties keep the accumulator).
enum class AggKind : uint8_t { kFirst, kSum, kMin, kMax };

const char* AggKindToString(AggKind k);

/// One output column of a declarative reduction: `kind` applied to input
/// column `column`.
struct AggSpec {
  int column = 0;
  AggKind kind = AggKind::kFirst;
};

/// Commutative+associative pairwise combiner (ReduceByKey, GlobalReduce).
struct ReduceUdf {
  std::function<Record(const Record&, const Record&)> fn;
  UdfMeta meta;
  /// Non-empty: declarative column-wise aggregate equivalent to `fn`
  /// (output column i is aggs[i].kind over input column i), which lets the
  /// kernels run the reduction columnar instead of folding boxed records.
  std::vector<AggSpec> aggs;
};

/// Compiles a column-wise aggregate spec into a Reduce descriptor whose
/// closure combines records field-by-field, keeping `aggs` visible so the
/// kernels (and fingerprints) see through the closure. Requires
/// aggs[i].column == i: a pairwise reduction keeps record arity and column
/// positions, so every output column must read its own position.
Result<ReduceUdf> MakeAggReduceUdf(std::vector<AggSpec> aggs);

/// Whole-group processor: (key, members) -> output records (GroupByKey).
struct GroupUdf {
  std::function<std::vector<Record>(const Value&, const std::vector<Record>&)> fn;
  UdfMeta meta;
};

/// (main record, broadcast side input) -> Record. Models Spark-style
/// broadcast variables; the side input is materialized once per task.
struct BroadcastMapUdf {
  std::function<Record(const Record&, const Dataset&)> fn;
  UdfMeta meta;
};

/// Pairwise join predicate for theta joins.
struct ThetaUdf {
  std::function<bool(const Record&, const Record&)> fn;
  UdfMeta meta{0.1, 1.0};
  /// Non-null: declarative pair predicate over the concatenation
  /// (left ++ right) — fields [0, |left|) address the left record.
  DeclaredExpr pair_expr;
};

/// Loop continuation test over the loop's state dataset (DoWhile).
struct LoopConditionUdf {
  std::function<bool(const Dataset& state, int iteration)> fn;
};

/// Comparison operators usable in IEJoin / theta-join specifications.
enum class CompareOp { kLess, kLessEqual, kGreater, kGreaterEqual };

const char* CompareOpToString(CompareOp op);

/// Evaluates `a op b`.
bool EvalCompare(CompareOp op, const Value& a, const Value& b);

/// \brief Specification of an inequality join on two column pairs:
///   left[left_col1] op1 right[right_col1] AND left[left_col2] op2 right[right_col2]
///
/// This is the shape the IEJoin algorithm [Khayyat et al., PVLDB'15]
/// accelerates; the paper adds IEJoin to RHEEM's physical-operator pool as
/// its extensibility showcase (§5.1).
struct IEJoinSpec {
  int left_col1 = 0;
  CompareOp op1 = CompareOp::kLess;
  int right_col1 = 0;
  int left_col2 = 0;
  CompareOp op2 = CompareOp::kGreater;
  int right_col2 = 0;
};

class Plan;

/// \brief An operator's identity, assembled payload by payload in one of two
/// forms. kToken is the canonical token that the plan cache, the result
/// cache and the statistics catalog key on: every constant is folded in
/// (expr::Canonical), so payloads that differ never share a key. kDetail is
/// the EXPLAIN rendering (expr::Pretty), "" when nothing is declarative.
///
/// Each payload type has exactly one Add overload, and logical and physical
/// operators both describe themselves through it, so the two levels cannot
/// encode one payload two ways. Whichever form is built, opaque() reports
/// whether a closure with no declared form decides part of the output;
/// such closures are assumed equal by shape.
class OpIdentity {
 public:
  enum class Form { kToken, kDetail };

  /// `kind` heads the token; the detail form leaves it out.
  OpIdentity(Form form, const std::string& kind);

  void Add(const MapUdf& map);              // projection
  void Add(const PredicateUdf& predicate);  // predicate expression
  void Add(const ThetaUdf& theta);          // pair predicate
  void Add(const KeyUdf& key);              // key expression
  void Add(const ReduceUdf& reduce);        // aggregate specs
  void Add(const IEJoinSpec& spec);
  void AddJoinKeys(const KeyUdf& left, const KeyUdf& right);
  void AddColumns(const std::vector<int>& columns);
  void AddSample(double fraction, uint64_t seed);
  void AddTopK(int64_t k, bool ascending);  // INT64_MAX renders as k=all
  /// Source data, folded as a content hash (token form only).
  void Add(const Dataset& source);
  /// Loop bound and body, folded as the body's plan fingerprint (token form
  /// only; the EXPLAIN line of a loop does not print its body).
  void AddLoop(int bound, const Plan* body);
  /// Boundary input index of a stage-input placeholder (token form only).
  void AddSlot(int slot);
  /// A closure with no declared form: FlatMap, BroadcastMap, a group
  /// function or a loop condition.
  void AddClosure() { opaque_ = true; }

  bool opaque() const { return opaque_; }
  std::string str() && { return std::move(out_); }

 private:
  /// Appends `|label=text` to a token or ` label=text` to a detail.
  void Part(const char* label, const std::string& text);
  /// Canonical or pretty text of a declared expression; "udf" (and opaque)
  /// for a closure slot.
  std::string Text(const DeclaredExpr& e);
  /// Appends a declared expression slot; a closure slot only sets opaque.
  void Slot(const char* label, const DeclaredExpr& e);

  const Form form_;
  std::string out_;
  bool opaque_ = false;
};

}  // namespace rheem

#endif  // RHEEM_CORE_OPERATORS_DESCRIPTORS_H_
