#include "core/operators/descriptors.h"

#include <charconv>
#include <limits>

#include "core/expr/expr.h"
#include "core/optimizer/fingerprint.h"

namespace rheem {

namespace {

/// Pairwise combine of one column; the closure form of AggKind so the row
/// path and the columnar accumulators agree value-for-value.
Value CombineAgg(AggKind k, const Value& a, const Value& b) {
  switch (k) {
    case AggKind::kFirst:
      return a;
    case AggKind::kSum:
      if (a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64) {
        return Value(a.int64_unchecked() + b.int64_unchecked());
      }
      if (a.is_numeric() && b.is_numeric()) {
        return Value(a.ToDoubleOr(0.0) + b.ToDoubleOr(0.0));
      }
      return Value::Null();
    case AggKind::kMin:
      if (a.is_null() || b.is_null()) return Value::Null();
      return a.Compare(b) <= 0 ? a : b;
    case AggKind::kMax:
      if (a.is_null() || b.is_null()) return Value::Null();
      return a.Compare(b) >= 0 ? a : b;
  }
  return Value::Null();
}

}  // namespace

const char* AggKindToString(AggKind k) {
  switch (k) {
    case AggKind::kFirst: return "first";
    case AggKind::kSum: return "sum";
    case AggKind::kMin: return "min";
    case AggKind::kMax: return "max";
  }
  return "?";
}

Result<ReduceUdf> MakeAggReduceUdf(std::vector<AggSpec> aggs) {
  if (aggs.empty()) {
    return Status::InvalidArgument("aggregate spec needs >= 1 column");
  }
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    if (aggs[i].column != static_cast<int>(i)) {
      return Status::InvalidArgument(
          "aggregate output column " + std::to_string(i) +
          " must read input column " + std::to_string(i) +
          " (pairwise reduction is positional)");
    }
  }
  ReduceUdf udf;
  udf.aggs = aggs;
  udf.fn = [aggs](const Record& a, const Record& b) {
    std::vector<Value> out;
    out.reserve(aggs.size());
    for (std::size_t i = 0; i < aggs.size(); ++i) {
      const Value va = i < a.size() ? a.at(i) : Value::Null();
      const Value vb = i < b.size() ? b.at(i) : Value::Null();
      out.push_back(CombineAgg(aggs[i].kind, va, vb));
    }
    return Record(std::move(out));
  };
  return udf;
}

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kLess: return "<";
    case CompareOp::kLessEqual: return "<=";
    case CompareOp::kGreater: return ">";
    case CompareOp::kGreaterEqual: return ">=";
  }
  return "?";
}

bool EvalCompare(CompareOp op, const Value& a, const Value& b) {
  const int c = a.Compare(b);
  switch (op) {
    case CompareOp::kLess: return c < 0;
    case CompareOp::kLessEqual: return c <= 0;
    case CompareOp::kGreater: return c > 0;
    case CompareOp::kGreaterEqual: return c >= 0;
  }
  return false;
}

OpIdentity::OpIdentity(Form form, const std::string& kind) : form_(form) {
  if (form_ == Form::kToken) out_ = kind;
}

void OpIdentity::Part(const char* label, const std::string& text) {
  if (form_ == Form::kToken) {
    out_ += '|';
  } else if (!out_.empty()) {
    out_ += ' ';
  }
  out_ += label;
  out_ += '=';
  out_ += text;
}

std::string OpIdentity::Text(const DeclaredExpr& e) {
  if (e == nullptr) {
    opaque_ = true;
    return "udf";
  }
  return form_ == Form::kToken ? expr::Canonical(*e) : expr::Pretty(*e);
}

void OpIdentity::Add(const MapUdf& map) {
  if (map.projection.empty()) {
    opaque_ = true;
    return;
  }
  std::string text = "[";
  for (std::size_t i = 0; i < map.projection.size(); ++i) {
    if (i > 0) text += ", ";
    text += Text(map.projection[i]);
  }
  Part("map", text + "]");
}

void OpIdentity::Slot(const char* label, const DeclaredExpr& e) {
  if (e == nullptr) {
    opaque_ = true;
  } else {
    Part(label, Text(e));
  }
}

void OpIdentity::Add(const PredicateUdf& p) { Slot("filter", p.expr); }
void OpIdentity::Add(const ThetaUdf& theta) { Slot("theta", theta.pair_expr); }
void OpIdentity::Add(const KeyUdf& key) { Slot("key", key.expr); }

void OpIdentity::AddJoinKeys(const KeyUdf& left, const KeyUdf& right) {
  if (left.expr == nullptr && right.expr == nullptr) {
    opaque_ = true;
    return;
  }
  std::string text = "(";
  text += Text(left.expr);
  text += ", ";
  text += Text(right.expr);
  Part("join", text + ")");
}

void OpIdentity::Add(const ReduceUdf& reduce) {
  if (reduce.aggs.empty()) {
    opaque_ = true;
    return;
  }
  std::string text = "[";
  for (std::size_t i = 0; i < reduce.aggs.size(); ++i) {
    if (i > 0) text += ", ";
    text += std::string(AggKindToString(reduce.aggs[i].kind)) + "($" +
            std::to_string(reduce.aggs[i].column) + ")";
  }
  Part("aggs", text + "]");
}

void OpIdentity::Add(const IEJoinSpec& spec) {
  Part("ie", "($" + std::to_string(spec.left_col1) +
                 CompareOpToString(spec.op1) + "$" +
                 std::to_string(spec.right_col1) + ", $" +
                 std::to_string(spec.left_col2) +
                 CompareOpToString(spec.op2) + "$" +
                 std::to_string(spec.right_col2) + ")");
}

void OpIdentity::AddColumns(const std::vector<int>& columns) {
  std::string text;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) text += ',';
    text += std::to_string(columns[i]);
  }
  Part("cols", text);
}

void OpIdentity::AddSample(double fraction, uint64_t seed) {
  // Shortest round-trip text: exact for the key, readable for EXPLAIN.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), fraction);
  Part("frac", std::string(buf, res.ptr));
  Part("seed", std::to_string(seed));
}

void OpIdentity::AddTopK(int64_t k, bool ascending) {
  Part("k", (k == std::numeric_limits<int64_t>::max() ? std::string("all")
                                                      : std::to_string(k)) +
                (ascending ? " asc" : " desc"));
}

void OpIdentity::Add(const Dataset& source) {
  if (form_ == Form::kToken) {
    Part("data", std::to_string(PlanFingerprint::OfDataset(source)));
  }
}

void OpIdentity::AddLoop(int bound, const Plan* body) {
  if (form_ != Form::kToken) return;
  Part("iters", std::to_string(bound));
  if (body != nullptr) {
    Part("body",
         std::to_string(PlanFingerprint::Compute(*body).ValueOr(0)));
  }
}

void OpIdentity::AddSlot(int slot) {
  if (form_ == Form::kToken) Part("slot", std::to_string(slot));
}

}  // namespace rheem
