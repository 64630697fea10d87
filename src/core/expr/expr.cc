#include "core/expr/expr.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

namespace rheem {
namespace expr {

namespace {

ExprPtr MakeArith(ArithKind k, ExprPtr a, ExprPtr b) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kArith;
  e->arith = k;
  e->left = std::move(a);
  e->right = std::move(b);
  return e;
}

ExprPtr MakeCompare(CompareKind k, ExprPtr a, ExprPtr b) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kCompare;
  e->compare = k;
  e->left = std::move(a);
  e->right = std::move(b);
  return e;
}

ExprPtr MakeLogical(LogicalKind k, ExprPtr a, ExprPtr b) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLogical;
  e->logical = k;
  e->left = std::move(a);
  e->right = std::move(b);
  return e;
}

bool IsNumericType(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kDouble;
}

const char* ArithSymbol(ArithKind k) {
  switch (k) {
    case ArithKind::kAdd: return "+";
    case ArithKind::kSub: return "-";
    case ArithKind::kMul: return "*";
    case ArithKind::kDiv: return "/";
    case ArithKind::kMod: return "%";
  }
  return "?";
}

const char* CompareSymbol(CompareKind k) {
  switch (k) {
    case CompareKind::kEq: return "==";
    case CompareKind::kNe: return "!=";
    case CompareKind::kLt: return "<";
    case CompareKind::kLe: return "<=";
    case CompareKind::kGt: return ">";
    case CompareKind::kGe: return ">=";
  }
  return "?";
}

const char* TypeCode(ValueType t) {
  switch (t) {
    case ValueType::kBool: return "b";
    case ValueType::kInt64: return "i";
    case ValueType::kDouble: return "d";
    case ValueType::kString: return "s";
    default: return "?";
  }
}

// --- scalar combiners shared by Eval and EvalPredicateBatch ---------------

Value FieldValue(const Expr& e, const Record& r) {
  if (e.field_index < 0 ||
      static_cast<std::size_t>(e.field_index) >= r.size()) {
    return Value::Null();
  }
  const Value& v = r.at(static_cast<std::size_t>(e.field_index));
  switch (e.field_type) {
    case ValueType::kInt64:
    case ValueType::kDouble:
      // Numeric declarations accept either numeric runtime type: records
      // are dynamically typed and int-valued doubles are common.
      if (!v.is_numeric()) return Value::Null();
      break;
    case ValueType::kBool:
      if (v.type() != ValueType::kBool) return Value::Null();
      break;
    case ValueType::kString:
      if (v.type() != ValueType::kString) return Value::Null();
      break;
    default:
      return Value::Null();
  }
  return v;
}

/// Integer `/` or `%` into *out; false means NULL. A zero divisor is NULL,
/// and so is INT64_MIN / -1, whose quotient does not fit in int64; x % -1 is
/// 0. The raw operators trap (SIGFPE) on INT64_MIN / -1 and INT64_MIN % -1.
bool IntDivMod(ArithKind k, int64_t x, int64_t y, int64_t* out) {
  if (y == 0) return false;
  if (y == -1) {
    if (k == ArithKind::kMod) {
      *out = 0;
      return true;
    }
    if (x == std::numeric_limits<int64_t>::min()) return false;
    *out = -x;
    return true;
  }
  *out = k == ArithKind::kDiv ? x / y : x % y;
  return true;
}

Value ArithValue(ArithKind k, const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) return Value::Null();
  if (a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64) {
    const int64_t x = a.int64_unchecked();
    const int64_t y = b.int64_unchecked();
    int64_t q = 0;
    switch (k) {
      case ArithKind::kAdd: return Value(x + y);
      case ArithKind::kSub: return Value(x - y);
      case ArithKind::kMul: return Value(x * y);
      case ArithKind::kDiv:
      case ArithKind::kMod:
        return IntDivMod(k, x, y, &q) ? Value(q) : Value::Null();
    }
    return Value::Null();
  }
  const double x = a.ToDoubleOr(0.0);
  const double y = b.ToDoubleOr(0.0);
  switch (k) {
    case ArithKind::kAdd: return Value(x + y);
    case ArithKind::kSub: return Value(x - y);
    case ArithKind::kMul: return Value(x * y);
    case ArithKind::kDiv: return y == 0.0 ? Value::Null() : Value(x / y);
    case ArithKind::kMod: return Value::Null();  // % is integer-only
  }
  return Value::Null();
}

bool SameComparableClass(const Value& a, const Value& b) {
  if (a.is_numeric() && b.is_numeric()) return true;
  return a.type() == b.type();
}

Value CompareValue(CompareKind k, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!SameComparableClass(a, b)) return Value::Null();
  const int c = a.Compare(b);
  switch (k) {
    case CompareKind::kEq: return Value(c == 0);
    case CompareKind::kNe: return Value(c != 0);
    case CompareKind::kLt: return Value(c < 0);
    case CompareKind::kLe: return Value(c <= 0);
    case CompareKind::kGt: return Value(c > 0);
    case CompareKind::kGe: return Value(c >= 0);
  }
  return Value::Null();
}

/// Kleene three-valued AND/OR over {false, true, null}.
Value LogicalValue(LogicalKind k, const Value& a, const Value& b) {
  const bool a_null = a.is_null() || a.type() != ValueType::kBool;
  const bool b_null = b.is_null() || b.type() != ValueType::kBool;
  if (k == LogicalKind::kAnd) {
    if (!a_null && !a.bool_unchecked()) return Value(false);
    if (!b_null && !b.bool_unchecked()) return Value(false);
    if (a_null || b_null) return Value::Null();
    return Value(true);
  }
  if (!a_null && a.bool_unchecked()) return Value(true);
  if (!b_null && b.bool_unchecked()) return Value(true);
  if (a_null || b_null) return Value::Null();
  return Value(false);
}

Value NotValue(const Value& a) {
  if (a.is_null() || a.type() != ValueType::kBool) return Value::Null();
  return Value(!a.bool_unchecked());
}

void AppendCanonical(const Expr& e, std::string* out);

/// Flattens a chain of same-kind logical nodes into its operand list.
void FlattenLogical(const Expr& e, LogicalKind k, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kLogical && e.logical == k) {
    FlattenLogical(*e.left, k, out);
    FlattenLogical(*e.right, k, out);
    return;
  }
  out->push_back(&e);
}

void AppendCanonical(const Expr& e, std::string* out) {
  char buf[40];
  switch (e.kind) {
    case ExprKind::kField:
      *out += "$" + std::to_string(e.field_index) + ":" +
              TypeCode(e.field_type);
      return;
    case ExprKind::kConst:
      switch (e.constant.type()) {
        case ValueType::kNull:
          *out += "null";
          return;
        case ValueType::kBool:
          *out += e.constant.bool_unchecked() ? "true" : "false";
          return;
        case ValueType::kInt64:
          *out += "i:" + std::to_string(e.constant.int64_unchecked());
          return;
        case ValueType::kDouble:
          // %.17g round-trips every double exactly: distinct constants
          // always yield distinct encodings.
          std::snprintf(buf, sizeof(buf), "d:%.17g",
                        e.constant.double_unchecked());
          *out += buf;
          return;
        case ValueType::kString: {
          *out += "s:\"";
          for (char c : e.constant.string_unchecked()) {
            if (c == '"' || c == '\\') *out += '\\';
            *out += c;
          }
          *out += '"';
          return;
        }
        default:
          *out += "const:?";
          return;
      }
    case ExprKind::kArith:
      *out += "(";
      *out += ArithSymbol(e.arith);
      *out += " ";
      AppendCanonical(*e.left, out);
      *out += " ";
      AppendCanonical(*e.right, out);
      *out += ")";
      return;
    case ExprKind::kCompare:
      *out += "(";
      *out += CompareSymbol(e.compare);
      *out += " ";
      AppendCanonical(*e.left, out);
      *out += " ";
      AppendCanonical(*e.right, out);
      *out += ")";
      return;
    case ExprKind::kLogical: {
      // Conjunction (and disjunction) normalization: AND/OR are commutative
      // and associative under Kleene logic, so the operand encodings are
      // sorted — `a AND b` and `b AND a` fingerprint identically.
      std::vector<const Expr*> operands;
      FlattenLogical(e, e.logical, &operands);
      std::vector<std::string> encoded;
      encoded.reserve(operands.size());
      for (const Expr* o : operands) {
        std::string s;
        AppendCanonical(*o, &s);
        encoded.push_back(std::move(s));
      }
      std::sort(encoded.begin(), encoded.end());
      *out += e.logical == LogicalKind::kAnd ? "(and" : "(or";
      for (const std::string& s : encoded) {
        *out += " ";
        *out += s;
      }
      *out += ")";
      return;
    }
    case ExprKind::kNot:
      *out += "(not ";
      AppendCanonical(*e.left, out);
      *out += ")";
      return;
  }
}

/// Precedence levels for the pretty-printer (higher binds tighter).
int Precedence(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLogical:
      return e.logical == LogicalKind::kOr ? 1 : 2;
    case ExprKind::kNot: return 3;
    case ExprKind::kCompare: return 4;
    case ExprKind::kArith:
      return (e.arith == ArithKind::kAdd || e.arith == ArithKind::kSub) ? 5
                                                                        : 6;
    case ExprKind::kField:
    case ExprKind::kConst:
      return 7;
  }
  return 7;
}

/// Shortest %g rendering that strtod's back to the exact same double, with a
/// ".0" suffix on integral values so the text re-parses as a double, not an
/// int64. This is what lets Pretty output round-trip through the SQL
/// expression grammar to a tree with an identical canonical encoding.
void AppendRoundTripDouble(double d, std::string* out) {
  char buf[40];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  *out += buf;
  if (std::string_view(buf).find_first_of(".eEnN") == std::string_view::npos) {
    *out += ".0";
  }
}

void AppendPretty(const Expr& e, int parent_prec, std::string* out) {
  const int prec = Precedence(e);
  const bool parens = prec < parent_prec;
  if (parens) *out += "(";
  switch (e.kind) {
    case ExprKind::kField:
      *out += e.field_name.empty() ? "$" + std::to_string(e.field_index)
                                   : e.field_name;
      break;
    case ExprKind::kConst:
      if (e.constant.type() == ValueType::kString) {
        // Same escape style as the canonical encoding: " and \ get a
        // backslash, every other byte passes through (UTF-8 safe).
        *out += '"';
        for (char c : e.constant.string_unchecked()) {
          if (c == '"' || c == '\\') *out += '\\';
          *out += c;
        }
        *out += '"';
      } else if (e.constant.type() == ValueType::kDouble) {
        // Negative constants keep their own parentheses: "a-(-5.0)" would
        // otherwise print as "a--5.0", whose "--" reads as a SQL comment.
        const bool neg = std::signbit(e.constant.double_unchecked());
        if (neg) *out += "(";
        AppendRoundTripDouble(e.constant.double_unchecked(), out);
        if (neg) *out += ")";
      } else if (e.constant.type() == ValueType::kInt64 &&
                 e.constant.int64_unchecked() < 0) {
        *out += "(" + e.constant.ToString() + ")";
      } else {
        *out += e.constant.ToString();
      }
      break;
    case ExprKind::kArith:
      AppendPretty(*e.left, prec, out);
      *out += ArithSymbol(e.arith);
      AppendPretty(*e.right, prec + 1, out);
      break;
    case ExprKind::kCompare:
      // The right operand binds one tighter so a right-nested comparison
      // keeps its parentheses: comparisons parse left-associative, and
      // (unlike AND/OR chains) the canonical encoding does not flatten
      // them, so "a==(b==c)" must not print as "a==b==c".
      AppendPretty(*e.left, prec, out);
      *out += CompareSymbol(e.compare);
      AppendPretty(*e.right, prec + 1, out);
      break;
    case ExprKind::kLogical:
      AppendPretty(*e.left, prec, out);
      *out += e.logical == LogicalKind::kAnd ? " AND " : " OR ";
      AppendPretty(*e.right, prec, out);
      break;
    case ExprKind::kNot:
      *out += "NOT ";
      AppendPretty(*e.left, prec, out);
      break;
  }
  if (parens) *out += ")";
}

}  // namespace

// --- builders --------------------------------------------------------------

ExprPtr Field(int index, ValueType type, std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kField;
  e->field_index = index;
  e->field_type = type;
  e->field_name = std::move(name);
  return e;
}

ExprPtr Lit(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kConst;
  e->constant = std::move(v);
  return e;
}

ExprPtr Add(ExprPtr a, ExprPtr b) {
  return MakeArith(ArithKind::kAdd, std::move(a), std::move(b));
}
ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return MakeArith(ArithKind::kSub, std::move(a), std::move(b));
}
ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return MakeArith(ArithKind::kMul, std::move(a), std::move(b));
}
ExprPtr Div(ExprPtr a, ExprPtr b) {
  return MakeArith(ArithKind::kDiv, std::move(a), std::move(b));
}
ExprPtr Mod(ExprPtr a, ExprPtr b) {
  return MakeArith(ArithKind::kMod, std::move(a), std::move(b));
}

ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return MakeCompare(CompareKind::kEq, std::move(a), std::move(b));
}
ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return MakeCompare(CompareKind::kNe, std::move(a), std::move(b));
}
ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return MakeCompare(CompareKind::kLt, std::move(a), std::move(b));
}
ExprPtr Le(ExprPtr a, ExprPtr b) {
  return MakeCompare(CompareKind::kLe, std::move(a), std::move(b));
}
ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return MakeCompare(CompareKind::kGt, std::move(a), std::move(b));
}
ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return MakeCompare(CompareKind::kGe, std::move(a), std::move(b));
}

ExprPtr And(ExprPtr a, ExprPtr b) {
  return MakeLogical(LogicalKind::kAnd, std::move(a), std::move(b));
}
ExprPtr Or(ExprPtr a, ExprPtr b) {
  return MakeLogical(LogicalKind::kOr, std::move(a), std::move(b));
}

ExprPtr Not(ExprPtr a) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kNot;
  e->left = std::move(a);
  return e;
}

// --- static typing ---------------------------------------------------------

Result<ValueType> TypeCheck(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kField:
      if (e.field_index < 0) {
        return Status::InvalidArgument("negative field index in expression");
      }
      if (e.field_type != ValueType::kBool &&
          e.field_type != ValueType::kInt64 &&
          e.field_type != ValueType::kDouble &&
          e.field_type != ValueType::kString) {
        return Status::InvalidArgument(
            std::string("field $") + std::to_string(e.field_index) +
            " declares unsupported type " +
            ValueTypeToString(e.field_type));
      }
      return e.field_type;
    case ExprKind::kConst: {
      const ValueType t = e.constant.type();
      if (t == ValueType::kNull) {
        return Status::InvalidArgument("untyped null literal in expression");
      }
      if (t == ValueType::kDoubleList) {
        return Status::InvalidArgument(
            "list values have no expression operations");
      }
      return t;
    }
    case ExprKind::kArith: {
      RHEEM_ASSIGN_OR_RETURN(ValueType lt, TypeCheck(*e.left));
      RHEEM_ASSIGN_OR_RETURN(ValueType rt, TypeCheck(*e.right));
      if (!IsNumericType(lt) || !IsNumericType(rt)) {
        return Status::InvalidArgument(
            std::string("arithmetic '") + ArithSymbol(e.arith) +
            "' requires numeric operands, got " + ValueTypeToString(lt) +
            " and " + ValueTypeToString(rt));
      }
      if (e.arith == ArithKind::kMod &&
          (lt != ValueType::kInt64 || rt != ValueType::kInt64)) {
        return Status::InvalidArgument("'%' requires int64 operands");
      }
      return (lt == ValueType::kInt64 && rt == ValueType::kInt64)
                 ? ValueType::kInt64
                 : ValueType::kDouble;
    }
    case ExprKind::kCompare: {
      RHEEM_ASSIGN_OR_RETURN(ValueType lt, TypeCheck(*e.left));
      RHEEM_ASSIGN_OR_RETURN(ValueType rt, TypeCheck(*e.right));
      const bool ok = (IsNumericType(lt) && IsNumericType(rt)) || lt == rt;
      if (!ok) {
        return Status::InvalidArgument(
            std::string("comparison '") + CompareSymbol(e.compare) +
            "' over incompatible types " + ValueTypeToString(lt) + " and " +
            ValueTypeToString(rt));
      }
      return ValueType::kBool;
    }
    case ExprKind::kLogical: {
      RHEEM_ASSIGN_OR_RETURN(ValueType lt, TypeCheck(*e.left));
      RHEEM_ASSIGN_OR_RETURN(ValueType rt, TypeCheck(*e.right));
      if (lt != ValueType::kBool || rt != ValueType::kBool) {
        return Status::InvalidArgument(
            std::string(e.logical == LogicalKind::kAnd ? "AND" : "OR") +
            " requires bool operands, got " + ValueTypeToString(lt) +
            " and " + ValueTypeToString(rt));
      }
      return ValueType::kBool;
    }
    case ExprKind::kNot: {
      RHEEM_ASSIGN_OR_RETURN(ValueType lt, TypeCheck(*e.left));
      if (lt != ValueType::kBool) {
        return Status::InvalidArgument(
            std::string("NOT requires a bool operand, got ") +
            ValueTypeToString(lt));
      }
      return ValueType::kBool;
    }
  }
  return Status::Internal("unknown expression kind");
}

Status TypeCheckPredicate(const Expr& e) {
  RHEEM_ASSIGN_OR_RETURN(ValueType t, TypeCheck(e));
  if (t != ValueType::kBool) {
    return Status::InvalidArgument(
        std::string("predicate must be bool, got ") + ValueTypeToString(t) +
        ": " + Pretty(e));
  }
  return Status::OK();
}

// --- evaluation ------------------------------------------------------------

Value Eval(const Expr& e, const Record& r) {
  switch (e.kind) {
    case ExprKind::kField:
      return FieldValue(e, r);
    case ExprKind::kConst:
      return e.constant;
    case ExprKind::kArith:
      return ArithValue(e.arith, Eval(*e.left, r), Eval(*e.right, r));
    case ExprKind::kCompare:
      return CompareValue(e.compare, Eval(*e.left, r), Eval(*e.right, r));
    case ExprKind::kLogical:
      return LogicalValue(e.logical, Eval(*e.left, r), Eval(*e.right, r));
    case ExprKind::kNot:
      return NotValue(Eval(*e.left, r));
  }
  return Value::Null();
}

bool EvalPredicate(const Expr& e, const Record& r) {
  const Value v = Eval(e, r);
  return v.type() == ValueType::kBool && v.bool_unchecked();
}

namespace {

Value EvalPair(const Expr& e, const Record& a, const Record& b) {
  switch (e.kind) {
    case ExprKind::kField: {
      const int w = static_cast<int>(a.size());
      if (e.field_index >= 0 && e.field_index < w) return FieldValue(e, a);
      Expr shifted = e;
      shifted.field_index = e.field_index - w;
      return FieldValue(shifted, b);
    }
    case ExprKind::kConst:
      return e.constant;
    case ExprKind::kArith:
      return ArithValue(e.arith, EvalPair(*e.left, a, b),
                        EvalPair(*e.right, a, b));
    case ExprKind::kCompare:
      return CompareValue(e.compare, EvalPair(*e.left, a, b),
                          EvalPair(*e.right, a, b));
    case ExprKind::kLogical:
      return LogicalValue(e.logical, EvalPair(*e.left, a, b),
                          EvalPair(*e.right, a, b));
    case ExprKind::kNot:
      return NotValue(EvalPair(*e.left, a, b));
  }
  return Value::Null();
}

/// Batch evaluation: one column of Values per node over rows[begin, end).
void EvalColumn(const Expr& e, const std::vector<Record>& rows,
                std::size_t begin, std::size_t end, std::vector<Value>* out) {
  const std::size_t n = end - begin;
  out->clear();
  out->reserve(n);
  switch (e.kind) {
    case ExprKind::kField:
      for (std::size_t i = begin; i < end; ++i) {
        out->push_back(FieldValue(e, rows[i]));
      }
      return;
    case ExprKind::kConst:
      out->assign(n, e.constant);
      return;
    case ExprKind::kNot: {
      std::vector<Value> in;
      EvalColumn(*e.left, rows, begin, end, &in);
      for (std::size_t i = 0; i < n; ++i) out->push_back(NotValue(in[i]));
      return;
    }
    default: {
      std::vector<Value> lhs, rhs;
      EvalColumn(*e.left, rows, begin, end, &lhs);
      EvalColumn(*e.right, rows, begin, end, &rhs);
      for (std::size_t i = 0; i < n; ++i) {
        switch (e.kind) {
          case ExprKind::kArith:
            out->push_back(ArithValue(e.arith, lhs[i], rhs[i]));
            break;
          case ExprKind::kCompare:
            out->push_back(CompareValue(e.compare, lhs[i], rhs[i]));
            break;
          default:
            out->push_back(LogicalValue(e.logical, lhs[i], rhs[i]));
            break;
        }
      }
      return;
    }
  }
}

}  // namespace

bool EvalPredicatePair(const Expr& e, const Record& a, const Record& b) {
  const Value v = EvalPair(e, a, b);
  return v.type() == ValueType::kBool && v.bool_unchecked();
}

void EvalPredicateBatch(const Expr& e, const std::vector<Record>& rows,
                        std::size_t begin, std::size_t end,
                        std::vector<unsigned char>* keep) {
  std::vector<Value> col;
  EvalColumn(e, rows, begin, end, &col);
  keep->resize(end - begin);
  for (std::size_t i = 0; i < col.size(); ++i) {
    (*keep)[i] = (col[i].type() == ValueType::kBool && col[i].bool_unchecked())
                     ? 1
                     : 0;
  }
}

// --- columnar evaluation ---------------------------------------------------

namespace {

/// One evaluated expression node over the active rows of a BatchView: a
/// typed dense vector of length view.n, or a broadcast constant, plus a
/// dense byte null mask (empty = no null elements). String values are never
/// copied — a string VCol references the backing ColumnData and resolves
/// elements through the view.
///
/// Null semantics mirror the scalar combiners exactly: a VCol whose `type`
/// is kNull is "null at every element", which is what scalar evaluation
/// yields whenever an operand's runtime type class is wrong for the
/// operator — the class check is per-column here instead of per-row, which
/// is equivalent because a converted column holds a single runtime type.
struct VCol {
  ValueType type = ValueType::kNull;  // kNull = every element is null
  bool is_const = false;
  Value cval;                           // is_const: the broadcast value
  std::vector<int64_t> i64;             // type == kInt64
  std::vector<double> f64;              // type == kDouble
  std::vector<uint8_t> b8;              // type == kBool
  const ColumnData* str_src = nullptr;  // type == kString: backing column
  std::vector<uint8_t> nulls;           // dense byte mask; empty = no nulls

  bool NullAt(std::size_t i) const {
    if (is_const) return cval.is_null();
    return !nulls.empty() && nulls[i] != 0;
  }
  int64_t I64At(std::size_t i) const {
    return is_const ? cval.int64_unchecked() : i64[i];
  }
  bool BoolAt(std::size_t i) const {
    return is_const ? cval.bool_unchecked() : b8[i] != 0;
  }
  /// Numeric read as double — the same widening Value::Compare and the
  /// mixed-type arithmetic path apply (ToDoubleOr).
  double NumAt(std::size_t i) const {
    if (is_const) return cval.ToDoubleOr(0.0);
    return type == ValueType::kInt64 ? static_cast<double>(i64[i]) : f64[i];
  }
  std::string_view StrAt(const BatchView& view, std::size_t i) const {
    if (is_const) return cval.string_unchecked();
    return str_src->StringAt(view.row(i));
  }
};

void MarkVNull(VCol* c, std::size_t i, std::size_t n) {
  if (c->nulls.empty()) c->nulls.assign(n, 0);
  c->nulls[i] = 1;
}

/// -1/0/+1 with Value::Compare's semantics for doubles: NaN compares equal
/// to everything (both `<` tests fail).
inline int CmpD(double a, double b) { return a < b ? -1 : (b < a ? 1 : 0); }

inline bool CompareOutcome(CompareKind k, int c) {
  switch (k) {
    case CompareKind::kEq: return c == 0;
    case CompareKind::kNe: return c != 0;
    case CompareKind::kLt: return c < 0;
    case CompareKind::kLe: return c <= 0;
    case CompareKind::kGt: return c > 0;
    case CompareKind::kGe: return c >= 0;
  }
  return false;
}

void EvalV(const Expr& e, const BatchView& view, VCol* out);

void FieldV(const Expr& e, const BatchView& view, VCol* out) {
  if (e.field_index < 0 ||
      static_cast<std::size_t>(e.field_index) >= view.num_cols) {
    return;  // out-of-range reference: all-null, like scalar FieldValue
  }
  const ColumnData& col = *view.cols[e.field_index];
  bool accept = false;
  switch (e.field_type) {
    case ValueType::kInt64:
    case ValueType::kDouble:
      // Numeric declarations accept either numeric runtime column type.
      accept = col.type == ValueType::kInt64 || col.type == ValueType::kDouble;
      break;
    case ValueType::kBool:
      accept = col.type == ValueType::kBool;
      break;
    case ValueType::kString:
      accept = col.type == ValueType::kString;
      break;
    default:
      break;
  }
  if (!accept) return;  // type mismatch (or an all-null column): all-null
  const std::size_t n = view.n;
  out->type = col.type;
  if (col.has_nulls()) {
    out->nulls.resize(n);
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
      const bool nl = col.IsNull(view.row(i));
      out->nulls[i] = nl ? 1 : 0;
      any = any || nl;
    }
    if (!any) out->nulls.clear();  // selection skipped every null row
  }
  switch (col.type) {
    case ValueType::kInt64:
      out->i64.resize(n);
      if (view.sel == nullptr) {
        std::copy_n(col.i64.data() + view.base, n, out->i64.begin());
      } else {
        for (std::size_t i = 0; i < n; ++i) out->i64[i] = col.i64[view.sel[i]];
      }
      break;
    case ValueType::kDouble:
      out->f64.resize(n);
      if (view.sel == nullptr) {
        std::copy_n(col.f64.data() + view.base, n, out->f64.begin());
      } else {
        for (std::size_t i = 0; i < n; ++i) out->f64[i] = col.f64[view.sel[i]];
      }
      break;
    case ValueType::kBool:
      out->b8.resize(n);
      if (view.sel == nullptr) {
        std::copy_n(col.b8.data() + view.base, n, out->b8.begin());
      } else {
        for (std::size_t i = 0; i < n; ++i) out->b8[i] = col.b8[view.sel[i]];
      }
      break;
    case ValueType::kString:
      out->str_src = &col;  // zero-copy: resolved through the view
      break;
    default:
      out->type = ValueType::kNull;
      break;
  }
}

void ArithV(const Expr& e, const BatchView& view, VCol* out) {
  VCol l, r;
  EvalV(*e.left, view, &l);
  EvalV(*e.right, view, &r);
  if (l.is_const && r.is_const) {
    out->is_const = true;
    out->cval = ArithValue(e.arith, l.cval, r.cval);
    out->type = out->cval.type();
    return;
  }
  // Non-numeric operand class => null at every element (ArithValue).
  if (!IsNumericType(l.type) || !IsNumericType(r.type)) return;
  const std::size_t n = view.n;
  if (l.type == ValueType::kInt64 && r.type == ValueType::kInt64) {
    out->type = ValueType::kInt64;
    out->i64.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (l.NullAt(i) || r.NullAt(i)) {
        MarkVNull(out, i, n);
        out->i64[i] = 0;
        continue;
      }
      const int64_t x = l.I64At(i);
      const int64_t y = r.I64At(i);
      switch (e.arith) {
        case ArithKind::kAdd: out->i64[i] = x + y; break;
        case ArithKind::kSub: out->i64[i] = x - y; break;
        case ArithKind::kMul: out->i64[i] = x * y; break;
        case ArithKind::kDiv:
        case ArithKind::kMod:
          if (!IntDivMod(e.arith, x, y, &out->i64[i])) {
            MarkVNull(out, i, n);
            out->i64[i] = 0;
          }
          break;
      }
    }
    return;
  }
  // Mixed numeric widths evaluate as doubles; % stays integer-only, so a
  // double operand makes every element null (ArithValue).
  if (e.arith == ArithKind::kMod) return;
  out->type = ValueType::kDouble;
  out->f64.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (l.NullAt(i) || r.NullAt(i)) {
      MarkVNull(out, i, n);
      out->f64[i] = 0.0;
      continue;
    }
    const double x = l.NumAt(i);
    const double y = r.NumAt(i);
    switch (e.arith) {
      case ArithKind::kAdd: out->f64[i] = x + y; break;
      case ArithKind::kSub: out->f64[i] = x - y; break;
      case ArithKind::kMul: out->f64[i] = x * y; break;
      case ArithKind::kDiv:
        if (y == 0.0) {
          MarkVNull(out, i, n);
          out->f64[i] = 0.0;
        } else {
          out->f64[i] = x / y;
        }
        break;
      case ArithKind::kMod:
        break;  // unreachable
    }
  }
}

void CompareV(const Expr& e, const BatchView& view, VCol* out) {
  VCol l, r;
  EvalV(*e.left, view, &l);
  EvalV(*e.right, view, &r);
  if (l.is_const && r.is_const) {
    out->is_const = true;
    out->cval = CompareValue(e.compare, l.cval, r.cval);
    out->type = out->cval.type();
    return;
  }
  const std::size_t n = view.n;
  const bool numeric = IsNumericType(l.type) && IsNumericType(r.type);
  const bool same = l.type == r.type;
  // Mismatched comparable classes => null at every element (CompareValue);
  // this covers all-null operands and non-foldable list constants too.
  if (!numeric && !(same && (l.type == ValueType::kBool ||
                             l.type == ValueType::kString))) {
    return;
  }
  out->type = ValueType::kBool;
  out->b8.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (l.NullAt(i) || r.NullAt(i)) {
      MarkVNull(out, i, n);
      out->b8[i] = 0;
      continue;
    }
    int c;
    if (numeric) {
      c = CmpD(l.NumAt(i), r.NumAt(i));  // Value::Compare's numeric tower
    } else if (l.type == ValueType::kString) {
      const std::string_view a = l.StrAt(view, i);
      const std::string_view b = r.StrAt(view, i);
      c = a < b ? -1 : (b < a ? 1 : 0);
    } else {
      c = (l.BoolAt(i) ? 1 : 0) - (r.BoolAt(i) ? 1 : 0);
    }
    out->b8[i] = CompareOutcome(e.compare, c) ? 1 : 0;
  }
}

void LogicalV(const Expr& e, const BatchView& view, VCol* out) {
  VCol l, r;
  EvalV(*e.left, view, &l);
  EvalV(*e.right, view, &r);
  if (l.is_const && r.is_const) {
    out->is_const = true;
    out->cval = LogicalValue(e.logical, l.cval, r.cval);
    out->type = out->cval.type();
    return;
  }
  // A non-bool operand is null at every element (LogicalValue); when both
  // are non-bool the result is null everywhere.
  const bool l_bool = l.type == ValueType::kBool;
  const bool r_bool = r.type == ValueType::kBool;
  if (!l_bool && !r_bool) return;
  const std::size_t n = view.n;
  out->type = ValueType::kBool;
  out->b8.resize(n);
  const bool is_and = e.logical == LogicalKind::kAnd;
  for (std::size_t i = 0; i < n; ++i) {
    const bool an = !l_bool || l.NullAt(i);
    const bool bn = !r_bool || r.NullAt(i);
    const bool av = !an && l.BoolAt(i);
    const bool bv = !bn && r.BoolAt(i);
    if (is_and) {
      if ((!an && !av) || (!bn && !bv)) {
        out->b8[i] = 0;  // definite false
      } else if (an || bn) {
        MarkVNull(out, i, n);
        out->b8[i] = 0;
      } else {
        out->b8[i] = 1;
      }
    } else {
      if (av || bv) {
        out->b8[i] = 1;  // definite true
      } else if (an || bn) {
        MarkVNull(out, i, n);
        out->b8[i] = 0;
      } else {
        out->b8[i] = 0;
      }
    }
  }
}

void EvalV(const Expr& e, const BatchView& view, VCol* out) {
  switch (e.kind) {
    case ExprKind::kField:
      FieldV(e, view, out);
      return;
    case ExprKind::kConst:
      out->is_const = true;
      out->cval = e.constant;
      out->type = e.constant.type();
      return;
    case ExprKind::kArith:
      ArithV(e, view, out);
      return;
    case ExprKind::kCompare:
      CompareV(e, view, out);
      return;
    case ExprKind::kLogical:
      LogicalV(e, view, out);
      return;
    case ExprKind::kNot: {
      VCol in;
      EvalV(*e.left, view, &in);
      if (in.is_const) {
        out->is_const = true;
        out->cval = NotValue(in.cval);
        out->type = out->cval.type();
        return;
      }
      if (in.type != ValueType::kBool) return;  // all-null (NotValue)
      const std::size_t n = view.n;
      out->type = ValueType::kBool;
      out->b8.resize(n);
      out->nulls = std::move(in.nulls);  // NOT preserves nullness
      for (std::size_t i = 0; i < n; ++i) out->b8[i] = in.b8[i] ? 0 : 1;
      return;
    }
  }
}

void AllNullColumn(std::size_t n, ColumnData* out) {
  out->type = ValueType::kNull;
  if (n > 0) {
    out->null_words.assign((n + 63) / 64, ~uint64_t{0});
    const std::size_t tail = n & 63;
    if (tail != 0) out->null_words.back() = (uint64_t{1} << tail) - 1;
  }
}

}  // namespace

void EvalPredicateView(const Expr& e, const BatchView& view,
                       std::vector<unsigned char>* keep) {
  VCol col;
  EvalV(e, view, &col);
  keep->assign(view.n, 0);
  if (col.is_const) {
    if (col.cval.type() == ValueType::kBool && col.cval.bool_unchecked()) {
      std::fill(keep->begin(), keep->end(), 1);
    }
    return;
  }
  if (col.type != ValueType::kBool) return;  // all-null / non-bool: drop all
  if (col.nulls.empty()) {
    std::copy(col.b8.begin(), col.b8.end(), keep->begin());
    return;
  }
  for (std::size_t i = 0; i < view.n; ++i) {
    (*keep)[i] = (col.b8[i] != 0 && col.nulls[i] == 0) ? 1 : 0;
  }
}

void EvalExprView(const Expr& e, const BatchView& view, ColumnData* out) {
  VCol col;
  EvalV(e, view, &col);
  const std::size_t n = view.n;
  *out = ColumnData();
  if (col.is_const) {
    const Value& v = col.cval;
    switch (v.type()) {
      case ValueType::kInt64:
        out->type = ValueType::kInt64;
        out->i64.assign(n, v.int64_unchecked());
        return;
      case ValueType::kDouble:
        out->type = ValueType::kDouble;
        out->f64.assign(n, v.double_unchecked());
        return;
      case ValueType::kBool:
        out->type = ValueType::kBool;
        out->b8.assign(n, v.bool_unchecked() ? 1 : 0);
        return;
      case ValueType::kString: {
        out->type = ValueType::kString;
        const std::string& s = v.string_unchecked();
        out->str_offsets.reserve(n + 1);
        out->str_bytes.reserve(n * s.size());
        for (std::size_t i = 0; i < n; ++i) {
          out->str_offsets.push_back(static_cast<uint32_t>(out->str_bytes.size()));
          out->str_bytes.append(s);
        }
        out->str_offsets.push_back(static_cast<uint32_t>(out->str_bytes.size()));
        return;
      }
      default:
        AllNullColumn(n, out);
        return;
    }
  }
  if (col.type == ValueType::kNull) {
    AllNullColumn(n, out);
    return;
  }
  out->type = col.type;
  switch (col.type) {
    case ValueType::kInt64: out->i64 = std::move(col.i64); break;
    case ValueType::kDouble: out->f64 = std::move(col.f64); break;
    case ValueType::kBool: out->b8 = std::move(col.b8); break;
    case ValueType::kString: {
      out->str_offsets.reserve(n + 1);
      for (std::size_t i = 0; i < n; ++i) {
        out->str_offsets.push_back(static_cast<uint32_t>(out->str_bytes.size()));
        if (col.NullAt(i)) continue;  // empty payload, marked via the mask
        const std::string_view s = col.StrAt(view, i);
        out->str_bytes.append(s.data(), s.size());
      }
      out->str_offsets.push_back(static_cast<uint32_t>(out->str_bytes.size()));
      break;
    }
    default: break;
  }
  if (!col.nulls.empty()) out->SetNullsFromBytes(col.nulls);
}

// --- canonical form & fingerprints -----------------------------------------

std::string Canonical(const Expr& e) {
  std::string out;
  AppendCanonical(e, &out);
  return out;
}

std::string Pretty(const Expr& e) {
  std::string out;
  AppendPretty(e, 0, &out);
  return out;
}

// --- selectivity -----------------------------------------------------------

double EstimateSelectivity(const Expr& e) {
  double s;
  switch (e.kind) {
    case ExprKind::kConst:
      s = (e.constant.type() == ValueType::kBool)
              ? (e.constant.bool_unchecked() ? 1.0 : 0.0)
              : 0.5;
      break;
    case ExprKind::kCompare:
      switch (e.compare) {
        case CompareKind::kEq: s = 0.1; break;
        case CompareKind::kNe: s = 0.9; break;
        default: s = 1.0 / 3.0; break;
      }
      break;
    case ExprKind::kLogical: {
      const double a = EstimateSelectivity(*e.left);
      const double b = EstimateSelectivity(*e.right);
      s = e.logical == LogicalKind::kAnd ? a * b : a + b - a * b;
      break;
    }
    case ExprKind::kNot:
      s = 1.0 - EstimateSelectivity(*e.left);
      break;
    default:
      s = 0.5;  // a non-boolean tree has no predicate selectivity
      break;
  }
  return std::clamp(s, 0.0, 1.0);
}

// --- structural helpers ----------------------------------------------------

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& e) {
  std::vector<ExprPtr> out;
  if (e == nullptr) return out;
  if (e->kind == ExprKind::kLogical && e->logical == LogicalKind::kAnd) {
    for (auto& c : SplitConjuncts(e->left)) out.push_back(std::move(c));
    for (auto& c : SplitConjuncts(e->right)) out.push_back(std::move(c));
    return out;
  }
  out.push_back(e);
  return out;
}

ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr acc;
  for (const ExprPtr& c : conjuncts) {
    acc = acc == nullptr ? c : And(acc, c);
  }
  return acc;
}

void CollectFields(const Expr& e, std::set<int>* fields) {
  switch (e.kind) {
    case ExprKind::kField:
      fields->insert(e.field_index);
      return;
    case ExprKind::kConst:
      return;
    case ExprKind::kNot:
      CollectFields(*e.left, fields);
      return;
    default:
      CollectFields(*e.left, fields);
      CollectFields(*e.right, fields);
      return;
  }
}

int MaxFieldIndex(const Expr& e) {
  std::set<int> fields;
  CollectFields(e, &fields);
  return fields.empty() ? -1 : *fields.rbegin();
}

Result<ExprPtr> RemapFields(const ExprPtr& e,
                            const std::map<int, int>& mapping) {
  switch (e->kind) {
    case ExprKind::kField: {
      auto it = mapping.find(e->field_index);
      if (it == mapping.end()) {
        return Status::NotFound("no mapping for field $" +
                                std::to_string(e->field_index));
      }
      auto n = std::make_shared<Expr>(*e);
      n->field_index = it->second;
      return ExprPtr(n);
    }
    case ExprKind::kConst:
      return e;
    case ExprKind::kNot: {
      RHEEM_ASSIGN_OR_RETURN(ExprPtr c, RemapFields(e->left, mapping));
      auto n = std::make_shared<Expr>(*e);
      n->left = std::move(c);
      return ExprPtr(n);
    }
    default: {
      RHEEM_ASSIGN_OR_RETURN(ExprPtr l, RemapFields(e->left, mapping));
      RHEEM_ASSIGN_OR_RETURN(ExprPtr r, RemapFields(e->right, mapping));
      auto n = std::make_shared<Expr>(*e);
      n->left = std::move(l);
      n->right = std::move(r);
      return ExprPtr(n);
    }
  }
}

ExprPtr ShiftFields(const ExprPtr& e, int delta) {
  switch (e->kind) {
    case ExprKind::kField: {
      auto n = std::make_shared<Expr>(*e);
      n->field_index = e->field_index + delta;
      return n;
    }
    case ExprKind::kConst:
      return e;
    case ExprKind::kNot: {
      auto n = std::make_shared<Expr>(*e);
      n->left = ShiftFields(e->left, delta);
      return n;
    }
    default: {
      auto n = std::make_shared<Expr>(*e);
      n->left = ShiftFields(e->left, delta);
      n->right = ShiftFields(e->right, delta);
      return n;
    }
  }
}

int NodeCount(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kField:
    case ExprKind::kConst:
      return 1;
    case ExprKind::kNot:
      return 1 + NodeCount(*e.left);
    default:
      return 1 + NodeCount(*e.left) + NodeCount(*e.right);
  }
}

// --- UDF compilation -------------------------------------------------------

Result<PredicateUdf> MakePredicateUdf(ExprPtr e) {
  if (e == nullptr) return Status::InvalidArgument("null predicate expression");
  RHEEM_RETURN_IF_ERROR(TypeCheckPredicate(*e));
  PredicateUdf udf;
  udf.expr = e;
  udf.fn = [e](const Record& r) { return EvalPredicate(*e, r); };
  udf.meta.selectivity = EstimateSelectivity(*e);
  udf.meta.cost_factor = static_cast<double>(NodeCount(*e)) * 0.25;
  return udf;
}

Result<MapUdf> MakeMapUdf(std::vector<ExprPtr> fields) {
  if (fields.empty()) {
    return Status::InvalidArgument("declarative Map needs >= 1 output field");
  }
  for (const ExprPtr& f : fields) {
    if (f == nullptr) return Status::InvalidArgument("null field expression");
    RHEEM_RETURN_IF_ERROR(TypeCheck(*f).status());
  }
  MapUdf udf;
  udf.projection = fields;
  double cost = 0.0;
  for (const ExprPtr& f : fields) cost += NodeCount(*f);
  udf.meta.cost_factor = cost * 0.25;
  udf.fn = [fields](const Record& r) {
    std::vector<Value> out;
    out.reserve(fields.size());
    for (const ExprPtr& f : fields) out.push_back(Eval(*f, r));
    return Record(std::move(out));
  };
  return udf;
}

Result<KeyUdf> MakeKeyUdf(ExprPtr e) {
  if (e == nullptr) return Status::InvalidArgument("null key expression");
  RHEEM_RETURN_IF_ERROR(TypeCheck(*e).status());
  KeyUdf udf;
  udf.expr = e;
  udf.fn = [e](const Record& r) { return Eval(*e, r); };
  return udf;
}

Result<ThetaUdf> MakeThetaUdf(ExprPtr e) {
  if (e == nullptr) return Status::InvalidArgument("null theta expression");
  RHEEM_RETURN_IF_ERROR(TypeCheckPredicate(*e));
  ThetaUdf udf;
  udf.pair_expr = e;
  udf.fn = [e](const Record& a, const Record& b) {
    return EvalPredicatePair(*e, a, b);
  };
  udf.meta.selectivity = EstimateSelectivity(*e);
  return udf;
}

}  // namespace expr
}  // namespace rheem
