// Shared random-plan generator for the differential fuzz and chaos suites.
// A plan is a pure function of its tape seed, so any failure in any suite
// replays from one number (RHEEM_FUZZ_SEED / RHEEM_FAULT_SEED).
#ifndef RHEEM_TESTS_CORE_RANDOM_PLANS_H_
#define RHEEM_TESTS_CORE_RANDOM_PLANS_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/api/data_quanta.h"
#include "core/expr/expr.h"
#include "core/operators/descriptors.h"

namespace rheem {
namespace testutil {

inline std::multiset<std::string> AsMultiset(const Dataset& d) {
  std::multiset<std::string> out;
  for (const Record& r : d.records()) out.insert(r.ToString());
  return out;
}

/// Value of the named env var, or 0 when unset.
inline uint64_t EnvU64(const char* name) {
  const char* s = std::getenv(name);
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 0;
}

/// True (and *seed set) when the named replay env var is present.
inline bool EnvReplaySeed(const char* name, uint64_t* seed) {
  const char* s = std::getenv(name);
  if (s == nullptr) return false;
  *seed = std::strtoull(s, nullptr, 10);
  return true;
}

/// Random (key:int64, value:int64) dataset.
inline Dataset RandomPairs(Rng* rng, int max_rows) {
  const int rows = 1 + static_cast<int>(rng->NextBounded(
                           static_cast<uint64_t>(max_rows)));
  std::vector<Record> out;
  out.reserve(static_cast<std::size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    out.push_back(
        Record({Value(rng->NextInt(0, 15)), Value(rng->NextInt(-100, 100))}));
  }
  return Dataset(std::move(out));
}

/// Appends 1..6 random operators to `q`, keeping the (key, value) shape
/// invariant so every operator remains applicable.
///
/// `order_stable` tracks whether the pipeline's element order is still the
/// same on every platform (narrow order-preserving ops only). Sample's keep
/// decision is a function of global element position, so it is only a fair
/// differential case while order is stable; afterwards the generator
/// substitutes a deterministic Map to keep the random tape aligned.
inline DataQuanta RandomPipeline(Rng* rng, RheemJob* job, DataQuanta q) {
  const int steps = 1 + static_cast<int>(rng->NextBounded(6));
  bool order_stable = true;
  for (int s = 0; s < steps; ++s) {
    switch (rng->NextBounded(12)) {
      case 0:
        q = q.Map([](const Record& r) {
          return Record({r[0], Value(r[1].ToInt64Or(0) + 1)});
        });
        break;
      case 1: {
        const int64_t threshold = rng->NextInt(-50, 50);
        q = q.Filter([threshold](const Record& r) {
          return r[1].ToInt64Or(0) >= threshold;
        });
        break;
      }
      case 2:
        q = q.FlatMap([](const Record& r) {
          std::vector<Record> out{r};
          if (r[1].ToInt64Or(0) % 2 == 0) {
            out.push_back(Record({r[0], Value(r[1].ToInt64Or(0) / 2)}));
          }
          return out;
        });
        break;
      case 3:
        q = q.Distinct();
        order_stable = false;
        break;
      case 4:
        q = q.Sort([](const Record& r) { return r[1]; });
        order_stable = false;  // ties may gather in platform-dependent order
        break;
      case 5:
        q = q.ReduceByKey(
            [](const Record& r) { return r[0]; },
            [](const Record& a, const Record& b) {
              return Record({a[0], Value(a[1].ToInt64Or(0) + b[1].ToInt64Or(0))});
            });
        order_stable = false;
        break;
      case 6:
        q = q.Union(job->LoadCollection(RandomPairs(rng, 50)));
        order_stable = false;
        break;
      case 7:
        // Total key (no cross-record ties): platforms may order equal keys
        // differently, which would be a legal divergence, not a bug.
        q = q.TopK(1 + static_cast<int64_t>(rng->NextBounded(20)),
                   [](const Record& r) {
                     return Value(r[1].ToInt64Or(0) * 16 + r[0].ToInt64Or(0));
                   },
                   rng->NextBool());
        order_stable = false;
        break;
      case 8:
        q = q.GroupByKey(
            [](const Record& r) { return r[0]; },
            [](const Value& key, const std::vector<Record>& members) {
              return std::vector<Record>{Record(
                  {key, Value(static_cast<int64_t>(members.size()))})};
            });
        order_stable = false;
        break;
      case 9: {
        // Equi-join against a small random build side. Join output is the
        // concatenation (lk, lv, rk, rv); fold back to the 2-field shape.
        DataQuanta side = job->LoadCollection(RandomPairs(rng, 20));
        q = q.Join(
                 side, [](const Record& r) { return r[0]; },
                 [](const Record& r) { return r[0]; })
                .Map([](const Record& r) {
                  return Record({r[0], Value(r[1].ToInt64Or(0) * 7 +
                                             r[3].ToInt64Or(0))});
                });
        order_stable = false;
        break;
      }
      case 10: {
        // CoGroup: tag each side with a marker column, union, and group by
        // key with an order-insensitive combine (member order inside a group
        // is platform-dependent, so the aggregate must not depend on it).
        DataQuanta side = job->LoadCollection(RandomPairs(rng, 30));
        DataQuanta left = q.Map([](const Record& r) {
          return Record({r[0], r[1], Value(static_cast<int64_t>(0))});
        });
        DataQuanta right = side.Map([](const Record& r) {
          return Record({r[0], r[1], Value(static_cast<int64_t>(1))});
        });
        q = left.Union(right).GroupByKey(
            [](const Record& r) { return r[0]; },
            [](const Value& key, const std::vector<Record>& members) {
              int64_t left_sum = 0, right_sum = 0;
              int64_t left_n = 0, right_n = 0;
              for (const Record& m : members) {
                if (m[2].ToInt64Or(0) == 0) {
                  left_sum += m[1].ToInt64Or(0);
                  ++left_n;
                } else {
                  right_sum += m[1].ToInt64Or(0);
                  ++right_n;
                }
              }
              return std::vector<Record>{
                  Record({key, Value(left_sum * 31 + right_sum + left_n * 7 +
                                     right_n)})};
            });
        order_stable = false;
        break;
      }
      default: {
        const double fraction =
            0.2 + 0.05 * static_cast<double>(rng->NextBounded(13));
        const uint64_t sample_seed = rng->NextU64();
        if (order_stable) {
          q = q.Sample(fraction, sample_seed);
        } else {
          // Same tape draws, deterministic substitute.
          q = q.Map([](const Record& r) {
            return Record({r[0], Value(r[1].ToInt64Or(0) ^ 1)});
          });
        }
        break;
      }
    }
  }
  return q;
}

// --- random well-typed expressions ------------------------------------------
//
// Each generator returns the same random predicate in two *independent*
// representations: a typed expression tree and a native closure composed of
// plain C++ lambdas. The closure never calls the expression interpreter, so a
// differential run pits the declarative path (conjunct splitting, push-down
// rewrites, batch evaluation, fingerprint folding) against straight
// record-at-a-time C++. Generation draws the same tape values regardless of
// which representation the caller ends up using.
//
// All expressions address the 2-field (key:int64, value:int64) shape and use
// only +, -, * and comparisons, so no SQL Nulls can arise and the closure's
// two-valued &&/||/! agrees with the tree's three-valued Kleene logic.

struct GeneratedScalar {
  expr::ExprPtr tree;
  std::function<int64_t(const Record&)> fn;
};

struct GeneratedPredicate {
  expr::ExprPtr tree;
  std::function<bool(const Record&)> fn;
};

inline GeneratedScalar RandomScalarExpr(Rng* rng, int depth) {
  const uint64_t pick = rng->NextBounded(depth <= 0 ? 2 : 5);
  switch (pick) {
    case 0: {
      const int f = static_cast<int>(rng->NextBounded(2));
      return {expr::Field(f, ValueType::kInt64),
              [f](const Record& r) { return r[f].ToInt64Or(0); }};
    }
    case 1: {
      const int64_t c = rng->NextInt(-8, 8);
      return {expr::Lit(c), [c](const Record&) { return c; }};
    }
    default: {
      const GeneratedScalar l = RandomScalarExpr(rng, depth - 1);
      const GeneratedScalar r = RandomScalarExpr(rng, depth - 1);
      if (pick == 2) {
        return {expr::Add(l.tree, r.tree),
                [l, r](const Record& rec) { return l.fn(rec) + r.fn(rec); }};
      }
      if (pick == 3) {
        return {expr::Sub(l.tree, r.tree),
                [l, r](const Record& rec) { return l.fn(rec) - r.fn(rec); }};
      }
      return {expr::Mul(l.tree, r.tree),
              [l, r](const Record& rec) { return l.fn(rec) * r.fn(rec); }};
    }
  }
}

inline GeneratedPredicate RandomPredicateExpr(Rng* rng, int depth) {
  const uint64_t pick = rng->NextBounded(depth <= 0 ? 1 : 4);
  if (pick == 0) {
    const GeneratedScalar l = RandomScalarExpr(rng, 1);
    const GeneratedScalar r = RandomScalarExpr(rng, 1);
    switch (rng->NextBounded(6)) {
      case 0:
        return {expr::Eq(l.tree, r.tree),
                [l, r](const Record& x) { return l.fn(x) == r.fn(x); }};
      case 1:
        return {expr::Ne(l.tree, r.tree),
                [l, r](const Record& x) { return l.fn(x) != r.fn(x); }};
      case 2:
        return {expr::Lt(l.tree, r.tree),
                [l, r](const Record& x) { return l.fn(x) < r.fn(x); }};
      case 3:
        return {expr::Le(l.tree, r.tree),
                [l, r](const Record& x) { return l.fn(x) <= r.fn(x); }};
      case 4:
        return {expr::Gt(l.tree, r.tree),
                [l, r](const Record& x) { return l.fn(x) > r.fn(x); }};
      default:
        return {expr::Ge(l.tree, r.tree),
                [l, r](const Record& x) { return l.fn(x) >= r.fn(x); }};
    }
  }
  const GeneratedPredicate a = RandomPredicateExpr(rng, depth - 1);
  if (pick == 3) {
    return {expr::Not(a.tree), [a](const Record& x) { return !a.fn(x); }};
  }
  const GeneratedPredicate b = RandomPredicateExpr(rng, depth - 1);
  if (pick == 1) {
    return {expr::And(a.tree, b.tree),
            [a, b](const Record& x) { return a.fn(x) && b.fn(x); }};
  }
  return {expr::Or(a.tree, b.tree),
          [a, b](const Record& x) { return a.fn(x) || b.fn(x); }};
}

/// Declarative/closure twin pipeline: appends 1..5 steps, each drawn once
/// from the tape and applied either through the declarative expression
/// overloads (`declarative` true) or through independently-written closures
/// with identical semantics. Both modes consume identical tape draws, so a
/// (seed, declarative) pair fully determines the plan — and the two modes of
/// one seed must be bag-equal on every platform. Step kinds are chosen so the
/// declarative rewrites actually fire: conjunctive filters (split + reorder),
/// filters above pass-through projections (push below map), post-join
/// filters over left-side fields (push into join input), and declarative
/// key aggregations (the kernels' columnar reduce path).
inline DataQuanta RandomExprPipeline(Rng* rng, RheemJob* job, DataQuanta q,
                                     bool declarative) {
  const int steps = 1 + static_cast<int>(rng->NextBounded(5));
  for (int s = 0; s < steps; ++s) {
    switch (rng->NextBounded(6)) {
      case 0: {  // random predicate filter
        const GeneratedPredicate p = RandomPredicateExpr(rng, 2);
        q = declarative ? q.Filter(p.tree) : q.Filter(p.fn);
        break;
      }
      case 1: {  // conjunctive filter: splits and reorders when declarative
        const GeneratedPredicate a = RandomPredicateExpr(rng, 0);
        const GeneratedPredicate b = RandomPredicateExpr(rng, 0);
        if (declarative) {
          q = q.Filter(expr::And(a.tree, b.tree));
        } else {
          q = q.Filter(
              [a, b](const Record& r) { return a.fn(r) && b.fn(r); });
        }
        break;
      }
      case 2: {  // pass-through projection, then filter: push-below-map case
        const GeneratedPredicate p = RandomPredicateExpr(rng, 1);
        if (declarative) {
          std::vector<expr::ExprPtr> fields;
          fields.push_back(expr::Field(0, ValueType::kInt64));
          fields.push_back(expr::Field(1, ValueType::kInt64));
          q = q.Map(std::move(fields)).Filter(p.tree);
        } else {
          q = q.Map([](const Record& r) { return Record({r[0], r[1]}); })
                  .Filter(p.fn);
        }
        break;
      }
      case 3: {  // projection map (key, value + c)
        const int64_t c = rng->NextInt(-10, 10);
        if (declarative) {
          std::vector<expr::ExprPtr> fields;
          fields.push_back(expr::Field(0, ValueType::kInt64));
          fields.push_back(
              expr::Add(expr::Field(1, ValueType::kInt64), expr::Lit(c)));
          q = q.Map(std::move(fields));
        } else {
          q = q.Map([c](const Record& r) {
            return Record({r[0], Value(r[1].ToInt64Or(0) + c)});
          });
        }
        break;
      }
      case 4: {  // key aggregation: declarative agg spec vs hand-written combine.
        // The declarative form goes through MakeAggReduceUdf (fingerprint
        // folding + the kernels' columnar accumulators); the closure twin is
        // straight int64 arithmetic. Both see only int64 non-null values, so
        // CombineAgg's widening/null branches never fire and the two must
        // agree value-for-value.
        const uint64_t agg = rng->NextBounded(3);
        if (declarative) {
          const AggKind kind = agg == 0   ? AggKind::kSum
                               : agg == 1 ? AggKind::kMin
                                          : AggKind::kMax;
          q = q.ReduceByKey(expr::Field(0, ValueType::kInt64),
                            {{0, AggKind::kFirst}, {1, kind}});
        } else {
          q = q.ReduceByKey(
              [](const Record& r) { return r[0]; },
              [agg](const Record& a, const Record& b) {
                const int64_t x = a[1].ToInt64Or(0);
                const int64_t y = b[1].ToInt64Or(0);
                const int64_t v = agg == 0   ? x + y
                                  : agg == 1 ? std::min(x, y)
                                             : std::max(x, y);
                return Record({a[0], Value(v)});
              });
        }
        break;
      }
      default: {  // equi-join + post-join filter on left fields: join pushdown
        DataQuanta side = job->LoadCollection(RandomPairs(rng, 20));
        const GeneratedPredicate p = RandomPredicateExpr(rng, 1);
        DataQuanta joined =
            declarative
                ? q.Join(side, expr::Field(0, ValueType::kInt64),
                         expr::Field(0, ValueType::kInt64))
                : q.Join(
                      side, [](const Record& r) { return r[0]; },
                      [](const Record& r) { return r[0]; });
        joined = declarative ? joined.Filter(p.tree) : joined.Filter(p.fn);
        q = joined.Map([](const Record& r) {
          return Record(
              {r[0], Value(r[1].ToInt64Or(0) * 7 + r[3].ToInt64Or(0))});
        });
        break;
      }
    }
  }
  return q;
}

// --- SQL twin pipelines ------------------------------------------------------
//
// RandomSqlTwin returns the same random query in two *independent*
// representations: SQL text (compiled through the core/sql frontend) and a
// hand-built closure pipeline that never touches the SQL frontend or the
// expression IR. A differential run pits the whole tokenizer → parser →
// analyzer → plan-compiler stack against straight DataQuanta calls.
//
// Every step keeps a 2-column (k, v) int64 shape with k in [0, 15] — k is
// loaded in that range and no step rewrites it — so the terminal
// `ORDER BY v * 16 + k LIMIT n` sorts by a key that differs between any two
// distinct records: which rows survive the LIMIT is platform-independent,
// keeping bag-equality a sound oracle.

inline Schema PairSchema() {
  return Schema::Of({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}});
}

struct SqlTwinCase {
  std::string sql;
  /// Tables the SQL references (register in the catalog before compiling).
  std::vector<std::pair<std::string, Dataset>> tables;
  /// The independently-built pipeline with identical semantics.
  std::function<DataQuanta(RheemJob*)> hand;
};

inline SqlTwinCase RandomSqlTwin(Rng* rng) {
  SqlTwinCase out;
  Dataset base = RandomPairs(rng, 200);
  base.set_schema(PairSchema());
  out.tables.emplace_back("t0", base);
  out.sql = "SELECT * FROM t0";
  std::function<DataQuanta(RheemJob*)> hand = [base](RheemJob* job) {
    return job->LoadCollection(base);
  };
  int side_id = 0;
  const int steps = 1 + static_cast<int>(rng->NextBounded(4));
  for (int s = 0; s < steps; ++s) {
    switch (rng->NextBounded(5)) {
      case 0: {  // WHERE over a random predicate, rendered by expr::Pretty
        const GeneratedPredicate p = RandomPredicateExpr(rng, 2);
        out.sql =
            "SELECT * FROM (" + out.sql + ") WHERE " + expr::Pretty(*p.tree);
        auto prev = hand;
        hand = [prev, p](RheemJob* job) { return prev(job).Filter(p.fn); };
        break;
      }
      case 1: {  // projection k, v + c
        const int64_t c = rng->NextInt(-10, 10);
        out.sql = "SELECT k, v + (" + std::to_string(c) + ") AS v FROM (" +
                  out.sql + ")";
        auto prev = hand;
        hand = [prev, c](RheemJob* job) {
          return prev(job).Map([c](const Record& r) {
            return Record({r[0], Value(r[1].ToInt64Or(0) + c)});
          });
        };
        break;
      }
      case 2: {  // JOIN: equi, equi + residual conjunct, or pure theta
        const uint64_t kind = rng->NextBounded(3);
        // Theta output grows ~|q| * |side| / 2; keep that side small.
        Dataset side = RandomPairs(rng, kind == 2 ? 8 : 20);
        side.set_schema(PairSchema());
        const std::string sname = "s" + std::to_string(side_id++);
        out.tables.emplace_back(sname, side);
        auto prev = hand;
        if (kind != 2) {
          out.sql = "SELECT t.k AS k, t.v * 7 + s.v AS v FROM (" + out.sql +
                    ") AS t JOIN " + sname + " AS s ON t.k = s.k" +
                    (kind == 1 ? " AND t.v <= s.v" : "");
          const bool residual = kind == 1;
          hand = [prev, side, residual](RheemJob* job) {
            DataQuanta sq = job->LoadCollection(side);
            DataQuanta joined = prev(job).Join(
                sq, [](const Record& r) { return r[0]; },
                [](const Record& r) { return r[0]; });
            if (residual) {
              joined = joined.Filter([](const Record& r) {
                return r[1].ToInt64Or(0) <= r[3].ToInt64Or(0);
              });
            }
            return joined.Map([](const Record& r) {
              return Record(
                  {r[0], Value(r[1].ToInt64Or(0) * 7 + r[3].ToInt64Or(0))});
            });
          };
        } else {
          out.sql = "SELECT t.k AS k, t.v * 7 + s.v AS v FROM (" + out.sql +
                    ") AS t JOIN " + sname + " AS s ON t.k < s.k";
          hand = [prev, side](RheemJob* job) {
            DataQuanta sq = job->LoadCollection(side);
            return prev(job)
                .ThetaJoin(sq,
                           [](const Record& a, const Record& b) {
                             return a[0].ToInt64Or(0) < b[0].ToInt64Or(0);
                           })
                .Map([](const Record& r) {
                  return Record(
                      {r[0], Value(r[1].ToInt64Or(0) * 7 + r[3].ToInt64Or(0))});
                });
          };
        }
        break;
      }
      case 3: {  // GROUP BY k with one aggregate
        const uint64_t agg = rng->NextBounded(4);
        const char* fn = agg == 0   ? "SUM(v)"
                         : agg == 1 ? "MIN(v)"
                         : agg == 2 ? "MAX(v)"
                                    : "COUNT(*)";
        out.sql = std::string("SELECT k, ") + fn + " AS v FROM (" + out.sql +
                  ") GROUP BY k";
        auto prev = hand;
        hand = [prev, agg](RheemJob* job) {
          DataQuanta q = prev(job);
          if (agg == 3) {  // COUNT(*): sum a column of ones
            q = q.Map([](const Record& r) {
              return Record({r[0], Value(static_cast<int64_t>(1))});
            });
          }
          return q.ReduceByKey(
              [](const Record& r) { return r[0]; },
              [agg](const Record& a, const Record& b) {
                const int64_t x = a[1].ToInt64Or(0);
                const int64_t y = b[1].ToInt64Or(0);
                const int64_t v = agg == 1   ? std::min(x, y)
                                  : agg == 2 ? std::max(x, y)
                                             : x + y;  // SUM and COUNT(*)
                return Record({a[0], Value(v)});
              });
        };
        break;
      }
      default: {
        out.sql = "SELECT DISTINCT k, v FROM (" + out.sql + ")";
        auto prev = hand;
        hand = [prev](RheemJob* job) { return prev(job).Distinct(); };
        break;
      }
    }
  }
  const int64_t n = 1 + static_cast<int64_t>(rng->NextBounded(20));
  const bool asc = rng->NextBool();
  out.sql = "SELECT * FROM (" + out.sql + ") ORDER BY v * 16 + k " +
            (asc ? "ASC" : "DESC") + " LIMIT " + std::to_string(n);
  auto prev = hand;
  hand = [prev, n, asc](RheemJob* job) {
    return prev(job).TopK(
        n,
        [](const Record& r) {
          return Value(r[1].ToInt64Or(0) * 16 + r[0].ToInt64Or(0));
        },
        asc);
  };
  out.hand = hand;
  return out;
}

// --- warm-cache SQL twins ----------------------------------------------------
//
// RandomSqlTwinPair returns two SQL texts over one table that differ in
// exactly one payload: the aggregate kind, the GROUP BY key, the ORDER BY key
// or direction, the projection, or the filter constant. Submitted back to
// back through one JobServer, each must still bag-equal its own cold run; a
// cache key that leaves the varied payload out serves the first text's rows
// for the second. v and w are distinct per row, so which rows survive an
// `ORDER BY v|w ... LIMIT n` is the same on every platform.

struct SqlTwinPair {
  Dataset table;  // register as "t": k, g (small keys), v, w (distinct)
  std::string first;
  std::string second;
};

inline SqlTwinPair RandomSqlTwinPair(Rng* rng) {
  constexpr int kRows = 24;
  std::vector<int64_t> v(kRows), w(kRows);
  for (int i = 0; i < kRows; ++i) v[i] = w[i] = 3 * i;
  for (int i = kRows - 1; i > 0; --i) {  // independent shuffles of v and w
    std::swap(v[i], v[rng->NextBounded(static_cast<uint64_t>(i) + 1)]);
    std::swap(w[i], w[rng->NextBounded(static_cast<uint64_t>(i) + 1)]);
  }
  std::vector<Record> rows;
  for (int i = 0; i < kRows; ++i) {
    rows.push_back(Record({Value(rng->NextInt(0, 3)), Value(rng->NextInt(0, 2)),
                           Value(v[i]), Value(w[i])}));
  }
  SqlTwinPair out;
  out.table = Dataset(std::move(rows),
                      Schema::Of({{"k", ValueType::kInt64},
                                  {"g", ValueType::kInt64},
                                  {"v", ValueType::kInt64},
                                  {"w", ValueType::kInt64}}));

  // One query spec; the twin copies it and changes one field.
  struct Spec {
    bool grouped;
    int64_t threshold;     // WHERE v > threshold
    std::string agg;       // grouped: SUM | MIN | MAX
    std::string key;       // grouped: GROUP BY k | g
    std::string measure;   // grouped: aggregated column, v | w
    std::string leading;   // ordered: first output column, k | g | k + g
    std::string order;     // ordered: ORDER BY v | w
    bool ascending;
    int64_t limit;
  };
  // A random option other than `not_this`.
  auto pick = [rng](std::vector<std::string> options,
                    const std::string& not_this) {
    options.erase(std::remove(options.begin(), options.end(), not_this),
                  options.end());
    return options[rng->NextBounded(options.size())];
  };
  auto render = [](const Spec& s) {
    const std::string where =
        " FROM t WHERE v > " + std::to_string(s.threshold);
    if (s.grouped) {
      return "SELECT " + s.key + ", " + s.agg + "(" + s.measure + ") AS a" +
             where + " GROUP BY " + s.key;
    }
    return "SELECT " + s.leading + " AS c, v, w" + where + " ORDER BY " +
           s.order + (s.ascending ? " ASC" : " DESC") + " LIMIT " +
           std::to_string(s.limit);
  };
  Spec a;
  a.grouped = rng->NextBool();
  a.threshold = rng->NextInt(0, 30);
  a.agg = pick({"SUM", "MIN", "MAX"}, "");
  a.key = pick({"k", "g"}, "");
  a.measure = pick({"v", "w"}, "");
  a.leading = pick({"k", "g", "k + g"}, "");
  a.order = pick({"v", "w"}, "");
  a.ascending = rng->NextBool();
  a.limit = rng->NextInt(1, 8);
  Spec b = a;
  switch (rng->NextBounded(4)) {
    case 0:
      b.threshold = a.threshold + rng->NextInt(1, 20);
      break;
    case 1:
      if (a.grouped) {
        b.measure = pick({"v", "w"}, a.measure);
      } else {
        b.leading = pick({"k", "g", "k + g"}, a.leading);
      }
      break;
    case 2:
      if (a.grouped) {
        b.agg = pick({"SUM", "MIN", "MAX"}, a.agg);
      } else {
        b.order = pick({"v", "w"}, a.order);
      }
      break;
    default:
      if (a.grouped) {
        b.key = pick({"k", "g"}, a.key);
      } else {
        b.ascending = !a.ascending;
      }
      break;
  }
  out.first = render(a);
  out.second = render(b);
  return out;
}

}  // namespace testutil
}  // namespace rheem

#endif  // RHEEM_TESTS_CORE_RANDOM_PLANS_H_
