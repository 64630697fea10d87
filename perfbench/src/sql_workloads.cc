// Workloads `sql_interactive` and `sql_analytic`: closed-loop client threads,
// each with its own net::Client connection, submit SQL to one NetServer over
// loopback and fetch every result page. Every result is checked against a
// reference computed here with plain loops over the generated tables.
//
// sql_interactive: small in-memory tables (InMemoryCatalog); a fixed mix of
//   point filters, GROUP BY, join + GROUP BY and ORDER BY ... LIMIT, where a
//   fixed share of submissions repeats a text from a hot pool (Zipf-like
//   popularity) and the rest carry a constant never used before.
// sql_analytic: a storage-backed fact table (CsvStore behind the hot-data
//   buffer, via StorageCatalog); every query carries a fresh constant:
//   scan-filter-aggregate, join-aggregate, and one in ten a wide projection
//   returning a multi-page result of more than 1 MB.
//
// The traced run adds a TCP phase with metrics on (net and service layers),
// then replays a sample of the stream's first-time texts in-process through
// sql::Compile -> PlanFingerprint::Compute -> RheemContext::Compile ->
// CrossPlatformExecutor::Execute -> page encode, and reports net+service as
// the residual between the TCP median and the summed layers.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unistd.h>

#include "common/metrics.h"
#include "core/optimizer/fingerprint.h"
#include "core/service/job_server.h"
#include "core/service/net/client.h"
#include "core/service/net/server.h"
#include "core/sql/catalog.h"
#include "core/sql/sql.h"
#include "data/batch.h"
#include "data/serialization.h"
#include "layers.h"
#include "storage/csv_store.h"
#include "storage/hot_buffer.h"
#include "storage/storage_plan.h"
#include "workloads.h"

namespace perfbench {

using namespace rheem;  // NOLINT

namespace {

// --- deterministic generation ---------------------------------------------

/// splitmix64: a small generator whose sequence is fixed by the seed on
/// every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

/// Canonical text of a result cell: numbers compare by value whatever the
/// engine's numeric type, so an integral double prints like an integer.
std::string Cell(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt64:
      return std::to_string(v.int64_unchecked());
    case ValueType::kDouble: {
      const double d = v.double_unchecked();
      if (d == static_cast<double>(static_cast<int64_t>(d)) && d > -1e15 &&
          d < 1e15) {
        return std::to_string(static_cast<int64_t>(d));
      }
      return Format("%.17g", d);
    }
    case ValueType::kString:
      return v.string_unchecked();
    case ValueType::kBool:
      return v.bool_unchecked() ? "true" : "false";
    default:
      return v.ToString();
  }
}

std::string Row(const Record& r) {
  std::string out;
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (i > 0) out += '|';
    out += Cell(r[i]);
  }
  return out;
}

/// Order-aware (TopK) or order-insensitive hash of canonical rows.
uint64_t HashRows(std::vector<std::string> rows, bool ordered) {
  if (!ordered) std::sort(rows.begin(), rows.end());
  uint64_t h = 1469598103934665603ull;
  for (const std::string& row : rows) {
    for (unsigned char c : row) h = (h ^ c) * 1099511628211ull;
    h = (h ^ 0xFFu) * 1099511628211ull;
  }
  return h ^ rows.size();
}

std::string Int(int64_t v) { return std::to_string(v); }
std::string Cents(int64_t cents) {
  return Format("%lld.%02lld", static_cast<long long>(cents / 100),
                static_cast<long long>(cents % 100));
}

// --- queries ----------------------------------------------------------------

struct Query {
  int type = 0;
  bool repeat = false;  // the text was submitted before
  int64_t a = 0;        // the constant (an id or price in cents)
  std::string text;
};

/// One query type: its mix weight (per block), how many of those repeat a
/// hot text, the domain of its constant, its SQL, and whether its result
/// is ordered.
struct QueryType {
  std::string name;
  int per_block = 0;
  int repeats_per_block = 0;
  int64_t domain = 0;  // constants drawn from [0, domain)
  bool ordered = false;
  std::function<std::string(int64_t)> sql;
};

constexpr int kHotPerType = 12;

/// The seeded query stream shared by the client threads. Built block by
/// block: each block holds exactly `per_block` queries of each type, of
/// which exactly `repeats_per_block` draw a hot text (Zipf-like, weight
/// 1/rank); the others draw a constant not used before. Blocks are shuffled
/// with the seed, so every seed yields the same mix in a different order.
class QueryStream {
 public:
  QueryStream(std::vector<QueryType> types, uint64_t seed)
      : types_(std::move(types)), rng_(seed ^ 0x5157ull) {
    for (std::size_t t = 0; t < types_.size(); ++t) {
      std::vector<int64_t> hot;
      if (types_[t].repeats_per_block > 0) {
        for (int i = 0; i < kHotPerType; ++i) hot.push_back(Fresh(t));
      }
      hot_.push_back(std::move(hot));
    }
    double total = 0;
    for (int i = 0; i < kHotPerType; ++i) {
      total += 1.0 / (i + 1);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  const std::vector<QueryType>& types() const { return types_; }

  /// Set-up traffic: every hot text once, so later repeats are repeats, plus
  /// one query of each type with a constant the stream never uses again.
  std::vector<Query> WarmupTexts() {
    std::vector<Query> out;
    for (std::size_t t = 0; t < hot_.size(); ++t) {
      for (int64_t a : hot_[t]) out.push_back(Make(t, a, false));
      out.push_back(Make(t, Fresh(t), false));
    }
    return out;
  }

  /// Index of the next query (thread-safe); Get() returns it.
  std::size_t Next() {
    std::lock_guard<std::mutex> lock(mu_);
    if (pos_ == queries_.size()) AppendBlock();
    return pos_++;
  }
  Query Get(std::size_t i) const {
    std::lock_guard<std::mutex> lock(mu_);
    return queries_[i];
  }
  std::size_t issued() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pos_;
  }

 private:
  Query Make(std::size_t t, int64_t a, bool repeat) const {
    Query q;
    q.type = static_cast<int>(t);
    q.repeat = repeat;
    q.a = a;
    q.text = types_[t].sql(a);
    return q;
  }

  int64_t Fresh(std::size_t t) {
    const int64_t domain = types_[t].domain;
    for (int tries = 0; tries < 64; ++tries) {
      const int64_t a = rng_.Below(domain);
      if (used_.insert({t, a}).second) return a;
    }
    return rng_.Below(domain);  // domain exhausted: accept a repeat
  }

  void AppendBlock() {
    std::vector<std::pair<std::size_t, bool>> block;
    for (std::size_t t = 0; t < types_.size(); ++t) {
      for (int i = 0; i < types_[t].per_block; ++i) {
        block.push_back({t, i < types_[t].repeats_per_block});
      }
    }
    for (std::size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1],
                block[static_cast<std::size_t>(rng_.Below(static_cast<int64_t>(i)))]);
    }
    for (const auto& [t, repeat] : block) {
      if (repeat) {
        const double u = rng_.Unit();
        std::size_t rank = 0;
        while (rank + 1 < zipf_cdf_.size() && zipf_cdf_[rank] < u) ++rank;
        queries_.push_back(Make(t, hot_[t][rank], true));
      } else {
        queries_.push_back(Make(t, Fresh(t), false));
      }
    }
  }

  std::vector<QueryType> types_;
  Rng rng_;
  std::vector<std::vector<int64_t>> hot_;
  std::vector<double> zipf_cdf_;
  std::set<std::pair<std::size_t, int64_t>> used_;
  mutable std::mutex mu_;
  std::vector<Query> queries_;
  std::size_t pos_ = 0;
};

// --- tables and references ---------------------------------------------------

/// Column vectors of the generated tables, kept for the references.
struct Tables {
  // interactive: sales(id, cust, region, qty, amount), region(region, zone, name)
  // analytic: orders(id, product, cust, qty, price, day, note),
  //           product(product, brand, category)
  std::vector<int64_t> id, key, cust, qty, amount, day;  // key = region|product
  std::vector<double> price;
  std::vector<std::string> note;
  std::vector<int64_t> dim_group;  // region -> zone | product -> brand
  Dataset fact, dim;
};

constexpr int64_t kSalesRows = 20000;
constexpr int64_t kRegions = 100;
constexpr int64_t kOrdersRows = 100000;
constexpr int64_t kProducts = 1000;
constexpr int64_t kWideRows = 20000;

Tables MakeInteractiveTables(uint64_t seed) {
  Tables t;
  Rng rng(seed);
  std::vector<int64_t> perm(kSalesRows);
  for (int64_t i = 0; i < kSalesRows; ++i) perm[i] = i;
  for (int64_t i = kSalesRows; i > 1; --i) std::swap(perm[i - 1], perm[rng.Below(i)]);
  std::vector<Record> rows;
  rows.reserve(kSalesRows);
  for (int64_t i = 0; i < kSalesRows; ++i) {
    t.id.push_back(i);
    t.cust.push_back(rng.Below(1000));
    t.key.push_back(rng.Below(kRegions));
    t.qty.push_back(1 + rng.Below(50));
    t.amount.push_back(1000 + perm[i]);  // unique: ORDER BY amount is total
    rows.push_back(Record({Value(t.id[i]), Value(t.cust[i]), Value(t.key[i]),
                           Value(t.qty[i]), Value(t.amount[i])}));
  }
  t.fact = Dataset(std::move(rows), Schema::Of({{"id", ValueType::kInt64},
                                                {"cust", ValueType::kInt64},
                                                {"region", ValueType::kInt64},
                                                {"qty", ValueType::kInt64},
                                                {"amount", ValueType::kInt64}}));
  std::vector<Record> dims;
  for (int64_t r = 0; r < kRegions; ++r) {
    t.dim_group.push_back(rng.Below(10));
    dims.push_back(Record({Value(r), Value(t.dim_group[r]),
                           Value("region-" + std::to_string(r))}));
  }
  t.dim = Dataset(std::move(dims), Schema::Of({{"region", ValueType::kInt64},
                                               {"zone", ValueType::kInt64},
                                               {"name", ValueType::kString}}));
  return t;
}

Tables MakeAnalyticTables(uint64_t seed) {
  Tables t;
  Rng rng(seed);
  static const char kAlpha[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::vector<Record> rows;
  rows.reserve(kOrdersRows);
  for (int64_t i = 0; i < kOrdersRows; ++i) {
    t.id.push_back(i);
    t.key.push_back(rng.Below(kProducts));
    t.cust.push_back(rng.Below(50000));
    t.qty.push_back(1 + rng.Below(20));
    t.price.push_back(static_cast<double>(100 + rng.Below(9900)) / 100.0);
    t.day.push_back(rng.Below(365));
    std::string note(10, 'x');
    for (char& c : note) c = kAlpha[rng.Below(36)];
    t.note.push_back(note);
    rows.push_back(Record({Value(t.id[i]), Value(t.key[i]), Value(t.cust[i]),
                           Value(t.qty[i]), Value(t.price[i]), Value(t.day[i]),
                           Value(note)}));
  }
  t.fact = Dataset(std::move(rows), Schema::Of({{"id", ValueType::kInt64},
                                                {"product", ValueType::kInt64},
                                                {"cust", ValueType::kInt64},
                                                {"qty", ValueType::kInt64},
                                                {"price", ValueType::kDouble},
                                                {"day", ValueType::kInt64},
                                                {"note", ValueType::kString}}));
  std::vector<Record> dims;
  for (int64_t p = 0; p < kProducts; ++p) {
    t.dim_group.push_back(rng.Below(50));
    dims.push_back(Record({Value(p), Value(t.dim_group[p]),
                           Value("cat-" + std::to_string(p % 17))}));
  }
  t.dim = Dataset(std::move(dims), Schema::Of({{"product", ValueType::kInt64},
                                               {"brand", ValueType::kInt64},
                                               {"category", ValueType::kString}}));
  return t;
}

std::vector<QueryType> InteractiveTypes() {
  return {
      {"point", 8, 4, kSalesRows - 10, false,
       [](int64_t a) {
         return "SELECT id, qty, amount FROM sales WHERE id >= " + Int(a) +
                " AND id < " + Int(a + 10);
       }},
      {"group", 4, 2, kSalesRows / 2, false,
       [](int64_t a) {
         return "SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM sales "
                "WHERE id >= " + Int(a) + " AND id < " + Int(a + kSalesRows / 2) +
                " GROUP BY region";
       }},
      {"join", 4, 2, kSalesRows - kSalesRows / 4, false,
       [](int64_t a) {
         return "SELECT r.zone, SUM(s.qty) AS units FROM sales AS s JOIN region "
                "AS r ON s.region = r.region WHERE s.id >= " + Int(a) +
                " AND s.id < " + Int(a + kSalesRows / 4) + " GROUP BY r.zone";
       }},
      {"topk", 4, 2, kSalesRows - 2000, true,
       [](int64_t a) {
         return "SELECT id, amount FROM sales WHERE id >= " + Int(a) +
                " AND id < " + Int(a + 2000) + " ORDER BY amount DESC LIMIT 10";
       }},
  };
}

std::vector<QueryType> AnalyticTypes() {
  return {
      {"scan_agg", 6, 0, 4900, false,
       [](int64_t a) {
         return "SELECT product, SUM(qty) AS units, COUNT(*) AS n FROM orders "
                "WHERE price >= " + Cents(100 + a) + " AND price < " +
                Cents(100 + a + 5000) + " GROUP BY product";
       }},
      {"join_agg", 3, 0, 7400, false,
       [](int64_t a) {
         return "SELECT p.brand, SUM(o.qty) AS units FROM orders AS o JOIN "
                "product AS p ON o.product = p.product WHERE o.price >= " +
                Cents(100 + a) + " AND o.price < " + Cents(100 + a + 2500) +
                " GROUP BY p.brand";
       }},
      {"wide", 1, 0, kOrdersRows - kWideRows, false,
       [](int64_t a) {
         return "SELECT * FROM orders WHERE id >= " + Int(a) + " AND id < " +
                Int(a + kWideRows);
       }},
  };
}

std::vector<std::string> ReferenceInteractive(const Tables& t, const Query& q) {
  std::vector<std::string> rows;
  const int64_t n = static_cast<int64_t>(t.id.size());
  auto in = [&](int64_t i, int64_t width) {
    return t.id[i] >= q.a && t.id[i] < q.a + width;
  };
  switch (q.type) {
    case 0:
      for (int64_t i = 0; i < n; ++i) {
        if (in(i, 10)) {
          rows.push_back(Int(t.id[i]) + "|" + Int(t.qty[i]) + "|" +
                         Int(t.amount[i]));
        }
      }
      break;
    case 1: {
      std::map<int64_t, std::pair<int64_t, int64_t>> g;
      for (int64_t i = 0; i < n; ++i) {
        if (in(i, kSalesRows / 2)) {
          g[t.key[i]].first += t.amount[i];
          g[t.key[i]].second += 1;
        }
      }
      for (const auto& [k, v] : g) {
        rows.push_back(Int(k) + "|" + Int(v.first) + "|" + Int(v.second));
      }
      break;
    }
    case 2: {
      std::map<int64_t, int64_t> g;
      for (int64_t i = 0; i < n; ++i) {
        if (in(i, kSalesRows / 4)) g[t.dim_group[t.key[i]]] += t.qty[i];
      }
      for (const auto& [k, v] : g) rows.push_back(Int(k) + "|" + Int(v));
      break;
    }
    case 3: {
      std::vector<std::pair<int64_t, int64_t>> hits;  // (amount, id)
      for (int64_t i = 0; i < n; ++i) {
        if (in(i, 2000)) hits.push_back({t.amount[i], t.id[i]});
      }
      std::sort(hits.rbegin(), hits.rend());
      for (std::size_t i = 0; i < hits.size() && i < 10; ++i) {
        rows.push_back(Int(hits[i].second) + "|" + Int(hits[i].first));
      }
      break;
    }
  }
  return rows;
}

std::vector<std::string> ReferenceAnalytic(const Tables& t, const Query& q) {
  std::vector<std::string> rows;
  const std::size_t n = t.id.size();
  switch (q.type) {
    case 0:
    case 1: {
      const int64_t width = q.type == 0 ? 5000 : 2500;
      // The same decimal literals the SQL text carries.
      const double lo = std::strtod(Cents(100 + q.a).c_str(), nullptr);
      const double hi = std::strtod(Cents(100 + q.a + width).c_str(), nullptr);
      std::map<int64_t, std::pair<int64_t, int64_t>> g;
      for (std::size_t i = 0; i < n; ++i) {
        if (t.price[i] >= lo && t.price[i] < hi) {
          const int64_t k = q.type == 0 ? t.key[i] : t.dim_group[t.key[i]];
          g[k].first += t.qty[i];
          g[k].second += 1;
        }
      }
      for (const auto& [k, v] : g) {
        rows.push_back(q.type == 0
                           ? Int(k) + "|" + Int(v.first) + "|" + Int(v.second)
                           : Int(k) + "|" + Int(v.first));
      }
      break;
    }
    case 2:
      for (std::size_t i = 0; i < n; ++i) {
        if (t.id[i] >= q.a && t.id[i] < q.a + kWideRows) {
          rows.push_back(Row(t.fact.at(i)));
        }
      }
      break;
  }
  return rows;
}

// --- the workload -------------------------------------------------------------

// Slices of the end-to-end window ranked by QuietHalf: 3 s each in a 30 s
// window.
constexpr int kSlices = 10;

struct Spec {
  std::string name;
  int clients = 0;
  /// A client reconnects after this many queries. The server keeps every
  /// job of a session, including its compiled plan with a copy of each
  /// source table, until the session ends; reconnecting bounds that
  /// retention so the run's memory stays small.
  int queries_per_connection = 0;
  /// Overrides `service.plan_cache_capacity` when > 0.
  int plan_cache_capacity = 0;
  /// Closed-loop queries run after set-up and before the measured window
  /// (checked, not timed), so caches and allocator pools are warm.
  int warm_queries = 0;
  bool storage = false;
  std::function<Tables(uint64_t)> make_tables;
  std::function<std::vector<QueryType>()> types;
  std::function<std::vector<std::string>(const Tables&, const Query&)> reference;
};

/// One completed TCP op.
struct OpRecord {
  std::size_t query = 0;  // index into the stream
  bool ok = false;
  uint64_t hash = 0;
  double latency_ms = 0, first_page_ms = 0, submit_ms = 0, wait_ms = 0,
         fetch_ms = 0;
  int64_t pages = 0;
  int64_t end_ns = 0;
};

/// Server, context, catalog and storage of one set-up. Members are declared
/// so that destruction runs clients -> server -> context -> catalog ->
/// storage, the order their borrowings require.
struct Fixture {
  std::string data_dir;
  std::unique_ptr<storage::StorageManager> storage;
  std::unique_ptr<sql::Catalog> catalog;
  std::unique_ptr<RheemContext> ctx;
  std::unique_ptr<net::NetServer> server;
  std::vector<std::unique_ptr<net::Client>> clients;
  int port = 0;

  ~Fixture() {
    for (auto& c : clients) (void)c->Bye();
    clients.clear();
    if (server) server->Shutdown(/*drain=*/true);
    server.reset();
    ctx.reset();
    catalog.reset();
    storage.reset();
    if (!data_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(data_dir, ec);
    }
  }
};

/// Submits `text`, waits, fetches every page; fills the timings and the
/// canonical rows.
Status RunQuery(net::Client* client, const std::string& text, OpRecord* rec,
                std::vector<std::string>* rows) {
  Timer total;
  Timer t;
  RHEEM_ASSIGN_OR_RETURN(uint64_t job, client->SubmitSql(text));
  rec->submit_ms = t.Ms();
  Timer w;
  RHEEM_ASSIGN_OR_RETURN(net::StatusFrame status, client->WaitDone(job));
  rec->wait_ms = w.Ms();
  if (status.code != 0) {
    return Status(static_cast<StatusCode>(status.code), status.message);
  }
  std::vector<Dataset> pages;
  Timer f;
  for (uint64_t p = 0; p < status.pages; ++p) {
    RHEEM_ASSIGN_OR_RETURN(Dataset page, client->FetchPage(job, p));
    if (p == 0) rec->first_page_ms = total.Ms();
    pages.push_back(std::move(page));
  }
  rec->fetch_ms = f.Ms();
  rec->latency_ms = total.Ms();
  if (status.pages == 0) rec->first_page_ms = rec->latency_ms;
  rec->pages = static_cast<int64_t>(status.pages);
  for (const Dataset& page : pages) {
    for (const Record& r : page.records()) rows->push_back(Row(r));
  }
  if (rows->size() != status.rows) {
    return Status::Internal(Format("fetched %zu rows, server reported %llu",
                                   rows->size(),
                                   static_cast<unsigned long long>(status.rows)));
  }
  return Status::OK();
}

/// Runs the closed loop on every fixture client until `seconds` pass or,
/// when `max_ops` > 0, until that many queries were started.
std::vector<OpRecord> RunClients(const Spec& spec, Fixture* fx,
                                 QueryStream* stream, double seconds,
                                 int64_t max_ops, SpanLog* spans,
                                 std::atomic<uint64_t>* op_ids,
                                 Report* report, double* elapsed_s) {
  std::vector<std::vector<OpRecord>> per_client(fx->clients.size());
  std::mutex report_mu;
  std::atomic<int64_t> started{0};
  const int64_t deadline = NowNanos() + static_cast<int64_t>(seconds * 1e9);
  const int64_t start = NowNanos();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < fx->clients.size(); ++c) {
    threads.emplace_back([&, c]() {
      net::Client* client = fx->clients[c].get();
      const auto& types = stream->types();
      while (NowNanos() < deadline &&
             (max_ops <= 0 || started.fetch_add(1) < max_ops)) {
        const std::size_t qi = stream->Next();
        const Query q = stream->Get(qi);
        OpRecord rec;
        rec.query = qi;
        std::vector<std::string> rows;
        const uint64_t op = op_ids->fetch_add(1) + 1;
        const int64_t t0 = NowNanos();
        Status st = RunQuery(client, q.text, &rec, &rows);
        if (spans->enabled()) {
          const uint64_t root = spans->Record("op.tcp." + types[q.type].name,
                                              op, 0, t0, NowNanos());
          int64_t at = t0;
          auto child = [&](const char* name, double ms) {
            const int64_t end = at + static_cast<int64_t>(ms * 1e6);
            spans->Record(name, op, root, at, end);
            at = end;
          };
          child("net.submit", rec.submit_ms);
          child("net.wait_done", rec.wait_ms);
          child("net.fetch_pages", rec.fetch_ms);
        }
        rec.ok = st.ok();
        rec.end_ns = NowNanos();
        if (!st.ok()) {
          std::lock_guard<std::mutex> lock(report_mu);
          report->Fail(types[q.type].name + " '" + q.text + "': " + st.ToString());
        } else {
          rec.hash = HashRows(std::move(rows), types[q.type].ordered);
        }
        per_client[c].push_back(rec);
        if (per_client[c].size() % spec.queries_per_connection == 0) {
          (void)client->Bye();
          Status cst = client->Connect("127.0.0.1", fx->port);
          if (!cst.ok()) {
            std::lock_guard<std::mutex> lock(report_mu);
            report->Fail("reconnect: " + cst.ToString());
          }
        }
        if (!client->connected()) break;
      }
    });
  }
  for (auto& t : threads) t.join();
  *elapsed_s = static_cast<double>(NowNanos() - start) * 1e-9;
  std::vector<OpRecord> all;
  for (auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
  return all;
}

/// Checks every op against the reference (memoized per text).
void Verify(const Spec& spec, const Tables& tables, const QueryStream& stream,
            const std::vector<OpRecord>& ops,
            std::map<std::string, uint64_t>* memo, Report* report) {
  const auto& types = stream.types();
  for (const OpRecord& rec : ops) {
    const Query q = stream.Get(rec.query);
    bool ok = rec.ok;
    if (ok) {
      auto it = memo->find(q.text);
      if (it == memo->end()) {
        it = memo->emplace(q.text, HashRows(spec.reference(tables, q),
                                            types[q.type].ordered)).first;
      }
      if (it->second != rec.hash) {
        report->Fail(spec.name + ": wrong result for '" + q.text + "'");
        ok = false;
      }
    }
    report->CountOp(ok);
  }
}

double HistogramQuantile(const MetricsSnapshot::HistogramValue& h, double q) {
  if (h.count <= 0) return 0.0;
  const double target = q * static_cast<double>(h.count);
  int64_t prev_cum = 0;
  double prev_bound = 0.0;
  for (std::size_t i = 0; i < h.cumulative.size(); ++i) {
    const double bound = i < h.bounds.size()
                             ? static_cast<double>(h.bounds[i])
                             : prev_bound * 2.0;
    if (static_cast<double>(h.cumulative[i]) >= target) {
      const int64_t in_bucket = h.cumulative[i] - prev_cum;
      const double frac =
          in_bucket > 0
              ? (target - static_cast<double>(prev_cum)) / static_cast<double>(in_bucket)
              : 1.0;
      return prev_bound + (bound - prev_bound) * frac;
    }
    prev_cum = h.cumulative[i];
    prev_bound = bound;
  }
  return prev_bound;
}

MetricsSnapshot::HistogramValue HistogramDelta(const MetricsSnapshot& a,
                                               const MetricsSnapshot& b,
                                               const std::string& name) {
  MetricsSnapshot::HistogramValue out;
  auto ib = b.histograms.find(name);
  if (ib == b.histograms.end()) return out;
  out = ib->second;
  auto ia = a.histograms.find(name);
  if (ia != a.histograms.end()) {
    out.count -= ia->second.count;
    out.sum -= ia->second.sum;
    for (std::size_t i = 0; i < out.cumulative.size() &&
                            i < ia->second.cumulative.size();
         ++i) {
      out.cumulative[i] -= ia->second.cumulative[i];
    }
  }
  return out;
}

Status BuildFixture(const Spec& spec, const Args& args, const Tables& tables,
                    int attempt, Fixture* fx) {
  Config config = BenchConfig();
  // Learned cost factors come from measured stage times, and whichever
  // platform a query lands on first is the only one whose factor keeps
  // being updated: each process locks into one of two GROUP BY plans
  // (result-cache evictions 0 vs ~2,500 per 10 s, ~290 vs ~230 queries/s
  // on sql_interactive). The SQL workloads therefore plan with the static
  // cost model, so that two runs measure the same plans.
  config.SetBool("stats.enabled", false);
  if (spec.plan_cache_capacity > 0) {
    config.SetInt("service.plan_cache_capacity", spec.plan_cache_capacity);
  }
  if (spec.storage) {
    fx->data_dir = Format("%s/%s-%d-%d", args.data_dir.c_str(),
                          spec.name.c_str(), static_cast<int>(::getpid()),
                          attempt);
    std::filesystem::create_directories(fx->data_dir);
    fx->storage = std::make_unique<storage::StorageManager>();
    RHEEM_RETURN_IF_ERROR(fx->storage->RegisterBackend(
        std::make_unique<storage::CsvStore>(fx->data_dir)));
    RHEEM_RETURN_IF_ERROR(fx->storage->Put("csv-files", "orders", tables.fact));
    RHEEM_RETURN_IF_ERROR(fx->storage->Put("csv-files", "product", tables.dim));
    fx->catalog = std::make_unique<sql::StorageCatalog>();
  } else {
    auto catalog = std::make_unique<sql::InMemoryCatalog>();
    RHEEM_RETURN_IF_ERROR(catalog->Register("sales", tables.fact));
    RHEEM_RETURN_IF_ERROR(catalog->Register("region", tables.dim));
    fx->catalog = std::move(catalog);
  }
  fx->ctx = std::make_unique<RheemContext>(config);
  RHEEM_RETURN_IF_ERROR(fx->ctx->RegisterDefaultPlatforms());
  if (spec.storage) RHEEM_RETURN_IF_ERROR(fx->ctx->AttachStorage(fx->storage.get()));
  fx->server = std::make_unique<net::NetServer>(fx->ctx.get(), fx->catalog.get());
  RHEEM_ASSIGN_OR_RETURN(fx->port, fx->server->Start(0));
  for (int c = 0; c < spec.clients; ++c) {
    auto client = std::make_unique<net::Client>();
    RHEEM_RETURN_IF_ERROR(client->Connect("127.0.0.1", fx->port));
    fx->clients.push_back(std::move(client));
  }
  return Status::OK();
}

int RunSql(const Spec& spec, const Args& args, Report* report) {
  Tables tables;
  std::unique_ptr<Fixture> fx;
  std::unique_ptr<QueryStream> stream;
  std::map<std::string, uint64_t> memo;
  Status setup_status;

  // Set-up: data generation, storage write, server start, client connects,
  // and warm-up (every hot text once, plus one query of each type).
  int attempt = 0;
  TimeSetup(
      report, 3, [&]() { fx.reset(); },
      [&]() {
        tables = spec.make_tables(args.seed);
        stream = std::make_unique<QueryStream>(spec.types(), args.seed);
        fx = std::make_unique<Fixture>();
        setup_status = BuildFixture(spec, args, tables, attempt++, fx.get());
        if (!setup_status.ok()) return;
        for (const Query& q : stream->WarmupTexts()) {
          OpRecord rec;
          std::vector<std::string> rows;
          Status st = RunQuery(fx->clients[0].get(), q.text, &rec, &rows);
          if (!st.ok()) {
            setup_status = st;
            return;
          }
        }
      });
  if (!setup_status.ok()) {
    report->Fail("set-up: " + setup_status.ToString());
    return 1;
  }
  report->Stamp("clients", static_cast<double>(spec.clients));
  report->Stamp("fact_rows", static_cast<double>(tables.fact.size()));
  report->Stamp("dim_rows", static_cast<double>(tables.dim.size()));
  report->Stamp("catalog", spec.storage ? "StorageCatalog(CsvStore + hot buffer)"
                                        : "InMemoryCatalog");

  JobServer& js = fx->ctx->job_server();
  // The warm-up runs after the trim: memory handed back to the OS is
  // faulted in again while the warm-up runs, not in the measured window.
  StartPeakRssWindow(report);
  {
    double warm_s = 0;
    SpanLog off;
    std::atomic<uint64_t> warm_ids{0};
    Verify(spec, tables, *stream,
           RunClients(spec, fx.get(), stream.get(), 60.0, spec.warm_queries,
                      &off, &warm_ids, report, &warm_s),
           &memo, report);
  }
  const JobServerStats stats0 = js.stats();
  const std::size_t issued0 = stream->issued();

  // --- end-to-end phase: metrics and tracing off ----------------------------
  SpanLog spans;
  std::atomic<uint64_t> op_ids{0};
  double elapsed = 0;
  const double e2e_seconds = args.trace ? args.seconds * 0.4 : args.seconds;
  const CpuTimes cpu0 = CpuTimes::Now();
  const int64_t window_start = NowNanos();
  std::vector<OpRecord> ops =
      RunClients(spec, fx.get(), stream.get(), e2e_seconds, 0, &spans, &op_ids, report,
                 &elapsed);
  const int64_t window_stop = NowNanos();
  StampCpu(report, cpu0);
  const std::size_t issued1 = stream->issued();

  // Every latency and throughput metric comes from the ops of the quieter
  // half of the window.
  std::vector<int64_t> end_ns;
  std::vector<double> latency_ms;
  Samples all_latency;
  for (const OpRecord& r : ops) {
    if (!r.ok) continue;
    end_ns.push_back(r.end_ns);
    latency_ms.push_back(r.latency_ms);
    all_latency.Add(r.latency_ms);
  }
  double kept_s = 0;
  const std::vector<std::size_t> kept =
      QuietHalf(end_ns, latency_ms, window_start, window_stop, kSlices, &kept_s);
  Samples latency, first_page;
  {
    std::vector<const OpRecord*> ok_ops;
    for (const OpRecord& r : ops) {
      if (r.ok) ok_ops.push_back(&r);
    }
    for (std::size_t i : kept) {
      latency.Add(ok_ops[i]->latency_ms);
      first_page.Add(ok_ops[i]->first_page_ms);
    }
  }
  int64_t repeats = 0;
  for (std::size_t i = issued0; i < issued1; ++i) {
    if (stream->Get(i).repeat) ++repeats;
  }
  {
    // Throughput per fifth of the window: a drifting run shows here.
    int64_t t0 = INT64_MAX, t1 = 0;
    for (const OpRecord& r : ops) {
      t0 = std::min(t0, r.end_ns);
      t1 = std::max(t1, r.end_ns);
    }
    std::vector<int> slices(5, 0);
    for (const OpRecord& r : ops) {
      const double f = t1 > t0 ? static_cast<double>(r.end_ns - t0) / static_cast<double>(t1 - t0) : 0;
      ++slices[std::min<std::size_t>(4, static_cast<std::size_t>(f * 5))];
    }
    std::string line = "ops per fifth of the window:";
    for (int n : slices) line += " " + std::to_string(n);
    report->Line(line);
  }
  report->Set("ops_per_s", static_cast<double>(latency.size()) / kept_s, "1/s");
  report->Set("run.ops_per_s", static_cast<double>(all_latency.size()) / elapsed, "1/s");
  report->Set("run.latency_p50_ms", all_latency.Median(), "ms");
  report->Set("latency_p50_ms", latency.Median(), "ms");
  report->Set("latency_p95_ms", latency.Quantile(0.95), "ms");
  if (spec.name == "sql_interactive") {
    report->Set("latency_p99_ms", latency.Quantile(0.99), "ms");
  }
  report->Set("first_page_p50_ms", first_page.Median(), "ms");
  report->Set("samples", static_cast<double>(latency.size()), "count");
  report->Stamp("repeat_share",
                issued1 > issued0 ? static_cast<double>(repeats) /
                                        static_cast<double>(issued1 - issued0)
                                  : 0.0);
  if (spec.name == "sql_interactive" && latency.size() < 1000) {
    report->Fail(Format("only %zu samples; latency_p99_ms needs 1000",
                        latency.size()));
  }
  {
    // Per query type, for the report.
    std::map<int, Samples> by_type;
    std::map<bool, Samples> by_repeat;
    for (const OpRecord& r : ops) {
      const Query q = stream->Get(r.query);
      by_type[q.type].Add(r.latency_ms);
      by_repeat[q.repeat].Add(r.latency_ms);
    }
    for (auto& [t, s] : by_type) {
      report->Line(Format("  %-10s n=%5zu p50 %8.3f ms p95 %8.3f ms",
                          stream->types()[t].name.c_str(), s.size(), s.Median(),
                          s.Quantile(0.95)));
    }
    for (auto& [rep, s] : by_repeat) {
      report->Line(Format("  %-10s n=%5zu p50 %8.3f ms p95 %8.3f ms",
                          rep ? "repeat" : "fresh", s.size(), s.Median(),
                          s.Quantile(0.95)));
    }
  }
  Verify(spec, tables, *stream, ops, &memo, report);

  // Service layer counters over the end-to-end window.
  auto emit_service = [&](const JobServerStats& a, const JobServerStats& b) {
    const double ph = static_cast<double>(b.cache.lifetime_hits - a.cache.lifetime_hits);
    const double pm =
        static_cast<double>(b.cache.lifetime_misses - a.cache.lifetime_misses);
    const double rh = static_cast<double>(b.result_cache.hits - a.result_cache.hits);
    const double rm =
        static_cast<double>(b.result_cache.misses - a.result_cache.misses);
    report->Set("service.plan_cache_hit_ratio", ph + pm > 0 ? ph / (ph + pm) : 0.0,
                "share");
    report->Set("service.result_cache_hit_ratio",
                rh + rm > 0 ? rh / (rh + rm) : 0.0, "share");
    report->Set("service.result_cache_evictions",
                static_cast<double>(b.result_cache.evictions -
                                    a.result_cache.evictions),
                "count");
    report->Set("service.rejected", static_cast<double>(b.rejected - a.rejected),
                "count");
  };
  emit_service(stats0, js.stats());

  // --- traced phase ------------------------------------------------------------
  if (args.trace) {
    spans.set_enabled(true);
    auto& registry = MetricsRegistry::Global();
    registry.set_enabled(true);
    const MetricsSnapshot snap0 = registry.Snapshot();
    const JobServerStats tstats0 = js.stats();
    const int64_t hb_hits0 = fx->ctx->hot_buffer() ? fx->ctx->hot_buffer()->hits() : 0;
    const int64_t hb_miss0 =
        fx->ctx->hot_buffer() ? fx->ctx->hot_buffer()->misses() : 0;
    double traced_elapsed = 0;
    std::vector<OpRecord> tops = RunClients(spec, fx.get(), stream.get(),
                                            args.seconds * 0.3, 0, &spans, &op_ids,
                                            report, &traced_elapsed);
    const MetricsSnapshot snap1 = registry.Snapshot();
    Verify(spec, tables, *stream, tops, &memo, report);
    emit_service(tstats0, js.stats());

    Samples submit, wait, tlat, tfresh;
    double fetch_total = 0;
    int64_t pages = 0;
    for (const OpRecord& r : tops) {
      if (!r.ok) continue;
      submit.Add(r.submit_ms);
      wait.Add(r.wait_ms);
      tlat.Add(r.latency_ms);
      fetch_total += r.fetch_ms;
      pages += r.pages;
      if (!stream->Get(r.query).repeat) tfresh.Add(r.latency_ms);
    }
    const double nq = std::max<double>(1.0, static_cast<double>(tlat.size()));
    auto delta = [&](const std::string& name) {
      return static_cast<double>(snap1.counter(name) - snap0.counter(name));
    };
    report->Set("net.submit_rtt_ms", submit.Median(), "ms");
    report->Set("net.wait_ms", wait.Median(), "ms");
    report->Set("net.polls_per_query", delta("net.frames.poll") / nq, "count");
    report->Set("net.fetch_ms_per_page",
                pages > 0 ? fetch_total / static_cast<double>(pages) : 0.0, "ms");
    report->Set("net.pages_per_query", static_cast<double>(pages) / nq, "count");
    report->Set("net.bytes_per_query", delta("net.bytes_written") / nq, "B");
    const auto qw = HistogramDelta(snap0, snap1, "service.queue_wait_us");
    report->Set("service.queue_wait_ms", HistogramQuantile(qw, 0.5) * 1e-3, "ms");
    report->Set("service.queue_wait_p95_ms", HistogramQuantile(qw, 0.95) * 1e-3,
                "ms");
    if (fx->ctx->hot_buffer() != nullptr) {
      const double h = static_cast<double>(fx->ctx->hot_buffer()->hits() - hb_hits0);
      const double m =
          static_cast<double>(fx->ctx->hot_buffer()->misses() - hb_miss0);
      report->Set("storage.hot_buffer_hit_ratio", h + m > 0 ? h / (h + m) : 0.0,
                  "share");
    }
    report->Set("trace.overhead_pct",
                latency.Median() > 0
                    ? (tlat.Median() / latency.Median() - 1.0) * 100.0
                    : 0.0,
                "%");

    // Data layer: one copy, batch conversion and fingerprint per source table.
    {
      std::vector<std::shared_ptr<const Dataset>> sources;
      if (fx->ctx->hot_buffer() != nullptr) {
        for (const char* name : {"orders", "product"}) {
          auto d = fx->ctx->hot_buffer()->Load(name);
          if (d.ok()) sources.push_back(*d);
        }
      } else {
        sources.push_back(std::make_shared<const Dataset>(tables.fact));
        sources.push_back(std::make_shared<const Dataset>(tables.dim));
      }
      double copy_ms = 0, batch_ms = 0, fp_ms = 0;
      for (const auto& src : sources) {
        Timer c;
        Dataset copy = *src;
        copy_ms += c.Ms();
        Timer b;
        auto batch = Batch::FromDataset(copy);
        batch_ms += b.Ms();
        Timer f;
        volatile uint64_t fp = PlanFingerprint::OfDataset(copy);
        (void)fp;
        fp_ms += f.Ms();
      }
      report->Set("data.table_copy_ms", copy_ms, "ms");
      report->Set("data.batch_convert_ms", batch_ms, "ms");
      report->Set("data.table_fingerprint_ms", fp_ms, "ms");
    }

    // Replay: a sample of the first-time texts, in-process, layer by layer.
    LayerProbe probe(fx->ctx.get(), &spans);
    probe.BeginWindow();
    const std::size_t issued = stream->issued();
    Timer replay;
    std::size_t replayed = 0;
    int64_t page_bytes =
        fx->ctx->config().GetInt("service.net.page_bytes", 64 * 1024).ValueOr(64 * 1024);
    Samples page_encode_per_page, layer_sum;
    for (std::size_t i = issued0;
         i < issued && (replay.Seconds() < args.seconds * 0.3 || replayed == 0);
         ++i) {
      const Query q = stream->Get(i);
      if (q.repeat) continue;
      ++replayed;
      const uint64_t op = op_ids.fetch_add(1) + 1;
      ScopedSpan op_span(&spans, "op.replay." + stream->types()[q.type].name, op);
      double sql_ms = 0, fp_ms = 0, run_ms = 0, enc_ms = 0, check_ms = 0,
             release_ms = 0;
      bool ok = false;
      {
        ScopedSpan sql_span(&spans, "sql.compile", op, op_span.id());
        auto stmt = sql::Compile(fx->ctx.get(), fx->catalog.get(), q.text);
        sql_ms = sql_span.Finish();
        if (!stmt.ok()) {
          report->Fail("replay compile '" + q.text + "': " + stmt.status().ToString());
          report->CountOp(false);
          continue;
        }
        ScopedSpan fp_span(&spans, "optimizer.fingerprint", op, op_span.id());
        auto fp = PlanFingerprint::Compute(stmt->plan());
        fp_ms = fp_span.Finish();
        (void)fp;
        auto result = probe.Run(stmt->plan(), ExecutionOptions(), op, op_span.id());
        run_ms = probe.last_run_ms();
        ScopedSpan enc_span(&spans, "data.page_encode", op, op_span.id());
        if (result.ok()) {
          // Pages as the server cuts them: whole rows up to page_bytes.
          const auto& recs = result->output.records();
          std::size_t begin = 0;
          while (begin < recs.size() || (begin == 0 && recs.empty())) {
            std::size_t end = begin;
            int64_t bytes = 0;
            while (end < recs.size() &&
                   (end == begin || bytes + Serializer::EncodedSize(recs[end]) <=
                                        page_bytes)) {
              bytes += Serializer::EncodedSize(recs[end]);
              ++end;
            }
            Timer pe;
            std::string encoded = Serializer::EncodeDataset(
                Dataset(std::vector<Record>(recs.begin() + begin, recs.begin() + end)));
            page_encode_per_page.Add(pe.Ms());
            if (recs.empty()) break;
            begin = end;
          }
        }
        enc_ms = enc_span.Finish();
        ScopedSpan check_span(&spans, "bench.check", op, op_span.id());
        ok = result.ok();
        if (!ok) {
          report->Fail("replay execute '" + q.text + "': " +
                       result.status().ToString());
        } else {
          std::vector<std::string> rows;
          for (const Record& r : result->output.records()) rows.push_back(Row(r));
          auto it = memo.find(q.text);
          if (it == memo.end()) {
            it = memo.emplace(q.text,
                              HashRows(spec.reference(tables, q),
                                       stream->types()[q.type].ordered)).first;
          }
          if (HashRows(std::move(rows), stream->types()[q.type].ordered) !=
              it->second) {
            report->Fail("replay: wrong result for '" + q.text + "'");
            ok = false;
          }
        }
        check_ms = check_span.Finish();
        // Freeing the statement frees its plan and the catalog's copies of
        // the source tables: part of every query's cost, as the server's
        // job teardown is.
        ScopedSpan release_span(&spans, "sql.release", op, op_span.id());
        { auto released = std::move(stmt); }
        release_ms = release_span.Finish();
      }  // the result is freed here, inside the op's wall
      const double wall = op_span.Finish();
      probe.AddLayer("sql.compile_ms", sql_ms);
      probe.AddLayer("optimizer.fingerprint_ms", fp_ms);
      probe.AddLayer("data.page_encode_op_ms", enc_ms);
      probe.AddLayer("bench.check_ms", check_ms);
      probe.AddLayer("sql.release_ms", release_ms);
      probe.AddOpWall(wall,
                      sql_ms + fp_ms + run_ms + enc_ms + check_ms + release_ms);
      layer_sum.Add(sql_ms + fp_ms + run_ms + enc_ms + release_ms);
      report->CountOp(ok);
    }
    probe.EndWindow();
    registry.set_enabled(false);
    probe.Emit(report);
    report->Set("data.page_encode_ms", page_encode_per_page.Median(), "ms");
    report->Set("replay.ops", static_cast<double>(replayed), "count");
    const double residual = tfresh.Median() - layer_sum.Median();
    report->Set("net_service.residual_ms", residual, "ms");
    report->Line(Format(
        "residual: first-time texts over TCP p50 %.3f ms - in-process layers "
        "p50 %.3f ms = net+service %.3f ms (not attributed to any layer)",
        tfresh.Median(), layer_sum.Median(), residual));
    CheckAgainstWall(report, "first-time texts over TCP", layer_sum.Median(),
                     tfresh.Median(), /*residual_expected=*/true);

    const std::string path = args.out_dir + "/spans-" + spec.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (spans.WriteJson(path)) {
      report->Line(Format("spans: %zu written to %s", spans.size(), path.c_str()));
    } else {
      report->Line("note: could not write " + path);
    }
  }
  {
    // Every reconnect leaves an exited session thread that NetServer joins
    // only at shutdown; its stack stays resident until then and counts in
    // peak_rss_mib. Stamped so a change in ops_per_s, and with it in
    // reconnects, is not mistaken for a change in memory.
    int stacks = 0;
    const double stack_mib = ThreadStackRssMib(&stacks);
    const int64_t retained = fx->server->stats().sessions_closed;
    report->Stamp("net_sessions_retained", static_cast<double>(retained));
    report->Stamp("thread_stacks", static_cast<double>(stacks));
    report->Stamp("thread_stack_rss_mib", stack_mib);
    report->Line(Format(
        "memory: %lld closed sessions retained, %d thread stacks hold %.1f MiB "
        "resident (%.1f KiB each)",
        static_cast<long long>(retained), stacks, stack_mib,
        stacks > 0 ? stack_mib * 1024.0 / stacks : 0.0));
  }
  report->Set("peak_rss_mib", PeakRssMib(), "MiB");
  fx.reset();
  return 0;
}

}  // namespace

int RunSqlInteractive(const Args& args, Report* report) {
  Spec spec;
  spec.name = "sql_interactive";
  spec.clients = 4;
  spec.queries_per_connection = 8;
  spec.warm_queries = 200;
  spec.make_tables = MakeInteractiveTables;
  spec.types = InteractiveTypes;
  spec.reference = ReferenceInteractive;
  return RunSql(spec, args, report);
}

int RunSqlAnalytic(const Args& args, Report* report) {
  Spec spec;
  spec.name = "sql_analytic";
  spec.clients = 2;
  spec.queries_per_connection = 1;
  // Every analytic text is new, so cached plans are never reused; each one
  // holds a copy of the 100k-row table, and 16 of them bound the memory.
  spec.plan_cache_capacity = 16;
  spec.warm_queries = 20;
  spec.storage = true;
  spec.make_tables = MakeAnalyticTables;
  spec.types = AnalyticTypes;
  spec.reference = ReferenceAnalytic;
  return RunSql(spec, args, report);
}

}  // namespace perfbench
