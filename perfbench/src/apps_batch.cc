// Workload `apps_batch`: one caller thread runs a round robin of the
// paper's applications in-process — SVM on the optimizer's platform, the
// same SVM forced onto sparksim (Figure 2's two sides), BigDansing's φ1
// operator pipeline and φ2 with IEJoin (Figure 3). One op is one round of
// the four jobs. Every job's output is checked against references computed
// here with plain loops.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <unordered_map>

#include "apps/cleaning/data_gen.h"
#include "apps/cleaning/operators.h"
#include "apps/cleaning/plan_builder.h"
#include "apps/ml/dataset_gen.h"
#include "apps/ml/svm.h"
#include "common/metrics.h"
#include "core/api/data_quanta.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

using namespace rheem;  // NOLINT

namespace {

constexpr int64_t kSvmRows = 20000;
constexpr int kSvmDims = 10;
constexpr int kSvmIterations = 20;
constexpr double kSvmLearningRate = 0.1;
constexpr double kSvmRegularization = 0.001;
constexpr double kSvmAccuracyFloor = 0.75;
constexpr int64_t kFdRows = 32000;
constexpr int64_t kIeRows = 16000;
// Few planted tax errors keep φ2's output near 10^5 pairs, so the job
// stays kernel-bound rather than output-bound.
constexpr double kIeNoiseRate = 0.001;

// The tax tables are generated once with this seed and then shuffled with
// the run's seed: how many violations the planted errors create varies a
// lot between generator seeds (IEJoin output 103k vs 130k pairs for two
// seeds), while a row shuffle changes every tid and keeps the work fixed.
constexpr uint64_t kTaxTableSeed = 42;

// Slices of the end-to-end window ranked by QuietHalf; a 30 s window gives
// slices of about eight rounds.
constexpr int kSlices = 10;

using Pairs = std::vector<std::pair<int64_t, int64_t>>;

/// The generated table with its rows in an order drawn from `seed`.
Dataset Shuffled(Dataset table, uint64_t seed) {
  std::vector<Record>& rows = table.mutable_records();
  uint64_t s = seed * 0x9E3779B97F4A7C15ull + 1;
  for (std::size_t i = rows.size(); i > 1; --i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(rows[i - 1], rows[(s >> 33) % i]);
  }
  return table;
}

/// Full-batch subgradient descent on the L2-regularized hinge loss, as plain
/// loops: the reference the engine's SVM must match up to summation order.
std::vector<double> ReferenceSvm(const Dataset& data) {
  const std::size_t dims = data.at(0)[1].double_list_unchecked().size();
  std::vector<double> w(dims, 0.0);
  double b = 0.0;
  const double n = static_cast<double>(data.size());
  for (int it = 0; it < kSvmIterations; ++it) {
    std::vector<double> gw(dims, 0.0);
    double gb = 0.0;
    for (const Record& r : data.records()) {
      const double y = r[0].ToDoubleOr(0.0);
      const auto& x = r[1].double_list_unchecked();
      double margin = b;
      for (std::size_t i = 0; i < dims; ++i) margin += w[i] * x[i];
      if (margin * y < 1.0) {
        for (std::size_t i = 0; i < dims; ++i) gw[i] -= y * x[i];
        gb -= y;
      }
    }
    for (std::size_t i = 0; i < dims; ++i) {
      w[i] -= kSvmLearningRate * (kSvmRegularization * w[i] + gw[i] / n);
    }
    b -= kSvmLearningRate * gb / n;
  }
  w.push_back(b);
  return w;
}

double Accuracy(const std::vector<double>& wb, const Dataset& data) {
  int64_t hit = 0;
  const std::size_t dims = wb.size() - 1;
  for (const Record& r : data.records()) {
    const auto& x = r[1].double_list_unchecked();
    double s = wb[dims];
    for (std::size_t i = 0; i < dims; ++i) s += wb[i] * x[i];
    if ((s >= 0 ? 1.0 : -1.0) == (r[0].ToDoubleOr(0.0) >= 0 ? 1.0 : -1.0)) {
      ++hit;
    }
  }
  return static_cast<double>(hit) / static_cast<double>(data.size());
}

/// φ1 (zip -> city): every unordered pair sharing a zip with different
/// cities, as (lower tid, higher tid).
Pairs ReferenceFd(const Dataset& t) {
  std::unordered_map<int64_t, std::vector<int64_t>> by_zip;
  for (std::size_t i = 0; i < t.size(); ++i) {
    by_zip[t.at(i)[1].ToInt64Or(-1)].push_back(static_cast<int64_t>(i));
  }
  Pairs out;
  for (const auto& [zip, rows] : by_zip) {
    for (std::size_t a = 0; a < rows.size(); ++a) {
      for (std::size_t b = a + 1; b < rows.size(); ++b) {
        if (t.at(rows[a])[2] != t.at(rows[b])[2]) {
          out.emplace_back(rows[a], rows[b]);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// φ2: every ordered pair with salary1 > salary2 and tax1 < tax2.
Pairs ReferenceIneq(const Dataset& t) {
  std::vector<double> salary(t.size()), tax(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    salary[i] = t.at(i)[3].ToDoubleOr(0.0);
    tax[i] = t.at(i)[4].ToDoubleOr(0.0);
  }
  Pairs out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    for (std::size_t j = 0; j < t.size(); ++j) {
      if (salary[i] > salary[j] && tax[i] < tax[j]) {
        out.emplace_back(static_cast<int64_t>(i), static_cast<int64_t>(j));
      }
    }
  }
  return out;  // already sorted by (i, j)
}

Pairs ToPairs(const std::vector<cleaning::Violation>& vs) {
  Pairs out;
  out.reserve(vs.size());
  for (const auto& v : vs) out.emplace_back(v.tid1, v.tid2);
  std::sort(out.begin(), out.end());
  return out;
}

// --- the same jobs as logical plans, for the traced run ---------------------
// The public app calls compile and execute internally; the traced run needs
// the optimizer and the executor as two separate calls, so it rebuilds each
// job's plan through the fluent API exactly as the app does. Equality of the
// outputs with the public calls' outputs is checked on every traced op.

void BuildSvmPlan(RheemJob* job, const Dataset& data) {
  const int dims = kSvmDims;
  const double n = static_cast<double>(data.size());
  auto process = [](const Record& point, const Dataset& state) {
    const auto& w = state.at(0)[0].double_list_unchecked();
    const double b = state.at(0)[1].ToDoubleOr(0.0);
    const double y = point[0].ToDoubleOr(0.0);
    const auto& x = point[1].double_list_unchecked();
    double margin = b;
    for (std::size_t i = 0; i < w.size() && i < x.size(); ++i) {
      margin += w[i] * x[i];
    }
    margin *= y;
    std::vector<double> grad_w(w.size(), 0.0);
    double grad_b = 0.0;
    if (margin < 1.0) {
      for (std::size_t i = 0; i < grad_w.size() && i < x.size(); ++i) {
        grad_w[i] = -y * x[i];
      }
      grad_b = -y;
    }
    return Record({Value(std::move(grad_w)), Value(grad_b)});
  };
  auto combine = [](const Record& a, const Record& b) {
    std::vector<double> gw = a[0].double_list_unchecked();
    const auto& gw2 = b[0].double_list_unchecked();
    for (std::size_t i = 0; i < gw.size() && i < gw2.size(); ++i) {
      gw[i] += gw2[i];
    }
    return Record(
        {Value(std::move(gw)), Value(a[1].ToDoubleOr(0) + b[1].ToDoubleOr(0))});
  };
  auto update = [n](const Record& state, const Dataset& agg) {
    std::vector<double> w = state[0].double_list_unchecked();
    double b = state[1].ToDoubleOr(0.0);
    if (!agg.empty()) {
      const auto& gw = agg.at(0)[0].double_list_unchecked();
      const double gb = agg.at(0)[1].ToDoubleOr(0.0);
      for (std::size_t i = 0; i < w.size() && i < gw.size(); ++i) {
        w[i] -= kSvmLearningRate * (kSvmRegularization * w[i] + gw[i] / n);
      }
      b -= kSvmLearningRate * gb / n;
    }
    return Record({Value(std::move(w)), Value(b)});
  };
  const double process_cost = 2.0 + 0.2 * dims;
  DataQuanta state = job->LoadCollection(Dataset(std::vector<Record>{Record(
      {Value(std::vector<double>(static_cast<std::size_t>(dims), 0.0)),
       Value(0.0)})}));
  DataQuanta points = job->LoadCollection(data);
  DataQuanta trained = state.Repeat(
      kSvmIterations, points, [&](DataQuanta st, DataQuanta dt) {
        DataQuanta contribs =
            dt.BroadcastMap(st, process, UdfMeta::Expensive(process_cost));
        DataQuanta aggregate = contribs.GlobalReduce(combine);
        return st.BroadcastMap(aggregate, update, UdfMeta::Expensive(2.0));
      });
  (void)trained.Seal();
}

DataQuanta Scoped(RheemJob* job, const Dataset& table,
                  const cleaning::Rule& rule) {
  return job->LoadCollection(table).ZipWithId().FlatMap(
      [&rule](const Record& with_tid) -> std::vector<Record> {
        auto scoped = cleaning::ScopeOperator::ScopeRecord(rule, with_tid);
        if (!scoped.ok()) return {};
        std::vector<Record> out;
        out.push_back(std::move(scoped).ValueOrDie());
        return out;
      },
      UdfMeta{1.0, 1.0});
}

void BuildFdPlan(RheemJob* job, const Dataset& table,
                 const cleaning::FdRule& rule) {
  KeyUdf block = rule.BlockKey();
  auto block_fn = block.fn;
  (void)Scoped(job, table, rule)
      .GroupByKey(
          [block_fn](const Record& r) { return block_fn(r); },
          [&rule](const Value&, const std::vector<Record>& members) {
            std::vector<Record> out;
            for (const auto& [i, j] : cleaning::IterateOperator::CandidatePairs(
                     members.size(), rule.symmetric())) {
              cleaning::DetectOperator::DetectPair(rule, members[i],
                                                   members[j], &out);
            }
            return out;
          },
          block.meta.selectivity)
      .Seal();
}

void BuildIneqPlan(RheemJob* job, const Dataset& table,
                   const cleaning::IneqRule& rule) {
  const std::size_t w = 1 + rule.ScopeColumns().size();
  DataQuanta scoped = Scoped(job, table, rule);
  (void)scoped.IEJoin(scoped, rule.ScopedIEJoinSpec())
      .Map([&rule, w](const Record& pair) {
        cleaning::Violation v;
        v.rule_id = rule.id();
        v.tid1 = pair[0].ToInt64Or(-1);
        v.tid2 = pair[w].ToInt64Or(-1);
        return cleaning::ViolationToRecord(v);
      })
      .Seal();
}

std::vector<double> WeightsOf(const ml::SvmModel& m) {
  std::vector<double> out = m.weights;
  out.push_back(m.bias);
  return out;
}

std::vector<double> WeightsOf(const Dataset& state) {
  std::vector<double> out = state.at(0)[0].double_list_unchecked();
  out.push_back(state.at(0)[1].ToDoubleOr(0.0));
  return out;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool Close(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::fabs(got[i] - want[i]) > 1e-9 * (1.0 + std::fabs(want[i]))) {
      return false;
    }
  }
  return true;
}

uint64_t HashWeights(const std::vector<double>& w) {
  uint64_t h = 1469598103934665603ull;
  for (double d : w) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    h = (h ^ bits) * 1099511628211ull;
  }
  return h;
}

struct Fixture {
  std::unique_ptr<RheemContext> ctx;
  Dataset svm_data, fd_table, ie_table;
  cleaning::FdRule fd_rule = cleaning::ZipCityRule();
  cleaning::IneqRule ie_rule = cleaning::SalaryTaxRule();
};

/// One application job: its public call, its traced decomposition, its
/// check, and its latency samples.
struct AppJob {
  std::string name;
  /// The public call; `call_ms` times the call alone, the caller's
  /// conversion of its output for the check comes after.
  std::function<Status(std::vector<double>*, Pairs*, double* call_ms)> run;
  std::function<void(RheemJob*)> build;                     // same job as a plan
  std::string force_platform;
  bool is_svm = false;
  std::vector<double> first_weights;  // bit-identity reference
  std::vector<double> ms;    // public call, one per end-to-end round
  Samples interleaved_ms;    // public call, between the traced rounds
  Samples traced_layers_ms;  // plan build + compile + execute + release
};

}  // namespace

int RunAppsBatch(const Args& args, Report* report) {
  Fixture fx;
  std::vector<AppJob> jobs;

  auto make_jobs = [&]() {
    jobs.clear();
    auto svm = [&fx](const std::string& platform) {
      return [&fx, platform](std::vector<double>* w, Pairs*,
                             double* call_ms) -> Status {
        ml::SvmOptions o;
        o.iterations = kSvmIterations;
        o.learning_rate = kSvmLearningRate;
        o.regularization = kSvmRegularization;
        o.force_platform = platform;
        Timer t;
        auto r = ml::TrainSvm(fx.ctx.get(), fx.svm_data, o);
        *call_ms = t.Ms();
        RHEEM_RETURN_IF_ERROR(r.status());
        *w = WeightsOf(r->model);
        return Status::OK();
      };
    };
    auto detect = [&fx](bool fd) {
      return [&fx, fd](std::vector<double>*, Pairs* out,
                       double* call_ms) -> Status {
        cleaning::DetectOptions o;
        o.strategy = fd ? cleaning::DetectStrategy::kOperatorPipeline
                        : cleaning::DetectStrategy::kOperatorPipelineIEJoin;
        Timer t;
        auto r = fd ? cleaning::DetectViolations(fx.ctx.get(), fx.fd_table,
                                                 fx.fd_rule, o)
                    : cleaning::DetectViolations(fx.ctx.get(), fx.ie_table,
                                                 fx.ie_rule, o);
        *call_ms = t.Ms();
        RHEEM_RETURN_IF_ERROR(r.status());
        *out = ToPairs(r->violations);
        return Status::OK();
      };
    };
    jobs.push_back({"svm", svm(""),
                    [&fx](RheemJob* j) { BuildSvmPlan(j, fx.svm_data); }, "",
                    true, {}, {}, {}, {}});
    jobs.push_back({"svm_spark", svm("sparksim"),
                    [&fx](RheemJob* j) { BuildSvmPlan(j, fx.svm_data); },
                    "sparksim", true, {}, {}, {}, {}});
    jobs.push_back({"detect_fd", detect(true),
                    [&fx](RheemJob* j) { BuildFdPlan(j, fx.fd_table, fx.fd_rule); },
                    "", false, {}, {}, {}, {}});
    jobs.push_back({"detect_iejoin", detect(false),
                    [&fx](RheemJob* j) {
                      BuildIneqPlan(j, fx.ie_table, fx.ie_rule);
                    },
                    "", false, {}, {}, {}, {}});
  };

  // Set-up: data generation, context and platforms, and one warm-up round
  // that also fills the statistics catalog.
  bool setup_ok = true;
  TimeSetup(
      report, 3, [&]() { fx = Fixture(); },
      [&]() {
        Config config = BenchConfig();
        fx.ctx = std::make_unique<RheemContext>(config);
        if (!fx.ctx->RegisterDefaultPlatforms().ok()) setup_ok = false;
        fx.svm_data = ml::GenerateClassification(kSvmRows, kSvmDims, args.seed);
        cleaning::TaxTableOptions fd;
        fd.rows = kFdRows;
        fd.seed = kTaxTableSeed;
        fx.fd_table = Shuffled(cleaning::GenerateTaxTable(fd), args.seed);
        cleaning::TaxTableOptions ie;
        ie.rows = kIeRows;
        ie.seed = kTaxTableSeed + 1;
        ie.ineq_noise_rate = kIeNoiseRate;
        fx.ie_table = Shuffled(cleaning::GenerateTaxTable(ie), args.seed + 1);
        make_jobs();
        for (AppJob& job : jobs) {
          std::vector<double> w;
          Pairs p;
          double ms = 0;
          Status st = job.run(&w, &p, &ms);
          if (!st.ok()) {
            report->Fail("warm-up " + job.name + ": " + st.ToString());
            setup_ok = false;
          }
          job.first_weights = w;
        }
      });
  if (!setup_ok) return 1;

  // References, from the generated inputs only.
  const std::vector<double> svm_ref = ReferenceSvm(fx.svm_data);
  const Pairs fd_ref = ReferenceFd(fx.fd_table);
  const Pairs ie_ref = ReferenceIneq(fx.ie_table);
  const double accuracy = Accuracy(svm_ref, fx.svm_data);
  if (accuracy < kSvmAccuracyFloor) {
    report->Fail(Format("svm reference accuracy %.4f below floor %.2f",
                        accuracy, kSvmAccuracyFloor));
  }
  report->Stamp("svm_rows", static_cast<double>(kSvmRows));
  report->Stamp("svm_dims", static_cast<double>(kSvmDims));
  report->Stamp("svm_iterations", static_cast<double>(kSvmIterations));
  report->Stamp("detect_fd_rows", static_cast<double>(kFdRows));
  report->Stamp("detect_iejoin_rows", static_cast<double>(kIeRows));
  report->Stamp("fd_violations", static_cast<double>(fd_ref.size()));
  report->Stamp("iejoin_violations", static_cast<double>(ie_ref.size()));
  report->Stamp("svm_accuracy", accuracy);
  report->Stamp("clients", 1.0);

  // Checks one job's output; returns false on a wrong answer.
  auto check = [&](AppJob& job, const std::vector<double>& w, const Pairs& p) {
    if (job.is_svm) {
      if (!Close(w, svm_ref)) {
        report->Fail(job.name + ": weights differ from the plain-loop reference");
        return false;
      }
      if (Accuracy(w, fx.svm_data) < kSvmAccuracyFloor) {
        report->Fail(job.name + ": accuracy below floor");
        return false;
      }
      if (!BitIdentical(w, job.first_weights)) {
        report->Fail(job.name + ": weights not bit-identical across runs");
        return false;
      }
      return true;
    }
    const Pairs& want = job.name == "detect_fd" ? fd_ref : ie_ref;
    if (p != want) {
      report->Fail(Format("%s: %zu violations, reference has %zu",
                          job.name.c_str(), p.size(), want.size()));
      return false;
    }
    return true;
  };
  for (const AppJob& job : jobs) {
    if (!job.is_svm) continue;
    report->Stamp(job.name + "_weights_hash",
                  Format("%016llx", static_cast<unsigned long long>(
                                        HashWeights(job.first_weights))));
  }

  StartPeakRssWindow(report);

  // One round of the public calls, each output checked; returns the
  // round's summed call time.
  auto public_round = [&](bool interleaved) {
    double round_ms = 0.0;
    for (AppJob& job : jobs) {
      std::vector<double> w;
      Pairs p;
      double ms = 0;
      Status st = job.run(&w, &p, &ms);
      bool ok = st.ok();
      if (!ok) report->Fail(job.name + ": " + st.ToString());
      ok = ok && check(job, w, p);
      report->CountOp(ok);
      if (interleaved) {
        job.interleaved_ms.Add(ms);
      } else {
        job.ms.push_back(ms);
      }
      round_ms += ms;
    }
    return round_ms;
  };

  // --- end-to-end phase: public calls, metrics and tracing off ------------
  const double e2e_seconds = args.trace ? args.seconds * 0.4 : args.seconds;
  std::vector<double> round_ms;
  std::vector<int64_t> round_end_ns;
  const CpuTimes cpu0 = CpuTimes::Now();
  const int64_t window_start = NowNanos();
  Timer window;
  while (window.Seconds() < e2e_seconds || round_ms.empty()) {
    round_ms.push_back(public_round(false));
    round_end_ns.push_back(NowNanos());
  }
  const double elapsed = window.Seconds();
  StampCpu(report, cpu0);

  // Every metric comes from the rounds of the quieter half of the window.
  double kept_s = 0;
  const std::vector<std::size_t> kept =
      QuietHalf(round_end_ns, round_ms, window_start, NowNanos(), kSlices, &kept_s);
  Samples rounds, all_rounds;
  for (std::size_t i : kept) rounds.Add(round_ms[i]);
  for (double ms : round_ms) all_rounds.Add(ms);
  report->Set("ops_per_s", static_cast<double>(rounds.size()) / kept_s, "1/s");
  report->Set("latency_p50_ms", rounds.Median(), "ms");
  report->Set("latency_p95_ms", rounds.Quantile(0.95), "ms");
  report->Set("samples", static_cast<double>(rounds.size()), "count");
  report->Set("run.ops_per_s", static_cast<double>(round_ms.size()) / elapsed, "1/s");
  report->Set("run.latency_p50_ms", all_rounds.Median(), "ms");
  for (const AppJob& job : jobs) {
    Samples ms;
    for (std::size_t i : kept) ms.Add(job.ms[i]);
    report->Set(job.name + "_ms", ms.Median(), "ms");
  }

  // --- traced phase: the same jobs as Compile + Execute --------------------
  if (args.trace) {
    SpanLog spans;
    LayerProbe probe(fx.ctx.get(), &spans);
    Samples traced_rounds, untraced_rounds;
    Timer traced;
    uint64_t op = 0;
    while (traced.Seconds() < args.seconds * 0.6 || traced_rounds.empty()) {
      // An untraced round of the public calls before each traced round, so
      // that both walls of the reconciliation see the same host conditions.
      untraced_rounds.Add(public_round(true));
      spans.set_enabled(true);
      MetricsRegistry::Global().set_enabled(true);
      probe.BeginWindow();
      double round_ms = 0.0;
      for (AppJob& job : jobs) {
        ++op;
        ScopedSpan op_span(&spans, "op." + job.name, op);
        double build_ms = 0, run_ms = 0, decode_ms = 0, check_ms = 0;
        {
          ScopedSpan build_span(&spans, "api.build_plan", op, op_span.id());
          RheemJob rjob(fx.ctx.get());
          job.build(&rjob);
          build_ms = build_span.Finish();
          ExecutionOptions options;
          options.force_platform = job.force_platform;
          auto result =
              probe.Run(rjob.logical_plan(), options, op, op_span.id());
          run_ms = probe.last_run_ms();
          // The app's own output step, as DetectViolations does it: decode
          // every violation record and sort.
          ScopedSpan decode_span(&spans, "app.decode_output", op, op_span.id());
          std::vector<cleaning::Violation> violations;
          bool ok = result.ok();
          if (ok && !job.is_svm) {
            violations.reserve(result->output.size());
            for (const Record& r : result->output.records()) {
              auto v = cleaning::ViolationFromRecord(r);
              ok = ok && v.ok();
              if (v.ok()) violations.push_back(std::move(v).ValueOrDie());
            }
            std::sort(violations.begin(), violations.end());
          }
          decode_ms = decode_span.Finish();
          ScopedSpan check_span(&spans, "bench.check", op, op_span.id());
          if (!result.ok()) {
            report->Fail(job.name + " (traced): " + result.status().ToString());
          } else if (!ok) {
            report->Fail(job.name + " (traced): undecodable violation record");
          } else if (job.is_svm) {
            ok = check(job, WeightsOf(result->output), {});
          } else {
            ok = check(job, {}, ToPairs(violations));
          }
          report->CountOp(ok);
          check_ms = check_span.Finish();
        }  // the job's plan and output are freed here, inside the op's wall
        const double wall = op_span.Finish();
        probe.AddLayer("api.build_plan_ms", build_ms);
        probe.AddLayer("app.decode_output_ms", decode_ms);
        probe.AddLayer("bench.check_ms", check_ms);
        probe.AddOpWall(wall, build_ms + run_ms + decode_ms + check_ms);
        job.traced_layers_ms.Add(build_ms + run_ms + decode_ms);
        round_ms += build_ms + run_ms + decode_ms;
      }
      probe.EndWindow();
      MetricsRegistry::Global().set_enabled(false);
      spans.set_enabled(false);
      traced_rounds.Add(round_ms);
    }
    probe.Emit(report);
    // The op is a round of the four jobs, so the round is what must
    // reconcile; per job the two paths are printed for the reader.
    for (const AppJob& job : jobs) {
      report->Line(Format(
          "  %-14s public call p50 %8.3f ms, traced layers p50 %8.3f ms",
          job.name.c_str(), job.interleaved_ms.Median(),
          job.traced_layers_ms.Median()));
    }
    CheckAgainstWall(report, "round of public calls", traced_rounds.Median(),
                     untraced_rounds.Median(), /*residual_expected=*/false);
    const double untraced = untraced_rounds.Median();
    report->Set("trace.overhead_pct",
                untraced > 0 ? (traced_rounds.Median() / untraced - 1.0) * 100.0
                             : 0.0,
                "%");
    const std::string path = args.out_dir + "/spans-apps_batch-seed" +
                             std::to_string(args.seed) + ".json";
    if (!spans.WriteJson(path)) {
      report->Line("note: could not write " + path);
    } else {
      report->Line(Format("spans: %zu written to %s", spans.size(),
                          path.c_str()));
    }
  }
  report->Set("peak_rss_mib", PeakRssMib(), "MiB");
  return 0;
}

}  // namespace perfbench
