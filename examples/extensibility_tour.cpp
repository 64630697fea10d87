// Tour of the paper's §8 research-agenda features as implemented here:
//  1. a platform added from a declarative text spec (challenge 1),
//  2. the SQL frontend run on the relational platform (§3.2),
//  3. progressive re-optimization driven by execution monitoring (§4.2),
//  4. cost-model calibration learned from observed runs (challenge 2).

#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "core/api/data_quanta.h"
#include "core/mapping/declarative.h"
#include "core/optimizer/stats_catalog.h"
#include "core/sql/catalog.h"
#include "core/sql/sql.h"

using namespace rheem;  // example code; library code never does this

int main() {
  // Re-plan the remaining work when an operator's observed cardinality is
  // off its estimate by more than 3x, at most twice per job.
  Config config;
  config.SetDouble("executor.reoptimize_threshold", 3.0);
  config.SetInt("executor.max_reoptimizations", 2);
  RheemContext ctx(config);
  if (auto st = ctx.RegisterDefaultPlatforms(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  // --- 1. declare a platform in text, no optimizer changes -----------------
  const char* spec = R"(
platform turbo
turbo maps CollectionSource to TurboScan
turbo maps Filter to TurboFilter weight 0.5 context "vectorized predicates"
turbo maps ReduceByKey to TurboAggregate weight 0.4
turbo maps Collect to TurboFetch
turbo cost per_quantum_us 0.005
turbo cost parallelism 4
turbo cost stage_overhead_us 100
)";
  if (auto st = RegisterDeclaredPlatforms(spec, &ctx.platforms()); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  Rng rng(7);
  std::vector<Record> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back(Record({Value(rng.NextInt(0, 9)), Value(rng.NextInt(0, 99))}));
  }
  RheemJob job(&ctx);
  auto agg = job.LoadCollection(Dataset(rows))
                 .Filter([](const Record& r) { return r[1].ToInt64Or(0) > 10; },
                         UdfMeta::Selective(0.9))
                 .ReduceByKey([](const Record& r) { return r[0]; },
                              [](const Record& a, const Record& b) {
                                return Record({a[0], Value(a[1].ToInt64Or(0) +
                                                           b[1].ToInt64Or(0))});
                              });
  std::printf("--- plan with the declared 'turbo' platform in the mix ---\n%s\n",
              agg.Explain().ValueOr("?").c_str());

  // --- 2. the SQL frontend on relsim -----------------------------------------
  std::vector<Record> readings;
  for (int i = 0; i < 200; ++i) {
    readings.push_back(
        Record({Value(i % 5), Value(150.0 + rng.NextGaussian() * 30)}));
  }
  sql::InMemoryCatalog catalog;
  (void)catalog.Register("readings", Dataset(std::move(readings)),
                         Schema::Of({Field{"well", ValueType::kInt64},
                                     Field{"pressure", ValueType::kDouble}}));
  // Filter + TopK: both inside relsim's relational operator surface (a
  // computed projection or GROUP BY would compile to a Map, which it lacks).
  const char* query =
      "SELECT * FROM readings WHERE pressure > 180 "
      "ORDER BY pressure DESC LIMIT 3";
  std::printf("--- SQL on relsim: %s ---\n", query);
  auto stmt = ctx.Sql(query, catalog);
  if (!stmt.ok()) {
    std::fprintf(stderr, "%s\n", stmt.status().ToString().c_str());
    return 1;
  }
  ExecutionOptions on_relsim;
  on_relsim.force_platform = "relsim";
  auto table = stmt->Collect(on_relsim);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", table->ToString().c_str());

  // --- 3. progressive re-optimization ----------------------------------------
  std::vector<Record> big;
  for (int i = 0; i < 40000; ++i) big.push_back(Record({Value(i)}));
  RheemJob reopt_job(&ctx);
  auto mapped =
      reopt_job.LoadCollection(Dataset(std::move(big)))
          .OnPlatform("relsim")
          // The hint claims 0.1% survive; everything does (wrong by 1000x).
          .Filter([](const Record&) { return true; }, UdfMeta::Selective(0.001))
          .OnPlatform("relsim")
          .Map(
              [](const Record& r) {
                double x = r[0].ToDoubleOr(0);
                for (int k = 0; k < 300; ++k) x = x * 1.000001 + 0.5;
                return Record({Value(x)});
              },
              UdfMeta::Expensive(300.0));
  auto adapted = mapped.CollectWithMetrics();
  if (!adapted.ok()) {
    std::fprintf(stderr, "%s\n", adapted.status().ToString().c_str());
    return 1;
  }
  std::printf("--- progressive re-optimization ---\n");
  for (const std::string& d : adapted->decisions) {
    std::printf("  %s\n", d.c_str());
  }
  std::printf("  %lld re-optimization(s), %zu records out\n\n",
              static_cast<long long>(adapted->metrics.reoptimizations),
              adapted->output.size());

  // --- 4. cost calibration ---------------------------------------------------
  // Every executed stage folded its measured/modelled cost ratio into the
  // context's statistics catalog; the enumerator prices later jobs with it.
  const StatisticsCatalog* stats = ctx.stats_catalog();
  if (stats == nullptr) {
    std::fprintf(stderr, "statistics catalog disabled (stats.enabled)\n");
    return 1;
  }
  std::printf("--- learned cost factors (%zu entries) ---\n",
              stats->cost_entries());
  const std::pair<const char*, const char*> observed[] = {
      {"Filter", "relsim"}, {"Map", "javasim"}, {"Map", "sparksim"}};
  for (const auto& [kind, platform] : observed) {
    std::printf("  %-6s on %-8s factor=%.3f (1.000 = model exact)\n", kind,
                platform, stats->CostFactor(kind, platform));
  }
  return 0;
}
