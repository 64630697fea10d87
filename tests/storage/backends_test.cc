#include <filesystem>
#include <set>

#include <gtest/gtest.h>

#include "core/api/context.h"
#include "core/sql/sql.h"
#include "storage/csv_store.h"
#include "storage/kv_store.h"
#include "storage/mem_column_store.h"
#include "storage/storage_plan.h"

namespace rheem {
namespace storage {
namespace {

Dataset People() {
  std::vector<Record> rows;
  rows.push_back(Record({Value(1), Value("ada"), Value(3.5)}));
  rows.push_back(Record({Value(2), Value("bob"), Value(2.0)}));
  rows.push_back(Record({Value(3), Value("cyn"), Value(4.25)}));
  return Dataset(std::move(rows));
}

/// Shapes a columnar Batch cannot hold: a double_list cell and a column
/// mixing int64 and double cells.
Dataset Irregular() {
  std::vector<Record> rows;
  rows.push_back(Record({Value(1), Value(7), Value(std::vector<double>{0.5})}));
  rows.push_back(
      Record({Value(2), Value(2.5), Value(std::vector<double>{1.0, 2.0})}));
  return Dataset(std::move(rows));
}

std::multiset<std::string> Bag(const Dataset& data) {
  std::multiset<std::string> bag;
  for (const Record& r : data.records()) bag.insert(r.ToString());
  return bag;
}

/// Shared backend contract exercised for every implementation.
class BackendContractTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    tmp_ = testing::TempDir() + "/rheem_store_" + GetParam() + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    if (GetParam() == "mem-column") {
      backend_ = std::make_unique<MemColumnStore>();
    } else if (GetParam() == "csv-files") {
      backend_ = std::make_unique<CsvStore>(tmp_);
    } else {
      backend_ = std::make_unique<KvStore>(0);
    }
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(tmp_, ec);
  }

  std::string tmp_;
  std::unique_ptr<StorageBackend> backend_;
};

TEST_P(BackendContractTest, PutGetRoundTrip) {
  ASSERT_TRUE(backend_->Put("people", People()).ok());
  auto out = backend_->Get("people");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 3u);
  // Bag equality (kv-store may reorder by key; keys here are sorted anyway).
  EXPECT_EQ(Bag(*out), Bag(People()));
}

TEST_P(BackendContractTest, IrregularDatasetRoundTrips) {
  ASSERT_TRUE(backend_->Put("irregular", Irregular()).ok());
  auto out = backend_->Get("irregular");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(Bag(*out), Bag(Irregular()));
}

TEST_P(BackendContractTest, GetMissingIsNotFound) {
  EXPECT_TRUE(backend_->Get("ghost").status().IsNotFound());
}

TEST_P(BackendContractTest, ExistsAndList) {
  EXPECT_FALSE(backend_->Exists("people"));
  ASSERT_TRUE(backend_->Put("people", People()).ok());
  EXPECT_TRUE(backend_->Exists("people"));
  EXPECT_EQ(backend_->List(), std::vector<std::string>{"people"});
}

TEST_P(BackendContractTest, DeleteRemoves) {
  ASSERT_TRUE(backend_->Put("people", People()).ok());
  ASSERT_TRUE(backend_->Delete("people").ok());
  EXPECT_FALSE(backend_->Exists("people"));
  EXPECT_TRUE(backend_->Delete("people").IsNotFound());
}

TEST_P(BackendContractTest, OverwriteReplaces) {
  ASSERT_TRUE(backend_->Put("people", People()).ok());
  Dataset one(std::vector<Record>{Record({Value(9), Value("zoe"), Value(1.0)})});
  ASSERT_TRUE(backend_->Put("people", one).ok());
  EXPECT_EQ(backend_->Get("people")->size(), 1u);
}

TEST_P(BackendContractTest, GetColumnsProjects) {
  ASSERT_TRUE(backend_->Put("people", People()).ok());
  auto out = backend_->GetColumns("people", {1});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);
  EXPECT_EQ(out->at(0).size(), 1u);
}

TEST_P(BackendContractTest, GetByKeyFindsMatches) {
  ASSERT_TRUE(backend_->Put("people", People()).ok());
  auto out = backend_->GetByKey("people", 0, Value(2));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->at(0)[1], Value("bob"));
  EXPECT_TRUE(backend_->GetByKey("people", 0, Value(42))->empty());
}

TEST_P(BackendContractTest, EmptyDatasetRoundTrips) {
  ASSERT_TRUE(backend_->Put("empty", Dataset()).ok());
  auto out = backend_->Get("empty");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendContractTest,
                         ::testing::Values("mem-column", "csv-files",
                                           "kv-store"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(CsvStoreTest, PersistsAcrossInstances) {
  const std::string dir = testing::TempDir() + "/rheem_csv_persist";
  {
    CsvStore store(dir);
    ASSERT_TRUE(store.Put("t", People()).ok());
  }
  CsvStore reopened(dir);
  EXPECT_TRUE(reopened.Exists("t"));
  EXPECT_EQ(reopened.Get("t")->size(), 3u);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(CsvStoreTest, PreservesTypesAndSpecialChars) {
  const std::string dir = testing::TempDir() + "/rheem_csv_types";
  CsvStore store(dir);
  std::vector<Record> rows;
  rows.push_back(Record({Value(), Value(true), Value(-7), Value(0.125),
                         Value("comma, quote\" and\nnewline"),
                         Value(std::vector<double>{1.5, 2.5})}));
  ASSERT_TRUE(store.Put("tricky", Dataset(std::move(rows))).ok());
  auto out = store.Get("tricky");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->at(0)[0], Value());
  EXPECT_EQ(out->at(0)[1], Value(true));
  EXPECT_EQ(out->at(0)[2], Value(-7));
  EXPECT_EQ(out->at(0)[3], Value(0.125));
  EXPECT_EQ(out->at(0)[4], Value("comma, quote\" and\nnewline"));
  EXPECT_EQ(out->at(0)[5], Value(std::vector<double>{1.5, 2.5}));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(KvStoreTest, PointLookupUsesIndex) {
  KvStore store(0);
  ASSERT_TRUE(store.Put("t", People()).ok());
  auto hit = store.GetByKey("t", 0, Value(3));
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ(hit->at(0)[1], Value("cyn"));
}

TEST(KvStoreTest, LookupOnNonIndexedColumnFallsBackToScan) {
  KvStore store(0);
  ASSERT_TRUE(store.Put("t", People()).ok());
  auto hit = store.GetByKey("t", 1, Value("bob"));
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ(hit->at(0)[0], Value(2));
}

TEST(KvStoreTest, DuplicateKeysKeepAllRecords) {
  KvStore store(0);
  std::vector<Record> rows;
  rows.push_back(Record({Value(1), Value("a")}));
  rows.push_back(Record({Value(1), Value("b")}));
  ASSERT_TRUE(store.Put("t", Dataset(std::move(rows))).ok());
  EXPECT_EQ(store.GetByKey("t", 0, Value(1))->size(), 2u);
  EXPECT_EQ(store.Get("t")->size(), 2u);
}

// StorageCatalog refuses schema-less datasets, so the columnar store infers
// c0..cN from the first record when Put carries no schema.
TEST(MemColumnStoreTest, SchemalessPutGetsInferredSchemaAndStaysQueryable) {
  StorageManager manager;
  ASSERT_TRUE(manager.RegisterBackend(std::make_unique<MemColumnStore>()).ok());
  ASSERT_TRUE(manager.Put("mem-column", "people", People()).ok());
  auto out = manager.Backend("mem-column").ValueOrDie()->Get("people");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out->has_schema());
  EXPECT_EQ(out->schema(),
            Schema::Of({{"c0", ValueType::kInt64},
                        {"c1", ValueType::kString},
                        {"c2", ValueType::kDouble}}));

  RheemContext ctx;
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  ASSERT_TRUE(ctx.AttachStorage(&manager).ok());
  auto stmt = ctx.Sql("SELECT c1 FROM people WHERE c2 > 3.0");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto rows = stmt->Collect();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(Bag(*rows), Bag(Dataset(std::vector<Record>{
                            Record({Value("ada")}), Record({Value("cyn")})})));
}

TEST(StorageManagerTest, RoutesByExistence) {
  StorageManager manager;
  ASSERT_TRUE(manager.RegisterBackend(std::make_unique<MemColumnStore>()).ok());
  ASSERT_TRUE(manager.RegisterBackend(std::make_unique<KvStore>(0)).ok());
  ASSERT_TRUE(manager.Backend("mem-column").ValueOrDie()->Put("a", People()).ok());
  ASSERT_TRUE(manager.Backend("kv-store").ValueOrDie()->Put("b", People()).ok());
  EXPECT_EQ(manager.Locate("a").ValueOrDie()->name(), "mem-column");
  EXPECT_EQ(manager.Locate("b").ValueOrDie()->name(), "kv-store");
  EXPECT_EQ(manager.Load("b")->size(), 3u);
  EXPECT_TRUE(manager.Locate("c").status().IsNotFound());
  EXPECT_TRUE(manager.Backend("nope").status().IsNotFound());
}

TEST(StorageManagerTest, DuplicateBackendRejected) {
  StorageManager manager;
  ASSERT_TRUE(manager.RegisterBackend(std::make_unique<MemColumnStore>()).ok());
  EXPECT_TRUE(manager.RegisterBackend(std::make_unique<MemColumnStore>())
                  .IsAlreadyExists());
}

TEST(StorageManagerTest, ExecutesPlanWithTransformAndKeyedAtom) {
  StorageManager manager;
  ASSERT_TRUE(manager.RegisterBackend(std::make_unique<KvStore>(0)).ok());
  StoragePlan plan;
  StorageAtom atom;
  atom.backend = "kv-store";
  atom.dataset = "scores";
  atom.key_column = 1;  // index by name
  atom.transform.Add(TransformStep::Project({1, 2}));
  plan.atoms.push_back(atom);
  ASSERT_TRUE(manager.Execute(plan, People()).ok());
  auto* kv = dynamic_cast<KvStore*>(manager.Backend("kv-store").ValueOrDie());
  // Projected layout: (name, score); keyed by column... projected column 1
  // of the atom refers to the *projected* record, i.e. the score. The atom
  // key column applies post-transform; look up by original column 0 of the
  // projected shape instead.
  auto by_name = kv->GetByKey("scores", 0, Value("bob"));
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(by_name->size(), 1u);
  EXPECT_NE(plan.ToString().find("kv-store"), std::string::npos);
}

}  // namespace
}  // namespace storage
}  // namespace rheem
