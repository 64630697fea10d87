#include "storage/mem_column_store.h"

#include "common/metrics.h"

namespace rheem {
namespace storage {

namespace {

Schema SchemaOf(const Dataset& data) {
  if (data.has_schema() || data.empty()) return data.schema();
  std::vector<Field> fields;
  const Record& first = data.at(0);
  for (std::size_t i = 0; i < first.size(); ++i) {
    // Appended, not "c" + ...: that form trips a GCC 12 -Wrestrict false
    // positive.
    std::string name = "c";
    name += std::to_string(i);
    fields.push_back(Field{std::move(name), first.at(i).type()});
  }
  return Schema(std::move(fields));
}

}  // namespace

Status MemColumnStore::Put(const std::string& dataset, const Dataset& data) {
  Stored stored;
  stored.schema = SchemaOf(data);
  auto batch = Batch::FromDataset(data);
  if (batch.ok()) {
    stored.batch = std::move(batch).ValueOrDie();
  } else {
    CountIfEnabled(MetricsRegistry::Global().counter("batch.fallbacks_total"),
                   1);
    stored.rows = Dataset(data.records());
  }
  datasets_[dataset] = std::move(stored);
  return Status::OK();
}

Result<const MemColumnStore::Stored*> MemColumnStore::Find(
    const std::string& dataset) const {
  auto it = datasets_.find(dataset);
  if (it == datasets_.end()) {
    return Status::NotFound("mem-column: no dataset '" + dataset + "'");
  }
  return &it->second;
}

Result<Dataset> MemColumnStore::Get(const std::string& dataset) const {
  RHEEM_ASSIGN_OR_RETURN(const Stored* stored, Find(dataset));
  Dataset out = stored->batch ? stored->batch->ToDataset() : stored->rows;
  out.set_schema(stored->schema);
  return out;
}

Status MemColumnStore::Delete(const std::string& dataset) {
  if (datasets_.erase(dataset) == 0) {
    return Status::NotFound("mem-column: no dataset '" + dataset + "'");
  }
  return Status::OK();
}

bool MemColumnStore::Exists(const std::string& dataset) const {
  return datasets_.count(dataset) > 0;
}

std::vector<std::string> MemColumnStore::List() const {
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& [name, stored] : datasets_) names.push_back(name);
  return names;
}

Result<Dataset> MemColumnStore::GetColumns(const std::string& dataset,
                                           const std::vector<int>& columns) const {
  RHEEM_ASSIGN_OR_RETURN(const Stored* stored, Find(dataset));
  if (!stored->batch) return StorageBackend::GetColumns(dataset, columns);
  const Batch& batch = *stored->batch;
  // Like the row backends: no rows, nothing to project or range-check.
  if (batch.num_rows() == 0) return Dataset();
  for (int c : columns) {
    if (c < 0 || static_cast<std::size_t>(c) >= batch.num_columns()) {
      return Status::OutOfRange("mem-column: column " + std::to_string(c) +
                                " out of range in '" + dataset + "'");
    }
  }
  // Columnar advantage: touch only the requested columns.
  std::vector<Record> out;
  out.reserve(batch.num_rows());
  for (std::size_t r = 0; r < batch.num_rows(); ++r) {
    std::vector<Value> fields;
    fields.reserve(columns.size());
    for (int c : columns) {
      fields.push_back(batch.column(static_cast<std::size_t>(c)).ValueAt(r));
    }
    out.push_back(Record(std::move(fields)));
  }
  return Dataset(std::move(out));
}

}  // namespace storage
}  // namespace rheem
