#ifndef RHEEM_STORAGE_MEM_COLUMN_STORE_H_
#define RHEEM_STORAGE_MEM_COLUMN_STORE_H_

#include <map>
#include <optional>
#include <string>

#include "data/batch.h"
#include "storage/store_op.h"

namespace rheem {
namespace storage {

/// \brief In-memory columnar backend: each dataset lives as one columnar
/// Batch, so column-subset reads touch only the requested columns. A dataset
/// Batch cannot hold (ragged rows, a double_list cell, a mixed int64/double
/// column) is kept as rows and counted in `batch.fallbacks_total`.
///
/// Get() returns the Put dataset's schema, or one inferred from its first
/// record (columns c0..cN typed by that record's cells), so schema-less data
/// stays queryable through StorageCatalog.
class MemColumnStore : public StorageBackend {
 public:
  MemColumnStore() = default;

  const std::string& name() const override { return name_; }
  const std::string& format() const override { return format_; }
  BackendTraits traits() const override {
    return BackendTraits{/*columnar=*/true, /*point_lookup=*/false,
                         /*persistent=*/false, /*scan_cost_factor=*/0.6};
  }

  Status Put(const std::string& dataset, const Dataset& data) override;
  Result<Dataset> Get(const std::string& dataset) const override;
  Status Delete(const std::string& dataset) override;
  bool Exists(const std::string& dataset) const override;
  std::vector<std::string> List() const override;

  Result<Dataset> GetColumns(const std::string& dataset,
                             const std::vector<int>& columns) const override;

 private:
  struct Stored {
    Schema schema;
    std::optional<Batch> batch;  // the columnar copy...
    Dataset rows;                // ...or the rows, when Batch cannot hold them
  };

  Result<const Stored*> Find(const std::string& dataset) const;

  std::string name_ = "mem-column";
  std::string format_ = "columnar";
  std::map<std::string, Stored> datasets_;
};

}  // namespace storage
}  // namespace rheem

#endif  // RHEEM_STORAGE_MEM_COLUMN_STORE_H_
