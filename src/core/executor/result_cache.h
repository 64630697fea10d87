#ifndef RHEEM_CORE_EXECUTOR_RESULT_CACHE_H_
#define RHEEM_CORE_EXECUTOR_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "data/dataset.h"

namespace rheem {

/// \brief Thread-safe LRU cache of materialized sub-plan results, keyed by
/// sub-plan fingerprint (PlanFingerprint::SubPlans with the platform
/// assignment).
///
/// The paper's Executor is charged with "reusing materialized results"
/// (§4.2); a serving deployment sees the same sources and sub-plans again
/// and again, so the JobServer keeps one ResultCache and every job run
/// through it skips stages whose outputs were already computed — by a prior
/// run of the same job or by a different job sharing an operator prefix
/// (Nectar/RHEEMix-style sub-computation reuse).
///
/// Eviction is LRU by estimated bytes, the same budget discipline as the
/// storage layer's HotDataBuffer. Entries are shared const datasets: a hit
/// never copies a row, and concurrent jobs may hold the same entry while it
/// is evicted (the shared_ptr keeps it alive).
///
/// Like the plan cache, keys trust Operator::FingerprintToken: every
/// declared payload is in it, but UDF closure bodies are assumed equal when
/// tokens, wiring and source content hashes are equal. Callers that violate
/// that contract opt out per submission (JobOptions::use_result_cache =
/// false).
///
/// Emits `result_cache.hits` / `result_cache.misses` / `result_cache.inserts`
/// / `result_cache.evictions` counters and the `result_cache.resident_bytes`
/// gauge into the process-wide MetricsRegistry.
class ResultCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t inserts = 0;
    int64_t evictions = 0;
    int64_t resident_bytes = 0;
    std::size_t entries = 0;
    int64_t capacity_bytes = 0;
  };

  /// capacity_bytes <= 0 disables the cache (Lookup always misses without
  /// counting, Insert drops).
  explicit ResultCache(int64_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  bool enabled() const { return capacity_bytes_ > 0; }

  /// Returns the cached result and refreshes its recency, or nullptr.
  std::shared_ptr<const Dataset> Lookup(uint64_t key);

  /// Inserts (or refreshes) an entry; oversized datasets bypass the cache.
  void Insert(uint64_t key, std::shared_ptr<const Dataset> data);

  void Clear();

  Stats stats() const;

 private:
  void EvictUntilFitsLocked(int64_t incoming_bytes);

  struct Entry {
    std::shared_ptr<const Dataset> data;
    int64_t bytes = 0;
    std::list<uint64_t>::iterator lru_pos;
  };

  const int64_t capacity_bytes_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> cache_;
  std::list<uint64_t> lru_;  // front = most recent
  int64_t resident_bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t inserts_ = 0;
  int64_t evictions_ = 0;
};

}  // namespace rheem

#endif  // RHEEM_CORE_EXECUTOR_RESULT_CACHE_H_
