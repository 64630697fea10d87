#include "core/executor/result_cache.h"

#include "common/metrics.h"

namespace rheem {

std::shared_ptr<const Dataset> ResultCache::Lookup(uint64_t key) {
  if (!enabled()) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  MetricsRegistry& registry = MetricsRegistry::Global();
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    ++misses_;
    CountIfEnabled(registry.counter("result_cache.misses"), 1);
    return nullptr;
  }
  ++hits_;
  lru_.erase(it->second.lru_pos);
  lru_.push_front(key);
  it->second.lru_pos = lru_.begin();
  CountIfEnabled(registry.counter("result_cache.hits"), 1);
  return it->second.data;
}

void ResultCache::Insert(uint64_t key, std::shared_ptr<const Dataset> data) {
  if (!enabled() || data == nullptr) return;
  const int64_t bytes = data->EstimatedBytes();
  if (bytes > capacity_bytes_) return;  // oversized: never cache
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    // Same fingerprint means same result; just refresh recency.
    lru_.erase(it->second.lru_pos);
    lru_.push_front(key);
    it->second.lru_pos = lru_.begin();
    return;
  }
  EvictUntilFitsLocked(bytes);
  lru_.push_front(key);
  Entry entry;
  entry.data = std::move(data);
  entry.bytes = bytes;
  entry.lru_pos = lru_.begin();
  cache_.emplace(key, std::move(entry));
  resident_bytes_ += bytes;
  ++inserts_;
  MetricsRegistry& registry = MetricsRegistry::Global();
  if (registry.enabled()) {
    registry.counter("result_cache.inserts")->Add(1);
    registry.gauge("result_cache.resident_bytes")->Set(resident_bytes_);
  }
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
  lru_.clear();
  resident_bytes_ = 0;
  MetricsRegistry& registry = MetricsRegistry::Global();
  if (registry.enabled()) {
    registry.gauge("result_cache.resident_bytes")->Set(0);
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.inserts = inserts_;
  s.evictions = evictions_;
  s.resident_bytes = resident_bytes_;
  s.entries = cache_.size();
  s.capacity_bytes = capacity_bytes_;
  return s;
}

void ResultCache::EvictUntilFitsLocked(int64_t incoming_bytes) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  while (!lru_.empty() && resident_bytes_ + incoming_bytes > capacity_bytes_) {
    const uint64_t victim = lru_.back();
    auto it = cache_.find(victim);
    if (it != cache_.end()) {
      resident_bytes_ -= it->second.bytes;
      cache_.erase(it);
    }
    lru_.pop_back();
    ++evictions_;
    CountIfEnabled(registry.counter("result_cache.evictions"), 1);
  }
}

}  // namespace rheem
