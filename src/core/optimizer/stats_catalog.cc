#include "core/optimizer/stats_catalog.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/csv.h"
#include "common/metrics.h"

namespace rheem {
namespace {

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Same framing discipline as the executor's RCKP1 checkpoints: magic + 16
// lowercase-hex FNV-1a digits over the payload, so torn or bit-rotted stats
// files are detected instead of silently steering the optimizer.
constexpr char kStatsMagic[] = "RSTC1";
constexpr std::size_t kStatsMagicLen = 5;
constexpr std::size_t kStatsChecksumLen = 16;

// Allocation-bomb guard for untrusted declared entry counts: far above any
// real catalog, far below anything that could exhaust memory while parsing.
constexpr int64_t kMaxEntries = 1 << 20;

Status Corrupt(const std::string& what) {
  CountIfEnabled(MetricsRegistry::Global().counter("stats_catalog.corrupt_total"),
                 1);
  return Status::IoError("stats catalog rejected: " + what);
}

bool ParseDouble(const std::string& token, double* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool ParseInt64(const std::string& token, int64_t* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseHex64(const std::string& token, uint64_t* out) {
  if (token.empty() || token.size() > 16) return false;
  uint64_t v = 0;
  for (char c : token) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *out = v;
  return true;
}

// Splits a payload line into whitespace-free tokens; strict about shape so
// bit flips that merge or split fields are rejected, not misparsed.
std::vector<std::string> SplitTokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string t;
  while (is >> t) tokens.push_back(std::move(t));
  return tokens;
}

}  // namespace

void StatisticsCatalog::RecordCardinality(uint64_t fingerprint,
                                          double cardinality,
                                          double avg_bytes) {
  if (!std::isfinite(cardinality) || cardinality < 0.0) return;
  if (!std::isfinite(avg_bytes) || avg_bytes <= 0.0) avg_bytes = 32.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Estimate& e = cardinalities_[fingerprint];
    e.cardinality = cardinality;
    e.avg_bytes = avg_bytes;
    ++version_;
  }
  CountIfEnabled(MetricsRegistry::Global().counter("stats_catalog.updates_total"),
                 1);
}

bool StatisticsCatalog::LookupCardinality(uint64_t fingerprint,
                                          Estimate* out) const {
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cardinalities_.find(fingerprint);
    if (it != cardinalities_.end()) {
      if (out != nullptr) *out = it->second;
      hit = true;
    }
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  CountIfEnabled(
      registry.counter(hit ? "stats_catalog.hits" : "stats_catalog.misses"), 1);
  return hit;
}

void StatisticsCatalog::RecordCostRatio(const std::string& op_kind,
                                        const std::string& platform,
                                        double ratio) {
  if (!std::isfinite(ratio) || ratio <= 0.0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    CostStats& s = costs_[{op_kind, platform}];
    s.log_ratio_sum += std::log(ratio);
    s.count += 1;
    ++version_;
  }
  CountIfEnabled(MetricsRegistry::Global().counter("stats_catalog.updates_total"),
                 1);
}

double StatisticsCatalog::CostFactor(const std::string& op_kind,
                                     const std::string& platform) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = costs_.find({op_kind, platform});
  if (it == costs_.end() || it->second.count == 0) return 1.0;
  const double factor =
      std::exp(it->second.log_ratio_sum / static_cast<double>(it->second.count));
  return std::min(20.0, std::max(0.05, factor));
}

int64_t StatisticsCatalog::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

std::size_t StatisticsCatalog::cardinality_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cardinalities_.size();
}

std::size_t StatisticsCatalog::cost_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return costs_.size();
}

void StatisticsCatalog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cardinalities_.clear();
  costs_.clear();
  ++version_;
}

std::string StatisticsCatalog::Encode() const {
  std::ostringstream payload;
  {
    std::lock_guard<std::mutex> lock(mu_);
    payload << "cards " << cardinalities_.size() << "\n";
    char buf[128];
    for (const auto& [fp, est] : cardinalities_) {
      std::snprintf(buf, sizeof(buf), "%016llx %.17g %.17g\n",
                    static_cast<unsigned long long>(fp), est.cardinality,
                    est.avg_bytes);
      payload << buf;
    }
    payload << "costs " << costs_.size() << "\n";
    for (const auto& [key, stats] : costs_) {
      std::snprintf(buf, sizeof(buf), " %.17g %lld\n", stats.log_ratio_sum,
                    static_cast<long long>(stats.count));
      payload << key.first << " " << key.second << buf;
    }
  }
  const std::string body = payload.str();
  char checksum[kStatsChecksumLen + 1];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(Fnv1a(body)));
  std::string framed;
  framed.reserve(kStatsMagicLen + kStatsChecksumLen + body.size());
  framed.append(kStatsMagic, kStatsMagicLen);
  framed.append(checksum, kStatsChecksumLen);
  framed.append(body);
  return framed;
}

Status StatisticsCatalog::DecodeFrom(const std::string& framed) {
  constexpr std::size_t header = kStatsMagicLen + kStatsChecksumLen;
  if (framed.size() < header ||
      framed.compare(0, kStatsMagicLen, kStatsMagic) != 0) {
    return Corrupt("missing RSTC1 header");
  }
  const std::string payload = framed.substr(header);
  char expect[kStatsChecksumLen + 1];
  std::snprintf(expect, sizeof(expect), "%016llx",
                static_cast<unsigned long long>(Fnv1a(payload)));
  if (framed.compare(kStatsMagicLen, kStatsChecksumLen, expect) != 0) {
    return Corrupt("checksum mismatch (torn write?)");
  }

  // Parse into fresh maps; the catalog is only replaced on full success.
  std::map<uint64_t, Estimate> cards;
  std::map<std::pair<std::string, std::string>, CostStats> costs;
  std::istringstream is(payload);
  std::string line;

  auto read_section_header = [&](const char* keyword,
                                 int64_t* count) -> Status {
    if (!std::getline(is, line)) {
      return Corrupt(std::string("missing '") + keyword + "' section");
    }
    const auto tokens = SplitTokens(line);
    if (tokens.size() != 2 || tokens[0] != keyword ||
        !ParseInt64(tokens[1], count) || *count < 0 || *count > kMaxEntries) {
      return Corrupt(std::string("bad '") + keyword + "' header: " + line);
    }
    return Status::OK();
  };

  int64_t n_cards = 0;
  RHEEM_RETURN_IF_ERROR(read_section_header("cards", &n_cards));
  for (int64_t i = 0; i < n_cards; ++i) {
    if (!std::getline(is, line)) return Corrupt("truncated cards section");
    const auto tokens = SplitTokens(line);
    uint64_t fp = 0;
    Estimate est;
    if (tokens.size() != 3 || tokens[0].size() != 16 ||
        !ParseHex64(tokens[0], &fp) ||
        !ParseDouble(tokens[1], &est.cardinality) ||
        !ParseDouble(tokens[2], &est.avg_bytes) || est.cardinality < 0.0 ||
        est.avg_bytes <= 0.0) {
      return Corrupt("bad cards line: " + line);
    }
    if (!cards.emplace(fp, est).second) {
      return Corrupt("duplicate cards fingerprint: " + tokens[0]);
    }
  }

  int64_t n_costs = 0;
  RHEEM_RETURN_IF_ERROR(read_section_header("costs", &n_costs));
  for (int64_t i = 0; i < n_costs; ++i) {
    if (!std::getline(is, line)) return Corrupt("truncated costs section");
    const auto tokens = SplitTokens(line);
    CostStats stats;
    if (tokens.size() != 4 || tokens[0].empty() || tokens[1].empty() ||
        !ParseDouble(tokens[2], &stats.log_ratio_sum) ||
        !ParseInt64(tokens[3], &stats.count) || stats.count <= 0) {
      return Corrupt("bad costs line: " + line);
    }
    if (!costs.emplace(std::make_pair(tokens[0], tokens[1]), stats).second) {
      return Corrupt("duplicate costs key: " + tokens[0] + "/" + tokens[1]);
    }
  }
  if (std::getline(is, line)) {
    return Corrupt("trailing bytes after declared entries");
  }

  std::lock_guard<std::mutex> lock(mu_);
  cardinalities_ = std::move(cards);
  costs_ = std::move(costs);
  ++version_;
  return Status::OK();
}

Status StatisticsCatalog::SaveToFile(const std::string& path) const {
  return WriteStringToFile(path, Encode());
}

Status StatisticsCatalog::LoadFromFile(const std::string& path) {
  RHEEM_ASSIGN_OR_RETURN(std::string framed, ReadFileToString(path));
  return DecodeFrom(framed);
}

}  // namespace rheem
