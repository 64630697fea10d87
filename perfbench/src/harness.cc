#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <malloc.h>
#include <pthread.h>

namespace perfbench {

double Samples::Sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::vector<std::size_t> QuietHalf(const std::vector<int64_t>& end_ns,
                                   const std::vector<double>& latency_ms,
                                   int64_t start_ns, int64_t stop_ns,
                                   int slices, double* kept_s) {
  const double span = static_cast<double>(std::max<int64_t>(1, stop_ns - start_ns));
  std::vector<std::vector<std::size_t>> members(static_cast<std::size_t>(slices));
  for (std::size_t i = 0; i < end_ns.size(); ++i) {
    const double f = static_cast<double>(end_ns[i] - start_ns) / span;
    const int s = std::clamp(static_cast<int>(f * slices), 0, slices - 1);
    members[static_cast<std::size_t>(s)].push_back(i);
  }
  std::vector<std::pair<double, int>> rank;
  for (int s = 0; s < slices; ++s) {
    Samples lat;
    for (std::size_t i : members[static_cast<std::size_t>(s)]) lat.Add(latency_ms[i]);
    rank.emplace_back(lat.empty() ? HUGE_VAL : lat.Median(), s);
  }
  std::sort(rank.begin(), rank.end());
  const int keep = std::max(1, slices / 2);
  std::vector<std::size_t> kept;
  for (int r = 0; r < keep; ++r) {
    const auto& m = members[static_cast<std::size_t>(rank[static_cast<std::size_t>(r)].second)];
    kept.insert(kept.end(), m.begin(), m.end());
  }
  std::sort(kept.begin(), kept.end());
  *kept_s = span * 1e-9 * keep / slices;
  return kept;
}

uint64_t SpanLog::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

uint64_t SpanLog::Record(const std::string& name, uint64_t op, uint64_t parent,
                         int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return 0;
  const uint64_t id = NextId();
  RecordWithId(id, name, op, parent, start_ns, end_ns);
  return id;
}

void SpanLog::RecordWithId(uint64_t id, const std::string& name, uint64_t op,
                           uint64_t parent, int64_t start_ns, int64_t end_ns) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{id, parent, op, name, start_ns, end_ns});
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %llu, \"parent\": %llu, \"op\": %llu, "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"dur_us\": %.3f}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 JsonEscape(s.name).c_str(),
                 static_cast<double>(s.start_ns - epoch) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double ScopedSpan::Finish() {
  if (ms_ >= 0.0) return ms_;
  const int64_t end = NowNanos();
  ms_ = static_cast<double>(end - start_) * 1e-6;
  if (id_ != 0) log_->RecordWithId(id_, name_, op_, parent_, start_, end);
  return ms_;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    order_[it->second].second = {value, unit};
    return;
  }
  metrics_[name] = order_.size();
  order_.push_back({name, {value, unit}});
}

void Report::Stamp(const std::string& key, const std::string& value) {
  stamp_.push_back({key, "\"" + JsonEscape(value) + "\""});
}

void Report::Stamp(const std::string& key, double value) {
  stamp_.push_back({key, Format("%.17g", value)});
}

void Report::Line(const std::string& text) {
  std::printf("%s\n", text.c_str());
  std::fflush(stdout);
}

void Report::Fail(const std::string& why) {
  if (failures_.size() < 20) {
    std::fprintf(stderr, "WRONG: %s\n", why.c_str());
  }
  failures_.push_back(why);
}

std::string Report::ToJson(const Args& args) const {
  std::string out = "{\"workload\": \"" + JsonEscape(args.workload) + "\"";
  out += Format(", \"seed\": %llu, \"trace\": %d",
                static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  out += Format(", \"correct\": %s, \"attempted\": %lld, \"failed\": %lld",
                correct() ? "true" : "false",
                static_cast<long long>(attempted_),
                static_cast<long long>(failed_));
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto& [name, vu] = order_[i];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    out += Format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", JsonEscape(name).c_str(), v,
                  JsonEscape(vu.second).c_str());
  }
  out += "}, \"stamp\": {";
  for (std::size_t i = 0; i < stamp_.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + JsonEscape(stamp_[i].first) +
           "\": " + stamp_[i].second;
  }
  out += "}, \"wrong\": [";
  for (std::size_t i = 0; i < failures_.size() && i < 20; ++i) {
    out += (i == 0 ? "\"" : ", \"") + JsonEscape(failures_[i]) + "\"";
  }
  out += "]}";
  return out;
}

namespace {

double StatusMib(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  const std::size_t n = std::strlen(key);
  char line[256];
  double mib = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, n) == 0) {
      mib = static_cast<double>(std::strtoll(line + n, nullptr, 10)) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mib;
}

}  // namespace

double PeakRssMib() { return StatusMib("VmHWM:"); }

double ThreadStackRssMib(int* stacks) {
  pthread_attr_t attr;
  std::size_t stack = 0, guard = 0;
  if (::pthread_attr_init(&attr) != 0) return -1.0;
  ::pthread_attr_getstacksize(&attr, &stack);
  ::pthread_attr_getguardsize(&attr, &guard);
  ::pthread_attr_destroy(&attr);
  std::FILE* f = std::fopen("/proc/self/smaps", "r");
  if (f == nullptr) return -1.0;
  if (stacks != nullptr) *stacks = 0;
  char line[512];
  bool in_stack = false;
  long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long lo = 0, hi = 0;
    char perms[8] = {0};
    char path[256] = {0};
    if (std::sscanf(line, "%llx-%llx %7s %*s %*s %*s %255s", &lo, &hi, perms,
                    path) >= 3) {
      // glibc maps stack size plus guard, or the stack size with the guard
      // carved out of it, depending on its version.
      in_stack = path[0] == '\0' && std::strcmp(perms, "rw-p") == 0 &&
                 (hi - lo == stack || hi - lo == stack - guard);
      if (in_stack && stacks != nullptr) ++*stacks;
    } else if (in_stack && std::strncmp(line, "Rss:", 4) == 0) {
      kib += std::strtoll(line + 4, nullptr, 10);
    }
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

void StartPeakRssWindow(Report* report) {
  report->Stamp("peak_rss_setup_mib", PeakRssMib());
  ::malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  bool reset = f != nullptr && std::fputs("5", f) >= 0;
  if (f != nullptr && std::fclose(f) != 0) reset = false;
  if (!reset) {
    report->Line("note: could not restart VmHWM; peak_rss_mib includes set-up");
  }
}

CpuTimes CpuTimes::Now() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    t.busy = v[0] + v[1] + v[2] + v[5] + v[6];
    t.idle = v[3] + v[4];
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

void StampCpu(Report* report, const CpuTimes& start) {
  const CpuTimes end = CpuTimes::Now();
  const double busy = static_cast<double>(end.busy - start.busy);
  const double idle = static_cast<double>(end.idle - start.idle);
  const double steal = static_cast<double>(end.steal - start.steal);
  const double total = busy + idle + steal;
  report->Stamp("cpu_steal_share", total > 0 ? steal / total : 0.0);
  report->Stamp("cpu_busy_share", total > 0 ? busy / total : 0.0);
}

void StampHost(Report* report) {
  report->Stamp("nproc", static_cast<double>(std::thread::hardware_concurrency()));
#ifdef PERFBENCH_BUILD_TYPE
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#else
  const std::string build_type = "unknown";
#endif
  report->Stamp("build_type", build_type);
  report->Stamp("build_flagged",
                build_type == "Release" ? "" : "NOT A RELEASE BUILD");
#ifdef __VERSION__
  report->Stamp("compiler", __VERSION__);
#endif
#ifdef NDEBUG
  report->Stamp("ndebug", "on");
#else
  report->Stamp("ndebug", "off");
#endif
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += Format("\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Format(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n < 0) return std::string();
  if (static_cast<std::size_t>(n) < sizeof(buf)) return std::string(buf, n);
  std::string big(static_cast<std::size_t>(n) + 1, '\0');
  va_start(ap, fmt);
  std::vsnprintf(big.data(), big.size(), fmt, ap);
  va_end(ap);
  big.resize(static_cast<std::size_t>(n));
  return big;
}

}  // namespace perfbench
