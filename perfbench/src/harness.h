// Shared plumbing of the RHEEM-CPP benchmark: command-line arguments,
// sample statistics, the benchmark's own in-memory span log, the result
// report (metrics with units, host/build stamp, notes) and small host
// probes. Everything here sits outside the system under test: it times the
// system's public entry points from the caller's side.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  // span files of traced runs
  std::string data_dir = ".bench_data";  // scratch for the CSV store
};

/// Monotonic wall clock in nanoseconds.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall-clock stopwatch in milliseconds (fractional).
class Timer {
 public:
  Timer() : start_(NowNanos()) {}
  double Ms() const { return static_cast<double>(NowNanos() - start_) * 1e-6; }
  double Seconds() const { return Ms() * 1e-3; }

 private:
  int64_t start_;
};

/// A bag of samples with the order statistics the report needs.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const;
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// \brief The quieter half of a measured window. The window [start_ns,
/// end_ns) is cut into `slices` equal slices, each op goes to the slice its
/// end time falls in, and the slices are ranked by the median latency of
/// their ops (a slice without ops ranks last). Returns the indices of the
/// ops of the better half of the slices; `kept_s` receives the time those
/// slices span. Other tenants of a shared host slow whole stretches of a
/// run, and such a slice drops out; a change to the system moves every
/// slice and shows in full.
std::vector<std::size_t> QuietHalf(const std::vector<int64_t>& end_ns,
                                   const std::vector<double>& latency_ms,
                                   int64_t start_ns, int64_t stop_ns,
                                   int slices, double* kept_s);

/// \brief The benchmark's own spans, kept in memory and written out once the
/// run ends. A span names the public call it wraps; spans of one operation
/// share `op`, and `parent` links a call to the caller span it ran inside.
/// Thread-safe (client threads record concurrently).
class SpanLog {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t op = 0;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Records a finished span; returns its id (0 when disabled).
  uint64_t Record(const std::string& name, uint64_t op, uint64_t parent,
                  int64_t start_ns, int64_t end_ns);
  /// Reserves an id for a span whose end is not known yet.
  uint64_t NextId();
  /// Records a span under an id from NextId().
  void RecordWithId(uint64_t id, const std::string& name, uint64_t op,
                    uint64_t parent, int64_t start_ns, int64_t end_ns);

  std::size_t size() const;
  /// Writes every span as one JSON document; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Times one call and records it as a span when the log is enabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, uint64_t op, uint64_t parent = 0)
      : log_(log), name_(std::move(name)), op_(op), parent_(parent),
        id_(log->enabled() ? log->NextId() : 0), start_(NowNanos()) {}
  ~ScopedSpan() { Finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  /// Ends the span now and returns its duration in ms (idempotent).
  double Finish();

 private:
  SpanLog* log_;
  std::string name_;
  uint64_t op_;
  uint64_t parent_;
  uint64_t id_;
  int64_t start_;
  double ms_ = -1.0;
};

/// \brief One run's results: metrics with units, the host/build stamp, and
/// free-form report lines. Serializes to the JSON line `run.py` consumes.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Stamp(const std::string& key, const std::string& value);
  void Stamp(const std::string& key, double value);
  /// A human-readable report line, printed before the JSON.
  void Line(const std::string& text);

  void CountOp(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  /// Records a wrong answer or a failed call; the run then exits non-zero.
  void Fail(const std::string& why);
  bool correct() const { return failures_.empty(); }

  std::string ToJson(const Args& args) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> order_;
  std::map<std::string, std::size_t> metrics_;  // name -> index in order_
  std::vector<std::pair<std::string, std::string>> stamp_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Peak resident set (VmHWM) of this process in MiB; -1 when unreadable.
double PeakRssMib();

/// Resident memory of the thread stacks mapped in this process, in MiB: the
/// anonymous read-write mappings of the default pthread stack size (less
/// its guard page), read from /proc/self/smaps; -1 when unreadable. A
/// thread that exited but was not joined yet keeps its stack mapped.
/// `stacks`, when given, receives the number of such mappings.
double ThreadStackRssMib(int* stacks = nullptr);

class Report;
/// Called after set-up, before any warm-up: stamps the set-up's peak
/// as `peak_rss_setup_mib`, hands freed heap back to the OS (malloc_trim)
/// and restarts VmHWM (Linux clear_refs 5), so `peak_rss_mib` is the
/// measured window's own peak. Without the trim, which thread arenas kept
/// the three set-ups' freed memory made the peak vary by a third between
/// runs.
void StartPeakRssWindow(Report* report);

/// Host CPU time counters (/proc/stat, all CPUs), for stamping how much of
/// the measured window the hypervisor gave to other tenants.
struct CpuTimes {
  int64_t busy = 0;  // user + nice + system + irq + softirq
  int64_t idle = 0;  // idle + iowait
  int64_t steal = 0;
  static CpuTimes Now();
};
/// Stamps `cpu_steal_share` (steal over all ticks) and `cpu_busy_share`
/// since `start`.
void StampCpu(Report* report, const CpuTimes& start);

/// nproc, build type, compiler and NDEBUG of this binary.
void StampHost(Report* report);

std::string JsonEscape(const std::string& s);

/// Formats with printf semantics into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Builds the workload's fixture `times` times from scratch and reports the
/// median build time as `setup_s`. `teardown` destroys the previous fixture
/// outside the timed region; the last fixture built is the one measured.
template <typename Teardown, typename Build>
void TimeSetup(Report* report, int times, Teardown&& teardown, Build&& build) {
  Samples s;
  for (int i = 0; i < times; ++i) {
    teardown();
    Timer t;
    build();
    s.Add(t.Seconds());
  }
  report->Set("setup_s", s.Median(), "s");
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
