// Shared plumbing of the end-to-end benchmark: clocks, order statistics,
// open-loop pacing, host probes (steal time, huge pages, fingerprint), an
// in-memory span recorder, answer checks and the result line.
//
// Everything here sits outside the library: the benchmark times calls into
// the public API of each layer and never reaches into src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double Micros(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}

/// Sleeps until shortly before `due_ns`, then spins to it, so a send leaves
/// on time even on a host whose sleeping threads wake late.
void WaitUntil(int64_t due_ns);
/// Asks the kernel for the smallest timer slack on the calling thread.
void MinimizeTimerSlack();

/// Aggregate CPU ticks from /proc/stat; steal share = d(steal) / d(all).
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
double StealShare(const CpuTicks& before, const CpuTicks& after);

/// Bytes of anonymous huge pages mapped by this process.
double AnonHugePageBytes();
/// CPU seconds (user + system) this process has used so far.
double ProcessCpuSeconds();

/// Machine and build description printed with every result.
std::string FingerprintJson(const std::string& workload, uint64_t seed,
                            const std::string& build_type,
                            const std::string& source_digest,
                            double steal_share);

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// One timed interval around a call into the library. Spans of one request
/// share `request`; `parent` names the enclosing span (0 = none).
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double Us() const { return Micros(end_ns - start_ns); }
};

/// In-memory span store. Threads record into their own SpanLog and merge
/// it once at the end, so recording costs no lock on the hot path. When
/// disabled, nothing is kept.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Merge(std::vector<Span>* spans);
  /// Total seconds of every span named `name`.
  double TotalSeconds(const std::string& name) const;
  /// Writes one JSON object per span. Returns false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// A thread's private span buffer; merges into the tracer on destruction.
class SpanLog {
 public:
  explicit SpanLog(Tracer* tracer) : tracer_(tracer) {}
  ~SpanLog() { Flush(); }
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return tracer_->enabled(); }
  /// Hands the spans recorded so far to the tracer.
  void Flush() { tracer_->Merge(&spans_); }
  /// Opens a span; returns its id (0 when tracing is off).
  uint64_t Begin(const char* name, uint64_t parent = 0);
  void End(uint64_t id);
  /// Records an already-timed interval.
  void Add(const char* name, int64_t start_ns, int64_t end_ns,
           uint64_t parent = 0, uint64_t request = 0);

 private:
  Tracer* tracer_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices into spans_ of spans not yet ended
};

/// Times a block as a span: Scoped s(&log, "name", parent);
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, uint64_t parent = 0)
      : log_(log), id_(log->Begin(name, parent)) {}
  ~Scoped() { log_->End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

// ---------------------------------------------------------------------------
// Answer checks and scoring.
// ---------------------------------------------------------------------------

/// True iff the k ids are distinct, each below `id_limit`, and padded
/// (kInvalidId) only at the tail and only when fewer than k of them can
/// exist (`available` < k).
bool ValidAnswer(const uint32_t* ids, size_t k, size_t id_limit,
                 size_t available);

/// |answer ∩ truth| / k over the first k entries (padding never matches;
/// truth padding shrinks the denominator to the true neighbour count).
double RecallAtK(const uint32_t* ids, const uint32_t* truth, size_t k);

// ---------------------------------------------------------------------------
// The result.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;  ///< multiplies every data size (smoke tests use < 1)
  std::string trace_dir = ".";
  std::string source_digest = "unknown";
};

/// What a workload reports: checks plus named metrics.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool checks_ok = true;  ///< false when any correctness check failed
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  double steal_share = 0.0;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Fail(uint64_t n = 1) {
    failed += n;
    checks_ok = false;
  }
};

/// Prints the final result line: {"correct", "attempted", "failed",
/// "metrics"}.
void PrintResult(const Report& report);

/// Logs a progress/diagnostic line on stderr.
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
