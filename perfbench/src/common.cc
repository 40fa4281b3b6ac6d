#include "common.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "eval/interface.h"
#include "simd/distance.h"

namespace perfbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least p% of the sample at or
  // below it.
  const double rank = p / 100.0 * static_cast<double>(v.size());
  size_t i = static_cast<size_t>(rank);
  if (static_cast<double>(i) < rank) ++i;
  if (i > 0) --i;
  return v[std::min(i, v.size() - 1)];
}

void WaitUntil(int64_t due_ns) {
  constexpr int64_t kSpinNs = 200'000;
  const int64_t now = NowNs();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

void MinimizeTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user/nice).
  for (int f = 0; f < 8; ++f) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (f == 7) t.steal = v;
  }
  return t;
}

double StealShare(const CpuTicks& before, const CpuTicks& after) {
  const uint64_t total = after.total - before.total;
  if (total == 0) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(total);
}

double AnonHugePageBytes() {
  std::ifstream in("/proc/self/smaps_rollup");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("AnonHugePages:", 0) == 0) {
      std::istringstream ls(line.substr(14));
      double kb = 0.0;
      ls >> kb;
      return kb * 1024.0;
    }
  }
  return 0.0;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string ThpMode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(in, line);
  const size_t lo = line.find('[');
  const size_t hi = line.find(']');
  if (lo == std::string::npos || hi == std::string::npos || hi < lo) {
    return "unknown";
  }
  return line.substr(lo + 1, hi - lo - 1);
}

}  // namespace

std::string FingerprintJson(const std::string& workload, uint64_t seed,
                            const std::string& build_type,
                            const std::string& source_digest,
                            double steal_share) {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::ostringstream os;
  os << "{\"cpu_model\": \"" << JsonEscape(CpuModel()) << "\""
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"llc_bytes\": " << (llc > 0 ? llc : 0)
     << ", \"simd_backend\": \"" << blink::simd::BackendName() << "\""
     << ", \"build_type\": \"" << JsonEscape(build_type) << "\""
     << ", \"source\": \"" << JsonEscape(source_digest) << "\""
     << ", \"thp_mode\": \"" << ThpMode() << "\""
     << ", \"workload\": \"" << JsonEscape(workload) << "\""
     << ", \"seed\": " << seed << ", \"env.steal_share\": " << steal_share
     << "}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

void Tracer::Merge(std::vector<Span>* spans) {
  if (!enabled_ || spans->empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans->begin(), spans->end());
  spans->clear();
}

double Tracer::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) total += Seconds(s.end_ns - s.start_ns);
  }
  return total;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

uint64_t SpanLog::Begin(const char* name, uint64_t parent) {
  if (!enabled()) return 0;
  Span s;
  s.name = name;
  s.id = tracer_->NextId();
  s.parent = parent;
  s.start_ns = NowNs();
  open_.push_back(spans_.size());
  spans_.push_back(s);
  return s.id;
}

void SpanLog::End(uint64_t id) {
  if (id == 0) return;
  const int64_t now = NowNs();
  for (size_t i = open_.size(); i-- > 0;) {
    Span& s = spans_[open_[i]];
    if (s.id == id) {
      s.end_ns = now;
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                  uint64_t parent, uint64_t request) {
  if (!enabled()) return;
  spans_.push_back(
      Span{name, tracer_->NextId(), parent, request, start_ns, end_ns});
}

// ---------------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------------

bool ValidAnswer(const uint32_t* ids, size_t k, size_t id_limit,
                 size_t available) {
  size_t real = 0;
  for (size_t j = 0; j < k; ++j) {
    if (ids[j] == blink::kInvalidId) continue;
    if (real != j || ids[j] >= id_limit) return false;  // id after padding
    for (size_t i = 0; i < j; ++i) {
      if (ids[i] == ids[j]) return false;
    }
    ++real;
  }
  return real == k || real == available;
}

double RecallAtK(const uint32_t* ids, const uint32_t* truth, size_t k) {
  size_t denom = 0;
  size_t hits = 0;
  for (size_t j = 0; j < k; ++j) {
    if (truth[j] == blink::kInvalidId) continue;
    ++denom;
    for (size_t i = 0; i < k; ++i) {
      if (ids[i] == truth[j]) {
        ++hits;
        break;
      }
    }
  }
  return denom == 0 ? 1.0 : static_cast<double>(hits) / static_cast<double>(denom);
}

void PrintResult(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.checks_ok ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, vu] = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), vu.first, vu.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void Log(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

}  // namespace perfbench
