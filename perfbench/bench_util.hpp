// Shared machinery of the repository benchmark: the clock, order
// statistics, process memory readings, the in-memory span tracer and the
// report every workload fills.
//
// Spans are recorded only around calls the benchmark itself makes into a
// library layer; nothing inside src/ is instrumented. A disabled tracer
// records nothing, so the untraced runs that produce the end-to-end
// numbers pay one branch per call site.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sched.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median (mean of the two middle values for an even count). Requires a
/// non-empty sample.
inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// A nearest-rank percentile together with how many samples lie beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

inline Tail nearest_rank(std::vector<double> values, double percentile) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const auto rank =
      static_cast<std::size_t>(std::ceil(percentile / 100.0 * static_cast<double>(n)));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, n) - 1;
  return {values[index], percentile, n, n - index - 1};
}

/// A field of /proc/self/status in KiB (VmHWM, VmRSS); 0 when unreadable.
inline double proc_status_kib(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      std::istringstream fields(line.substr(key.size() + 1));
      double kib = 0.0;
      fields >> kib;
      return kib;
    }
  }
  return 0.0;
}

inline constexpr double kMiB = 1024.0 * 1024.0;

/// The CPUs this process may run on; {-1} (no pinning) when unknown.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);
  return cpus;
}

/// Keeps the calling thread on one CPU while in scope, then restores its
/// previous CPU set; cpu -1 pins nothing. On a shared host the neighbours
/// slow each core by a different amount, and that changes within seconds,
/// so a short timing taken on whichever core the thread happens to sit on
/// measures that core's neighbours. Spreading a timing over every allowed
/// core averages them out.
class CpuPin {
 public:
  explicit CpuPin(int cpu) {
    if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;
  ~CpuPin() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// `text` as a JSON string literal.
inline std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", static_cast<unsigned>(c));
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// In-memory span recorder. Every span carries its parent (the span open
/// when it started), so self time is the span minus its direct children.
class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = no parent
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    double work = 0.0;  ///< optional unit count (samples, bytes) for rates
    std::int64_t child_ns = 0;
    double self_ms() const { return static_cast<double>(end_ns - start_ns - child_ns) * 1e-6; }
  };

  /// RAII span; a no-op when the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, double work) : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(name, work);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  Tracer(bool enabled, std::string run_id) : enabled_(enabled), run_id_(std::move(run_id)) {}

  bool enabled() const { return enabled_; }
  Scope span(const char* name, double work = 0.0) {
    return Scope(enabled_ ? this : nullptr, name, work);
  }

  /// Self times (ms) of every closed span with this name, in start order.
  std::vector<double> self_ms(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name && s.end_ns != 0) out.push_back(s.self_ms());
    }
    return out;
  }

  /// Self time per unit of work (ns) of every span with this name.
  std::vector<double> ns_per_work(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name && s.end_ns != 0 && s.work > 0.0) {
        out.push_back(s.self_ms() * 1e6 / s.work);
      }
    }
    return out;
  }

  /// Write every span as one JSON line (run id, id, parent, name, start,
  /// end, self time, work).
  void write_jsonl(const std::filesystem::path& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (const Span& s : spans_) {
      out << "{\"run\":\"" << run_id_ << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"self_ms\":" << s.self_ms()
          << ",\"work\":" << s.work << "}\n";
    }
  }

 private:
  std::size_t open(const char* name, double work) {
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    s.name = name;
    s.work = work;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    Span& s = spans_[index];
    s.end_ns = now_ns();
    stack_.pop_back();
    if (!stack_.empty()) spans_[stack_.back()].child_ns += s.end_ns - s.start_ns;
  }

  bool enabled_;
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// What one workload run reports: named metrics with units, the operation
/// ledger, and the correctness checks with their verdicts.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "") {
    metrics_[name] = {value, unit, note};
  }

  /// One attempted operation; a false `ok` counts it as failed.
  void op(bool ok = true) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  /// A correctness check. It is an operation too: a failed check is a
  /// failed operation.
  void check(bool ok, const std::string& what) {
    op(ok);
    checks_.push_back({what, ok});
  }

  void info(const std::string& key, const std::string& json_value) { info_[key] = json_value; }

  bool correct() const { return failed_ == 0; }

  /// The result object: correct/attempted/failed/metrics plus the checks,
  /// metric notes and any extra facts under "details".
  std::string json() const {
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\":" << (correct() ? "true" : "false") << ",\"attempted\":" << attempted_
        << ",\"failed\":" << failed_ << ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      out << (first ? "" : ",") << "\"" << name << "\":{\"value\":" << m.value
          << ",\"unit\":\"" << m.unit << "\"}";
      first = false;
    }
    out << "},\"details\":{\"checks\":[";
    first = true;
    for (const auto& [what, ok] : checks_) {
      out << (first ? "" : ",") << "{\"check\":" << json_string(what)
          << ",\"ok\":" << (ok ? "true" : "false") << "}";
      first = false;
    }
    out << "],\"notes\":{";
    first = true;
    for (const auto& [name, m] : metrics_) {
      if (m.note.empty()) continue;
      out << (first ? "" : ",") << "\"" << name << "\":" << json_string(m.note);
      first = false;
    }
    out << "}";
    for (const auto& [key, value] : info_) out << ",\"" << key << "\":" << value;
    out << "}}";
    return out.str();
  }

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
    std::string note;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, std::string> info_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Everything a workload needs from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool tiny = false;              ///< smoke-test scale
  std::filesystem::path scratch;  ///< private directory, removed afterwards
};

/// Report a timing as the median of its samples plus a nearest-rank tail
/// at `percentile`; the note states the sample count and how many samples
/// lie beyond the tail.
inline void timing_metrics(Report& report, const std::string& p50_name,
                           const std::string& tail_name, const std::vector<double>& samples_ms,
                           double percentile) {
  const Tail tail = nearest_rank(samples_ms, percentile);
  report.metric(p50_name, median(samples_ms), "ms",
                "median of " + std::to_string(samples_ms.size()) + " samples");
  std::ostringstream note;
  note << "p" << percentile << " of " << tail.samples << " samples, " << tail.beyond << " beyond";
  report.metric(tail_name, tail.value, "ms", note.str());
}

/// Fill the tracing-overhead metric from the untraced and traced totals of
/// the same amount of timed-phase work.
inline void trace_overhead_metric(Report& report, double untraced_s, double traced_s) {
  report.metric("bench.trace_overhead_pct", (traced_s - untraced_s) / untraced_s * 100.0, "%",
                "traced minus untraced wall time of the same timed-phase work");
}

}  // namespace perfbench
