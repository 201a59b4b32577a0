// Benchmark-side helpers shared by the workloads: clocks, percentiles,
// digests, a span recorder, the raw-socket HTTP client, the seeded input
// generator, and the result line. Nothing here is part of msehsim; the
// benchmark only calls the library's public API.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Median of @p samples; nullopt when empty.
[[nodiscard]] std::optional<double> median(std::vector<double> samples);

/// The @p q quantile (0 < q < 1, linear interpolation between order
/// statistics), reported only when at least 10 samples lie beyond it: a
/// tail read from fewer points is noise, so the helper refuses it.
[[nodiscard]] std::optional<double> tail_percentile(std::vector<double> samples,
                                                    double q);

// ---------------------------------------------------------------------------
// CPU placement
// ---------------------------------------------------------------------------

/// Pins the calling thread to one CPU at a time, cycling through the first
/// kMaxCpus CPUs the process may use. On a shared host the CPUs run at
/// different speeds (their sibling threads carry other load), and a
/// single-threaded run otherwise stays wherever the scheduler first put it;
/// cycling makes every run sample the same CPUs equally. The cap keeps a
/// whole round short on large hosts. The original mask is restored on
/// destruction; without affinity support pin() does nothing.
class CpuRotation {
 public:
  static constexpr std::size_t kMaxCpus = 4;

  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins to the (@p i mod round())-th CPU of the rotation.
  void pin(std::size_t i);
  /// Pins per round: the CPUs in the rotation, at least 1.
  [[nodiscard]] std::size_t round() const {
    return cpus_.empty() ? 1 : cpus_.size();
  }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
};

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

/// FNV-1a 64, chainable: fnv1a(b, fnv1a(a)) digests a then b.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ull);
[[nodiscard]] std::string hex64(std::uint64_t v);

// ---------------------------------------------------------------------------
// Seeded generator for the workloads' inputs (independent of the library's
// own RNG so a change inside msehsim can never change what is measured)
// ---------------------------------------------------------------------------

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around its calls into each layer (traced
// runs only). Kept in memory; written out once when the run ends.
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::uint64_t id{0};
  std::uint64_t parent{0};  ///< 0 = root
  std::uint64_t request{0}; ///< spans of one operation share it
  double start_ms{0.0};     ///< since the recorder's epoch
  double end_ms{0.0};
  [[nodiscard]] double ms() const { return end_ms - start_ms; }
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Records a finished span and returns its id.
  std::uint64_t add(std::string name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent,
                    std::uint64_t request);
  /// An id for a span still open (children name it as their parent).
  std::uint64_t reserve();
  void record(std::uint64_t id, std::string name, Clock::time_point start,
              Clock::time_point end, std::uint64_t parent,
              std::uint64_t request);
  std::uint64_t next_request();

  /// Durations (ms) of every span named @p name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  [[nodiscard]] std::size_t size() const;
  /// Chrome trace_event JSON (one track per request).
  [[nodiscard]] std::string json() const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_{1};
  std::uint64_t next_request_{1};
};

/// RAII span: times its scope into @p recorder (no-op when null).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::uint64_t parent = 0,
             std::uint64_t request = 0)
      : recorder_(recorder), id_(recorder ? recorder->reserve() : 0),
        name_(std::move(name)), parent_(parent), request_(request),
        start_(Clock::now()) {}
  ~ScopedSpan() {
    if (recorder_)
      recorder_->record(id_, std::move(name_), start_, Clock::now(), parent_,
                        request_);
  }
  [[nodiscard]] std::uint64_t id() const { return id_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::uint64_t id_;
  std::string name_;
  std::uint64_t parent_;
  std::uint64_t request_;
  Clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Raw-socket HTTP/1.1 client (one request per connection, like msehsimd)
// ---------------------------------------------------------------------------

/// Request bytes with explicit Content-Length and Connection: close framing.
[[nodiscard]] std::string format_request(const std::string& method,
                                         const std::string& target,
                                         const std::string& body);

struct HttpReply {
  bool ok{false};         ///< transport and framing succeeded
  std::string error;      ///< why not, when !ok
  int status{0};
  std::map<std::string, std::string> headers;  ///< names lowercased
  std::string body;
  Clock::time_point start;      ///< before socket()
  Clock::time_point connected;
  Clock::time_point sent;       ///< request fully written
  Clock::time_point first_byte;
  Clock::time_point last_byte;
  [[nodiscard]] double total_ms() const { return ms_between(start, last_byte); }
};

/// Parses a complete response. Framing is strict: a Content-Length header
/// must be present and equal the body size, and the server must announce
/// Connection: close (the daemon closes every connection).
[[nodiscard]] HttpReply parse_reply(const std::string& wire);

/// One blocking exchange with 127.0.0.1:@p port.
[[nodiscard]] HttpReply http_exchange(std::uint16_t port,
                                      const std::string& request);

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// Shortest round-trip decimal form (every digit as measured).
[[nodiscard]] std::string num(double v);

struct Metric {
  double value{0.0};
  std::string unit;
};

/// The run's single machine-read result line.
[[nodiscard]] std::string result_line(
    bool correct, std::uint64_t attempted, std::uint64_t failed,
    const std::vector<std::pair<std::string, Metric>>& metrics);

/// Peak resident set of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// Whole-host CPU time so far (first line of /proc/stat, in clock ticks):
/// all of it, and the share the hypervisor gave to other guests (steal).
/// Zeros where unavailable.
struct HostCpu {
  unsigned long long total{0};
  unsigned long long steal{0};
};
[[nodiscard]] HostCpu host_cpu();

}  // namespace perfbench
