#include "harness.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/fmt.hpp"

namespace perfbench {

std::optional<double> median(std::vector<double> samples) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> tail_percentile(std::vector<double> samples, double q) {
  const auto n = static_cast<double>(samples.size());
  // Samples above the q quantile; the epsilon keeps 0.1 * 100 from
  // rounding down to 9.999...
  const double beyond = (1.0 - q) * n + 1e-9;
  if (samples.empty() || !(q > 0.0 && q < 1.0) || beyond < 10.0)
    return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const double pos = q * (n - 1.0);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

CpuRotation::CpuRotation() {
  if (::sched_getaffinity(0, sizeof(original_), &original_) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &original_) && cpus_.size() < kMaxCpus)
        cpus_.push_back(c);
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) ::sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::pin(std::size_t i) {
  if (cpus_.empty()) return;  // affinity unavailable: leave placement alone
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[i % cpus_.size()], &one);
  ::sched_setaffinity(0, sizeof(one), &one);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SplitMix64::uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t SpanRecorder::add(std::string name, Clock::time_point start,
                                Clock::time_point end, std::uint64_t parent,
                                std::uint64_t request) {
  const std::uint64_t id = reserve();
  record(id, std::move(name), start, end, parent, request);
  return id;
}

std::uint64_t SpanRecorder::reserve() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::record(std::uint64_t id, std::string name,
                          Clock::time_point start, Clock::time_point end,
                          std::uint64_t parent, std::uint64_t request) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), id, parent, request,
                    ms_between(epoch_, start), ms_between(epoch_, end)});
}

std::uint64_t SpanRecorder::next_request() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& s : spans_)
    if (s.name == name) out.push_back(s.ms());
  return out;
}

std::size_t SpanRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string SpanRecorder::json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const auto& s : spans_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\": \"" + s.name + "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
           std::to_string(s.request) + ", \"ts\": " + num(s.start_ms * 1e3) +
           ", \"dur\": " + num(s.ms() * 1e3) + ", \"args\": {\"id\": " +
           std::to_string(s.id) + ", \"parent\": " + std::to_string(s.parent) +
           "}}";
  }
  out += "\n]}\n";
  return out;
}

std::string format_request(const std::string& method, const std::string& target,
                           const std::string& body) {
  std::string out = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) out += "Content-Type: application/json\r\n";
  if (!body.empty() || method == "POST")
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

HttpReply parse_reply(const std::string& wire) {
  HttpReply out;
  const auto head_end = wire.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    out.error = "no header terminator";
    return out;
  }
  const std::string head = wire.substr(0, head_end);
  std::size_t pos = 0;
  bool status_line = true;
  while (pos <= head.size()) {
    auto eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string line = head.substr(pos, eol - pos);
    pos = eol + 2;
    if (status_line) {
      status_line = false;
      if (line.rfind("HTTP/1.1 ", 0) != 0 || line.size() < 12) {
        out.error = "bad status line";
        return out;
      }
      out.status = std::atoi(line.c_str() + 9);
      continue;
    }
    const auto colon = line.find(':');
    if (colon == std::string::npos) {
      out.error = "bad header line";
      return out;
    }
    std::string name = line.substr(0, colon);
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    std::string value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.erase(0, 1);
    out.headers.emplace(std::move(name), std::move(value));
  }
  out.body = wire.substr(head_end + 4);
  const auto length = out.headers.find("content-length");
  if (length == out.headers.end()) {
    out.error = "no Content-Length";
    return out;
  }
  const auto declared = msehsim::parse_unsigned(length->second);
  if (!declared || *declared != out.body.size()) {
    out.error = "Content-Length " + length->second + " but body has " +
                std::to_string(out.body.size()) + " bytes";
    return out;
  }
  const auto conn = out.headers.find("connection");
  if (conn == out.headers.end() || conn->second != "close") {
    out.error = "no Connection: close";
    return out;
  }
  out.ok = true;
  return out;
}

HttpReply http_exchange(std::uint16_t port, const std::string& request) {
  HttpReply fail;
  fail.start = Clock::now();
  const auto fail_at = [&fail](std::string why) {
    fail.error = std::move(why);
    fail.connected = fail.sent = fail.first_byte = fail.last_byte = Clock::now();
    return fail;
  };
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail_at(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  int rc = 0;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    ::close(fd);
    return fail_at(std::string("connect: ") + std::strerror(errno));
  }
  const auto t_connected = Clock::now();
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return fail_at(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  const auto t_sent = Clock::now();
  Clock::time_point t_first{};
  std::string wire;
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      return fail_at(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) break;
    if (wire.empty()) t_first = Clock::now();
    wire.append(chunk, static_cast<std::size_t>(n));
  }
  const auto t_last = Clock::now();
  ::close(fd);
  HttpReply out = parse_reply(wire);
  out.start = fail.start;
  out.connected = t_connected;
  out.sent = t_sent;
  out.first_byte = wire.empty() ? t_last : t_first;
  out.last_byte = t_last;
  return out;
}

std::string num(double v) { return msehsim::format_double(v); }

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " +
           (std::isfinite(m.value) ? num(m.value) : std::string("null")) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

HostCpu host_cpu() {
  HostCpu out;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return out;
  // cpu  user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const auto x : v) out.total += x;
    out.steal = v[7];
  }
  std::fclose(f);
  return out;
}

}  // namespace perfbench
