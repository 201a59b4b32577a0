// Self-tests for the benchmark's own helpers (msehsim_perf selftest):
// the percentile helper's tail refusal and the raw-socket client's framing,
// offline and against a live daemon. selftest.py runs them together with
// the input-determinism and corruption checks.
#include <cstdio>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;
}

void percentile_tests() {
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of an odd sample");
  expect(median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median of an even sample");
  expect(!median({}), "median of nothing is refused");
  expect(!tail_percentile(ramp(99), 0.9), "p90 of 99 samples is refused");
  expect(tail_percentile(ramp(100), 0.9).has_value(),
         "p90 of 100 samples is reported");
  expect(!tail_percentile(ramp(999), 0.99), "p99 of 999 samples is refused");
  const auto p99 = tail_percentile(ramp(1000), 0.99);
  expect(p99 && *p99 > 989.0 && *p99 < 991.0, "p99 of 1..1000 is ~990");
}

void framing_tests() {
  const std::string post = format_request("POST", "/v1/campaign", "{\"a\": 1}");
  expect(post.find("Content-Length: 8\r\n") != std::string::npos,
         "POST carries the body's byte count");
  expect(post.find("Connection: close\r\n") != std::string::npos,
         "POST asks for Connection: close");
  expect(post.size() >= 12 && post.substr(post.size() - 12) == "\r\n\r\n{\"a\": 1}",
         "body follows the blank line exactly");
  const std::string get = format_request("GET", "/metrics", "");
  expect(get.find("Content-Length") == std::string::npos &&
             get.find("Connection: close\r\n\r\n") != std::string::npos,
         "GET has no body framing and ends its head with Connection: close");

  const std::string head =
      "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nConnection: close\r\n";
  expect(parse_reply(head + "Content-Length: 5\r\n\r\nhello").ok,
         "well-framed reply parses");
  expect(!parse_reply(head + "Content-Length: 6\r\n\r\nhello").ok,
         "Content-Length longer than the body is rejected");
  expect(!parse_reply(head + "Content-Length: 4\r\n\r\nhello").ok,
         "Content-Length shorter than the body is rejected");
  expect(!parse_reply(head + "\r\nhello").ok, "missing Content-Length is rejected");
  expect(!parse_reply("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello").ok,
         "missing Connection: close is rejected");
}

void live_tests(const std::string& work_dir) {
  DaemonFixture fixture(work_dir, 900);
  MixSpec spec{{"system-e"}, "office", 42, 0};
  const HttpReply miss = http_exchange(
      fixture.daemon->port(),
      format_request("POST", "/v1/campaign", mix_body(spec, 0)));
  expect(miss.ok && miss.status == 200 &&
             miss.headers.at("x-msehsim-result-cache") == "miss",
         "live POST is framed and misses");
  const HttpReply hit = http_exchange(
      fixture.daemon->port(),
      format_request("POST", "/v1/campaign", mix_body(spec, 2)));
  expect(hit.ok && hit.headers.at("x-msehsim-result-cache") == "hit" &&
             hit.body == miss.body,
         "a re-spelled body hits and returns the same bytes");
  const HttpReply scrape =
      http_exchange(fixture.daemon->port(), format_request("GET", "/metrics", ""));
  expect(scrape.ok && scrape.status == 200, "live GET /metrics is framed");
  expect(worst_residual_in_json(miss.body) < kResidualLimit,
         "ledger residual read back from the body");
}

}  // namespace

int run_selftests(const std::string& work_dir) {
  percentile_tests();
  framing_tests();
  live_tests(work_dir);
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
