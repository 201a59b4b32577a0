// msehsim_perf: the benchmark binary. run.py builds it and forwards the
// benchmark's arguments; see NOTES.md for the workloads and metrics.
//
//   msehsim_perf run --workload W --seed N --seconds S --trace 0|1
//                    --work-dir DIR --expected FILE [--inject digest|body]
//   msehsim_perf inputs --workload W --seed N     (dump generated inputs)
//   msehsim_perf selftest --work-dir DIR
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "core/fmt.hpp"
#include "workloads.hpp"

namespace perfbench {
int run_selftests(const std::string& work_dir);
}

namespace {

using perfbench::Options;
using perfbench::RunReport;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "msehsim_perf: %s\n", why);
  std::exit(2);
}

void print_context(const Options& opt) {
  std::printf("# context: build_type=%s flags=\"%s\" compiler=\"%s\" nproc=%u "
              "obs_compiled_in=%d\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, PERFBENCH_COMPILER,
              std::thread::hardware_concurrency(), PERFBENCH_OBS);
  if (opt.workload == "daemon-mix")
    std::printf("# context: workload=daemon-mix http_workers=2 "
                "campaign_threads=1 max_concurrent_campaigns=2 "
                "client_threads=2 (closed loop) lane_width=8\n");
  else
    std::printf("# context: workload=%s campaign_threads=1 lane_width=8 "
                "compile_traces=on trace_cache=off\n",
                opt.workload.c_str());
  std::printf("# context: seed=%llu seconds=%s trace=%d\n",
              static_cast<unsigned long long>(opt.seed),
              perfbench::num(opt.seconds).c_str(), opt.trace ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing command (run | inputs | selftest)");
  const std::string command = argv[1];
  Options opt;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      const auto v = msehsim::parse_unsigned(value);
      if (!v) usage("--seed must be an unsigned integer");
      opt.seed = *v;
    } else if (flag == "--seconds") {
      const auto v = msehsim::parse_double(value);
      if (!v || !(*v > 0.0)) usage("--seconds must be a positive number");
      opt.seconds = *v;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--expected") {
      opt.expected_path = value;
    } else if (flag == "--inject") {
      opt.inject = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }

  try {
    if (command == "selftest") return perfbench::run_selftests(opt.work_dir);
    if (opt.workload != "paper-grid" && opt.workload != "week-faulted" &&
        opt.workload != "daemon-mix")
      usage("--workload must be paper-grid, week-faulted or daemon-mix");
    if (command == "inputs") {
      std::fputs(perfbench::describe_inputs(opt.workload, opt.seed).c_str(),
                 stdout);
      return 0;
    }
    if (command != "run") usage("unknown command");
    if (opt.expected_path.empty()) usage("--expected is required");
    print_context(opt);
    std::fflush(stdout);
    const perfbench::HostCpu cpu_before = perfbench::host_cpu();
    const RunReport report =
        opt.trace ? perfbench::run_traced(opt)
                  : opt.workload == "daemon-mix" ? perfbench::run_daemon_mix(opt)
                                                 : perfbench::run_campaign_workload(opt);
    for (const auto& line : report.lines) std::printf("# %s\n", line.c_str());
    // Steal time is the host running other guests on this VM's CPUs: the
    // usual cause when the same workload is slower in one run than another.
    const perfbench::HostCpu cpu_after = perfbench::host_cpu();
    if (cpu_after.total > cpu_before.total)
      std::printf("# context: host steal during the run = %.1f%% of CPU time\n",
                  100.0 * static_cast<double>(cpu_after.steal - cpu_before.steal) /
                      static_cast<double>(cpu_after.total - cpu_before.total));
    for (const auto& e : report.errors) {
      std::printf("# FAILED: %s\n", e.c_str());
      std::fprintf(stderr, "msehsim_perf: FAILED: %s\n", e.c_str());
    }
    std::printf("%s\n", perfbench::result_line(report.correct, report.attempted,
                                                report.failed, report.metrics)
                            .c_str());
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "msehsim_perf: %s\n", e.what());
    return 2;
  }
}
