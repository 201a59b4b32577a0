// Layer attribution — where a lane-step of the paper's workload spends its
// time, stage by stage.
//
//   bench_layers [--seeds N] [--reps R]
//
// The grid is the seven Table I platforms x {outdoor, indoor-industrial} x
// seeds 1..N (default 3), one simulated day at dt 5 s: each
// (scenario, seed) trace is compiled once and its seven platforms run as one
// block of the batched lane kernel (systems::BatchRunner), as a campaign at
// lane width 8 runs them. Each repetition runs every block twice on freshly
// built platforms, once untimed (BatchRunner::run) and once timed
// (BatchRunner::run(obs::StageClock&)), and exits 1 if the two runs' results
// differ by a byte.
//
// Output is CSV on stdout after `#` comment lines:
//   stage,calls,ns_q1,ns_median,ns_q3
// with calls per repetition and nanoseconds per lane-step (quartiles over
// the repetitions) for every obs::Stage, then these summary rows:
//   stages_raw     the stages added up as timed
//   lap_cost       the timer's own share of stages_raw: calls times the cost
//                  of one clock read and update, measured back to back
//   stages_sum     stages_raw - lap_cost; every stage row above is likewise
//                  net of its calls' lap cost
//   timed_total    the timed runs' wall time
//   untimed_total  the untimed runs' wall time
//   residual       untimed_total - stages_sum: the closure residual, the
//                  step time the stages do not explain
// Ticks become nanoseconds through the ratio of each timed run's wall time to
// its tick count. Wall-clock numbers depend on the host; only the calls and
// the inequality stages_raw <= timed_total are fixed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/fmt.hpp"
#include "env/compiled_trace.hpp"
#include "env/environment.hpp"
#include "obs/stage_timer.hpp"
#include "systems/batch_runner.hpp"
#include "systems/catalog.hpp"
#include "systems/runner.hpp"

using namespace msehsim;

namespace {

using Clock = std::chrono::steady_clock;

struct Block {
  std::string scenario;
  std::uint64_t seed{0};
  std::shared_ptr<const env::CompiledTrace> trace;
};

struct Run {
  std::vector<std::string> results;  ///< to_string of every lane's RunResult
  double wall_ns{0.0};
  std::uint64_t ticks{0};
  std::uint64_t lane_steps{0};
};

systems::RunOptions options() {
  systems::RunOptions o;
  o.dt = Seconds{5.0};
  return o;
}

/// Runs @p block's seven platforms, timed into @p clock when it is non-null.
Run run_block(const Block& block, Seconds duration, obs::StageClock* clock) {
  auto platforms = systems::build_all_surveyed(block.seed);
  systems::BatchRunner runner(block.trace, duration, options());
  for (auto& p : platforms) runner.add_lane(*p);
  Run run;
  const auto wall0 = Clock::now();
  const std::uint64_t tick0 = obs::StageClock::read();
  const auto results = clock != nullptr ? runner.run(*clock) : runner.run();
  run.ticks = obs::StageClock::read() - tick0;
  run.wall_ns = std::chrono::duration<double, std::nano>(Clock::now() - wall0)
                    .count();
  run.lane_steps = block.trace->step_count() * platforms.size();
  for (const auto& r : results) run.results.push_back(systems::to_string(r));
  return run;
}

/// Ticks one lap costs the clock itself: a read and the bookkeeping, with
/// nothing between two laps.
double lap_ticks() {
  constexpr int kLaps = 1 << 20;
  obs::StageClock clock;
  auto mark = clock.start();
  for (int i = 0; i < kLaps; ++i)
    mark = clock.lap(obs::Stage::kAmbientDecode, mark);
  return static_cast<double>(clock.ticks(obs::Stage::kAmbientDecode)) / kLaps;
}

double quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

unsigned arg_or(int argc, char** argv, std::string_view flag, unsigned fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (flag != argv[i]) continue;
    const auto v = parse_unsigned(argv[i + 1]);
    if (!v || *v == 0 || *v > 1000) {
      std::fprintf(stderr, "bench_layers: %s needs an integer in [1, 1000]\n",
                   argv[i]);
      std::exit(2);
    }
    return static_cast<unsigned>(*v);
  }
  return fallback;
}

void row(const char* name, std::uint64_t calls, const std::vector<double>& ns) {
  std::printf("%s,%llu,%.2f,%.2f,%.2f\n", name,
              static_cast<unsigned long long>(calls), quantile(ns, 0.25),
              quantile(ns, 0.5), quantile(ns, 0.75));
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned seeds = arg_or(argc, argv, "--seeds", 3);
  const unsigned reps = arg_or(argc, argv, "--reps", 5);
  const Seconds duration{86400.0};

  std::vector<Block> blocks;
  for (const char* kind : {"outdoor", "indoor-industrial"}) {
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      auto environment = std::string_view(kind) == "outdoor"
                             ? env::Environment::outdoor(seed)
                             : env::Environment::indoor_industrial(seed);
      blocks.push_back({kind, seed,
                        env::CompiledTrace::compile(environment, options().dt,
                                                    duration)});
    }
  }

  // Per repetition: ns per lane-step of each stage and of the totals.
  std::vector<std::vector<double>> stage_ns(obs::kStageCount);
  std::vector<double> raw_ns, lap_ns, sum_ns, timed_ns, untimed_ns,
      residual_ns;
  std::vector<std::uint64_t> calls(obs::kStageCount, 0);
  for (unsigned rep = 0; rep < reps; ++rep) {
    const double lap = lap_ticks();
    obs::StageClock clock;
    double timed_wall = 0.0;
    double untimed_wall = 0.0;
    double ticks = 0.0;
    double lane_steps = 0.0;
    for (const Block& block : blocks) {
      const Run untimed = run_block(block, duration, nullptr);
      const Run timed = run_block(block, duration, &clock);
      if (timed.results != untimed.results) {
        std::fprintf(stderr,
                     "bench_layers: timed run of %s seed %llu differs from "
                     "the untimed run\n",
                     block.scenario.c_str(),
                     static_cast<unsigned long long>(block.seed));
        return 1;
      }
      untimed_wall += untimed.wall_ns;
      timed_wall += timed.wall_ns;
      ticks += static_cast<double>(timed.ticks);
      lane_steps += static_cast<double>(timed.lane_steps);
    }
    // Converts a stage's ticks to ns per lane-step.
    const double scale = timed_wall / ticks / lane_steps;
    double raw = 0.0;
    double laps = 0.0;
    for (std::size_t s = 0; s < obs::kStageCount; ++s) {
      const auto stage = static_cast<obs::Stage>(s);
      calls[s] = clock.calls(stage);
      const double stage_ticks = static_cast<double>(clock.ticks(stage));
      const double lap_share = static_cast<double>(calls[s]) * lap;
      stage_ns[s].push_back((stage_ticks - lap_share) * scale);
      raw += stage_ticks * scale;
      laps += lap_share * scale;
    }
    raw_ns.push_back(raw);
    lap_ns.push_back(laps);
    sum_ns.push_back(raw - laps);
    timed_ns.push_back(timed_wall / lane_steps);
    untimed_ns.push_back(untimed_wall / lane_steps);
    residual_ns.push_back(untimed_wall / lane_steps - (raw - laps));
  }

  std::printf(
      "# bench_layers: Table I A-G x {outdoor, indoor-industrial} x seeds "
      "1-%u x 1 day at dt 5 s, 7 lanes per trace, %u repetition(s)\n",
      seeds, reps);
  std::printf("# ns per lane-step, quartiles over repetitions; calls per "
              "repetition\n");
  std::printf("stage,calls,ns_q1,ns_median,ns_q3\n");
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    const std::string name(obs::stage_name(static_cast<obs::Stage>(s)));
    row(name.c_str(), calls[s], stage_ns[s]);
  }
  const std::uint64_t lane_steps = calls[static_cast<std::size_t>(
      obs::Stage::kLaneTail)];
  row("stages_raw", lane_steps, raw_ns);
  row("lap_cost", lane_steps, lap_ns);
  row("stages_sum", lane_steps, sum_ns);
  row("timed_total", lane_steps, timed_ns);
  row("untimed_total", lane_steps, untimed_ns);
  row("residual", lane_steps, residual_ns);
  return 0;
}
