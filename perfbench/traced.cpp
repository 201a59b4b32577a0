// Traced runs: each workload replayed as a sequence of calls into each
// layer's public functions, with a benchmark-side span around every call.
// They report the per-layer metrics (BENCHMARK.json "per_layer"); the
// end-to-end metrics come from the untraced runs in workloads.cpp.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "campaign/export.hpp"
#include "env/compiled_trace.hpp"
#include "obs/prometheus.hpp"
#include "serve/result_cache.hpp"
#include "serve/spec.hpp"
#include "systems/batch_runner.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using msehsim::Seconds;
namespace campaign = msehsim::campaign;
namespace serve = msehsim::serve;
namespace systems = msehsim::systems;

namespace {

double median_or_zero(const std::vector<double>& v) {
  return median(v).value_or(0.0);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Counters read from a campaign's metrics, summed over a repetition.
struct LayerCounts {
  double trace_compiles{0}, trace_hits{0}, trace_misses{0}, lane_blocks{0};
  double soa_steps{0}, soa_quiet{0}, soa_lane_steps{0}, soa_resident{0};
  double mpp_hits{0}, mpp_recomputes{0};
  double fault_injected{0}, failovers{0}, retry_retries{0};
  double json_bytes{0};

  void add(const campaign::Campaign& c, const msehsim::obs::MetricsSnapshot& m,
           std::size_t json_size) {
    const auto counter = [&](const char* name) {
      const auto* row = m.find(name);
      return row ? static_cast<double>(row->count) : 0.0;
    };
    trace_compiles += static_cast<double>(c.trace_compiles());
    trace_hits += static_cast<double>(c.trace_cache_stats().hits);
    trace_misses += static_cast<double>(c.trace_cache_stats().misses);
    lane_blocks += static_cast<double>(c.lane_blocks());
    soa_steps += counter("campaign.soa.steps");
    soa_quiet += counter("campaign.soa.quiet_steps");
    soa_lane_steps += counter("campaign.soa.lane_steps");
    soa_resident += counter("campaign.soa.resident_lane_steps");
    for (const auto& job : c.results()) {
      const auto& r = job.result;
      mpp_hits += static_cast<double>(r.mpp_cache_hits);
      mpp_recomputes += static_cast<double>(r.mpp_recomputes);
      fault_injected += static_cast<double>(r.faults.injected.total());
      failovers += static_cast<double>(r.faults.failovers);
      retry_retries += static_cast<double>(r.faults.retry_retries);
    }
    json_bytes += static_cast<double>(json_size);
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Median over interleaved pairs of traced[i] / untraced[i], minus 1. Each
/// pair ran back to back on one CPU, so host speed changes cancel.
double paired_overhead(const std::vector<double>& traced,
                       const std::vector<double>& untraced) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < std::min(traced.size(), untraced.size()); ++i)
    ratios.push_back(ratio(traced[i], untraced[i]));
  return median_or_zero(ratios) - 1.0;
}

/// The per-layer rows every workload reports (the result line's metrics).
struct LayerRows {
  double compile_ms{0}, build_us{0}, ns_per_lane_step{0};
  double run_ms{0}, export_ms{0}, metrics_ms{0}, residual_ms{0};
  double scrape_render_ms{0}, lint_ms{0}, trace_overhead_frac{0};
  double result_cache_hit_frac{0}, coalesced{0}, admission_rejected{0};
  double compiles{0}, trace_hits{0}, trace_misses{0};
  LayerCounts counts;  ///< one repetition's campaign counters
  std::string lane_steps_note;

  void emit(RunReport& report) const {
    const LayerCounts& c = counts;
    report.add("env.compile_ms", compile_ms, "ms", true,
               "median per CompiledTrace::compile");
    report.add("env.compiles", compiles, "count", true);
    report.add("env.trace_cache.hits", trace_hits, "count", true);
    report.add("env.trace_cache.misses", trace_misses, "count", true);
    report.add("systems.build_us", build_us, "us", true,
               "median per systems::build");
    report.add("systems.ns_per_lane_step", ns_per_lane_step, "ns", true,
               "BatchRunner::run time / lane-steps; " + lane_steps_note);
    report.add("systems.lane_blocks", c.lane_blocks, "count", true);
    report.add("systems.soa.resident_frac", ratio(c.soa_resident, c.soa_lane_steps),
               "ratio", true,
               "base: " + num(c.soa_lane_steps) + " SoA lane-steps");
    report.add("systems.soa.quiet_frac", ratio(c.soa_quiet, c.soa_steps), "ratio",
               true, "base: " + num(c.soa_steps) + " SoA block steps");
    report.add("harvest.mpp_cache_hit_frac",
               ratio(c.mpp_hits, c.mpp_hits + c.mpp_recomputes), "ratio", true,
               "base: " + num(c.mpp_hits + c.mpp_recomputes) +
                   " MPP lookups");
    report.add("fault.injected", c.fault_injected, "count", true);
    report.add("fault.failovers", c.failovers, "count", true);
    report.add("fault.retry_retries", c.retry_retries, "count", true);
    report.add("campaign.run_ms", run_ms, "ms", true);
    report.add("campaign.export_ms", export_ms, "ms", true, "results_json");
    report.add("campaign.metrics_ms", metrics_ms, "ms", true,
               "Campaign::metrics");
    report.add("campaign.json_bytes", c.json_bytes, "bytes", true);
    report.add("campaign.residual_ms", residual_ms, "ms", true,
               "run_ms - (compile + build + batch run) of the replay");
    report.add("serve.result_cache.hit_frac", result_cache_hit_frac, "ratio",
               true);
    report.add("serve.coalesced_waits", coalesced, "count", true);
    report.add("serve.admission_rejected", admission_rejected, "count", true);
    report.add("obs.scrape_render_ms", scrape_render_ms, "ms", true);
    report.add("obs.lint_ms", lint_ms, "ms", true, "obs::prometheus_lint");
    report.add("obs.trace_overhead_frac", trace_overhead_frac, "ratio", true,
               "median over interleaved pairs of (replay with spans / the "
               "same replay without) - 1");
  }
};

void write_spans(const Options& opt, const SpanRecorder& spans,
                 RunReport& report) {
  const auto path = fs::path(opt.work_dir) /
                    ("spans-" + opt.workload + "-" + std::to_string(opt.seed) +
                     ".json");
  std::ofstream(path) << spans.json();
  report.lines.push_back("spans: " + std::to_string(spans.size()) +
                         " written to " + path.string());
}

// ---------------------------------------------------------------------------
// paper-grid / week-faulted
// ---------------------------------------------------------------------------

/// Replays one unit's lanes layer by layer (compile, build, injectors,
/// BatchRunner) and returns to_string of every lane in grid order. With a
/// null @p spans the same calls run unrecorded.
std::vector<std::string> replay_unit(const GridUnit& unit,
                                     const std::string& schedule_csv,
                                     SpanRecorder* spans, std::uint64_t parent,
                                     std::uint64_t request,
                                     std::uint64_t& lane_steps) {
  const std::size_t n_kinds = unit.kinds.size(), n_seeds = unit.seeds.size();
  std::vector<std::string> lanes(unit.platforms.size() * n_kinds * n_seeds);
  std::unique_ptr<msehsim::fault::Schedule> schedule;
  if (!schedule_csv.empty()) {
    ScopedSpan s(spans, "fault.schedule_parse", parent, request);
    schedule = std::make_unique<msehsim::fault::Schedule>(
        msehsim::fault::Schedule::parse(schedule_csv, "week-faulted"));
  }
  for (std::size_t s = 0; s < n_kinds; ++s) {
    for (std::size_t k = 0; k < n_seeds; ++k) {
      const std::uint64_t seed = unit.seeds[k];
      std::shared_ptr<const msehsim::env::CompiledTrace> trace;
      {
        ScopedSpan span(spans, "env.compile", parent, request);
        auto source = make_environment(unit.kinds[s], seed);
        trace = msehsim::env::CompiledTrace::compile(
            *source, Seconds{unit.dt_s}, Seconds{unit.duration_s});
      }
      std::vector<std::unique_ptr<systems::Platform>> platforms;
      std::vector<std::unique_ptr<msehsim::fault::FaultInjector>> injectors;
      for (const auto& name : unit.platforms) {
        {
          ScopedSpan span(spans, "systems.build", parent, request);
          platforms.push_back(make_platform(name, seed));
        }
        if (schedule) {
          ScopedSpan span(spans, "fault.build_injector", parent, request);
          injectors.push_back(
              schedule->build_injector(seed, platforms.back()->fault_targets()));
        }
      }
      systems::RunOptions options;
      options.dt = Seconds{unit.dt_s};
      std::vector<systems::RunResult> results;
      {
        ScopedSpan span(spans, "systems.batch_run", parent, request);
        systems::BatchRunner runner(trace, Seconds{unit.duration_s}, options);
        for (std::size_t p = 0; p < platforms.size(); ++p)
          runner.add_lane(*platforms[p],
                          injectors.empty() ? nullptr : injectors[p].get());
        results = runner.run();
      }
      lane_steps += trace->step_count() * platforms.size();
      for (std::size_t p = 0; p < results.size(); ++p)
        lanes[(p * n_kinds + s) * n_seeds + k] = systems::to_string(results[p]);
    }
  }
  return lanes;
}

RunReport run_traced_campaigns(const Options& opt) {
  RunReport report;
  CpuRotation cpus;
  const CampaignSetup setup = set_up_campaigns(opt, cpus);
  SpanRecorder spans;

  std::vector<double> untraced_ms, traced_ms, run_ms, export_ms, metrics_ms,
      render_ms, lint_ms;
  std::uint64_t untraced_lane_steps = 0;
  std::uint64_t lane_steps = 0;
  LayerRows rows;
  const auto window_start = Clock::now();
  while (untraced_ms.empty() ||
         ms_between(window_start, Clock::now()) < opt.seconds * 1e3) {
    ++report.attempted;
    cpus.pin(untraced_ms.size());
    try {
      // The same replay without a recorder, paired with the traced one
      // (before it on odd iterations, after it on even ones, so neither
      // side always runs first): their time ratio is what the spans cost.
      std::vector<std::vector<std::string>> untraced_lanes, traced_lanes;
      const auto untraced_replay = [&] {
        const auto t0 = Clock::now();
        for (const auto& unit : setup.units)
          untraced_lanes.push_back(replay_unit(unit, setup.schedule_csv, nullptr,
                                               0, 0, untraced_lane_steps));
        untraced_ms.push_back(ms_between(t0, Clock::now()));
      };
      const bool untraced_first = report.attempted % 2 == 1;
      if (untraced_first) untraced_replay();

      const std::uint64_t request = spans.next_request();
      ScopedSpan iteration(&spans, "iteration", 0, request);
      double rep_run = 0.0, rep_export = 0.0, rep_metrics = 0.0,
             rep_render = 0.0, rep_lint = 0.0;
      LayerCounts counts;
      std::string bad;
      std::uint64_t digest = fnv1a("");
      double rep_replay = 0.0;
      for (std::size_t u = 0; u < setup.units.size(); ++u) {
        const auto t_replay = Clock::now();
        traced_lanes.push_back(replay_unit(setup.units[u], setup.schedule_csv,
                                           &spans, iteration.id(), request,
                                           lane_steps));
        rep_replay += ms_between(t_replay, Clock::now());
        const auto& lanes = traced_lanes.back();

        const auto t_run = Clock::now();
        campaign::Campaign c(setup.specs[u]);
        c.run();
        const auto t_export = Clock::now();
        const std::string json = campaign::results_json(c);
        const auto t_metrics = Clock::now();
        const msehsim::obs::MetricsSnapshot m = c.metrics();
        const auto t_render = Clock::now();
        const std::string text = msehsim::obs::prometheus_text(m);
        const auto t_lint = Clock::now();
        const std::string lint = msehsim::obs::prometheus_lint(text);
        const auto t_end = Clock::now();
        spans.add("campaign.run", t_run, t_export, iteration.id(), request);
        spans.add("campaign.export", t_export, t_metrics, iteration.id(), request);
        spans.add("campaign.metrics", t_metrics, t_render, iteration.id(), request);
        spans.add("obs.scrape_render", t_render, t_lint, iteration.id(), request);
        spans.add("obs.lint", t_lint, t_end, iteration.id(), request);
        rep_run += ms_between(t_run, t_export);
        rep_export += ms_between(t_export, t_metrics);
        rep_metrics += ms_between(t_metrics, t_render);
        rep_render += ms_between(t_render, t_lint);
        rep_lint += ms_between(t_lint, t_end);
        counts.add(c, m, json.size());

        if (!lint.empty()) bad = "prometheus_lint: " + lint;
        const auto& jobs = c.results();
        for (std::size_t i = 0; i < jobs.size(); ++i) {
          const std::string job = systems::to_string(jobs[i].result);
          digest = fnv1a(job, digest);
          if (job != lanes[i])
            bad = "replayed lane " + std::to_string(i) +
                  " differs from the campaign's job";
          if (!(jobs[i].result.ledger.relative_residual() < kResidualLimit))
            bad = "ledger relative residual >= 1e-9";
        }
        if (opt.inject == "body" && report.attempted == 1)
          bad = "injected corruption";
      }
      if (!untraced_first) untraced_replay();
      if (traced_lanes != untraced_lanes) bad = "traced and untraced replays differ";
      if (run_ms.empty() && !check_digest(opt, digest, report))
        bad = "digest mismatch";
      traced_ms.push_back(rep_replay);
      run_ms.push_back(rep_run);
      export_ms.push_back(rep_export);
      metrics_ms.push_back(rep_metrics);
      render_ms.push_back(rep_render);
      lint_ms.push_back(rep_lint);
      rows.counts = counts;
      if (!bad.empty()) {
        ++report.failed;
        report.fail(bad);
      }
    } catch (const std::exception& e) {
      ++report.failed;
      report.fail(std::string("exception: ") + e.what());
      break;
    }
  }

  // Closure: what the campaign spent beyond the replayed layer calls of the
  // same work, per repetition (scheduling, leak detection, result assembly).
  const double per_rep = 1.0 / static_cast<double>(run_ms.size());
  const double layer_ms = (sum(spans.durations("env.compile")) +
                           sum(spans.durations("systems.build")) +
                           sum(spans.durations("fault.build_injector")) +
                           sum(spans.durations("systems.batch_run"))) *
                          per_rep;
  rows.compile_ms = median_or_zero(spans.durations("env.compile"));
  rows.build_us = median_or_zero(spans.durations("systems.build")) * 1e3;
  rows.ns_per_lane_step =
      sum(spans.durations("systems.batch_run")) * 1e6 / static_cast<double>(lane_steps);
  rows.lane_steps_note = std::to_string(lane_steps) + " lane-steps replayed";
  rows.run_ms = median_or_zero(run_ms);
  rows.export_ms = median_or_zero(export_ms);
  rows.metrics_ms = median_or_zero(metrics_ms);
  rows.residual_ms = sum(run_ms) * per_rep - layer_ms;
  rows.scrape_render_ms = median_or_zero(render_ms);
  rows.lint_ms = median_or_zero(lint_ms);
  rows.trace_overhead_frac = paired_overhead(traced_ms, untraced_ms);
  rows.compiles = rows.counts.trace_compiles;
  rows.trace_hits = rows.counts.trace_hits;
  rows.trace_misses = rows.counts.trace_misses;
  rows.emit(report);

  report.lines.push_back("repetitions: " + std::to_string(run_ms.size()) +
                         " traced, " + std::to_string(untraced_ms.size()) +
                         " untraced replays");
  if (!setup.schedule_csv.empty()) {
    report.add("fault.schedule_parse_us",
               median_or_zero(spans.durations("fault.schedule_parse")) * 1e3,
               "us", false, "week-faulted only");
    report.add("fault.build_injector_us",
               median_or_zero(spans.durations("fault.build_injector")) * 1e3,
               "us", false, "week-faulted only");
  }
  report.add("campaign.replay_layers_ms", layer_ms, "ms", false,
             "compile + build + injectors + batch run, per repetition");
  write_spans(opt, spans, report);
  return report;
}

// ---------------------------------------------------------------------------
// daemon-mix
// ---------------------------------------------------------------------------

/// The handler's public steps for one request, in-process, against a
/// benchmark-owned result cache and trace cache; recorded into @p spans
/// unless it is null.
struct HandlerReplay {
  serve::ResultCache results;
  std::shared_ptr<msehsim::env::TraceCache> traces;
  SpanRecorder* spans;

  /// Returns the response body; @p cls is the class the request must take.
  std::string replay(const std::string& body, ReqClass cls, std::uint64_t request,
                     std::unique_ptr<campaign::Campaign>& ran) {
    const std::string tag = std::string(".") + class_name(cls);
    ScopedSpan root(spans, std::string("replay") + tag, 0, request);
    const auto step = [&](const char* name) {
      return ScopedSpan(spans, std::string(name) + tag, root.id(), request);
    };
    serve::CampaignRequest parsed;
    {
      auto s = step("serve.parse");
      parsed = serve::parse_campaign_request(body);
    }
    std::string canonical;
    {
      auto s = step("serve.canonical");
      canonical = serve::canonical_form(parsed);
    }
    std::shared_ptr<const std::string> cached;
    {
      auto s = step("serve.result_cache.load");
      cached = results.load(canonical);
    }
    if (cached) {
      if (cls != ReqClass::kHit)
        throw std::runtime_error("replayed miss found in the result cache");
      return *cached;
    }
    if (cls == ReqClass::kHit)
      throw std::runtime_error("replayed hit missed the result cache");
    campaign::CampaignSpec spec;
    {
      auto s = step("serve.to_spec");
      spec = serve::to_campaign_spec(parsed, traces, 1);
    }
    {
      auto s = step("campaign.run");
      ran = std::make_unique<campaign::Campaign>(std::move(spec));
      ran->run();
    }
    std::string out;
    {
      auto s = step("campaign.export");
      out = campaign::results_json(*ran);
    }
    {
      auto s = step("campaign.metrics");
      (void)ran->metrics();
    }
    {
      auto s = step("serve.result_cache.store");
      results.store(canonical, out);
    }
    return out;
  }
};

/// One cold, one warm and one hit request replayed in-process on a fresh
/// seed, with the checks that they took their intended paths.
struct ReplayTriple {
  MixSpec cold;
  std::unique_ptr<campaign::Campaign> cold_run;
  std::string cold_body;
  double ms{0.0};  ///< wall time of the three replays
};

ReplayTriple replay_triple(HandlerReplay& handler, const MixSpec& sample,
                           SplitMix64& seeds, std::uint64_t request,
                           std::string& bad) {
  ReplayTriple out;
  out.cold = sample;
  out.cold.seed = seeds.next() >> 32;
  MixSpec warm = out.cold;  // same trace, another study
  warm.platforms = {out.cold.platforms.front() == "system-c" ? "system-d"
                                                              : "system-c"};
  std::unique_ptr<campaign::Campaign> warm_run, hit_run;
  const auto t0 = Clock::now();
  // The shared trace cache's counters are lifetime totals: compare deltas
  // to prove the cold replay compiled and the warm one mapped.
  const auto before = handler.traces->stats();
  out.cold_body = handler.replay(mix_body(out.cold, 0), ReqClass::kCold,
                                 request, out.cold_run);
  const auto after_cold = handler.traces->stats();
  (void)handler.replay(mix_body(warm, 0), ReqClass::kWarm, request, warm_run);
  const auto after_warm = handler.traces->stats();
  const std::string hit_body =
      handler.replay(mix_body(out.cold, 1), ReqClass::kHit, request, hit_run);
  out.ms = ms_between(t0, Clock::now());
  if (hit_body != out.cold_body) bad = "replayed hit body differs from its miss";
  if (after_cold.misses != before.misses + 1 || after_cold.hits != before.hits ||
      after_warm.hits != after_cold.hits + 1)
    bad = "replayed cold/warm requests did not miss/hit the trace cache";
  return out;
}

RunReport run_traced_daemon(const Options& opt) {
  RunReport report;
  MixSetup setup = set_up_mix(opt);
  SpanRecorder spans;
  // Half the window is client traffic with client-side spans on every
  // request; the other half replays the handler's steps in-process.
  const MixTraffic traffic =
      drive_mix(setup.plan, *setup.fixture, opt, opt.seconds / 2.0, &spans);
  const MixCounts counts =
      verify_mix(setup.plan, traffic, *setup.fixture, opt, report);

  const std::string replay_dir =
      (fs::path(opt.work_dir) / ("replay-" + std::to_string(::getpid()))).string();
  fs::remove_all(replay_dir);
  HandlerReplay handler{serve::ResultCache{},
                        std::make_shared<msehsim::env::TraceCache>(replay_dir),
                        nullptr};
  msehsim::env::TraceCache env_cache(replay_dir + "/env");

  // Replay studies: the kind and platforms of the plan's first cold
  // request, on fresh seeds (so each cold replay really compiles).
  const MixSpec* sample = nullptr;
  for (const auto& r : setup.plan.requests)
    if (r.cls == ReqClass::kCold) {
      sample = &setup.plan.specs[r.spec];
      break;
    }
  SplitMix64 replay_seeds(opt.seed ^ 0x7265706c6179ull);  // "replay"
  std::vector<double> residual_ms, traced_triple_ms, untraced_triple_ms;
  std::uint64_t lane_steps = 0;
  LayerRows rows;
  const auto window_start = Clock::now();
  int iterations = 0;
  while (iterations == 0 ||
         ms_between(window_start, Clock::now()) < opt.seconds * 5e2) {
    ++iterations;
    ++report.attempted;
    try {
      std::string bad;
      // The same three replays without a recorder, paired with the traced
      // ones (alternately before and after them): their time ratio is what
      // the benchmark's spans cost.
      const auto untraced_triple = [&] {
        handler.spans = nullptr;
        untraced_triple_ms.push_back(
            replay_triple(handler, *sample, replay_seeds, 0, bad).ms);
      };
      const bool untraced_first = iterations % 2 == 1;
      if (untraced_first) untraced_triple();
      const std::uint64_t request = spans.next_request();
      handler.spans = &spans;
      const ReplayTriple triple =
          replay_triple(handler, *sample, replay_seeds, request, bad);
      traced_triple_ms.push_back(triple.ms);
      if (!untraced_first) untraced_triple();
      const MixSpec& cold = triple.cold;
      const auto& cold_run = triple.cold_run;
      const std::string& cold_body = triple.cold_body;

      // The env and systems layers under the cold study, called directly.
      std::shared_ptr<const msehsim::env::CompiledTrace> trace;
      {
        ScopedSpan s(&spans, "env.compile", 0, request);
        trace = msehsim::env::CompiledTrace::compile(
            *make_environment(cold.kind, cold.seed), Seconds{kMixDtS},
            Seconds{kMixDurationS});
      }
      const msehsim::env::TraceCacheKey key = mix_trace_key(cold);
      {
        ScopedSpan s(&spans, "env.trace_cache.store", 0, request);
        env_cache.store(key, *trace);
      }
      {
        ScopedSpan s(&spans, "env.trace_cache.load", 0, request);
        if (!env_cache.load(key)) bad = "trace cache lost a stored trace";
      }
      std::vector<std::unique_ptr<systems::Platform>> platforms;
      const auto t_build = Clock::now();
      for (const auto& name : cold.platforms) {
        ScopedSpan s(&spans, "systems.build", 0, request);
        platforms.push_back(make_platform(name, cold.seed));
      }
      const double build_ms = ms_between(t_build, Clock::now());
      std::vector<systems::RunResult> lanes;
      {
        ScopedSpan s(&spans, "systems.batch_run", 0, request);
        systems::RunOptions options;
        options.dt = Seconds{kMixDtS};
        systems::BatchRunner runner(trace, Seconds{kMixDurationS}, options);
        for (auto& p : platforms) runner.add_lane(*p);
        lanes = runner.run();
      }
      lane_steps += trace->step_count() * platforms.size();
      const auto& jobs = cold_run->results();
      for (std::size_t i = 0; i < jobs.size(); ++i)
        if (systems::to_string(jobs[i].result) != systems::to_string(lanes[i]))
          bad = "replayed lane differs from the campaign's job";
      const auto last = [&](const char* name) {
        return spans.durations(name).back();
      };
      residual_ms.push_back(last("campaign.run.cold") - last("env.compile") -
                            build_ms - last("systems.batch_run"));

      // The scrape the daemon serves, rendered and linted in-process.
      std::string text;
      {
        ScopedSpan s(&spans, "obs.scrape_render", 0, request);
        text = setup.fixture->daemon->scrape();
      }
      {
        ScopedSpan s(&spans, "obs.lint", 0, request);
        if (const std::string lint = msehsim::obs::prometheus_lint(text);
            !lint.empty())
          bad = "prometheus_lint: " + lint;
      }
      rows.counts = LayerCounts{};
      rows.counts.add(*cold_run, cold_run->metrics(), cold_body.size());
      if (opt.inject == "body" && iterations == 1) bad = "injected corruption";
      if (!bad.empty()) {
        ++report.failed;
        report.fail(bad);
      }
    } catch (const std::exception& e) {
      ++report.failed;
      report.fail(std::string("exception: ") + e.what());
      break;
    }
  }
  fs::remove_all(replay_dir);

  const auto d = [&](const std::string& name) {
    return median_or_zero(spans.durations(name));
  };
  rows.compile_ms = d("env.compile");
  rows.build_us = d("systems.build") * 1e3;
  rows.ns_per_lane_step =
      sum(spans.durations("systems.batch_run")) * 1e6 / static_cast<double>(lane_steps);
  rows.lane_steps_note = std::to_string(lane_steps) + " lane-steps replayed";
  rows.run_ms = d("campaign.run.cold");
  rows.export_ms = d("campaign.export.cold");
  rows.metrics_ms = d("campaign.metrics.cold");
  rows.residual_ms = median_or_zero(residual_ms);
  rows.scrape_render_ms = d("obs.scrape_render");
  rows.lint_ms = d("obs.lint");
  rows.trace_overhead_frac =
      paired_overhead(traced_triple_ms, untraced_triple_ms);
  rows.result_cache_hit_frac =
      ratio(static_cast<double>(counts.result_cache_hits),
            static_cast<double>(counts.result_cache_hits + counts.result_cache_misses));
  rows.coalesced = counts.coalesced;
  rows.admission_rejected = counts.admission_rejected;
  rows.compiles = counts.trace_misses;
  rows.trace_hits = counts.trace_hits;
  rows.trace_misses = counts.trace_misses;
  rows.emit(report);

  // Daemon-only rows: the handler's steps per class, the client spans, and
  // what the socket path adds beyond the in-process steps.
  report.lines.push_back("replay iterations: " + std::to_string(iterations));
  const char* steps[] = {"serve.parse", "serve.canonical",
                         "serve.result_cache.load", "serve.to_spec",
                         "campaign.run", "campaign.export", "campaign.metrics",
                         "serve.result_cache.store"};
  for (const ReqClass cls : {ReqClass::kHit, ReqClass::kWarm, ReqClass::kCold}) {
    const std::string tag = std::string(".") + class_name(cls);
    double in_process_ms = 0.0;
    for (const char* step : steps) {
      const auto samples = spans.durations(std::string(step) + tag);
      if (samples.empty()) continue;
      const double m = median_or_zero(samples);
      in_process_ms += m;
      const bool us = std::string(step).rfind("serve.", 0) == 0;
      report.add(std::string(step) + (us ? "_us" : "_ms") + tag, us ? m * 1e3 : m,
                 us ? "us" : "ms", false, "n=" + std::to_string(samples.size()));
    }
    const auto latency = class_latencies(setup.plan, traffic, cls);
    report.add("serve.ttfb_ms" + tag,
               median_or_zero(spans.durations("serve.ttfb" + tag)), "ms", false,
               "client span");
    report.add("serve.residual_ms" + tag, median_or_zero(latency) - in_process_ms,
               "ms", false,
               "latency p50 - sum of in-process step medians (socket, HTTP "
               "framing, queueing, locks)");
  }
  report.add("serve.connect_us", d("serve.connect") * 1e3, "us", false,
             "client span");
  report.add("env.trace_cache.load_us", d("env.trace_cache.load") * 1e3, "us",
             false, "daemon-mix only");
  report.add("env.trace_cache.store_ms", d("env.trace_cache.store"), "ms", false,
             "daemon-mix only");
  write_spans(opt, spans, report);
  return report;
}

}  // namespace

RunReport run_traced(const Options& opt) {
  return opt.workload == "daemon-mix" ? run_traced_daemon(opt)
                                      : run_traced_campaigns(opt);
}

}  // namespace perfbench
