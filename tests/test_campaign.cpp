// Campaign engine: deterministic grid ordering, thread-count invariance of
// every reported byte, MPP-cache exactness under faults, aggregate
// statistics, validation, and factory error propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <clocale>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "core/csv.hpp"
#include "core/error.hpp"
#include "env/environment.hpp"
#include "env/trace_cache.hpp"
#include "obs/prometheus.hpp"
#include "serve/json.hpp"
#include "fault/faulty_harvester.hpp"
#include "fault/injector.hpp"
#include "harvest/harvester.hpp"
#include "harvest/transducers.hpp"
#include "node/sensor_node.hpp"
#include "obs/trace.hpp"
#include "power/chain.hpp"
#include "power/converter.hpp"
#include "power/mppt.hpp"
#include "storage/supercapacitor.hpp"
#include "systems/catalog.hpp"
#include "systems/platform.hpp"
#include "systems/runner.hpp"

namespace msehsim::campaign {
namespace {

/// A deliberately small platform (one PV chain, one supercap, one node) so a
/// grid of short runs stays fast.
std::unique_ptr<systems::Platform> mini_platform() {
  systems::PlatformSpec spec;
  spec.name = "mini";
  spec.quiescent_current = Amps{2e-6};
  auto p = std::make_unique<systems::Platform>(spec);
  p->add_input(std::make_unique<power::InputChain>(
      std::make_unique<harvest::PvPanel>("pv", harvest::PvPanel::Params{}),
      std::make_unique<power::OracleMppt>(),
      power::Converter::smart_buck_boost("fe"), Seconds{5.0}));
  storage::Supercapacitor::Params sp;
  sp.main_capacitance = Farads{10.0};
  sp.slow_capacitance = Farads{0.0};
  sp.initial_voltage = Volts{3.0};
  p->add_storage(std::make_unique<storage::Supercapacitor>("buf", sp), 0);
  p->set_output(
      power::OutputChain(power::Converter::smart_buck_boost("out"), Volts{3.0}));
  p->set_node(std::make_unique<node::SensorNode>(
      "node", node::McuParams{}, node::RadioParams{}, node::WorkloadParams{}));
  return p;
}

EnvironmentFactory outdoor_factory() {
  return [](std::uint64_t seed) {
    return std::make_unique<env::Environment>(env::Environment::outdoor(seed));
  };
}

/// 2 platforms x 2 scenarios x 2 seeds of one simulated hour each.
CampaignSpec small_grid(unsigned threads) {
  CampaignSpec spec;
  spec.platforms.push_back(
      {"mini", [](std::uint64_t) { return mini_platform(); }});
  spec.platforms.push_back(
      {"mini2", [](std::uint64_t) { return mini_platform(); }});
  for (const char* name : {"hour-a", "hour-b"}) {
    Scenario sc;
    sc.name = name;
    sc.environment = outdoor_factory();
    sc.duration = Seconds{3600.0};
    sc.options.dt = Seconds{5.0};
    spec.scenarios.push_back(std::move(sc));
  }
  spec.seeds = {7, 11};
  spec.threads = threads;
  return spec;
}

/// A faulted scenario exercising the cache-invalidation path mid-run.
CampaignSpec faulted_grid(unsigned threads) {
  CampaignSpec spec;
  spec.platforms.push_back(
      {"mini", [](std::uint64_t) { return mini_platform(); }});
  Scenario sc;
  sc.name = "faulted";
  sc.environment = outdoor_factory();
  sc.duration = Seconds{7200.0};
  sc.options.dt = Seconds{5.0};
  sc.injector = [](std::uint64_t seed, systems::Platform& platform) {
    auto inj = std::make_unique<fault::FaultInjector>(seed);
    inj->harvester_intermittent(Seconds{600.0}, platform.input(0), 0.5);
    inj->harvester_heal(Seconds{3600.0}, platform.input(0));
    inj->harvester_stuck_short(Seconds{5400.0}, platform.input(0));
    return inj;
  };
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {3, 5, 9};
  spec.threads = threads;
  return spec;
}

std::vector<std::string> reports(const Campaign& c) {
  std::vector<std::string> out;
  for (const auto& job : c.results()) out.push_back(to_string(job.result));
  return out;
}

TEST(Campaign, ResultsComeBackInGridOrder) {
  Campaign c(small_grid(4));
  const auto& jobs = c.run();
  ASSERT_EQ(jobs.size(), 8u);
  std::size_t i = 0;
  for (std::size_t p = 0; p < 2; ++p)
    for (std::size_t s = 0; s < 2; ++s)
      for (std::size_t k = 0; k < 2; ++k, ++i) {
        EXPECT_EQ(jobs[i].platform_index, p);
        EXPECT_EQ(jobs[i].scenario_index, s);
        EXPECT_EQ(jobs[i].seed_index, k);
        EXPECT_EQ(jobs[i].seed, c.spec().seeds[k]);
        EXPECT_EQ(&c.at(p, s, k), &jobs[i]);
        EXPECT_GT(jobs[i].result.duration.value(), 0.0);
      }
}

TEST(Campaign, OneVsFourThreadsByteIdentical) {
  Campaign serial(small_grid(1));
  Campaign parallel(small_grid(4));
  serial.run();
  parallel.run();
  EXPECT_EQ(reports(serial), reports(parallel));
}

TEST(Campaign, FaultedRunsByteIdenticalAcrossThreadCounts) {
  Campaign serial(faulted_grid(1));
  Campaign parallel(faulted_grid(4));
  serial.run();
  parallel.run();
  const auto a = reports(serial);
  EXPECT_EQ(a, reports(parallel));
  // The schedule actually fired: the intermittent fault must show up.
  EXPECT_GT(serial.at(0, 0, 0).result.faults.harvester_faulted_steps, 0u);
}

TEST(Campaign, CachedMppMatchesFreshHarvestersUnderFaults) {
  // A long-lived faulted wrapper must answer every MPP query as a fresh
  // panel would. Drive the faulted grid's platform by hand through its fault
  // timeline (intermittent from 600 s, healed at 3600 s, stuck short from
  // 5400 s), shifted to midday so the panel is lit, and after every step
  // compare the wrapper's MPP against a panel built fresh for that step
  // under the same conditions. Each ambient sample is held for four steps,
  // so fault flips under unchanged conditions must show too.
  auto platform = mini_platform();
  power::InputChain& chain = platform->input(0);
  auto wrapper = std::make_unique<fault::FaultyHarvester>(
      chain.replace_harvester(std::make_unique<harvest::PvPanel>(
          "placeholder", harvest::PvPanel::Params{})),
      3);
  fault::FaultyHarvester& faulty = *wrapper;
  chain.replace_harvester(std::move(wrapper));
  env::Environment environment = env::Environment::outdoor(3);
  const Seconds dt{5.0};
  env::AmbientConditions c;
  int lit_steps = 0;
  for (int k = 0; k < 1440; ++k) {
    const Seconds now{43200.0 + k * dt.value()};
    if (k == 120) faulty.set_intermittent(0.5);
    if (k == 720) faulty.heal();
    if (k == 1080) faulty.stick_short();
    if (k % 4 == 0) c = environment.advance(now, dt * 4.0);
    platform->step(c, now, dt);
    harvest::PvPanel fresh("pv", harvest::PvPanel::Params{});
    fresh.set_conditions(c);
    if (fresh.maximum_power_point().p.value() > 0.0) ++lit_steps;
    const harvest::OperatingPoint want = faulty.producing()
                                             ? fresh.maximum_power_point()
                                             : harvest::OperatingPoint{};
    const harvest::OperatingPoint got = faulty.maximum_power_point();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.v.value()),
              std::bit_cast<std::uint64_t>(want.v.value()))
        << "step " << k;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.i.value()),
              std::bit_cast<std::uint64_t>(want.i.value()))
        << "step " << k;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.p.value()),
              std::bit_cast<std::uint64_t>(want.p.value()))
        << "step " << k;
  }
  EXPECT_EQ(lit_steps, 1440);
  EXPECT_GT(faulty.faulted_steps(), 0u);

  // In the campaign itself every job solves; the published hit counter has
  // no cache behind it and reads 0. The reports' thread invariance is
  // FaultedRunsByteIdenticalAcrossThreadCounts.
  Campaign campaign(faulted_grid(2));
  campaign.run();
  for (const auto& job : campaign.results()) {
    EXPECT_EQ(job.result.mpp_cache_hits, 0u);
    EXPECT_GT(job.result.mpp_recomputes, 0u);
  }
}

TEST(Campaign, SeedStatsMatchHandComputedAggregates) {
  Campaign c(small_grid(2));
  c.run();
  const auto stats = c.seed_stats(0, 0);
  ASSERT_EQ(stats.size(), run_result_fields().size());
  for (std::size_t f = 0; f < stats.size(); ++f) {
    const auto get = run_result_fields()[f].get;
    const double a = get(c.at(0, 0, 0).result);
    const double b = get(c.at(0, 0, 1).result);
    const double mean = (a + b) / 2.0;
    EXPECT_DOUBLE_EQ(stats[f].mean, mean) << run_result_fields()[f].name;
    EXPECT_DOUBLE_EQ(stats[f].min, std::min(a, b));
    EXPECT_DOUBLE_EQ(stats[f].max, std::max(a, b));
    EXPECT_NEAR(stats[f].stddev, std::fabs(a - mean), 1e-12);
  }
}

TEST(Campaign, FieldStatsHandChecked) {
  std::vector<JobResult> jobs(3);
  jobs[0].result.harvested = Joules{1.0};
  jobs[1].result.harvested = Joules{2.0};
  jobs[2].result.harvested = Joules{6.0};
  const auto s = field_stats(
      jobs, [](const systems::RunResult& r) { return r.harvested.value(); });
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  // Population stddev: sqrt(((1-3)^2 + (2-3)^2 + (6-3)^2) / 3).
  EXPECT_NEAR(s.stddev, std::sqrt(14.0 / 3.0), 1e-12);
}

TEST(Campaign, FieldTableCoversEveryReportLine) {
  // Every name in the field table must appear as a key in the canonical
  // to_string(RunResult) report (and the table stays in report order).
  const systems::RunResult r{};
  const std::string report = to_string(r);
  std::size_t cursor = 0;
  for (const auto& field : run_result_fields()) {
    const auto pos = report.find(std::string(field.name) + "=", cursor);
    EXPECT_NE(pos, std::string::npos) << field.name;
    cursor = pos;
  }
}

TEST(Campaign, ValidatesSpecUpFront) {
  // Empty axes are legal since the daemon (a zero-job grid, see the
  // CampaignEmptyGrid suite); broken factories and shared recorders are not.
  EXPECT_NO_THROW(Campaign{CampaignSpec{}});

  auto no_seeds = small_grid(1);
  no_seeds.seeds.clear();
  EXPECT_NO_THROW(Campaign{no_seeds});

  auto null_factory = small_grid(1);
  null_factory.platforms[0].make = nullptr;
  EXPECT_THROW(Campaign{null_factory}, SpecError);

  auto shared_recorder = small_grid(1);
  systems::TraceRecorder recorder;
  shared_recorder.scenarios[0].options.recorder = &recorder;
  EXPECT_THROW(Campaign{shared_recorder}, SpecError);

  auto zero_duration = small_grid(1);
  zero_duration.scenarios[0].duration = Seconds{0.0};
  EXPECT_THROW(Campaign{zero_duration}, SpecError);
}

TEST(Campaign, FactoryFailurePropagatesFirstInGridOrder) {
  auto spec = small_grid(4);
  spec.platforms[0].make = [](std::uint64_t) -> std::unique_ptr<systems::Platform> {
    throw SpecError("boom");
  };
  Campaign c(std::move(spec));
  try {
    c.run();
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    // The first failing job in grid order is (platform 0, scenario 0, first
    // seed), regardless of worker scheduling.
    const std::string what = e.what();
    EXPECT_NE(what.find("mini"), std::string::npos);
    EXPECT_NE(what.find("hour-a"), std::string::npos);
    EXPECT_NE(what.find("seed=7"), std::string::npos);
    EXPECT_NE(what.find("boom"), std::string::npos);
  }
  EXPECT_FALSE(c.ran());
}

TEST(Campaign, AccessorsRejectUseBeforeRun) {
  Campaign c(small_grid(1));
  EXPECT_THROW((void)c.results(), SpecError);
  EXPECT_THROW((void)c.at(0, 0, 0), SpecError);
  EXPECT_THROW((void)c.seed_stats(0, 0), SpecError);
}

TEST(Campaign, CompiledTracesOnVsOffByteIdentical) {
  // The trace cache is a pure replay optimization: every reported byte must
  // be identical to live per-job synthesis, at any thread count.
  std::vector<std::vector<std::string>> all;
  for (const bool compiled : {true, false}) {
    for (const unsigned threads : {1u, 4u}) {
      auto spec = small_grid(threads);
      spec.compile_traces = compiled;
      Campaign c(std::move(spec));
      c.run();
      // One compile per (scenario, seed) — platforms share — or none at all.
      EXPECT_EQ(c.trace_compiles(), compiled ? 4u : 0u);
      all.push_back(reports(c));
    }
  }
  for (std::size_t i = 1; i < all.size(); ++i) EXPECT_EQ(all[0], all[i]);
}

TEST(Campaign, FaultedCompiledOnVsOffByteIdentical) {
  // Fault injection perturbs the platform, never the environment, so a
  // compiled ambient trace must not change a single byte of a faulted run.
  auto compiled_spec = faulted_grid(2);
  compiled_spec.compile_traces = true;
  Campaign compiled(std::move(compiled_spec));
  compiled.run();
  EXPECT_EQ(compiled.trace_compiles(), 3u);  // one scenario x three seeds

  auto live_spec = faulted_grid(2);
  live_spec.compile_traces = false;
  Campaign live(std::move(live_spec));
  live.run();
  EXPECT_EQ(reports(compiled), reports(live));
}

TEST(Campaign, LongestFirstOrderingNeverChangesBytes) {
  // Make the grid length-skewed so LPT actually reorders the pop sequence,
  // then prove the bytes (and grid-order slots) are scheduling-invariant.
  std::vector<std::vector<std::string>> all;
  for (const bool lpt : {true, false}) {
    for (const unsigned threads : {1u, 4u}) {
      auto spec = small_grid(threads);
      spec.scenarios[1].duration = Seconds{7200.0};
      spec.longest_first = lpt;
      Campaign c(std::move(spec));
      const auto& jobs = c.run();
      all.push_back(reports(c));
      // Slots stay in grid order regardless of execution order.
      EXPECT_EQ(jobs[1].scenario_index, 0u);
      EXPECT_DOUBLE_EQ(jobs[2].result.duration.value(), 7200.0);
    }
  }
  for (std::size_t i = 1; i < all.size(); ++i) EXPECT_EQ(all[0], all[i]);
}

TEST(Campaign, ThreadsAndWidthsByteIdenticalWhileTracesAreReleased) {
  // Seven Table I platforms over two (scenario, seed) slots: at width 2 a
  // slot has four lane blocks, at width 1 seven jobs, and with four threads
  // they finish on different workers, so whichever finishes last drops the
  // shared trace while the others may still be reading it.
  const systems::SystemId table1[] = {
      systems::SystemId::kSmartPowerUnit, systems::SystemId::kPlugAndPlay,
      systems::SystemId::kAmbiMax,        systems::SystemId::kMpWiNode,
      systems::SystemId::kMax17710Eval,   systems::SystemId::kCymbetEval09,
      systems::SystemId::kEhLink};
  std::vector<std::string> baseline;
  for (const unsigned threads : {1u, 4u})
    for (const unsigned width : {1u, 2u, 8u}) {
      CampaignSpec spec;
      for (const auto id : table1)
        spec.platforms.push_back(
            {std::string(systems::to_string(id)),
             [id](std::uint64_t seed) { return systems::build(id, seed); }});
      Scenario sc;
      sc.name = "indoor";
      sc.environment = [](std::uint64_t seed) {
        return std::make_unique<env::Environment>(
            env::Environment::indoor_industrial(seed));
      };
      sc.duration = Seconds{3600.0};
      sc.options.dt = Seconds{5.0};
      spec.scenarios.push_back(std::move(sc));
      spec.seeds = {3, 4};
      spec.threads = threads;
      spec.lane_width = width;
      Campaign c(std::move(spec));
      c.run();
      EXPECT_EQ(c.trace_compiles(), 2u);
      const auto got = reports(c);
      if (baseline.empty()) {
        baseline = got;
      } else {
        EXPECT_EQ(got, baseline) << threads << " threads, width " << width;
      }
    }
  EXPECT_EQ(baseline.size(), 14u);
}

TEST(Campaign, ValidatesDtUpFront) {
  auto zero_dt = small_grid(1);
  zero_dt.scenarios[0].options.dt = Seconds{0.0};
  EXPECT_THROW(Campaign{zero_dt}, SpecError);
  auto negative_dt = small_grid(1);
  negative_dt.scenarios[1].options.dt = Seconds{-5.0};
  EXPECT_THROW(Campaign{negative_dt}, SpecError);
}

TEST(CampaignExport, ResultsCsvRoundTripsBitExactly) {
  Campaign c(small_grid(2));
  c.run();
  const auto csv = parse_csv(results_csv(c));
  const auto& fields = run_result_fields();
  ASSERT_EQ(csv.headers.size(), 4 + fields.size());
  EXPECT_EQ(csv.headers[0], "platform");
  EXPECT_EQ(csv.headers[3], "seed");
  ASSERT_EQ(csv.rows.size(), c.results().size());
  for (std::size_t j = 0; j < csv.rows.size(); ++j) {
    const auto& job = c.results()[j];
    const auto& row = csv.rows[j];
    EXPECT_EQ(row[0], static_cast<double>(job.platform_index));
    EXPECT_EQ(row[1], static_cast<double>(job.scenario_index));
    EXPECT_EQ(row[2], static_cast<double>(job.seed_index));
    EXPECT_EQ(row[3], static_cast<double>(job.seed));
    for (std::size_t f = 0; f < fields.size(); ++f) {
      // The shortest round-trip form survives the text round trip
      // bit-for-bit.
      EXPECT_EQ(row[4 + f], fields[f].get(job.result)) << fields[f].name;
      EXPECT_EQ(csv.headers[4 + f], fields[f].name);
    }
  }
}

TEST(CampaignExport, SeedStatsCsvRoundTripsBitExactly) {
  Campaign c(small_grid(2));
  c.run();
  const auto csv = parse_csv(seed_stats_csv(c));
  const auto& fields = run_result_fields();
  ASSERT_EQ(csv.headers.size(), 2 + 4 * fields.size());
  ASSERT_EQ(csv.rows.size(), 4u);  // 2 platforms x 2 scenarios
  std::size_t row_i = 0;
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t s = 0; s < 2; ++s, ++row_i) {
      const auto stats = c.seed_stats(p, s);
      const auto& row = csv.rows[row_i];
      EXPECT_EQ(row[0], static_cast<double>(p));
      EXPECT_EQ(row[1], static_cast<double>(s));
      for (std::size_t f = 0; f < fields.size(); ++f) {
        EXPECT_EQ(row[2 + 4 * f + 0], stats[f].mean) << fields[f].name;
        EXPECT_EQ(row[2 + 4 * f + 1], stats[f].stddev);
        EXPECT_EQ(row[2 + 4 * f + 2], stats[f].min);
        EXPECT_EQ(row[2 + 4 * f + 3], stats[f].max);
      }
      EXPECT_EQ(csv.headers[2], std::string(fields[0].name) + ".mean");
    }
  }
}

TEST(CampaignExport, JsonCarriesNamesAndFields) {
  Campaign c(small_grid(2));
  c.run();
  const auto json = results_json(c);
  for (const char* needle :
       {"\"mini\"", "\"mini2\"", "\"hour-a\"", "\"hour-b\"", "\"seeds\": [7, 11]",
        "\"jobs\":", "\"seed_stats\":", "\"harvested_j\":", "\"stddev\":"})
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
}

TEST(CampaignExport, WritersRoundTripThroughFiles) {
  Campaign c(small_grid(2));
  c.run();
  const std::string dir = ::testing::TempDir();
  write_results_csv(c, dir + "/results.csv");
  write_seed_stats_csv(c, dir + "/stats.csv");
  write_results_json(c, dir + "/results.json");
  EXPECT_EQ(read_csv(dir + "/results.csv").rows.size(), c.results().size());
  EXPECT_EQ(read_csv(dir + "/stats.csv").rows.size(), 4u);
  EXPECT_THROW(write_results_csv(c, dir + "/no/such/dir/x.csv"), SpecError);
}

TEST(Campaign, RunIsIdempotent) {
  Campaign c(small_grid(2));
  const auto& first = c.run();
  const auto* addr = first.data();
  const auto& second = c.run();
  EXPECT_EQ(second.data(), addr);
  EXPECT_TRUE(c.ran());
}

TEST(Campaign, SpanTracingNeverChangesBytes) {
  // Span tracing is wall-clock diagnostics only: running the same faulted
  // grid with the collector enabled must not change one reported byte, and
  // with observability compiled in it must actually capture the job spans.
  Campaign quiet(faulted_grid(2));
  quiet.run();

  auto& collector = obs::TraceCollector::instance();
  collector.enable();
  auto traced_spec = faulted_grid(2);
  traced_spec.lane_width = 8;  // pin: the block-span assertion needs batching
  Campaign traced(traced_spec);
  traced.run();
  auto legacy_spec = faulted_grid(2);
  legacy_spec.lane_width = 1;  // exact legacy per-job path
  Campaign legacy(legacy_spec);
  legacy.run();
  const auto events = collector.event_count();
  const auto json = collector.chrome_trace_json();
  collector.disable();

  EXPECT_EQ(reports(quiet), reports(traced));
  EXPECT_EQ(reports(quiet), reports(legacy));  // lane_width is byte-inert
#if MSEHSIM_OBS_ENABLED
  // >= one job span per legacy job plus >= one block span.
  EXPECT_GE(events, legacy.results().size() + 1);
  EXPECT_NE(json.find("\"campaign.block\""), std::string::npos);
  EXPECT_NE(json.find("\"campaign.job\""), std::string::npos);
  EXPECT_NE(json.find("\"campaign.job_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
#else
  EXPECT_EQ(events, 0u);
#endif
}

TEST(Campaign, MetricsMergeDeterministicAcrossThreadCounts) {
  Campaign serial(faulted_grid(1));
  Campaign parallel(faulted_grid(4));
  serial.run();
  parallel.run();
  const auto a = serial.metrics();
  const auto b = parallel.metrics();
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(metrics_csv(serial), metrics_csv(parallel));

  // Campaign-level counters rode along, and counters summed across jobs.
  const auto* jobs = a.find("campaign.jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->count, serial.results().size());
  const auto* compiles = a.find("campaign.trace_compiles");
  ASSERT_NE(compiles, nullptr);
  EXPECT_EQ(compiles->count, serial.trace_compiles());
  const auto* brownouts = a.find("brownouts");
  ASSERT_NE(brownouts, nullptr);
  std::uint64_t expected = 0;
  for (const auto& job : serial.results()) expected += job.result.brownouts;
  EXPECT_EQ(brownouts->count, expected);
}

TEST(CampaignExport, CsvByteIdenticalAcrossThreadCounts) {
  Campaign serial(faulted_grid(1));
  Campaign parallel(faulted_grid(4));
  serial.run();
  parallel.run();
  EXPECT_EQ(results_csv(serial), results_csv(parallel));
  EXPECT_EQ(seed_stats_csv(serial), seed_stats_csv(parallel));
  EXPECT_EQ(results_json(serial), results_json(parallel));
}

TEST(CampaignExport, JsonCarriesObservabilitySurfaces) {
  Campaign c(small_grid(2));
  c.run();
  const auto json = results_json(c);
  for (const char* needle :
       {"\"trace_compiles\": 4", "\"sources\": [", "\"mpp_cache_hits\":",
        "\"share\":", "\"ledger.residual_j\":",
        "\"faults.mean_time_to_failover_s\":"})
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  const auto metrics = metrics_csv(c);
  EXPECT_NE(metrics.find("metric,value"), std::string::npos);
  EXPECT_NE(metrics.find("campaign.jobs,"), std::string::npos);
}

/// Fresh per-test cache directory under the gtest temp root.
std::filesystem::path cache_dir(const std::string& name) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / ("msehsim_cc_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(CampaignTraceCache, ColdThenWarmRunsAreByteIdenticalEverywhere) {
  const auto dir = cache_dir("cold_warm");

  auto cold_spec = small_grid(1);
  cold_spec.trace_cache_dir = dir.string();
  Campaign cold(cold_spec);
  cold.run();
  EXPECT_EQ(cold.trace_compiles(), 4u);  // 2 scenarios x 2 seeds
  EXPECT_EQ(cold.trace_cache_stats().hits, 0u);
  EXPECT_EQ(cold.trace_cache_stats().misses, 4u);

  // Warm run on a different thread count: every slot must map from disk.
  auto warm_spec = small_grid(4);
  warm_spec.trace_cache_dir = dir.string();
  Campaign warm(warm_spec);
  warm.run();
  EXPECT_EQ(warm.trace_compiles(), 0u);
  EXPECT_EQ(warm.trace_cache_stats().hits, 4u);
  EXPECT_EQ(warm.trace_cache_stats().misses, 0u);
  EXPECT_GT(warm.trace_cache_stats().bytes_mapped, 0u);

  // The byte-identity gate: reports and every result export, regardless of
  // cache temperature or thread count.
  EXPECT_EQ(reports(cold), reports(warm));
  EXPECT_EQ(results_csv(cold), results_csv(warm));
  EXPECT_EQ(seed_stats_csv(cold), seed_stats_csv(warm));
  EXPECT_EQ(results_json(cold), results_json(warm));

  // And both match a cache-less campaign, including the JSON's
  // trace_compiles (materialized timelines, provenance-independent).
  Campaign plain(small_grid(2));
  plain.run();
  EXPECT_EQ(reports(plain), reports(warm));
  EXPECT_EQ(results_json(plain), results_json(warm));
}

TEST(CampaignTraceCache, FaultedGridColdVsWarmByteIdentical) {
  const auto dir = cache_dir("faulted");
  auto cold_spec = faulted_grid(1);
  cold_spec.trace_cache_dir = dir.string();
  Campaign cold(cold_spec);
  cold.run();
  EXPECT_EQ(cold.trace_compiles(), 3u);

  auto warm_spec = faulted_grid(3);
  warm_spec.trace_cache_dir = dir.string();
  Campaign warm(warm_spec);
  warm.run();
  EXPECT_EQ(warm.trace_compiles(), 0u);
  EXPECT_EQ(warm.trace_cache_stats().hits, 3u);
  EXPECT_EQ(reports(cold), reports(warm));
  EXPECT_EQ(results_csv(cold), results_csv(warm));
  EXPECT_EQ(results_json(cold), results_json(warm));
}

TEST(CampaignTraceCache, CorruptEntryFallsBackToLiveSynthesis) {
  const auto dir = cache_dir("corrupt");
  auto spec = small_grid(1);
  spec.trace_cache_dir = dir.string();
  Campaign cold(spec);
  cold.run();

  // Truncate one entry mid-header; the warm run must miss on it, recompile
  // just that slot, and still produce identical bytes.
  bool truncated = false;
  for (const auto& de : std::filesystem::directory_iterator(dir)) {
    if (de.path().extension() != ".mtrc" || truncated) continue;
    std::filesystem::resize_file(de.path(), 32);
    truncated = true;
  }
  ASSERT_TRUE(truncated);

  Campaign warm(spec);
  warm.run();
  EXPECT_EQ(warm.trace_compiles(), 1u);
  EXPECT_EQ(warm.trace_cache_stats().hits, 3u);
  EXPECT_EQ(warm.trace_cache_stats().misses, 1u);
  EXPECT_EQ(reports(cold), reports(warm));
  EXPECT_EQ(results_json(cold), results_json(warm));
}

TEST(CampaignTraceCache, MetricsSurfaceCacheCountersOnlyWhenConfigured) {
  const auto dir = cache_dir("metrics");
  auto spec = small_grid(1);
  spec.trace_cache_dir = dir.string();
  Campaign with_cache(spec);
  with_cache.run();
  const auto m = with_cache.metrics();
  const auto* hits = m.find("trace_cache.hits");
  const auto* misses = m.find("trace_cache.misses");
  const auto* evictions = m.find("trace_cache.evictions");
  const auto* mapped = m.find("trace_cache.bytes_mapped");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  ASSERT_NE(evictions, nullptr);
  ASSERT_NE(mapped, nullptr);
  EXPECT_EQ(hits->count, 0u);
  EXPECT_EQ(misses->count, 4u);
  EXPECT_EQ(evictions->count, 0u);
  EXPECT_EQ(mapped->value, 0.0);

  Campaign warm(spec);
  warm.run();
  const auto wm = warm.metrics();
  EXPECT_EQ(wm.find("trace_cache.hits")->count, 4u);
  EXPECT_GT(wm.find("trace_cache.bytes_mapped")->value, 0.0);

  // Without a cache dir the diagnostic rows stay absent, keeping the
  // metrics export byte-compatible with pre-cache behavior.
  Campaign plain(small_grid(1));
  plain.run();
  EXPECT_EQ(plain.metrics().find("trace_cache.hits"), nullptr);
  EXPECT_EQ(plain.trace_cache_stats().hits, 0u);
}

/// Switches LC_ALL to a comma-decimal locale for the scope, or skips the
/// enclosing test when the host has none installed (CI installs de_DE).
class CommaLocaleGuard {
 public:
  CommaLocaleGuard() {
    const char* current = std::setlocale(LC_ALL, nullptr);
    saved_ = current != nullptr ? current : "C";
    for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8"}) {
      if (std::setlocale(LC_ALL, name) != nullptr) {
        const auto* lc = std::localeconv();
        if (lc != nullptr && lc->decimal_point != nullptr &&
            lc->decimal_point[0] == ',') {
          active_ = true;
          return;
        }
      }
    }
    std::setlocale(LC_ALL, saved_.c_str());
  }
  ~CommaLocaleGuard() { std::setlocale(LC_ALL, saved_.c_str()); }
  [[nodiscard]] bool active() const { return active_; }

 private:
  std::string saved_;
  bool active_{false};
};

TEST(CampaignExport, ByteIdenticalUnderCommaDecimalLocale) {
  // The regression this guards: snprintf %g/%f and strtod honor
  // LC_NUMERIC, so a de_DE host used to emit "0,5" into CSV/JSON (corrupt
  // documents) and parse "3.14" as 3 (silent truncation). All export and
  // parse paths now go through charconv, which no locale can touch.
  Campaign reference(small_grid(1));
  reference.run();
  const std::string csv_c = results_csv(reference);
  const std::string stats_c = seed_stats_csv(reference);
  const std::string json_c = results_json(reference);
  const std::string metrics_c = metrics_csv(reference);
  const auto reports_c = reports(reference);

  CommaLocaleGuard locale;
  if (!locale.active())
    GTEST_SKIP() << "no comma-decimal locale installed on this host";

  EXPECT_EQ(results_csv(reference), csv_c);
  EXPECT_EQ(seed_stats_csv(reference), stats_c);
  EXPECT_EQ(results_json(reference), json_c);
  EXPECT_EQ(metrics_csv(reference), metrics_c);
  EXPECT_EQ(reports(reference), reports_c);

  // Full campaign executed under the comma locale: identical documents.
  Campaign under_locale(small_grid(2));
  under_locale.run();
  EXPECT_EQ(results_csv(under_locale), csv_c);
  EXPECT_EQ(results_json(under_locale), json_c);

  // And the CSV parses back bit-exactly despite strtod-hostile cells
  // ("3.14" would silently truncate to 3 through a de_DE strtod).
  const auto parsed = parse_csv(csv_c);
  ASSERT_EQ(parsed.rows.size(), reference.results().size());
  const auto& fields = run_result_fields();
  for (std::size_t f = 0; f < fields.size(); ++f)
    EXPECT_EQ(parsed.rows[0][4 + f],
              fields[f].get(reference.results()[0].result))
        << fields[f].name;
}

// ---------------------------------------------------------------------------
// Run-health timelines at campaign scale
// ---------------------------------------------------------------------------

/// small_grid with the timeline sampler armed on every scenario.
CampaignSpec sampled_grid(unsigned threads) {
  auto spec = small_grid(threads);
  for (auto& sc : spec.scenarios) sc.options.timeline_dt = Seconds{300.0};
  return spec;
}

TEST(CampaignTimelines, ExportEmptyWhenSamplingOff) {
  Campaign c(small_grid(1));
  c.run();
  EXPECT_EQ(timelines_json(c), "{\n  \"timelines\": []\n}\n");
}

TEST(CampaignTimelines, ExportDeterministicAcrossThreadCounts) {
  Campaign serial(sampled_grid(1));
  Campaign parallel(sampled_grid(3));
  serial.run();
  parallel.run();
  const auto doc = timelines_json(serial);
  EXPECT_EQ(doc, timelines_json(parallel));
  // Every job carries a timeline (8 jobs) with grid coordinates and the
  // embedded Timeline document.
  ASSERT_FALSE(serial.results().empty());
  for (const auto& job : serial.results())
    ASSERT_NE(job.result.timeline, nullptr);
  for (const char* needle :
       {"\"timelines\": [", "\"platform\": 0", "\"seed\": 11",
        "\"cadence_s\": 300", "\"columns\": [\"soc\"",
        "\"samples\": [[0, "})
    EXPECT_NE(doc.find(needle), std::string::npos) << needle;
}

TEST(CampaignTimelines, SamplingNeverChangesResultExports) {
  Campaign off(small_grid(2));
  Campaign on(sampled_grid(2));
  off.run();
  on.run();
  EXPECT_EQ(results_csv(off), results_csv(on));
  EXPECT_EQ(seed_stats_csv(off), seed_stats_csv(on));
  EXPECT_EQ(results_json(off), results_json(on));
  EXPECT_EQ(reports(off), reports(on));
}

TEST(CampaignTimelines, FileWriterRoundTrips) {
  Campaign c(sampled_grid(2));
  c.run();
  const std::string path = ::testing::TempDir() + "/timelines.json";
  write_timelines_json(c, path);
  std::ifstream file(path, std::ios::binary);
  std::stringstream buffer;
  buffer << file.rdbuf();
  EXPECT_EQ(buffer.str(), timelines_json(c));
  EXPECT_THROW(write_timelines_json(c, ::testing::TempDir() + "/no/dir/x.json"),
               SpecError);
}

// ---------------------------------------------------------------------------
// MSEHSIM_LANE_WIDTH parsing: the long-lived-process bugfix matrix
// ---------------------------------------------------------------------------

TEST(CampaignLaneWidth, EnvParsingRejectsEveryKindOfGarbage) {
  // Before the fix, atoi-style parsing read "8junk" as 8 and "junk" as 0
  // (which then disabled batching silently). Each bad spelling must warn and
  // fall back; each good spelling must parse exactly.
  const unsigned fallback = 8;
  for (const char* bad : {"", " ", "junk", "8junk", "junk8", "8.5", "0x10",
                          "-4", "0", "257", "99999999999999999999", "+",
                          "1e2", " 8 9 "}) {
    EXPECT_EQ(lane_width_from_env(bad, fallback), fallback) << '"' << bad
                                                            << '"';
  }
  EXPECT_EQ(lane_width_from_env(nullptr, fallback), fallback);
  EXPECT_EQ(lane_width_from_env("1", fallback), 1u);
  EXPECT_EQ(lane_width_from_env("16", fallback), 16u);
  EXPECT_EQ(lane_width_from_env("256", fallback), 256u);
  // Full-consumption rules still allow the benign spellings from_chars
  // accepts after trimming: surrounding whitespace and a single leading '+'.
  EXPECT_EQ(lane_width_from_env(" 8 ", fallback), 8u);
  EXPECT_EQ(lane_width_from_env("+8", fallback), 8u);
}

// ---------------------------------------------------------------------------
// Empty grids: a campaign with zero jobs is a valid (if quiet) campaign
// ---------------------------------------------------------------------------

/// small_grid with one axis emptied out; the remaining axes stay populated
/// so the zero comes from the product, not from a degenerate spec.
CampaignSpec empty_axis_grid(int axis) {
  auto spec = small_grid(1);
  if (axis == 0) spec.platforms.clear();
  if (axis == 1) spec.scenarios.clear();
  if (axis == 2) spec.seeds.clear();
  return spec;
}

TEST(CampaignEmptyGrid, ZeroJobsStillExportValidDocuments) {
  for (int axis = 0; axis < 3; ++axis) {
    Campaign c(empty_axis_grid(axis));
    EXPECT_TRUE(c.run().empty()) << "axis " << axis;
    // Headers-only CSV: same first line a populated export starts with, and
    // nothing after it, so downstream `parse_csv` and spreadsheet imports
    // see an empty table, not a broken file.
    const auto csv = results_csv(c);
    EXPECT_EQ(parse_csv(csv).rows.size(), 0u) << "axis " << axis;
    EXPECT_EQ(csv.find('\n'), csv.size() - 1) << "axis " << axis;
    const auto stats = seed_stats_csv(c);
    EXPECT_EQ(parse_csv(stats).rows.size(), 0u) << "axis " << axis;
    // Valid JSON with empty arrays, not "null" and not a parse error: the
    // strict RFC 8259 parser the daemon uses must accept the document.
    const auto json = results_json(c);
    EXPECT_NO_THROW((void)serve::parse_json(json)) << json;
    EXPECT_NE(json.find("\"jobs\": [\n  ]"), std::string::npos) << json;
    EXPECT_EQ(timelines_json(c), "{\n  \"timelines\": []\n}\n");
  }
}

TEST(CampaignEmptyGrid, MetricsRowsPresentAndPrometheusLintClean) {
  Campaign c(empty_axis_grid(2));
  c.run();
  const auto snap = c.metrics();
  const auto* jobs = snap.find("campaign.jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->count, 0u);
  ASSERT_NE(snap.find("campaign.lane_blocks"), nullptr);
  const auto csv = metrics_csv(c);
  EXPECT_NE(csv.find("campaign.jobs,0"), std::string::npos) << csv;
  // The daemon serves this snapshot through the lint-gated /metrics
  // endpoint, so an empty campaign must already scrape clean here.
  const auto text = obs::prometheus_text(snap);
  EXPECT_EQ(obs::prometheus_lint(text), "") << text;
}

// ---------------------------------------------------------------------------
// Concurrent campaigns over one persistent cache directory
// ---------------------------------------------------------------------------

TEST(CampaignTraceCache, ConcurrentCampaignsShareOneDirSafely) {
  // The daemon's steady state: several Campaign instances racing over the
  // same trace_cache_dir, each storing and (with a tight byte cap) evicting
  // the very entries its peers are loading. Correctness bar: no crash while
  // a reader holds a mapped trace that loses its file, and every campaign's
  // bytes equal the cache-less reference.
  const auto dir = cache_dir("concurrent");
  Campaign reference(small_grid(1));
  reference.run();
  const auto expected = reports(reference);
  const auto expected_json = results_json(reference);

  // Cap below one entry's footprint so every store triggers eviction of a
  // possibly-mapped sibling; unlink-while-mapped must stay benign.
  constexpr std::uint64_t kTightCap = 1;
  constexpr int kRounds = 3;
  std::vector<std::string> left_json(kRounds), right_json(kRounds);
  for (int round = 0; round < kRounds; ++round) {
    std::thread left([&, round] {
      auto spec = small_grid(2);
      spec.trace_cache_dir = dir.string();
      spec.trace_cache_max_bytes = kTightCap;
      Campaign c(spec);
      c.run();
      EXPECT_EQ(reports(c), expected) << "left round " << round;
      left_json[static_cast<std::size_t>(round)] = results_json(c);
    });
    std::thread right([&, round] {
      auto spec = small_grid(2);
      spec.trace_cache_dir = dir.string();
      spec.trace_cache_max_bytes = kTightCap;
      Campaign c(spec);
      c.run();
      EXPECT_EQ(reports(c), expected) << "right round " << round;
      right_json[static_cast<std::size_t>(round)] = results_json(c);
    });
    left.join();
    right.join();
  }
  for (int round = 0; round < kRounds; ++round) {
    EXPECT_EQ(left_json[static_cast<std::size_t>(round)], expected_json);
    EXPECT_EQ(right_json[static_cast<std::size_t>(round)], expected_json);
  }
}

TEST(CampaignTraceCache, SharedCacheObjectAccumulatesAcrossCampaigns) {
  // The daemon hands every campaign one long-lived TraceCache; its stats are
  // lifetime counters, and per-campaign stats must reflect the shared object.
  const auto dir = cache_dir("shared_object");
  auto cache = std::make_shared<env::TraceCache>(dir.string());
  auto cold_spec = small_grid(1);
  cold_spec.shared_trace_cache = cache;
  Campaign cold(cold_spec);
  cold.run();
  EXPECT_EQ(cache->stats().misses, 4u);

  auto warm_spec = small_grid(2);
  warm_spec.shared_trace_cache = cache;
  Campaign warm(warm_spec);
  warm.run();
  EXPECT_EQ(cache->stats().hits, 4u);
  EXPECT_EQ(cache->stats().misses, 4u);  // lifetime, not per-campaign
  EXPECT_EQ(reports(cold), reports(warm));
  // shared_trace_cache wins over trace_cache_dir when both are set.
  auto both_spec = small_grid(1);
  both_spec.shared_trace_cache = cache;
  both_spec.trace_cache_dir = (cache_dir("shared_decoy")).string();
  Campaign both(both_spec);
  both.run();
  EXPECT_EQ(cache->stats().hits, 8u);
}

TEST(CampaignTraceCache, ResultsJsonIgnoresTheSharedCacheHistory) {
  // results_json counts the timelines this campaign materialized. A shared
  // cache's lifetime hit total would make two identical requests to one
  // daemon answer with different bytes.
  const auto dir = cache_dir("history");
  auto cache = std::make_shared<env::TraceCache>(dir.string());
  auto spec = small_grid(1);
  spec.shared_trace_cache = cache;
  Campaign cold(spec);
  cold.run();  // warms the cache
  Campaign first(spec);
  first.run();
  Campaign second(spec);
  second.run();
  EXPECT_EQ(cache->stats().hits, 8u);
  EXPECT_EQ(first.trace_compiles(), 0u);
  EXPECT_EQ(first.trace_cache_hits(), 4u);
  const auto json = results_json(second);
  EXPECT_EQ(json, results_json(first));
  EXPECT_EQ(json, results_json(cold));
  // small_grid: 2 scenarios x 2 seeds, one timeline each.
  EXPECT_NE(json.find("\"trace_compiles\": 4,"), std::string::npos) << json;
}

TEST(CampaignTraceCache, TraceKeyOverridesScenarioNameInTheCacheKey) {
  // Two specs whose scenarios differ only in display name but share a
  // trace_key must share cache entries (the daemon keys on generator
  // identity, not the request's label).
  const auto dir = cache_dir("trace_key");
  auto cold_spec = small_grid(1);
  for (auto& sc : cold_spec.scenarios) sc.trace_key = "preset:outdoor";
  cold_spec.trace_cache_dir = dir.string();
  Campaign cold(cold_spec);
  cold.run();
  // Both scenarios collapse onto one generator identity x two seeds.
  EXPECT_EQ(cold.trace_cache_stats().misses, 2u);
  EXPECT_EQ(cold.trace_cache_stats().hits, 2u);

  auto renamed = small_grid(1);
  for (auto& sc : renamed.scenarios) sc.name += "-renamed";
  for (auto& sc : renamed.scenarios) sc.trace_key = "preset:outdoor";
  renamed.trace_cache_dir = dir.string();
  Campaign warm(renamed);
  warm.run();
  EXPECT_EQ(warm.trace_cache_stats().hits, 4u);
  EXPECT_EQ(warm.trace_cache_stats().misses, 0u);
  EXPECT_EQ(reports(cold), reports(warm));
}

}  // namespace
}  // namespace msehsim::campaign
