// Batched lane kernel (systems::BatchRunner) correctness gate.
//
// The whole contract is byte-identity: a campaign run at any lane width and
// any thread count must report exactly the bytes the legacy one-job-at-a-time
// path reports. The grids below cover the divergence machinery the kernel
// must mask per lane — fault-schedule onsets, backup-chain failovers, query
// traffic — on the survey's reference platforms (Systems A and B), plus the
// energy-ledger leak detector that rides on the campaign aggregation.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "env/environment.hpp"
#include "fault/injector.hpp"
#include "harvest/transducers.hpp"
#include "manager/backup_chain.hpp"
#include "power/chain.hpp"
#include "power/converter.hpp"
#include "power/mppt.hpp"
#include "storage/battery.hpp"
#include "storage/supercapacitor.hpp"
#include "obs/timeline.hpp"
#include "systems/catalog.hpp"
#include "systems/platform.hpp"
#include "systems/runner.hpp"

namespace msehsim::campaign {
namespace {

EnvironmentFactory outdoor_factory() {
  return [](std::uint64_t seed) {
    return std::make_unique<env::Environment>(env::Environment::outdoor(seed));
  };
}

std::vector<std::string> reports(Campaign& c) {
  c.run();
  std::vector<std::string> out;
  for (const auto& job : c.results()) out.push_back(to_string(job.result));
  return out;
}

/// Runs @p spec at every (lane_width, threads) combination and asserts each
/// one reproduces the width-1 single-thread reference byte for byte.
void expect_width_invariant(const CampaignSpec& base) {
  auto at = [&](unsigned width, unsigned threads) {
    CampaignSpec spec = base;
    spec.lane_width = width;
    spec.threads = threads;
    Campaign c(spec);
    return reports(c);
  };
  const auto reference = at(1, 1);
  ASSERT_FALSE(reference.empty());
  for (const unsigned width : {1u, 2u, 8u})
    for (const unsigned threads : {1u, 3u}) {
      if (width == 1 && threads == 1) continue;
      EXPECT_EQ(reference, at(width, threads))
          << "diverged at lane_width=" << width << " threads=" << threads;
    }
}

/// Systems A and B against the same outdoor scenario: the two reference
/// platforms of the survey, with query traffic driving the per-lane RNG.
CampaignSpec systems_grid() {
  CampaignSpec spec;
  spec.platforms.push_back(
      {"system-a", [](std::uint64_t s) { return systems::build_system_a(s); }});
  spec.platforms.push_back(
      {"system-b", [](std::uint64_t s) { return systems::build_system_b(s); }});
  Scenario sc;
  sc.name = "outdoor-half-hour";
  sc.environment = outdoor_factory();
  sc.duration = Seconds{1800.0};
  sc.options.dt = Seconds{5.0};
  sc.options.mean_query_interval = Seconds{120.0};
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {3, 17, 29};
  spec.compile_traces = true;
  return spec;
}

TEST(BatchRunner, ByteIdenticalAcrossLaneWidthsOnCleanSystemsAB) {
  expect_width_invariant(systems_grid());
}

TEST(BatchRunner, ByteIdenticalUnderFaultSchedules) {
  CampaignSpec spec;
  spec.platforms.push_back(
      {"system-a", [](std::uint64_t s) { return systems::build_system_a(s); }});
  Scenario sc;
  sc.name = "faulted";
  sc.environment = outdoor_factory();
  sc.duration = Seconds{7200.0};
  sc.options.dt = Seconds{5.0};
  sc.injector = [](std::uint64_t seed, systems::Platform& platform) {
    auto inj = std::make_unique<fault::FaultInjector>(seed);
    inj->harvester_intermittent(Seconds{600.0}, platform.input(0), 0.5);
    inj->harvester_heal(Seconds{3600.0}, platform.input(0));
    inj->harvester_stuck_short(Seconds{5400.0}, platform.input(1));
    return inj;
  };
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {5, 9, 13};
  spec.compile_traces = true;
  expect_width_invariant(spec);
}

/// System A with its fuel cell behind a prioritized backup chain, every
/// ambient source killed at t=1h — the chain must engage (divergent per-lane
/// control flow) and every lane width must report the same bytes.
CampaignSpec backup_chain_grid() {
  CampaignSpec spec;
  spec.platforms.push_back({"system-a-chain", [](std::uint64_t s) {
                              auto a = systems::build_system_a(s);
                              manager::BackupChain::Params bp;
                              manager::BackupStageParams fuel;
                              fuel.kind = manager::BackupStageKind::kFuelCell;
                              fuel.storage_slot = 2;
                              fuel.min_outage = Seconds{600.0};
                              bp.stages.push_back(fuel);
                              manager::BackupStageParams shed;
                              shed.kind = manager::BackupStageKind::kLoadShed;
                              shed.min_outage = Seconds{3600.0};
                              bp.stages.push_back(shed);
                              a->set_backup_chain(bp);
                              return a;
                            }});
  Scenario sc;
  sc.name = "ambient-blackout";
  sc.environment = outdoor_factory();
  sc.duration = Seconds{21600.0};
  sc.options.dt = Seconds{5.0};
  sc.injector = [](std::uint64_t seed, systems::Platform& platform) {
    auto inj = std::make_unique<fault::FaultInjector>(seed);
    inj->harvester_stuck_short(Seconds{3600.0}, platform.input(0));
    inj->harvester_stuck_short(Seconds{3600.0}, platform.input(1));
    inj->harvester_stuck_short(Seconds{3600.0}, platform.input(2));
    return inj;
  };
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {11, 23};
  spec.compile_traces = true;
  return spec;
}

TEST(BatchRunner, ByteIdenticalThroughBackupChainFailover) {
  CampaignSpec base = backup_chain_grid();
  // The scenario must actually exercise the failover machinery, or this
  // gate proves nothing.
  {
    CampaignSpec probe = base;
    probe.lane_width = 8;
    Campaign c(probe);
    c.run();
    for (const auto& job : c.results())
      EXPECT_GE(job.result.faults.failovers, 1u);
  }
  expect_width_invariant(base);
}

TEST(BatchRunner, LaneWidthOneRunsTheLegacyPath) {
  CampaignSpec spec = systems_grid();
  spec.lane_width = 1;
  Campaign legacy(spec);
  const auto legacy_reports = reports(legacy);
  EXPECT_EQ(legacy.lane_blocks(), 0u)
      << "lane_width=1 must route through the per-job runner";

  spec.lane_width = 8;
  Campaign batched(spec);
  const auto batched_reports = reports(batched);
  EXPECT_GT(batched.lane_blocks(), 0u);
  EXPECT_EQ(legacy_reports, batched_reports);
}

TEST(BatchRunner, DisabledTraceCompilationFallsBackToLegacy) {
  CampaignSpec spec = systems_grid();
  spec.compile_traces = false;  // batching requires a shared compiled trace
  spec.lane_width = 8;
  Campaign c(spec);
  const auto got = reports(c);
  EXPECT_EQ(c.lane_blocks(), 0u);

  CampaignSpec ref = systems_grid();
  ref.lane_width = 1;
  Campaign r(ref);
  EXPECT_EQ(reports(r), got);
}

/// A probe platform whose supercapacitor leaks heavily: as harvest charges
/// the (initially empty) capacitor, the v^2/R leakage loss accelerates, so
/// storage loss grows superlinearly in duration — exactly the signature the
/// leak detector flags.
std::unique_ptr<systems::Platform> leaky_platform() {
  systems::PlatformSpec spec;
  spec.name = "leaky";
  auto p = std::make_unique<systems::Platform>(spec);
  p->add_input(std::make_unique<power::InputChain>(
      std::make_unique<harvest::PvPanel>("pv", harvest::PvPanel::Params{}),
      std::make_unique<power::OracleMppt>(),
      power::Converter::smart_buck_boost("fe"), Seconds{5.0}));
  storage::Supercapacitor::Params sp;
  sp.main_capacitance = Farads{100.0};
  sp.slow_capacitance = Farads{0.0};
  sp.initial_voltage = Volts{0.05};
  sp.leakage_resistance = Ohms{1000.0};  // ~40x leakier than a healthy EDLC
  p->add_storage(std::make_unique<storage::Supercapacitor>("buf", sp), 0);
  return p;
}

/// Same platform held at a steady operating point: storage loss stays
/// near-linear, so the detector must NOT flag it.
std::unique_ptr<systems::Platform> steady_platform() {
  systems::PlatformSpec spec;
  spec.name = "steady";
  auto p = std::make_unique<systems::Platform>(spec);
  p->add_input(std::make_unique<power::InputChain>(
      std::make_unique<harvest::PvPanel>("pv", harvest::PvPanel::Params{}),
      std::make_unique<power::OracleMppt>(),
      power::Converter::smart_buck_boost("fe"), Seconds{5.0}));
  storage::Supercapacitor::Params sp;
  sp.main_capacitance = Farads{10.0};
  sp.slow_capacitance = Farads{0.0};
  sp.initial_voltage = Volts{4.5};  // near full: loss rate barely moves
  p->add_storage(std::make_unique<storage::Supercapacitor>("buf", sp), 0);
  return p;
}

/// Fault schedule aimed at System B's storage and input chain: intermittent
/// harvest and its heal, a leakage spike with expiry, converter droop, and a
/// thermal shutdown that cuts the chain for ten minutes. The batched lanes
/// must reproduce the run_platform (width 1) bytes through every onset.
TEST(BatchRunner, ByteIdenticalUnderStorageAndConverterFaults) {
  CampaignSpec spec;
  spec.platforms.push_back(
      {"system-b", [](std::uint64_t s) { return systems::build_system_b(s); }});
  Scenario sc;
  sc.name = "faulted-b";
  sc.environment = outdoor_factory();
  sc.duration = Seconds{7200.0};
  sc.options.dt = Seconds{5.0};
  sc.options.mean_query_interval = Seconds{120.0};
  sc.injector = [](std::uint64_t seed, systems::Platform& platform) {
    auto inj = std::make_unique<fault::FaultInjector>(seed);
    inj->harvester_intermittent(Seconds{600.0}, platform.input(0), 0.4);
    inj->harvester_heal(Seconds{2400.0}, platform.input(0));
    inj->storage_leakage_spike(Seconds{1800.0}, platform.store(0), 25.0,
                               Seconds{1200.0});
    inj->converter_droop(Seconds{3000.0}, platform.input(0), 0.85);
    inj->converter_thermal_shutdown(Seconds{4200.0}, platform.input(0),
                                    Seconds{600.0});
    return inj;
  };
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {5, 9, 13};
  spec.compile_traces = true;
  expect_width_invariant(spec);
}

/// A PV front end over a NiMH cell.
std::unique_ptr<systems::Platform> battery_buffered_platform() {
  systems::PlatformSpec spec;
  spec.name = "battery-buffered";
  auto p = std::make_unique<systems::Platform>(spec);
  p->add_input(std::make_unique<power::InputChain>(
      std::make_unique<harvest::PvPanel>("pv", harvest::PvPanel::Params{}),
      std::make_unique<power::OracleMppt>(),
      power::Converter::smart_buck_boost("fe"), Seconds{5.0}));
  p->add_storage(std::make_unique<storage::Battery>(
                     storage::Battery::nimh("cell", AmpHours{0.05})),
                 0);
  return p;
}

/// Same front end over a lithium-ion capacitor: a two-branch supercap whose
/// coefficients (C, Rleak, redistribution tau) differ from the EDLC
/// variants batched beside it.
std::unique_ptr<systems::Platform> lic_platform() {
  systems::PlatformSpec spec;
  spec.name = "lic";
  auto p = std::make_unique<systems::Platform>(spec);
  p->add_input(std::make_unique<power::InputChain>(
      std::make_unique<harvest::PvPanel>("pv", harvest::PvPanel::Params{}),
      std::make_unique<power::OracleMppt>(),
      power::Converter::smart_buck_boost("fe"), Seconds{5.0}));
  p->add_storage(std::make_unique<storage::Supercapacitor>(
                     storage::Supercapacitor::lithium_ion_capacitor(
                         "lic", Farads{25.0})),
                 0);
  return p;
}

/// Heterogeneous storage variants batched together: two EDLCs with very
/// different C/Rleak, an LIC, and a battery, all in one campaign block. The
/// storage decay memos must key on each device's own coefficients — a
/// regression gate for cross-lane memo bleed.
TEST(BatchRunner, ByteIdenticalAcrossHeterogeneousStorageVariants) {
  CampaignSpec spec;
  spec.platforms.push_back(
      {"leaky", [](std::uint64_t) { return leaky_platform(); }});
  spec.platforms.push_back(
      {"steady", [](std::uint64_t) { return steady_platform(); }});
  spec.platforms.push_back(
      {"lic", [](std::uint64_t) { return lic_platform(); }});
  spec.platforms.push_back(
      {"battery", [](std::uint64_t) { return battery_buffered_platform(); }});
  Scenario sc;
  sc.name = "mixed-storage";
  sc.environment = outdoor_factory();
  sc.duration = Seconds{3600.0};
  sc.options.dt = Seconds{5.0};
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {4, 21};
  spec.compile_traces = true;
  expect_width_invariant(spec);
}

// ---------------------------------------------------------------------------
// Energy-ledger leak detector
// ---------------------------------------------------------------------------

CampaignSpec leak_grid(bool leaky) {
  CampaignSpec spec;
  if (leaky)
    spec.platforms.push_back(
        {"leaky", [](std::uint64_t) { return leaky_platform(); }});
  else
    spec.platforms.push_back(
        {"steady", [](std::uint64_t) { return steady_platform(); }});
  Scenario sc;
  // Midnight to noon: the capacitor idles through the dark first half, then
  // the sun charges it through the second — the leaky config's v^2/R loss
  // explodes once voltage builds, while the near-full healthy config's loss
  // rate barely moves.
  sc.name = "charge-up";
  sc.environment = outdoor_factory();
  sc.duration = Seconds{43200.0};
  sc.options.dt = Seconds{5.0};
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {2};
  spec.compile_traces = true;
  return spec;
}

TEST(LeakDetector, FlagsSuperlinearStorageLoss) {
  Campaign c(leak_grid(true));
  c.run();
  ASSERT_EQ(c.leak_warnings().size(), 1u);
  const auto& w = c.leak_warnings().front();
  EXPECT_EQ(w.platform_index, 0u);
  EXPECT_EQ(w.scenario_index, 0u);
  EXPECT_EQ(w.seed_index, 0u);
  EXPECT_EQ(w.seed, 2u);
  EXPECT_GT(w.second_half_loss_j, 2.0 * w.first_half_loss_j);
  EXPECT_GT(w.second_half_loss_j - w.first_half_loss_j, 1e-6);

  const auto snap = c.metrics();
  const auto* counter = snap.find("campaign.leak_warnings");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->count, 1u);
  const auto* gauge = snap.find("campaign.leak_excess_max_j");
  ASSERT_NE(gauge, nullptr);
  EXPECT_GT(gauge->value, 0.0);
}

TEST(LeakDetector, StaysQuietOnSteadyStateLoss) {
  Campaign c(leak_grid(false));
  c.run();
  EXPECT_TRUE(c.leak_warnings().empty());
}

// ---------------------------------------------------------------------------
// Run-health timeline on the batched path
// ---------------------------------------------------------------------------

TEST(RunTimeline, ByteIdenticalAcrossLaneWidthsWithSamplingOn) {
  CampaignSpec spec = systems_grid();
  spec.scenarios[0].options.timeline_dt = Seconds{60.0};
  expect_width_invariant(spec);
}

TEST(RunTimeline, FaultedSoaGridByteIdenticalWithSamplingOn) {
  // The sampler's periodic shares each lane's event queue with the fault
  // onsets; with both armed the batched lanes must still reproduce the
  // width-1 reference byte for byte.
  CampaignSpec spec;
  spec.platforms.push_back(
      {"system-b", [](std::uint64_t s) { return systems::build_system_b(s); }});
  Scenario sc;
  sc.name = "faulted-sampled";
  sc.environment = outdoor_factory();
  sc.duration = Seconds{7200.0};
  sc.options.dt = Seconds{5.0};
  sc.options.timeline_dt = Seconds{120.0};
  sc.options.mean_query_interval = Seconds{120.0};
  sc.injector = [](std::uint64_t seed, systems::Platform& platform) {
    auto inj = std::make_unique<fault::FaultInjector>(seed);
    inj->harvester_intermittent(Seconds{600.0}, platform.input(0), 0.4);
    inj->harvester_heal(Seconds{2400.0}, platform.input(0));
    inj->storage_leakage_spike(Seconds{1800.0}, platform.store(0), 25.0,
                               Seconds{1200.0});
    inj->converter_thermal_shutdown(Seconds{4200.0}, platform.input(0),
                                    Seconds{600.0});
    return inj;
  };
  spec.scenarios.push_back(std::move(sc));
  spec.seeds = {5, 9};
  spec.compile_traces = true;
  expect_width_invariant(spec);
}

TEST(RunTimeline, SamplingOnVsOffReportsIdenticalBytesAtWidthEight) {
  CampaignSpec off = systems_grid();
  off.lane_width = 8;
  off.threads = 3;
  CampaignSpec on = systems_grid();
  on.lane_width = 8;
  on.threads = 3;
  on.scenarios[0].options.timeline_dt = Seconds{60.0};
  Campaign c_off(off);
  Campaign c_on(on);
  EXPECT_EQ(reports(c_off), reports(c_on));
  // Off: no job carries a timeline. On: every job does.
  for (const auto& job : c_off.results())
    EXPECT_EQ(job.result.timeline, nullptr);
  for (const auto& job : c_on.results()) {
    ASSERT_NE(job.result.timeline, nullptr);
    EXPECT_EQ(job.result.timeline->sample_count(), 30u);  // 1800 s / 60 s
  }
}

TEST(RunTimeline, TimelineBytesIdenticalAcrossLaneWidths) {
  // Every timeline column, not just the results, must be the same bytes on
  // the batched path as on the run_platform path (width 1).
  auto timelines_at = [](unsigned width) {
    CampaignSpec spec = systems_grid();
    spec.lane_width = width;
    spec.threads = 1;
    spec.scenarios[0].options.timeline_dt = Seconds{60.0};
    Campaign c(spec);
    c.run();
    std::vector<std::string> out{timelines_json(c)};
    for (const auto& job : c.results()) {
      EXPECT_NE(job.result.timeline, nullptr);
      if (job.result.timeline) out.push_back(job.result.timeline->csv());
    }
    return out;
  };
  const auto reference = timelines_at(1);
  ASSERT_EQ(reference.size(), 7u);  // the document + 2 platforms x 3 seeds
  for (const unsigned width : {2u, 8u})
    EXPECT_EQ(reference, timelines_at(width)) << "lane_width=" << width;
}

TEST(LeakDetector, WarningsAgreeAcrossLaneWidths) {
  auto warnings_at = [&](unsigned width) {
    CampaignSpec spec = leak_grid(true);
    spec.lane_width = width;
    Campaign c(spec);
    c.run();
    return c.leak_warnings().size();
  };
  EXPECT_EQ(warnings_at(1), warnings_at(8));
}

}  // namespace
}  // namespace msehsim::campaign
