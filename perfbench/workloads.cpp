#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "campaign/export.hpp"
#include "core/fmt.hpp"
#include "env/environment.hpp"
#include "env/trace_cache.hpp"
#include "manager/backup_chain.hpp"
#include "serve/daemon.hpp"
#include "serve/json.hpp"
#include "serve/spec.hpp"
#include "systems/runner.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using msehsim::Seconds;
namespace campaign = msehsim::campaign;
namespace serve = msehsim::serve;
namespace systems = msehsim::systems;

void RunReport::fail(std::string why) {
  correct = false;
  errors.push_back(std::move(why));
}

void RunReport::add(const std::string& name, double value,
                    const std::string& unit, bool in_result,
                    const std::string& note) {
  lines.push_back(name + " = " + num(value) + " " + unit +
                  (note.empty() ? "" : "  (" + note + ")"));
  if (in_result) metrics.emplace_back(name, Metric{value, unit});
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

namespace {

// Stream tags keep the workloads' draws independent of each other.
constexpr std::uint64_t kGridStream = 0x67726964ull;      // "grid"
constexpr std::uint64_t kWeekStream = 0x7765656bull;      // "week"
constexpr std::uint64_t kScheduleStream = 0x73636864ull;  // "schd"
constexpr std::uint64_t kMixStream = 0x6d6978ull;         // "mix"

const std::vector<std::string> kTableOne = {"system-a", "system-b", "system-c",
                                            "system-d", "system-e", "system-f",
                                            "system-g"};

}  // namespace

std::vector<std::uint64_t> derive_seeds(std::uint64_t seed, std::uint64_t stream,
                                        std::size_t n) {
  SplitMix64 rng(seed ^ (stream * 0x9e3779b97f4a7c15ull));
  std::vector<std::uint64_t> out;
  // 32-bit seeds: readable in exports and exact in every JSON reader.
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.next() >> 32);
  return out;
}

std::string week_schedule_csv(std::uint64_t seed) {
  // The rows of examples/schedules/system_a_faults.csv: (onset within the
  // day, fault, target, magnitude range, duration range, count, spread).
  struct Row {
    double onset_s;
    const char* fault;
    const char* target;
    double a_lo, a_hi;  ///< NaN = unset
    double b_lo, b_hi;  ///< NaN = unset
    int count;
    double spread_s;
    bool integral_a;
  };
  const double u = std::nan("");
  const Row rows[] = {
      {3600, "harvester_degrade", "input:0", 0.6, 0.8, u, u, 1, 0, false},
      {3600, "harvester_degrade", "input:1", 0.6, 0.8, u, u, 1, 0, false},
      {7200, "harvester_intermittent", "input:2", 0.3, 0.5, u, u, 1, 0, false},
      {10800, "sensor_drift", "input:0", 1.1, 1.2, 3600, 7200, 1, 0, false},
      {14400, "converter_thermal_shutdown", "input:1", u, u, 300, 900, 1, 0,
       false},
      {21600, "bus_nak_burst", "bus", 3, 6, u, u, 3, 14400, true},
      {28800, "bus_bit_errors", "bus", 0.01, 0.03, 200, 400, 1, 0, false},
      {36000, "storage_capacity_fade", "storage:0", 0.02, 0.05, u, u, 1, 0,
       false},
      {36000, "storage_leakage_spike", "storage:0", 4, 8, 900, 1800, 1, 0,
       false},
      {43200, "node_flash_wear", "node", 1.5, 2.5, u, u, 1, 0, false},
      {43200, "node_radio_pa_degrade", "node", 1.1, 1.3, u, u, 1, 0, false},
      // Evening: every input fails short (System A's whole ambient side, so
      // its backup chain engages) until a field tech heals them.
      {64800, "harvester_stuck_short", "input:0", u, u, u, u, 1, 0, false},
      {64800, "harvester_stuck_short", "input:1", u, u, u, u, 1, 0, false},
      {64800, "harvester_stuck_short", "input:2", u, u, u, u, 1, 0, false},
      {72000, "harvester_heal", "input:0", u, u, u, u, 1, 0, false},
      {72000, "harvester_heal", "input:1", u, u, u, u, 1, 0, false},
      {72000, "harvester_heal", "input:2", u, u, u, u, 1, 0, false},
  };
  SplitMix64 rng(seed ^ (kScheduleStream * 0x9e3779b97f4a7c15ull));
  std::string out = std::string(msehsim::fault::Schedule::kMagic) + "\n" +
                    std::string(msehsim::fault::Schedule::kHeader) + "\n";
  for (int day = 0; day < 7; ++day) {
    for (const Row& r : rows) {
      // +-30 min jitter keeps every row inside its day and the
      // stuck-short -> heal order intact.
      const double when =
          86400.0 * day + r.onset_s + std::round(rng.uniform(-1800.0, 1800.0));
      std::string a, b;
      if (!std::isnan(r.a_lo)) {
        const double v = rng.uniform(r.a_lo, r.a_hi);
        a = r.integral_a ? num(std::floor(v))
                         : msehsim::format_double_fixed(v, 3);
      }
      if (!std::isnan(r.b_lo)) b = num(std::round(rng.uniform(r.b_lo, r.b_hi)));
      out += num(when) + "," + r.fault + "," + r.target + "," + a + "," + b +
             "," + std::to_string(r.count) + "," +
             (r.spread_s > 0 ? num(r.spread_s) : std::string()) + "\n";
    }
  }
  return out;
}

std::uint64_t GridUnit::lane_steps() const {
  const auto steps = static_cast<std::uint64_t>(std::llround(duration_s / dt_s));
  return steps * platforms.size() * kinds.size() * seeds.size();
}

systems::SystemId platform_id(const std::string& name) {
  static const std::map<std::string, systems::SystemId> ids = {
      {"system-a", systems::SystemId::kSmartPowerUnit},
      {"system-b", systems::SystemId::kPlugAndPlay},
      {"system-c", systems::SystemId::kAmbiMax},
      {"system-d", systems::SystemId::kMpWiNode},
      {"system-e", systems::SystemId::kMax17710Eval},
      {"system-f", systems::SystemId::kCymbetEval09},
      {"system-g", systems::SystemId::kEhLink}};
  return ids.at(name);
}

std::unique_ptr<systems::Platform> make_platform(const std::string& name,
                                                std::uint64_t seed) {
  if (name != kSystemAChain) return systems::build(platform_id(name), seed);
  // System A with the two-stage backup ladder of examples/fault_campaign.cpp:
  // fuel cell (slot 2) first, load shedding as the last resort. The catalog
  // build has no backup chain, so without it no fault could fail over.
  auto p = systems::build_system_a(seed);
  msehsim::manager::BackupStageParams fuel_cell;
  fuel_cell.kind = msehsim::manager::BackupStageKind::kFuelCell;
  fuel_cell.storage_slot = 2;
  fuel_cell.min_outage = Seconds{600.0};
  fuel_cell.min_recovery = Seconds{1800.0};
  msehsim::manager::BackupStageParams load_shed;
  load_shed.kind = msehsim::manager::BackupStageKind::kLoadShed;
  load_shed.enable_below_soc = 0.10;
  load_shed.disable_above_soc = 0.35;
  load_shed.min_outage = Seconds{3600.0};
  load_shed.min_recovery = Seconds{3600.0};
  msehsim::manager::BackupChain::Params chain;
  chain.stages = {fuel_cell, load_shed};
  p->set_backup_chain(chain);
  return p;
}

std::unique_ptr<msehsim::env::EnvironmentModel> make_environment(
    const std::string& kind, std::uint64_t seed) {
  using msehsim::env::Environment;
  if (kind == "outdoor")
    return std::make_unique<Environment>(Environment::outdoor(seed));
  if (kind == "indoor-industrial")
    return std::make_unique<Environment>(Environment::indoor_industrial(seed));
  if (kind == "agricultural")
    return std::make_unique<Environment>(Environment::agricultural(seed));
  return std::make_unique<Environment>(Environment::office(seed));
}

campaign::CampaignSpec to_spec(const GridUnit& unit) {
  campaign::CampaignSpec spec;
  spec.threads = 1;
  spec.lane_width = 8;  // explicit: an inherited MSEHSIM_LANE_WIDTH must not apply
  spec.compile_traces = true;
  for (const auto& name : unit.platforms) {
    spec.platforms.push_back(
        {name, [name](std::uint64_t s) { return make_platform(name, s); }});
  }
  for (const auto& kind : unit.kinds) {
    campaign::Scenario scenario;
    scenario.name = kind;
    scenario.duration = Seconds{unit.duration_s};
    scenario.options.dt = Seconds{unit.dt_s};
    scenario.environment = [kind](std::uint64_t s) {
      return make_environment(kind, s);
    };
    if (unit.schedule)
      scenario.injector = campaign::schedule_injector(unit.schedule);
    spec.scenarios.push_back(std::move(scenario));
  }
  spec.seeds = unit.seeds;
  return spec;
}

std::vector<GridUnit> paper_grid_units(std::uint64_t seed) {
  GridUnit unit;
  unit.platforms = kTableOne;
  unit.kinds = {"outdoor", "indoor-industrial"};
  unit.duration_s = 86400.0;
  unit.seeds = derive_seeds(seed, kGridStream, 3);
  return {unit};
}

std::vector<GridUnit> week_units(
    std::uint64_t seed, std::shared_ptr<const msehsim::fault::Schedule> schedule) {
  const auto seeds = derive_seeds(seed, kWeekStream, 2);
  GridUnit a;
  a.platforms = {kSystemAChain};
  a.kinds = {"outdoor"};
  a.duration_s = 7 * 86400.0;
  a.seeds = seeds;
  a.schedule = schedule;
  GridUnit b = a;
  b.platforms = {"system-b"};
  b.kinds = {"indoor-industrial"};
  return {a, b};
}

const char* class_name(ReqClass c) {
  switch (c) {
    case ReqClass::kHit: return "hit";
    case ReqClass::kWarm: return "warm";
    case ReqClass::kCold: return "cold";
    case ReqClass::kScrape: return "scrape";
  }
  return "?";
}

MixPlan daemon_plan(std::uint64_t seed, std::size_t count) {
  // A hit or warm request may only depend on a miss at least kLag positions
  // earlier, so with two clients its dependency has almost always finished
  // and the closed loop rarely stalls; it reuses one of the kWindow most
  // recent such misses, a working set far below the daemon's caches.
  constexpr std::size_t kLag = 40;
  constexpr std::size_t kWindow = 32;
  const std::vector<std::string> kinds = {"outdoor", "indoor-industrial",
                                          "agricultural", "office"};
  SplitMix64 rng(seed ^ (kMixStream * 0x9e3779b97f4a7c15ull));
  MixPlan plan;
  plan.requests.reserve(count);

  struct Pair {
    std::string kind;
    std::uint64_t seed;
    std::int64_t cold_request;
    std::vector<std::vector<std::string>> subsets;  ///< studies already asked
  };
  std::vector<Pair> pairs;
  std::vector<std::size_t> misses;  ///< spec index of each miss, request order

  const auto random_subset = [&] {
    std::vector<std::string> s = {kTableOne[rng.below(kTableOne.size())]};
    if (rng.below(2) == 1) {
      std::string second = kTableOne[rng.below(kTableOne.size())];
      while (second == s.front()) second = kTableOne[rng.below(kTableOne.size())];
      s.push_back(second);
    }
    return s;
  };

  std::vector<ReqClass> block;
  std::size_t eligible_misses = 0, eligible_pairs = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 20 == 0) {
      block.assign(15, ReqClass::kHit);
      block.insert(block.end(), 2, ReqClass::kWarm);
      block.insert(block.end(), 2, ReqClass::kCold);
      block.push_back(ReqClass::kScrape);
      for (std::size_t k = block.size() - 1; k > 0; --k)
        std::swap(block[k], block[rng.below(k + 1)]);
    }
    MixRequest req;
    req.cls = block[i % 20];
    const auto now = static_cast<std::int64_t>(i);

    // Eligible dependencies: misses / pairs at least kLag requests back
    // (both lists are in request order, so the prefixes only grow).
    while (eligible_misses < misses.size() &&
           plan.specs[misses[eligible_misses]].first_request + kLag <=
               static_cast<std::size_t>(now))
      ++eligible_misses;
    while (eligible_pairs < pairs.size() &&
           pairs[eligible_pairs].cold_request + kLag <=
               static_cast<std::size_t>(now))
      ++eligible_pairs;
    if (req.cls == ReqClass::kHit && eligible_misses == 0)
      req.cls = ReqClass::kCold;
    if (req.cls == ReqClass::kWarm && eligible_pairs == 0)
      req.cls = ReqClass::kCold;

    switch (req.cls) {
      case ReqClass::kCold: {
        Pair pair{kinds[rng.below(kinds.size())], rng.next() >> 32, now, {}};
        pair.subsets.push_back(random_subset());
        plan.specs.push_back({pair.subsets.back(), pair.kind, pair.seed, now});
        pairs.push_back(std::move(pair));
        req.spec = plan.specs.size() - 1;
        misses.push_back(req.spec);
        break;
      }
      case ReqClass::kWarm: {
        const std::size_t lo = eligible_pairs > 16 ? eligible_pairs - 16 : 0;
        Pair& pair = pairs[lo + rng.below(eligible_pairs - lo)];
        std::vector<std::string> subset = random_subset();
        while (std::find(pair.subsets.begin(), pair.subsets.end(), subset) !=
               pair.subsets.end())
          subset = random_subset();
        pair.subsets.push_back(subset);
        plan.specs.push_back({subset, pair.kind, pair.seed, now});
        req.spec = plan.specs.size() - 1;
        req.depends_on = pair.cold_request;
        misses.push_back(req.spec);
        break;
      }
      case ReqClass::kHit: {
        const std::size_t lo =
            eligible_misses > kWindow ? eligible_misses - kWindow : 0;
        req.spec = misses[lo + rng.below(eligible_misses - lo)];
        req.spelling = static_cast<unsigned>(rng.below(3));
        req.depends_on = plan.specs[req.spec].first_request;
        break;
      }
      case ReqClass::kScrape:
        break;
    }
    plan.requests.push_back(req);
  }
  return plan;
}

std::string mix_body(const MixSpec& spec, unsigned variant) {
  std::string platforms;
  for (std::size_t i = 0; i < spec.platforms.size(); ++i)
    platforms += (i ? ", \"" : "\"") + spec.platforms[i] + "\"";
  const std::string seed = std::to_string(spec.seed);
  // Three spellings of one study: key order, whitespace and number
  // spelling differ, the canonical form does not.
  switch (variant % 3) {
    case 1:
      return "{\"seeds\":[" + seed + "],\"scenarios\":[{\"dt_s\":5.0,"
             "\"duration_s\":2.16e4,\"kind\":\"" + spec.kind + "\",\"name\":\"" +
             spec.kind + "\"}],\"platforms\":[" + platforms + "]}";
    case 2:
      return "{\n  \"platforms\": [" + platforms +
             "],\n  \"scenarios\": [\n    {\"name\": \"" + spec.kind +
             "\", \"kind\": \"" + spec.kind +
             "\", \"duration_s\": 21600.0, \"dt_s\": 5}\n  ],\n"
             "  \"seeds\": [" + seed + "],\n  \"lane_width\": 4\n}\n";
    default:
      return "{\"platforms\": [" + platforms + "], \"scenarios\": [{\"name\": \"" +
             spec.kind + "\", \"kind\": \"" + spec.kind +
             "\", \"duration_s\": 21600, \"dt_s\": 5}], \"seeds\": [" + seed +
             "], \"lane_width\": 8}";
  }
}

std::uint64_t mix_lane_steps(const MixSpec& spec) {
  return static_cast<std::uint64_t>(kMixDurationS / kMixDtS) *
         spec.platforms.size();
}

std::string describe_inputs(const std::string& workload, std::uint64_t seed) {
  std::string out;
  const auto dump_units = [&](const std::vector<GridUnit>& units) {
    for (const auto& u : units) {
      for (const auto& p : u.platforms) out += p + ",";
      for (const auto& k : u.kinds) out += k + ",";
      for (const auto s : u.seeds) out += std::to_string(s) + ",";
      out += num(u.duration_s) + "\n";
    }
  };
  if (workload == "paper-grid") {
    dump_units(paper_grid_units(seed));
  } else if (workload == "week-faulted") {
    const std::string csv = week_schedule_csv(seed);
    dump_units(week_units(seed, nullptr));
    out += csv;
  } else {
    const MixPlan plan = daemon_plan(seed, 4000);
    for (const auto& r : plan.requests) {
      out += std::string(class_name(r.cls)) + " " + std::to_string(r.depends_on);
      if (r.cls != ReqClass::kScrape)
        out += " " + mix_body(plan.specs[r.spec], r.spelling);
      out += "\n";
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Correctness helpers
// ---------------------------------------------------------------------------

std::uint64_t jobs_digest(const std::vector<const campaign::Campaign*>& campaigns) {
  std::uint64_t h = fnv1a("");
  for (const auto* c : campaigns)
    for (const auto& job : c->results()) h = fnv1a(systems::to_string(job.result), h);
  return h;
}

double worst_residual(const std::vector<const campaign::Campaign*>& campaigns) {
  double worst = 0.0;
  for (const auto* c : campaigns)
    for (const auto& job : c->results())
      worst = std::max(worst, job.result.ledger.relative_residual());
  return worst;
}

double worst_residual_in_json(const std::string& body) {
  // The same quantities EnergyLedger::relative_residual() combines, read
  // back from the round-trip-exact export.
  const serve::JsonValue root = serve::parse_json(body);
  double worst = 0.0;
  for (const auto& job : root.find("jobs")->as_array()) {
    const serve::JsonValue& f = *job.find("fields");
    const auto get = [&](const char* name) { return f.find(name)->as_double(); };
    const double gross = get("ledger.harvested_j") +
                         get("ledger.storage_discharged_j") +
                         get("ledger.unserved_j") + get("ledger.quiescent_j") +
                         get("ledger.bus_load_j") +
                         get("ledger.storage_charged_j") + get("ledger.wasted_j");
    worst = std::max(worst, std::fabs(get("ledger.residual_j")) /
                                std::max(1.0, gross));
  }
  return worst;
}

std::string expected_digest(const std::string& path, const std::string& workload,
                            std::uint64_t seed) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const serve::JsonValue root = serve::parse_json(text.str());
  const auto default_seed = msehsim::parse_unsigned(
      root.find("default_seed")->raw_number());
  if (!default_seed || *default_seed != seed) return "";
  return root.find("digests")->find(workload)->as_string();
}

bool check_digest(const Options& opt, std::uint64_t digest, RunReport& report) {
  const std::string got = hex64(digest);
  std::string want = expected_digest(opt.expected_path, opt.workload, opt.seed);
  if (want.empty()) {
    report.lines.push_back("digest " + got +
                           " (no recorded digest for this seed; residual, "
                           "repeat and replay checks still apply)");
    return true;
  }
  if (opt.inject == "digest") want[0] = want[0] == '0' ? '1' : '0';
  if (got != want) {
    report.fail("digest mismatch: got " + got + ", recorded " + want);
    return false;
  }
  report.lines.push_back("digest " + got + " matches the recorded digest");
  return true;
}

// ---------------------------------------------------------------------------
// paper-grid / week-faulted (untraced)
// ---------------------------------------------------------------------------

namespace {

/// Set-up samples per run (the median is reported), split evenly over the
/// CPU rotation. A set-up generates the inputs, parses the schedule and
/// builds every spec: ~2 us on paper-grid, ~100 us on week-faulted. Each
/// sample times a batch of set-ups back to back (about 1 ms) and reports
/// their mean, so a sample is not a snapshot of one busy microsecond.
constexpr std::size_t kSetupSamples = 100;

std::size_t setups_per_sample(const std::string& workload) {
  return workload == "paper-grid" ? 500 : 10;
}

}  // namespace

CampaignSetup set_up_campaigns(const Options& opt, CpuRotation& cpus) {
  CampaignSetup out;
  const std::size_t batch = setups_per_sample(opt.workload);
  const std::size_t per_cpu = kSetupSamples / cpus.round();
  for (std::size_t i = 0; i < per_cpu * cpus.round(); ++i) {
    if (i % per_cpu == 0) cpus.pin(i / per_cpu);
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < batch; ++k) {
      out.schedule_csv.clear();
      if (opt.workload == "paper-grid") {
        out.units = paper_grid_units(opt.seed);
      } else {
        out.schedule_csv = week_schedule_csv(opt.seed);
        out.units = week_units(opt.seed,
                               std::make_shared<const msehsim::fault::Schedule>(
                                   msehsim::fault::Schedule::parse(
                                       out.schedule_csv, "week-faulted")));
      }
      out.specs.clear();
      for (const auto& u : out.units) out.specs.push_back(to_spec(u));
    }
    out.setup_ms.push_back(ms_between(t0, Clock::now()) /
                           static_cast<double>(batch));
  }
  // One untimed warm-up repetition, so code and allocator pages are
  // faulted in before anything is timed.
  for (const auto& spec : out.specs) {
    campaign::Campaign warm_up(spec);
    warm_up.run();
    (void)campaign::results_json(warm_up);
  }
  return out;
}

RunReport run_campaign_workload(const Options& opt) {
  RunReport report;
  CpuRotation cpus;
  CampaignSetup setup = set_up_campaigns(opt, cpus);
  const auto& units = setup.units;
  const auto& specs = setup.specs;
  const auto& setup_ms = setup.setup_ms;
  std::uint64_t lane_steps_per_rep = 0;
  for (const auto& u : units) lane_steps_per_rep += u.lane_steps();

  std::vector<double> rep_ms;
  std::uint64_t first_digest = 0;
  std::uint64_t first_json = 0;
  const auto window_start = Clock::now();
  // At least two repetitions, so the repeat-determinism check always runs,
  // and whole rounds over the CPUs, so each is sampled equally.
  while (rep_ms.size() < 2 || rep_ms.size() % cpus.round() != 0 ||
         ms_between(window_start, Clock::now()) < opt.seconds * 1e3) {
    ++report.attempted;
    cpus.pin(rep_ms.size());
    try {
      const auto t0 = Clock::now();
      std::vector<std::unique_ptr<campaign::Campaign>> runs;
      std::uint64_t json_digest = fnv1a("");
      for (const auto& spec : specs) {
        runs.push_back(std::make_unique<campaign::Campaign>(spec));
        runs.back()->run();
        json_digest = fnv1a(campaign::results_json(*runs.back()), json_digest);
      }
      rep_ms.push_back(ms_between(t0, Clock::now()));

      std::vector<const campaign::Campaign*> view;
      for (const auto& c : runs) view.push_back(c.get());
      std::uint64_t digest = jobs_digest(view);
      if (opt.inject == "body" && rep_ms.size() == 2) digest ^= 1;
      const double residual = worst_residual(view);
      std::string bad;
      if (!(residual < kResidualLimit))
        bad = "ledger relative residual " + num(residual) + " >= 1e-9";
      if (rep_ms.size() == 1) {
        first_digest = digest;
        first_json = json_digest;
        if (!check_digest(opt, digest, report)) bad = "digest mismatch";
      } else if (digest != first_digest || json_digest != first_json) {
        bad = "repetition " + std::to_string(rep_ms.size()) +
              " differs from the first (results are not deterministic)";
      }
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

  double total_ms = 0.0;
  for (const double m : rep_ms) total_ms += m;
  const auto n = std::to_string(rep_ms.size());
  report.add("setup_s", *median(setup_ms) / 1e3, "s", true,
             "median of " + std::to_string(setup_ms.size()) + " samples of " +
                 std::to_string(setups_per_sample(opt.workload)) +
                 " set-ups: inputs, schedule parse, specs");
  // Repetition i ran on CPU i mod round(). The CPUs differ in speed, so the
  // median of all repetitions can jump between a fast and a slow CPU's
  // cluster from run to run; the mean of the per-CPU medians does not.
  std::vector<std::vector<double>> by_cpu(cpus.round());
  for (std::size_t i = 0; i < rep_ms.size(); ++i)
    by_cpu[i % by_cpu.size()].push_back(rep_ms[i]);
  double p50 = 0.0;
  std::size_t cpus_used = 0;
  for (const auto& v : by_cpu)
    if (const auto m = median(v)) {
      p50 += *m;
      ++cpus_used;
    }
  p50 /= static_cast<double>(std::max<std::size_t>(1, cpus_used));
  const std::string per_cpu_note =
      "mean of the per-CPU median repetitions over " +
      std::to_string(cpus_used) + " CPUs; n=" + n;
  report.add("op_ms_p50", p50, "ms", true,
             "one repetition: construct + run + results_json; " + per_cpu_note);
  report.add("cold_ms_p50", p50, "ms", true,
             "every repetition compiles its traces anew; " + per_cpu_note);
  report.add("ops_per_s", rep_ms.size() / (total_ms / 1e3), "1/s", true,
             "repetitions per host second");
  report.add("lane_steps_per_s",
             static_cast<double>(lane_steps_per_rep * rep_ms.size()) /
                 (total_ms / 1e3),
             "1/s", true,
             std::to_string(lane_steps_per_rep) + " lane-steps per repetition");
  report.add("peak_rss_mb", peak_rss_mb(), "MB", true);
  report.add("campaign_ms_p50", median(rep_ms).value_or(0.0), "ms", false,
             "median of all repetitions; n=" + n);
  report.add("error_rate",
             report.attempted ? static_cast<double>(report.failed) /
                                    static_cast<double>(report.attempted)
                              : 0.0,
             "ratio", false,
             std::to_string(report.failed) + "/" +
                 std::to_string(report.attempted));
  return report;
}

// ---------------------------------------------------------------------------
// daemon-mix
// ---------------------------------------------------------------------------

namespace {

constexpr std::string_view kTraceCompilesKey = "\"trace_compiles\": ";

}  // namespace

long trace_compiles_field(const std::string& body) {
  const auto at = body.find(kTraceCompilesKey);
  return at == std::string::npos
             ? -1
             : std::strtol(body.c_str() + at + kTraceCompilesKey.size(), nullptr,
                           10);
}

std::string simulated_content(const std::string& body) {
  std::string out = body;
  const auto at = out.find(kTraceCompilesKey);
  if (at == std::string::npos) return out;
  const auto from = at + kTraceCompilesKey.size();
  auto to = from;
  while (to < out.size() && out[to] >= '0' && out[to] <= '9') ++to;
  return out.replace(from, to - from, "*");
}

DaemonFixture::DaemonFixture(const std::string& work_dir, int n) {
  dir = (fs::path(work_dir) /
         ("daemon-" + std::to_string(::getpid()) + "-" + std::to_string(n)))
            .string();
  fs::remove_all(dir);
  serve::DaemonOptions o;
  o.http.port = 0;
  o.http.workers = 2;
  o.campaign_threads = 1;
  o.max_concurrent_campaigns = 2;
  o.trace_cache_dir = dir;
  daemon = std::make_unique<serve::Daemon>(std::move(o));
  daemon->start();
  probe = std::make_unique<msehsim::env::TraceCache>(dir);
}

DaemonFixture::~DaemonFixture() {
  daemon->stop();
  daemon.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
}

bool DaemonFixture::trace_on_disk(const MixSpec& spec) const {
  return fs::exists(probe->entry_path(mix_trace_key(spec)));
}

msehsim::env::TraceCacheKey mix_trace_key(const MixSpec& spec) {
  // serve::to_campaign_spec keys presets as "preset:<kind>".
  return {"preset:" + spec.kind, spec.seed, Seconds{kMixDtS},
          Seconds{kMixDurationS}};
}

namespace {

/// Daemon set-ups per run (the median is reported); each takes ~0.1 ms.
constexpr int kDaemonSetupRepeats = 15;
/// Misses whose bodies form the recorded digest (in request order).
constexpr std::size_t kDigestMisses = 100;
/// Requests in the plan: a fixed size, so set-up does not depend on the
/// run length. At ~1500 requests/s on a 4-vCPU host this lasts ~25 s; a
/// run that exhausts it ends early and says so.
constexpr std::size_t kPlanRequests = 40000;

}  // namespace

MixSetup set_up_mix(const Options& opt) {
  MixSetup out;
  // The plan is the benchmark's own input, generated once and not timed:
  // its ~6 ms of allocation-bound work would swamp the daemon's set-up.
  out.plan = daemon_plan(opt.seed, kPlanRequests);
  for (int i = 0; i < kDaemonSetupRepeats; ++i) {
    // Earlier set-ups stay up, idle, until the run ends. Stopping a daemon
    // right after start() can hang: HttpServer::stop() sets its stopping
    // flag and notifies the workers without holding their queue mutex, so
    // a worker that has just checked the flag misses the wake-up and stop()
    // joins it forever (reproduced under CPU contention). By the end of the
    // run every idle worker is asleep on the condition variable.
    if (out.fixture) out.earlier.push_back(std::move(out.fixture));
    const auto t0 = Clock::now();
    out.fixture = std::make_unique<DaemonFixture>(opt.work_dir, i);
    out.setup_ms.push_back(ms_between(t0, Clock::now()));
  }
  return out;
}

MixTraffic drive_mix(const MixPlan& plan, DaemonFixture& fixture,
                     const Options& opt, double seconds, SpanRecorder* spans) {
  MixTraffic traffic;
  const std::size_t n = plan.requests.size();
  traffic.outcomes.assign(n, MixOutcome{});
  std::vector<int> remaining_uses(plan.specs.size(), 0);
  for (const auto& r : plan.requests)
    if (r.cls != ReqClass::kScrape) ++remaining_uses[r.spec];

  std::mutex mu;  // guards done, bodies, remaining_uses, first_miss_bodies
  std::condition_variable cv;
  std::vector<char> done(n, 0);
  std::map<std::size_t, std::string> bodies;  ///< miss body per live study
  bool corrupted = false;
  std::atomic<std::size_t> next{0};

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  const auto one_request = [&](std::size_t i) {
    const MixRequest& req = plan.requests[i];
    MixOutcome& out = traffic.outcomes[i];
    std::string why;
    bool had_trace = false;
    std::string wire;
    if (req.cls == ReqClass::kScrape) {
      wire = format_request("GET", "/metrics", "");
    } else {
      wire = format_request("POST", "/v1/campaign",
                            mix_body(plan.specs[req.spec], req.spelling));
      had_trace = fixture.trace_on_disk(plan.specs[req.spec]);
    }
    HttpReply reply = http_exchange(fixture.daemon->port(), wire);
    out.ms = reply.total_ms();
    if (spans) {
      const std::string cls = class_name(req.cls);
      const std::uint64_t id = spans->next_request();
      const std::uint64_t root =
          spans->add("client." + cls, reply.start, reply.last_byte, 0, id);
      spans->add("serve.connect", reply.start, reply.connected, root, id);
      spans->add("serve.ttfb." + cls, reply.sent, reply.first_byte, root, id);
    }
    if (!reply.ok) {
      why = "transport: " + reply.error;
    } else if (reply.status != 200) {
      why = "HTTP " + std::to_string(reply.status) + ": " + reply.body;
    } else if (req.cls == ReqClass::kScrape) {
      if (reply.body.find("msehsim_serve_requests_total") == std::string::npos)
        why = "scrape lacks the serve.requests row";
    } else {
      const auto header = reply.headers.find("x-msehsim-result-cache");
      const std::string seen =
          header == reply.headers.end() ? "(none)" : header->second;
      const bool miss_class = req.cls != ReqClass::kHit;
      if (seen != (miss_class ? "miss" : "hit")) {
        why = std::string("intended ") + class_name(req.cls) +
              ", daemon answered " + seen;
      } else if (miss_class && had_trace != (req.cls == ReqClass::kWarm)) {
        why = std::string("intended ") + class_name(req.cls) + " but the trace " +
              (had_trace ? "was" : "was not") + " on disk before the request";
      } else if (miss_class) {
        const double r = worst_residual_in_json(reply.body);
        if (!(r < kResidualLimit))
          why = "ledger relative residual " + num(r) + " >= 1e-9";
      }
      if (miss_class) {
        out.body_digest = fnv1a(simulated_content(reply.body));
        out.trace_compiles = trace_compiles_field(reply.body);
      }
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (req.cls == ReqClass::kHit && why.empty()) {
        if (opt.inject == "body" && !corrupted) {
          corrupted = true;
          reply.body[reply.body.size() / 2] ^= 1;
        }
        const auto it = bodies.find(req.spec);
        if (it == bodies.end() || it->second != reply.body)
          why = "hit body differs from the miss body of the same study";
      }
      if (req.cls == ReqClass::kWarm || req.cls == ReqClass::kCold) {
        if (traffic.first_miss_bodies.size() < 3)
          traffic.first_miss_bodies.emplace_back(req.spec, reply.body);
        bodies[req.spec] = std::move(reply.body);
      }
      if (req.cls != ReqClass::kScrape && --remaining_uses[req.spec] == 0)
        bodies.erase(req.spec);
      out.ok = why.empty();
      out.error = std::move(why);
      done[i] = 1;
    }
    cv.notify_all();
  };
  const auto client = [&] {
    for (;;) {
      if (Clock::now() >= deadline) return;
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      // A taken request always completes, so a dependency (always an
      // earlier index) is either done or in flight on the other client.
      if (const std::int64_t dep = plan.requests[i].depends_on; dep >= 0) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done[dep] != 0; });
      }
      try {
        one_request(i);
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(mu);
        traffic.outcomes[i].error = std::string("exception: ") + e.what();
        done[i] = 1;
        cv.notify_all();
      }
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) clients.emplace_back(client);
  for (auto& t : clients) t.join();
  traffic.elapsed_ms = ms_between(start, Clock::now());
  traffic.issued = std::min(next.load(), n);
  return traffic;
}

namespace {

/// Value of the first sample of @p family in a Prometheus exposition.
double scrape_value(const std::string& text, const std::string& family) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(family + " ", 0) == 0)
      return std::strtod(line.c_str() + family.size() + 1, nullptr);
  return -1.0;
}

}  // namespace

MixCounts verify_mix(const MixPlan& plan, const MixTraffic& traffic,
                     DaemonFixture& fixture, const Options& opt,
                     RunReport& report) {
  MixCounts counts;
  if (traffic.issued == plan.requests.size())
    report.lines.push_back("the request plan (" +
                           std::to_string(plan.requests.size()) +
                           " requests) ran out before the time window ended");
  std::uint64_t digest = fnv1a("");
  std::size_t digest_misses = 0;
  for (std::size_t i = 0; i < traffic.issued; ++i) {
    const MixOutcome& out = traffic.outcomes[i];
    const MixRequest& req = plan.requests[i];
    ++report.attempted;
    ++counts.by_class[static_cast<int>(req.cls)];
    if (!out.ok) {
      ++report.failed;
      if (report.errors.size() < 5)
        report.fail("request " + std::to_string(i) + " (" + class_name(req.cls) +
                    "): " + out.error);
      report.correct = false;
    }
    if ((req.cls == ReqClass::kWarm || req.cls == ReqClass::kCold) &&
        digest_misses < kDigestMisses) {
      digest = fnv1a(hex64(out.body_digest), digest);
      ++digest_misses;
    }
    if (out.ok && (req.cls == ReqClass::kWarm || req.cls == ReqClass::kCold)) {
      counts.lane_steps += mix_lane_steps(plan.specs[req.spec]);
      ++counts.misses;
      // One scenario x one seed materializes exactly one timeline.
      if (out.trace_compiles != 1) ++counts.history_dependent;
    }
  }
  report.lines.push_back(
      "known defect: " + std::to_string(counts.history_dependent) + " of " +
      std::to_string(counts.misses) +
      " miss bodies report trace_compiles != 1 (results_json adds the daemon's "
      "shared trace cache's lifetime hits, so the field depends on request "
      "history); digests and re-run comparisons mask that one field");
  if (digest_misses < kDigestMisses)
    report.fail("only " + std::to_string(digest_misses) + " misses completed; " +
                std::to_string(kDigestMisses) + " are needed for the digest");
  else if (!check_digest(opt, digest, report))
    ++report.failed;

  // The first misses again, in-process through the same public steps the
  // handler uses: the daemon must serve exactly the library's bytes.
  for (const auto& [spec, body] : traffic.first_miss_bodies) {
    campaign::Campaign c(serve::to_campaign_spec(
        serve::parse_campaign_request(mix_body(plan.specs[spec], 0)), nullptr, 1));
    c.run();
    if (simulated_content(campaign::results_json(c)) != simulated_content(body))
      report.fail("daemon body differs from an in-process run of the same study");
  }

  // The daemon's own counters must match the generated mix exactly.
  const auto hits = counts.by_class[static_cast<int>(ReqClass::kHit)];
  const auto warm = counts.by_class[static_cast<int>(ReqClass::kWarm)];
  const auto cold = counts.by_class[static_cast<int>(ReqClass::kCold)];
  const serve::ResultCacheStats rc = fixture.daemon->result_cache_stats();
  counts.result_cache_hits = rc.hits;
  counts.result_cache_misses = rc.misses;
  if (rc.hits != hits || rc.misses != warm + cold)
    report.fail("result cache saw " + std::to_string(rc.hits) + " hits / " +
                std::to_string(rc.misses) + " misses; the mix sent " +
                std::to_string(hits) + " / " + std::to_string(warm + cold));
  const std::string scrape = fixture.daemon->scrape();
  counts.trace_hits = scrape_value(scrape, "msehsim_trace_cache_hits_total");
  counts.trace_misses = scrape_value(scrape, "msehsim_trace_cache_misses_total");
  counts.coalesced =
      scrape_value(scrape, "msehsim_serve_campaign_coalesced_waits_total");
  counts.admission_rejected =
      scrape_value(scrape, "msehsim_serve_admission_rejected_total");
  if (counts.trace_hits != static_cast<double>(warm) ||
      counts.trace_misses != static_cast<double>(cold))
    report.fail("trace cache saw " + num(counts.trace_hits) + " hits / " +
                num(counts.trace_misses) + " misses; the mix sent " +
                std::to_string(warm) + " warm / " + std::to_string(cold) +
                " cold");
  if (counts.coalesced != 0.0 || counts.admission_rejected != 0.0)
    report.fail("unexpected coalesced waits or admission rejections");
  return counts;
}

std::vector<double> class_latencies(const MixPlan& plan,
                                    const MixTraffic& traffic, ReqClass cls) {
  std::vector<double> out;
  for (std::size_t i = 0; i < traffic.issued; ++i) {
    const MixOutcome& o = traffic.outcomes[i];
    if (plan.requests[i].cls != cls || !o.ok) continue;
    out.push_back(o.ms);
  }
  return out;
}

void add_latency(RunReport& report, const std::string& name,
                 const std::vector<double>& samples, double q, bool in_result) {
  const std::string n = "n=" + std::to_string(samples.size());
  const auto v = q == 0.5 ? median(samples) : tail_percentile(samples, q);
  if (v) {
    report.add(name, *v, "ms", in_result, n);
  } else {
    report.lines.push_back(name + " not reported: too few samples (" + n + ")");
    if (in_result) report.fail(name + " has too few samples (" + n + ")");
  }
}

RunReport run_daemon_mix(const Options& opt) {
  RunReport report;
  MixSetup setup = set_up_mix(opt);
  const MixTraffic traffic =
      drive_mix(setup.plan, *setup.fixture, opt, opt.seconds, nullptr);
  const MixCounts counts =
      verify_mix(setup.plan, traffic, *setup.fixture, opt, report);

  const double seconds = traffic.elapsed_ms / 1e3;
  const auto lat = [&](ReqClass c) {
    return class_latencies(setup.plan, traffic, c);
  };
  const auto hit = lat(ReqClass::kHit), warm = lat(ReqClass::kWarm),
             cold = lat(ReqClass::kCold), scrape = lat(ReqClass::kScrape);
  report.add("setup_s", *median(setup.setup_ms) / 1e3, "s", true,
             "median of " + std::to_string(setup.setup_ms.size()) +
                 " set-ups: daemon construct and start");
  add_latency(report, "op_ms_p50", hit, 0.5, true);
  report.lines.back() += " -- the dominant operation: a result-cache hit";
  add_latency(report, "cold_ms_p50", cold, 0.5, true);
  report.add("ops_per_s", static_cast<double>(traffic.issued) / seconds, "1/s",
             true, "completed requests per second, 2 closed-loop clients");
  report.add("lane_steps_per_s", static_cast<double>(counts.lane_steps) / seconds,
             "1/s", true, "lane-steps simulated by misses per host second");
  report.add("peak_rss_mb", peak_rss_mb(), "MB", true);
  add_latency(report, "hit_ms_p50", hit, 0.5, false);
  add_latency(report, "hit_ms_p99", hit, 0.99, false);
  add_latency(report, "warm_ms_p50", warm, 0.5, false);
  add_latency(report, "warm_ms_p90", warm, 0.9, false);
  add_latency(report, "cold_ms_p90", cold, 0.9, false);
  add_latency(report, "scrape_ms_p50", scrape, 0.5, false);
  report.add("req_per_s", static_cast<double>(traffic.issued) / seconds, "1/s",
             false, std::to_string(traffic.issued) + " requests");
  report.add("error_rate",
             report.attempted ? static_cast<double>(report.failed) /
                                    static_cast<double>(report.attempted)
                              : 0.0,
             "ratio", false,
             std::to_string(report.failed) + "/" +
                 std::to_string(report.attempted));
  report.add("serve.result_cache.hit_frac",
             static_cast<double>(counts.result_cache_hits) /
                 static_cast<double>(counts.result_cache_hits +
                                     counts.result_cache_misses),
             "ratio", false,
             "generated share " + std::to_string(hit.size()) + "/" +
                 std::to_string(hit.size() + warm.size() + cold.size()));
  return report;
}

}  // namespace perfbench
