// Behaviour lock: committed digests of every published byte of the paper's
// own workload.
//
// The seven Table I systems x {outdoor, indoor-industrial} x 2 seeds, one
// simulated day each at dt 5 s, run as one campaign. The test hashes
// to_string(RunResult) of every job and the campaign's CSV/JSON exports with
// FNV-1a-64 and compares them against the table below, at lane widths 1 (the
// one-job-at-a-time run_platform path), 2 and 8 (the batched kernel). A
// refactor of the step kernels must leave every digest unchanged; a
// deliberate behaviour change must update the table in the same commit, and
// the failure message prints the full replacement table for that purpose.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "env/environment.hpp"
#include "systems/catalog.hpp"
#include "systems/runner.hpp"

namespace msehsim::campaign {
namespace {

struct Golden {
  const char* name;
  std::uint64_t digest;
};

// Recorded from the campaign below; job rows are <system>/<scenario>/<seed>.
constexpr Golden kGolden[] = {
    {"A/outdoor/1", 0x6bac397b459aeb8eULL},
    {"A/outdoor/2", 0xf7f8d626181a12a7ULL},
    {"A/indoor-industrial/1", 0x9e8a750fc557b96bULL},
    {"A/indoor-industrial/2", 0xd265d160027a3cc3ULL},
    {"B/outdoor/1", 0xd1d50eaaac021b49ULL},
    {"B/outdoor/2", 0x9028382999534e49ULL},
    {"B/indoor-industrial/1", 0xce12b79f2b6b1f4fULL},
    {"B/indoor-industrial/2", 0x998c5256444358f1ULL},
    {"C/outdoor/1", 0x18ed859e8cf74692ULL},
    {"C/outdoor/2", 0xd0ec6449c76e6686ULL},
    {"C/indoor-industrial/1", 0x6e677550661fd389ULL},
    {"C/indoor-industrial/2", 0xf668f729082aecceULL},
    {"D/outdoor/1", 0x98147ba88e8651abULL},
    {"D/outdoor/2", 0x917f217e86848815ULL},
    {"D/indoor-industrial/1", 0x17fec3e40c454faaULL},
    {"D/indoor-industrial/2", 0x6876825c62e25501ULL},
    {"E/outdoor/1", 0xbc162920f9825ed4ULL},
    {"E/outdoor/2", 0xbc162920f9825ed4ULL},
    {"E/indoor-industrial/1", 0x7f9520c3536f9236ULL},
    {"E/indoor-industrial/2", 0x7bb64dc64cb82ab5ULL},
    {"F/outdoor/1", 0x70bf7fd458d34106ULL},
    {"F/outdoor/2", 0x70bf7fd458d34106ULL},
    {"F/indoor-industrial/1", 0xe885e9d4414b46d3ULL},
    {"F/indoor-industrial/2", 0xd39c0fc36616d724ULL},
    {"G/outdoor/1", 0x95c2ec878c28c17fULL},
    {"G/outdoor/2", 0x95c2ec878c28c17fULL},
    {"G/indoor-industrial/1", 0xf33081fc604418b0ULL},
    {"G/indoor-industrial/2", 0xc475b55d1681a9d6ULL},
    {"results_csv", 0x552755dda109d6fcULL},
    {"seed_stats_csv", 0x569fb786bbd2806eULL},
    {"results_json", 0xc4d8d57f122ae228ULL},
};

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

CampaignSpec table_one_day(unsigned lane_width) {
  using systems::SystemId;
  constexpr struct {
    const char* name;
    SystemId id;
  } kSystems[] = {{"A", SystemId::kSmartPowerUnit},
                  {"B", SystemId::kPlugAndPlay},
                  {"C", SystemId::kAmbiMax},
                  {"D", SystemId::kMpWiNode},
                  {"E", SystemId::kMax17710Eval},
                  {"F", SystemId::kCymbetEval09},
                  {"G", SystemId::kEhLink}};
  CampaignSpec spec;
  spec.threads = 2;
  spec.lane_width = lane_width;
  for (const auto& s : kSystems) {
    const SystemId id = s.id;
    spec.platforms.push_back({s.name, [id](std::uint64_t seed) {
                                return systems::build(id, seed);
                              }});
  }
  Scenario outdoor;
  outdoor.name = "outdoor";
  outdoor.environment = [](std::uint64_t seed) {
    return std::make_unique<env::Environment>(env::Environment::outdoor(seed));
  };
  Scenario indoor;
  indoor.name = "indoor-industrial";
  indoor.environment = [](std::uint64_t seed) {
    return std::make_unique<env::Environment>(
        env::Environment::indoor_industrial(seed));
  };
  for (Scenario* sc : {&outdoor, &indoor}) {
    sc->duration = Seconds{86400.0};
    sc->options.dt = Seconds{5.0};
    spec.scenarios.push_back(std::move(*sc));
  }
  spec.seeds = {1, 2};
  return spec;
}

struct Row {
  std::string name;
  std::uint64_t digest;
};

std::vector<Row> digests(Campaign& c) {
  std::vector<Row> out;
  for (const auto& job : c.run()) {
    out.push_back({c.spec().platforms[job.platform_index].name + "/" +
                       c.spec().scenarios[job.scenario_index].name + "/" +
                       std::to_string(job.seed),
                   fnv1a64(systems::to_string(job.result))});
  }
  out.push_back({"results_csv", fnv1a64(results_csv(c))});
  out.push_back({"seed_stats_csv", fnv1a64(seed_stats_csv(c))});
  out.push_back({"results_json", fnv1a64(results_json(c))});
  return out;
}

std::string table(const std::vector<Row>& rows) {
  std::string s;
  char line[96];
  for (const auto& r : rows) {
    std::snprintf(line, sizeof line, "    {\"%s\", 0x%016" PRIx64 "ULL},\n",
                  r.name.c_str(), r.digest);
    s += line;
  }
  return s;
}

class GoldenDigests : public ::testing::TestWithParam<unsigned> {};

TEST_P(GoldenDigests, TableOneDayCampaign) {
  Campaign c(table_one_day(GetParam()));
  const std::vector<Row> actual = digests(c);
  bool same = actual.size() == std::size(kGolden);
  for (std::size_t i = 0; same && i < actual.size(); ++i)
    same = actual[i].name == kGolden[i].name &&
           actual[i].digest == kGolden[i].digest;
  EXPECT_TRUE(same) << "digests at lane_width " << GetParam()
                    << " differ from kGolden; actual table:\n"
                    << table(actual);
}

INSTANTIATE_TEST_SUITE_P(Widths, GoldenDigests, ::testing::Values(1u, 2u, 8u),
                         [](const auto& info) {
                           return "width" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace msehsim::campaign
