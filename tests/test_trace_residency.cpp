// A campaign holds a compiled trace only while a lane block still replays
// it.
//
// This executable replaces the global operator new with one that tracks
// live heap bytes (counting_new.hpp), so it lives apart from every other
// suite. The platform factory runs at the start of each lane block, after
// the block's trace is compiled; it records the live bytes there. On one
// thread, each block start must hold at most one trace beyond what was live
// before the run, where keeping every trace to the end would grow by one
// trace per block.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "counting_new.hpp"
#include "env/compiled_trace.hpp"
#include "env/environment.hpp"
#include "systems/catalog.hpp"

namespace msehsim::campaign {
namespace {

using msehsim::testing::g_live_bytes;

using Preset = env::Environment (*)(std::uint64_t);
struct Site {
  const char* name;
  Preset make;
};
constexpr Site kSites[] = {{"outdoor", &env::Environment::outdoor},
                           {"indoor", &env::Environment::indoor_industrial},
                           {"agricultural", &env::Environment::agricultural}};
const std::vector<std::uint64_t> kSeeds = {1, 2, 3, 4};
constexpr Seconds kDt{5.0};
constexpr Seconds kDuration{6 * 3600.0};
/// Room for what a block start holds besides its trace: the lane runner and
/// the results landed so far (about 20 kB on this grid). A trace of this
/// grid is 69-173 kB, so a second resident trace would exceed it.
constexpr long long kSlackBytes = 48 * 1024;

TEST(TraceResidency, TrackedLiveBytesFollowAnAllocation) {
  const long long before = g_live_bytes.load();
  auto* block = new std::vector<double>(1000);
  EXPECT_GE(g_live_bytes.load() - before,
            static_cast<long long>(1000 * sizeof(double)));
  delete block;
  EXPECT_EQ(g_live_bytes.load(), before);
}

TEST(TraceResidency, OneThreadHoldsAtMostOneTraceAtEachBlockStart) {
  // Each block's trace size, in block order (on one thread: scenario-major,
  // then seed), compiled from the same generators before anything is
  // measured.
  std::vector<long long> trace_bytes;
  for (const Site& site : kSites)
    for (const std::uint64_t seed : kSeeds) {
      auto source = site.make(seed);
      const auto trace = env::CompiledTrace::compile(source, kDt, kDuration);
      trace_bytes.push_back(static_cast<long long>(trace->memory_bytes()));
      ASSERT_GT(trace_bytes.back(), kSlackBytes);
    }

  std::vector<long long> samples;
  samples.reserve(64);
  CampaignSpec spec;
  for (const auto id :
       {systems::SystemId::kSmartPowerUnit, systems::SystemId::kPlugAndPlay})
    spec.platforms.push_back(
        {std::string(systems::to_string(id)),
         [id, &samples](std::uint64_t seed) {
           samples.push_back(g_live_bytes.load());
           return systems::build(id, seed);
         }});
  for (const Site& site : kSites) {
    Scenario scenario;
    scenario.name = site.name;
    scenario.duration = kDuration;
    scenario.options.dt = kDt;
    scenario.environment = [make = site.make](std::uint64_t seed) {
      return std::make_unique<env::Environment>(make(seed));
    };
    spec.scenarios.push_back(std::move(scenario));
  }
  spec.seeds = kSeeds;
  spec.threads = 1;
  spec.lane_width = 8;  // one block per (scenario, seed)
  Campaign campaign(std::move(spec));

  const long long before = g_live_bytes.load();
  campaign.run();
  ASSERT_EQ(campaign.lane_blocks(), 12u);
  ASSERT_EQ(samples.size(), 24u);  // two lanes per block
  for (std::size_t block = 0; block < trace_bytes.size(); ++block) {
    const long long held = samples[2 * block] - before;
    // The block's own trace is live at its start...
    EXPECT_GE(held, trace_bytes[block]) << "block " << block;
    // ...and no earlier block's trace is.
    EXPECT_LE(held, trace_bytes[block] + kSlackBytes) << "block " << block;
  }
}

}  // namespace
}  // namespace msehsim::campaign
