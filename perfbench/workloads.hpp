// The three workloads: seeded input generation, the campaign and daemon
// specs built from those inputs, the untraced end-to-end runs, and the
// traced per-layer runs (traced.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "env/trace_cache.hpp"
#include "fault/schedule.hpp"
#include "harness.hpp"
#include "serve/daemon.hpp"
#include "systems/catalog.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string work_dir{"."};
  std::string expected_path;  ///< recorded digests (expected.json)
  /// Self-test hook: "digest" corrupts the expected digest, "body" corrupts
  /// one simulated output before it is checked. Either must fail the run.
  std::string inject;
};

/// What a run reports: the result line's fields plus human-readable lines
/// (every metric with its unit and sample count) printed before it.
struct RunReport {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::pair<std::string, Metric>> metrics;
  std::vector<std::string> lines;
  std::vector<std::string> errors;

  void fail(std::string why);
  void add(const std::string& name, double value, const std::string& unit,
           bool in_result, const std::string& note = "");
};

// ---------------------------------------------------------------------------
// Inputs (pure functions of the seed)
// ---------------------------------------------------------------------------

/// @p n simulation seeds drawn from the benchmark seed on a named stream.
[[nodiscard]] std::vector<std::uint64_t> derive_seeds(std::uint64_t seed,
                                                      std::uint64_t stream,
                                                      std::size_t n);

/// A week-long fault schedule (msehsim-fault-schedule v1 text) using the
/// fault kinds and targets of examples/schedules/system_a_faults.csv, each
/// repeated every simulated day with seeded onsets and magnitudes.
[[nodiscard]] std::string week_schedule_csv(std::uint64_t seed);

/// One (platforms x scenario kinds x seeds) campaign grid.
struct GridUnit {
  std::vector<std::string> platforms;  ///< catalog names, "system-a".."system-g"
  std::vector<std::string> kinds;      ///< env presets
  double duration_s{86400.0};
  double dt_s{5.0};
  std::vector<std::uint64_t> seeds;
  std::shared_ptr<const msehsim::fault::Schedule> schedule;  ///< may be null

  [[nodiscard]] std::uint64_t lane_steps() const;
};

[[nodiscard]] msehsim::systems::SystemId platform_id(const std::string& name);
/// week-faulted's System A: the catalog build plus a backup chain.
inline constexpr const char* kSystemAChain = "system-a-chain";
/// A catalog platform by name, or kSystemAChain.
[[nodiscard]] std::unique_ptr<msehsim::systems::Platform> make_platform(
    const std::string& name, std::uint64_t seed);
[[nodiscard]] std::unique_ptr<msehsim::env::EnvironmentModel> make_environment(
    const std::string& kind, std::uint64_t seed);
/// threads 1, lane_width 8 (explicit), compiled traces on, no disk cache.
[[nodiscard]] msehsim::campaign::CampaignSpec to_spec(const GridUnit& unit);

/// paper-grid: Table I A..G x {outdoor, indoor-industrial} x 3 seeds, 1 day.
[[nodiscard]] std::vector<GridUnit> paper_grid_units(std::uint64_t seed);
/// week-faulted: A (with a backup chain) outdoor and B indoor-industrial,
/// 7 days, 2 seeds, under the parsed week schedule.
[[nodiscard]] std::vector<GridUnit> week_units(
    std::uint64_t seed, std::shared_ptr<const msehsim::fault::Schedule> schedule);

enum class ReqClass { kHit, kWarm, kCold, kScrape };
[[nodiscard]] const char* class_name(ReqClass c);

/// One distinct campaign study in the daemon mix.
struct MixSpec {
  std::vector<std::string> platforms;
  std::string kind;
  std::uint64_t seed{0};
  std::int64_t first_request{-1};  ///< the miss that computes it
};

struct MixRequest {
  ReqClass cls{ReqClass::kScrape};
  std::size_t spec{0};           ///< index into MixPlan::specs (not scrapes)
  unsigned spelling{0};          ///< body variant; all canonicalize alike
  std::int64_t depends_on{-1};   ///< must complete before this is sent
};

struct MixPlan {
  std::vector<MixSpec> specs;
  std::vector<MixRequest> requests;
};

/// Six simulated hours at dt 5 s per daemon study.
constexpr double kMixDurationS = 21600.0;
constexpr double kMixDtS = 5.0;

/// The closed-loop request sequence: ~75% result-cache hits, ~10% warm-trace
/// misses, ~10% cold misses, ~5% GET /metrics, in shuffled blocks of 20.
[[nodiscard]] MixPlan daemon_plan(std::uint64_t seed, std::size_t count);
/// The POST body of @p spec in spelling @p variant.
[[nodiscard]] std::string mix_body(const MixSpec& spec, unsigned variant);
[[nodiscard]] std::uint64_t mix_lane_steps(const MixSpec& spec);

/// Byte dump of every generated input for @p workload (determinism check).
[[nodiscard]] std::string describe_inputs(const std::string& workload,
                                          std::uint64_t seed);

// ---------------------------------------------------------------------------
// Correctness helpers
// ---------------------------------------------------------------------------

/// Digest of to_string(RunResult) of every job, in grid order.
[[nodiscard]] std::uint64_t jobs_digest(
    const std::vector<const msehsim::campaign::Campaign*>& campaigns);

/// Checks every job's ledger relative residual (< 1e-9); returns the worst.
[[nodiscard]] double worst_residual(
    const std::vector<const msehsim::campaign::Campaign*>& campaigns);

/// Worst ledger relative residual over the jobs of a results_json body.
[[nodiscard]] double worst_residual_in_json(const std::string& body);

constexpr double kResidualLimit = 1e-9;

/// The recorded digest for (@p workload, @p seed), empty when none is
/// recorded for that seed.
[[nodiscard]] std::string expected_digest(const std::string& path,
                                          const std::string& workload,
                                          std::uint64_t seed);

/// Compares @p digest with the recorded one (honouring --inject digest);
/// false, with the failure noted in @p report, on a mismatch.
bool check_digest(const Options& opt, std::uint64_t digest, RunReport& report);

// ---------------------------------------------------------------------------
// paper-grid / week-faulted machinery
// ---------------------------------------------------------------------------

struct CampaignSetup {
  std::vector<GridUnit> units;
  std::vector<msehsim::campaign::CampaignSpec> specs;  ///< one per unit
  std::string schedule_csv;  ///< week-faulted only
  std::vector<double> setup_ms;
};

/// Generates the inputs and builds the specs many times, spread over the
/// CPUs of @p cpus, recording each set-up's time; then runs one untimed
/// warm-up repetition.
[[nodiscard]] CampaignSetup set_up_campaigns(const Options& opt,
                                             CpuRotation& cpus);

// ---------------------------------------------------------------------------
// daemon-mix machinery (shared by the untraced and traced runs)
// ---------------------------------------------------------------------------

/// The "trace_compiles" value of a results_json body (-1 when absent).
[[nodiscard]] long trace_compiles_field(const std::string& body);

/// @p body with its "trace_compiles" value masked. A daemon campaign reports
/// trace_compiles() + the *shared* trace cache's lifetime hits there, so the
/// field depends on what the daemon served before; everything else in the
/// body is a pure function of the study and is compared byte for byte.
[[nodiscard]] std::string simulated_content(const std::string& body);

/// The persistent-trace-cache key the daemon uses for @p spec.
[[nodiscard]] msehsim::env::TraceCacheKey mix_trace_key(const MixSpec& spec);

/// An in-process msehsimd on 127.0.0.1 (ephemeral port, 2 HTTP workers,
/// 1 campaign thread, at most 2 concurrent campaigns) over a fresh trace
/// cache directory, removed again on destruction.
class DaemonFixture {
 public:
  DaemonFixture(const std::string& work_dir, int n);
  ~DaemonFixture();
  DaemonFixture(const DaemonFixture&) = delete;
  DaemonFixture& operator=(const DaemonFixture&) = delete;

  /// Whether the compiled trace @p spec needs is already on disk.
  [[nodiscard]] bool trace_on_disk(const MixSpec& spec) const;

  std::string dir;
  std::unique_ptr<msehsim::serve::Daemon> daemon;
  std::unique_ptr<msehsim::env::TraceCache> probe;  ///< entry paths only
};

struct MixSetup {
  MixPlan plan;
  std::vector<std::unique_ptr<DaemonFixture>> earlier;  ///< idle until the end
  std::unique_ptr<DaemonFixture> fixture;  ///< the last set-up; serves the run
  std::vector<double> setup_ms;
};

/// Generates the plan, then constructs and starts a daemon several times,
/// timing each; all stay up until the run ends, the last one serves it.
[[nodiscard]] MixSetup set_up_mix(const Options& opt);

struct MixOutcome {
  bool ok{false};
  std::string error;
  double ms{0.0};  ///< connect to last byte
  std::uint64_t body_digest{0};  ///< of simulated_content(body), misses
  long trace_compiles{-1};       ///< the body's trace_compiles field
};

struct MixTraffic {
  std::vector<MixOutcome> outcomes;  ///< by request index
  std::size_t issued{0};             ///< requests [0, issued) completed
  double elapsed_ms{0.0};
  /// The first miss bodies, re-checked against an in-process run.
  std::vector<std::pair<std::size_t, std::string>> first_miss_bodies;
};

/// Drives the plan closed-loop from 2 client threads for @p seconds (taken
/// requests finish). With @p spans, every request records client spans
/// (whole exchange, connect, time to first byte).
[[nodiscard]] MixTraffic drive_mix(const MixPlan& plan, DaemonFixture& fixture,
                                   const Options& opt, double seconds,
                                   SpanRecorder* spans);

struct MixCounts {
  std::uint64_t by_class[4]{};
  std::uint64_t lane_steps{0};
  std::uint64_t misses{0};
  std::uint64_t history_dependent{0};  ///< miss bodies with trace_compiles != 1
  std::uint64_t result_cache_hits{0};
  std::uint64_t result_cache_misses{0};
  double trace_hits{0}, trace_misses{0}, coalesced{0}, admission_rejected{0};
};

/// Counts outcomes into @p report and checks the run: every request
/// succeeded as its intended class, the first misses' digest, an
/// in-process re-run of the first misses, and the daemon's cache counters
/// against the generated mix.
MixCounts verify_mix(const MixPlan& plan, const MixTraffic& traffic,
                     DaemonFixture& fixture, const Options& opt,
                     RunReport& report);

/// Latencies (ms) of successful requests of @p cls.
[[nodiscard]] std::vector<double> class_latencies(const MixPlan& plan,
                                                  const MixTraffic& traffic,
                                                  ReqClass cls);

/// Adds a latency percentile (q = 0.5 median, else a tail that needs 10
/// samples beyond it) with its sample count.
void add_latency(RunReport& report, const std::string& name,
                 const std::vector<double>& samples, double q, bool in_result);

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

[[nodiscard]] RunReport run_campaign_workload(const Options& opt);
[[nodiscard]] RunReport run_daemon_mix(const Options& opt);
[[nodiscard]] RunReport run_traced(const Options& opt);

}  // namespace perfbench
