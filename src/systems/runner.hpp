// Convenience harness: drive one Platform in one Environment.
//
// Wires the environment, platform power flow, and management ticks into a
// core::Simulation and runs it, returning the summary numbers every bench
// and example reports.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "core/stats.hpp"
#include "env/environment.hpp"
#include "fault/injector.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "systems/platform.hpp"

namespace msehsim::systems {

/// Fault-layer bookkeeping aggregated over a run: what was injected (from
/// the armed FaultInjector) and what the components actually experienced.
struct FaultReport {
  fault::InjectionCounters injected;        ///< scheduled faults that fired
  std::uint64_t harvester_faulted_steps{0}; ///< steps a wrapped harvester spent faulted
  std::uint64_t harvester_transitions{0};   ///< fault-mode changes across wrappers
  std::uint64_t converter_shutdowns{0};     ///< thermal-shutdown entries
  std::uint64_t converter_shutdown_steps{0};///< steps spent in shutdown
  std::uint64_t bus_fault_hits{0};          ///< transactions killed by injection
  std::uint64_t bus_naks{0};                ///< all NAKs (incl. empty sockets)
  std::uint64_t retry_attempts{0};          ///< monitor poll attempts
  std::uint64_t retry_retries{0};           ///< attempts beyond the first
  std::uint64_t retry_give_ups{0};          ///< polls abandoned after the ladder
  std::uint64_t failovers{0};               ///< backup switch-ins
  std::uint64_t failbacks{0};               ///< backup switch-outs
  /// Outage-triggered failovers with a measurable onset, and their total
  /// fault-onset -> switch-in latency (manager::FailoverPolicy).
  std::uint64_t failover_latency_count{0};
  double failover_latency_total_s{0.0};

  /// Mean fault-onset -> switch-in latency (the ROADMAP mean-time-to-
  /// failover metric); 0 when no outage-triggered failover occurred.
  [[nodiscard]] double mean_time_to_failover_s() const {
    return failover_latency_count == 0
               ? 0.0
               : failover_latency_total_s /
                     static_cast<double>(failover_latency_count);
  }
};

/// Survivability view of one run — the metrics the population-scale related
/// work (the ns-3 energy framework, the EnHANTs studies) evaluates per node:
/// how long demand stayed fully served, how much of it went unserved, how
/// much of the run was energy-neutral, and where the backup ladder spent its
/// time. Filled from accumulators the run integrates anyway, so the bytes
/// are identical with observability on or off.
struct SurvivabilityReport {
  /// Backup stages reported as fixed scalar slots (fuel cell -> reserve ->
  /// load shed covers every catalog system); chains longer than this still
  /// count in backup_stages but only the first slots get per-stage rows.
  static constexpr std::size_t kReportedBackupStages = 3;

  /// Simulation time of the first unserved deficit, however small (the bus
  /// identity's epsilon, stricter than the brownout threshold); -1 when all
  /// demand was met.
  double time_to_first_unserved_s{-1.0};
  /// Unserved energy over total bus demand (quiescent + bus load); 0 when
  /// the run drew nothing.
  double unserved_energy_fraction{0.0};
  /// Fraction of the run spent energy-neutral: steps where harvest covered
  /// quiescent + bus load without discharging the stores.
  double energy_neutral_fraction{0.0};
  /// Stages configured on the platform's backup chain (0 without one).
  std::uint64_t backup_stages{0};
  /// Per-stage time spent engaged / switch-in count, in chain priority
  /// order; zeros beyond backup_stages.
  std::array<double, kReportedBackupStages> stage_residency_s{};
  std::array<std::uint64_t, kReportedBackupStages> stage_switch_ins{};
};

struct RunResult {
  Seconds duration{0.0};
  Joules harvested{0.0};       ///< delivered into the bus by all chains
  Joules load{0.0};            ///< consumed by the sensor node at the rail
  Joules quiescent{0.0};       ///< platform overhead
  Joules wasted{0.0};          ///< surplus nothing could absorb
  Joules unmet{0.0};           ///< demanded but unserviceable
  std::uint64_t packets{0};
  std::uint64_t queries_received{0};
  std::uint64_t queries_answered{0};
  std::uint64_t reboots{0};
  std::uint64_t brownouts{0};
  double availability{0.0};    ///< node uptime fraction
  /// Fraction of the run during which the chains delivered positive power
  /// into the bus — the "generation hours" metric of claim C1, computed
  /// per-step so campaign jobs don't need a TraceRecorder for it.
  double generation_fraction{0.0};
  double final_ambient_soc{0.0};
  Joules final_stored{0.0};
  /// Simulation time of the first brownout; -1 when none occurred.
  double time_to_first_brownout_s{-1.0};
  /// MPP counters summed over the platform's input chains (per-chain values
  /// are in ledger.sources). mpp_recomputes counts maximum_power_point()
  /// calls, each a solve; mpp_cache_hits is always 0, since there is no MPP
  /// cache, and stays so the exports keep their fields.
  std::uint64_t mpp_cache_hits{0};
  std::uint64_t mpp_recomputes{0};
  FaultReport faults;
  SurvivabilityReport survivability;
  /// Per-run energy-conservation accounting (obs pillar 2). Filled from
  /// accumulators the run integrates anyway, so its bytes are identical
  /// with observability compiled in or out.
  obs::EnergyLedger ledger;
  /// Run-health timeline, present iff RunOptions::timeline_dt > 0.
  /// Deliberately NOT in run_result_fields(): the timeline has its own
  /// column table and exporters, so to_string/CSV/JSON of the result stay
  /// byte-identical whether sampling was on or off.
  std::shared_ptr<const obs::Timeline> timeline;
};

/// Name + accessor (+ integer formatting flag) for every scalar RunResult
/// field, in canonical report order. THE single authoritative field list:
/// to_string(RunResult), the campaign CSV/JSON exporters, and
/// metrics_snapshot() all iterate it, so a field added here propagates to
/// every surface at once and the byte-identity contract cannot silently
/// drift from the struct.
struct RunResultField {
  const char* name;
  double (*get)(const RunResult&);
  bool integral{false};  ///< rendered as unsigned decimal in to_string
};

[[nodiscard]] const std::vector<RunResultField>& run_result_fields();

/// Full-precision textual form of a RunResult (every float in the
/// locale-independent shortest round-trip form of core/fmt), so
/// two runs of the same seeded schedule can be compared byte-for-byte —
/// the determinism contract of the fault layer. Generated from
/// run_result_fields(), followed by the variable-length per-source ledger
/// rows.
[[nodiscard]] std::string to_string(const RunResult& result);

/// The run folded onto the metrics registry (obs pillar 1) under the
/// canonical field names: integral fields become counters, the rest
/// gauges, per-source ledger rows keyed by source index. Deterministic,
/// and mergeable across a campaign's jobs.
[[nodiscard]] obs::MetricsSnapshot metrics_snapshot(const RunResult& result);

/// Optional time-series capture during a run.
struct TraceRecorder {
  explicit TraceRecorder(Seconds sample_period = Seconds{60.0})
      : period(sample_period),
        soc("ambient_soc"),
        input_power("input_power_w"),
        bus_voltage("bus_voltage_v"),
        stored("stored_j") {}

  Seconds period;
  Series soc;
  Series input_power;
  Series bus_voltage;
  Series stored;

  /// Pre-reserves every series for a run of @p duration (one sample per
  /// period), avoiding growth reallocations during year-scale traces.
  /// run_platform calls this automatically.
  void reserve_for(Seconds duration);
};

struct RunOptions {
  Seconds dt{1.0};
  Seconds management_period{60.0};
  TraceRecorder* recorder{nullptr};
  /// When positive, asynchronous over-the-air queries arrive as a Poisson
  /// process with this mean interval and are delivered to the node (the
  /// wake-up-radio use case). Zero disables query traffic.
  Seconds mean_query_interval{0.0};
  std::uint64_t query_seed{0x5eed};
  /// When set, the injector's schedule is armed on the run's simulation and
  /// its counters land in RunResult::faults. Must outlive the run. A given
  /// injector can be armed only once (one injector per run).
  fault::FaultInjector* injector{nullptr};
  /// When positive, a fixed-cadence run-health timeline (SoC, stored energy,
  /// unserved energy, backup-chain stage, per-source harvested/delivered
  /// power) is sampled every timeline_dt of simulated time and attached as
  /// RunResult::timeline. Sampling is read-only — results are byte-identical
  /// with it on or off (obs::Timeline::kDefaultCadenceS is the documented
  /// default cadence).
  Seconds timeline_dt{0.0};
};

/// Runs @p platform in @p environment for @p duration and summarizes.
RunResult run_platform(Platform& platform, env::EnvironmentModel& environment,
                       Seconds duration, const RunOptions& options = RunOptions{});

namespace detail {

/// Mid-run snapshot of the storage-boundary accumulators, taken by a
/// one-shot event at duration/2 in both run_platform and the batched lane
/// kernel (registered at the same point in both, so one-shot sequence
/// numbers — the same-time FIFO tiebreak — stay identical). Feeds
/// obs::EnergyLedger::storage_loss_first_half_j, the superlinear-leak
/// detector's probe.
struct MidRunProbe {
  double charged_j{0.0};
  double discharged_j{0.0};
  double stored_j{0.0};
  bool sampled{false};
};

/// Fixed-cadence run-health sampler shared by run_platform and the batched
/// lane kernel. Registered as the LAST sim.every() periodic in both paths,
/// so a sample reads the platform at the start of the step it falls in —
/// after every management/recorder callback of the same dispatch, before
/// the step itself — identically in the scalar and batched kernels.
/// Strictly read-only over the platform: enabling it cannot change results.
struct TimelineSampler {
  std::shared_ptr<obs::Timeline> timeline;
  Platform* platform{nullptr};

  /// Builds the column table for @p p (4 scalar columns + 2 per source)
  /// and pre-reserves for @p duration at @p cadence.
  void init(Platform& p, Seconds cadence, Seconds duration);
  /// Appends one sample at @p now. Powers are trailing deltas of the
  /// platform's energy accumulators over the inter-sample gap; the first
  /// sample reports 0 W.
  void sample(Seconds now);

 private:
  std::vector<double> prev_transducer_j_;
  std::vector<double> prev_delivered_j_;
  double prev_t_s_{0.0};
  bool first_{true};
  std::vector<double> row_;
};

/// Summarizes a finished run into a RunResult — the shared tail of
/// run_platform and systems::BatchRunner, so every lane's result is
/// assembled by literally the same code (exports, ledger, metrics,
/// survivability identical by construction).
RunResult assemble_run_result(Platform& platform, Seconds duration,
                              const RunOptions& options, Joules initial_stored,
                              const RunningStats& input_stats,
                              const MidRunProbe& probe,
                              std::shared_ptr<const obs::Timeline> timeline =
                                  nullptr);

}  // namespace detail

}  // namespace msehsim::systems
