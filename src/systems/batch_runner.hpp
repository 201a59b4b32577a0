// Batched multi-lane simulation kernel.
//
// run_platform advances one (platform, seed) run at a time; every fleet-,
// daemon-, and population-scale workload on the ROADMAP wants many. A
// BatchRunner advances N lanes — the same scenario's shared
// env::CompiledTrace, different platform configs and/or fault seeds — in
// lockstep with one inner loop: the ambient slot is decoded once per step
// and fed to every lane, and each lane's component calls dispatch through
// per-lane concrete-type tags resolved once up front, so the hot loop runs
// devirtualized, dynamic_cast-free code instead of N independent virtual
// step() stacks.
//
// Byte-identity contract (the ROADMAP's correctness gate): a lane's
// RunResult is byte-identical to run_platform on the same platform /
// injector / options over the same trace. The kernel guarantees this by
// construction rather than by re-derivation:
//
//  - Platform::step_with and power::InputChain::step_typed are the SAME
//    single-source bodies run_platform executes — only the dispatch
//    mechanics (virtual vs direct) differ per instantiation, never the
//    statement sequence, iteration order, or any floating-point operation.
//  - Each lane keeps its own core::Simulation purely as an event engine, so
//    management periodics and one-shot fault injections fire with exactly
//    run_platform's semantics (same dispatch window, same FIFO sequence
//    tiebreak — the mid-run probe and injector registrations happen in the
//    same order as in run_platform). On steps where nothing is due —
//    the common case — the kernel skips dispatch entirely, which is legal
//    because "due" is a pure function of the event queue and the clock.
//  - Divergent per-lane behaviour (fault onsets, BackupChain switches, load
//    shed) lives inside the components a lane already owns; a lane whose
//    component has no concrete tag (an unanticipated subclass) simply takes
//    the generic slow path for that component while the rest of the batch
//    stays on the fast path.
//  - Results are assembled by systems::detail::assemble_run_result — the
//    same code run_platform ends with — so exports, the energy ledger,
//    metrics, and the survivability report cannot drift.
//
// Constraints: options.recorder and options.injector must be null (per-lane
// injectors are passed to add_lane), options.dt must equal the trace's
// compiled dt, and lanes must not hot-swap components mid-run (fault events
// mutate components in place; campaign jobs never swap). Injectors must be
// fully built before run() — fault::Schedule wraps harvesters at build
// time, which is what makes the per-lane type tags stable.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/units.hpp"
#include "env/compiled_trace.hpp"
#include "fault/injector.hpp"
#include "obs/stage_timer.hpp"
#include "systems/platform.hpp"
#include "systems/runner.hpp"

namespace msehsim::systems {

class BatchRunner {
 public:
  /// @p trace the shared ambient timeline every lane replays; @p duration
  /// and @p options exactly as they would be passed to run_platform.
  BatchRunner(std::shared_ptr<const env::CompiledTrace> trace,
              Seconds duration, RunOptions options);
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  /// Adds a lane. @p platform must outlive run(); @p injector (optional)
  /// must already be fully built against this platform and is armed on the
  /// lane's event engine exactly as run_platform would arm it. Returns the
  /// lane index (result slot in run()'s return).
  std::size_t add_lane(Platform& platform,
                       fault::FaultInjector* injector = nullptr);

  [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }

  /// Advances every lane in lockstep to @p duration and returns one
  /// RunResult per lane, in add_lane order. Runs once.
  std::vector<RunResult> run();

  /// run(), with the ticks and calls of every lane-step stage added to
  /// @p clock (obs/stage_timer.hpp). The results are the same bytes.
  std::vector<RunResult> run(obs::StageClock& clock);

 private:
  struct Lane;  // per-lane engine state + dispatch tags (batch_runner.cpp)

  template <typename Timer>
  std::vector<RunResult> run_lanes(Timer& timer);

  std::shared_ptr<const env::CompiledTrace> trace_;
  Seconds duration_;
  RunOptions options_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  bool ran_{false};
};

/// One lane's inputs for the convenience wrapper below.
struct BatchLane {
  Platform* platform{nullptr};
  fault::FaultInjector* injector{nullptr};  ///< optional, pre-built
};

/// Builds a BatchRunner over @p lanes and runs it: batched drop-in for a
/// loop of run_platform calls over one shared trace.
std::vector<RunResult> run_batch(const std::vector<BatchLane>& lanes,
                                 std::shared_ptr<const env::CompiledTrace> trace,
                                 Seconds duration, const RunOptions& options);

}  // namespace msehsim::systems
