#include "systems/batch_runner.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/random.hpp"
#include "core/simulation.hpp"
#include "core/stats.hpp"
#include "obs/trace.hpp"
#include "storage/fuel_cell.hpp"
#include "systems/lane_dispatch.hpp"

namespace msehsim::systems {

namespace {

using lanedispatch::LaneOps;
using lanedispatch::classify_harvester;
using lanedispatch::classify_store;

}  // namespace

/// Per-lane state: the event engine, the dispatch tags, and the run-end
/// accumulators.
struct BatchRunner::Lane {
  Platform* platform{nullptr};
  fault::FaultInjector* injector{nullptr};
  Simulation sim;
  RunningStats input_stats;
  Pcg32 query_rng;
  detail::MidRunProbe probe;
  detail::TimelineSampler sampler;
  LaneOps ops;
  Joules initial_stored{0.0};
  double next_event_s{0.0};  ///< earliest pending event on sim
  bool deliver_queries{false};

  Lane(Seconds dt, std::uint64_t query_seed)
      : sim(dt), query_rng(query_seed, stream_key("queries")) {}
};

BatchRunner::BatchRunner(std::shared_ptr<const env::CompiledTrace> trace,
                         Seconds duration, RunOptions options)
    : trace_(std::move(trace)), duration_(duration), options_(options) {
  require_spec(trace_ != nullptr, "BatchRunner: null trace");
  require_spec(options_.dt.value() == trace_->dt().value(),
               "BatchRunner: options.dt does not match the compiled dt");
  require_spec(options_.recorder == nullptr,
               "BatchRunner: a TraceRecorder cannot be shared across lanes");
  require_spec(options_.injector == nullptr,
               "BatchRunner: pass per-lane injectors to add_lane, not options");
}

BatchRunner::~BatchRunner() = default;

std::size_t BatchRunner::add_lane(Platform& platform,
                                  fault::FaultInjector* injector) {
  require_spec(!ran_, "BatchRunner::add_lane after run()");
  auto lane = std::make_unique<Lane>(options_.dt, options_.query_seed);
  lane->platform = &platform;
  lane->injector = injector;
  lane->initial_stored = platform.total_stored();
  lane->deliver_queries = options_.mean_query_interval.value() > 0.0 &&
                          platform.node() != nullptr;

  // Event registrations in run_platform's exact order, so periodics fire in
  // the same sequence within a dispatch and one-shots get the same FIFO
  // sequence numbers (the same-time tiebreak): management periodic, mid-run
  // probe, then the injector's schedule.
  Platform* p = &platform;
  lane->sim.every(options_.management_period,
                  [p](Seconds now) { p->management_tick(now); });
  detail::MidRunProbe* probe = &lane->probe;
  lane->sim.at(Seconds{duration_.value() * 0.5}, [p, probe](Seconds) {
    probe->charged_j = p->storage_charged_energy().value();
    probe->discharged_j = p->storage_discharged_energy().value();
    probe->stored_j = p->total_stored().value();
    probe->sampled = true;
  });
  if (injector != nullptr) injector->arm(lane->sim);
  // Run-health timeline: registered LAST, exactly as in run_platform, so
  // the sample reads the platform after every other callback of the same
  // dispatch. every() consumes no one-shot sequence number, so injector
  // events keep their FIFO tiebreaks.
  if (options_.timeline_dt.value() > 0.0) {
    lane->sampler.init(platform, options_.timeline_dt, duration_);
    detail::TimelineSampler* sampler = &lane->sampler;
    lane->sim.every(options_.timeline_dt,
                    [sampler](Seconds now) { sampler->sample(now); });
  }

  // Resolve the dispatch tags AFTER the injector exists: fault schedules
  // wrap harvesters in fault::FaultyHarvester at build time, so the types
  // seen here are the types the whole run will execute.
  lane->ops.chain_tag.reserve(platform.input_count());
  for (std::size_t i = 0; i < platform.input_count(); ++i)
    lane->ops.chain_tag.push_back(
        classify_harvester(platform.input(i).harvester()));
  const std::size_t slots = platform.storage_count();
  lane->ops.store_tag.reserve(slots);
  lane->ops.store_kind.reserve(slots);
  lane->ops.cells.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    storage::StorageDevice& d = platform.store(i);
    lane->ops.store_tag.push_back(classify_store(d));
    lane->ops.store_kind.push_back(d.kind());
    lane->ops.cells.push_back(dynamic_cast<storage::FuelCell*>(&d));
  }

  lanes_.push_back(std::move(lane));
  return lanes_.size() - 1;
}

std::vector<RunResult> BatchRunner::run() {
  require_spec(!ran_, "BatchRunner::run: already ran");
  ran_ = true;
  OBS_SPAN("batch_runner.run", "systems");

  const Seconds dt = options_.dt;
  const bool query_traffic = options_.mean_query_interval.value() > 0.0;
  // Poisson arrivals discretized per step — the same constant run_platform
  // recomputes in its query callback.
  const double p_arrival =
      query_traffic
          ? std::min(1.0, dt.value() / options_.mean_query_interval.value())
          : 0.0;

  for (auto& lane : lanes_)
    lane->next_event_s = lane->sim.next_scheduled().value();

  const env::CompiledTrace& trace = *trace_;
  const std::size_t slot_count = trace.step_count();

  // The clock is advanced exactly as core::Simulation advances it — the
  // k-fold accumulated sum of dt from zero — and mirrored into each lane's
  // event engine before any dispatch, so event timing is bit-equal to the
  // scalar path's.
  Seconds now{0.0};
  std::uint64_t steps = 0;
  while (now + dt * 0.5 < duration_) {
    // Decode the shared ambient slot once per step for the whole batch
    // (CompiledEnvironment::advance's index computation, verbatim).
    const auto raw_idx =
        static_cast<std::size_t>(std::llround(now.value() / dt.value()));
    const env::AmbientConditions conditions = trace.at(raw_idx % slot_count);
    const Seconds horizon = now + dt;

    for (auto& lane_ptr : lanes_) {
      Lane& lane = *lane_ptr;
      // An event is due iff next_scheduled() < now + dt — the dispatch
      // window test of Simulation::step. On quiet steps (the common case)
      // the lane skips its event engine entirely; dispatch is a pure
      // function of the queue and the clock, so skipping a no-op dispatch
      // cannot change a byte.
      if (lane.next_event_s < horizon.value()) {
        lane.sim.sync_clock(now, steps);
        lane.sim.dispatch_events();
        lane.next_event_s = lane.sim.next_scheduled().value();
      }
      Platform& platform = *lane.platform;
      platform.step_with(lane.ops, conditions, now, dt);
      lane.input_stats.add(platform.last_input_power().value(), dt);
      if (lane.deliver_queries && lane.query_rng.bernoulli(p_arrival))
        platform.node()->deliver_query(platform.rail_voltage());
    }

    now += dt;
    ++steps;
  }

  std::vector<RunResult> out;
  out.reserve(lanes_.size());
  for (auto& lane : lanes_) {
    RunOptions lane_options = options_;
    lane_options.injector = lane->injector;
    out.push_back(detail::assemble_run_result(
        *lane->platform, duration_, lane_options, lane->initial_stored,
        lane->input_stats, lane->probe, std::move(lane->sampler.timeline)));
  }
  return out;
}

std::vector<RunResult> run_batch(const std::vector<BatchLane>& lanes,
                                 std::shared_ptr<const env::CompiledTrace> trace,
                                 Seconds duration, const RunOptions& options) {
  BatchRunner runner(std::move(trace), duration, options);
  for (const auto& lane : lanes) {
    require_spec(lane.platform != nullptr, "run_batch: null platform");
    runner.add_lane(*lane.platform, lane.injector);
  }
  return runner.run();
}

}  // namespace msehsim::systems
