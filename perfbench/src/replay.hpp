// The traced run: every plan point replayed through the same public calls
// core::run_experiment makes, with a span around each call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "spans.hpp"

namespace perfbench {

/// Parses a plan text. A `sched = dynamic` axis value without a chunk
/// takes the paper's per-app dynamic chunk (apps::dynamic_schedule_for),
/// as in the Figure 4 harness. Exits with status 2 on a parse error.
[[nodiscard]] ssomp::core::ExperimentPlan load_plan(const std::string& text);

/// Host-work counts read from the live machine after a point ran; they
/// are not part of ExperimentResult.
struct PointCounts {
  std::uint64_t events = 0;             // Engine::events_processed
  std::uint64_t resource_requests = 0;  // summed over resource_report()
  std::uint64_t queue_delay_cycles = 0; // MemorySystem::total_queue_delay
};

struct Replay {
  ssomp::core::SweepRun run;  // records as run_sweep would fill them
  std::vector<PointCounts> counts;
  std::size_t emit_bytes = 0;  // size of sweep_to_json(run)
};

/// Parses `plan_text`, replays each point and emits the sweep JSON, all
/// under one "sweep" span with children "core.plan", one "point" span per
/// point and "core.emit". Each point span has children "machine.build",
/// "rt.build", "apps.init", "sim.run", "apps.verify" and "mem.check".
/// `log` may be null: the same calls then run untraced.
[[nodiscard]] Replay replay_sweep(const std::string& plan_text,
                                  const ssomp::core::WorkloadResolver& resolver,
                                  SpanLog* log);

}  // namespace perfbench
