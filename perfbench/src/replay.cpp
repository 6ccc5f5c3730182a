#include "replay.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>

#include "apps/registry.hpp"
#include "core/json.hpp"
#include "core/plan.hpp"
#include "machine/machine.hpp"
#include "rt/runtime.hpp"
#include "trace/chrome.hpp"

namespace perfbench {

namespace core = ssomp::core;

ssomp::core::ExperimentPlan load_plan(const std::string& text) {
  auto parsed = core::parse_plan(text);
  if (!parsed.ok) {
    std::fprintf(stderr, "perfbench: bad plan: %s\n", parsed.error.c_str());
    std::exit(2);
  }
  core::ExperimentPlan plan = std::move(parsed.value);
  plan.schedule_override = [](const core::PlanPoint& p) {
    const ssomp::front::ScheduleClause& c = p.schedule.clause;
    if (c.kind != ssomp::front::ScheduleKind::kDynamic || c.chunk != 0) {
      return c;
    }
    return ssomp::apps::dynamic_schedule_for(
        p.app, static_cast<ssomp::apps::AppScale>(p.scale), p.ncmp);
  };
  return plan;
}

namespace {

/// core::run_experiment, call for call, with a span around each layer.
core::ExperimentResult replay_point(const core::PlanPoint& point,
                                    const core::WorkloadResolver& resolver,
                                    SpanLog* log, std::uint32_t parent,
                                    PointCounts& counts) {
  const core::ExperimentConfig& config = point.config;
  const std::string& label = point.label;

  std::optional<ssomp::machine::Machine> machine;
  {
    ScopedSpan s(log, "machine.build", label, parent);
    machine.emplace(config.machine);
  }
  machine->engine().set_stop_control(
      {config.budget.max_simulated_cycles, nullptr, nullptr});
  std::optional<ssomp::rt::Runtime> runtime;
  {
    ScopedSpan s(log, "rt.build", label, parent);
    runtime.emplace(*machine, config.runtime);
  }
  std::unique_ptr<core::Workload> workload;
  {
    ScopedSpan s(log, "apps.init", label, parent);
    workload = resolver(point)(*runtime);
  }

  core::ExperimentResult result;
  {
    ScopedSpan s(log, "sim.run", label, parent);
    result.cycles = runtime->run(
        [&](ssomp::rt::SerialCtx& sc) { workload->run(sc); });
  }

  for (ssomp::sim::CpuId c = 0; c < machine->ncpus(); ++c) {
    const ssomp::sim::TimeBreakdown& b = machine->cpu(c).breakdown();
    if (b.get(ssomp::sim::TimeCategory::kBusy) > 0) {
      result.team_breakdown += b;
      ++result.participating_cpus;
    }
  }
  result.mem = machine->mem().stats();
  result.slip = runtime->slip_stats();
  result.regions = runtime->region_records();
  {
    ScopedSpan s(log, "apps.verify", label, parent);
    result.workload = workload->verify();
  }
  {
    ScopedSpan s(log, "mem.check", label, parent);
    result.invariants_ok = machine->mem().check_invariants();
  }
  result.audit_ok = runtime->auditor().ok();
  result.audit_checks = runtime->auditor().checks_performed();
  result.audit_violations = runtime->auditor().violations();
  result.faults_injected = runtime->fault_injector().fired();
  for (const ssomp::slip::WatchdogReport& rep :
       runtime->watchdog().reports()) {
    result.watchdog_reports.push_back(rep.describe());
  }

  const ssomp::trace::Instrumentation& inst = runtime->instrumentation();
  result.trace_enabled = inst.tracer().enabled();
  result.metrics_enabled = inst.metrics_on();
  if (result.trace_enabled) {
    result.trace_json = ssomp::trace::chrome_trace_json(inst.tracer());
    result.trace_counts = inst.tracer().counts();
  }
  if (result.metrics_enabled) {
    result.metrics = inst.metrics();
    result.metrics_text = inst.metrics().to_text();
  }

  result.cycle_account = runtime->cycle_account();
  if (result.mem.cross_cluster_stall_cycles > 0) {
    result.cycle_account.aux["cross_cluster_stall"] =
        static_cast<ssomp::sim::Cycles>(
            result.mem.cross_cluster_stall_cycles);
  }
  std::vector<ssomp::sim::Cycles> expected;
  expected.reserve(static_cast<std::size_t>(machine->ncpus()));
  for (ssomp::sim::CpuId c = 0; c < machine->ncpus(); ++c) {
    expected.push_back(machine->cpu(c).breakdown().total());
  }
  result.cycle_account_violations =
      result.cycle_account.check_identity(expected);
  result.cycle_account_ok = result.cycle_account_violations.empty();

  counts.events = machine->engine().events_processed();
  for (const auto& r : machine->mem().resource_report()) {
    counts.resource_requests += r.requests;
  }
  counts.queue_delay_cycles = machine->mem().total_queue_delay();
  return result;
}

}  // namespace

Replay replay_sweep(const std::string& plan_text,
                    const core::WorkloadResolver& resolver, SpanLog* log) {
  Replay out;
  ScopedSpan root(log, "sweep", "", 0);
  {
    ScopedSpan s(log, "core.plan", "", root.id());
    out.run.plan = load_plan(plan_text);
    out.run.points = out.run.plan.expand();
  }
  const std::size_t n = out.run.points.size();
  out.run.records.resize(n);
  out.counts.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const core::PlanPoint& point = out.run.points[i];
    core::RunRecord& rec = out.run.records[i];
    rec.label = point.label;
    const auto start = std::chrono::steady_clock::now();
    {
      ScopedSpan s(log, "point", point.label, root.id());
      try {
        rec.result = replay_point(point, resolver, log, s.id(), out.counts[i]);
        rec.status = core::RunStatus::kOk;
      } catch (const std::exception& e) {
        rec.status = core::RunStatus::kError;
        rec.error = e.what();
      }
    }
    rec.host_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    rec.attempts.push_back({rec.status, rec.error, point.workload_seed, 0,
                            rec.host_seconds});
    out.run.host_seconds_total += rec.host_seconds;
  }
  {
    ScopedSpan s(log, "core.emit", "", root.id());
    out.emit_bytes = core::sweep_to_json(out.run).size();
  }
  return out;
}

}  // namespace perfbench
