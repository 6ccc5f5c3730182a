// perfbench: host time of the paper reproduction, end to end and per
// layer. See README.md for the workloads, the metrics and how to run it.
//
//   perfbench --plan FILE --reference FILE --seed N --seconds S
//             --trace 0|1 [--spans FILE] [--write-reference]
//
// Untraced (--trace 0): repeats {serial sweep, pooled sweep, set-up} for
// S seconds through the public core::run_sweep; reports the best sweep
// times and the median set-up.
// Traced (--trace 1): repeats {serial sweep, traced replay} and reports
// the per-layer split. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "calibrate.hpp"
#include "core/json.hpp"
#include "digest.hpp"
#include "machine/machine.hpp"
#include "replay.hpp"
#include "rt/runtime.hpp"

namespace {

namespace core = ssomp::core;
using Clock = std::chrono::steady_clock;
using perfbench::Checker;

/// Every run repeats its measurement at least this often, however short
/// --seconds is, so each reported figure has several samples.
constexpr int kMinIterations = 3;

/// Set-up repetitions per measurement iteration (a set-up costs well
/// under 1% of a sweep, so it is cheap to sample densely).
constexpr int kSetupReps = 10;

struct Args {
  std::string plan;
  std::string reference;
  std::string spans;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool write_reference = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --plan FILE --reference FILE [--seed N]\n"
               "                 [--seconds S] [--trace 0|1] [--spans FILE]\n"
               "                 [--write-reference]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    const auto number = [&](auto parse) {
      const std::string v = value();
      try {
        return parse(v);
      } catch (const std::exception&) {
        usage(("bad number '" + v + "' for " + arg).c_str());
      }
    };
    if (arg == "--plan") {
      a.plan = value();
    } else if (arg == "--reference") {
      a.reference = value();
    } else if (arg == "--spans") {
      a.spans = value();
    } else if (arg == "--seed") {
      a.seed = number([](const std::string& v) { return std::stoull(v); });
    } else if (arg == "--seconds") {
      a.seconds = number([](const std::string& v) { return std::stod(v); });
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      a.trace = t == "1";
    } else if (arg == "--write-reference") {
      a.write_reference = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (a.plan.empty() || a.reference.empty()) {
    usage("--plan and --reference are required");
  }
  return a;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Best (smallest) sample. On a shared host, neighbours only ever add
/// time, so the best of N sweeps is the least contaminated estimate of a
/// sweep's host time, and it varies least from run to run.
double best(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

/// The samples behind a reported figure, on stderr, so a noisy run shows.
void print_samples(const char* name, std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::fprintf(stderr, "perfbench: %-12s n=%zu min=%.4g median=%.4g max=%.4g\n",
               name, v.size(), v.front(), median(v), v.back());
}

struct TimedSweep {
  double wall_s = 0;       // parse + run_sweep + sweep_to_json
  double driver_s = 0;     // run_sweep time outside the points themselves
  std::vector<core::RunRecord> records;
};

/// One sweep as a user runs it: parse the plan, run it through the
/// public driver on `jobs` workers, serialize the aggregate.
TimedSweep timed_sweep(const std::string& plan_text,
                       const core::WorkloadResolver& resolver, int jobs) {
  TimedSweep out;
  const Clock::time_point t0 = Clock::now();
  const core::ExperimentPlan plan = perfbench::load_plan(plan_text);
  const Clock::time_point t1 = Clock::now();
  core::SweepRun run = core::run_sweep(plan, resolver, core::sweep_jobs(jobs));
  const double sweep_s = seconds_since(t1);
  const std::string json = core::sweep_to_json(run);
  out.wall_s = seconds_since(t0);
  double points_s = 0;
  for (const core::RunRecord& rec : run.records) points_s += rec.host_seconds;
  out.driver_s = sweep_s - points_s;
  if (json.empty()) std::fprintf(stderr, "perfbench: empty aggregate\n");
  out.records = std::move(run.records);
  return out;
}

/// Set-up time of one sweep: plan parse/expand plus, per point, the
/// Machine, rt::Runtime and workload construction. Tear-down is untimed.
double timed_setup(const std::string& plan_text,
                   const core::WorkloadResolver& resolver) {
  Clock::time_point t0 = Clock::now();
  const core::ExperimentPlan plan = perfbench::load_plan(plan_text);
  const std::vector<core::PlanPoint> points = plan.expand();
  double total = seconds_since(t0);
  for (const core::PlanPoint& p : points) {
    t0 = Clock::now();
    auto machine = std::make_unique<ssomp::machine::Machine>(p.config.machine);
    auto runtime =
        std::make_unique<ssomp::rt::Runtime>(*machine, p.config.runtime);
    std::unique_ptr<core::Workload> workload = resolver(p)(*runtime);
    total += seconds_since(t0);
  }
  return total;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Checker& checker, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checker.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(checker.attempted()),
              static_cast<unsigned long long>(checker.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Runs `iteration` until `seconds` have passed (at least kMinIterations
/// times), stopping early when one more would overrun.
template <typename Iteration>
void measure_for(double seconds, Iteration&& iteration) {
  const Clock::time_point start = Clock::now();
  for (int done = 0;; ++done) {
    const double elapsed = seconds_since(start);
    const double per_iteration = done == 0 ? 0 : elapsed / done;
    if (done >= kMinIterations && elapsed + per_iteration > seconds) break;
    iteration();
  }
}

std::vector<Metric> untraced_metrics(const Args& args,
                                     const std::string& plan_text,
                                     const core::WorkloadResolver& resolver,
                                     Checker& checker, double rss_mb) {
  const int pool_jobs = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1U, 4U));
  std::vector<double> wall, pool, setup;
  std::vector<double> point_best;  // per point, best host seconds so far
  measure_for(args.seconds, [&] {
    TimedSweep serial = timed_sweep(plan_text, resolver, 1);
    checker.check("serial sweep", serial.records);
    wall.push_back(serial.wall_s);
    point_best.resize(serial.records.size(), 1e300);
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
      point_best[i] = std::min(point_best[i], serial.records[i].host_seconds);
    }
    TimedSweep pooled = timed_sweep(plan_text, resolver, pool_jobs);
    checker.check("pooled sweep", pooled.records);
    pool.push_back(pooled.wall_s);
    for (int r = 0; r < kSetupReps; ++r) {
      setup.push_back(timed_setup(plan_text, resolver));
    }
  });
  // The replay must reproduce the driver's simulated results exactly.
  const perfbench::Replay replay =
      perfbench::replay_sweep(plan_text, resolver, nullptr);
  checker.check("replay", replay.run.records);
  std::fprintf(stderr, "perfbench: %zu iterations, pool of %d workers\n",
               wall.size(), pool_jobs);
  print_samples("wall_s", wall);
  print_samples("pool_s", pool);
  print_samples("setup_s", setup);
  // Host times of whole sweeps are best-of-N (see best()); set-up, many
  // short samples per run, is their median.
  return {
      {"wall_s", best(wall), "s"},
      {"pool_s", best(pool), "s"},
      {"point_max_s", *std::max_element(point_best.begin(), point_best.end()),
       "s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

std::vector<Metric> traced_metrics(const Args& args,
                                   const std::string& plan_text,
                                   const core::WorkloadResolver& resolver,
                                   Checker& checker) {
  const core::ExperimentPlan plan = perfbench::load_plan(plan_text);
  int ncmp = 1;
  for (const core::PlanPoint& p : plan.expand()) ncmp = std::max(ncmp, p.ncmp);
  const perfbench::Calibration cal =
      perfbench::calibrate(plan.base.machine.mem, ncmp);

  perfbench::SpanLog log;
  std::vector<double> wall, driver;
  // Per traced sweep: span name -> summed seconds.
  std::vector<std::map<std::string, double>> traced;
  std::optional<perfbench::Replay> first;
  measure_for(args.seconds, [&] {
    TimedSweep serial = timed_sweep(plan_text, resolver, 1);
    checker.check("serial sweep", serial.records);
    wall.push_back(serial.wall_s);
    driver.push_back(serial.driver_s);
    const std::size_t mark = log.spans().size();
    perfbench::Replay replay =
        perfbench::replay_sweep(plan_text, resolver, &log);
    checker.check("traced replay", replay.run.records);
    traced.push_back(log.seconds_by_name(mark));
    if (!first) first = std::move(replay);
  });
  if (!args.spans.empty() && !log.write(args.spans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans.c_str());
  }

  // Counts are deterministic; the digest check above guards the MemStats
  // part, so the first replay's counts stand for all of them.
  double events = 0, resource_requests = 0, queue_delay = 0, cycles = 0;
  ssomp::stats::MemStats mem;
  ssomp::rt::SlipRegionStats slip;
  for (std::size_t i = 0; i < first->run.records.size(); ++i) {
    const core::ExperimentResult& r = first->run.records[i].result;
    const perfbench::PointCounts& n = first->counts[i];
    events += static_cast<double>(n.events);
    resource_requests += static_cast<double>(n.resource_requests);
    queue_delay += static_cast<double>(n.queue_delay_cycles);
    cycles += static_cast<double>(r.cycles);
    mem += r.mem;
    slip += r.slip;
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  // Every request the memory system serves: demand loads and stores plus
  // the A-stream's converted-store prefetches.
  const double accesses = d(mem.loads) + d(mem.stores) + d(mem.prefetches);
  // Every layer time comes from the fastest traced sweep (best of N, like
  // wall_s), so the layers and the point spans' self time add up to
  // trace.sweep_s exactly.
  const auto& fastest = *std::min_element(
      traced.begin(), traced.end(),
      [](const auto& a, const auto& b) {
        return a.at("sweep") < b.at("sweep");
      });
  const auto layer = [&](const std::string& name) {
    const auto it = fastest.find(name);
    return it == fastest.end() ? 0.0 : it->second;
  };

  const double sim_run_s = layer("sim.run");
  // Modeled split: each count priced at its calibrated host cost. Engine
  // events are priced as the dominant resume event; L2 fills not served
  // dirty as clean remote fills; each invalidation message as one share
  // of a full fan-out. What no calibration covers (kernels, runtime and
  // slipstream shims, upgrade base cost) is left in other.residual_s.
  const double sim_model_s = events * cal.wake_resume_ns * 1e-9;
  const double mem_model_s =
      (d(mem.l1_hits) * cal.l1_hit_ns + d(mem.l2_hits) * cal.l2_hit_ns +
       (d(mem.l2_fills) - d(mem.fills_dirty)) * cal.remote_fill_ns +
       d(mem.fills_dirty) * cal.dirty_fill_ns +
       d(mem.invalidations) * cal.upgrade_fanout_ns /
           std::max(1, ncmp - 1)) *
      1e-9;
  const double wall_s = best(wall);
  const double sweep_s = layer("sweep");
  std::fprintf(stderr, "perfbench: %zu traced iterations, %zu spans\n",
               wall.size(), log.spans().size());
  return {
      {"core.plan_s", layer("core.plan"), "s"},
      {"machine.build_s", layer("machine.build"), "s"},
      {"rt.build_s", layer("rt.build"), "s"},
      {"apps.init_s", layer("apps.init"), "s"},
      {"sim.run_s", sim_run_s, "s"},
      {"apps.verify_s", layer("apps.verify"), "s"},
      {"mem.check_s", layer("mem.check"), "s"},
      {"core.emit_s", layer("core.emit"), "s"},
      {"core.emit_bytes", static_cast<double>(first->emit_bytes), "bytes"},
      {"core.driver_s", median(driver), "s"},
      {"sim.events", events, "count"},
      {"sim.events_per_access", ratio(events, accesses), "ratio"},
      {"mem.accesses", accesses, "count"},
      {"mem.l1_hit_ratio", ratio(d(mem.l1_hits), accesses), "ratio"},
      {"mem.l2_fills", d(mem.l2_fills), "count"},
      {"mem.fills_remote", d(mem.fills_remote_clean), "count"},
      {"mem.fills_dirty", d(mem.fills_dirty), "count"},
      {"mem.invalidations", d(mem.invalidations), "count"},
      {"mem.inval_per_access", ratio(d(mem.invalidations), accesses),
       "ratio"},
      {"mem.resource_requests", resource_requests, "count"},
      {"mem.queue_delay_cycles", queue_delay, "cycles"},
      {"slip.converted_stores", d(slip.converted_stores), "count"},
      {"slip.conversion_ratio",
       ratio(d(slip.converted_stores),
             d(slip.converted_stores) + d(slip.dropped_stores)),
       "ratio"},
      {"slip.forwarded_chunks", d(slip.forwarded_chunks), "count"},
      {"slip.tokens_consumed", d(slip.tokens_consumed), "count"},
      {"apps.sim_cycles", cycles, "cycles"},
      {"sim.event_ns", cal.event_ns, "ns"},
      {"sim.wake_resume_ns", cal.wake_resume_ns, "ns"},
      {"mem.l1_hit_ns", cal.l1_hit_ns, "ns"},
      {"mem.l2_hit_ns", cal.l2_hit_ns, "ns"},
      {"mem.remote_fill_ns", cal.remote_fill_ns, "ns"},
      {"mem.dirty_fill_ns", cal.dirty_fill_ns, "ns"},
      {"mem.upgrade_fanout_ns", cal.upgrade_fanout_ns, "ns"},
      {"sim.model_s", sim_model_s, "s"},
      {"mem.model_s", mem_model_s, "s"},
      {"other.residual_s", sim_run_s - sim_model_s - mem_model_s, "s"},
      {"trace.sweep_s", sweep_s, "s"},
      {"trace.overhead_s", sweep_s - wall_s, "s"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // The workload seed enters through the plan's own `seed` key (0 keeps
  // each app's built-in, paper-comparable data).
  const std::string plan_text =
      read_file(args.plan) + "\nseed = " + std::to_string(args.seed) + "\n";
  const core::WorkloadResolver resolver = ssomp::apps::plan_resolver();

  std::vector<std::string> reference;
  if (args.seed == 0 && !args.write_reference) {
    reference = perfbench::read_digest(args.reference);
    if (reference.empty()) {
      std::fprintf(stderr, "perfbench: no reference digest in %s\n",
                   args.reference.c_str());
      return 2;
    }
  }
  Checker checker(std::move(reference));

  // Warm-up sweep: not timed, but it is what peak RSS is read after, and
  // it is checked like every other sweep.
  const TimedSweep warm = timed_sweep(plan_text, resolver, 1);
  const std::vector<std::string> digest =
      checker.check("warm-up", warm.records);
  const double rss_mb = peak_rss_mb();
  if (args.write_reference) {
    if (checker.failed() != 0 ||
        !perfbench::write_digest(args.reference, digest)) {
      std::fprintf(stderr, "perfbench: reference not written\n");
      return 1;
    }
    std::fprintf(stderr, "perfbench: wrote %s\n", args.reference.c_str());
    return 0;
  }
  if (args.seed != 0) {
    // No stored reference for this seed: print the digest so two commits
    // can be compared on it.
    for (const std::string& line : digest) {
      std::printf("digest %s\n", line.c_str());
    }
  }
  std::printf("digest_fnv1a %016llx\n",
              static_cast<unsigned long long>(perfbench::digest_hash(digest)));

  const std::vector<Metric> metrics =
      args.trace ? traced_metrics(args, plan_text, resolver, checker)
                 : untraced_metrics(args, plan_text, resolver, checker, rss_mb);
  print_result(checker, metrics);
  return 0;
}
