#include "calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "mem/addrspace.hpp"
#include "mem/memsys.hpp"
#include "sim/engine.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using ssomp::mem::MemorySystem;
using ssomp::sim::Addr;
using ssomp::sim::Cycles;

constexpr int kBatches = 5;

/// Simulated time between calibration accesses: far apart enough that no
/// request queues behind the previous one at a contention resource.
constexpr Cycles kGap = 1000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Timed {
  double seconds = 0;
  double ops = 0;
};

/// Median ns/op over kBatches calls of `batch`.
template <typename Batch>
double median_ns(Batch&& batch) {
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    const Timed t = batch();
    ns.push_back(t.seconds * 1e9 / t.ops);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// The first `count` application lines whose home node is at least
/// `min_home` (so not on the requesting node, nor on a given owner node).
std::vector<Addr> lines_homed_from(MemorySystem& ms, int min_home,
                                   std::size_t count) {
  std::vector<Addr> lines;
  const Addr line = ms.params().line_bytes;
  for (Addr a = ssomp::mem::AddrSpace::kAppBase; lines.size() < count;
       a += line) {
    if (ms.home_map().home_of(a) >= min_home) lines.push_back(a);
  }
  return lines;
}

double event_ns() {
  ssomp::sim::Engine engine;
  std::uint64_t fired = 0;
  constexpr int kQueued = 256;  // events in the queue at once
  constexpr int kRounds = 1000;
  const double ns = median_ns([&] {
    const Clock::time_point t0 = Clock::now();
    for (int r = 0; r < kRounds; ++r) {
      for (int j = 0; j < kQueued; ++j) {
        engine.schedule_after(static_cast<Cycles>(j % 7),
                              [&fired] { ++fired; });
      }
      engine.run();
    }
    return Timed{seconds_since(t0), double{kRounds} * kQueued};
  });
  if (fired == 0) std::fprintf(stderr, "perfbench: no event fired\n");
  return ns;
}

double wake_resume_ns() {
  ssomp::sim::Engine engine;
  ssomp::sim::SimCpu& cpu = engine.add_cpu("calibrate");
  cpu.start([&] {
    while (true) cpu.block(ssomp::sim::TimeCategory::kTokenWait);
  });
  engine.run();  // reach the first block()
  constexpr int kWakes = 200'000;
  return median_ns([&] {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kWakes; ++i) {
      cpu.wake(1);
      engine.run();
    }
    return Timed{seconds_since(t0), double{kWakes}};
  });
}

double l1_hit_ns(const ssomp::mem::MemParams& params, int ncmp,
                 Cycles& sink) {
  MemorySystem ms(params, ncmp);
  const Addr a = ssomp::mem::AddrSpace::kAppBase;
  Cycles now = 0;
  sink += ms.load(0, a, now);
  constexpr int kLoads = 2'000'000;
  return median_ns([&] {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kLoads; ++i) sink += ms.load(0, a, ++now);
    return Timed{seconds_since(t0), double{kLoads}};
  });
}

double l2_hit_ns(const ssomp::mem::MemParams& params, int ncmp,
                 Cycles& sink) {
  // Cycling through more lines than the L1 holds but fewer than the L2
  // holds: after the first pass every load misses L1 and hits L2.
  constexpr std::size_t kLines = 512;
  constexpr int kRounds = 16;
  MemorySystem ms(params, ncmp);
  const std::vector<Addr> lines = lines_homed_from(ms, 0, kLines);
  Cycles now = 0;
  for (const Addr a : lines) sink += ms.load(0, a, now += kGap);
  return median_ns([&] {
    const Clock::time_point t0 = Clock::now();
    for (int r = 0; r < kRounds; ++r) {
      for (const Addr a : lines) sink += ms.load(0, a, now += kGap);
    }
    return Timed{seconds_since(t0), double{kRounds} * kLines};
  });
}

double remote_fill_ns(const ssomp::mem::MemParams& params, int ncmp,
                      Cycles& sink) {
  // Fewer lines than the L2 holds, on a fresh memory system each round,
  // so every load is a cold clean fill and nothing is evicted.
  constexpr std::size_t kLines = 512;
  constexpr int kRounds = 16;
  MemorySystem probe(params, ncmp);
  const std::vector<Addr> lines = lines_homed_from(probe, 1, kLines);
  return median_ns([&] {
    double seconds = 0;
    for (int r = 0; r < kRounds; ++r) {
      MemorySystem ms(params, ncmp);
      Cycles now = 0;
      const Clock::time_point t0 = Clock::now();
      for (const Addr a : lines) sink += ms.load(0, a, now += kGap);
      seconds += seconds_since(t0);
    }
    return Timed{seconds, double{kRounds} * kLines};
  });
}

double dirty_fill_ns(const ssomp::mem::MemParams& params, int ncmp,
                     Cycles& sink) {
  // Node 1 dirties each line (untimed), then node 0 reads it: a fill
  // served by a third-party dirty L2, the line's home being neither.
  constexpr std::size_t kLines = 512;
  constexpr int kRounds = 16;
  MemorySystem ms(params, ncmp);
  const std::vector<Addr> lines = lines_homed_from(ms, 2, kLines);
  const ssomp::sim::CpuId owner = ms.cpus_per_node();  // first CPU of node 1
  Cycles now = 0;
  return median_ns([&] {
    double seconds = 0;
    for (int r = 0; r < kRounds; ++r) {
      for (const Addr a : lines) sink += ms.store(owner, a, now += kGap);
      const Clock::time_point t0 = Clock::now();
      for (const Addr a : lines) sink += ms.load(0, a, now += kGap);
      seconds += seconds_since(t0);
    }
    return Timed{seconds, double{kRounds} * kLines};
  });
}

double upgrade_fanout_ns(const ssomp::mem::MemParams& params, int ncmp,
                         Cycles& sink) {
  // Every node reads each line (untimed), then node 0 writes it: an
  // upgrade that invalidates ncmp - 1 sharers.
  constexpr std::size_t kLines = 128;
  constexpr int kRounds = 8;
  MemorySystem ms(params, ncmp);
  const std::vector<Addr> lines = lines_homed_from(ms, 1, kLines);
  Cycles now = 0;
  return median_ns([&] {
    double seconds = 0;
    for (int r = 0; r < kRounds; ++r) {
      for (int node = 0; node < ncmp; ++node) {
        for (const Addr a : lines) {
          sink += ms.load(node * ms.cpus_per_node(), a, now += kGap);
        }
      }
      const Clock::time_point t0 = Clock::now();
      for (const Addr a : lines) sink += ms.store(0, a, now += kGap);
      seconds += seconds_since(t0);
    }
    return Timed{seconds, double{kRounds} * kLines};
  });
}

}  // namespace

Calibration calibrate(const ssomp::mem::MemParams& params, int ncmp) {
  Cycles sink = 0;
  Calibration c;
  c.event_ns = event_ns();
  c.wake_resume_ns = wake_resume_ns();
  c.l1_hit_ns = l1_hit_ns(params, ncmp, sink);
  c.l2_hit_ns = l2_hit_ns(params, ncmp, sink);
  c.remote_fill_ns = remote_fill_ns(params, ncmp, sink);
  c.dirty_fill_ns = dirty_fill_ns(params, ncmp, sink);
  c.upgrade_fanout_ns = upgrade_fanout_ns(params, ncmp, sink);
  if (sink == 0) std::fprintf(stderr, "perfbench: no simulated latency\n");
  return c;
}

}  // namespace perfbench
