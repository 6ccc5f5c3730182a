// Host-cost calibrations: tight loops over public simulator functions,
// reported as ns per operation. Multiplied by the traced run's counts
// they give the modeled per-layer split.
#pragma once

#include "mem/params.hpp"

namespace perfbench {

struct Calibration {
  double event_ns = 0;           // one callback event scheduled + dispatched
  double wake_resume_ns = 0;     // wake a blocked CPU, resume its fiber
  double l1_hit_ns = 0;          // MemorySystem::load hitting in L1
  double l2_hit_ns = 0;          // load missing L1, hitting the shared L2
  double remote_fill_ns = 0;     // load miss filled clean from a remote home
  double dirty_fill_ns = 0;      // load miss served by a dirty third L2
  double upgrade_fanout_ns = 0;  // store to a line every node shares
};

/// Calibrates on a memory system of `ncmp` nodes with `params`. Each
/// figure is the median of several timed batches.
[[nodiscard]] Calibration calibrate(const ssomp::mem::MemParams& params,
                                    int ncmp);

}  // namespace perfbench
