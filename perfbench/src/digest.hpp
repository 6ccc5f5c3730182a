// Correctness side of the benchmark: a point's simulated digest and the
// per-point pass/fail rule. Host seconds may change between commits;
// nothing in a digest may.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/driver.hpp"

namespace perfbench {

/// One line naming the point and everything simulated about it that must
/// never move: cycles, the workload checksum and every MemStats count.
[[nodiscard]] std::string digest_line(const std::string& label,
                                      const ssomp::core::ExperimentResult& r);

/// FNV-1a over digest lines: one word to compare two commits by.
[[nodiscard]] std::uint64_t digest_hash(const std::vector<std::string>& lines);

/// Reads a reference digest (one line per point); empty when unreadable.
[[nodiscard]] std::vector<std::string> read_digest(const std::string& path);

[[nodiscard]] bool write_digest(const std::string& path,
                                const std::vector<std::string>& lines);

/// Counts point executions and the ones that failed. A point fails unless
/// its run is ok and verified, its invariant, audit and cycle-account
/// checks hold, and its digest equals the expected one: the stored
/// reference when there is one, else the first sweep this checker saw.
class Checker {
 public:
  explicit Checker(std::vector<std::string> reference)
      : expected_(std::move(reference)) {}

  /// Checks one executed sweep (records in plan order); returns its
  /// digest lines.
  std::vector<std::string> check(const std::string& what,
                                 const std::vector<ssomp::core::RunRecord>&
                                     records);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::vector<std::string> expected_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int reported_ = 0;
};

}  // namespace perfbench
