#include "digest.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

std::string digest_line(const std::string& label,
                        const ssomp::core::ExperimentResult& r) {
  const ssomp::stats::MemStats& m = r.mem;
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "%s cycles=%llu checksum=%.17g loads=%llu stores=%llu "
      "prefetches=%llu l1_hits=%llu l2_hits=%llu l2_fills=%llu "
      "merges=%llu fills_local=%llu fills_remote_clean=%llu "
      "fills_dirty=%llu upgrades=%llu silent_upgrades=%llu "
      "invalidations=%llu self_invalidations=%llu writebacks=%llu",
      label.c_str(), static_cast<unsigned long long>(r.cycles),
      r.workload.checksum, static_cast<unsigned long long>(m.loads),
      static_cast<unsigned long long>(m.stores),
      static_cast<unsigned long long>(m.prefetches),
      static_cast<unsigned long long>(m.l1_hits),
      static_cast<unsigned long long>(m.l2_hits),
      static_cast<unsigned long long>(m.l2_fills),
      static_cast<unsigned long long>(m.merges),
      static_cast<unsigned long long>(m.fills_local),
      static_cast<unsigned long long>(m.fills_remote_clean),
      static_cast<unsigned long long>(m.fills_dirty),
      static_cast<unsigned long long>(m.upgrades),
      static_cast<unsigned long long>(m.silent_upgrades),
      static_cast<unsigned long long>(m.invalidations),
      static_cast<unsigned long long>(m.self_invalidations),
      static_cast<unsigned long long>(m.writebacks));
  return buf;
}

std::uint64_t digest_hash(const std::vector<std::string>& lines) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& line : lines) {
    for (const char c : line + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::vector<std::string> read_digest(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

bool write_digest(const std::string& path,
                  const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) out << line << '\n';
  return static_cast<bool>(out.flush());
}

std::vector<std::string> Checker::check(
    const std::string& what,
    const std::vector<ssomp::core::RunRecord>& records) {
  std::vector<std::string> lines;
  lines.reserve(records.size());
  for (const ssomp::core::RunRecord& rec : records) {
    lines.push_back(rec.ok() ? digest_line(rec.label, rec.result)
                             : rec.label + " status=" + rec.error);
  }
  if (expected_.empty()) expected_ = lines;

  for (std::size_t i = 0; i < records.size(); ++i) {
    const ssomp::core::RunRecord& rec = records[i];
    const ssomp::core::ExperimentResult& r = rec.result;
    std::string why;
    if (!rec.ok()) {
      why = "run failed: " + rec.error;
    } else if (!r.workload.verified) {
      why = "not verified: " + r.workload.detail;
    } else if (!r.invariants_ok) {
      why = "memory invariants violated";
    } else if (!r.audit_ok) {
      why = "slipstream audit failed";
    } else if (!r.cycle_account_ok) {
      why = "cycle account identity violated";
    } else if (i >= expected_.size() || lines[i] != expected_[i]) {
      why = "digest differs from the expected one";
    }
    ++attempted_;
    if (why.empty()) continue;
    ++failed_;
    if (reported_++ < 8) {
      std::fprintf(stderr, "perfbench: FAILED %s in %s: %s\n  got:      %s\n",
                   rec.label.c_str(), what.c_str(), why.c_str(),
                   lines[i].c_str());
      if (i < expected_.size()) {
        std::fprintf(stderr, "  expected: %s\n", expected_[i].c_str());
      }
    }
  }
  if (records.size() < expected_.size()) {
    // Points the reference has but this sweep never ran count as failed.
    const std::size_t missing = expected_.size() - records.size();
    attempted_ += missing;
    failed_ += missing;
    std::fprintf(stderr, "perfbench: %s ran %zu points, expected %zu\n",
                 what.c_str(), records.size(), expected_.size());
  }
  return lines;
}

}  // namespace perfbench
