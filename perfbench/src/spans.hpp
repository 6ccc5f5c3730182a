// In-memory span log for the traced run: one span per layer call, keyed
// by plan-point label, with the point span as parent. Spans are kept in
// memory while the benchmark runs and written out once at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t id = 0;      // 1-based; 0 is "no parent"
  std::uint32_t parent = 0;
  std::string name;          // layer call, e.g. "sim.run"
  std::string point;         // plan-point label ("" for sweep-level spans)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanLog {
 public:
  std::uint32_t open(std::string name, std::string point,
                     std::uint32_t parent) {
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.name = std::move(name);
    s.point = std::move(point);
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  void close(std::uint32_t id) { spans_[id - 1].end_ns = now_ns(); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration in seconds of the spans named `name`, over spans
  /// with index >= `first` (one traced sweep's worth).
  [[nodiscard]] std::map<std::string, double> seconds_by_name(
      std::size_t first) const {
    std::map<std::string, double> out;
    for (std::size_t i = first; i < spans_.size(); ++i) {
      out[spans_[i].name] += 1e-9 * static_cast<double>(
                                        spans_[i].duration_ns());
    }
    return out;
  }

  /// Writes {"spans": [...]} to `path`; false on I/O error.
  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"spans\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                   "\"point\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld}%s\n",
                   s.id, s.parent, s.name.c_str(), s.point.c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction. A null log
/// records nothing, so the same code path runs traced and untraced.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::string point,
             std::uint32_t parent)
      : log_(log),
        id_(log != nullptr ? log->open(std::move(name), std::move(point),
                                       parent)
                           : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

}  // namespace perfbench
