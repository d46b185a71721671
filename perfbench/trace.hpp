// Timing, span recording and the stall guard of the perfbench program.
//
// Spans are recorded from the benchmark's own code around each call into a
// library layer (construction, planning, executor build, Forward, Backward,
// Adam, replayed kernels), kept in memory, and written out as Chrome
// trace-event JSON when the run ends. Recording is off in untraced runs.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// In-memory span recorder. Disabled recorders keep nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Temporarily suspends recording (the untraced half of the overhead
  /// comparison) without dropping what was recorded.
  void set_paused(bool paused) { paused_ = paused; }
  [[nodiscard]] bool recording() const { return enabled_ && !paused_; }

  /// Records one completed span [start, end) in layer `cat`.
  void Add(std::string name, std::string cat, Clock::time_point start,
           Clock::time_point end);

  /// Writes {"traceEvents": [...]} to `path`; returns false on I/O error.
  bool WriteChromeJson(const std::string& path) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name, cat;
    std::int64_t start_ns, dur_ns;
  };
  bool enabled_;
  bool paused_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) when the tracer is
/// recording, and does nothing else (no clock read, no copy) otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, std::string_view cat)
      : tracer_(tracer.recording() ? &tracer : nullptr) {
    if (tracer_ == nullptr) return;
    name_ = name;
    cat_ = cat;
    start_ = Clock::now();
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Add(std::move(name_), std::move(cat_), start_, Clock::now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::string name_, cat_;
  Clock::time_point start_;
};

/// Stall guard: a sleeping thread that ends the process with exit code 3
/// when no progress mark arrives within kStallSeconds, or when the whole
/// run exceeds `budget_s`. It names the phase in flight and prints the
/// result line with the stalled operation counted as failed.
class Watchdog {
 public:
  static constexpr double kStallSeconds = 60;

  explicit Watchdog(double budget_s);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Enters `phase` (a string literal) and counts as progress.
  void Phase(const char* phase);
  /// Counts one finished operation (a step or an output check).
  void Finished(bool ok);
  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }

 private:
  void Loop();

  double budget_s_;
  Clock::time_point start_;
  std::atomic<const char*> phase_{"start"};
  std::atomic<std::int64_t> last_progress_ns_{0};
  std::atomic<std::int64_t> attempted_{0}, failed_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace perfbench
