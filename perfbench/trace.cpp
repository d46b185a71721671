#include "trace.hpp"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

std::int64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

void WriteJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

void Tracer::Add(std::string name, std::string cat, Clock::time_point start,
                 Clock::time_point end) {
  if (!enabled_ || paused_) return;
  spans_.push_back(Span{std::move(name), std::move(cat),
                        NsBetween(origin_, start), NsBetween(start, end)});
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fputs("{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"name\": ", f);
    WriteJsonString(f, s.name);
    std::fputs(", \"cat\": ", f);
    WriteJsonString(f, s.cat);
    std::fprintf(f, ", \"ts\": %.3f, \"dur\": %.3f}%s\n", s.start_ns / 1e3,
                 s.dur_ns / 1e3, i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

Watchdog::Watchdog(double budget_s)
    : budget_s_(budget_s), start_(Clock::now()) {
  thread_ = std::thread([this] { Loop(); });
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::Phase(const char* phase) {
  phase_.store(phase, std::memory_order_relaxed);
  last_progress_ns_.store(NsBetween(start_, Clock::now()),
                          std::memory_order_relaxed);
}

void Watchdog::Finished(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void Watchdog::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, std::chrono::milliseconds(250),
                       [this] { return stop_; })) {
    const double now = SecondsSince(start_);
    const double idle =
        now - static_cast<double>(last_progress_ns_.load(
                  std::memory_order_relaxed)) / 1e9;
    const char* why = nullptr;
    if (idle > kStallSeconds) {
      why = "no progress";
    } else if (now > budget_s_) {
      why = "run budget exceeded";
    }
    if (why != nullptr) {
      std::fprintf(stderr,
                   "perfbench: STALL (%s): phase '%s' in flight for %.1f s, "
                   "%.1f s into the run; exiting\n",
                   why, phase_.load(std::memory_order_relaxed), idle, now);
      std::fflush(stderr);
      // The stalled operation is the one failure; no metric was measured.
      std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                  "\"metrics\": {}}\n",
                  failed_ == 0 ? "true" : "false",
                  static_cast<long long>(attempted_ + 1),
                  static_cast<long long>(failed_ + 1));
      std::fflush(stdout);
      std::_Exit(3);
    }
  }
}

}  // namespace perfbench
