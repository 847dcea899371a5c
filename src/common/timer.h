#ifndef FAIRCLIQUE_COMMON_TIMER_H_
#define FAIRCLIQUE_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace fairclique {

/// Monotonic wall-clock timer used by the benchmark harnesses and by
/// time-limited search. Started on construction; `Restart()` resets.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction/restart, in microseconds.
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

  /// Elapsed time in seconds, at the clock's own resolution (not rounded
  /// to whole microseconds, so sub-microsecond budgets expire).
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Microseconds between `earlier`'s start and this timer's start — the
  /// elapsed time `earlier` would have reported at the instant this timer
  /// was (re)started, without another clock read. Negative when this timer
  /// actually started first.
  int64_t StartMicrosSince(const WallTimer& earlier) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               start_ - earlier.start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A deadline for cooperative cancellation of long searches. A non-positive
/// budget means "no limit".
class Deadline {
 public:
  /// Creates a deadline `budget_seconds` from now; <= 0 disables the limit.
  explicit Deadline(double budget_seconds = 0.0)
      : limited_(budget_seconds > 0.0), budget_seconds_(budget_seconds) {}

  bool Expired() const {
    return limited_ && timer_.ElapsedSeconds() > budget_seconds_;
  }

 private:
  bool limited_;
  double budget_seconds_;
  WallTimer timer_;
};

}  // namespace fairclique

#endif  // FAIRCLIQUE_COMMON_TIMER_H_
