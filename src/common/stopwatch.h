#ifndef MINERULE_COMMON_STOPWATCH_H_
#define MINERULE_COMMON_STOPWATCH_H_

#include <chrono>

namespace minerule {

/// Monotonic wall-clock stopwatch used for per-phase statistics.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart();

  /// Elapsed time since construction or the last Restart(), in seconds.
  double ElapsedSeconds() const;

  /// Elapsed time in microseconds (truncated).
  int64_t ElapsedMicros() const;

  /// Elapsed time in nanoseconds. Accumulate this, not ElapsedMicros, when
  /// summing many short intervals: truncating each to whole microseconds
  /// drops every interval shorter than 1 µs.
  int64_t ElapsedNanos() const;

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace minerule

#endif  // MINERULE_COMMON_STOPWATCH_H_
