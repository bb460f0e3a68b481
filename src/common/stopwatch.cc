#include "common/stopwatch.h"

namespace minerule {

void Stopwatch::Restart() { start_ = std::chrono::steady_clock::now(); }

double Stopwatch::ElapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

int64_t Stopwatch::ElapsedMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

int64_t Stopwatch::ElapsedNanos() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

}  // namespace minerule
