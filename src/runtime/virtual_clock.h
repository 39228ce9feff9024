// Deterministic virtual time for simulated distributed-systems behaviour.
//
// The FL round engine needs a notion of time to express deadlines, straggler
// delays, and retry backoff — but wall-clock time would make every run (and
// every thread count) observe different timings. A VirtualClock is a plain
// logical tick counter: it only moves when the owning simulation explicitly
// advances it from serial sections of the round loop, so "time" is a pure
// function of the seeded schedule and the determinism contract of
// runtime::parallel_for (see parallel.h) extends to all timeout/retry
// decisions. One tick has no physical unit; configs pick a scale (e.g.
// ~1 tick ≈ 1 simulated millisecond) and stay internally consistent.
#pragma once

#include <cstdint>
#include <string>

namespace oasis::runtime {

/// Monotone logical clock. Not thread-safe by design: advance it only from
/// serial code (parallel regions may read a tick value captured before the
/// fan-out, never the live clock).
class VirtualClock {
 public:
  using ticks = std::uint64_t;

  [[nodiscard]] ticks now() const noexcept { return now_; }

  /// Moves time forward by `dt` ticks.
  void advance(ticks dt) noexcept { now_ += dt; }

  void reset() noexcept { now_ = 0; }

  /// Sets the clock to an absolute tick value. Checkpoint restore only:
  /// this may rewind, because a snapshot is authoritative.
  void restore(ticks t) noexcept { now_ = t; }

  /// "t=<ticks>" — for logs and error messages.
  [[nodiscard]] std::string to_string() const;

 private:
  ticks now_ = 0;
};

}  // namespace oasis::runtime
