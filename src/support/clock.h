// Clock abstraction. File-system timestamps (access/modify times, the
// attributes that the fs_cache/fs_pager interfaces keep coherent) come from
// a Clock so tests can control time deterministically; the latency models in
// the block device and network use real sleeping so benchmarks observe real
// cost ratios.

#ifndef SPRINGFS_SUPPORT_CLOCK_H_
#define SPRINGFS_SUPPORT_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>

namespace springfs {

// Nanoseconds since an arbitrary epoch.
using TimeNs = uint64_t;

class Clock {
 public:
  virtual ~Clock() = default;

  // Current time.
  virtual TimeNs Now() const = 0;

  // Blocks the caller for `ns` nanoseconds of simulated device/network time.
  virtual void SleepNs(uint64_t ns) = 0;
};

// Wall-clock backed implementation. Waits below 200us spin, so device and
// network latencies stay accurate under benchmarks (OS timer slack would
// otherwise inflate them ~10x). Waits of 200us or more sleep until about
// 100us before the deadline, then spin the rest: a plain sleep overshoots
// by the OS wake-up time (a median of 60-72us on an idle 4-core x86-64
// VM), which a clock that charges the time slept, as the benchmark's
// ChargedClock does, would count as modeled time.
class RealClock : public Clock {
 public:
  TimeNs Now() const override {
    return static_cast<TimeNs>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void SleepNs(uint64_t ns) override {
    if (ns == 0) {
      return;
    }
    TimeNs deadline = Now() + ns;
    if (ns >= 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ns - 100'000));
    }
    while (Now() < deadline) {
      // spin
    }
  }
};

// Manually advanced clock: Now() returns a counter; SleepNs advances it
// without blocking. Used by unit tests for deterministic timestamps and by
// throughput-shape tests that must not actually wait.
class FakeClock : public Clock {
 public:
  explicit FakeClock(TimeNs start = 1'000'000'000) : now_(start) {}

  TimeNs Now() const override { return now_.load(std::memory_order_relaxed); }
  void SleepNs(uint64_t ns) override {
    now_.fetch_add(ns, std::memory_order_relaxed);
  }
  void Advance(uint64_t ns) { SleepNs(ns); }

 private:
  std::atomic<TimeNs> now_;
};

// Process-wide default clock used where no clock is injected.
Clock& DefaultClock();

}  // namespace springfs

#endif  // SPRINGFS_SUPPORT_CLOCK_H_
