// Process-wide metrics registry: counters, fixed-bucket latency histograms,
// and the uniform StatsProvider surface that replaces the ad-hoc
// per-subsystem stats accessors.
//
// Modeled on Lustre's per-target stats/histogram export (PAPERS.md): every
// subsystem publishes into one registry under a hierarchical name
// ("layer/coherency/page_in.calls", "domain/sfs-disk/cross_calls", ...),
// and one snapshot call produces the whole system's state — which is what
// the bench harness serializes into BENCH_*.json and springfs-stat renders
// as the Table-2-style per-layer report.
//
// Three kinds of data:
//  * Counter    — a monotonically increasing atomic, registered by name.
//  * Histogram  — fixed power-of-two latency buckets (first bound 128ns,
//                 last bucket unbounded), atomic per bucket. Recording is
//                 lock-free; snapshots are relaxed reads, exact once the
//                 writers have quiesced.
//  * StatsProvider — a subsystem that owns its own counters (a Domain's
//                 invocation counts, a VMM's fault counts) implements this
//                 interface and registers; Collect() folds its values into
//                 the snapshot under its prefix. Identical names from
//                 several instances sum, so e.g. ten domains named
//                 "node:client" aggregate naturally.
//
// Determinism: latency measurement reads the registry clock (SetClock).
// Under SpinTransport with a FakeClock installed everywhere, repeated runs
// produce bit-identical snapshots; under ThreadTransport everything here is
// merely thread-safe (atomics + one mutex around the maps).
//
// Interval metrics: Collect() is cumulative since process start (provider
// counters are live subsystem state, deliberately untouched by Reset()).
// Phase-scoped accounting therefore snapshots before and after and takes
// Delta(before, after) — what BenchReport emits per configuration and
// springfs-stat --diff/--watch render.
//
// The legacy per-subsystem stats() accessors (VmmStats, DomainStats, ...)
// are gone; read one provider through CollectFrom()/StatValue() or the
// whole system through Registry::Collect().

#ifndef SPRINGFS_OBS_METRICS_H_
#define SPRINGFS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/support/clock.h"

namespace springfs::metrics {

class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Latency histogram with fixed power-of-two buckets. Bucket i counts
// samples in [UpperBoundNs(i-1), UpperBoundNs(i)); the last bucket is
// unbounded. Fixed buckets keep Record O(log) with no allocation and make
// snapshots mergeable across runs.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 26;
  static constexpr uint64_t kFirstBoundNs = 128;

  // Upper bound of bucket i (inclusive buckets below it); ~0 for the last.
  static uint64_t UpperBoundNs(size_t i);
  static size_t BucketIndex(uint64_t ns);

  void Record(uint64_t ns) {
    buckets_[BucketIndex(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum_ns = 0;
    std::array<uint64_t, kNumBuckets> buckets{};

    double mean_ns() const {
      return count == 0 ? 0.0 : static_cast<double>(sum_ns) / count;
    }
    // Upper bound of the bucket containing the q-quantile sample.
    uint64_t ApproxQuantileNs(double q) const;
    bool operator==(const Snapshot& other) const = default;
  };

  Snapshot snapshot() const;
  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
};

using StatsEmitter =
    std::function<void(const std::string& name, uint64_t value)>;

// The uniform stats surface. A subsystem keeps whatever internal counters
// it likes; CollectStats publishes them as (name, value) pairs which land
// in the snapshot as "<stats_prefix()>/<name>".
class StatsProvider {
 public:
  virtual ~StatsProvider() = default;

  virtual std::string stats_prefix() const = 0;
  virtual void CollectStats(const StatsEmitter& emit) const = 0;
};

class Registry {
 public:
  // The process-wide registry (subsystems register here by default).
  static Registry& Global();

  // Named instruments; the reference stays valid for the registry's
  // lifetime. Repeated calls with one name return the same instrument.
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Provider registration (subsystem ctor/dtor). A registered provider
  // must outlive its registration.
  void RegisterProvider(StatsProvider* provider);
  void UnregisterProvider(StatsProvider* provider);

  struct Snapshot {
    // Counters and provider-emitted values; same-name values sum.
    std::map<std::string, uint64_t> values;
    std::map<std::string, Histogram::Snapshot> histograms;

    bool operator==(const Snapshot& other) const = default;
  };

  Snapshot Collect() const;

  // Zeroes every counter and histogram. Provider-owned state is not
  // touched: providers expose live subsystem counters, which callers
  // isolate by reading differences (Delta) instead of resetting.
  void Reset();

  // Clock used for latency measurement (TimedOp); defaults to
  // DefaultClock. Install a FakeClock for deterministic histograms.
  void SetClock(Clock* clock) { clock_.store(clock ? clock : &DefaultClock()); }
  Clock* clock() const { return clock_.load(); }

  size_t NumProviders() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::vector<StatsProvider*> providers_;
  std::atomic<Clock*> clock_{&DefaultClock()};
};

// JSON rendering of a snapshot ({"values": {...}, "histograms": {...}}).
std::string ToJson(const Registry::Snapshot& snapshot);

// --- interval (per-phase) metrics ---

// Per-bucket/count/sum difference `after - before`, clamped at zero per
// component so a counter reset mid-interval yields zeros, not underflow.
Histogram::Snapshot Delta(const Histogram::Snapshot& before,
                          const Histogram::Snapshot& after);

// Snapshot difference: every value/histogram of `after` minus its
// counterpart in `before` (absent in `before` = zero). Keys only in
// `before` are dropped — an instrument that vanished recorded nothing in
// the interval.
Registry::Snapshot Delta(const Registry::Snapshot& before,
                         const Registry::Snapshot& after);

// --- single-provider reads (the replacement for the legacy stats()
// accessors) ---

// One provider's emitted values under their bare names (no prefix).
std::map<std::string, uint64_t> CollectFrom(const StatsProvider& provider);

// One named value from one provider; 0 when the provider does not emit it.
uint64_t StatValue(const StatsProvider& provider, const std::string& name);

// Counter + latency histogram pair for one named operation, resolved once
// (typically a function-local static) so hot paths skip the name lookup.
class OpMetric {
 public:
  explicit OpMetric(const std::string& name,
                    Registry& registry = Registry::Global())
      : calls(registry.counter(name + ".calls")),
        latency(registry.histogram(name + ".latency_ns")),
        registry_(registry) {}

  Counter& calls;
  Histogram& latency;
  Registry& registry() const { return registry_; }

 private:
  Registry& registry_;
};

// RAII measurement of one operation: counts the call, records latency on
// the registry clock, and opens a trace span under the active trace (if
// any) named `span_name`.
class TimedOp {
 public:
  TimedOp(OpMetric& metric, const char* span_name)
      : metric_(metric), span_(span_name),
        clock_(metric.registry().clock()), start_ns_(clock_->Now()) {}

  ~TimedOp() {
    metric_.calls.Increment();
    metric_.latency.Record(clock_->Now() - start_ns_);
  }

  TimedOp(const TimedOp&) = delete;
  TimedOp& operator=(const TimedOp&) = delete;

  trace::ScopedSpan& span() { return span_; }

 private:
  OpMetric& metric_;
  trace::ScopedSpan span_;
  Clock* clock_;
  TimeNs start_ns_;
};

}  // namespace springfs::metrics

#endif  // SPRINGFS_OBS_METRICS_H_
