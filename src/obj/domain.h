// Spring domains and location-independent object invocation.
//
// A Spring domain is an address space with a collection of threads (paper
// section 3.1). Servers and clients may share a domain or not; the object
// invocation stubs "automatically choose the optimal path (procedure calls
// or cross-domain calls)" (section 6.4). This file reproduces that
// machinery:
//
//  * Domain        — a simulated address space. Every servant belongs to one.
//  * Domain::Run   — executes an operation. If the calling thread is already
//                    executing inside the target domain the operation is a
//                    plain procedure call; otherwise it is a cross-domain
//                    call whose cost comes from the installed transport.
//  * Transport     — how cross-domain calls are carried:
//                      SpinTransport   — caller-thread execution plus a
//                                        calibrated delay (deterministic;
//                                        the default).
//                      ThreadTransport — hand-off to a worker thread owned
//                                        by the target domain (a genuine
//                                        context switch; the worker pool
//                                        grows on demand so nested
//                                        callbacks, e.g. pager->cache->
//                                        pager, never deadlock).
//
// Invocation counts are recorded per domain so tests can assert path
// optimality claims from the paper, e.g. that DFS "is not involved in local
// page-in/page-out requests" once it forwards binds to the layer below
// (Figure 7).

#ifndef SPRINGFS_OBJ_DOMAIN_H_
#define SPRINGFS_OBJ_DOMAIN_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/obj/object.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/clock.h"
#include "src/support/logging.h"

namespace springfs {

class Domain;

// Carries a cross-domain invocation to the target domain.
class Transport {
 public:
  virtual ~Transport() = default;

  // Executes `op` "inside" `target` and returns when it completes. The
  // implementation must arrange for Domain::current() to equal `target`
  // while op runs.
  virtual void Execute(Domain* target, const std::function<void()>& op) = 0;
};

// Deterministic transport: runs the operation on the calling thread after a
// calibrated delay representing the trap + context switch of a door call.
class SpinTransport : public Transport {
 public:
  // `cross_call_ns` is charged once per cross-domain invocation.
  explicit SpinTransport(uint64_t cross_call_ns = 500,
                         Clock* clock = &DefaultClock())
      : cross_call_ns_(cross_call_ns), clock_(clock) {}

  void Execute(Domain* target, const std::function<void()>& op) override;

  uint64_t cross_call_ns() const { return cross_call_ns_; }

 private:
  uint64_t cross_call_ns_;
  Clock* clock_;
};

// Real-thread transport: each domain owns a growable worker pool; a
// cross-domain call enqueues the operation and blocks until a worker has run
// it. Nested cross-domain callbacks spawn additional workers rather than
// deadlocking (Spring servers are multi-threaded, section 6.1).
class ThreadTransport : public Transport {
 public:
  void Execute(Domain* target, const std::function<void()>& op) override;
};

namespace internal {
// Process-wide cross-domain call instrument ("domain/cross_call"), shared
// by every domain; defined out of line so the templated Run below can use
// it without a per-call registry lookup.
metrics::OpMetric& DomainCrossCallMetric();
}  // namespace internal

class Domain : public std::enable_shared_from_this<Domain>,
               public metrics::StatsProvider {
 public:
  // Creates a domain with the given diagnostic name. All domains created
  // without an explicit transport share the process-default transport
  // (SetDefaultTransport).
  static sp<Domain> Create(std::string name, Transport* transport = nullptr);

  ~Domain();

  const std::string& name() const { return name_; }

  // The domain the calling thread is currently executing in (nullptr when
  // the thread has not entered any domain).
  static Domain* current();

  // Runs `op` inside this domain and returns its result. Same-domain calls
  // are plain procedure calls; cross-domain calls go through the transport.
  // Exceptions thrown by `op` propagate to the caller on both paths
  // (ThreadTransport transfers them from the worker thread).
  template <typename F>
  auto Run(F&& op) -> std::invoke_result_t<F> {
    using R = std::invoke_result_t<F>;
    if (current() == this) {
      stats_inline_.fetch_add(1, std::memory_order_relaxed);
      return op();
    }
    stats_cross_.fetch_add(1, std::memory_order_relaxed);
    metrics::TimedOp timed(internal::DomainCrossCallMetric(), nullptr);
    trace::ScopedSpan span(trace::SpanKind::kCrossDomain, "xdc:", name_);
    if constexpr (std::is_void_v<R>) {
      transport_->Execute(this, [&op] { op(); });
    } else {
      // The optional stays empty if op throws through the transport, so a
      // propagating exception never touches an uninitialized result.
      std::optional<R> slot;
      transport_->Execute(this, [&op, &slot] { slot.emplace(op()); });
      SPRINGFS_CHECK(slot.has_value());
      return std::move(*slot);
    }
  }

  // --- StatsProvider ---
  std::string stats_prefix() const override { return "domain/" + name_; }
  void CollectStats(const metrics::StatsEmitter& emit) const override {
    emit("inline_calls", stats_inline_.load(std::memory_order_relaxed));
    emit("cross_calls", stats_cross_.load(std::memory_order_relaxed));
  }

  // --- used by transports ---

  // Enqueues op on this domain's worker pool and waits for completion
  // (ThreadTransport path).
  void RunOnWorker(const std::function<void()>& op);

  // Marks the calling thread as executing in `domain` for the guard's
  // lifetime (also how client test threads claim a home domain).
  class Scope {
   public:
    // The swap lives out of line: inline stores to an extern thread_local
    // go through the compiler's TLS wrapper, which UBSan misreads as a
    // null-pointer store when emitted from another translation unit.
    explicit Scope(Domain* domain) : previous_(SwapCurrent(domain)) {}
    ~Scope() { SwapCurrent(previous_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Domain* previous_;
  };

  // Installs the process-wide default transport for newly created domains.
  // Returns the previous transport. Passing nullptr restores the built-in
  // SpinTransport.
  static Transport* SetDefaultTransport(Transport* transport);
  static Transport* DefaultTransport();

 private:
  friend class Scope;

  explicit Domain(std::string name, Transport* transport);

  // Sets the calling thread's current domain, returning the previous one.
  static Domain* SwapCurrent(Domain* domain);

  void WorkerLoop();

  static thread_local Domain* tls_current_;

  std::string name_;
  Transport* transport_;

  std::atomic<uint64_t> stats_inline_{0};
  std::atomic<uint64_t> stats_cross_{0};

  // Worker pool (ThreadTransport only; lazily grown).
  struct PendingOp {
    const std::function<void()>* op = nullptr;
    std::mutex* done_mutex = nullptr;
    std::condition_variable* done_cv = nullptr;
    bool* done_flag = nullptr;
  };
  std::mutex pool_mutex_;
  std::condition_variable pool_cv_;
  std::deque<PendingOp> queue_;
  std::vector<std::thread> workers_;
  size_t idle_workers_ = 0;
  bool shutting_down_ = false;
};

// A servant is an object implementation living in a particular domain.
// Implementations wrap each interface method body in InDomain so that
// placement (same/different domain, via configuration) is transparent to
// clients, exactly as Spring stubs make it.
class Servant : public virtual Object {
 public:
  explicit Servant(sp<Domain> domain) : domain_(std::move(domain)) {
    SPRINGFS_CHECK(domain_ != nullptr);
  }

  const sp<Domain>& domain() const { return domain_; }

 protected:
  template <typename F>
  auto InDomain(F&& op) const -> std::invoke_result_t<F> {
    return domain_->Run(std::forward<F>(op));
  }

 private:
  sp<Domain> domain_;
};

}  // namespace springfs

#endif  // SPRINGFS_OBJ_DOMAIN_H_
