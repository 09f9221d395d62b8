// springtrace: span-tree tracing for one file operation across the stack.
//
// The paper's evaluation is entirely about *attributing* cost per layer
// (Tables 2/3, Figures 5-7, 9): proving, e.g., that DFS "is not involved in
// local page-in/page-out requests" once it forwards binds. Raw per-domain
// invocation counters cannot show that — a span tree can. One traced
// operation yields a tree of timed spans: the root is the operation, child
// spans are the layers, pager/cache channels, cross-domain calls, and
// network hops it touched, in causal order.
//
// Model:
//  * Tracing is *thread-scoped and explicit*: constructing a TraceRoot
//    starts collection on the calling thread; destroying it (or calling
//    Finish) ends it. No global enable flag — when no TraceRoot is live on
//    the current logical call path, ScopedSpan is a single thread-local
//    load and nothing is allocated.
//  * Propagation follows the call, not the thread. SpinTransport runs
//    cross-domain calls on the caller's thread, so the thread-local context
//    simply persists. ThreadTransport hands off to a worker thread:
//    Domain::RunOnWorker captures the caller's context (trace::Capture) and
//    the worker adopts it (trace::ScopedHandoff) for the duration of the
//    op. The caller is blocked for that duration and the hand-off is
//    mutex-synchronized, so exactly one thread mutates a subtree at a time
//    (TSan-clean by construction). The DFS network hop propagates the same
//    way: the waiting thread's channel pump runs the remote handler inside
//    the destination domain on that thread's context.
//  * Time comes from the injected Clock, so span trees are deterministic
//    under SpinTransport driven by a FakeClock and merely monotonic under
//    real clocks.
//
// Span naming convention (asserted by tests and rolled up by the
// per-layer reports): "<layer>.<operation>", e.g. "coh.page_in",
// "disk.page_out", "vmm.fault", "dfs.bind_forward"; cross-domain calls are
// "xdc:<domain>" and network hops "net.call:<service>" / "net.serve:...".
// Retransmissions of one logical network call are "net.retry:<service>" so
// that "net.call:" counts stay stable under an armed FaultPlan.
//
// Distributed identity: every TraceRoot mints a process-unique trace_id,
// every opened span a process-unique span_id; children inherit the
// trace_id. CurrentContext() packages the pair as a TraceContext, which the
// network layer serializes into each frame header; the serving side adopts
// the inbound context onto its handler span (AdoptRemote), so one logical
// read() is a single tree whose client- and server-domain spans share one
// trace_id, stitched across the wire by remote_parent_span_id.

#ifndef SPRINGFS_OBS_TRACE_H_
#define SPRINGFS_OBS_TRACE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/clock.h"

namespace springfs::trace {

enum class SpanKind : uint8_t {
  kOp,           // a layer-level operation (page_in, read, resolve, ...)
  kCrossDomain,  // a cross-domain invocation carried by a Transport
  kNet,          // a network hop (request+handler+response)
};

const char* SpanKindName(SpanKind kind);

struct Span {
  std::string name;
  std::string detail;  // free-form, e.g. "channel=3" or "a->b"
  SpanKind kind = SpanKind::kOp;
  TimeNs start_ns = 0;
  TimeNs end_ns = 0;
  // Process-unique identity (see file comment). trace_id is shared by every
  // span under one TraceRoot; remote_parent_span_id is nonzero only on
  // server-side handler spans whose parent arrived over the wire.
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t remote_parent_span_id = 0;
  // Point-in-time notes ("retry attempt=2 status=timed out",
  // "fault:drop_response", "dedup replay"); appended only while tracing is
  // active, so untraced hot paths never build the strings.
  std::vector<std::string> annotations;
  Span* parent = nullptr;
  std::vector<std::unique_ptr<Span>> children;

  TimeNs duration_ns() const { return end_ns - start_ns; }
  // Time not covered by child spans (the span's own cost).
  TimeNs self_ns() const;
  // This span plus all descendants.
  size_t TreeSize() const;
};

// --- queries (used by tests and the per-layer reports) ---

// Depth-first search for spans whose name starts with `name_prefix`.
std::vector<const Span*> FindAll(const Span& root, std::string_view name_prefix);
const Span* FindFirst(const Span& root, std::string_view name_prefix);
bool Contains(const Span& root, std::string_view name_prefix);

// Indented human-readable tree / machine-readable JSON.
std::string ToString(const Span& root);
std::string ToJson(const Span& root);

// True when the calling thread is collecting a trace (a TraceRoot is live
// here or was handed off to this thread).
bool Active();

// The compact distributed-trace identity carried in every net::Frame
// header: which trace the caller belongs to and which of its spans is the
// logical parent of the remote work. Zeroes mean "caller not tracing".
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;

  bool active() const { return trace_id != 0; }
};

// The calling thread's current context (inactive when no trace is live).
TraceContext CurrentContext();

// Appends a note to the innermost active span — for deep call sites (e.g.
// a coherency eviction) that do not own the enclosing ScopedSpan. No-op
// when no trace is live; guard expensive formatting with Active().
void AnnotateCurrent(std::string note);

// Starts a trace on the calling thread; the root span covers the
// TraceRoot's lifetime (or until Finish). Non-reentrant per thread in the
// sense that a nested TraceRoot simply records as a child tree of the
// outer one... it does not: a nested TraceRoot replaces the context and
// restores it on destruction, so nest freely — outer traces just do not
// see the inner operation's spans.
class TraceRoot {
 public:
  explicit TraceRoot(std::string name, Clock* clock = &DefaultClock());
  ~TraceRoot();

  TraceRoot(const TraceRoot&) = delete;
  TraceRoot& operator=(const TraceRoot&) = delete;

  // Ends the root span and detaches the context (idempotent). The returned
  // tree stays owned by this TraceRoot.
  const Span& Finish();
  const Span& root() const { return *root_; }

 private:
  std::unique_ptr<Span> root_;
  Clock* clock_;
  Span* saved_current_;
  Clock* saved_clock_;
  bool finished_ = false;
};

// RAII child span. When no trace is active on this thread, construction is
// one thread-local load and the destructor a null check. A null `name`
// means "no span" (callers that time an op but open their span elsewhere).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, SpanKind kind = SpanKind::kOp);
  // Builds "<prefix><suffix>" as the span name — the concatenation happens
  // only while tracing is active (hot paths pay nothing otherwise).
  ScopedSpan(SpanKind kind, const char* prefix, const std::string& suffix);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // No-op when tracing is inactive.
  void SetDetail(std::string detail);

  // Appends a point-in-time note to the span. No-op when inactive; guard
  // expensive message formatting with active().
  void Annotate(std::string note);

  // Marks this span as the adoption point of a context received over the
  // wire: stamps remote_parent_span_id and, when the inbound trace_id
  // differs from the locally inherited one (a genuinely foreign trace),
  // re-labels this span and its future children with it. No-op when the
  // context is inactive or no trace is live here.
  void AdoptRemote(const TraceContext& context);

  bool active() const { return span_ != nullptr; }
  // 0 when inactive.
  uint64_t span_id() const { return span_ == nullptr ? 0 : span_->span_id; }

 private:
  void Open(std::string name, SpanKind kind);

  Span* span_ = nullptr;
};

// --- cross-thread propagation (used by Domain::RunOnWorker) ---

struct Handoff {
  Span* parent = nullptr;
  Clock* clock = nullptr;

  bool active() const { return parent != nullptr; }
};

// Captures the calling thread's trace context (null Handoff when inactive).
Handoff Capture();

// Adopts a captured context on the current thread for the guard's lifetime.
// The capturing thread must be blocked waiting on this work item — two
// threads must never extend the same subtree concurrently.
class ScopedHandoff {
 public:
  explicit ScopedHandoff(const Handoff& handoff);
  ~ScopedHandoff();

  ScopedHandoff(const ScopedHandoff&) = delete;
  ScopedHandoff& operator=(const ScopedHandoff&) = delete;

 private:
  Span* saved_current_;
  Clock* saved_clock_;
};

}  // namespace springfs::trace

#endif  // SPRINGFS_OBS_TRACE_H_
