// Simulated network fabric for the distributed file system (DFS, paper
// sections 4.2.2 and 6.2, Figure 7).
//
// The paper's DFS exports files "to other machines in a coherent fashion
// through some existing protocol (e.g., AFS)". We have no machines, so this
// module provides the synthetic equivalent: named nodes, request/response
// message delivery with per-link latency, explicit byte-serialized frames
// (a real wire format, so protocol handling code is genuine), and
// message/byte accounting. A node is an address space world: it owns a
// Domain (its servants run there) and typically a VMM.
//
// Delivery has one transport (DESIGN.md §12): a Channel carries multiple
// outstanding tagged requests, a client-side pacer bounds the burst rate,
// and loss recovery is reordering-tolerant in the spirit of FreeBSD's RACK
// (a frame is declared lost as soon as later-sent frames complete, with a
// capped-backoff retransmission timer as the last resort). Channel::Call
// is one blocking round trip on a channel; Network::CallAll sends a round
// of calls, each on a single-use channel that never retransmits, for
// callers without a persistent one, and Network::Call is a round of one.

#ifndef SPRINGFS_NET_NETWORK_H_
#define SPRINGFS_NET_NETWORK_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/obj/domain.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/bytes.h"
#include "src/support/clock.h"
#include "src/support/result.h"
#include "src/support/rng.h"

namespace springfs::net {

// One protocol frame. A fixed 56-byte header (type + status + request id +
// boot epoch + trace context + channel tag + payload length) and a
// variable payload; everything crosses the "wire" serialized.
//
// `request_id` is a client-generated identity for mutating requests: a
// server that keeps a dedup window can recognise a retransmission and
// replay its original response instead of applying the operation twice.
// `epoch` is stamped on responses with the server's boot epoch so clients
// can detect a restart (see DfsServer).
//
// `trace_id`/`parent_span_id` carry the caller's trace::TraceContext:
// the transport stamps them into every outbound request (zeroes when the
// caller is not tracing) and the serving side adopts them onto its handler
// span, so one logical operation is one trace tree across the wire.
//
// `tag` is the channel-level submission identity: the transport stamps it
// on requests at transmit time and echoes it onto the matching response,
// so a channel with many outstanding frames can pair completions with
// submissions. Retransmissions of one submission reuse the tag (and thus
// identical wire bytes), which is what lets a server's request-id dedup
// window absorb reordered duplicates.
struct Frame {
  uint32_t type = 0;
  int32_t status = 0;       // ErrorCode of the response (0 = OK)
  uint64_t request_id = 0;  // 0 = not deduplicable
  uint64_t epoch = 0;       // 0 = sender has no boot epoch
  uint64_t trace_id = 0;        // 0 = caller not tracing
  uint64_t parent_span_id = 0;  // caller span the remote work hangs under
  uint64_t tag = 0;             // channel submission id (transport-stamped)
  Buffer payload;

  Buffer Serialize() const;
  static Result<Frame> Deserialize(ByteSpan wire);

  // Response helpers.
  static Frame Error(ErrorCode code);
  Status ToStatus() const {
    return status == 0 ? Status::Ok()
                       : Status(static_cast<ErrorCode>(status),
                                payload.ToString());
  }
};

// Patches the trace-context words of a serialized frame in place (offsets
// fixed by Frame::Serialize); used when stamping a submission's captured
// context onto each transmitted copy.
void StampTraceContext(Buffer& wire, const trace::TraceContext& ctx);

// Seeded message-loss plan, the network analogue of blockdev::CrashPlan.
// Armed globally or per ordered link; every transmission draws from a
// deterministic seeded stream, so a failing chaos schedule replays exactly
// from its seed. Percentages are 0..100.
//
// Semantics (chosen to expose the interesting distributed bugs):
//  - drop_request:  the handler never runs; the channel recovers by
//    retransmission, or completes with kTimedOut once it gives up.
//  - drop_response: the handler RAN (side effects applied!) but the
//    response vanishes — the case that makes retransmission of mutating
//    ops unsafe without request-id dedup.
//  - dup_request:   the handler runs twice back to back (a retransmitted
//    frame both copies of which arrive); the duplicate's response is
//    discarded.
//  - delay:         adds delay_ns on top of the link latency.
struct FaultPlan {
  uint64_t seed = 0;
  uint32_t drop_request_pct = 0;
  uint32_t drop_response_pct = 0;
  uint32_t dup_request_pct = 0;
  uint32_t delay_pct = 0;
  uint64_t delay_ns = 0;

  bool Empty() const {
    return drop_request_pct == 0 && drop_response_pct == 0 &&
           dup_request_pct == 0 && delay_pct == 0;
  }
};

class Network;

// A node on the fabric: a name, a domain, and a set of services. Services
// are request handlers keyed by name ("dfs-server", "dfs-client-3", ...);
// a handler runs inside the node's domain.
class Node {
 public:
  using Handler = std::function<Frame(const Frame& request)>;

  const std::string& name() const { return name_; }
  const sp<Domain>& domain() const { return domain_; }

  void RegisterService(const std::string& service, Handler handler);
  void UnregisterService(const std::string& service);

  // False once the network the node was added to is destroyed: nothing
  // may be sent from it any more.
  bool on_network() const { return on_network_.load(); }

 private:
  friend class Network;
  friend class Channel;

  Node(std::string name, sp<Domain> domain) : name_(std::move(name)),
                                              domain_(std::move(domain)) {}

  std::string name_;
  sp<Domain> domain_;
  std::atomic<bool> on_network_{true};
  std::mutex mutex_;
  std::map<std::string, Handler> services_;
};

// Tunables for an async channel (DESIGN.md §12).
struct ChannelOptions {
  // Submission window: Submit() blocks (pumping completions) while this
  // many frames are outstanding. A handler running for one of the
  // channel's frames submits past it (a nested call on the caller's
  // channel), so a window of 1 cannot deadlock on itself.
  size_t max_inflight = 16;

  // Client-side pacer: once `pace_burst` back-to-back sends have used up
  // the burst allowance, further sends are spaced `pace_gap_ns` apart.
  // 0 = unpaced.
  uint64_t pace_gap_ns = 0;
  size_t pace_burst = 4;

  // RACK-style loss declaration: a pending frame is declared lost (and
  // retransmitted immediately) when a later-sent frame completes and the
  // pending frame has been in flight at least this reordering window.
  uint64_t rack_reorder_ns = 100'000;

  // Last-resort retransmission timer: capped exponential backoff starting
  // at rto_ns. After max_retransmits the frame completes with kTimedOut.
  // Neither rule applies once a copy of the frame has been delivered and
  // its response is on the way back: a handler may run past rto_ns.
  uint64_t rto_ns = 1'000'000;
  uint64_t rto_max_ns = 50'000'000;
  uint32_t max_retransmits = 4;
};

// One finished submission, as returned by Channel::Wait/WaitAnyOf.
struct Completion {
  uint64_t tag = 0;
  Status status = Status::Ok();  // transport verdict; response valid if ok
  Frame response;
  uint32_t retransmits = 0;      // wire copies spent beyond the first
  bool rack_recovered = false;   // a retransmission was RACK-triggered
  TimeNs first_send_ns = 0;      // when the first copy hit the wire
  TimeNs last_send_ns = 0;       // when the latest copy hit the wire
};

// An async RPC channel: one ordered (from, to, service) flow carrying up
// to max_inflight tagged requests at once. Submit() places a frame on the
// wire (through the pacer) and returns its tag; Wait()/WaitAnyOf() drive
// the channel's virtual-time event loop until a completion is available.
//
// Time model: every transmission schedules arrival/response/timer events
// at absolute times computed from link latency and fault verdicts; whoever
// waits pops the earliest event, advances the clock to it, and runs its
// handler. N outstanding requests therefore overlap their round trips —
// the wall/virtual cost is one RTT plus recovery, not N RTTs. Requests
// outstanding on SEVERAL channels overlap only when the waiter pumps them
// together, in event-time order (WaitAnyOf below).
//
// Thread-safe; re-entrant from handlers (a server handler that calls back
// into the same channel pumps it recursively).
class Channel {
 public:
  // Per-channel accounting, exposed for tests.
  struct Stats {
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t rack_retransmits = 0;  // losses declared by later completions
    uint64_t rto_retransmits = 0;   // losses declared by the timer
    uint64_t exhausted = 0;         // completions that gave up (kTimedOut)
    uint64_t paced_sends = 0;       // sends the pacer pushed later
    uint64_t duplicate_responses = 0;  // responses for completed tags
  };

  // Submits one request; returns its tag. Blocks (pumping this channel
  // only) while the window is full; a caller with other channels in
  // flight queues past a full() window instead (FanOut below). `attempt`
  // is the caller's *logical* retransmission count, used only for the
  // net.call:/net.retry: span prefix; channel-internal retransmissions
  // always record net.retry:.
  uint64_t Submit(const Frame& request, uint32_t attempt = 0);

  // Waits for a specific tag. (WaitAnyOf below waits for the earliest
  // unclaimed completion on one channel or several.)
  Result<Completion> Wait(uint64_t tag);

  // One blocking round trip: Submit + Wait, with the response (or the
  // transport's verdict) as the result. Its net.call:/net.retry: span
  // covers the whole round trip, so the serving side's handler span nests
  // under the network hop it arrived on.
  Result<Frame> Call(const Frame& request, uint32_t attempt = 0);

  size_t in_flight() const;
  // True while the window is full: Submit would block.
  bool full() const;
  Stats stats() const;

 private:
  friend class Network;
  friend Result<Completion> WaitAnyOf(std::span<Channel* const> channels,
                                      size_t* index);

  // A tag-table entry: one submission, possibly multiple transmissions.
  struct Pending {
    Frame request;
    uint32_t attempt_hint = 0;
    trace::TraceContext trace_ctx;  // captured at Submit; identical on
                                    // every retransmitted copy
    uint64_t latest_xmit = 0;       // transmission seq of the newest copy
    TimeNs first_send_ns = 0;
    TimeNs last_send_ns = 0;
    uint32_t retransmits = 0;
    uint64_t cur_rto_ns = 0;
    bool rack_recovered = false;
    // A copy reached the handler and its response was not dropped, so the
    // submission completes without help: RACK and the timer leave it be.
    bool delivered = false;
  };

  // A scheduled point on the channel's virtual timeline.
  struct Event {
    enum class Kind {
      kArrive,   // request reaches the destination: run the handler
      kRespond,  // response reaches the caller: complete the tag
      kRto,      // retransmission timer for one transmission
    };
    Kind kind = Kind::kArrive;
    uint64_t tag = 0;
    uint64_t xmit = 0;      // which transmission this event belongs to
    Buffer wire;            // kArrive: request bytes; kRespond: response
    bool dup = false;       // kArrive: duplicated copy, response discarded
    bool drop_response = false;  // kArrive: response vanishes after handler
  };

  Channel(Network* network, std::string from, std::string to,
          std::string service, const ChannelOptions& options);

  // Submit without the span: Submit and Call each open their own.
  uint64_t Enqueue(const Frame& request, uint32_t attempt);

  // Pops the earliest event, advances the clock to it, and processes it
  // (or waits for the thread currently doing so). `lock` holds mu_.
  void PumpOne(std::unique_lock<std::mutex>& lock);
  void ProcessEvent(Event event);
  void ProcessArrive(Event& event);
  void ProcessRespond(Event& event);

  // Places (or re-places) pending_[tag] on the wire: draws fault verdicts,
  // accounts the message, and schedules its events. Requires mu_.
  void TransmitLocked(uint64_t tag);
  void RetransmitLocked(uint64_t tag, bool rack);
  // Earliest pacer-conforming send time >= now. Requires mu_.
  TimeNs PaceLocked(TimeNs now);
  void ScheduleLocked(TimeNs at, Event event);
  // Moves pending_[tag] to the completion queue. Requires mu_.
  void CompleteLocked(uint64_t tag, Result<Frame> response);
  Completion TakeCompletionLocked(std::map<uint64_t, Completion>::iterator it);

  Network* network_;
  std::string from_, to_, service_;
  ChannelOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool pumping_ = false;
  std::thread::id pump_owner_;

  uint64_t next_tag_ = 0;
  uint64_t next_xmit_ = 0;
  uint64_t next_event_seq_ = 0;
  TimeNs pace_tat_ = 0;  // pacer's theoretical-arrival-time (GCRA)
  std::map<uint64_t, Pending> pending_;                  // tag table
  std::map<std::pair<TimeNs, uint64_t>, Event> events_;  // (time, seq)
  std::map<uint64_t, Completion> done_;
  std::deque<uint64_t> done_order_;
  Stats stats_;
};

// Waits for the next completion on any of `channels` (channels of one
// Network, so they share its clock). While none is ready it pumps
// whichever channel holds the earliest scheduled event, so frames
// outstanding to different servers have their arrivals, handlers and
// responses run in virtual-time order, as over independent links. Waiting
// on the channels one after another instead would run a later channel's
// handlers only once the earlier channels were empty, serializing the
// servers' round trips.
//
// Ready completions are taken first, lowest channel index first; equal
// event times also go to the lowest index, so the order is deterministic.
// `*index` is set to the position in `channels` of the channel the result
// is about: the completion's, or one that stalled (kIoError: a submission
// pending with no event scheduled). A channel may be listed more than
// once; `*index` is then its first position. kNotFound (with `*index` 0)
// when nothing is in flight on any of them.
Result<Completion> WaitAnyOf(std::span<Channel* const> channels,
                             size_t* index);

// Requests out on several channels of one Network, each sent for a
// caller-chosen owner id and drained together through WaitAnyOf. A
// request whose channel has a full window waits in that channel's queue
// and goes out as a completion opens the window: Submit would block
// there, pumping that channel alone and holding back every other
// server's events. Completions the set did not send (left over from an
// abandoned earlier drain on the same channel) are taken and dropped.
// Not thread-safe.
class FanOut {
 public:
  struct Finished {
    uint64_t owner = 0;
    Completion completion;
  };

  // Sends `request` on `channel` for `owner`, now or once the channel's
  // window has room. `attempt` is passed on to Channel::Submit.
  void Submit(const sp<Channel>& channel, const Frame& request,
              uint64_t owner, uint32_t attempt = 0);

  // Waits for the next request to finish; nullopt once none is left. A
  // channel that gives up (WaitAnyOf fails on it) finishes every request
  // still outstanding on it, one per call, with that error as the
  // completion's status.
  std::optional<Finished> Next();

 private:
  struct Queued {
    Frame request;
    uint64_t owner = 0;
    uint32_t attempt = 0;
  };
  struct Link {
    sp<Channel> channel;
    std::map<uint64_t, uint64_t> in_flight;  // tag -> owner
    std::deque<Queued> queued;               // behind a full window
  };

  void SendQueued(Link& link);

  std::vector<Link> links_;  // one per channel, in order of first use
  std::deque<Finished> failed_;  // finished by a channel giving up
};

// One call of a Network::CallAll round: where it goes and what it carries.
struct CallTo {
  std::string to;
  std::string service;
  Frame request;
};

class Network : public metrics::StatsProvider {
 public:
  explicit Network(Clock* clock = &DefaultClock(),
                   uint64_t default_latency_ns = 50'000);
  ~Network() override;

  // Adds a node (its domain is created on the fly when not supplied).
  sp<Node> AddNode(const std::string& name, sp<Domain> domain = nullptr);

  // One-way latency between two nodes (settable per ordered pair).
  void SetLatency(const std::string& from, const std::string& to,
                  uint64_t latency_ns);

  // Partitions a node off the fabric (calls to/from it fail with
  // kConnectionLost) — for failure-injection tests.
  void SetPartitioned(const std::string& node, bool partitioned);

  // Fails the next `calls` transmissions (any endpoints) with `code`
  // before they reach the destination — deterministic transient-fault
  // injection for retry tests. All bookkeeping lives under the network
  // mutex, so concurrent senders each consume exactly one budgeted failure.
  void FailNextCalls(uint64_t calls, ErrorCode code = ErrorCode::kTimedOut);

  // Same, scoped to the ordered link `from` -> `to`; other links are
  // unaffected. Link-scoped budgets are consumed before the global one.
  void FailNextCallsOnLink(const std::string& from, const std::string& to,
                           uint64_t calls,
                           ErrorCode code = ErrorCode::kTimedOut);

  // Drops the next `n` *responses* on the ordered link `from` -> `to`: the
  // handler runs (server-side effects apply) but the response never makes
  // it back. Deterministic counterpart of FaultPlan::drop_response_pct,
  // for exactly-once dedup tests.
  void DropNextResponses(const std::string& from, const std::string& to,
                         uint64_t n);

  // Drops the next `n` requests on the ordered link: the handler never
  // runs. Deterministic counterpart of FaultPlan::drop_request_pct, for
  // loss-recovery tests.
  void DropNextRequests(const std::string& from, const std::string& to,
                        uint64_t n);

  // Delays the next `n` requests on the ordered link by `delay_ns` on top
  // of the link latency — deterministic reordering for RACK/dedup tests.
  void DelayNextRequests(const std::string& from, const std::string& to,
                         uint64_t n, uint64_t delay_ns);

  // Arms the seeded fault plan for every link / one ordered link. Per-link
  // plans override the global one. The armed check is a single relaxed
  // atomic load, so the machinery costs nothing when disarmed.
  void ArmFaults(const FaultPlan& plan);
  void ArmFaultsOnLink(const std::string& from, const std::string& to,
                       const FaultPlan& plan);
  void DisarmFaults();

  // Opens a persistent async channel (see Channel above).
  sp<Channel> OpenChannel(const std::string& from, const std::string& to,
                          const std::string& service,
                          const ChannelOptions& options = {});

  // Sends every call at once, each on its own single-use channel, and
  // drains them together through a FanOut, so the round costs its slowest
  // round trip rather than the sum of them. For callers that keep no
  // channel of their own: server callbacks, the metadata server's calls to
  // its data servers, tests. The channels never retransmit
  // (max_retransmits = 0): a lost request or response completes its call
  // alone with kTimedOut when its first timer fires, rto_ns after the send,
  // and retry policy stays with the caller. Callbacks carry no request id
  // and their handlers are not idempotent, so a resent copy could run one
  // twice. A slow handler is still safe: its frame was delivered, so the
  // timer leaves it be. The results follow the order of `calls`; an empty
  // round opens no channel.
  std::vector<Result<Frame>> CallAll(const std::string& from,
                                     std::span<const CallTo> calls);

  // One blocking round trip: CallAll of one call.
  Result<Frame> Call(const std::string& from, const std::string& to,
                     const std::string& service, const Frame& request);

  // --- StatsProvider ---
  std::string stats_prefix() const override { return "net"; }
  void CollectStats(const metrics::StatsEmitter& emit) const override;

 private:
  friend class Channel;

  using LinkKey = std::pair<std::string, std::string>;

  struct FailBudget {
    uint64_t calls = 0;
    ErrorCode code = ErrorCode::kTimedOut;
  };

  struct DelayBudget {
    uint64_t n = 0;
    uint64_t delay_ns = 0;
  };

  // Wire/fault accounting, guarded by mutex_; published via CollectStats.
  struct Stats {
    uint64_t calls = 0;  // transmissions (each costs two wire messages)
    uint64_t messages = 0;
    uint64_t bytes = 0;
    // Fault-injection accounting (always 0 with faults disarmed).
    uint64_t dropped_requests = 0;
    uint64_t dropped_responses = 0;
    uint64_t duplicated_requests = 0;
    uint64_t delayed_messages = 0;
    uint64_t injected_failures = 0;  // FailNextCalls / FailNextCallsOnLink
    // Loss-recovery accounting across every channel.
    uint64_t rack_retransmits = 0;
    uint64_t rto_retransmits = 0;
    // Per-frame-type transmissions, published as "calls/<name>" where
    // <name> comes from the installed FrameTypeNamer (below). Lets
    // `springfs_stat --diff` show per-op round-trip counts.
    std::map<uint32_t, uint64_t> calls_by_type;
  };

  // A FaultPlan plus its private deterministic stream.
  struct ArmedFaults {
    FaultPlan plan;
    Rng rng;

    explicit ArmedFaults(const FaultPlan& p) : plan(p), rng(p.seed) {}
  };

  // Per-transmission fault verdict, drawn under mutex_ and applied
  // lock-free.
  struct FaultDecision {
    bool drop_request = false;
    bool drop_response = false;
    bool dup_request = false;
    uint64_t extra_delay_ns = 0;
  };

  uint64_t LatencyBetween(const std::string& from, const std::string& to) const;
  // Requires mutex_. Draws all four coin flips unconditionally so the
  // random stream (and thus seed reproducibility) does not depend on plan
  // percentages.
  FaultDecision DecideFaults(const std::string& from, const std::string& to);

  Clock* clock_;
  uint64_t default_latency_ns_;
  mutable std::mutex mutex_;
  std::map<std::string, sp<Node>> nodes_;
  std::map<LinkKey, uint64_t> latency_;
  std::map<std::string, bool> partitioned_;
  FailBudget global_fail_;
  std::map<LinkKey, FailBudget> link_fail_;
  std::map<LinkKey, uint64_t> drop_responses_;
  std::map<LinkKey, uint64_t> drop_requests_;
  std::map<LinkKey, DelayBudget> delay_requests_;
  std::atomic<bool> faults_armed_{false};
  std::optional<ArmedFaults> global_faults_;
  std::map<LinkKey, ArmedFaults> link_faults_;
  Stats stats_;
};

// Process-wide pretty-printer for Frame::type values in metrics output
// ("net/calls/<name>"). A protocol layer installs one when it starts
// speaking over the network — DFS does so in DfsServer::Create and
// DfsClient::Mount, mapping types through dfs::OpName. Without a namer
// (or for values the namer does not know) the fallback is "type<N>".
// Stored in a single atomic function pointer: installing is idempotent
// and thread-safe, and lookups are wait-free.
using FrameTypeNamer = const char* (*)(uint32_t type);
void SetFrameTypeNamer(FrameTypeNamer namer);
std::string FrameTypeName(uint32_t type);

}  // namespace springfs::net

#endif  // SPRINGFS_NET_NETWORK_H_
