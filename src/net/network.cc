#include "src/net/network.h"

namespace springfs::net {
namespace {

// type, status, request_id, epoch, trace_id, parent_span_id, tag, len
constexpr size_t kHeaderSize = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8;
constexpr size_t kTraceIdOffset = 24;
constexpr size_t kParentSpanOffset = 32;

}  // namespace

Buffer Frame::Serialize() const {
  Buffer wire(kHeaderSize + payload.size());
  uint8_t* p = wire.data();
  StoreLe<uint32_t>(p + 0, type);
  StoreLe<uint32_t>(p + 4, static_cast<uint32_t>(status));
  StoreLe<uint64_t>(p + 8, request_id);
  StoreLe<uint64_t>(p + 16, epoch);
  StoreLe<uint64_t>(p + kTraceIdOffset, trace_id);
  StoreLe<uint64_t>(p + kParentSpanOffset, parent_span_id);
  StoreLe<uint64_t>(p + 40, tag);
  StoreLe<uint64_t>(p + 48, payload.size());
  wire.WriteAt(kHeaderSize, payload.span());
  return wire;
}

Result<Frame> Frame::Deserialize(ByteSpan wire) {
  if (wire.size() < kHeaderSize) {
    return ErrCorrupted("frame shorter than header");
  }
  Frame frame;
  const uint8_t* p = wire.data();
  frame.type = LoadLe<uint32_t>(p + 0);
  frame.status = static_cast<int32_t>(LoadLe<uint32_t>(p + 4));
  frame.request_id = LoadLe<uint64_t>(p + 8);
  frame.epoch = LoadLe<uint64_t>(p + 16);
  frame.trace_id = LoadLe<uint64_t>(p + kTraceIdOffset);
  frame.parent_span_id = LoadLe<uint64_t>(p + kParentSpanOffset);
  frame.tag = LoadLe<uint64_t>(p + 40);
  uint64_t payload_len = LoadLe<uint64_t>(p + 48);
  if (wire.size() != kHeaderSize + payload_len) {
    return ErrCorrupted("frame payload length mismatch");
  }
  frame.payload = Buffer(wire.subspan(kHeaderSize, payload_len));
  return frame;
}

Frame Frame::Error(ErrorCode code) {
  Frame frame;
  frame.status = static_cast<int32_t>(code);
  return frame;
}

void StampTraceContext(Buffer& wire, const trace::TraceContext& ctx) {
  // Patching the serialized header (rather than copying the Frame) keeps
  // the hot path to the single Serialize allocation.
  StoreLe<uint64_t>(wire.data() + kTraceIdOffset, ctx.trace_id);
  StoreLe<uint64_t>(wire.data() + kParentSpanOffset, ctx.parent_span_id);
}

void Node::RegisterService(const std::string& service, Handler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  services_[service] = std::move(handler);
}

void Node::UnregisterService(const std::string& service) {
  std::lock_guard<std::mutex> lock(mutex_);
  services_.erase(service);
}

Network::Network(Clock* clock, uint64_t default_latency_ns)
    : clock_(clock), default_latency_ns_(default_latency_ns) {
  metrics::Registry::Global().RegisterProvider(this);
}

Network::~Network() {
  metrics::Registry::Global().UnregisterProvider(this);
  for (const auto& [name, node] : nodes_) {
    node->on_network_.store(false);
  }
}

sp<Node> Network::AddNode(const std::string& name, sp<Domain> domain) {
  if (!domain) {
    domain = Domain::Create("node:" + name);
  }
  sp<Node> node(new Node(name, std::move(domain)));
  std::lock_guard<std::mutex> lock(mutex_);
  nodes_[name] = node;
  return node;
}

void Network::SetLatency(const std::string& from, const std::string& to,
                         uint64_t latency_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  latency_[{from, to}] = latency_ns;
}

void Network::SetPartitioned(const std::string& node, bool partitioned) {
  std::lock_guard<std::mutex> lock(mutex_);
  partitioned_[node] = partitioned;
}

void Network::FailNextCalls(uint64_t calls, ErrorCode code) {
  std::lock_guard<std::mutex> lock(mutex_);
  global_fail_ = {calls, code};
}

void Network::FailNextCallsOnLink(const std::string& from,
                                  const std::string& to, uint64_t calls,
                                  ErrorCode code) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (calls == 0) {
    link_fail_.erase({from, to});
  } else {
    link_fail_[{from, to}] = {calls, code};
  }
}

void Network::DropNextResponses(const std::string& from, const std::string& to,
                                uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (n == 0) {
    drop_responses_.erase({from, to});
  } else {
    drop_responses_[{from, to}] = n;
  }
}

void Network::DropNextRequests(const std::string& from, const std::string& to,
                               uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (n == 0) {
    drop_requests_.erase({from, to});
  } else {
    drop_requests_[{from, to}] = n;
  }
}

void Network::DelayNextRequests(const std::string& from, const std::string& to,
                                uint64_t n, uint64_t delay_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (n == 0) {
    delay_requests_.erase({from, to});
  } else {
    delay_requests_[{from, to}] = {n, delay_ns};
  }
}

void Network::ArmFaults(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  global_faults_.emplace(plan);
  faults_armed_.store(true, std::memory_order_relaxed);
}

void Network::ArmFaultsOnLink(const std::string& from, const std::string& to,
                              const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  link_faults_.insert_or_assign(LinkKey{from, to}, ArmedFaults(plan));
  faults_armed_.store(true, std::memory_order_relaxed);
}

void Network::DisarmFaults() {
  std::lock_guard<std::mutex> lock(mutex_);
  global_faults_.reset();
  link_faults_.clear();
  faults_armed_.store(false, std::memory_order_relaxed);
}

Network::FaultDecision Network::DecideFaults(const std::string& from,
                                             const std::string& to) {
  FaultDecision d;
  ArmedFaults* armed = nullptr;
  auto it = link_faults_.find({from, to});
  if (it != link_faults_.end()) {
    armed = &it->second;
  } else if (global_faults_) {
    armed = &*global_faults_;
  }
  if (armed == nullptr || armed->plan.Empty()) {
    return d;
  }
  // Draw every coin unconditionally: the stream position then depends only
  // on the call sequence, not on the percentages, so tweaking one knob does
  // not reshuffle every other fault in a seeded schedule.
  bool drop_req = armed->rng.Chance(armed->plan.drop_request_pct, 100);
  bool drop_resp = armed->rng.Chance(armed->plan.drop_response_pct, 100);
  bool dup_req = armed->rng.Chance(armed->plan.dup_request_pct, 100);
  bool delay = armed->rng.Chance(armed->plan.delay_pct, 100);
  d.drop_request = drop_req;
  d.drop_response = drop_resp;
  d.dup_request = dup_req && !drop_req;
  d.extra_delay_ns = delay ? armed->plan.delay_ns : 0;
  return d;
}

uint64_t Network::LatencyBetween(const std::string& from,
                                 const std::string& to) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = latency_.find({from, to});
  return it != latency_.end() ? it->second : default_latency_ns_;
}

sp<Channel> Network::OpenChannel(const std::string& from,
                                 const std::string& to,
                                 const std::string& service,
                                 const ChannelOptions& options) {
  return sp<Channel>(new Channel(this, from, to, service, options));
}

std::vector<Result<Frame>> Network::CallAll(const std::string& from,
                                            std::span<const CallTo> calls) {
  // No retransmission: server callbacks carry no request id and their
  // handlers are not idempotent (a recall hands its dirty pages over once),
  // so a lost copy must reach the caller as kTimedOut, not be resent.
  ChannelOptions once;
  once.max_retransmits = 0;
  FanOut round;
  for (size_t i = 0; i < calls.size(); ++i) {
    round.Submit(sp<Channel>(new Channel(this, from, calls[i].to,
                                         calls[i].service, once)),
                 calls[i].request, i);
  }
  std::vector<Result<Frame>> results(calls.size(),
                                     ErrIoError("call never completed"));
  while (std::optional<FanOut::Finished> done = round.Next()) {
    Completion& completion = done->completion;
    if (completion.status.ok()) {
      results[done->owner] = std::move(completion.response);
    } else {
      results[done->owner] = completion.status;
    }
  }
  return results;
}

Result<Frame> Network::Call(const std::string& from, const std::string& to,
                            const std::string& service, const Frame& request) {
  CallTo call{to, service, request};
  return std::move(CallAll(from, {&call, 1}).front());
}

namespace {
std::atomic<FrameTypeNamer> g_frame_type_namer{nullptr};
}  // namespace

void SetFrameTypeNamer(FrameTypeNamer namer) {
  g_frame_type_namer.store(namer, std::memory_order_relaxed);
}

std::string FrameTypeName(uint32_t type) {
  if (FrameTypeNamer namer = g_frame_type_namer.load(std::memory_order_relaxed)) {
    if (const char* name = namer(type)) {
      return name;
    }
  }
  return "type" + std::to_string(type);
}

void Network::CollectStats(const metrics::StatsEmitter& emit) const {
  std::lock_guard<std::mutex> lock(mutex_);
  emit("calls", stats_.calls);
  for (const auto& [type, n] : stats_.calls_by_type) {
    emit("calls/" + FrameTypeName(type), n);
  }
  emit("messages", stats_.messages);
  emit("bytes", stats_.bytes);
  emit("dropped_requests", stats_.dropped_requests);
  emit("dropped_responses", stats_.dropped_responses);
  emit("duplicated_requests", stats_.duplicated_requests);
  emit("delayed_messages", stats_.delayed_messages);
  emit("injected_failures", stats_.injected_failures);
  emit("rack_retransmits", stats_.rack_retransmits);
  emit("rto_retransmits", stats_.rto_retransmits);
}

}  // namespace springfs::net
