// Async submission/completion channel (DESIGN.md §12).
//
// A Channel keeps a tag table of outstanding submissions and a queue of
// scheduled events — request arrivals, response arrivals, retransmission
// timers — at absolute virtual times. Whoever waits on the channel pops
// the earliest event, advances the clock to it, and runs it; N outstanding
// requests therefore overlap their round trips under both FakeClock and
// RealClock (the pump only ever sleeps the gap to the next event).
// WaitAnyOf extends this across channels: it always pumps the channel
// whose next event is earliest, so a fan-out over several servers runs
// their events in one virtual-time order.
//
// Loss recovery follows FreeBSD's RACK idea: a completion is evidence
// about every frame sent before the completing transmission, so such
// frames are declared lost as soon as the reordering window has elapsed,
// instead of waiting out a full timeout. The per-transmission timer (with
// capped exponential backoff) remains as the last resort, e.g. for the
// newest-sent frame which no later completion can testify against.
//
// Retransmitted copies carry byte-identical wire frames (same request_id,
// same tag, same trace context), so a server's request-id dedup window
// absorbs reordered duplicates and the response of whichever copy arrives
// first completes the tag; later copies count as duplicate_responses.

#include <algorithm>
#include <optional>

#include "src/net/network.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"

namespace springfs::net {

Channel::Channel(Network* network, std::string from, std::string to,
                 std::string service, const ChannelOptions& options,
                 bool sync_compat)
    : network_(network), from_(std::move(from)), to_(std::move(to)),
      service_(std::move(service)), options_(options),
      sync_compat_(sync_compat) {}

uint64_t Channel::Submit(const Frame& request, uint32_t attempt) {
  // Pipelined submissions own their logical span; synchronous callers are
  // wrapped by Network::Call's span instead, so the "net.call:" count
  // stays one per logical operation either way.
  std::optional<trace::ScopedSpan> span;
  if (!sync_compat_) {
    span.emplace(trace::SpanKind::kNet,
                 attempt == 0 ? "net.call:" : "net.retry:", service_);
    if (span->active()) {
      std::string detail = from_ + "->" + to_;
      if (attempt != 0) {
        detail += " attempt=" + std::to_string(attempt);
      }
      span->SetDetail(std::move(detail));
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  while (pending_.size() >= options_.max_inflight) {
    PumpOne(lock);
  }
  uint64_t tag = ++next_tag_;
  Pending pending;
  pending.request = request;
  pending.request.tag = tag;
  pending.attempt_hint = attempt;
  pending.trace_ctx = trace::CurrentContext();
  pending.cur_rto_ns = options_.rto_ns;
  pending_.emplace(tag, std::move(pending));
  ++stats_.submitted;
  TransmitLocked(tag);
  return tag;
}

Result<Completion> Channel::Wait(uint64_t tag) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = done_.find(tag);
    if (it != done_.end()) {
      return TakeCompletionLocked(it);
    }
    if (pending_.find(tag) == pending_.end()) {
      return ErrNotFound("channel has no submission tagged " +
                         std::to_string(tag));
    }
    if (events_.empty() && !pumping_) {
      return ErrIoError("channel stalled: tag " + std::to_string(tag) +
                        " pending with no scheduled events");
    }
    PumpOne(lock);
  }
}

Result<Completion> WaitAnyOf(std::span<Channel* const> channels,
                             size_t* index) {
  *index = 0;
  for (;;) {
    Channel* earliest = nullptr;  // holds the earliest scheduled event
    TimeNs earliest_at = 0;
    Channel* busy = nullptr;  // mid-event on another thread, nothing queued
    for (size_t i = 0; i < channels.size(); ++i) {
      Channel* channel = channels[i];
      std::lock_guard<std::mutex> lock(channel->mu_);
      if (!channel->done_order_.empty()) {
        *index = i;
        return channel->TakeCompletionLocked(
            channel->done_.find(channel->done_order_.front()));
      }
      if (channel->pending_.empty()) {
        continue;
      }
      if (!channel->events_.empty()) {
        TimeNs at = channel->events_.begin()->first.first;
        if (earliest == nullptr || at < earliest_at) {
          earliest = channel;
          earliest_at = at;
        }
      } else if (channel->pumping_) {
        busy = channel;
      } else {
        *index = i;
        return ErrIoError("channel stalled: submissions pending with no "
                          "scheduled events");
      }
    }
    Channel* pump = earliest != nullptr ? earliest : busy;
    if (pump == nullptr) {
      return ErrNotFound("no channel has anything in flight");
    }
    // Another thread may have advanced the channel since the scan; PumpOne
    // then takes whatever is earliest now, or waits for that thread.
    std::unique_lock<std::mutex> lock(pump->mu_);
    pump->PumpOne(lock);
  }
}

void FanOut::Submit(const sp<Channel>& channel, const Frame& request,
                    uint64_t owner, uint32_t attempt) {
  auto link = std::find_if(links_.begin(), links_.end(), [&](const Link& l) {
    return l.channel == channel;
  });
  if (link == links_.end()) {
    link = links_.insert(links_.end(), Link{channel, {}, {}});
  }
  link->queued.push_back(Queued{request, owner, attempt});
  SendQueued(*link);
}

void FanOut::SendQueued(Link& link) {
  while (!link.queued.empty() && !link.channel->full()) {
    Queued& next = link.queued.front();
    link.in_flight[link.channel->Submit(next.request, next.attempt)] =
        next.owner;
    link.queued.pop_front();
  }
}

std::optional<FanOut::Finished> FanOut::Next() {
  for (;;) {
    if (!failed_.empty()) {
      Finished finished = std::move(failed_.front());
      failed_.pop_front();
      return finished;
    }
    std::vector<Link*> waiting;  // links with requests outstanding
    std::vector<Channel*> channels;
    for (Link& link : links_) {
      SendQueued(link);
      // A link may hold only queued requests while completions it did
      // not send fill its window; waiting on it drains those.
      if (!link.in_flight.empty() || !link.queued.empty()) {
        waiting.push_back(&link);
        channels.push_back(link.channel.get());
      }
    }
    if (waiting.empty()) {
      return std::nullopt;
    }
    size_t which = 0;
    Result<Completion> done = WaitAnyOf(channels, &which);
    Link& link = *waiting[which];
    if (!done.ok()) {
      for (const auto& [tag, owner] : link.in_flight) {
        Finished failed{owner, Completion{}};
        failed.completion.tag = tag;
        failed.completion.status = done.status();
        failed_.push_back(std::move(failed));
      }
      for (const Queued& queued : link.queued) {
        Finished failed{queued.owner, Completion{}};
        failed.completion.status = done.status();
        failed_.push_back(std::move(failed));
      }
      link.in_flight.clear();
      link.queued.clear();
      continue;
    }
    auto it = link.in_flight.find(done->tag);
    if (it == link.in_flight.end()) {
      continue;  // not sent by this set
    }
    Finished finished{it->second, done.take_value()};
    link.in_flight.erase(it);
    return finished;
  }
}

size_t Channel::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

bool Channel::full() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size() >= options_.max_inflight;
}

Channel::Stats Channel::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Completion Channel::TakeCompletionLocked(
    std::map<uint64_t, Completion>::iterator it) {
  Completion done = std::move(it->second);
  done_.erase(it);
  done_order_.erase(
      std::find(done_order_.begin(), done_order_.end(), done.tag));
  return done;
}

void Channel::PumpOne(std::unique_lock<std::mutex>& lock) {
  if (pumping_ && pump_owner_ != std::this_thread::get_id()) {
    // Another thread is advancing the channel; wait for its event to land
    // and let the caller re-check its predicate.
    cv_.wait(lock);
    return;
  }
  if (events_.empty()) {
    return;
  }
  bool outermost = !pumping_;
  pumping_ = true;
  pump_owner_ = std::this_thread::get_id();
  auto first = events_.begin();
  TimeNs at = first->first.first;
  Event event = std::move(first->second);
  events_.erase(first);
  // Handlers must run outside mu_: a server handler may call back into
  // this very channel (coherency recalls do), which re-enters the pump
  // recursively on this thread.
  lock.unlock();
  TimeNs now = network_->clock_->Now();
  if (at > now) {
    network_->clock_->SleepNs(at - now);
  }
  ProcessEvent(std::move(event));
  lock.lock();
  if (outermost) {
    pumping_ = false;
  }
  cv_.notify_all();
}

void Channel::ProcessEvent(Event event) {
  switch (event.kind) {
    case Event::Kind::kArrive:
      ProcessArrive(event);
      return;
    case Event::Kind::kRespond:
      ProcessRespond(event);
      return;
    case Event::Kind::kRto: {
      std::unique_lock<std::mutex> lock(mu_);
      auto it = pending_.find(event.tag);
      if (it == pending_.end() || it->second.latest_xmit != event.xmit) {
        return;  // completed, or superseded by a newer transmission
      }
      if (it->second.retransmits >= options_.max_retransmits) {
        ++stats_.exhausted;
        flight::Record(flight::Severity::kError, "net",
                       "retransmits exhausted", event.tag,
                       it->second.retransmits);
        CompleteLocked(event.tag,
                       ErrTimedOut("retransmits exhausted '" + from_ +
                                   "' -> '" + to_ + "'"));
        return;
      }
      RetransmitLocked(event.tag, /*rack=*/false);
      return;
    }
    case Event::Kind::kFail: {
      std::unique_lock<std::mutex> lock(mu_);
      if (pending_.find(event.tag) != pending_.end()) {
        CompleteLocked(event.tag, std::move(event.fail));
      }
      return;
    }
  }
}

void Channel::ProcessArrive(Event& event) {
  sp<Node> dest;
  {
    std::lock_guard<std::mutex> net_lock(network_->mutex_);
    auto node_it = network_->nodes_.find(to_);
    if (node_it != network_->nodes_.end()) {
      dest = node_it->second;
    }
  }
  Node::Handler handler = std::move(event.handler);
  if (dest && !handler) {
    // Pipelined mode binds the service at arrival time: a server that
    // restarted (same node, re-registered service) catches frames that
    // were already in flight when it came back.
    std::lock_guard<std::mutex> node_lock(dest->mutex_);
    auto svc_it = dest->services_.find(service_);
    if (svc_it != dest->services_.end()) {
      handler = svc_it->second;
    }
  }
  if (!dest || !handler) {
    if (!event.dup) {
      std::unique_lock<std::mutex> lock(mu_);
      if (pending_.find(event.tag) != pending_.end()) {
        CompleteLocked(event.tag,
                       !dest ? ErrNotFound("no node '" + to_ + "'")
                             : ErrNotFound("node '" + to_ +
                                           "' has no service '" + service_ +
                                           "'"));
      }
    }
    return;
  }
  Result<Frame> delivered = Frame::Deserialize(event.wire.span());
  if (!delivered.ok()) {
    if (!event.dup) {
      std::unique_lock<std::mutex> lock(mu_);
      if (pending_.find(event.tag) != pending_.end()) {
        CompleteLocked(event.tag, delivered.status());
      }
    }
    return;
  }
  Frame response =
      dest->domain()->Run([&] { return handler(delivered.value()); });
  if (event.dup) {
    return;  // the duplicated copy's response is discarded
  }
  // Transport-level tag echo: the response pairs with its submission even
  // though handlers know nothing about channel tags.
  response.tag = delivered.value().tag;
  Buffer wire = response.Serialize();
  {
    std::lock_guard<std::mutex> net_lock(network_->mutex_);
    ++network_->stats_.messages;
    network_->stats_.bytes += wire.size();
    if (event.drop_response) {
      ++network_->stats_.dropped_responses;
    }
  }
  // The return hop departs after the handler finished, which may be later
  // than the arrival time if the handler itself made nested calls.
  TimeNs at = network_->clock_->Now() + network_->LatencyBetween(to_, from_);
  if (event.drop_response) {
    if (sync_compat_) {
      Event fail;
      fail.kind = Event::Kind::kFail;
      fail.tag = event.tag;
      fail.xmit = event.xmit;
      fail.fail = ErrTimedOut("chaos: response dropped '" + to_ + "' -> '" +
                              from_ + "'");
      std::unique_lock<std::mutex> lock(mu_);
      ScheduleLocked(at, std::move(fail));
    }
    // Pipelined: the response vanishes; RACK or the timer recovers.
    return;
  }
  Event respond;
  respond.kind = Event::Kind::kRespond;
  respond.tag = event.tag;
  respond.xmit = event.xmit;
  respond.wire = std::move(wire);
  std::unique_lock<std::mutex> lock(mu_);
  ScheduleLocked(at, std::move(respond));
}

void Channel::ProcessRespond(Event& event) {
  Result<Frame> response = Frame::Deserialize(event.wire.span());
  std::unique_lock<std::mutex> lock(mu_);
  if (pending_.find(event.tag) == pending_.end()) {
    // A slower copy of an already-completed submission (its twin arrived
    // first, or RACK retransmitted and the original survived after all).
    ++stats_.duplicate_responses;
    return;
  }
  CompleteLocked(event.tag, std::move(response));
  if (sync_compat_) {
    return;
  }
  // RACK loss declaration: this completion is evidence about every frame
  // sent before the completing transmission. Any of them outside the
  // reordering window is declared lost and goes back on the wire now —
  // no need to wait out its timer.
  TimeNs now = network_->clock_->Now();
  std::vector<uint64_t> lost;
  for (const auto& [tag, p] : pending_) {
    if (p.latest_xmit < event.xmit &&
        now >= p.last_send_ns + options_.rack_reorder_ns &&
        p.retransmits < options_.max_retransmits) {
      lost.push_back(tag);
    }
  }
  for (uint64_t tag : lost) {
    RetransmitLocked(tag, /*rack=*/true);
  }
}

void Channel::RetransmitLocked(uint64_t tag, bool rack) {
  Pending& p = pending_.at(tag);
  ++p.retransmits;
  if (rack) {
    p.rack_recovered = true;
    ++stats_.rack_retransmits;
  } else {
    ++stats_.rto_retransmits;
    p.cur_rto_ns = std::min(p.cur_rto_ns * 2, options_.rto_max_ns);
  }
  {
    std::lock_guard<std::mutex> net_lock(network_->mutex_);
    if (rack) {
      ++network_->stats_.rack_retransmits;
    } else {
      ++network_->stats_.rto_retransmits;
    }
  }
  // The wire copy is byte-identical; only the bookkeeping and the span
  // prefix say "retransmission".
  trace::ScopedSpan span(trace::SpanKind::kNet, "net.retry:", service_);
  if (span.active()) {
    span.SetDetail(from_ + "->" + to_ + (rack ? " rack" : " rto") +
                   " retransmit=" + std::to_string(p.retransmits));
  }
  flight::Record(flight::Severity::kInfo, "net",
                 rack ? "rack retransmit" : "rto retransmit", tag,
                 p.retransmits);
  TransmitLocked(tag);
}

TimeNs Channel::PaceLocked(TimeNs now) {
  if (options_.pace_gap_ns == 0) {
    return now;
  }
  // GCRA scheduler: `pace_tat_` is the theoretical arrival time of the
  // next conforming send; a burst allowance of (pace_burst - 1) gaps may
  // be borrowed against it.
  uint64_t gap = options_.pace_gap_ns;
  uint64_t burst = options_.pace_burst > 0 ? options_.pace_burst : 1;
  uint64_t allowance = (burst - 1) * gap;
  TimeNs earliest = pace_tat_ > allowance ? pace_tat_ - allowance : 0;
  TimeNs send = std::max(now, earliest);
  if (send > now) {
    ++stats_.paced_sends;
  }
  pace_tat_ = std::max(pace_tat_, send) + gap;
  return send;
}

void Channel::ScheduleLocked(TimeNs at, Event event) {
  events_.emplace(std::make_pair(at, ++next_event_seq_), std::move(event));
}

void Channel::CompleteLocked(uint64_t tag, Result<Frame> response) {
  auto it = pending_.find(tag);
  if (it == pending_.end()) {
    return;
  }
  Completion done;
  done.tag = tag;
  done.retransmits = it->second.retransmits;
  done.rack_recovered = it->second.rack_recovered;
  done.first_send_ns = it->second.first_send_ns;
  done.last_send_ns = it->second.last_send_ns;
  if (response.ok()) {
    done.response = response.take_value();
  } else {
    done.status = response.status();
  }
  pending_.erase(it);
  // Drop the tag's now-dead retransmission timers so an idle timer cannot
  // drag the virtual clock forward while later submissions pump. Wire
  // events (arrivals of slow copies) stay: those frames really are still
  // in flight, and the server sees them — that is what the dedup window
  // is for.
  for (auto ev = events_.begin(); ev != events_.end();) {
    if (ev->second.kind == Event::Kind::kRto && ev->second.tag == tag) {
      ev = events_.erase(ev);
    } else {
      ++ev;
    }
  }
  ++stats_.completed;
  done_.emplace(tag, std::move(done));
  done_order_.push_back(tag);
  cv_.notify_all();
}

void Channel::TransmitLocked(uint64_t tag) {
  Pending& p = pending_.at(tag);
  p.latest_xmit = ++next_xmit_;
  TimeNs now = network_->clock_->Now();
  TimeNs send = PaceLocked(now);
  if (p.first_send_ns == 0) {
    p.first_send_ns = send;
  }
  p.last_send_ns = send;

  Network::FaultDecision faults;
  sp<Node> dest;
  {
    std::lock_guard<std::mutex> net_lock(network_->mutex_);
    Network::FailBudget* budget = nullptr;
    auto link_it = network_->link_fail_.find({from_, to_});
    if (link_it != network_->link_fail_.end() && link_it->second.calls > 0) {
      budget = &link_it->second;
    } else if (network_->global_fail_.calls > 0) {
      budget = &network_->global_fail_;
    }
    if (budget != nullptr) {
      --budget->calls;
      ++network_->stats_.injected_failures;
      trace::AnnotateCurrent("fault:injected_failure");
      flight::Record(flight::Severity::kWarn, "net", "injected failure",
                     static_cast<uint64_t>(budget->code), p.attempt_hint);
      CompleteLocked(tag, Status(budget->code, "injected transient fault '" +
                                                   from_ + "' -> '" + to_ +
                                                   "'"));
      return;
    }
    auto part_from = network_->partitioned_.find(from_);
    auto part_to = network_->partitioned_.find(to_);
    if ((part_from != network_->partitioned_.end() && part_from->second) ||
        (part_to != network_->partitioned_.end() && part_to->second)) {
      CompleteLocked(tag, ErrConnectionLost("'" + from_ + "' -> '" + to_ +
                                            "' partitioned"));
      return;
    }
    auto node_it = network_->nodes_.find(to_);
    if (node_it == network_->nodes_.end()) {
      CompleteLocked(tag, ErrNotFound("no node '" + to_ + "'"));
      return;
    }
    dest = node_it->second;
    if (network_->faults_armed_.load(std::memory_order_relaxed)) {
      faults = network_->DecideFaults(from_, to_);
    }
    auto drop_resp = network_->drop_responses_.find({from_, to_});
    if (drop_resp != network_->drop_responses_.end() &&
        drop_resp->second > 0) {
      --drop_resp->second;
      faults.drop_response = true;
    }
    auto drop_req = network_->drop_requests_.find({from_, to_});
    if (drop_req != network_->drop_requests_.end() && drop_req->second > 0) {
      --drop_req->second;
      faults.drop_request = true;
      faults.dup_request = false;
    }
    auto delay = network_->delay_requests_.find({from_, to_});
    if (delay != network_->delay_requests_.end() && delay->second.n > 0) {
      --delay->second.n;
      faults.extra_delay_ns += delay->second.delay_ns;
    }
  }
  Node::Handler handler;
  if (sync_compat_) {
    // Legacy semantics: the handler binds at call time, so a service
    // registered later does not catch an already-launched frame.
    std::lock_guard<std::mutex> node_lock(dest->mutex_);
    auto svc_it = dest->services_.find(service_);
    if (svc_it == dest->services_.end()) {
      CompleteLocked(tag, ErrNotFound("node '" + to_ + "' has no service '" +
                                      service_ + "'"));
      return;
    }
    handler = svc_it->second;
  }
  // The FaultPlan's verdict is part of the causal story: surface it on the
  // current span and in the flight recorder instead of leaving it a side
  // effect.
  if (faults.drop_request || faults.drop_response || faults.dup_request ||
      faults.extra_delay_ns != 0) {
    if (trace::Active()) {
      std::string note = "fault:";
      if (faults.drop_request) note += " drop_request";
      if (faults.drop_response) note += " drop_response";
      if (faults.dup_request) note += " dup_request";
      if (faults.extra_delay_ns != 0) {
        note += " delay=" + std::to_string(faults.extra_delay_ns) + "ns";
      }
      trace::AnnotateCurrent(std::move(note));
    }
    flight::Record(flight::Severity::kWarn, "net",
                   faults.drop_request    ? "fault: drop_request"
                   : faults.drop_response ? "fault: drop_response"
                   : faults.dup_request   ? "fault: dup_request"
                                          : "fault: delay",
                   faults.extra_delay_ns, p.attempt_hint);
  }

  // Every transmitted copy carries identical bytes: same request id, same
  // tag, same trace context as the submission.
  Buffer wire = p.request.Serialize();
  if (p.trace_ctx.active()) {
    StampTraceContext(wire, p.trace_ctx);
  }
  {
    std::lock_guard<std::mutex> net_lock(network_->mutex_);
    ++network_->stats_.calls;
    ++network_->stats_.calls_by_type[p.request.type];
    ++network_->stats_.messages;
    network_->stats_.bytes += wire.size();
    if (faults.extra_delay_ns != 0) {
      ++network_->stats_.delayed_messages;
    }
    if (faults.drop_request) {
      ++network_->stats_.dropped_requests;
    }
    if (faults.dup_request) {
      ++network_->stats_.duplicated_requests;
    }
  }
  TimeNs arrive_at =
      send + network_->LatencyBetween(from_, to_) + faults.extra_delay_ns;
  if (faults.drop_request) {
    if (sync_compat_) {
      // Legacy callers learn of the loss at exactly the old time: one
      // forward hop (plus any delay) after the send.
      Event fail;
      fail.kind = Event::Kind::kFail;
      fail.tag = tag;
      fail.xmit = p.latest_xmit;
      fail.fail = ErrTimedOut("chaos: request dropped '" + from_ + "' -> '" +
                              to_ + "'");
      ScheduleLocked(arrive_at, std::move(fail));
    }
    // Pipelined: the frame is simply gone; RACK or the timer recovers it.
  } else {
    Event arrive;
    arrive.kind = Event::Kind::kArrive;
    arrive.tag = tag;
    arrive.xmit = p.latest_xmit;
    arrive.drop_response = faults.drop_response;
    arrive.handler = handler;
    if (faults.dup_request) {
      Event dup;
      dup.kind = Event::Kind::kArrive;
      dup.tag = tag;
      dup.xmit = p.latest_xmit;
      dup.dup = true;
      dup.wire = Buffer(wire.span());
      dup.handler = std::move(handler);
      arrive.wire = std::move(wire);
      ScheduleLocked(arrive_at, std::move(arrive));
      ScheduleLocked(arrive_at, std::move(dup));
    } else {
      arrive.wire = std::move(wire);
      ScheduleLocked(arrive_at, std::move(arrive));
    }
  }
  if (!sync_compat_) {
    Event rto;
    rto.kind = Event::Kind::kRto;
    rto.tag = tag;
    rto.xmit = p.latest_xmit;
    ScheduleLocked(send + p.cur_rto_ns, std::move(rto));
  }
}

}  // namespace springfs::net
