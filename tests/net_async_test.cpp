// Deterministic unit tests for the async channel (DESIGN.md §12): tag
// allocation and pairing, completion ordering under reordering, pacing
// bounds, RACK-style early loss declaration, the capped RTO fallback, the
// delivered-frame rule that keeps both off a frame whose handler is
// running, full-window behaviour, and waiting on several channels in
// event-time order (WaitAnyOf, FanOut). Everything runs on a FakeClock —
// the channel's event pump advances virtual time itself, so there are no
// sleeps and no timing flakes.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/net/network.h"

namespace springfs {
namespace {

// A frame carrying one number in its payload.
net::Frame NumberFrame(uint64_t n) {
  net::Frame frame;
  frame.payload = Buffer(std::to_string(n));
  return frame;
}

uint64_t NumberOf(const net::Frame& frame) {
  return std::stoull(frame.payload.ToString());
}

// Fabric with two nodes and an echo service that returns its number + 1.
class NetAsyncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::Network>(&clock_, /*latency=*/1000);
    a_ = network_->AddNode("a");
    b_ = network_->AddNode("b");
    b_->RegisterService("echo", [this](const net::Frame& request) {
      ++handler_runs_;
      return NumberFrame(NumberOf(request) + 1);
    });
  }

  uint64_t Submit(const sp<net::Channel>& channel, uint64_t n) {
    return channel->Submit(NumberFrame(n));
  }

  // The earliest unclaimed completion on one channel.
  static Result<net::Completion> WaitAny(const sp<net::Channel>& channel) {
    net::Channel* one[] = {channel.get()};
    size_t index = 0;
    return net::WaitAnyOf(one, &index);
  }

  FakeClock clock_;
  std::unique_ptr<net::Network> network_;
  sp<net::Node> a_, b_;
  int handler_runs_ = 0;
};

TEST_F(NetAsyncTest, TagsAreUniqueAndTrackOutstanding) {
  net::ChannelOptions options;
  options.max_inflight = 8;
  sp<net::Channel> channel = network_->OpenChannel("a", "b", "echo", options);
  uint64_t t1 = Submit(channel, 10);
  uint64_t t2 = Submit(channel, 20);
  uint64_t t3 = Submit(channel, 30);
  EXPECT_NE(t1, t2);
  EXPECT_NE(t2, t3);
  EXPECT_EQ(channel->in_flight(), 3u);
  // Responses pair with their submission by tag, not completion order.
  Result<net::Completion> c2 = channel->Wait(t2);
  ASSERT_TRUE(c2.ok());
  ASSERT_TRUE(c2->status.ok());
  EXPECT_EQ(c2->tag, t2);
  EXPECT_EQ(NumberOf(c2->response), 21u);
  Result<net::Completion> c1 = channel->Wait(t1);
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(NumberOf(c1->response), 11u);
  Result<net::Completion> c3 = channel->Wait(t3);
  ASSERT_TRUE(c3.ok());
  EXPECT_EQ(NumberOf(c3->response), 31u);
  EXPECT_EQ(channel->in_flight(), 0u);
  EXPECT_EQ(channel->stats().submitted, 3u);
  EXPECT_EQ(channel->stats().completed, 3u);
  // A tag that was never submitted (or already claimed) is an error.
  EXPECT_EQ(channel->Wait(t1).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(WaitAny(channel).status().code(), ErrorCode::kNotFound);
}

TEST_F(NetAsyncTest, PipelinedRoundTripsOverlap) {
  // N outstanding requests cost one round trip of virtual time, not N.
  net::ChannelOptions options;
  options.max_inflight = 16;
  sp<net::Channel> channel = network_->OpenChannel("a", "b", "echo", options);
  TimeNs before = clock_.Now();
  std::vector<uint64_t> tags;
  for (uint64_t i = 0; i < 16; ++i) {
    tags.push_back(Submit(channel, i));
  }
  for (uint64_t tag : tags) {
    Result<net::Completion> done = channel->Wait(tag);
    ASSERT_TRUE(done.ok());
    ASSERT_TRUE(done->status.ok());
  }
  // All 16 submitted at the same instant: every arrival lands at +1000,
  // every response at +2000. A synchronous loop would burn 32000.
  EXPECT_EQ(clock_.Now() - before, 2000u);
}

TEST_F(NetAsyncTest, CompletionsReorderUnderDelay) {
  net::ChannelOptions options;
  options.max_inflight = 4;
  options.rto_ns = 10'000'000;  // far beyond the injected delay
  sp<net::Channel> channel = network_->OpenChannel("a", "b", "echo", options);
  // First frame limps, second overtakes it.
  network_->DelayNextRequests("a", "b", 1, /*delay_ns=*/100'000);
  uint64_t slow = Submit(channel, 1);
  uint64_t fast = Submit(channel, 2);
  Result<net::Completion> first = WaitAny(channel);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->tag, fast);
  EXPECT_EQ(NumberOf(first->response), 3u);
  Result<net::Completion> second = WaitAny(channel);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->tag, slow);
  EXPECT_EQ(NumberOf(second->response), 2u);
  // Reordering alone must not trigger loss recovery: the fast completion
  // arrived inside the (default, 100µs) reordering window.
  EXPECT_EQ(channel->stats().rack_retransmits, 0u);
  EXPECT_EQ(channel->stats().rto_retransmits, 0u);
  EXPECT_EQ(handler_runs_, 2);
}

TEST_F(NetAsyncTest, PacerSpacesBurstsAndAccountsPacedSends) {
  net::ChannelOptions options;
  options.max_inflight = 8;
  options.pace_gap_ns = 10'000;
  options.pace_burst = 2;
  sp<net::Channel> channel = network_->OpenChannel("a", "b", "echo", options);
  std::vector<uint64_t> tags;
  for (uint64_t i = 0; i < 6; ++i) {
    tags.push_back(Submit(channel, i));
  }
  // GCRA with burst 2: the first two sends go back to back at T, then one
  // every gap: T, T, T+10k, T+20k, T+30k, T+40k.
  std::vector<TimeNs> sends;
  for (uint64_t tag : tags) {
    Result<net::Completion> done = channel->Wait(tag);
    ASSERT_TRUE(done.ok());
    ASSERT_TRUE(done->status.ok());
    sends.push_back(done->last_send_ns);
  }
  EXPECT_EQ(sends[0], sends[1]);
  for (size_t i = 2; i < sends.size(); ++i) {
    EXPECT_EQ(sends[i], sends[1] + (i - 1) * 10'000) << "send " << i;
  }
  EXPECT_EQ(channel->stats().paced_sends, 4u);
}

TEST_F(NetAsyncTest, RackDeclaresLossWhenLaterSendCompletes) {
  net::ChannelOptions options;
  options.max_inflight = 4;
  options.rack_reorder_ns = 1000;
  options.rto_ns = 50'000'000;  // the timer must not be what recovers this
  sp<net::Channel> channel = network_->OpenChannel("a", "b", "echo", options);
  network_->DropNextRequests("a", "b", 1);
  TimeNs before = clock_.Now();
  uint64_t lost = Submit(channel, 1);
  uint64_t witness = Submit(channel, 2);
  Result<net::Completion> w = channel->Wait(witness);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(clock_.Now() - before, 2000u);
  // The witness's completion testified against the dropped frame: it was
  // retransmitted immediately, not at the 50ms timer.
  Result<net::Completion> recovered = channel->Wait(lost);
  ASSERT_TRUE(recovered.ok());
  ASSERT_TRUE(recovered->status.ok());
  EXPECT_EQ(NumberOf(recovered->response), 2u);
  EXPECT_TRUE(recovered->rack_recovered);
  EXPECT_EQ(recovered->retransmits, 1u);
  EXPECT_EQ(recovered->last_send_ns, before + 2000);
  EXPECT_EQ(clock_.Now() - before, 4000u);  // retransmit RTT, not 50ms
  EXPECT_EQ(channel->stats().rack_retransmits, 1u);
  EXPECT_EQ(channel->stats().rto_retransmits, 0u);
}

TEST_F(NetAsyncTest, RtoBackoffDoublesAndRecoversSolitaryLoss) {
  // A solitary frame has no later completion to testify for it — only the
  // timer can recover it, doubling on each unanswered copy.
  net::ChannelOptions options;
  options.max_inflight = 4;
  options.rto_ns = 10'000;
  options.max_retransmits = 4;
  sp<net::Channel> channel = network_->OpenChannel("a", "b", "echo", options);
  network_->DropNextRequests("a", "b", 2);
  TimeNs before = clock_.Now();
  uint64_t tag = Submit(channel, 7);
  Result<net::Completion> done = channel->Wait(tag);
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(done->status.ok());
  EXPECT_EQ(NumberOf(done->response), 8u);
  EXPECT_EQ(done->retransmits, 2u);
  EXPECT_FALSE(done->rack_recovered);
  // Copies at T (dropped), T+10k (dropped), T+30k (10k + doubled 20k);
  // the survivor's round trip completes at T+32k.
  EXPECT_EQ(done->last_send_ns, before + 30'000);
  EXPECT_EQ(clock_.Now() - before, 32'000u);
  EXPECT_EQ(channel->stats().rto_retransmits, 2u);
}

TEST_F(NetAsyncTest, ExhaustedRetransmitsCompleteWithTimeout) {
  net::ChannelOptions options;
  options.max_inflight = 4;
  options.rto_ns = 10'000;
  options.max_retransmits = 1;
  sp<net::Channel> channel = network_->OpenChannel("a", "b", "echo", options);
  network_->DropNextRequests("a", "b", 10);
  uint64_t tag = Submit(channel, 1);
  Result<net::Completion> done = channel->Wait(tag);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->status.code(), ErrorCode::kTimedOut);
  EXPECT_EQ(done->retransmits, 1u);
  EXPECT_EQ(channel->stats().exhausted, 1u);
  network_->DropNextRequests("a", "b", 0);  // disarm the leftover budget
}

// --- the delivered-frame rule: a frame that reached its handler, and whose
// response was not dropped, is never declared lost by RTO or RACK ---

TEST_F(NetAsyncTest, HandlerPastRtoCompletesAfterOneTransmission) {
  // A handler may legitimately run past the timer (a recall callback, the
  // metadata server's lookup ladder). Its frame was delivered and the
  // response is on the way: the timer must neither retransmit it nor time
  // it out, so the handler runs once.
  net::ChannelOptions options;
  options.rto_ns = 10'000;
  int runs = 0;
  b_->RegisterService("slow", [&](const net::Frame&) {
    ++runs;
    clock_.Advance(5 * options.rto_ns);
    return net::Frame{};
  });
  sp<net::Channel> channel = network_->OpenChannel("a", "b", "slow", options);
  TimeNs before = clock_.Now();
  Result<net::Completion> done = channel->Wait(channel->Submit(net::Frame{}));
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(done->status.ok()) << done->status.ToString();
  EXPECT_EQ(done->retransmits, 0u);
  EXPECT_EQ(clock_.Now() - before, 1000u + 50'000u + 1000u);
  EXPECT_EQ(runs, 1);
  // A later round trip pumps whatever the first left on the wire: no
  // second copy of it may reach the handler.
  ASSERT_TRUE(channel->Wait(channel->Submit(net::Frame{})).ok());
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(channel->stats().rto_retransmits, 0u);
  EXPECT_EQ(channel->stats().rack_retransmits, 0u);
}

TEST_F(NetAsyncTest, DroppedResponseIsStillRecoveredByRto) {
  // The rule covers delivered frames whose response comes back. A dropped
  // response is a loss like any other: the timer resends the same bytes
  // and the server's dedup window replays the original response.
  net::ChannelOptions options;
  options.rto_ns = 10'000;
  std::map<uint64_t, net::Frame> window;  // request id -> first response
  int executions = 0;
  int replays = 0;
  b_->RegisterService("once", [&](const net::Frame& request) {
    auto it = window.find(request.request_id);
    if (it != window.end()) {
      ++replays;
      return it->second;
    }
    ++executions;
    clock_.Advance(2 * options.rto_ns);  // slow, and still recovered
    net::Frame response = NumberFrame(41);
    window[request.request_id] = response;
    return response;
  });
  sp<net::Channel> channel = network_->OpenChannel("a", "b", "once", options);
  network_->DropNextResponses("a", "b", 1);
  net::Frame request;
  request.request_id = 7;
  Result<net::Completion> done = channel->Wait(channel->Submit(request));
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(done->status.ok()) << done->status.ToString();
  EXPECT_EQ(NumberOf(done->response), 41u);
  EXPECT_EQ(done->retransmits, 1u);
  EXPECT_EQ(channel->stats().rto_retransmits, 1u);
  EXPECT_EQ(executions, 1);
  EXPECT_EQ(replays, 1);
}

TEST_F(NetAsyncTest, NestedCallOnTheCallersChannelDoesNotRackTheOuterFrame) {
  // The outer frame's handler makes a call over the caller's own channel,
  // as a recall's page-out rides the recalled client's mount channel. The
  // nested completion is a later send completing while the outer frame is
  // pending, but the outer frame was delivered, so RACK must leave it be.
  // With a window of one the outer frame fills it, and the nested call
  // must go out anyway: the outer frame cannot complete before it does.
  for (size_t window : {size_t{1}, size_t{16}}) {
    SCOPED_TRACE("max_inflight=" + std::to_string(window));
    net::ChannelOptions options;
    options.max_inflight = window;
    options.rack_reorder_ns = 1000;
    sp<net::Channel> channel;
    int outer_runs = 0;
    int inner_runs = 0;
    b_->RegisterService("nest", [&](const net::Frame& request) {
      if (NumberOf(request) == 0) {
        ++inner_runs;
        return NumberFrame(0);
      }
      ++outer_runs;
      Result<net::Completion> inner =
          channel->Wait(channel->Submit(NumberFrame(0)));
      return NumberFrame(inner.ok() && inner->status.ok() ? 2 : 1);
    });
    channel = network_->OpenChannel("a", "b", "nest", options);
    TimeNs before = clock_.Now();
    Result<net::Completion> outer =
        channel->Wait(channel->Submit(NumberFrame(1)));
    ASSERT_TRUE(outer.ok());
    ASSERT_TRUE(outer->status.ok()) << outer->status.ToString();
    EXPECT_EQ(NumberOf(outer->response), 2u);
    EXPECT_EQ(outer->retransmits, 0u);
    EXPECT_EQ(clock_.Now() - before, 4000u);  // two nested round trips
    EXPECT_EQ(outer_runs, 1);
    EXPECT_EQ(inner_runs, 1);
    EXPECT_EQ(channel->stats().rack_retransmits, 0u);
    // The window holds again once the nested call is done.
    EXPECT_EQ(channel->in_flight(), 0u);
  }
}

TEST_F(NetAsyncTest, WindowBlocksSubmitUntilCompletionsDrain) {
  net::ChannelOptions options;
  options.max_inflight = 2;
  sp<net::Channel> channel = network_->OpenChannel("a", "b", "echo", options);
  std::vector<uint64_t> tags;
  for (uint64_t i = 0; i < 5; ++i) {
    tags.push_back(Submit(channel, i));
    EXPECT_LE(channel->in_flight(), 2u);
  }
  // The third submit had to pump at least one completion to make room.
  EXPECT_GE(channel->stats().completed, 3u);
  for (uint64_t tag : tags) {
    Result<net::Completion> done = channel->Wait(tag);
    ASSERT_TRUE(done.ok());
    ASSERT_TRUE(done->status.ok());
  }
  EXPECT_EQ(channel->stats().completed, 5u);
}

TEST_F(NetAsyncTest, SeededFaultSweepCompletesEveryTagExactlyOnce) {
  // Loss, duplication, and reordering all at once, from seeded streams:
  // every submission must complete exactly once with its own response.
  for (uint64_t seed : {11u, 29u, 47u, 101u}) {
    net::FaultPlan plan;
    plan.seed = seed;
    plan.drop_request_pct = 20;
    plan.drop_response_pct = 10;
    plan.dup_request_pct = 15;
    plan.delay_pct = 25;
    plan.delay_ns = 5'000;
    network_->ArmFaultsOnLink("a", "b", plan);
    net::ChannelOptions options;
    options.max_inflight = 8;
    options.rack_reorder_ns = 2'000;
    options.rto_ns = 20'000;
    options.max_retransmits = 10;
    sp<net::Channel> channel =
        network_->OpenChannel("a", "b", "echo", options);
    std::map<uint64_t, uint64_t> want;  // tag -> expected number
    for (uint64_t i = 0; i < 40; ++i) {
      want[Submit(channel, seed * 1000 + i)] = seed * 1000 + i + 1;
    }
    size_t completions = 0;
    while (!want.empty()) {
      Result<net::Completion> done = WaitAny(channel);
      ASSERT_TRUE(done.ok()) << "seed " << seed;
      ASSERT_TRUE(done->status.ok())
          << "seed " << seed << ": " << done->status.ToString();
      auto it = want.find(done->tag);
      ASSERT_NE(it, want.end()) << "seed " << seed << " duplicate completion";
      EXPECT_EQ(NumberOf(done->response), it->second) << "seed " << seed;
      want.erase(it);
      ++completions;
    }
    EXPECT_EQ(completions, 40u);
    net::Channel::Stats stats = channel->stats();
    EXPECT_EQ(stats.submitted, 40u);
    EXPECT_EQ(stats.completed, 40u);
    EXPECT_EQ(stats.exhausted, 0u) << "seed " << seed;
    network_->DisarmFaults();
  }
}

TEST_F(NetAsyncTest, WaitAnyOfRunsChannelsInEventTimeOrder) {
  // A far server (3000 one way) and a near one (the fixture's 1000). Each
  // handler must run when its frame arrives and each request complete one
  // round trip after it was sent, whichever channel was submitted first:
  // the near server must not wait behind the far one.
  sp<net::Node> c = network_->AddNode("c");
  network_->SetLatency("a", "c", 3000);
  network_->SetLatency("c", "a", 3000);
  std::map<std::string, std::vector<TimeNs>> handled;  // node -> run times
  auto stamp = [&](std::string name) {
    return [&handled, name, this](const net::Frame&) {
      handled[name].push_back(clock_.Now());
      return net::Frame{};
    };
  };
  b_->RegisterService("stamp", stamp("b"));
  c->RegisterService("stamp", stamp("c"));
  sp<net::Channel> far = network_->OpenChannel("a", "c", "stamp");
  sp<net::Channel> near = network_->OpenChannel("a", "b", "stamp");
  TimeNs before = clock_.Now();
  uint64_t far_tag = far->Submit(net::Frame{});
  uint64_t near_tags[2] = {near->Submit(net::Frame{}),
                           near->Submit(net::Frame{})};
  net::Channel* both[] = {far.get(), near.get()};
  for (uint64_t tag : near_tags) {
    size_t index = 9;
    Result<net::Completion> done = net::WaitAnyOf(both, &index);
    ASSERT_TRUE(done.ok());
    ASSERT_TRUE(done->status.ok());
    EXPECT_EQ(index, 1u);
    EXPECT_EQ(done->tag, tag);
    EXPECT_EQ(clock_.Now() - before, 2000u);
  }
  size_t index = 9;
  Result<net::Completion> done = net::WaitAnyOf(both, &index);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(done->tag, far_tag);
  // The whole exchange costs the far round trip alone.
  EXPECT_EQ(clock_.Now() - before, 6000u);
  EXPECT_EQ(handled["b"], (std::vector<TimeNs>{before + 1000, before + 1000}));
  EXPECT_EQ(handled["c"], std::vector<TimeNs>{before + 3000});
  EXPECT_EQ(net::WaitAnyOf(both, &index).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(NetAsyncTest, WaitAnyOfTakesReadyCompletionsFirst) {
  // A transmission that fails at submit completes at once; it is returned
  // before the clock moves, even though the other channel was submitted
  // to first and sits earlier in the set.
  sp<net::Node> c = network_->AddNode("c");
  sp<net::Channel> to_b = network_->OpenChannel("a", "b", "echo");
  sp<net::Channel> to_c = network_->OpenChannel("a", "c", "echo");
  uint64_t pending = Submit(to_b, 1);
  network_->FailNextCallsOnLink("a", "c", 1, ErrorCode::kConnectionLost);
  uint64_t failed = Submit(to_c, 2);
  TimeNs before = clock_.Now();
  net::Channel* both[] = {to_b.get(), to_c.get()};
  size_t index = 9;
  Result<net::Completion> first = net::WaitAnyOf(both, &index);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(index, 1u);
  EXPECT_EQ(first->tag, failed);
  EXPECT_EQ(first->status.code(), ErrorCode::kConnectionLost);
  EXPECT_EQ(clock_.Now(), before);
  Result<net::Completion> second = net::WaitAnyOf(both, &index);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(second->tag, pending);
  EXPECT_EQ(NumberOf(second->response), 2u);
}

TEST_F(NetAsyncTest, FanOutQueuesPastFullWindowsAndRoutesOwners) {
  // One-frame windows, two requests per server: each server's second
  // request waits in the set's queue, not in a blocked Submit, and goes
  // out as the first one completes. Both servers run their two waves side
  // by side, two round trips in all, and every completion comes back with
  // the owner it was sent for.
  sp<net::Node> c = network_->AddNode("c");
  c->RegisterService("echo", [](const net::Frame& request) {
    return NumberFrame(NumberOf(request) + 1);
  });
  net::ChannelOptions options;
  options.max_inflight = 1;
  sp<net::Channel> to_b = network_->OpenChannel("a", "b", "echo", options);
  sp<net::Channel> to_c = network_->OpenChannel("a", "c", "echo", options);
  net::FanOut fan;
  TimeNs before = clock_.Now();
  for (uint64_t owner = 0; owner < 4; ++owner) {
    fan.Submit(owner % 2 == 0 ? to_b : to_c, NumberFrame(100 + owner),
               owner);
  }
  EXPECT_EQ(clock_.Now(), before);
  EXPECT_TRUE(to_b->full());
  EXPECT_TRUE(to_c->full());
  std::vector<uint64_t> owners;
  while (std::optional<net::FanOut::Finished> done = fan.Next()) {
    ASSERT_TRUE(done->completion.status.ok());
    EXPECT_EQ(NumberOf(done->completion.response), 101 + done->owner);
    owners.push_back(done->owner);
  }
  EXPECT_EQ(owners, (std::vector<uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(clock_.Now() - before, 4000u);
}

TEST_F(NetAsyncTest, FanOutFinishesRequestsOfAChannelThatGivesUp) {
  // Owner 7's completion is taken behind the set's back, which opens the
  // window for queued owner 8. Once 8 is back, WaitAnyOf has nothing left
  // to wait for on the channel, so the set finishes 7 with that error
  // instead of waiting for it forever.
  net::ChannelOptions options;
  options.max_inflight = 1;
  sp<net::Channel> channel = network_->OpenChannel("a", "b", "echo", options);
  net::FanOut fan;
  fan.Submit(channel, NumberFrame(7), 7);
  fan.Submit(channel, NumberFrame(8), 8);
  ASSERT_TRUE(WaitAny(channel).ok());
  std::optional<net::FanOut::Finished> done = fan.Next();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->owner, 8u);
  EXPECT_TRUE(done->completion.status.ok());
  done = fan.Next();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->owner, 7u);
  EXPECT_EQ(done->completion.status.code(), ErrorCode::kNotFound);
  EXPECT_FALSE(fan.Next().has_value());
}

// Network::CallAll sends every call at once, each on its own single-use
// channel: three calls to three nodes complete in one round trip, and a
// dropped response times out only its own call, at rto_ns, never resent.
TEST_F(NetAsyncTest, CallAllCompletesARoundInOneRoundTrip) {
  std::vector<net::CallTo> calls;
  for (const char* name : {"b", "c", "d"}) {
    if (std::string(name) != "b") {
      network_->AddNode(name)->RegisterService(
          "echo", [this](const net::Frame& request) {
            ++handler_runs_;
            return NumberFrame(NumberOf(request) + 1);
          });
    }
    calls.push_back({name, "echo", NumberFrame(10)});
  }
  TimeNs start = clock_.Now();
  std::vector<Result<net::Frame>> answers = network_->CallAll("a", calls);
  EXPECT_EQ(clock_.Now() - start, 2'000u) << "one round trip of 1 us links";
  ASSERT_EQ(answers.size(), 3u);
  for (const Result<net::Frame>& answer : answers) {
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(NumberOf(*answer), 11u);
  }
  EXPECT_EQ(handler_runs_, 3);

  network_->DropNextResponses("a", "c", 1);
  start = clock_.Now();
  answers = network_->CallAll("a", calls);
  EXPECT_EQ(clock_.Now() - start, net::ChannelOptions{}.rto_ns);
  EXPECT_TRUE(answers[0].ok());
  EXPECT_EQ(answers[1].status().code(), ErrorCode::kTimedOut);
  EXPECT_TRUE(answers[2].ok());
  EXPECT_EQ(handler_runs_, 6) << "the lost call's handler ran once";
  EXPECT_EQ(metrics::StatValue(*network_, "calls"), 6u) << "nothing resent";
  EXPECT_EQ(metrics::StatValue(*network_, "rto_retransmits"), 0u);
}

TEST_F(NetAsyncTest, RetransmittedCopiesAreByteIdentical) {
  // The retransmission must reuse the tag (and request id): that is what
  // lets a server-side dedup window absorb reordered duplicates.
  std::vector<uint64_t> seen_tags;
  std::vector<uint64_t> seen_request_ids;
  b_->RegisterService("capture", [&](const net::Frame& request) {
    seen_tags.push_back(request.tag);
    seen_request_ids.push_back(request.request_id);
    return net::Frame{};
  });
  net::ChannelOptions options;
  options.max_inflight = 2;
  options.rto_ns = 10'000;
  sp<net::Channel> channel = network_->OpenChannel("a", "b", "capture",
                                                   options);
  // Drop the response (not the request): the handler sees the original AND
  // the timer-driven copy.
  network_->DropNextResponses("a", "b", 1);
  net::Frame request;
  request.request_id = 424242;
  uint64_t tag = channel->Submit(request);
  Result<net::Completion> done = channel->Wait(tag);
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(done->status.ok());
  ASSERT_EQ(seen_tags.size(), 2u);
  EXPECT_EQ(seen_tags[0], seen_tags[1]);
  EXPECT_EQ(seen_request_ids[0], 424242u);
  EXPECT_EQ(seen_request_ids[1], 424242u);
}

}  // namespace
}  // namespace springfs
