// Tests for the network fabric, the DFS server/client (Figures 7 and 9),
// and CFS attribute caching: remote access, local-bind forwarding, cross-
// node coherency, callbacks, partitions, and the full DFS/COMPFS/SFS stack.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/layers/cfs/cfs_layer.h"
#include "src/layers/compfs/comp_layer.h"
#include "src/layers/dfs/dfs_client.h"
#include "src/layers/dfs/dfs_server.h"
#include "src/layers/sfs/sfs.h"
#include "src/support/rng.h"

namespace springfs {
namespace {

using dfs::DfsClient;
using dfs::DfsServer;

// --- net fabric basics ---

TEST(NetworkTest, FrameRoundTrip) {
  net::Frame frame;
  frame.type = 7;
  frame.status = -5;
  frame.request_id = 11;
  frame.epoch = 12;
  frame.tag = 13;
  frame.payload = Buffer(std::string("payload"));
  Buffer wire = frame.Serialize();
  Result<net::Frame> back = net::Frame::Deserialize(wire.span());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->type, 7u);
  EXPECT_EQ(back->status, -5);
  EXPECT_EQ(back->request_id, 11u);
  EXPECT_EQ(back->epoch, 12u);
  EXPECT_EQ(back->tag, 13u);
  EXPECT_EQ(back->payload.ToString(), "payload");
}

TEST(NetworkTest, HeaderIs56BytesAndTraceStampRoundTrips) {
  net::Frame frame;
  frame.type = 3;
  frame.request_id = 99;
  frame.tag = 5;
  frame.payload = Buffer(std::string("body"));
  Buffer wire = frame.Serialize();
  EXPECT_EQ(wire.size(), 56u + frame.payload.size());
  EXPECT_EQ(net::Frame{}.Serialize().size(), 56u);
  // Stamping patches the trace words in place and touches nothing else.
  net::StampTraceContext(wire, trace::TraceContext{0x1234, 0x5678});
  Result<net::Frame> back = net::Frame::Deserialize(wire.span());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->trace_id, 0x1234u);
  EXPECT_EQ(back->parent_span_id, 0x5678u);
  EXPECT_EQ(back->type, 3u);
  EXPECT_EQ(back->request_id, 99u);
  EXPECT_EQ(back->tag, 5u);
  EXPECT_EQ(back->payload.ToString(), "body");
}

TEST(NetworkTest, DeserializeRejectsGarbage) {
  Buffer junk(std::string("xx"));
  EXPECT_FALSE(net::Frame::Deserialize(junk.span()).ok());
}

TEST(NetworkTest, CallDispatchesAndCharges) {
  FakeClock clock;
  net::Network network(&clock, /*default_latency_ns=*/1000);
  network.AddNode("a");
  sp<net::Node> b = network.AddNode("b");
  b->RegisterService("echo", [](const net::Frame& request) {
    net::Frame response;
    response.payload = Buffer(request.payload.ToString() + "!");
    return response;
  });
  net::Frame request;
  request.payload = Buffer(std::string("hi"));
  TimeNs before = clock.Now();
  Result<net::Frame> response = network.Call("a", "b", "echo", request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->payload.ToString(), "hi!");
  EXPECT_EQ(clock.Now() - before, 2000u);  // two hops
  EXPECT_EQ(metrics::StatValue(network, "messages"), 2u);
}

TEST(NetworkTest, UnknownNodeOrServiceFails) {
  FakeClock clock;
  net::Network network(&clock);
  network.AddNode("a");
  network.AddNode("b");
  net::Frame request;
  EXPECT_EQ(network.Call("a", "nowhere", "svc", request).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(network.Call("a", "b", "no-svc", request).status().code(),
            ErrorCode::kNotFound);
}

TEST(NetworkTest, PartitionCutsTraffic) {
  FakeClock clock;
  net::Network network(&clock);
  network.AddNode("a");
  sp<net::Node> b = network.AddNode("b");
  b->RegisterService("svc", [](const net::Frame&) { return net::Frame{}; });
  network.SetPartitioned("b", true);
  EXPECT_EQ(network.Call("a", "b", "svc", net::Frame{}).status().code(),
            ErrorCode::kConnectionLost);
  network.SetPartitioned("b", false);
  EXPECT_TRUE(network.Call("a", "b", "svc", net::Frame{}).ok());
}

// --- DFS fixture: server node with SFS, one or two client nodes ---

class DfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::Network>(&clock_, 1000);
    server_node_ = network_->AddNode("server");
    client_node_ = network_->AddNode("client1");
    client2_node_ = network_->AddNode("client2");

    device_ = std::make_unique<MemBlockDevice>(ufs::kBlockSize, 8192);
    sfs_ = *CreateSfs(device_.get(), SfsOptions{}, &clock_);
    server_ = *DfsServer::Create(server_node_, network_.get(), "dfs",
                                 sfs_.root, &clock_);

    client_ = *DfsClient::Mount(client_node_, network_.get(), "server", "dfs");
    client_vmm_ = Vmm::Create(client_node_->domain(), "client1-vmm");
    client2_ = *DfsClient::Mount(client2_node_, network_.get(), "server",
                                 "dfs");
    client2_vmm_ = Vmm::Create(client2_node_->domain(), "client2-vmm");
  }

  Credentials sys_ = Credentials::System();
  FakeClock clock_;
  std::unique_ptr<net::Network> network_;
  sp<net::Node> server_node_, client_node_, client2_node_;
  std::unique_ptr<MemBlockDevice> device_;
  Sfs sfs_;
  sp<DfsServer> server_;
  sp<DfsClient> client_, client2_;
  sp<Vmm> client_vmm_, client2_vmm_;
};

TEST_F(DfsTest, RemoteCreateWriteReadBack) {
  sp<File> file = *client_->CreateFile(*Name::Parse("remote"), sys_);
  Buffer data(std::string("over the wire"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  Buffer out(13);
  EXPECT_EQ(*file->Read(0, out.mutable_span()), 13u);
  EXPECT_EQ(out.ToString(), "over the wire");
  // The file exists in the server's SFS.
  EXPECT_TRUE(ResolveAs<File>(sfs_.root, "remote", sys_).ok());
}

TEST_F(DfsTest, RemoteLookupAndReadDir) {
  ASSERT_TRUE(client_->CreateContext(*Name::Parse("dir"), sys_).ok());
  ASSERT_TRUE(client_->CreateFile(*Name::Parse("dir/f"), sys_).ok());
  Result<sp<Object>> dir = client_->Resolve(*Name::Parse("dir"), sys_);
  ASSERT_TRUE(dir.ok());
  sp<Context> ctx = narrow<Context>(*dir);
  ASSERT_NE(ctx, nullptr);
  Result<std::vector<BindingInfo>> list = ctx->List(sys_);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].name, "f");
  EXPECT_FALSE((*list)[0].is_context);
  // Nested resolution through the remote dir context.
  EXPECT_TRUE(ResolveAs<File>(client_, "dir/f", sys_).ok());
}

TEST_F(DfsTest, RemoteStatAndTimes) {
  sp<File> file = *client_->CreateFile(*Name::Parse("attrs"), sys_);
  Buffer data(std::string("xyz"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  Result<FileAttributes> attrs = file->Stat();
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size, 3u);
  ASSERT_TRUE(file->SetTimes(123, 456).ok());
  attrs = file->Stat();
  EXPECT_EQ(attrs->atime_ns, 123u);
  EXPECT_EQ(attrs->mtime_ns, 456u);
}

TEST_F(DfsTest, RemoteMappedAccess) {
  sp<File> file = *client_->CreateFile(*Name::Parse("mapped"), sys_);
  ASSERT_TRUE(file->SetLength(2 * kPageSize).ok());
  Result<sp<MappedRegion>> region =
      client_vmm_->Map(file, AccessRights::kReadWrite);
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  Buffer data(std::string("mapped remote write"));
  ASSERT_TRUE((*region)->Write(100, data.span()).ok());
  ASSERT_TRUE((*region)->Sync().ok());
  // Readable through the remote file interface.
  Buffer out(19);
  ASSERT_TRUE(file->Read(100, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "mapped remote write");
  EXPECT_GT(metrics::StatValue(*server_, "remote_page_ins"), 0u);
}

// Figure 7's headline: local clients of file_DFS end up talking to SFS
// directly; DFS sees no page traffic.
TEST_F(DfsTest, LocalBindForwarding) {
  sp<File> created = *server_->CreateFile(*Name::Parse("fig7"), sys_);
  ASSERT_TRUE(created->SetLength(kPageSize).ok());
  sp<Vmm> local_vmm = Vmm::Create(server_node_->domain(), "local-vmm");
  sp<MappedRegion> region = *local_vmm->Map(created, AccessRights::kReadWrite);
  uint64_t messages_before = metrics::StatValue(*network_, "messages");
  uint64_t page_ins_before = metrics::StatValue(*server_, "remote_page_ins");
  Buffer data(std::string("local"));
  ASSERT_TRUE(region->Write(0, data.span()).ok());
  Buffer out(5);
  ASSERT_TRUE(region->Read(0, out.mutable_span()).ok());
  // No network traffic and no DFS page-in involvement for local access.
  EXPECT_EQ(metrics::StatValue(*network_, "messages"), messages_before);
  EXPECT_EQ(metrics::StatValue(*server_, "remote_page_ins"), page_ins_before);
  // And the mapping is genuinely the SFS channel: the local VMM shares the
  // cache with a direct SFS mapping of the same file.
  sp<File> sfs_file = *ResolveAs<File>(sfs_.root, "fig7", sys_);
  sp<MappedRegion> direct = *local_vmm->Map(sfs_file, AccessRights::kReadOnly);
  EXPECT_EQ(region->channel_id(), direct->channel_id())
      << "local binds must be forwarded so the same cache is shared";
}

TEST_F(DfsTest, RemoteAndLocalStayCoherent) {
  sp<File> created = *sfs_.root->CreateFile(*Name::Parse("share"), sys_);
  ASSERT_TRUE(created->SetLength(kPageSize).ok());

  // Remote client maps and reads the initial content.
  sp<File> remote = *ResolveAs<File>(client_, "share", sys_);
  sp<MappedRegion> remote_region =
      *client_vmm_->Map(remote, AccessRights::kReadWrite);
  Buffer out(5);
  ASSERT_TRUE(remote_region->Read(0, out.mutable_span()).ok());

  // Local writer updates through SFS.
  Buffer local_data(std::string("LOCAL"));
  ASSERT_TRUE(created->Write(0, local_data.span()).ok());
  // Remote read must observe it (the server's lower cache object was
  // flushed by SFS, which flushed the remote VMM over the network).
  ASSERT_TRUE(remote_region->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "LOCAL");

  // Remote writer updates through the mapping.
  Buffer remote_data(std::string("REMOT"));
  ASSERT_TRUE(remote_region->Write(0, remote_data.span()).ok());
  // Local read must observe it.
  ASSERT_TRUE(created->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "REMOT");
  EXPECT_GT(metrics::StatValue(*server_, "lower_flushes"), 0u);
}

TEST_F(DfsTest, TwoRemoteClientsStayCoherent) {
  sp<File> created = *sfs_.root->CreateFile(*Name::Parse("pair"), sys_);
  ASSERT_TRUE(created->SetLength(kPageSize).ok());

  sp<File> r1 = *ResolveAs<File>(client_, "pair", sys_);
  sp<File> r2 = *ResolveAs<File>(client2_, "pair", sys_);
  sp<MappedRegion> m1 = *client_vmm_->Map(r1, AccessRights::kReadWrite);
  sp<MappedRegion> m2 = *client2_vmm_->Map(r2, AccessRights::kReadWrite);

  Buffer out(4);
  for (int round = 0; round < 3; ++round) {
    std::string text1 = "a" + std::to_string(round) + "a" + std::to_string(round);
    Buffer d1(text1);
    ASSERT_TRUE(m1->Write(0, d1.span()).ok());
    ASSERT_TRUE(m2->Read(0, out.mutable_span()).ok());
    EXPECT_EQ(out.ToString(), text1) << "round " << round;

    std::string text2 = "b" + std::to_string(round) + "b" + std::to_string(round);
    Buffer d2(text2);
    ASSERT_TRUE(m2->Write(0, d2.span()).ok());
    ASSERT_TRUE(m1->Read(0, out.mutable_span()).ok());
    EXPECT_EQ(out.ToString(), text2) << "round " << round;
  }
  EXPECT_GT(metrics::StatValue(*server_, "callbacks_sent"), 0u);
}

TEST_F(DfsTest, RemoteRemoveAndErrors) {
  ASSERT_TRUE(client_->CreateFile(*Name::Parse("gone"), sys_).ok());
  ASSERT_TRUE(client_->Unbind(*Name::Parse("gone"), sys_).ok());
  EXPECT_EQ(client_->Resolve(*Name::Parse("gone"), sys_).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(client_->Resolve(*Name::Parse("never-existed"), sys_)
                .status().code(),
            ErrorCode::kNotFound);
}

TEST_F(DfsTest, PartitionSurfacesAsConnectionLost) {
  sp<File> file = *client_->CreateFile(*Name::Parse("cut"), sys_);
  network_->SetPartitioned("server", true);
  Buffer out(4);
  EXPECT_EQ(file->Read(0, out.mutable_span()).status().code(),
            ErrorCode::kConnectionLost);
  network_->SetPartitioned("server", false);
  EXPECT_TRUE(file->Stat().ok());
}

// --- transient faults, retries, and server death ---

TEST_F(DfsTest, IdempotentCallsRetryThroughTransientTimeouts) {
  sp<File> file = *client_->CreateFile(*Name::Parse("flaky"), sys_);
  Buffer data(std::string("eventually"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());

  // The next two transport calls time out; the third goes through. Stat is
  // idempotent, so the client must absorb the faults.
  network_->FailNextCalls(2, ErrorCode::kTimedOut);
  TimeNs before = clock_.Now();
  Result<FileAttributes> attrs = file->Stat();
  ASSERT_TRUE(attrs.ok()) << attrs.status().ToString();
  EXPECT_EQ(attrs->size, 10u);
  std::map<std::string, uint64_t> stats = metrics::CollectFrom(*client_);
  EXPECT_EQ(stats["retries"], 2u);
  EXPECT_EQ(stats["retry_successes"], 1u);
  EXPECT_EQ(stats["retries_exhausted"], 0u);
  EXPECT_GT(clock_.Now(), before) << "backoff must be charged to the clock";
}

TEST_F(DfsTest, MutatingCallsRetrySafelyThroughDedup) {
  // The request itself is lost: the server never ran the op, and the
  // retransmission (same request id) simply executes it.
  uint64_t calls_before = metrics::StatValue(*client_, "calls_sent");
  network_->FailNextCalls(1, ErrorCode::kTimedOut);
  Result<sp<File>> created = client_->CreateFile(*Name::Parse("once"), sys_);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::map<std::string, uint64_t> stats = metrics::CollectFrom(*client_);
  EXPECT_EQ(stats["retries"], 1u);
  EXPECT_EQ(stats["calls_sent"], calls_before + 2);
  EXPECT_EQ(metrics::StatValue(*server_, "dedup_hits"), 0u)
      << "first attempt never ran";
  EXPECT_TRUE(ResolveAs<File>(sfs_.root, "once", sys_).ok());
}

TEST_F(DfsTest, LostResponseRetransmissionAppliesExactlyOnce) {
  // The *response* is lost: the server HAS executed the create, the mount
  // channel's timer retransmits the same bytes (same request id), and the
  // server's dedup window replays the original response instead of
  // re-executing. A blind re-execute would fail with kAlreadyExists — the
  // ok result proves the dedup path answered. The logical retry loop never
  // sees the loss.
  uint64_t calls_before = metrics::StatValue(*client_, "calls_sent");
  uint64_t rto_before = metrics::StatValue(*network_, "rto_retransmits");
  network_->DropNextResponses("client1", "server", 1);
  Result<sp<File>> created = client_->CreateFile(*Name::Parse("exactly"),
                                                 sys_);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::map<std::string, uint64_t> stats = metrics::CollectFrom(*client_);
  EXPECT_EQ(stats["retries"], 0u);
  EXPECT_EQ(stats["calls_sent"], calls_before + 1);
  EXPECT_EQ(metrics::StatValue(*network_, "rto_retransmits"), rto_before + 1);
  EXPECT_EQ(metrics::StatValue(*server_, "dedup_hits"), 1u);
  EXPECT_EQ(metrics::StatValue(*network_, "dropped_responses"), 1u);
  // Exactly-once: the file exists and the remote view is usable.
  EXPECT_TRUE(ResolveAs<File>(sfs_.root, "exactly", sys_).ok());
  Buffer data(std::string("ok"));
  EXPECT_TRUE((*created)->Write(0, data.span()).ok());
}

TEST_F(DfsTest, LostWriteResponseDoesNotDoubleApply) {
  // Double-applying a kWrite around another client's write would resurface
  // old bytes. Drop the write's response; the retransmission must replay,
  // not re-execute.
  sp<File> file = *client_->CreateFile(*Name::Parse("w-once"), sys_);
  Buffer first(std::string("AAAA"));
  network_->DropNextResponses("client1", "server", 1);
  ASSERT_TRUE(file->Write(0, first.span()).ok());
  EXPECT_EQ(metrics::StatValue(*server_, "dedup_hits"), 1u);
  // Another client overwrites; if the first write's retransmission had
  // re-executed after this, "BBBB" would be clobbered.
  sp<File> other = *ResolveAs<File>(client2_, "w-once", sys_);
  Buffer second(std::string("BBBB"));
  ASSERT_TRUE(other->Write(0, second.span()).ok());
  Buffer out(4);
  ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "BBBB");
}

TEST_F(DfsTest, ReorderedDuplicateOfMutatingOpAppliesExactlyOnce) {
  // Pathological reordering: the original copy of a kWrite is delayed so
  // long that the channel's RTO retransmits it, the *retransmission*
  // executes first, and the original limps in much later — after another
  // client has overwritten the bytes. The server's dedup window must
  // replay, not re-execute, or the stale write resurfaces.
  sp<File> created = *sfs_.root->CreateFile(*Name::Parse("reorder"), sys_);
  (void)created;
  dfs::DfsClientOptions options;
  options.channel.rto_ns = 100'000;
  options.channel.max_retransmits = 3;
  sp<DfsClient> eager = *DfsClient::Mount(client2_node_, network_.get(),
                                          "server", "dfs", &clock_, options);
  sp<File> remote = *ResolveAs<File>(eager, "reorder", sys_);

  uint64_t dedup_before = metrics::StatValue(*server_, "dedup_hits");
  // The next request on the link crawls: 10ms against a 100µs RTO.
  network_->DelayNextRequests("client2", "server", 1, 10'000'000);
  Buffer stale_bytes(std::string("AAAA"));
  ASSERT_TRUE(remote->Write(0, stale_bytes.span()).ok());
  // The write completed via the retransmitted copy; the delayed original
  // is still on the wire. Another client overwrites meanwhile.
  EXPECT_EQ(metrics::StatValue(*server_, "dedup_hits"), dedup_before);
  sp<File> other = *ResolveAs<File>(client_, "reorder", sys_);
  Buffer fresh_bytes(std::string("BBBB"));
  ASSERT_TRUE(other->Write(0, fresh_bytes.span()).ok());

  // Let virtual time reach the original's arrival; the next op on the
  // mount's channel pumps it into the server, whose dedup window replays the original
  // response instead of re-executing the write.
  clock_.Advance(10'000'000);
  ASSERT_TRUE(remote->Stat().ok());
  EXPECT_EQ(metrics::StatValue(*server_, "dedup_hits"), dedup_before + 1);
  Buffer out(4);
  ASSERT_TRUE(other->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "BBBB")
      << "the reordered duplicate must not re-apply the stale write";
}

TEST_F(DfsTest, BackoffCarriesAcrossStaleHandleRebind) {
  // A scripted service walks one logical op through the worst case: two
  // transient timeouts, then kStale (server forgot the handle), a rebind
  // lookup that succeeds, and one more timeout on the re-issued call
  // before it completes. The retry state must carry across the rebind:
  // backoff base + 2·base before the kStale, then 4·base after it —
  // restarting at base post-rebind (the old bug) would sleep only
  // base + 2·base + base.
  int lookups = 0;
  int getattrs = 0;
  server_node_->RegisterService(
      "scripted", [&](const net::Frame& request) -> net::Frame {
        switch (static_cast<dfs::Op>(request.type)) {
          case dfs::Op::kReadDir:
            return net::Frame{};  // mount probe
          case dfs::Op::kLookup: {
            ++lookups;
            dfs::LookupResponse body;
            body.handle = lookups;  // a fresh handle per resolution
            net::Frame response;
            response.payload = dfs::Encode(body);
            if (lookups == 2) {
              // The rebind lookup: arm one more transient fault so the
              // re-issued call times out once before succeeding.
              network_->FailNextCallsOnLink("client2", "server", 1,
                                            ErrorCode::kTimedOut);
            }
            return response;
          }
          case dfs::Op::kGetAttr: {
            if (++getattrs == 1) {
              return net::Frame::Error(ErrorCode::kStale);
            }
            dfs::GetAttrResponse body;
            net::Frame response;
            response.payload = dfs::Encode(body);
            return response;
          }
          default:
            return net::Frame::Error(ErrorCode::kNotSupported);
        }
      });
  sp<DfsClient> scripted = *DfsClient::Mount(client2_node_, network_.get(),
                                             "server", "scripted", &clock_);
  sp<File> file = *ResolveAs<File>(scripted, "f", sys_);
  network_->FailNextCallsOnLink("client2", "server", 2, ErrorCode::kTimedOut);
  TimeNs before = clock_.Now();
  Result<FileAttributes> attrs = file->Stat();
  ASSERT_TRUE(attrs.ok()) << attrs.status().ToString();
  // Slept backoff: 1ms + 2ms (pre-kStale) + 4ms (carried past the rebind),
  // plus three successful round trips (kStale, lookup, retry) at 2µs each.
  EXPECT_EQ(clock_.Now() - before, 7'006'000u)
      << "backoff must keep growing across the kStale rebind";
  std::map<std::string, uint64_t> stats = metrics::CollectFrom(*scripted);
  EXPECT_EQ(stats["retries"], 3u);
  EXPECT_EQ(stats["handle_rebinds"], 1u);
  EXPECT_EQ(getattrs, 2);
}

TEST_F(DfsTest, RetriesExhaustedSurfaceAsErrorNotHang) {
  // A dedicated mount: a persistent partition must produce a bounded
  // number of sends and a clean error.
  sp<DfsClient> mount = *DfsClient::Mount(client2_node_, network_.get(),
                                          "server", "dfs", &clock_);
  sp<File> file = *mount->CreateFile(*Name::Parse("stuck"), sys_);
  network_->SetPartitioned("server", true);
  uint64_t calls_before = metrics::StatValue(*mount, "calls_sent");
  Result<FileAttributes> attrs = file->Stat();
  EXPECT_EQ(attrs.status().code(), ErrorCode::kConnectionLost);
  std::map<std::string, uint64_t> stats = metrics::CollectFrom(*mount);
  EXPECT_EQ(stats["calls_sent"], calls_before + 1 + dfs::RetryState::kMaxRetries)
      << "initial send + kMaxRetries retries";
  EXPECT_EQ(stats["retries"], dfs::RetryState::kMaxRetries);
  EXPECT_EQ(stats["retries_exhausted"], 1u);
  network_->SetPartitioned("server", false);
  EXPECT_TRUE(file->Stat().ok());
}

TEST_F(DfsTest, ServerDeathSurfacesAsDeadObjectNotHang) {
  sp<File> file = *client_->CreateFile(*Name::Parse("orphan"), sys_);

  // The exporting server dies; its service answers kDeadObject.
  server_.reset();

  // Calls against the dead server fail with kDeadObject after a bounded
  // number of retries (a replacement server could have taken the service
  // over, so the client probes for one): no hang, clean error.
  uint64_t calls_before = metrics::StatValue(*client_, "calls_sent");
  Status stat = file->Stat().status();
  EXPECT_EQ(stat.code(), ErrorCode::kDeadObject) << stat.ToString();
  EXPECT_EQ(metrics::StatValue(*client_, "calls_sent"), calls_before + 5)
      << "initial send + kMaxRetries probes";
  EXPECT_EQ(client_->Resolve(*Name::Parse("orphan"), sys_).status().code(),
            ErrorCode::kDeadObject);
}

TEST_F(DfsTest, ServerRestartInvalidatesCachesAndRebindsTransparently) {
  sp<File> created = *sfs_.root->CreateFile(*Name::Parse("reborn"), sys_);
  ASSERT_TRUE(created->SetLength(kPageSize).ok());
  sp<File> remote = *ResolveAs<File>(client_, "reborn", sys_);
  sp<MappedRegion> region = *client_vmm_->Map(remote, AccessRights::kReadWrite);
  Buffer v1(std::string("->v1"));
  ASSERT_TRUE(region->Write(0, v1.span()).ok());
  ASSERT_TRUE(region->Sync().ok());
  uint64_t epoch_before = client_->observed_server_epoch();
  ASSERT_NE(epoch_before, 0u);

  // Restart: a new server instance takes over the same service name. (The
  // old instance stays referenced by the SFS channel below, as after a
  // failover; what matters to the client is the service answering with a
  // new boot epoch and an empty handle space.)
  server_ = *DfsServer::Create(server_node_, network_.get(), "dfs",
                               sfs_.root, &clock_);

  // The next call observes the epoch bump, tears down the local channels
  // (cached pages are discarded), re-resolves the handle by path, and
  // succeeds — the restart is transparent to the File API.
  Result<FileAttributes> attrs = remote->Stat();
  ASSERT_TRUE(attrs.ok()) << attrs.status().ToString();
  EXPECT_GT(client_->observed_server_epoch(), epoch_before);
  EXPECT_GE(metrics::StatValue(*client_, "server_restarts"), 1u);
  EXPECT_GT(metrics::StatValue(*client_, "channels_invalidated"), 0u);
  EXPECT_GE(metrics::StatValue(*client_, "handle_rebinds"), 1u);

  // Data synced before the restart survives, served through a fresh
  // mapping bound to the new server.
  sp<MappedRegion> region2 = *client_vmm_->Map(remote, AccessRights::kReadOnly);
  Buffer out(4);
  Status got = region2->Read(0, out.mutable_span());
  ASSERT_TRUE(got.ok()) << got.ToString();
  EXPECT_EQ(out.ToString(), "->v1");
}

TEST_F(DfsTest, KilledWriterDoesNotBlockOtherClients) {
  // Two clients write-map the same file; client1 holds writer blocks, then
  // its node is partitioned away for good (client death). client2's next
  // acquire must evict the dead holder instead of failing forever.
  sp<File> created = *sfs_.root->CreateFile(*Name::Parse("seized"), sys_);
  ASSERT_TRUE(created->SetLength(kPageSize).ok());
  sp<File> r1 = *ResolveAs<File>(client_, "seized", sys_);
  sp<File> r2 = *ResolveAs<File>(client2_, "seized", sys_);
  sp<MappedRegion> m1 = *client_vmm_->Map(r1, AccessRights::kReadWrite);
  Buffer mine(std::string("mine"));
  ASSERT_TRUE(m1->Write(0, mine.span()).ok());  // client1 becomes the writer

  network_->SetPartitioned("client1", true);  // client1 dies mid-hold

  sp<MappedRegion> m2 = *client2_vmm_->Map(r2, AccessRights::kReadWrite);
  Buffer theirs(std::string("ours"));
  ASSERT_TRUE(m2->Write(0, theirs.span()).ok())
      << "a dead writer must be evicted, not block the acquire";
  ASSERT_TRUE(m2->Sync().ok());
  CoherencyStats coh = server_->AggregateCoherencyStats();
  EXPECT_GE(coh.evictions, 1u);
  EXPECT_GE(coh.lost_dirty_blocks, 1u) << "client1's unflushed write is lost";
  EXPECT_TRUE(server_->CheckCoherencyInvariants());

  // The revived client's stale page-out is fenced, not applied.
  network_->SetPartitioned("client1", false);
  Status late = m1->Sync();
  Buffer out(4);
  ASSERT_TRUE(created->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "ours")
      << "stale write-back from the evicted holder must not clobber";
  if (!late.ok()) {
    EXPECT_EQ(late.code(), ErrorCode::kStale);
  }
  EXPECT_GE(metrics::StatValue(*server_, "stale_fenced") +
                metrics::StatValue(*client_, "channels_invalidated"),
            1u);
}

TEST_F(DfsTest, LostRecallResponseEvictsTheHolder) {
  // A recall callback carries no request id and is not idempotent: the
  // holder hands its dirty pages over in the response and drops them from
  // its cache. A resent copy would find nothing left and report a clean
  // recall, silently losing the write. Server callbacks ride
  // Network::Call, which never resends: the lost response surfaces as
  // kTimedOut and the holder is evicted with its dirty blocks accounted.
  sp<File> created = *sfs_.root->CreateFile(*Name::Parse("recalled"), sys_);
  ASSERT_TRUE(created->SetLength(kPageSize).ok());
  sp<File> r1 = *ResolveAs<File>(client_, "recalled", sys_);
  sp<File> r2 = *ResolveAs<File>(client2_, "recalled", sys_);
  sp<MappedRegion> m1 = *client_vmm_->Map(r1, AccessRights::kReadWrite);
  Buffer mine(std::string("mine"));
  ASSERT_TRUE(m1->Write(0, mine.span()).ok());  // dirty in client1's cache

  uint64_t recalls_before = metrics::StatValue(*client_, "callbacks_received");
  uint64_t rto_before = metrics::StatValue(*network_, "rto_retransmits");
  network_->DropNextResponses("server", "client1", 1);
  sp<MappedRegion> m2 = *client2_vmm_->Map(r2, AccessRights::kReadWrite);
  Buffer theirs(std::string("ours"));
  ASSERT_TRUE(m2->Write(0, theirs.span()).ok());
  ASSERT_TRUE(m2->Sync().ok());
  EXPECT_EQ(metrics::StatValue(*network_, "dropped_responses"), 1u);
  EXPECT_EQ(metrics::StatValue(*client_, "callbacks_received"),
            recalls_before + 1)
      << "the recall must not run twice";
  EXPECT_EQ(metrics::StatValue(*network_, "rto_retransmits"), rto_before);
  CoherencyStats coh = server_->AggregateCoherencyStats();
  EXPECT_GE(coh.evictions, 1u);
  EXPECT_GE(coh.lost_dirty_blocks, 1u)
      << "the lost recall must be accounted, not reported clean";
  EXPECT_TRUE(server_->CheckCoherencyInvariants());
  Buffer out(4);
  ASSERT_TRUE(created->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "ours");
}

TEST_F(DfsTest, SyncFlowsToDisk) {
  sp<File> file = *client_->CreateFile(*Name::Parse("durable"), sys_);
  Buffer data(std::string("remote durable"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(file->SyncFile().ok());
  ASSERT_TRUE(sfs_.root->SyncFs().ok());
  Result<sp<File>> under = ResolveAs<File>(sfs_.disk, "durable", sys_);
  ASSERT_TRUE(under.ok());
  Buffer out(14);
  EXPECT_EQ(*(*under)->Read(0, out.mutable_span()), 14u);
  EXPECT_EQ(out.ToString(), "remote durable");
}

// --- Figure 9: DFS on COMPFS on SFS ---

TEST_F(DfsTest, FullFigure9Stack) {
  // Build COMPFS on SFS, then export COMPFS over DFS.
  sp<CompLayer> compfs =
      CompLayer::Create(server_node_->domain(), CompLayerOptions{}, &clock_);
  ASSERT_TRUE(compfs->StackOn(sfs_.root).ok());
  sp<DfsServer> dfs2 = *DfsServer::Create(server_node_, network_.get(),
                                          "dfs-comp", compfs, &clock_);
  sp<DfsClient> remote = *DfsClient::Mount(client_node_, network_.get(),
                                           "server", "dfs-comp");

  // Remote client writes compressible data through the full stack.
  sp<File> file = *remote->CreateFile(*Name::Parse("deep"), sys_);
  Rng rng(9);
  Buffer data = rng.CompressibleBuffer(4 * kPageSize);
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(file->SyncFile().ok());

  // Read back remotely: decompressed by COMPFS on the server.
  Buffer out(data.size());
  ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out, data);

  // The underlying SFS file holds compressed bytes (smaller).
  Result<sp<File>> under = ResolveAs<File>(sfs_.root, "deep", sys_);
  ASSERT_TRUE(under.ok());
  EXPECT_LT((*under)->Stat()->size, data.size() / 2);

  // Local access through COMPFS is coherent with the remote view.
  sp<File> local = *ResolveAs<File>(compfs, "deep", sys_);
  Buffer local_out(16);
  ASSERT_TRUE(local->Read(0, local_out.mutable_span()).ok());
  EXPECT_TRUE(std::equal(local_out.data(), local_out.data() + 16,
                         data.data()));
}

// --- CFS ---

class CfsTest : public DfsTest {
 protected:
  void SetUp() override {
    DfsTest::SetUp();
    cfs_ = CfsLayer::Create(client_node_->domain(), client_, client_vmm_,
                            &clock_);
  }

  sp<CfsLayer> cfs_;
};

TEST_F(CfsTest, AttrCacheAbsorbsStatStorm) {
  ASSERT_TRUE(client_->CreateFile(*Name::Parse("hot"), sys_).ok());
  sp<File> file = *ResolveAs<File>(cfs_, "hot", sys_);
  ASSERT_TRUE(file->Stat().ok());  // first stat: one network round trip
  uint64_t calls_before = metrics::StatValue(*client_, "calls_sent");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(file->Stat().ok());
  }
  EXPECT_EQ(metrics::StatValue(*client_, "calls_sent"), calls_before)
      << "CFS must serve repeated stats from its attribute cache";
  EXPECT_GE(metrics::StatValue(*cfs_, "attr_cache_hits"), 50u);
}

TEST_F(CfsTest, WithoutCfsEveryStatGoesRemote) {
  ASSERT_TRUE(client_->CreateFile(*Name::Parse("cold"), sys_).ok());
  sp<File> file = *ResolveAs<File>(client_, "cold", sys_);
  uint64_t calls_before = metrics::StatValue(*client_, "calls_sent");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(file->Stat().ok());
  }
  EXPECT_EQ(metrics::StatValue(*client_, "calls_sent"), calls_before + 10);
}

TEST_F(CfsTest, ReadsServedFromLocalVmmCache) {
  sp<File> created = *client_->CreateFile(*Name::Parse("data"), sys_);
  Buffer data(std::string("cache me locally"));
  ASSERT_TRUE(created->Write(0, data.span()).ok());

  sp<File> file = *ResolveAs<File>(cfs_, "data", sys_);
  Buffer out(16);
  ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());  // faults once
  EXPECT_EQ(out.ToString(), "cache me locally");
  uint64_t calls_before = metrics::StatValue(*client_, "calls_sent");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
  }
  // Attribute checks are cached and pages come from the local VMM: no
  // further network calls.
  EXPECT_EQ(metrics::StatValue(*client_, "calls_sent"), calls_before);
}

TEST_F(CfsTest, WritesVisibleRemotely) {
  ASSERT_TRUE(client_->CreateFile(*Name::Parse("w"), sys_).ok());
  sp<File> file = *ResolveAs<File>(cfs_, "w", sys_);
  Buffer data(std::string("from cfs"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(file->SyncFile().ok());
  // Visible through the plain remote view and on the server.
  sp<File> plain = *ResolveAs<File>(client2_, "w", sys_);
  Buffer out(8);
  ASSERT_TRUE(plain->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "from cfs");
  EXPECT_EQ(file->Stat()->size, 8u);
}

TEST_F(CfsTest, RemovedFileIsForgotten) {
  // The client hands CFS the same remote object for every file at a path,
  // so a removal through CFS, by full name or through a directory, must
  // drop the file's cached attributes and mapping: the next file created
  // at the name is a different file.
  ASSERT_TRUE(cfs_->CreateContext(*Name::Parse("d"), sys_).ok());
  sp<Context> d = *ResolveAs<Context>(cfs_, "d", sys_);
  for (const auto& [dir, path] :
       {std::pair<sp<Context>, std::string>{cfs_, "r"}, {d, "d/r"}}) {
    SCOPED_TRACE(path);
    ASSERT_TRUE(client_->CreateFile(*Name::Parse(path), sys_).ok());
    {
      sp<File> file = *ResolveAs<File>(cfs_, path, sys_);
      Buffer a(std::string(100, 'A'));
      ASSERT_TRUE(file->Write(0, a.span()).ok());
      ASSERT_TRUE(file->SyncFile().ok());
    }
    ASSERT_TRUE(dir->Unbind(*Name::Parse("r"), sys_).ok());

    sp<File> recreated = *sfs_.root->CreateFile(*Name::Parse(path), sys_);
    Buffer b(std::string(10, 'B'));
    ASSERT_TRUE(recreated->Write(0, b.span()).ok());
    ASSERT_TRUE(recreated->SyncFile().ok());

    sp<File> file = *ResolveAs<File>(cfs_, path, sys_);
    EXPECT_EQ(file->Stat()->size, 10u);
    Buffer out(100);
    EXPECT_EQ(*file->Read(0, out.mutable_span()), 10u);
    EXPECT_EQ(out.ToString().substr(0, 10), std::string(10, 'B'));
  }
}

TEST_F(CfsTest, AttrInvalidationCallback) {
  sp<File> created = *client_->CreateFile(*Name::Parse("inval"), sys_);
  sp<File> file = *ResolveAs<File>(cfs_, "inval", sys_);
  // Trigger the CFS bind (registers its fs_cache with the server) and
  // cache the attributes.
  Buffer probe(std::string("x"));
  ASSERT_TRUE(file->Write(0, probe.span()).ok());
  ASSERT_TRUE(file->SyncFile().ok());
  ASSERT_TRUE(file->Stat().ok());

  // Another client changes the file's length on the server.
  sp<File> other = *ResolveAs<File>(client2_, "inval", sys_);
  ASSERT_TRUE(other->SetLength(100).ok());
  EXPECT_GE(metrics::StatValue(*cfs_, "attr_invalidations"), 1u);
  // CFS refetches: the new size is visible.
  EXPECT_EQ(file->Stat()->size, 100u);
}

// --- lifetime: a dropped world frees what it cached ---

// The server's count of remote caches it tracks (kGetHealth's
// leases_active).
uint64_t ServerHolders(net::Network& network, const std::string& from) {
  Result<dfs::HealthResponse> health = dfs::Reply<dfs::HealthResponse>(
      network.Call(from, "server", "dfs",
                   dfs::RequestFrame(dfs::Op::kGetHealth, dfs::Empty{})));
  EXPECT_TRUE(health.ok()) << health.status().ToString();
  return health.ok() ? health->leases_active : ~uint64_t{0};
}

// Dropping every user reference to a server, its SFS, two mounts (one of
// them delegated), their files and their VMM mappings destroys all of
// them: no reference cycle keeps a layer, a file or a channel alive. The
// metrics registry is back to the providers it had before the world.
TEST(DfsLifetime, ADroppedWorldIsDestroyed) {
  Credentials sys = Credentials::System();
  FakeClock clock;
  net::Network network(&clock, 1000);
  MemBlockDevice device(ufs::kBlockSize, 4096);
  sp<net::Node> server_node = network.AddNode("server");
  std::vector<sp<net::Node>> nodes = {network.AddNode("client0"),
                                      network.AddNode("client1")};
  // The nodes' domains stay with the network; everything else goes.
  size_t providers = metrics::Registry::Global().NumProviders();
  std::vector<std::pair<std::string, std::weak_ptr<void>>> weak;
  {
    Sfs sfs = *CreateSfs(&device, SfsOptions{}, &clock);
    sp<DfsServer> server = *DfsServer::Create(server_node, &network, "dfs",
                                              sfs.root, &clock);
    {
      sp<File> file = *sfs.root->CreateFile(*Name::Parse("shared"), sys);
      Buffer data(std::string(2 * kPageSize, 's'));
      ASSERT_TRUE(file->Write(0, data.span()).ok());
      ASSERT_TRUE(file->SyncFile().ok());
      weak.push_back({"an SFS file", file});
    }
    weak.push_back({"the SFS coherency layer", sfs.coherency});
    weak.push_back({"the SFS disk layer", sfs.disk});
    weak.push_back({"the server", server});

    dfs::DfsClientOptions delegated;
    delegated.compound = true;
    delegated.delegations = true;
    std::vector<sp<DfsClient>> mounts;
    std::vector<sp<Vmm>> vmms;
    std::vector<sp<MappedRegion>> regions;
    for (int c = 0; c < 2; ++c) {
      const sp<net::Node>& node = nodes[c];
      sp<DfsClient> mount =
          *DfsClient::Mount(node, &network, "server", "dfs", &clock,
                            c == 0 ? delegated : dfs::DfsClientOptions{});
      sp<File> file = *ResolveAs<File>(mount, "shared", sys);
      sp<Vmm> vmm = Vmm::Create(node->domain(), "vmm" + std::to_string(c));
      sp<MappedRegion> region = *vmm->Map(file, AccessRights::kReadWrite);
      Buffer page(kPageSize);
      ASSERT_TRUE(region->Read(0, page.mutable_span()).ok());
      weak.push_back({"mount " + std::to_string(c), mount});
      weak.push_back({"mount session " + std::to_string(c), mount->session()});
      weak.push_back({"remote file " + std::to_string(c), file});
      weak.push_back({"vmm " + std::to_string(c), vmm});
      weak.push_back({"mapping " + std::to_string(c), region});
      mounts.push_back(std::move(mount));
      vmms.push_back(std::move(vmm));
      regions.push_back(std::move(region));
    }
    EXPECT_EQ(metrics::StatValue(*mounts[0], "delegations_held"), 1u);
    // A mapped write on one client recalls the other's page.
    Buffer data(std::string(kPageSize, 'w'));
    ASSERT_TRUE(regions[1]->Write(0, data.span()).ok());
    ASSERT_TRUE(regions[1]->Sync().ok());
    Buffer page(kPageSize);
    ASSERT_TRUE(regions[0]->Read(0, page.mutable_span()).ok());
    EXPECT_EQ(page.ToString(), data.ToString());
  }
  for (const auto& [what, ref] : weak) {
    EXPECT_TRUE(ref.expired()) << what << " outlived every user reference";
  }
  EXPECT_EQ(metrics::Registry::Global().NumProviders(), providers);
}

// A cache manager that goes away closes its channels: a destroyed VMM's
// mapping of a DFS file is unbound at the server with one kUnbindCache,
// so the server holds no cache for it and a later change calls nobody.
TEST(DfsLifetime, ADestroyedVmmUnbindsItsCacheAtTheServer) {
  Credentials sys = Credentials::System();
  FakeClock clock;
  net::Network network(&clock, 1000);
  MemBlockDevice device(ufs::kBlockSize, 4096);
  Sfs sfs = *CreateSfs(&device, SfsOptions{}, &clock);
  sp<DfsServer> server = *DfsServer::Create(network.AddNode("server"),
                                            &network, "dfs", sfs.root, &clock);
  sp<net::Node> node = network.AddNode("client");
  sp<DfsClient> mount = *DfsClient::Mount(node, &network, "server", "dfs",
                                          &clock);
  sp<File> file = *mount->CreateFile(*Name::Parse("mapped"), sys);
  Buffer data(std::string(kPageSize, 'm'));
  ASSERT_TRUE(file->Write(0, data.span()).ok());

  wp<Vmm> gone;
  {
    sp<Vmm> vmm = Vmm::Create(node->domain(), "vmm");
    sp<MappedRegion> region = *vmm->Map(file, AccessRights::kReadOnly);
    Buffer page(kPageSize);
    ASSERT_TRUE(region->Read(0, page.mutable_span()).ok());
    ASSERT_EQ(ServerHolders(network, "client"), 1u);
    gone = vmm;
  }
  uint64_t unbinds = metrics::StatValue(network, "calls/unbindcache");
  ASSERT_TRUE(gone.expired());
  EXPECT_EQ(unbinds, 1u);
  EXPECT_EQ(ServerHolders(network, "client"), 0u);

  uint64_t callbacks = metrics::StatValue(*server, "callbacks_sent");
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  EXPECT_EQ(metrics::StatValue(*server, "callbacks_sent"), callbacks);
}

}  // namespace
}  // namespace springfs
