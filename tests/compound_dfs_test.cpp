// Tests for compound DFS operations and client read delegations (DESIGN.md
// §13): the typed wire codec, server-side compound pipeline semantics (stop
// at first failure, current-handle substitution, nested/callback
// rejection), delegation grant/coexistence/recall/expiry, the post-restart
// grace period, and the zero-round-trip client serves.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/layers/dfs/dfs_client.h"
#include "src/layers/dfs/dfs_server.h"
#include "src/layers/dfs/wire.h"
#include "src/layers/sfs/sfs.h"
#include "src/vmm/vmm.h"

namespace springfs {
namespace {

using dfs::DfsClient;
using dfs::DfsServer;

// --- wire codec round trips ---

TEST(DfsWire, OpenRoundTrip) {
  dfs::OpenRequest req;
  req.handle = 7;
  req.want_delegation = dfs::DelegationKind::kRead;
  req.node = "client1";
  req.service = "dfs-cb-3";
  Result<dfs::OpenRequest> back =
      dfs::Decode<dfs::OpenRequest>(dfs::Encode(req).span());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->handle, 7u);
  EXPECT_EQ(back->want_delegation, dfs::DelegationKind::kRead);
  EXPECT_EQ(back->node, "client1");
  EXPECT_EQ(back->service, "dfs-cb-3");

  dfs::OpenResponse resp;
  resp.handle = 7;
  resp.deleg_id = 42;
  resp.expires_at = 1'000'000;
  Result<dfs::OpenResponse> r2 =
      dfs::Decode<dfs::OpenResponse>(dfs::Encode(resp).span());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->deleg_id, 42u);
  EXPECT_EQ(r2->expires_at, 1'000'000u);
}

TEST(DfsWire, CompoundRoundTrip) {
  dfs::CompoundRequest req;
  dfs::PathRequest lookup;
  lookup.path = "a/b";
  req.ops.push_back({static_cast<uint32_t>(dfs::Op::kLookup),
                     dfs::Encode(lookup)});
  dfs::HandleRequest attr;
  req.ops.push_back({static_cast<uint32_t>(dfs::Op::kGetAttr),
                     dfs::Encode(attr)});
  Result<dfs::CompoundRequest> back =
      dfs::Decode<dfs::CompoundRequest>(dfs::Encode(req).span());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->ops.size(), 2u);
  EXPECT_EQ(back->ops[0].op, static_cast<uint32_t>(dfs::Op::kLookup));
  Result<dfs::PathRequest> sub =
      dfs::Decode<dfs::PathRequest>(back->ops[0].body.span());
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->path, "a/b");

  dfs::CompoundResponse resp;
  resp.results.push_back({static_cast<uint32_t>(dfs::Op::kLookup), 0,
                          Buffer(std::string("ok"))});
  resp.results.push_back(
      {static_cast<uint32_t>(dfs::Op::kGetAttr),
       static_cast<int32_t>(ErrorCode::kNotFound), Buffer()});
  Result<dfs::CompoundResponse> r2 =
      dfs::Decode<dfs::CompoundResponse>(dfs::Encode(resp).span());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->results.size(), 2u);
  EXPECT_EQ(r2->results[0].status, 0);
  EXPECT_EQ(r2->results[0].body.ToString(), "ok");
  EXPECT_EQ(r2->results[1].status,
            static_cast<int32_t>(ErrorCode::kNotFound));
}

TEST(DfsWire, RecallDelegRoundTrip) {
  dfs::CbRecallDelegRequest recall;
  recall.deleg_id = 9;
  Result<dfs::CbRecallDelegRequest> back =
      dfs::Decode<dfs::CbRecallDelegRequest>(dfs::Encode(recall).span());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->deleg_id, 9u);
}

TEST(DfsWire, TruncatedBodiesAreRejected) {
  dfs::OpenResponse resp;
  resp.deleg_id = 42;
  Buffer wire = dfs::Encode(resp);
  for (size_t cut = 0; cut < wire.size(); cut += 7) {
    EXPECT_FALSE(dfs::Decode<dfs::OpenResponse>(wire.subspan(0, cut)).ok())
        << "cut=" << cut;
  }
  dfs::CompoundRequest req;
  req.ops.push_back({1, Buffer(std::string("xyzw"))});
  Buffer cwire = dfs::Encode(req);
  EXPECT_FALSE(dfs::Decode<dfs::CompoundRequest>(
                   cwire.subspan(0, cwire.size() - 1))
                   .ok());
}

// --- fixture: server + SFS, clients mounted with various options ---

class CompoundDfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::Network>(&clock_, 1000);
    server_node_ = network_->AddNode("server");
    client_node_ = network_->AddNode("client1");
    client2_node_ = network_->AddNode("client2");
    client3_node_ = network_->AddNode("client3");
    device_ = std::make_unique<MemBlockDevice>(ufs::kBlockSize, 8192);
    sfs_ = *CreateSfs(device_.get(), SfsOptions{}, &clock_);
    server_ = *DfsServer::Create(server_node_, network_.get(), "dfs",
                                 sfs_.root, &clock_);
  }

  sp<DfsClient> MountWith(const sp<net::Node>& node,
                          const dfs::DfsClientOptions& options) {
    return *DfsClient::Mount(node, network_.get(), "server", "dfs", &clock_,
                             options);
  }

  // A seeded file with one page of known content.
  sp<File> Seed(const std::string& name, const std::string& content) {
    sp<File> file = *sfs_.root->CreateFile(*Name::Parse(name), sys_);
    Buffer data(content);
    EXPECT_TRUE(file->Write(0, data.span()).ok());
    return file;
  }

  uint64_t NetMessages() {
    return metrics::StatValue(*network_, "messages");
  }

  // Raw protocol round trip, bypassing the client (for malformed-program
  // and fencing probes).
  net::Frame Raw(dfs::Op op, Buffer payload) {
    net::Frame request;
    request.type = static_cast<uint32_t>(op);
    request.payload = std::move(payload);
    Result<net::Frame> response =
        network_->Call("client1", "server", "dfs", request);
    EXPECT_TRUE(response.ok());
    return response.ok() ? *response : net::Frame{};
  }

  Credentials sys_ = Credentials::System();
  FakeClock clock_;
  std::unique_ptr<net::Network> network_;
  sp<net::Node> server_node_, client_node_, client2_node_, client3_node_;
  std::unique_ptr<MemBlockDevice> device_;
  Sfs sfs_;
  sp<DfsServer> server_;
};

// --- compound pipeline semantics ---

TEST_F(CompoundDfsTest, CompoundOpenHalvesTheWireTraffic) {
  Seed("cold", "compound payload");
  dfs::DfsClientOptions sync_options;
  sp<DfsClient> sync_client = MountWith(client_node_, sync_options);
  dfs::DfsClientOptions compound_options;
  compound_options.compound = true;
  sp<DfsClient> compound_client = MountWith(client2_node_, compound_options);

  Buffer out(8);
  // Sync cold open: lookup + getattr + read, one round trip each.
  uint64_t before = NetMessages();
  sp<File> f1 = *ResolveAs<File>(sync_client, "cold", sys_);
  ASSERT_TRUE(f1->Stat().ok());
  ASSERT_TRUE(f1->Read(0, out.mutable_span()).ok());
  uint64_t sync_msgs = NetMessages() - before;

  // Compound cold open: ONE round trip; the stat and first read are then
  // served from the close-to-open one-shot cache.
  before = NetMessages();
  sp<File> f2 = *ResolveAs<File>(compound_client, "cold", sys_);
  ASSERT_TRUE(f2->Stat().ok());
  ASSERT_TRUE(f2->Read(0, out.mutable_span()).ok());
  uint64_t compound_msgs = NetMessages() - before;
  EXPECT_EQ(out.ToString(), "compound");

  EXPECT_LE(compound_msgs * 2, sync_msgs)
      << "a compound open must cost at most half the sync messages";
  EXPECT_EQ(metrics::StatValue(*compound_client, "compound_opens"), 1u);
  EXPECT_EQ(metrics::StatValue(*compound_client, "cto_serves"), 2u);
  EXPECT_EQ(metrics::StatValue(*server_, "compounds"), 1u);
  EXPECT_EQ(metrics::StatValue(*server_, "compound_sub_ops"), 4u);

  // The close-to-open cache is one-shot: the next stat goes to the wire.
  before = NetMessages();
  ASSERT_TRUE(f2->Stat().ok());
  EXPECT_GT(NetMessages(), before);
}

TEST_F(CompoundDfsTest, CompoundStopsAtFirstFailure) {
  Seed("exists", "x");
  dfs::CompoundRequest program;
  dfs::PathRequest ok_lookup;
  ok_lookup.path = "exists";
  program.ops.push_back({static_cast<uint32_t>(dfs::Op::kLookup),
                         dfs::Encode(ok_lookup)});
  dfs::PathRequest bad_lookup;
  bad_lookup.path = "missing";
  program.ops.push_back({static_cast<uint32_t>(dfs::Op::kLookup),
                         dfs::Encode(bad_lookup)});
  dfs::HandleRequest never_runs;
  program.ops.push_back({static_cast<uint32_t>(dfs::Op::kGetAttr),
                         dfs::Encode(never_runs)});

  net::Frame response = Raw(dfs::Op::kCompound, dfs::Encode(program));
  ASSERT_TRUE(response.ToStatus().ok());
  Result<dfs::CompoundResponse> results =
      dfs::Decode<dfs::CompoundResponse>(response.payload.span());
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->results.size(), 2u)
      << "execution must stop at the first failing op";
  EXPECT_EQ(results->results[0].status, 0);
  EXPECT_EQ(results->results[1].status,
            static_cast<int32_t>(ErrorCode::kNotFound));
}

TEST_F(CompoundDfsTest, CompoundSubstitutesCurrentHandle) {
  Seed("hs", "hello substitution");
  dfs::CompoundRequest program;
  dfs::PathRequest lookup;
  lookup.path = "hs";
  program.ops.push_back({static_cast<uint32_t>(dfs::Op::kLookup),
                         dfs::Encode(lookup)});
  dfs::HandleRequest attr;  // handle 0 -> replaced by the lookup's result
  program.ops.push_back({static_cast<uint32_t>(dfs::Op::kGetAttr),
                         dfs::Encode(attr)});
  dfs::ReadRequest read;
  read.length = 5;
  program.ops.push_back({static_cast<uint32_t>(dfs::Op::kRead),
                         dfs::Encode(read)});

  net::Frame response = Raw(dfs::Op::kCompound, dfs::Encode(program));
  Result<dfs::CompoundResponse> results =
      dfs::Decode<dfs::CompoundResponse>(response.payload.span());
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->results.size(), 3u);
  EXPECT_EQ(results->results[1].status, 0);
  Result<dfs::GetAttrResponse> attrs =
      dfs::Decode<dfs::GetAttrResponse>(results->results[1].body.span());
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->attrs.size, 18u);
  Result<dfs::ReadResponse> data =
      dfs::Decode<dfs::ReadResponse>(results->results[2].body.span());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->data.ToString(), "hello");
}

TEST_F(CompoundDfsTest, OversizedSubOpCountIsCorruptAndServerSurvives) {
  // Four bytes claiming 2^32-1 sub-ops: the decoder must reject the count
  // before reserving room for it (a bad_alloc here would escape the
  // handler and terminate the process), and the server keeps serving.
  const uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
  net::Frame response = Raw(dfs::Op::kCompound, Buffer(huge, sizeof(huge)));
  EXPECT_EQ(response.ToStatus().code(), ErrorCode::kCorrupted);

  Seed("survivor", "still serving");
  sp<DfsClient> client = MountWith(client_node_, dfs::DfsClientOptions{});
  Result<sp<File>> file = ResolveAs<File>(client, "survivor", sys_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
}

TEST_F(CompoundDfsTest, CompoundRejectsNestedAndCallbackOps) {
  for (dfs::Op bad : {dfs::Op::kCompound, dfs::Op::kCbFlushBack}) {
    dfs::CompoundRequest program;
    program.ops.push_back({static_cast<uint32_t>(bad), Buffer()});
    net::Frame response = Raw(dfs::Op::kCompound, dfs::Encode(program));
    Result<dfs::CompoundResponse> results =
        dfs::Decode<dfs::CompoundResponse>(response.payload.span());
    ASSERT_TRUE(results.ok());
    ASSERT_EQ(results->results.size(), 1u);
    EXPECT_EQ(results->results[0].status,
              static_cast<int32_t>(ErrorCode::kInvalidArgument))
        << "op " << static_cast<uint32_t>(bad);
  }
}

TEST_F(CompoundDfsTest, CompoundResolvesDirectories) {
  ASSERT_TRUE(sfs_.root->CreateContext(*Name::Parse("d"), sys_).ok());
  Seed("d/f", "inside");
  dfs::DfsClientOptions options;
  options.compound = true;
  sp<DfsClient> client = MountWith(client_node_, options);
  // The open/getattr/read tail of the program fails on a directory, but
  // the resolve still succeeds from the lookup result alone.
  Result<sp<Object>> dir = client->Resolve(*Name::Parse("d"), sys_);
  ASSERT_TRUE(dir.ok());
  sp<Context> ctx = narrow<Context>(*dir);
  ASSERT_NE(ctx, nullptr);
  Result<std::vector<BindingInfo>> list = ctx->List(sys_);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].name, "f");
}

// --- delegations ---

dfs::DfsClientOptions DelegatedOptions() {
  dfs::DfsClientOptions options;
  options.compound = true;
  options.delegations = true;
  return options;
}

TEST_F(CompoundDfsTest, DelegationServesReopenStatAndReadWithZeroTrips) {
  Seed("warm", "delegated bytes");
  sp<DfsClient> client = MountWith(client_node_, DelegatedOptions());
  sp<File> file = *ResolveAs<File>(client, "warm", sys_);
  EXPECT_EQ(metrics::StatValue(*client, "delegations_held"), 1u);
  EXPECT_EQ(metrics::StatValue(*server_, "delegations_granted"), 1u);

  // Re-open, stat, length, and a first-page read: ZERO round trips.
  uint64_t before = NetMessages();
  sp<File> again = *ResolveAs<File>(client, "warm", sys_);
  EXPECT_EQ(again.get(), file.get());
  Result<FileAttributes> attrs = file->Stat();
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size, 15u);
  EXPECT_EQ(*file->GetLength(), 15u);
  Buffer out(9);
  ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "delegated");
  EXPECT_EQ(NetMessages(), before)
      << "a delegation-holding client must serve these locally";
  EXPECT_EQ(metrics::StatValue(*client, "local_opens"), 1u);
  EXPECT_EQ(metrics::StatValue(*client, "local_attr_serves"), 2u);
  EXPECT_EQ(metrics::StatValue(*client, "local_read_serves"), 1u);
}

TEST_F(CompoundDfsTest, ConflictingWriteRecallsDelegation) {
  Seed("contested", "v1");
  sp<DfsClient> holder = MountWith(client_node_, DelegatedOptions());
  sp<File> held = *ResolveAs<File>(holder, "contested", sys_);
  ASSERT_TRUE(held->Stat().ok());  // local

  // Another client writes: the server must recall the delegation before
  // applying the write.
  sp<DfsClient> writer = MountWith(client2_node_, dfs::DfsClientOptions{});
  sp<File> their = *ResolveAs<File>(writer, "contested", sys_);
  Buffer v2(std::string("v2!!"));
  ASSERT_TRUE(their->Write(0, v2.span()).ok());
  EXPECT_EQ(metrics::StatValue(*server_, "delegations_recalled"), 1u);
  EXPECT_EQ(metrics::StatValue(*holder, "deleg_recalls"), 1u);

  // The holder's next stat goes to the wire and sees the new size.
  uint64_t before = NetMessages();
  Result<FileAttributes> attrs = held->Stat();
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size, 4u);
  EXPECT_GT(NetMessages(), before);
}

TEST_F(CompoundDfsTest, ReadDelegationsCoexistAndAChangeRecallsThemAll) {
  Seed("shared", "read by many");
  sp<DfsClient> holder1 = MountWith(client_node_, DelegatedOptions());
  sp<DfsClient> holder2 = MountWith(client2_node_, DelegatedOptions());
  sp<File> held1 = *ResolveAs<File>(holder1, "shared", sys_);
  sp<File> held2 = *ResolveAs<File>(holder2, "shared", sys_);
  EXPECT_EQ(metrics::StatValue(*holder1, "delegations_held"), 1u);
  EXPECT_EQ(metrics::StatValue(*holder2, "delegations_held"), 1u);
  EXPECT_EQ(metrics::StatValue(*server_, "delegations_granted"), 2u);

  // A plain third client reads, stats and faults a read-only mapping: no
  // read recalls a read delegation.
  sp<DfsClient> plain = MountWith(client3_node_, dfs::DfsClientOptions{});
  sp<File> their = *ResolveAs<File>(plain, "shared", sys_);
  Buffer out(4);
  ASSERT_TRUE(their->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "read");
  ASSERT_TRUE(their->Stat().ok());
  sp<Vmm> vmm = Vmm::Create(client3_node_->domain(), "vmm3");
  sp<MappedRegion> region = *vmm->Map(their, AccessRights::kReadOnly);
  ASSERT_TRUE(region->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "read");
  EXPECT_EQ(metrics::StatValue(*server_, "delegations_recalled"), 0u);
  uint64_t before = NetMessages();
  ASSERT_TRUE(held1->Stat().ok());
  ASSERT_TRUE(held2->Stat().ok());
  EXPECT_EQ(NetMessages(), before) << "both holders still serve locally";

  // The third client's write recalls both delegations and its own
  // read-only mapped page in one callback round: the write costs its own
  // round trip plus one callback round trip (4 us of 1 us links), not a
  // round trip per callback.
  Buffer data(std::string("WRIT"));
  uint64_t callbacks = metrics::StatValue(*server_, "callbacks_sent");
  uint64_t rounds = metrics::StatValue(*server_, "callback_rounds");
  TimeNs start = clock_.Now();
  ASSERT_TRUE(their->Write(0, data.span()).ok());
  EXPECT_EQ(clock_.Now() - start, 4'000u);
  EXPECT_EQ(metrics::StatValue(*server_, "callbacks_sent") - callbacks, 3u);
  EXPECT_EQ(metrics::StatValue(*server_, "callback_rounds") - rounds, 1u);
  EXPECT_EQ(metrics::StatValue(*server_, "delegations_recalled"), 2u);
  EXPECT_EQ(metrics::StatValue(*holder1, "deleg_recalls"), 1u);
  EXPECT_EQ(metrics::StatValue(*holder2, "deleg_recalls"), 1u);
  ASSERT_TRUE(held1->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "WRIT");
  EXPECT_TRUE(server_->CheckCoherencyInvariants());
}

// A remove is a change: it recalls the file's delegations, so a holder's
// re-open goes to the wire and finds the file gone instead of serving the
// removed file from its delegation until the lease lapses.
TEST_F(CompoundDfsTest, RemoveRecallsTheDelegations) {
  Seed("f", "nine byte");
  sp<DfsClient> holder = MountWith(client_node_, DelegatedOptions());
  sp<File> held = *ResolveAs<File>(holder, "f", sys_);
  ASSERT_EQ(held->Stat()->size, 9u);
  EXPECT_EQ(metrics::StatValue(*holder, "delegations_held"), 1u);

  sp<DfsClient> plain = MountWith(client2_node_, dfs::DfsClientOptions{});
  ASSERT_TRUE(plain->Unbind(*Name::Parse("f"), sys_).ok());
  EXPECT_EQ(metrics::StatValue(*server_, "delegations_recalled"), 1u);
  EXPECT_EQ(metrics::StatValue(*holder, "deleg_recalls"), 1u);

  uint64_t before = NetMessages();
  Result<sp<File>> reopened = ResolveAs<File>(holder, "f", sys_);
  EXPECT_EQ(reopened.status().code(), ErrorCode::kNotFound);
  EXPECT_GT(NetMessages(), before) << "the re-open went to the wire";
}

TEST_F(CompoundDfsTest, DelegationExpiresAtItsAbsoluteDeadline) {
  Seed("lapse", "x");
  sp<DfsClient> client = MountWith(client_node_, DelegatedOptions());
  sp<File> file = *ResolveAs<File>(client, "lapse", sys_);
  ASSERT_TRUE(file->Stat().ok());  // local while valid

  clock_.Advance(31'000'000'000);  // past the 30s default lease

  // The client stops serving locally (lazy expiry); a stat does not make
  // the server scan the file's delegations ...
  uint64_t before = NetMessages();
  ASSERT_TRUE(file->Stat().ok());
  EXPECT_GT(NetMessages(), before);
  EXPECT_EQ(metrics::StatValue(*server_, "delegations_expired"), 0u);
  // ... but the next change to the file prunes the lapsed delegation rather
  // than recalling a dead claim.
  ASSERT_TRUE(file->SetTimes(111, 222).ok());
  EXPECT_EQ(metrics::StatValue(*server_, "delegations_expired"), 1u);
  EXPECT_EQ(metrics::StatValue(*server_, "delegations_recalled"), 0u);
}

TEST_F(CompoundDfsTest, GracePeriodBouncesMutationsUntilLeasesLapse) {
  Seed("reborn", "pre-restart");
  // Restart the service with a grace period covering the old lease span.
  dfs::DfsServerOptions graced;
  graced.grace_ns = 10'000'000;
  sp<DfsServer> successor = *DfsServer::Create(
      server_node_, network_.get(), "dfs", sfs_.root, &clock_, graced);

  sp<DfsClient> client = MountWith(client_node_, dfs::DfsClientOptions{});
  sp<File> file = *ResolveAs<File>(client, "reborn", sys_);
  // Reads pass during grace.
  Buffer out(3);
  ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "pre");
  // A mutation is bounced with a transient error; the client's retry
  // backoff (slept on the shared clock) carries it past the grace window.
  Buffer data(std::string("post-grace!!"));
  Result<size_t> wrote = file->Write(0, data.span());
  ASSERT_TRUE(wrote.ok()) << wrote.status().ToString();
  EXPECT_GT(metrics::StatValue(*successor, "grace_rejects"), 0u);
  Buffer check(12);
  ASSERT_TRUE(file->Read(0, check.mutable_span()).ok());
  EXPECT_EQ(check.ToString(), "post-grace!!");
}

TEST_F(CompoundDfsTest, DelegationsSurviveMappedCoherencyTraffic) {
  // A delegation and a VMM mapping on the same file: the page engine and
  // the delegation table must not trample each other, and the server
  // invariants must hold throughout.
  Seed("both", "mapped and delegated");
  sp<DfsClient> holder = MountWith(client_node_, DelegatedOptions());
  sp<File> held = *ResolveAs<File>(holder, "both", sys_);
  ASSERT_TRUE(held->Stat().ok());

  sp<DfsClient> mapper = MountWith(client2_node_, dfs::DfsClientOptions{});
  sp<Vmm> vmm = Vmm::Create(client2_node_->domain(), "vmm2");
  sp<File> their = *ResolveAs<File>(mapper, "both", sys_);
  sp<MappedRegion> region = *vmm->Map(their, AccessRights::kReadWrite);
  Buffer tag(std::string("MAPW"));
  ASSERT_TRUE(region->Write(0, tag.span()).ok());
  ASSERT_TRUE(region->Sync().ok());
  // The mapped write-access fault recalled the read delegation.
  EXPECT_EQ(metrics::StatValue(*server_, "delegations_recalled"), 1u);
  EXPECT_TRUE(server_->CheckCoherencyInvariants());

  // The ex-holder sees the mapped write.
  Buffer out(4);
  ASSERT_TRUE(held->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "MAPW");
}

// A failed round keeps what the holders that answered gave up: the
// delegation holder is partitioned before its lease lapses, so a write that
// recalls it fails, but the dirty mapped page another client handed over
// in the same round reaches the layer below. Once the lease lapses, the
// change goes through.
TEST_F(CompoundDfsTest, FailedRoundStillPushesTheAnsweredPagesBelow) {
  sp<File> local = Seed("split", std::string(2 * kPageSize, 'o'));
  sp<DfsClient> mapper = MountWith(client2_node_, dfs::DfsClientOptions{});
  sp<Vmm> vmm = Vmm::Create(client2_node_->domain(), "vmm2");
  sp<MappedRegion> region =
      *vmm->Map(*ResolveAs<File>(mapper, "split", sys_),
                AccessRights::kReadWrite);
  Buffer tag(std::string("MAPPED"));
  ASSERT_TRUE(region->Write(kPageSize, tag.span()).ok());  // dirty, unsynced

  // The holder's open reads page 0 only, so page 1 stays dirty at the
  // mapper.
  sp<DfsClient> holder = MountWith(client_node_, DelegatedOptions());
  ASSERT_TRUE(ResolveAs<File>(holder, "split", sys_).ok());
  ASSERT_EQ(metrics::StatValue(*holder, "delegations_held"), 1u);
  network_->SetPartitioned("client1", true);

  sp<DfsClient> writer = MountWith(client3_node_, dfs::DfsClientOptions{});
  sp<File> file = *ResolveAs<File>(writer, "split", sys_);
  Buffer data(std::string("W"));
  EXPECT_FALSE(file->Write(kPageSize + 100, data.span()).ok())
      << "an unreachable holder fails the change until its lease lapses";
  Buffer out(6);
  ASSERT_TRUE(local->Read(kPageSize, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "MAPPED") << "the answered page went below";
  EXPECT_EQ(metrics::StatValue(*server_, "delegations_recalled"), 0u);
  EXPECT_TRUE(server_->CheckCoherencyInvariants());

  clock_.Advance(31'000'000'000);  // past the 30 s lease
  ASSERT_TRUE(file->Write(kPageSize + 100, data.span()).ok());
  EXPECT_EQ(metrics::StatValue(*server_, "delegations_expired"), 1u);
  Buffer page(kPageSize);
  ASSERT_TRUE(local->Read(kPageSize, page.mutable_span()).ok());
  EXPECT_EQ(page.ToString().substr(0, 6), "MAPPED");
  EXPECT_EQ(page.data()[100], 'W');
}

// A holder whose client is gone (a destroyed client unregisters its
// callback service, so its node answers kNotFound) is dropped at the
// recall: the change goes through on its first try. The holder is a
// delegated mount that opened the file, then was destroyed with it.
TEST_F(CompoundDfsTest, AHolderWhoseClientIsGoneIsDroppedAtTheRecall) {
  Seed("orphan", "x");
  wp<DfsClient> gone;
  {
    sp<DfsClient> holder = MountWith(client_node_, DelegatedOptions());
    ASSERT_TRUE(ResolveAs<File>(holder, "orphan", sys_).ok());
    ASSERT_EQ(metrics::StatValue(*holder, "delegations_held"), 1u);
    gone = holder;
  }
  ASSERT_TRUE(gone.expired()) << "the mount and its file were destroyed";
  ASSERT_EQ(metrics::StatValue(*server_, "delegations_granted"), 1u);

  sp<DfsClient> writer = MountWith(client2_node_, dfs::DfsClientOptions{});
  sp<File> file = *ResolveAs<File>(writer, "orphan", sys_);
  uint64_t callbacks = metrics::StatValue(*server_, "callbacks_sent");
  Buffer data(std::string("y"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  EXPECT_EQ(metrics::StatValue(*writer, "retries"), 0u)
      << "the write went through on its first try";
  EXPECT_EQ(metrics::StatValue(*server_, "callbacks_sent") - callbacks, 1u);
  EXPECT_EQ(metrics::StatValue(*server_, "delegations_recalled"), 1u);

  // The delegation is gone: the next change calls nobody.
  callbacks = metrics::StatValue(*server_, "callbacks_sent");
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  EXPECT_EQ(metrics::StatValue(*server_, "callbacks_sent"), callbacks);
}

// A failed round keeps the recall of the holders that answered: with one
// of two holders partitioned, a write fails, and once the partition heals
// the retried write calls only the holder that did not answer.
TEST_F(CompoundDfsTest, ARetriedChangeCallsOnlyTheHolderThatDidNotAnswer) {
  Seed("pair", "held twice");
  sp<DfsClient> holder1 = MountWith(client_node_, DelegatedOptions());
  sp<DfsClient> holder2 = MountWith(client2_node_, DelegatedOptions());
  ASSERT_TRUE(ResolveAs<File>(holder1, "pair", sys_).ok());
  ASSERT_TRUE(ResolveAs<File>(holder2, "pair", sys_).ok());
  ASSERT_EQ(metrics::StatValue(*server_, "delegations_granted"), 2u);
  network_->SetPartitioned("client1", true);

  sp<DfsClient> writer = MountWith(client3_node_, dfs::DfsClientOptions{});
  sp<File> file = *ResolveAs<File>(writer, "pair", sys_);
  Buffer data(std::string("W"));
  EXPECT_FALSE(file->Write(0, data.span()).ok())
      << "an unreachable holder fails the change until its lease lapses";
  EXPECT_EQ(metrics::StatValue(*holder2, "deleg_recalls"), 1u);

  network_->SetPartitioned("client1", false);
  uint64_t callbacks = metrics::StatValue(*server_, "callbacks_sent");
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  EXPECT_EQ(metrics::StatValue(*server_, "callbacks_sent") - callbacks, 1u)
      << "only the holder that did not answer is called again";
  EXPECT_EQ(metrics::StatValue(*holder1, "deleg_recalls"), 1u);
  EXPECT_EQ(metrics::StatValue(*holder2, "deleg_recalls"), 1u);
  EXPECT_EQ(metrics::StatValue(*server_, "delegations_recalled"), 2u);
}

// A recall from below can hand pages down only as its success value, so
// it recalls a write's delegations before it calls any page holder: a
// local write on the server while the delegation holder is partitioned
// fails kBusy without taking the mapper's dirty page. Once the holder is
// back, the write's recall carries that page below, and both writes
// survive.
TEST_F(CompoundDfsTest, ALocalWriteKeepsAMappersPageWhileAHolderIsPartitioned) {
  sp<File> local = Seed("kept", std::string(2 * kPageSize, 'o'));
  sp<DfsClient> mapper = MountWith(client2_node_, dfs::DfsClientOptions{});
  sp<Vmm> vmm = Vmm::Create(client2_node_->domain(), "vmm2");
  sp<MappedRegion> region =
      *vmm->Map(*ResolveAs<File>(mapper, "kept", sys_),
                AccessRights::kReadWrite);
  Buffer tag(std::string("MAPPED"));
  ASSERT_TRUE(region->Write(kPageSize, tag.span()).ok());  // dirty, unsynced

  sp<DfsClient> holder = MountWith(client_node_, DelegatedOptions());
  ASSERT_TRUE(ResolveAs<File>(holder, "kept", sys_).ok());
  ASSERT_EQ(metrics::StatValue(*holder, "delegations_held"), 1u);
  network_->SetPartitioned("client1", true);

  uint64_t callbacks = metrics::StatValue(*mapper, "callbacks_received");
  Buffer data(std::string("L"));
  EXPECT_EQ(local->Write(kPageSize + 2000, data.span()).status().code(),
            ErrorCode::kBusy)
      << "the change waits for the holder's lease, and the server's claim "
         "below stands";
  EXPECT_EQ(metrics::StatValue(*mapper, "callbacks_received"), callbacks)
      << "no page holder is called while a delegation recall fails";

  network_->SetPartitioned("client1", false);
  ASSERT_TRUE(local->Write(kPageSize + 2000, data.span()).ok());
  EXPECT_EQ(metrics::StatValue(*server_, "delegations_recalled"), 1u);
  ASSERT_TRUE(region->Sync().ok());  // the page went with the recall
  Buffer page(kPageSize);
  ASSERT_TRUE(local->Read(kPageSize, page.mutable_span()).ok());
  EXPECT_EQ(page.ToString().substr(0, 6), "MAPPED")
      << "the mapped write survived";
  EXPECT_EQ(page.data()[2000], 'L') << "and so did the local one";
  EXPECT_TRUE(server_->CheckCoherencyInvariants());
}

}  // namespace
}  // namespace springfs
