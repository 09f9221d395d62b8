// Tests for the striped multi-server DFS (DESIGN.md §14): the RAID-0
// striping math, the stripe-map wire type, end-to-end striped I/O over a
// metadata server plus N data servers, data distribution across the
// per-server stripe objects, per-stripe recovery from a data-server kill
// and restart, cross-client coherency through per-data-server recalls, and
// the non-striped-server fallback.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/blockdev/decorators.h"
#include "src/layers/dfs/dfs_client.h"
#include "src/layers/dfs/dfs_server.h"
#include "src/layers/dfs/striped_client.h"
#include "src/layers/sfs/sfs.h"
#include "src/support/rng.h"
#include "src/ufs/ufs.h"
#include "src/vmm/vmm.h"

namespace springfs {
namespace {

using dfs::ComputeStripeExtents;
using dfs::DfsClient;
using dfs::DfsServer;
using dfs::LocalLengthFor;
using dfs::StripedDfsClient;
using dfs::StripeExtent;
using dfs::StripeMapResponse;

constexpr uint64_t kSS = kPageSize;  // one-page stripes: every page moves

// --- striping math ---

TEST(StripeMath, AlignedExtentsRoundRobin) {
  std::vector<StripeExtent> exts = ComputeStripeExtents(0, 3 * kSS, kSS, 2);
  ASSERT_EQ(exts.size(), 3u);
  EXPECT_EQ(exts[0].target, 0u);
  EXPECT_EQ(exts[0].logical_offset, 0u);
  EXPECT_EQ(exts[0].local_offset, 0u);
  EXPECT_EQ(exts[0].size, kSS);
  EXPECT_EQ(exts[1].target, 1u);
  EXPECT_EQ(exts[1].local_offset, 0u);
  EXPECT_EQ(exts[2].target, 0u);
  EXPECT_EQ(exts[2].logical_offset, 2 * kSS);
  EXPECT_EQ(exts[2].local_offset, kSS);  // second stripe unit on target 0
}

TEST(StripeMath, UnalignedRequestSplitsAtStripeBoundaries) {
  // [kSS/2, kSS/2 + kSS) straddles stripes 0 and 1.
  std::vector<StripeExtent> exts =
      ComputeStripeExtents(kSS / 2, kSS, kSS, 2);
  ASSERT_EQ(exts.size(), 2u);
  EXPECT_EQ(exts[0].target, 0u);
  EXPECT_EQ(exts[0].logical_offset, kSS / 2);
  EXPECT_EQ(exts[0].local_offset, kSS / 2);
  EXPECT_EQ(exts[0].size, kSS / 2);
  EXPECT_EQ(exts[1].target, 1u);
  EXPECT_EQ(exts[1].logical_offset, kSS);
  EXPECT_EQ(exts[1].local_offset, 0u);
  EXPECT_EQ(exts[1].size, kSS / 2);
}

TEST(StripeMath, WidthOneDegeneratesToOneExtentPerStripeUnit) {
  std::vector<StripeExtent> exts = ComputeStripeExtents(0, 2 * kSS, kSS, 1);
  ASSERT_EQ(exts.size(), 2u);
  EXPECT_EQ(exts[0].target, 0u);
  EXPECT_EQ(exts[1].target, 0u);
  EXPECT_EQ(exts[1].local_offset, kSS);  // width 1: local == logical
}

TEST(StripeMath, EmptyRequestYieldsNoExtents) {
  EXPECT_TRUE(ComputeStripeExtents(123, 0, kSS, 4).empty());
}

TEST(StripeMath, LocalLengths) {
  // Empty file: nothing anywhere.
  EXPECT_EQ(LocalLengthFor(0, 0, kSS, 2), 0u);
  EXPECT_EQ(LocalLengthFor(1, 0, kSS, 2), 0u);
  // One byte: only target 0's first stripe unit exists.
  EXPECT_EQ(LocalLengthFor(0, 1, kSS, 2), 1u);
  EXPECT_EQ(LocalLengthFor(1, 1, kSS, 2), 0u);
  // 2.5 stripe units over width 2: target 0 holds stripes {0, 2} (one
  // full + the half tail), target 1 holds stripe 1 (full).
  EXPECT_EQ(LocalLengthFor(0, 2 * kSS + kSS / 2, kSS, 2), kSS + kSS / 2);
  EXPECT_EQ(LocalLengthFor(1, 2 * kSS + kSS / 2, kSS, 2), kSS);
  // 5 full units over width 2: 3 on target 0, 2 on target 1.
  EXPECT_EQ(LocalLengthFor(0, 5 * kSS, kSS, 2), 3 * kSS);
  EXPECT_EQ(LocalLengthFor(1, 5 * kSS, kSS, 2), 2 * kSS);
  // The per-target lengths always sum back to the logical length.
  for (uint64_t length : {uint64_t{1}, kSS - 1, kSS, 7 * kSS + 13}) {
    for (size_t width : {size_t{1}, size_t{2}, size_t{4}}) {
      uint64_t sum = 0;
      for (size_t k = 0; k < width; ++k) {
        sum += LocalLengthFor(k, length, kSS, width);
      }
      EXPECT_EQ(sum, length) << "length " << length << " width " << width;
    }
  }
}

// Replica placement and its inverse undo each other at every width up to
// 8, for every lane a map can carry (replicas never exceed the width).
TEST(StripeMath, ReplicaPlacementAndItsInverseAgree) {
  for (size_t width = 1; width <= 8; ++width) {
    for (size_t lane = 0; lane < width; ++lane) {
      for (size_t t = 0; t < width; ++t) {
        size_t replica = dfs::ReplicaTarget(t, lane, width);
        ASSERT_LT(replica, width);
        EXPECT_EQ(dfs::PrimaryTarget(replica, lane, width), t)
            << "width " << width << " lane " << lane << " primary " << t;
        EXPECT_EQ(dfs::ReplicaTarget(dfs::PrimaryTarget(t, lane, width), lane,
                                     width),
                  t)
            << "width " << width << " lane " << lane << " target " << t;
      }
    }
  }
}

TEST(StripeMath, ExtentsCoverExactlyOnce) {
  // Property: for arbitrary ranges the extents tile the range with no gap
  // or overlap, each within its stripe unit.
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    uint64_t ss = (1 + rng.Below(4)) * 512;
    size_t width = 1 + static_cast<size_t>(rng.Below(5));
    uint64_t offset = rng.Below(10 * ss);
    uint64_t size = 1 + rng.Below(6 * ss);
    std::vector<StripeExtent> exts =
        ComputeStripeExtents(offset, size, ss, width);
    uint64_t expect = offset;
    for (const StripeExtent& e : exts) {
      EXPECT_EQ(e.logical_offset, expect);
      EXPECT_LT(e.target, width);
      uint64_t stripe = e.logical_offset / ss;
      EXPECT_EQ(stripe % width, e.target);
      EXPECT_EQ(e.local_offset,
                (stripe / width) * ss + (e.logical_offset % ss));
      EXPECT_LE(e.logical_offset % ss + e.size, ss);  // never crosses a unit
      expect += e.size;
    }
    EXPECT_EQ(expect, offset + size);
  }
}

// --- wire type ---

TEST(StripedWire, StripeMapRoundTrip) {
  StripeMapResponse map;
  map.stripe_size = 4 * kPageSize;
  map.length = 123456;
  map.map_version = 9;
  map.replicas = 2;
  map.object_name = "stripe-00deadbeef00cafe";
  map.targets.push_back({"data0", "dfs-data", {42, 43}, false});
  map.targets.push_back(
      {"data1", "dfs-data", {(uint64_t{7} << 32) + 1, 0}, true});
  Buffer wire = dfs::Encode(map);
  Result<StripeMapResponse> back = dfs::Decode<StripeMapResponse>(wire.span());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->stripe_size, map.stripe_size);
  EXPECT_EQ(back->length, map.length);
  EXPECT_EQ(back->map_version, 9u);
  EXPECT_EQ(back->replicas, 2u);
  EXPECT_EQ(back->object_name, map.object_name);
  ASSERT_EQ(back->targets.size(), 2u);
  EXPECT_EQ(back->targets[0].node, "data0");
  EXPECT_EQ(back->targets[1].service, "dfs-data");
  EXPECT_FALSE(back->targets[0].stale);
  EXPECT_TRUE(back->targets[1].stale);
  ASSERT_EQ(back->targets[0].lane_handles.size(), 2u);
  EXPECT_EQ(back->targets[0].lane_handles[1], 43u);
  ASSERT_EQ(back->targets[1].lane_handles.size(), 2u);
  EXPECT_EQ(back->targets[1].lane_handles[0], (uint64_t{7} << 32) + 1);
  EXPECT_EQ(back->targets[1].lane_handles[1], 0u);

  Buffer junk(std::string("zz"));
  EXPECT_FALSE(dfs::Decode<StripeMapResponse>(junk.span()).ok());
}

TEST(StripedWire, RequestIdTableMintsFreshIdOnRetarget) {
  dfs::StripeRequestIdTable ids;
  bool retargeted = true;
  uint64_t first = ids.IdFor(0, 1, &retargeted);
  EXPECT_FALSE(retargeted);  // first target for this extent
  // Retransmission to the SAME target reuses the id (server-side dedup).
  EXPECT_EQ(ids.IdFor(0, 1, &retargeted), first);
  EXPECT_FALSE(retargeted);
  // A map refresh moved the extent to a different server: the id must be
  // fresh — replaying the old id into the new server's dedup window could
  // alias an unrelated entry there.
  uint64_t moved = ids.IdFor(0, 2, &retargeted);
  EXPECT_TRUE(retargeted);
  EXPECT_NE(moved, first);
  // ...and is itself stable across retries.
  EXPECT_EQ(ids.IdFor(0, 2, &retargeted), moved);
  EXPECT_FALSE(retargeted);
  // Other extents mint independently, no retarget flagged.
  uint64_t other = ids.IdFor(3, 1, &retargeted);
  EXPECT_FALSE(retargeted);
  EXPECT_NE(other, first);
}

// --- striped cluster fixture ---
//
// A metadata server over its own SFS, `width` data servers each over their
// own SFS, and a striped client; one-page stripes so a few pages of I/O
// exercise every target and boundary.

// Holds the first caller of Pass() after Arm() until Release(); later
// callers go straight through. Lets a test stop one thread at a chosen
// point while others run.
class Gate {
 public:
  void Arm() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = true;
    held_ = false;
  }
  // Waits (up to ten seconds) until a caller is held.
  bool WaitHeld() {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(10), [&] { return held_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = false;
    cv_.notify_all();
  }

  void Pass() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!armed_ || held_) {
      return;
    }
    held_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !armed_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool held_ = false;
};

// A RAM device whose gate holds a flush, so a test can hold a commit of
// the server it backs in flight.
class GatedDevice : public MemBlockDevice {
 public:
  using MemBlockDevice::MemBlockDevice;

  Status Flush() override {
    gate.Pass();
    return MemBlockDevice::Flush();
  }

  Gate gate;
};

// A clock that reads and advances a FakeClock, and whose gate holds a
// sleep (a client's retry backoff), so a test can hold a call between
// two of its attempts.
class GatedSleepClock : public Clock {
 public:
  explicit GatedSleepClock(FakeClock* base) : base_(base) {}

  TimeNs Now() const override { return base_->Now(); }
  void SleepNs(uint64_t ns) override {
    gate.Pass();
    base_->SleepNs(ns);
  }

  Gate gate;

 private:
  FakeClock* base_;
};

struct StripedWorld {
  Credentials sys = Credentials::System();
  FakeClock clock;
  std::unique_ptr<net::Network> network;
  sp<net::Node> client_node, client2_node, mds_node;
  std::vector<sp<net::Node>> data_nodes;
  std::vector<std::unique_ptr<BlockDevice>> devices;
  std::vector<Sfs> stores;  // [0..width-1] data, [width] metadata
  std::vector<Sfs> remounted;  // stores over device copies (RemountCopy)
  std::vector<sp<DfsServer>> data_servers;
  sp<DfsServer> mds;
  FaultyBlockDevice* mds_faults = nullptr;  // devices[width]
  GatedDevice* mds_device = nullptr;        // under mds_faults
  sp<StripedDfsClient> client;
  dfs::DfsServerOptions mds_options;

  // `replicas` defaults to 1: the original single-copy semantics most
  // tests assert (an unreachable target fails its own stripes). The
  // replication tests pass 2.
  explicit StripedWorld(size_t width, uint32_t replicas = 1) {
    network = std::make_unique<net::Network>(&clock, 1000);
    client_node = network->AddNode("client");
    client2_node = network->AddNode("client2");
    mds_node = network->AddNode("mds");
    mds_options.stripe_size = kSS;
    mds_options.stripe_replicas = replicas;
    for (size_t k = 0; k < width; ++k) {
      data_nodes.push_back(network->AddNode("data" + std::to_string(k)));
      devices.push_back(
          std::make_unique<MemBlockDevice>(ufs::kBlockSize, 4096));
      stores.push_back(*CreateSfs(devices.back().get(), SfsOptions{}, &clock));
      data_servers.push_back(*DfsServer::Create(
          data_nodes[k], network.get(), "dfs-data", stores[k].root, &clock));
      mds_options.stripe_targets.push_back(
          {data_nodes[k]->name(), "dfs-data"});
    }
    auto gated = std::make_unique<GatedDevice>(ufs::kBlockSize, 4096);
    mds_device = gated.get();
    devices.push_back(std::make_unique<FaultyBlockDevice>(std::move(gated)));
    mds_faults = static_cast<FaultyBlockDevice*>(devices.back().get());
    stores.push_back(*CreateSfs(devices.back().get(), SfsOptions{}, &clock));
    mds = *DfsServer::Create(mds_node, network.get(), "dfs-meta",
                             stores.back().root, &clock, mds_options);
    client = *StripedDfsClient::Mount(client_node, network.get(), "mds",
                                      "dfs-meta", &clock);
  }

  // Puts `successor` in `server`'s place; the predecessor is destroyed.
  static void Replace(sp<DfsServer>& server, sp<DfsServer> successor) {
    wp<DfsServer> predecessor = server;
    server = std::move(successor);
    EXPECT_TRUE(predecessor.expired()) << "the replaced server outlived it";
  }

  // Replaces data server k with a fresh instance over the same store (new
  // boot epoch, fresh handle space).
  void RestartDataServer(size_t k) {
    Replace(data_servers[k],
            *DfsServer::Create(data_nodes[k], network.get(), "dfs-data",
                               stores[k].root, &clock));
  }

  // Fails data server k the hard way: partitions its node, so every frame
  // to it completes kConnectionLost immediately (the network's view of
  // dead, which is what the client sees).
  void KillDataServer(size_t k) {
    network->SetPartitioned(data_nodes[k]->name(), true);
  }

  // Heals the partition and brings a fresh instance up over the same
  // store (new boot epoch, fresh handle space) — a replacement server.
  void ReviveDataServer(size_t k) {
    network->SetPartitioned(data_nodes[k]->name(), false);
    RestartDataServer(k);
  }

  // Replaces the metadata server in place over the same metadata store —
  // an MDS failover. Stripe maps are re-derived on demand (durable object
  // names + the staleness sidecar), so the successor needs no warm state.
  void RestartMds() {
    Replace(mds, *DfsServer::Create(mds_node, network.get(), "dfs-meta",
                                    stores.back().root, &clock, mds_options));
  }

  // Server k's device (k == width: the metadata server's) as a power
  // failure now would leave it: copied block for block and mounted, which
  // replays the log.
  sp<StackableFs> RemountCopy(size_t k) {
    BlockDevice& device = *devices[k];
    auto copy = std::make_unique<MemBlockDevice>(device.block_size(),
                                                 device.num_blocks());
    Buffer block(device.block_size());
    for (BlockNum b = 0; b < device.num_blocks(); ++b) {
      EXPECT_TRUE(device.ReadBlock(b, block.mutable_span()).ok());
      EXPECT_TRUE(copy->WriteBlock(b, block.span()).ok());
    }
    devices.push_back(std::move(copy));
    remounted.push_back(
        *CreateSfs(devices.back().get(), SfsOptions{.format = false}, &clock));
    return remounted.back().root;
  }

  // A power failure of the metadata server: a successor over a copy of
  // its device.
  void PowerFailMds() {
    sp<StackableFs> store = RemountCopy(data_nodes.size());
    Replace(mds, *DfsServer::Create(mds_node, network.get(), "dfs-meta",
                                    store, &clock, mds_options));
  }

  // A power failure of data server k: a successor over a copy of its
  // device.
  void PowerFailDataServer(size_t k) {
    sp<StackableFs> store = RemountCopy(k);
    Replace(data_servers[k], *DfsServer::Create(data_nodes[k], network.get(),
                                                "dfs-data", store, &clock));
  }

  // Reads lane `lane`'s stripe object on data server k through its own
  // plain DFS mount (server-side caches cannot hide unflushed pages).
  Buffer ReadLaneObject(size_t k, const std::string& object_name,
                        size_t lane) {
    std::string name = object_name;
    if (lane > 0) {
      name += "-r" + std::to_string(lane);
    }
    sp<DfsClient> direct = *DfsClient::Mount(
        client2_node, network.get(), data_nodes[k]->name(), "dfs-data",
        &clock);
    Result<sp<File>> object = ResolveAs<File>(direct, name, sys);
    if (!object.ok()) {
      return Buffer{};
    }
    uint64_t len = *(*object)->GetLength();
    Buffer out(len);
    EXPECT_EQ(*(*object)->Read(0, out.mutable_span()), len);
    return out;
  }

  // The stripe object's durable (lane-0) name, read off a data store's
  // root (every data server of one file holds the same name). Replica
  // lanes append "-r<lane>", so the base name is the shortest match.
  std::string StripeObjectName(size_t k) {
    std::string best;
    std::vector<BindingInfo> entries = *stores[k].root->List(sys);
    for (const BindingInfo& entry : entries) {
      if (entry.name.rfind("stripe-", 0) == 0 &&
          (best.empty() || entry.name.size() < best.size())) {
        best = entry.name;
      }
    }
    return best;
  }
};

Buffer PatternPage(uint8_t tag) {
  Buffer page(kPageSize);
  for (size_t i = 0; i < kPageSize; ++i) {
    page.data()[i] = static_cast<uint8_t>(tag ^ (i & 0xff));
  }
  return page;
}

TEST(StripedDfs, ReadWriteRoundTripWidthTwo) {
  StripedWorld world(2);
  sp<File> file = *world.client->CreateStriped("f");

  // Five pages: odd count, so the targets hold unequal shares.
  Buffer data(5 * kPageSize);
  Rng rng(7);
  Buffer fill = rng.RandomBuffer(data.size());
  std::memcpy(data.data(), fill.data(), data.size());
  ASSERT_EQ(*file->Write(0, data.span()), data.size());
  EXPECT_EQ(*file->GetLength(), data.size());

  Buffer back(data.size());
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);

  // Sub-range reads that straddle stripe boundaries.
  Buffer mid(2 * kPageSize);
  ASSERT_EQ(*file->Read(kPageSize / 2, mid.mutable_span()), mid.size());
  EXPECT_EQ(std::memcmp(mid.data(), data.data() + kPageSize / 2, mid.size()),
            0);

  // Unaligned overwrite straddling stripes 2 and 3 (targets 0 and 1).
  Buffer patch = PatternPage(0xAB);
  uint64_t patch_at = 3 * kPageSize - kPageSize / 2;
  ASSERT_EQ(*file->Write(patch_at, patch.span()), patch.size());
  std::memcpy(data.data() + patch_at, patch.data(), patch.size());
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);

  // Reads past EOF are short; reads at EOF are empty.
  Buffer tail(2 * kPageSize);
  EXPECT_EQ(*file->Read(4 * kPageSize, tail.mutable_span()),
            static_cast<size_t>(kPageSize));
  EXPECT_EQ(*file->Read(5 * kPageSize, tail.mutable_span()), 0u);

  // A reopen from a second client sees the same bytes.
  sp<StripedDfsClient> other = *StripedDfsClient::Mount(
      world.client2_node, world.network.get(), "mds", "dfs-meta",
      &world.clock);
  sp<File> theirs = *other->OpenStriped("f");
  Buffer again(data.size());
  ASSERT_EQ(*theirs->Read(0, again.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(again.data(), data.data(), data.size()), 0);

  EXPECT_GE(metrics::StatValue(*world.client, "map_fetches"), 1u);
  EXPECT_GE(metrics::StatValue(*world.client, "stripe_extents"), 5u);
}

TEST(StripedDfs, DataLandsOnStripeOwners) {
  StripedWorld world(2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data(5 * kPageSize);
  for (int p = 0; p < 5; ++p) {
    Buffer page = PatternPage(static_cast<uint8_t>(0x10 + p));
    std::memcpy(data.data() + p * kPageSize, page.data(), kPageSize);
  }
  ASSERT_EQ(*file->Write(0, data.span()), data.size());
  ASSERT_TRUE(file->SyncFile().ok());

  // Both data stores hold the same durable stripe-object name, and each
  // object's length is exactly this target's share of the logical length.
  std::string object_name = world.StripeObjectName(0);
  ASSERT_FALSE(object_name.empty());
  EXPECT_EQ(world.StripeObjectName(1), object_name);

  for (size_t k = 0; k < 2; ++k) {
    // Read the stripe object through its own data server (a plain DFS
    // mount), so server-side caches cannot hide unflushed pages.
    sp<DfsClient> direct = *DfsClient::Mount(
        world.client2_node, world.network.get(), world.data_nodes[k]->name(),
        "dfs-data", &world.clock);
    sp<File> object = *ResolveAs<File>(direct, object_name, world.sys);
    uint64_t local_len = LocalLengthFor(k, data.size(), kSS, 2);
    EXPECT_EQ(*object->GetLength(), local_len) << "target " << k;
    Buffer local(local_len);
    ASSERT_EQ(*object->Read(0, local.mutable_span()), local_len);
    // Local stripe unit i on target k is logical stripe i * width + k.
    for (uint64_t i = 0; i * kSS < local_len; ++i) {
      uint64_t logical = (i * 2 + k) * kSS;
      EXPECT_EQ(std::memcmp(local.data() + i * kSS, data.data() + logical,
                            kSS),
                0)
          << "target " << k << " local unit " << i;
    }
  }
}

TEST(StripedDfs, UnwrittenStripeHolesReadAsZeros) {
  StripedWorld world(2);
  sp<File> file = *world.client->CreateStriped("f");
  // Write only page 1 (stripe 1, target 1): the logical length becomes two
  // pages, but target 0's stripe object stays empty.
  Buffer page = PatternPage(0x5A);
  ASSERT_EQ(*file->Write(kPageSize, page.span()), page.size());
  EXPECT_EQ(*file->GetLength(), 2 * kPageSize);

  Buffer back(2 * kPageSize);
  ASSERT_EQ(*file->Read(0, back.mutable_span()), back.size());
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(back.data()[i], 0) << "hole byte " << i;
  }
  EXPECT_EQ(std::memcmp(back.data() + kPageSize, page.data(), kPageSize), 0);
  EXPECT_GE(metrics::StatValue(*world.client, "zero_fills"), 1u);
}

TEST(StripedDfs, SetLengthTruncatesEveryTarget) {
  StripedWorld world(2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data(4 * kPageSize);
  Rng rng(11);
  Buffer fill = rng.RandomBuffer(data.size());
  std::memcpy(data.data(), fill.data(), data.size());
  ASSERT_EQ(*file->Write(0, data.span()), data.size());

  ASSERT_TRUE(file->SetLength(kPageSize + kPageSize / 2).ok());
  EXPECT_EQ(*file->GetLength(), kPageSize + kPageSize / 2);
  Buffer back(4 * kPageSize);
  EXPECT_EQ(*file->Read(0, back.mutable_span()),
            static_cast<size_t>(kPageSize + kPageSize / 2));
  EXPECT_EQ(std::memcmp(back.data(), data.data(), kPageSize + kPageSize / 2),
            0);

  // Growing it back exposes zeros, not the truncated bytes.
  ASSERT_TRUE(file->SetLength(4 * kPageSize).ok());
  ASSERT_EQ(*file->Read(0, back.mutable_span()), back.size());
  for (size_t i = kPageSize + kPageSize / 2; i < back.size(); ++i) {
    ASSERT_EQ(back.data()[i], 0) << "byte " << i;
  }
}

TEST(StripedDfs, NonStripedServerRejectsStripedOpen) {
  FakeClock clock;
  net::Network network(&clock, 1000);
  sp<net::Node> server_node = network.AddNode("server");
  sp<net::Node> client_node = network.AddNode("client");
  MemBlockDevice device(ufs::kBlockSize, 4096);
  Sfs sfs = *CreateSfs(&device, SfsOptions{}, &clock);
  sp<DfsServer> server =  // no stripe_targets: a plain single server
      *DfsServer::Create(server_node, &network, "dfs", sfs.root, &clock);
  ASSERT_TRUE(sfs.root->CreateFile(*Name::Parse("plain"),
                                   Credentials::System()).ok());

  sp<StripedDfsClient> client =
      *StripedDfsClient::Mount(client_node, &network, "server", "dfs",
                               &clock);
  EXPECT_EQ(client->OpenStriped("plain").status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(client->CreateStriped("fresh").status().code(),
            ErrorCode::kInvalidArgument);
  // The metadata path still serves the file the ordinary way.
  sp<File> plain = *ResolveAs<File>(client->meta(), "plain",
                                    Credentials::System());
  EXPECT_EQ(*plain->GetLength(), 0u);
  // A data server answers a stale report as it answers a map request,
  // without resolving the handle.
  Result<net::Frame> report = network.Call(
      "client", "server", "dfs",
      dfs::RequestFrame(dfs::Op::kReportStaleReplica,
                        dfs::ReportStaleRequest{.handle = 12345}));
  EXPECT_EQ(dfs::Reply<StripeMapResponse>(report).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(StripedDfs, DataServerRestartRecoversPerStripe) {
  StripedWorld world(2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data(4 * kPageSize);
  Rng rng(13);
  Buffer fill = rng.RandomBuffer(data.size());
  std::memcpy(data.data(), fill.data(), data.size());
  ASSERT_EQ(*file->Write(0, data.span()), data.size());
  Buffer back(data.size());
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());

  // Restart data server 1: its boot epoch bumps, so the client's handle
  // for stripes {1, 3} is dead.
  world.RestartDataServer(1);

  // The next full read hits kStale on target 1, refetches the map (whose
  // fresh handle recovers that stripe), and completes — target 0 is
  // untouched throughout.
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
  EXPECT_GE(metrics::StatValue(*world.client, "stripe_rebinds"), 1u);
  EXPECT_GE(metrics::StatValue(*world.client, "target_restarts"), 1u);

  // Writes keep landing after the recovery, on both targets.
  Buffer patch = PatternPage(0xC3);
  ASSERT_EQ(*file->Write(kPageSize, patch.span()), patch.size());
  std::memcpy(data.data() + kPageSize, patch.data(), patch.size());
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
}

TEST(StripedDfs, DataServerRestartDropsMappedPagesOfEveryFile) {
  // A data server's boot-epoch bump, seen on any frame, drops every lane
  // registration the client holds on that server and the local caches of
  // those files, as a plain mount does: a mapping of f must not go on
  // serving the pages it cached under the old epoch once a read of
  // another file crossed the restart.
  StripedWorld world(2);
  sp<File> f = *world.client->CreateStriped("f");
  sp<File> g = *world.client->CreateStriped("g");
  Buffer f_data = Rng(73).RandomBuffer(4 * kPageSize);
  Buffer g_data = Rng(79).RandomBuffer(2 * kPageSize);
  ASSERT_EQ(*f->Write(0, f_data.span()), f_data.size());
  ASSERT_EQ(*g->Write(0, g_data.span()), g_data.size());
  sp<Vmm> vmm = Vmm::Create(world.client_node->domain(), "vmm");
  sp<MappedRegion> region = *vmm->Map(f, AccessRights::kReadOnly);
  Buffer back(f_data.size());
  ASSERT_TRUE(region->Read(0, back.mutable_span()).ok());

  world.RestartDataServer(1);
  Buffer page(kPageSize);  // g's stripe 1 lives on data server 1
  ASSERT_EQ(*g->Read(kPageSize, page.mutable_span()), page.size());
  EXPECT_EQ(std::memcmp(page.data(), g_data.data() + kPageSize, kPageSize), 0);

  EXPECT_EQ(region->Read(0, back.mutable_span()).code(), ErrorCode::kStale);
  sp<MappedRegion> fresh = *vmm->Map(f, AccessRights::kReadOnly);
  ASSERT_TRUE(fresh->Read(0, back.mutable_span()).ok());
  EXPECT_EQ(std::memcmp(back.data(), f_data.data(), back.size()), 0);
  EXPECT_EQ(metrics::StatValue(*world.client, "target_restarts"), 1u);
}

TEST(StripedDfs, LaneBoundByTheFirstFrameAfterARestartTakesRecalls) {
  // A lane's kBindCache that is this client's first frame to a restarted
  // data server brings the epoch bump back on its reply, and the bump
  // drops the channel the bind has just made. The bind must then fail and
  // bind again: a cache id kept for the dropped channel would pass page
  // ops while the server's recalls found no cache, and a mapping would go
  // on serving bytes another client had overwritten.
  StripedWorld world(2);
  sp<File> f = *world.client->CreateStriped("f");
  Buffer page = PatternPage(0x11);
  ASSERT_EQ(*f->Write(kPageSize, page.span()), page.size());  // on data1

  world.RestartDataServer(1);
  sp<StripedDfsClient> other = *StripedDfsClient::Mount(
      world.client2_node, world.network.get(), "mds", "dfs-meta",
      &world.clock);
  sp<File> theirs = *other->CreateStriped("g");
  Buffer before = Rng(83).RandomBuffer(2 * kPageSize);
  ASSERT_EQ(*theirs->Write(0, before.span()), before.size());

  // Opened after the restart, g's map holds data1's fresh handle, so the
  // first read of a mapping sends data1 the lane's kBindCache first. The
  // bump drops g's local caches too: that mapping reads kStale.
  sp<File> g = *world.client->OpenStriped("g");
  sp<Vmm> vmm = Vmm::Create(world.client_node->domain(), "vmm");
  sp<MappedRegion> region = *vmm->Map(g, AccessRights::kReadOnly);
  Buffer back(kPageSize);
  EXPECT_EQ(region->Read(kPageSize, back.mutable_span()).code(),
            ErrorCode::kStale);
  sp<MappedRegion> fresh = *vmm->Map(g, AccessRights::kReadOnly);
  ASSERT_TRUE(fresh->Read(kPageSize, back.mutable_span()).ok());
  EXPECT_EQ(std::memcmp(back.data(), before.data() + kPageSize, kPageSize), 0);

  Buffer after = PatternPage(0x33);
  ASSERT_EQ(*theirs->Write(kPageSize, after.span()), after.size());
  ASSERT_TRUE(fresh->Read(kPageSize, back.mutable_span()).ok());
  EXPECT_EQ(std::memcmp(back.data(), after.data(), kPageSize), 0);
  EXPECT_EQ(metrics::StatValue(*world.client, "target_restarts"), 1u);
}

TEST(StripedDfs, DeadTargetOnlyFailsItsOwnStripes) {
  StripedWorld world(2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data(4 * kPageSize);
  Rng rng(17);
  Buffer fill = rng.RandomBuffer(data.size());
  std::memcpy(data.data(), fill.data(), data.size());
  ASSERT_EQ(*file->Write(0, data.span()), data.size());
  Buffer page(kPageSize);
  ASSERT_EQ(*file->Read(0, page.mutable_span()), page.size());

  world.network->SetPartitioned("data1", true);

  // Stripe 0 lives on data0 and keeps serving.
  ASSERT_EQ(*file->Read(0, page.mutable_span()), page.size());
  EXPECT_EQ(std::memcmp(page.data(), data.data(), kPageSize), 0);
  // Stripe 1 lives on data1: the fan-out exhausts its retries and fails
  // without wedging (virtual time: the backoffs cost nothing real).
  Result<size_t> dead = file->Read(kPageSize, page.mutable_span());
  EXPECT_FALSE(dead.ok());

  world.network->SetPartitioned("data1", false);
  Buffer back(data.size());
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
  EXPECT_GE(metrics::StatValue(*world.client, "data_retries"), 1u);
  EXPECT_GE(metrics::StatValue(*world.client, "retries_exhausted"), 1u);
}

TEST(StripedDfs, MappedWriteIsRecalledAcrossClients) {
  StripedWorld world(2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data(2 * kPageSize);
  Rng rng(19);
  Buffer fill = rng.RandomBuffer(data.size());
  std::memcpy(data.data(), fill.data(), data.size());
  ASSERT_EQ(*file->Write(0, data.span()), data.size());

  // Client A maps the striped file and dirties page 0 in its local cache.
  sp<Vmm> vmm = Vmm::Create(world.client_node->domain(), "vmm-a");
  sp<MappedRegion> region = *vmm->Map(file, AccessRights::kReadWrite);
  Buffer patch = PatternPage(0x77);
  ASSERT_TRUE(region->Write(0, patch.span()).ok());

  // Client B's direct read of page 0 forces data0's coherency engine to
  // recall A's dirty copy through the striped callback path — B must see
  // the mapped write without A ever syncing.
  sp<StripedDfsClient> other = *StripedDfsClient::Mount(
      world.client2_node, world.network.get(), "mds", "dfs-meta",
      &world.clock);
  sp<File> theirs = *other->OpenStriped("f");
  Buffer page(kPageSize);
  ASSERT_EQ(*theirs->Read(0, page.mutable_span()), page.size());
  EXPECT_EQ(std::memcmp(page.data(), patch.data(), kPageSize), 0);
  EXPECT_GE(metrics::StatValue(*world.client, "recalls_received"), 1u);

  // Page 1 (target 1) was never touched by the mapping and stays intact.
  ASSERT_EQ(*theirs->Read(kPageSize, page.mutable_span()), page.size());
  EXPECT_EQ(std::memcmp(page.data(), data.data() + kPageSize, kPageSize), 0);
}

TEST(StripedDfs, PlainReadSeesOwnDirtyMappedPages) {
  StripedWorld world(2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data(2 * kPageSize);
  Rng rng(53);
  Buffer fill = rng.RandomBuffer(data.size());
  std::memcpy(data.data(), fill.data(), data.size());
  ASSERT_EQ(*file->Write(0, data.span()), data.size());

  // Dirty page 0 through a read-write mapping of the same file, no sync.
  sp<Vmm> vmm = Vmm::Create(world.client_node->domain(), "vmm");
  sp<MappedRegion> region = *vmm->Map(file, AccessRights::kReadWrite);
  Buffer patch = PatternPage(0x3C);
  ASSERT_TRUE(region->Write(0, patch.span()).ok());

  // A plain read is a byte op the data server serves as its own cache, so
  // data0's coherency engine recalls this client's dirty copy first. (Had
  // the read shared the mapping's cache registration, the server would see
  // a read-write holder asking to read and return its stale bytes.)
  Buffer page(kPageSize);
  ASSERT_EQ(*file->Read(0, page.mutable_span()), page.size());
  EXPECT_EQ(std::memcmp(page.data(), patch.data(), kPageSize), 0);
  EXPECT_GE(metrics::StatValue(*world.client, "recalls_received"), 1u);
}

TEST(StripedDfsReplicated, PlainReadsRegisterNoCacheAndDrawNoRecalls) {
  StripedWorld world(2, /*replicas=*/2);
  sp<File> file = *world.client->CreateStriped("f");
  uint64_t bindcache_before =
      metrics::StatValue(*world.network, "calls/bindcache");
  Buffer data(4 * kPageSize);
  Rng rng(59);
  Buffer fill = rng.RandomBuffer(data.size());
  std::memcpy(data.data(), fill.data(), data.size());

  // Write -> read -> rewrite with nothing mapped. The read holds no pages,
  // so it must leave no holder behind for the rewrite to call back.
  ASSERT_EQ(*file->Write(0, data.span()), data.size());
  Buffer back(data.size());
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
  Buffer again = rng.RandomBuffer(data.size());
  ASSERT_EQ(*file->Write(0, again.span()), again.size());
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(back.data(), again.data(), again.size()), 0);

  for (size_t k = 0; k < world.data_servers.size(); ++k) {
    EXPECT_EQ(metrics::StatValue(*world.data_servers[k], "callbacks_sent"), 0u)
        << "data server " << k;
  }
  EXPECT_EQ(metrics::StatValue(*world.client, "recalls_received"), 0u);
  EXPECT_EQ(metrics::StatValue(*world.network, "calls/bindcache"),
            bindcache_before);
}

// --- replicated stripes (DESIGN.md §15) ---

TEST(StripedDfsReplicated, WriteMirrorsEveryLane) {
  StripedWorld world(2, /*replicas=*/2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data(5 * kPageSize);
  Rng rng(29);
  Buffer fill = rng.RandomBuffer(data.size());
  std::memcpy(data.data(), fill.data(), data.size());
  ASSERT_EQ(*file->Write(0, data.span()), data.size());
  ASSERT_TRUE(file->SyncFile().ok());

  // Replica r of stripe s lives on target (s + r) % width in that
  // server's lane-r object, at the primary's local offset — so lane 1 on
  // target (t + 1) % 2 is byte-identical to lane 0 on target t.
  std::string object_name = world.StripeObjectName(0);
  ASSERT_FALSE(object_name.empty());
  for (size_t t = 0; t < 2; ++t) {
    Buffer primary = world.ReadLaneObject(t, object_name, 0);
    Buffer mirror = world.ReadLaneObject((t + 1) % 2, object_name, 1);
    EXPECT_EQ(primary.size(), LocalLengthFor(t, data.size(), kSS, 2));
    ASSERT_EQ(mirror.size(), primary.size()) << "target " << t;
    EXPECT_EQ(std::memcmp(mirror.data(), primary.data(), primary.size()), 0)
        << "target " << t;
  }

  Buffer back(data.size());
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
}

TEST(StripedDfsReplicated, ReadFailsOverWhenDataServerDies) {
  StripedWorld world(2, /*replicas=*/2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data(4 * kPageSize);
  Rng rng(31);
  Buffer fill = rng.RandomBuffer(data.size());
  std::memcpy(data.data(), fill.data(), data.size());
  ASSERT_EQ(*file->Write(0, data.span()), data.size());
  Buffer back(data.size());
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());

  // data0 goes dark (kConnectionLost completes immediately): stripes
  // {0, 2} fail over to their lane-1 replicas on data1 WITHIN the same
  // fan-out round — no backoff, no error surfaced.
  world.KillDataServer(0);
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
  EXPECT_GE(metrics::StatValue(*world.client, "replica_failovers"), 1u);

  // And keeps doing so for as long as the target stays dark.
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
}

TEST(StripedDfsReplicated, DegradedWriteThenRebuildConverges) {
  StripedWorld world(2, /*replicas=*/2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data(4 * kPageSize);
  Rng rng(37);
  Buffer fill = rng.RandomBuffer(data.size());
  std::memcpy(data.data(), fill.data(), data.size());
  ASSERT_EQ(*file->Write(0, data.span()), data.size());

  // Kill data1 and keep writing: every extent still reaches a fresh
  // replica, so no client-visible failure.
  world.KillDataServer(1);
  Buffer patch = PatternPage(0x42);
  ASSERT_EQ(*file->Write(kPageSize, patch.span()), patch.size());
  std::memcpy(data.data() + kPageSize, patch.data(), patch.size());
  Buffer back(data.size());
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
  EXPECT_GE(metrics::StatValue(*world.client, "degraded_writes"), 1u);
  EXPECT_GE(metrics::StatValue(*world.mds, "stripe_replicas_marked_stale"),
            1u);

  // Heal the partition and bring a successor up over the same store, then
  // rebuild: the stale target's lane objects are re-synced from the
  // surviving fresh copies.
  world.ReviveDataServer(1);
  ASSERT_GE(*world.mds->RunRebuildPass(), 1u);
  EXPECT_GE(metrics::StatValue(*world.mds, "stripe_rebuilds"), 1u);

  ASSERT_TRUE(file->SyncFile().ok());
  std::string object_name = world.StripeObjectName(0);
  ASSERT_FALSE(object_name.empty());
  for (size_t t = 0; t < 2; ++t) {
    Buffer primary = world.ReadLaneObject(t, object_name, 0);
    Buffer mirror = world.ReadLaneObject((t + 1) % 2, object_name, 1);
    ASSERT_EQ(mirror.size(), primary.size()) << "target " << t;
    EXPECT_EQ(std::memcmp(mirror.data(), primary.data(), primary.size()), 0)
        << "target " << t;
  }

  // The cleared mark means new writes land on BOTH replicas again.
  Buffer patch2 = PatternPage(0x51);
  ASSERT_EQ(*file->Write(2 * kPageSize, patch2.span()), patch2.size());
  ASSERT_TRUE(file->SyncFile().ok());
  std::memcpy(data.data() + 2 * kPageSize, patch2.data(), patch2.size());
  Buffer lane0 = world.ReadLaneObject(0, object_name, 0);  // t0 primaries
  Buffer lane1 = world.ReadLaneObject(1, object_name, 1);  // t0 mirror
  ASSERT_GE(lane0.size(), 2 * kPageSize);
  ASSERT_EQ(lane1.size(), lane0.size());
  // Stripe 2 is target 0's local unit 1.
  EXPECT_EQ(std::memcmp(lane0.data() + kPageSize, patch2.data(), kPageSize),
            0);
  EXPECT_EQ(std::memcmp(lane1.data() + kPageSize, patch2.data(), kPageSize),
            0);
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
}

TEST(StripedDfsReplicated, PartitionedReplicaIsReportedAndWriteDegrades) {
  StripedWorld world(2, /*replicas=*/2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data(4 * kPageSize);
  Rng rng(41);
  Buffer fill = rng.RandomBuffer(data.size());
  std::memcpy(data.data(), fill.data(), data.size());
  ASSERT_EQ(*file->Write(0, data.span()), data.size());

  // A partition looks like silence, not a tombstone. The CLIENT is the
  // one that notices its writes not landing and reports the target stale
  // (kReportStaleReplica) after degrade_after_rounds failed rounds.
  world.network->SetPartitioned("data1", true);
  Buffer patch = PatternPage(0x66);
  ASSERT_EQ(*file->Write(0, patch.span()), patch.size());
  std::memcpy(data.data(), patch.data(), patch.size());
  EXPECT_GE(metrics::StatValue(*world.client, "stale_reports"), 1u);
  EXPECT_GE(metrics::StatValue(*world.client, "degraded_writes"), 1u);
  EXPECT_GE(metrics::StatValue(*world.mds, "stripe_stale_reports"), 1u);

  // Reads still see every byte (the stale target is planned around).
  Buffer back(data.size());
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);

  // Heal and rebuild: the missed writes converge onto data1.
  world.network->SetPartitioned("data1", false);
  ASSERT_GE(*world.mds->RunRebuildPass(), 1u);
  ASSERT_TRUE(file->SyncFile().ok());
  std::string object_name = world.StripeObjectName(0);
  for (size_t t = 0; t < 2; ++t) {
    Buffer primary = world.ReadLaneObject(t, object_name, 0);
    Buffer mirror = world.ReadLaneObject((t + 1) % 2, object_name, 1);
    ASSERT_EQ(mirror.size(), primary.size()) << "target " << t;
    EXPECT_EQ(std::memcmp(mirror.data(), primary.data(), primary.size()), 0)
        << "target " << t;
  }
}

// Two outages in a row must not leave a stripe with no fresh replica. At
// width 3, R=2, targets 0 and 1 hold both copies of the stripes whose
// primary is target 0: once data1 is marked stale, marking data0 as well
// would strand them. That second mark is refused, so the write fails
// instead of completing on no copy, and after both partitions heal every
// byte reads back and a rebuild brings data1 up to date.
TEST(StripedDfsReplicated, ASecondOutageCannotStaleAStripesLastReplica) {
  StripedWorld world(3, /*replicas=*/2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data(6 * kSS);
  Rng rng(47);
  Buffer fill = rng.RandomBuffer(data.size());
  std::memcpy(data.data(), fill.data(), data.size());
  ASSERT_EQ(*file->Write(0, data.span()), data.size());
  ASSERT_TRUE(file->SyncFile().ok());

  world.network->SetPartitioned("data1", true);
  Buffer patch = PatternPage(0x71);
  for (size_t p = 0; p < 6; ++p) {
    ASSERT_EQ(*file->Write(p * kSS, patch.span()), patch.size()) << p;
    std::memcpy(data.data() + p * kSS, patch.data(), patch.size());
  }
  EXPECT_EQ(metrics::StatValue(*world.mds, "stripe_replicas_marked_stale"),
            1u);

  world.network->SetPartitioned("data0", true);
  Buffer second = PatternPage(0x72);
  EXPECT_FALSE(file->Write(0, second.span()).ok())
      << "no fresh replica would be left for stripe 0";
  EXPECT_EQ(metrics::StatValue(*world.mds, "stripe_replicas_marked_stale"),
            1u);

  world.network->SetPartitioned("data0", false);
  world.network->SetPartitioned("data1", false);
  for (size_t p = 0; p < 6; ++p) {
    Buffer page(kSS);
    Result<size_t> n = file->Read(p * kSS, page.mutable_span());
    ASSERT_TRUE(n.ok()) << "page " << p << ": " << n.status().ToString();
    EXPECT_EQ(std::memcmp(page.data(), data.data() + p * kSS, kSS), 0) << p;
  }
  EXPECT_EQ(*world.mds->RunRebuildPass(), 1u);

  sp<StripedDfsClient> fresh = *StripedDfsClient::Mount(
      world.client2_node, world.network.get(), "mds", "dfs-meta",
      &world.clock);
  sp<File> reread = *fresh->OpenStriped("f");
  Buffer back(data.size());
  ASSERT_EQ(*reread->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
}

// Dropping a striped mount and everything from it destroys the mount, its
// metadata mount, its data mounts (each a session with its own callback
// service and counters) and its files, also after a VMM mapped one
// through the lanes' cache registrations.
TEST(StripedDfsReplicated, ADroppedStripedMountIsDestroyed) {
  StripedWorld world(3, /*replicas=*/2);
  size_t providers = metrics::Registry::Global().NumProviders();
  std::vector<std::pair<std::string, std::weak_ptr<void>>> weak;
  {
    sp<StripedDfsClient> striped = *StripedDfsClient::Mount(
        world.client2_node, world.network.get(), "mds", "dfs-meta",
        &world.clock);
    sp<File> file = *striped->CreateStriped("mapped");
    Buffer data(6 * kSS);
    Rng rng(53);
    Buffer fill = rng.RandomBuffer(data.size());
    std::memcpy(data.data(), fill.data(), data.size());
    ASSERT_EQ(*file->Write(0, data.span()), data.size());
    ASSERT_TRUE(file->SyncFile().ok());
    {
      sp<File> dropped = *striped->CreateStriped("dropped");
      ASSERT_EQ(*dropped->Write(0, data.span()), data.size());
      weak.push_back({"a file its user dropped", dropped});
    }
    sp<Vmm> vmm = Vmm::Create(world.client2_node->domain(), "vmm");
    sp<MappedRegion> region = *vmm->Map(file, AccessRights::kReadWrite);
    Buffer page(kPageSize);
    ASSERT_TRUE(region->Read(0, page.mutable_span()).ok());
    EXPECT_EQ(std::memcmp(page.data(), data.data(), kPageSize), 0);
    weak.push_back({"the striped mount", striped});
    weak.push_back({"the metadata mount", striped->meta()});
    weak.push_back({"the metadata session", striped->meta()->session()});
    weak.push_back({"a striped file", file});
    weak.push_back({"the vmm", vmm});
    weak.push_back({"the mapping", region});
  }
  for (const auto& [what, ref] : weak) {
    EXPECT_TRUE(ref.expired()) << what << " outlived every user reference";
  }
  EXPECT_EQ(metrics::Registry::Global().NumProviders(), providers)
      << "a data mount or the striped session is still registered";
}

TEST(StripedDfsReplicated, MdsFailoverIsAbsorbedAndStalenessSurvivesIt) {
  StripedWorld world(2, /*replicas=*/2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data(4 * kPageSize);
  Rng rng(43);
  Buffer fill = rng.RandomBuffer(data.size());
  std::memcpy(data.data(), fill.data(), data.size());
  ASSERT_EQ(*file->Write(0, data.span()), data.size());

  // Degrade target 1, then fail the MDS over mid-stream.
  world.KillDataServer(1);
  Buffer patch = PatternPage(0x13);
  ASSERT_EQ(*file->Write(kPageSize, patch.span()), patch.size());
  std::memcpy(data.data() + kPageSize, patch.data(), patch.size());
  world.RestartMds();

  // Metadata ops re-resolve against the successor (the old handle answers
  // kStale there); the staleness sidecar keeps target 1 excluded and the
  // map version monotonic across the failover.
  EXPECT_EQ(*file->GetLength(), data.size());
  Buffer back(data.size());
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
  Buffer patch2 = PatternPage(0x77);
  ASSERT_EQ(*file->Write(3 * kPageSize, patch2.span()), patch2.size());
  std::memcpy(data.data() + 3 * kPageSize, patch2.data(), patch2.size());

  // The SUCCESSOR can run the rebuild: its metadata role read the sidecar
  // when it was built.
  world.ReviveDataServer(1);
  ASSERT_GE(*world.mds->RunRebuildPass(), 1u);
  ASSERT_TRUE(file->SyncFile().ok());
  std::string object_name = world.StripeObjectName(0);
  for (size_t t = 0; t < 2; ++t) {
    Buffer primary = world.ReadLaneObject(t, object_name, 0);
    Buffer mirror = world.ReadLaneObject((t + 1) % 2, object_name, 1);
    ASSERT_EQ(mirror.size(), primary.size()) << "target " << t;
    EXPECT_EQ(std::memcmp(mirror.data(), primary.data(), primary.size()), 0)
        << "target " << t;
  }
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
}

// Writes four pages of f and syncs them, then rewrites all four with data
// server 1 dark, so its replicas miss the rewrite, and syncs again.
// Returns the rewrite.
Buffer WriteThenDegrade(StripedWorld& world, File& file) {
  Buffer before = Rng(97).RandomBuffer(4 * kPageSize);
  EXPECT_EQ(*file.Write(0, before.span()), before.size());
  EXPECT_TRUE(file.SyncFile().ok());
  world.KillDataServer(1);
  Buffer after = Rng(101).RandomBuffer(4 * kPageSize);
  EXPECT_EQ(*file.Write(0, after.span()), after.size());
  EXPECT_TRUE(file.SyncFile().ok());
  EXPECT_GE(metrics::StatValue(*world.client, "degraded_writes"), 1u);
  return after;
}

// Reads f through a fresh striped client and compares it with `want`,
// page by page.
void ExpectFreshClientReads(StripedWorld& world, const Buffer& want) {
  sp<StripedDfsClient> fresh = *StripedDfsClient::Mount(
      world.client2_node, world.network.get(), "mds", "dfs-meta",
      &world.clock);
  sp<File> file = *fresh->OpenStriped("f");
  Buffer back(want.size());
  ASSERT_EQ(*file->Read(0, back.mutable_span()), want.size());
  for (size_t p = 0; p * kPageSize < want.size(); ++p) {
    EXPECT_EQ(std::memcmp(back.data() + p * kPageSize,
                          want.data() + p * kPageSize, kPageSize),
              0)
        << "page " << p << " is stale";
  }
}

// The stale targets of f in the metadata server's health document.
std::vector<uint32_t> StaleTargets(StripedWorld& world) {
  Result<dfs::HealthResponse> health = dfs::Reply<dfs::HealthResponse>(
      world.network->Call("client", "mds", "dfs-meta",
                          dfs::RequestFrame(dfs::Op::kGetHealth,
                                            dfs::Empty{})));
  if (!health.ok()) {
    ADD_FAILURE() << health.status().ToString();
    return {};
  }
  for (const dfs::HealthResponse::FileHealth& file : health->files) {
    if (file.path == "f") {
      return file.stale_targets;
    }
  }
  return {};
}

TEST(StripedDfsReplicated, StaleMarkSurvivesAnMdsPowerFailure) {
  // The mark a degraded write leaves is on the metadata server's disk once
  // a map or report carrying it has returned: a successor over a copy of
  // the device taken after the SyncFile still knows target 1 missed the
  // rewrite, so neither it nor a fresh client serves target 1's copy.
  StripedWorld world(2, /*replicas=*/2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data = WriteThenDegrade(world, *file);

  world.PowerFailMds();
  world.ReviveDataServer(1);
  EXPECT_EQ(StaleTargets(world), std::vector<uint32_t>{1});
  ExpectFreshClientReads(world, data);

  EXPECT_EQ(*world.mds->RunRebuildPass(), 1u);
  ExpectFreshClientReads(world, data);
}

TEST(StripedDfsReplicated, StaleMarkThatCannotBeMadeDurableFailsTheWrite) {
  // With the metadata device broken the mark cannot reach the disk, so no
  // map or report carries it and the write does not complete degraded.
  StripedWorld world(2, /*replicas=*/2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data = Rng(103).RandomBuffer(4 * kPageSize);
  ASSERT_EQ(*file->Write(0, data.span()), data.size());
  ASSERT_TRUE(file->SyncFile().ok());

  world.mds_faults->set_broken(true);
  world.KillDataServer(1);
  EXPECT_FALSE(file->Write(0, data.span()).ok());
  EXPECT_EQ(metrics::StatValue(*world.client, "degraded_writes"), 0u);
  EXPECT_EQ(metrics::StatValue(*world.mds, "stripe_replicas_marked_stale"),
            0u);
  EXPECT_TRUE(StaleTargets(world).empty());
}

TEST(StripedDfsReplicated, RebuiltReplicaSurvivesADataServerPowerFailure) {
  // A rebuild clears a mark only once every lane it copied is synced on
  // the destination: a power failure of that data server right after the
  // pass must not bring back the bytes it missed.
  StripedWorld world(2, /*replicas=*/2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data = WriteThenDegrade(world, *file);

  world.ReviveDataServer(1);
  ASSERT_EQ(*world.mds->RunRebuildPass(), 1u);
  ASSERT_TRUE(world.stores.back().root->SyncFs().ok());
  world.PowerFailDataServer(1);
  ExpectFreshClientReads(world, data);
}

TEST(StripedDfsReplicated, SuccessorMdsFindsStaleTargetsBeforeAnyTraffic) {
  // The role walks the metadata store's sidecars once, when it is built:
  // a successor lists and rebuilds a stale target no client has touched
  // since the failover.
  StripedWorld world(2, /*replicas=*/2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data = WriteThenDegrade(world, *file);
  world.RestartMds();
  world.ReviveDataServer(1);

  EXPECT_EQ(StaleTargets(world), std::vector<uint32_t>{1});
  ASSERT_EQ(*world.mds->RunRebuildPass(), 1u);
  EXPECT_TRUE(StaleTargets(world).empty());
  EXPECT_EQ(metrics::StatValue(*world.mds, "stripe_maps_served"), 0u);
  ExpectFreshClientReads(world, data);
}

TEST(StripedDfs, CreateRefusesAStripeSizeThatIsNotAPageMultiple) {
  StripedWorld world(2);
  for (uint64_t size : {uint64_t{0}, uint64_t{kPageSize + 512}}) {
    dfs::DfsServerOptions options = world.mds_options;
    options.stripe_size = size;
    EXPECT_EQ(DfsServer::Create(world.mds_node, world.network.get(),
                                "dfs-meta2", world.stores.back().root,
                                &world.clock, options)
                  .status()
                  .code(),
              ErrorCode::kInvalidArgument)
        << "stripe_size " << size;
  }
}

TEST(StripedDfsReplicated, WidthThreeRotatedPlacement) {
  StripedWorld world(3, /*replicas=*/2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data(7 * kPageSize);
  Rng rng(47);
  Buffer fill = rng.RandomBuffer(data.size());
  std::memcpy(data.data(), fill.data(), data.size());
  ASSERT_EQ(*file->Write(0, data.span()), data.size());
  ASSERT_TRUE(file->SyncFile().ok());

  // Rotated placement at width 3: lane 1 on target (t + 1) % 3 mirrors
  // lane 0 on target t.
  std::string object_name = world.StripeObjectName(0);
  for (size_t t = 0; t < 3; ++t) {
    Buffer primary = world.ReadLaneObject(t, object_name, 0);
    Buffer mirror = world.ReadLaneObject((t + 1) % 3, object_name, 1);
    EXPECT_EQ(primary.size(), LocalLengthFor(t, data.size(), kSS, 3));
    ASSERT_EQ(mirror.size(), primary.size()) << "target " << t;
    EXPECT_EQ(std::memcmp(mirror.data(), primary.data(), primary.size()), 0)
        << "target " << t;
  }

  // Any single dead server leaves every byte readable.
  world.KillDataServer(2);
  Buffer back(data.size());
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
}

TEST(StripedDfs, FanOutCostsOneRoundTripAcrossDataServers) {
  // Unpaced 1000 ns links, one page per data server: a read, a rewrite and
  // the data half of SyncFile each cost one round trip, because every
  // server's frames are handled as they arrive. Waiting on the servers'
  // channels one after another would add a one-way hop per extra server.
  // The metadata half costs a second round trip only while the metadata
  // server holds something of this client's to commit.
  StripedWorld world(4);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data = Rng(61).RandomBuffer(4 * kPageSize);
  ASSERT_EQ(*file->Write(0, data.span()), data.size());

  TimeNs before = world.clock.Now();
  Buffer back(data.size());
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(world.clock.Now() - before, 2000u);
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);

  before = world.clock.Now();
  ASSERT_EQ(*file->Write(0, data.span()), data.size());  // no length push
  EXPECT_EQ(world.clock.Now() - before, 2000u);

  // The create and the length push left the metadata server something to
  // commit: data servers, then the MDS.
  before = world.clock.Now();
  ASSERT_TRUE(file->SyncFile().ok());
  EXPECT_EQ(world.clock.Now() - before, 4000u);

  // A rewrite within the file's length leaves it nothing: data servers only.
  ASSERT_EQ(*file->Write(0, data.span()), data.size());
  before = world.clock.Now();
  ASSERT_TRUE(file->SyncFile().ok());
  EXPECT_EQ(world.clock.Now() - before, 2000u);
}

TEST(StripedDfs, SyncFileCommitsTheMdsOnlyAfterAMetadataChange) {
  // Unpaced 1000 ns links: a SyncFile costs one round trip to the data
  // servers, plus a second to the metadata server when this client sent
  // it a change since its last successful commit there.
  StripedWorld world(2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data = Rng(73).RandomBuffer(2 * kPageSize);
  ASSERT_EQ(*file->Write(0, data.span()), data.size());
  auto sync_cost = [&]() -> TimeNs {
    TimeNs before = world.clock.Now();
    Status synced = file->SyncFile();
    EXPECT_TRUE(synced.ok()) << synced.ToString();
    return world.clock.Now() - before;
  };
  EXPECT_EQ(sync_cost(), 4000u);  // the create and the length push
  EXPECT_EQ(sync_cost(), 2000u);

  // Reads change nothing the metadata server owns.
  ASSERT_TRUE(file->Stat().ok());
  ASSERT_TRUE(file->GetLength().ok());
  EXPECT_EQ(sync_cost(), 2000u);

  ASSERT_TRUE(file->SetTimes(1000, 2000).ok());
  EXPECT_EQ(sync_cost(), 4000u) << "SetTimes";
  EXPECT_EQ(sync_cost(), 2000u) << "after SetTimes";

  ASSERT_TRUE(file->SetLength(kPageSize).ok());
  EXPECT_EQ(sync_cost(), 4000u) << "SetLength";
  EXPECT_EQ(sync_cost(), 2000u) << "after SetLength";

  ASSERT_EQ(*file->Write(kPageSize, data.span()), data.size());  // extends
  EXPECT_EQ(sync_cost(), 4000u) << "extending Write";
  EXPECT_EQ(sync_cost(), 2000u) << "after extending Write";

  // A failed commit leaves the change uncommitted: SyncFile reports it,
  // and the next SyncFile commits the metadata server again.
  ASSERT_TRUE(file->SetTimes(3000, 4000).ok());
  world.network->FailNextCallsOnLink("client", "mds", 1,
                                     ErrorCode::kIoError);
  EXPECT_EQ(file->SyncFile().code(), ErrorCode::kIoError);
  EXPECT_EQ(sync_cost(), 4000u) << "after a failed commit";
  EXPECT_EQ(sync_cost(), 2000u) << "after a retried commit";

  Buffer back(3 * kPageSize);
  ASSERT_EQ(*file->Read(0, back.mutable_span()), back.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), kPageSize), 0);
  EXPECT_EQ(std::memcmp(back.data() + kPageSize, data.data(), data.size()),
            0);

  // Another client's new file object counts as changed: it cannot know
  // what the calls that opened it left uncommitted.
  sp<StripedDfsClient> other = *StripedDfsClient::Mount(
      world.client2_node, world.network.get(), "mds", "dfs-meta",
      &world.clock);
  sp<File> mine = file;
  file = *other->OpenStriped("f");
  EXPECT_EQ(sync_cost(), 4000u) << "new file object";
  EXPECT_EQ(sync_cost(), 2000u) << "after a new file object's commit";

  // On the metadata server a SyncFile commits only what its own file
  // object sent; the data servers commit every writer's bytes. The other
  // client's length push leaves this client's SyncFile one round trip.
  ASSERT_EQ(*file->Write(3 * kPageSize, data.span()), data.size());
  std::swap(file, mine);
  EXPECT_EQ(sync_cost(), 2000u) << "another client's length push";
  std::swap(file, mine);
  EXPECT_EQ(sync_cost(), 4000u) << "own length push";
}

TEST(StripedDfs, SyncFileMakesTheLengthDurableOnTheMds) {
  // The metadata server's file holds no data (its stripes live on the
  // data servers), so the coherency layer there never binds it below. A
  // SyncFile must still commit the length pushed to it, and its times: a
  // power failure of the metadata server right after must not lose them.
  StripedWorld world(2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data = Rng(89).RandomBuffer(3 * kPageSize + 100);
  ASSERT_EQ(*file->Write(0, data.span()), data.size());
  ASSERT_TRUE(file->SetTimes(111, 222).ok());
  ASSERT_TRUE(file->SyncFile().ok());

  // The metadata device as a power failure now would leave it, mounted
  // (which replays the log).
  BlockDevice& device = *world.mds_device;
  MemBlockDevice copy(device.block_size(), device.num_blocks());
  Buffer block(device.block_size());
  for (BlockNum b = 0; b < device.num_blocks(); ++b) {
    ASSERT_TRUE(device.ReadBlock(b, block.mutable_span()).ok());
    ASSERT_TRUE(copy.WriteBlock(b, block.span()).ok());
  }
  Result<std::unique_ptr<ufs::Ufs>> mds_fs = ufs::Ufs::Mount(&copy);
  ASSERT_TRUE(mds_fs.ok()) << mds_fs.status().ToString();
  Result<ufs::InodeNum> ino = (*mds_fs)->Lookup(ufs::kRootInode, "f");
  ASSERT_TRUE(ino.ok()) << ino.status().ToString();
  Result<ufs::InodeAttrs> durable = (*mds_fs)->GetAttrs(*ino);
  ASSERT_TRUE(durable.ok());
  EXPECT_EQ(durable->size, data.size());
  EXPECT_EQ(durable->atime_ns, 111u);
  EXPECT_EQ(durable->mtime_ns, 222u);
}

TEST(StripedDfs, SyncFileWaitsForAnMdsCommitInFlight) {
  // Two threads call SyncFile on one file after a SetTimes. The first
  // commits the metadata server and is held inside that commit (the MDS
  // device's flush waits). The second finds the metadata clean, but the
  // SetTimes is not durable until the first commit answers, so it must
  // not return before then.
  StripedWorld world(2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data = Rng(79).RandomBuffer(2 * kPageSize);
  ASSERT_EQ(*file->Write(0, data.span()), data.size());
  ASSERT_TRUE(file->SyncFile().ok());
  ASSERT_TRUE(file->SetTimes(1000, 2000).ok());

  world.mds_device->gate.Arm();
  Status first;
  std::thread committer([&] { first = file->SyncFile(); });
  EXPECT_TRUE(world.mds_device->gate.WaitHeld());
  uint64_t sent = metrics::StatValue(*world.network, "calls/syncfile");
  Status second;
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    second = file->SyncFile();
    returned = true;
  });
  // The waiter's data fan-out sends one kSyncFile per data server; once
  // both are out, give it ample time to finish the fan-out.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (metrics::StatValue(*world.network, "calls/syncfile") < sent + 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load());
  world.mds_device->gate.Release();
  committer.join();
  waiter.join();
  EXPECT_TRUE(first.ok()) << first.ToString();
  EXPECT_TRUE(second.ok()) << second.ToString();
  EXPECT_EQ(metrics::StatValue(*world.network, "calls/syncfile"), sent + 2);
}

TEST(StripedDfs, SyncFileCommitsAnMdsChangeAppliedAfterAnotherCommit) {
  // A SetTimes whose first attempt fails at the transport waits in its
  // retry backoff while another thread's SyncFile runs; the retry applies
  // the times only after that SyncFile returned. A SyncFile begun once
  // SetTimes has returned owes it a commit: two round trips, not one.
  StripedWorld world(2);
  GatedSleepClock clock(&world.clock);
  sp<StripedDfsClient> client = *StripedDfsClient::Mount(
      world.client2_node, world.network.get(), "mds", "dfs-meta", &clock);
  sp<File> file = *client->CreateStriped("f");
  Buffer data = Rng(83).RandomBuffer(2 * kPageSize);
  ASSERT_EQ(*file->Write(0, data.span()), data.size());
  ASSERT_TRUE(file->SyncFile().ok());
  auto sync_cost = [&]() -> TimeNs {
    TimeNs before = world.clock.Now();
    Status synced = file->SyncFile();
    EXPECT_TRUE(synced.ok()) << synced.ToString();
    return world.clock.Now() - before;
  };
  ASSERT_EQ(sync_cost(), 2000u);

  world.network->FailNextCallsOnLink("client2", "mds", 1,
                                     ErrorCode::kTimedOut);
  clock.gate.Arm();
  Status set;
  std::thread setter([&] { set = file->SetTimes(1000, 2000); });
  EXPECT_TRUE(clock.gate.WaitHeld());
  Status synced = file->SyncFile();
  clock.gate.Release();
  setter.join();
  EXPECT_TRUE(synced.ok()) << synced.ToString();
  ASSERT_TRUE(set.ok()) << set.ToString();

  EXPECT_EQ(sync_cost(), 4000u) << "SetTimes applied after a SyncFile";
  EXPECT_EQ(sync_cost(), 2000u);
}

TEST(StripedDfs, FullWindowQueuesWithoutStallingOtherServers) {
  // A two-frame window per data-server channel and four pages per server:
  // the fan-out queues the rest and sends each as a completion opens the
  // window, so both servers run two waves side by side — two round trips
  // in all. A Submit blocked on a full window would pump its own channel
  // alone and push the other server's handlers back.
  StripedWorld world(2);
  dfs::StripedDfsClientOptions options;
  options.data_channel.max_inflight = 2;
  sp<StripedDfsClient> client = *StripedDfsClient::Mount(
      world.client2_node, world.network.get(), "mds", "dfs-meta",
      &world.clock, options);
  sp<File> file = *client->CreateStriped("f");
  Buffer data = Rng(67).RandomBuffer(8 * kPageSize);
  ASSERT_EQ(*file->Write(0, data.span()), data.size());

  TimeNs before = world.clock.Now();
  Buffer back(data.size());
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(world.clock.Now() - before, 4000u);
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
  EXPECT_EQ(metrics::StatValue(*client, "data_retries"), 0u);
}

TEST(StripedDfsReplicated, MappedFaultFailoverLeavesOtherRepliesQueued) {
  // A two-page read fault at R=2: stripe 1 goes to data1 and stripe 2 to
  // data0, whose page-in fails at once. Stripe 2 fails over to its lane-1
  // replica on data1. That lane never faulted, so its cache registers
  // first, over the channel that still carries stripe 1's page-in. The
  // registration must take only its own reply: taking stripe 1's would
  // strand that extent and cost the fault a retry round.
  StripedWorld world(2, /*replicas=*/2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data = Rng(71).RandomBuffer(4 * kPageSize);
  ASSERT_EQ(*file->Write(0, data.span()), data.size());
  sp<Vmm> vmm = Vmm::Create(world.client_node->domain(), "vmm");
  sp<MappedRegion> region = *vmm->Map(file, AccessRights::kReadOnly);

  // Page 0 faults alone and registers data0's lane 0; page 1 continues
  // the run, so its fault clusters pages 1 and 2.
  Buffer back(3 * kPageSize);
  ASSERT_TRUE(region->Read(0, back.mutable_span().first(kPageSize)).ok());
  world.network->FailNextCallsOnLink("client", "data0", 1,
                                     ErrorCode::kConnectionLost);
  ASSERT_TRUE(
      region->Read(kPageSize, back.mutable_span().subspan(kPageSize)).ok());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), back.size()), 0);
  EXPECT_EQ(metrics::StatValue(*world.client, "replica_failovers"), 1u);
  EXPECT_EQ(metrics::StatValue(*world.client, "data_retries"), 0u);
}

TEST(StripedDfs, MappedReadsFaultThroughStripeFanout) {
  StripedWorld world(2);
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data(4 * kPageSize);
  Rng rng(23);
  Buffer fill = rng.RandomBuffer(data.size());
  std::memcpy(data.data(), fill.data(), data.size());
  ASSERT_EQ(*file->Write(0, data.span()), data.size());

  sp<Vmm> vmm = Vmm::Create(world.client_node->domain(), "vmm");
  sp<MappedRegion> region = *vmm->Map(file, AccessRights::kReadWrite);
  Buffer back(data.size());
  ASSERT_TRUE(region->Read(0, back.mutable_span()).ok());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);

  // Mapped writes reach the stripe owners on sync.
  Buffer patch = PatternPage(0xE1);
  ASSERT_TRUE(region->Write(3 * kPageSize, patch.span()).ok());
  ASSERT_TRUE(region->Sync().ok());
  std::memcpy(data.data() + 3 * kPageSize, patch.data(), patch.size());
  ASSERT_EQ(*file->Read(0, back.mutable_span()), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
}

}  // namespace
}  // namespace springfs
