// Tests for MIRRORFS (the two-underlying-FS layer of Figure 3) and MONOFS
// (the monolithic Table 3 baseline).

#include <gtest/gtest.h>

#include "src/blockdev/decorators.h"
#include "src/layers/mirrorfs/mirror_layer.h"
#include "src/layers/monofs/mono_fs.h"
#include "src/layers/sfs/sfs.h"
#include "src/support/rng.h"

namespace springfs {
namespace {

class MirrorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two independent SFS instances on two (fault-injectable) devices.
    for (int i = 0; i < 2; ++i) {
      faulty_[i] = new FaultyBlockDevice(
          std::make_unique<MemBlockDevice>(ufs::kBlockSize, 4096));
      devices_[i].reset(faulty_[i]);
      sfs_[i] = *CreateSfs(devices_[i].get(), SfsOptions{}, &clock_);
    }
    mirror_ = MirrorLayer::Create(Domain::Create("mirror"), &clock_);
    ASSERT_TRUE(mirror_->StackOn(sfs_[0].root).ok());
    ASSERT_TRUE(mirror_->StackOn(sfs_[1].root).ok());
  }

  Credentials sys_ = Credentials::System();
  FakeClock clock_;
  FaultyBlockDevice* faulty_[2];
  std::unique_ptr<BlockDevice> devices_[2];
  Sfs sfs_[2];
  sp<MirrorLayer> mirror_;
};

TEST_F(MirrorTest, RequiresTwoReplicas) {
  sp<MirrorLayer> lonely = MirrorLayer::Create(Domain::Create("m1"), &clock_);
  ASSERT_TRUE(lonely->StackOn(sfs_[0].root).ok());
  EXPECT_EQ(lonely->CreateFile(*Name::Parse("x"), sys_).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(mirror_->NumReplicas(), 2u);
}

TEST_F(MirrorTest, WritesLandOnBothReplicas) {
  sp<File> file = *mirror_->CreateFile(*Name::Parse("both"), sys_);
  Buffer data(std::string("replicated"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(mirror_->SyncFs().ok());
  for (int i = 0; i < 2; ++i) {
    Result<sp<File>> replica = ResolveAs<File>(sfs_[i].root, "both", sys_);
    ASSERT_TRUE(replica.ok()) << "replica " << i;
    Buffer out(10);
    EXPECT_EQ(*(*replica)->Read(0, out.mutable_span()), 10u);
    EXPECT_EQ(out.ToString(), "replicated") << "replica " << i;
  }
  EXPECT_GE(metrics::StatValue(*mirror_, "write_fanouts"), 1u);
}

TEST_F(MirrorTest, ReadsFailOverWhenPrimaryDies) {
  // The file reaches each replica through its disk layer, below the
  // coherency layer the mirror stacks on, so no replica caches its pages
  // and every read of the primary goes to the (dead) device.
  Buffer data(std::string("still served"));
  for (int i = 0; i < 2; ++i) {
    sp<File> replica = *sfs_[i].disk->CreateFile(*Name::Parse("ha"), sys_);
    ASSERT_EQ(*replica->Write(0, data.span()), data.size()) << "replica " << i;
    ASSERT_TRUE(sfs_[i].disk->SyncFs().ok()) << "replica " << i;
  }
  sp<File> file = *ResolveAs<File>(mirror_, "ha", sys_);

  faulty_[0]->set_broken(true);  // primary's disk dies
  for (uint64_t read = 1; read <= 2; ++read) {
    Buffer out(12);
    Result<size_t> n = file->Read(0, out.mutable_span());
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(out.ToString(), "still served");
    EXPECT_EQ(metrics::StatValue(*mirror_, "reads_failover"), read);
  }
}

TEST_F(MirrorTest, DegradedWritesSucceedAndResilverRepairs) {
  sp<File> file = *mirror_->CreateFile(*Name::Parse("heal"), sys_);
  Buffer v1(std::string("version-one"));
  ASSERT_TRUE(file->Write(0, v1.span()).ok());
  ASSERT_TRUE(mirror_->SyncFs().ok());

  // Replica 1 dies; writes continue in degraded mode.
  faulty_[1]->set_broken(true);
  Buffer v2(std::string("version-two"));
  ASSERT_TRUE(file->Write(0, v2.span()).ok());
  Status sync_degraded = mirror_->SyncFs();
  EXPECT_TRUE(sync_degraded.ok()) << sync_degraded.ToString();

  // Replica 1 comes back holding stale data; resilver repairs it.
  faulty_[1]->set_broken(false);
  clock_.Advance(1000);
  ASSERT_TRUE(mirror_->Resilver(*Name::Parse("heal"), sys_).ok());
  ASSERT_TRUE(mirror_->SyncFs().ok());
  Result<sp<File>> replica1 = ResolveAs<File>(sfs_[1].root, "heal", sys_);
  ASSERT_TRUE(replica1.ok());
  Buffer out(11);
  EXPECT_EQ(*(*replica1)->Read(0, out.mutable_span()), 11u);
  EXPECT_EQ(out.ToString(), "version-two");
  EXPECT_GE(metrics::StatValue(*mirror_, "resilvered_files"), 1u);
}

TEST_F(MirrorTest, FailoverUnderSustainedWrites) {
  // A replica dies in the middle of a write-heavy workload: every write
  // and read issued afterwards must still succeed, and once the replica
  // returns, resilvering must bring it byte-identical to the survivor.
  sp<File> file = *mirror_->CreateFile(*Name::Parse("busy"), sys_);
  Rng rng(77);
  Buffer expected;
  constexpr int kRounds = 24;
  for (int round = 0; round < kRounds; ++round) {
    if (round == kRounds / 3) {
      faulty_[1]->set_broken(true);  // replica 1 dies mid-workload
    }
    uint64_t off = rng.Below(4 * ufs::kBlockSize);
    Buffer chunk = rng.RandomBuffer(rng.Range(1, ufs::kBlockSize));
    ASSERT_TRUE(file->Write(off, chunk.span()).ok()) << "round " << round;
    if (expected.size() < off + chunk.size()) {
      expected.resize(off + chunk.size());
    }
    expected.WriteAt(off, chunk.span());
    // Reads served while degraded must reflect all writes so far.
    Buffer out(expected.size());
    Result<size_t> n = file->Read(0, out.mutable_span());
    ASSERT_TRUE(n.ok()) << "round " << round << ": " << n.status().ToString();
    ASSERT_EQ(*n, expected.size()) << "round " << round;
    ASSERT_EQ(out, expected) << "round " << round;
    if (round % 5 == 4) {
      Status sync = mirror_->SyncFs();
      ASSERT_TRUE(sync.ok()) << "round " << round << ": " << sync.ToString();
    }
  }
  ASSERT_TRUE(mirror_->SyncFs().ok());
  // The dead replica rejected traffic (reads fault first on its page-in
  // path, so either counter may absorb the hits).
  BlockDeviceStats faults = faulty_[1]->stats();
  EXPECT_GE(faults.read_errors + faults.write_errors, 1u);

  // The replica comes back with stale contents; resilver repairs it.
  faulty_[1]->set_broken(false);
  clock_.Advance(1000);
  ASSERT_TRUE(mirror_->Resilver(*Name::Parse("busy"), sys_).ok());
  ASSERT_TRUE(mirror_->SyncFs().ok());
  Result<sp<File>> replica1 = ResolveAs<File>(sfs_[1].root, "busy", sys_);
  ASSERT_TRUE(replica1.ok());
  Buffer out(expected.size());
  ASSERT_EQ(*(*replica1)->Read(0, out.mutable_span()), expected.size());
  EXPECT_EQ(out, expected);
  EXPECT_GE(metrics::StatValue(*mirror_, "resilvered_files"), 1u);
}

TEST_F(MirrorTest, DirectoriesMirrorToo) {
  ASSERT_TRUE(mirror_->CreateContext(*Name::Parse("d"), sys_).ok());
  sp<File> file = *mirror_->CreateFile(*Name::Parse("d/f"), sys_);
  Buffer data(std::string("nested"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(mirror_->SyncFs().ok());
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(ResolveAs<File>(sfs_[i].root, "d/f", sys_).ok())
        << "replica " << i;
  }
  // Listing through the mirrored context.
  Result<sp<Context>> dir = ResolveAs<Context>(mirror_, "d", sys_);
  ASSERT_TRUE(dir.ok());
  Result<std::vector<BindingInfo>> list = (*dir)->List(sys_);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 1u);
}

TEST_F(MirrorTest, UnbindRemovesEverywhere) {
  ASSERT_TRUE(mirror_->CreateFile(*Name::Parse("gone"), sys_).ok());
  ASSERT_TRUE(mirror_->Unbind(*Name::Parse("gone"), sys_).ok());
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(sfs_[i].root->Resolve(*Name::Parse("gone"), sys_).status().code(),
              ErrorCode::kNotFound);
  }
}

TEST_F(MirrorTest, FsInfoDescribesBothReplicas) {
  Result<FsInfo> info = mirror_->GetFsInfo();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->type, "mirrorfs[2](coherency(disk),coherency(disk))");
  EXPECT_EQ(info->stack_depth, 3u);
}

// --- MONOFS ---

class MonoFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_unique<MemBlockDevice>(ufs::kBlockSize, 4096);
    fs_ = MonoFs::Format(device_.get(), &clock_).take_value();
  }

  FakeClock clock_;
  std::unique_ptr<MemBlockDevice> device_;
  std::unique_ptr<MonoFs> fs_;
};

TEST_F(MonoFsTest, CreateOpenReadWriteStat) {
  Result<MonoFd> fd = fs_->Create("file");
  ASSERT_TRUE(fd.ok());
  Buffer data(std::string("direct calls"));
  ASSERT_TRUE(fs_->Write(*fd, 0, data.span()).ok());
  Buffer out(12);
  EXPECT_EQ(*fs_->Read(*fd, 0, out.mutable_span()), 12u);
  EXPECT_EQ(out.ToString(), "direct calls");
  Result<FileAttributes> attrs = fs_->Stat(*fd);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size, 12u);
}

TEST_F(MonoFsTest, NameCacheServesRepeatOpens) {
  ASSERT_TRUE(fs_->Mkdir("a").ok());
  ASSERT_TRUE(fs_->Mkdir("a/b").ok());
  ASSERT_TRUE(fs_->Create("a/b/f").ok());
  ASSERT_TRUE(fs_->Open("a/b/f").ok());
  MonoFsStats before = fs_->stats();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fs_->Open("a/b/f").ok());
  }
  MonoFsStats after = fs_->stats();
  EXPECT_EQ(after.name_cache_misses, before.name_cache_misses);
  EXPECT_GE(after.name_cache_hits, before.name_cache_hits + 10);
}

TEST_F(MonoFsTest, BufferCacheAbsorbsRereads) {
  MonoFd fd = *fs_->Create("f");
  Rng rng(1);
  Buffer data = rng.RandomBuffer(2 * ufs::kBlockSize);
  ASSERT_TRUE(fs_->Write(fd, 0, data.span()).ok());
  Buffer out(data.size());
  ASSERT_TRUE(fs_->Read(fd, 0, out.mutable_span()).ok());
  MonoFsStats before = fs_->stats();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(fs_->Read(fd, 0, out.mutable_span()).ok());
  }
  MonoFsStats after = fs_->stats();
  EXPECT_EQ(after.buffer_cache_misses, before.buffer_cache_misses);
}

TEST_F(MonoFsTest, SyncMakesDataDurable) {
  MonoFd fd = *fs_->Create("durable");
  Buffer data(std::string("survives"));
  ASSERT_TRUE(fs_->Write(fd, 0, data.span()).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  fs_.reset();
  std::unique_ptr<MonoFs> again = MonoFs::Mount(device_.get(), &clock_).take_value();
  MonoFd fd2 = *again->Open("durable");
  Buffer out(8);
  EXPECT_EQ(*again->Read(fd2, 0, out.mutable_span()), 8u);
  EXPECT_EQ(out.ToString(), "survives");
}

TEST_F(MonoFsTest, TruncateDropsData) {
  MonoFd fd = *fs_->Create("t");
  Buffer data(std::string("0123456789"));
  ASSERT_TRUE(fs_->Write(fd, 0, data.span()).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  ASSERT_TRUE(fs_->Truncate(fd, 4).ok());
  EXPECT_EQ(fs_->Stat(fd)->size, 4u);
  Buffer out(10);
  EXPECT_EQ(*fs_->Read(fd, 0, out.mutable_span()), 4u);
}

TEST_F(MonoFsTest, RemoveInvalidatesCaches) {
  MonoFd fd = *fs_->Create("r");
  Buffer data(std::string("x"));
  ASSERT_TRUE(fs_->Write(fd, 0, data.span()).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  ASSERT_TRUE(fs_->Remove("r").ok());
  EXPECT_EQ(fs_->Open("r").status().code(), ErrorCode::kNotFound);
}

TEST_F(MonoFsTest, OpenMissingFails) {
  EXPECT_EQ(fs_->Open("nothing").status().code(), ErrorCode::kNotFound);
}

}  // namespace
}  // namespace springfs
