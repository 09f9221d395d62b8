// Tests for SFS = coherency layer stacked on the disk layer (paper §6.2,
// Figure 10): data/attribute caching, coherent mapped clients, domain
// placement transparency, Table 2's cached fast paths, persistence, and a
// randomized workload checked against a reference model plus fsck.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/layers/sfs/sfs.h"
#include "src/support/rng.h"
#include "src/ufs/checker.h"
#include "src/vmm/vmm.h"

namespace springfs {
namespace {

// What a power failure now would leave of root file `name`: its attributes
// on a block-for-block copy of `device`, mounted (which replays the log).
ufs::InodeAttrs AttrsAfterPowerFail(BlockDevice& device,
                                    const std::string& name) {
  MemBlockDevice copy(device.block_size(), device.num_blocks());
  Buffer block(device.block_size());
  for (BlockNum b = 0; b < device.num_blocks(); ++b) {
    EXPECT_TRUE(device.ReadBlock(b, block.mutable_span()).ok());
    EXPECT_TRUE(copy.WriteBlock(b, block.span()).ok());
  }
  Result<std::unique_ptr<ufs::Ufs>> fs = ufs::Ufs::Mount(&copy);
  if (!fs.ok()) {
    ADD_FAILURE() << fs.status().ToString();
    return {};
  }
  Result<ufs::InodeNum> ino = (*fs)->Lookup(ufs::kRootInode, name);
  Result<ufs::InodeAttrs> attrs =
      ino.ok() ? (*fs)->GetAttrs(*ino) : Result<ufs::InodeAttrs>(ino.status());
  if (!attrs.ok()) {
    ADD_FAILURE() << attrs.status().ToString();
    return {};
  }
  return *attrs;
}

class SfsTest : public ::testing::TestWithParam<SfsPlacement> {
 protected:
  void SetUp() override {
    device_ = std::make_unique<MemBlockDevice>(ufs::kBlockSize, 8192);
    SfsOptions options;
    options.placement = GetParam();
    Result<Sfs> sfs = CreateSfs(device_.get(), options, &clock_);
    ASSERT_TRUE(sfs.ok()) << sfs.status().ToString();
    sfs_ = sfs.take_value();
  }

  Credentials sys_ = Credentials::System();
  FakeClock clock_;
  std::unique_ptr<MemBlockDevice> device_;
  Sfs sfs_;
};

TEST_P(SfsTest, CreateWriteReadStat) {
  sp<File> file = *sfs_.root->CreateFile(*Name::Parse("f"), sys_);
  Buffer data(std::string("through the whole stack"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  Buffer out(data.size());
  EXPECT_EQ(*file->Read(0, out.mutable_span()), data.size());
  EXPECT_EQ(out.ToString(), "through the whole stack");
  Result<FileAttributes> attrs = file->Stat();
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size, data.size());
}

TEST_P(SfsTest, ResolveReturnsSameWrappedFile) {
  sp<File> created = *sfs_.root->CreateFile(*Name::Parse("same"), sys_);
  Result<sp<File>> resolved = ResolveAs<File>(sfs_.root, "same", sys_);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, created);
}

TEST_P(SfsTest, SubdirectoriesWorkThroughTheStack) {
  ASSERT_TRUE(sfs_.root->CreateContext(*Name::Parse("a"), sys_).ok());
  Result<sp<Context>> a = ResolveAs<Context>(sfs_.root, "a", sys_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE((*a)->CreateContext(*Name::Parse("b"), sys_).ok());
  sp<File> file = *sfs_.root->CreateFile(*Name::Parse("a/b/f"), sys_);
  Buffer data(std::string("nested"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  Result<sp<File>> through = ResolveAs<File>(sfs_.root, "a/b/f", sys_);
  ASSERT_TRUE(through.ok());
  Buffer out(6);
  EXPECT_EQ(*(*through)->Read(0, out.mutable_span()), 6u);
  EXPECT_EQ(out.ToString(), "nested");
}

TEST_P(SfsTest, RemoveThroughASubdirectoryDropsTheFilesCache) {
  // The disk layer frees an inode at its last unlink and the next file
  // reuses it, so a removal through a directory context must drop the
  // coherency layer's dirty blocks of the file, as a removal by full name
  // does: otherwise SyncFs writes them over the new file's synced data.
  ASSERT_TRUE(sfs_.root->CreateContext(*Name::Parse("d"), sys_).ok());
  {
    sp<File> f = *sfs_.root->CreateFile(*Name::Parse("d/f"), sys_);
    Buffer a(std::string(100, 'A'));
    ASSERT_TRUE(f->Write(0, a.span()).ok());
  }
  sp<Context> d = *ResolveAs<Context>(sfs_.root, "d", sys_);
  EXPECT_EQ(d->Unbind(Name(), sys_).code(), ErrorCode::kInvalidArgument);
  ASSERT_TRUE(d->Unbind(*Name::Parse("f"), sys_).ok());
  sp<File> g = *sfs_.root->CreateFile(*Name::Parse("d/g"), sys_);
  Buffer b(std::string(10, 'B'));
  ASSERT_TRUE(g->Write(0, b.span()).ok());
  ASSERT_TRUE(g->SyncFile().ok());
  ASSERT_TRUE(sfs_.root->SyncFs().ok());

  sp<File> on_disk = *ResolveAs<File>(sfs_.disk, "d/g", sys_);
  EXPECT_EQ(on_disk->Stat()->size, 10u);
  Buffer out(100);
  EXPECT_EQ(*on_disk->Read(0, out.mutable_span()), 10u);
  EXPECT_EQ(out.ToString().substr(0, 10), std::string(10, 'B'));
}

TEST_P(SfsTest, HeldFileIsFencedAfterItsLastUnlink) {
  // The disk layer frees an inode at its last unlink and the next file
  // reuses it. A file held across that unlink keeps its own cache above,
  // but nothing it does may reach the inode's next owner.
  sp<File> f = *sfs_.root->CreateFile(*Name::Parse("f"), sys_);
  ASSERT_TRUE(f->Write(0, Buffer(std::string("FFFFFFFF")).span()).ok());
  ASSERT_TRUE(f->SyncFile().ok());
  ASSERT_TRUE(sfs_.root->Unbind(*Name::Parse("f"), sys_).ok());
  sp<File> g = *sfs_.root->CreateFile(*Name::Parse("g"), sys_);
  ASSERT_TRUE(g->Write(0, Buffer(std::string("GGGGGGGG")).span()).ok());
  ASSERT_TRUE(g->SyncFile().ok());

  (void)f->Write(0, Buffer(std::string("ZZZZ")).span());
  EXPECT_FALSE(f->SyncFile().ok());
  ASSERT_TRUE(sfs_.root->SyncFs().ok());
  for (const sp<StackableFs>& fs :
       {sfs_.root, sp<StackableFs>(sfs_.disk)}) {
    sp<File> seen = *ResolveAs<File>(fs, "g", sys_);
    Buffer out(8);
    EXPECT_EQ(*seen->Read(0, out.mutable_span()), 8u);
    EXPECT_EQ(out.ToString(), "GGGGGGGG") << fs->GetFsInfo()->type;
  }
}

TEST_P(SfsTest, WritesReachDiskOnSync) {
  sp<File> file = *sfs_.root->CreateFile(*Name::Parse("durable"), sys_);
  Buffer data(std::string("must persist"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(sfs_.root->SyncFs().ok());
  // Read through the *disk layer* directly: the coherency layer must have
  // pushed both data and the length attribute down.
  Result<sp<File>> under = ResolveAs<File>(sfs_.disk, "durable", sys_);
  ASSERT_TRUE(under.ok());
  EXPECT_EQ((*under)->Stat()->size, data.size());
  Buffer out(data.size());
  EXPECT_EQ(*(*under)->Read(0, out.mutable_span()), data.size());
  EXPECT_EQ(out.ToString(), "must persist");
}

TEST_P(SfsTest, PersistsAcrossRemount) {
  sp<File> file = *sfs_.root->CreateFile(*Name::Parse("keep"), sys_);
  Buffer data(std::string("remount me"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(sfs_.root->SyncFs().ok());
  file.reset();
  sfs_ = Sfs{};  // unmount everything

  SfsOptions options;
  options.placement = GetParam();
  options.format = false;
  Result<Sfs> again = CreateSfs(device_.get(), options, &clock_);
  ASSERT_TRUE(again.ok());
  Result<sp<File>> found = ResolveAs<File>(again->root, "keep", sys_);
  ASSERT_TRUE(found.ok());
  Buffer out(10);
  EXPECT_EQ(*(*found)->Read(0, out.mutable_span()), 10u);
  EXPECT_EQ(out.ToString(), "remount me");
}

// SetLength and SetTimes only mark the coherency layer's cached attributes
// dirty. SyncFile must commit them even for a file no page of which was
// ever fetched or written, so the layer never bound it below.
TEST_P(SfsTest, SyncFileCommitsAttributesOfAFileNeverWritten) {
  sp<File> file = *sfs_.root->CreateFile(*Name::Parse("f"), sys_);
  ASSERT_TRUE(file->SetLength(12345).ok());
  ASSERT_TRUE(file->SetTimes(111, 222).ok());
  ASSERT_TRUE(file->SyncFile().ok());
  EXPECT_EQ((*ResolveAs<File>(sfs_.disk, "f", sys_))->Stat()->size, 12345u);
  ufs::InodeAttrs durable = AttrsAfterPowerFail(*device_, "f");
  EXPECT_EQ(durable.size, 12345u);
  EXPECT_EQ(durable.atime_ns, 111u);
  EXPECT_EQ(durable.mtime_ns, 222u);
}

// The coherency layer writes back a run of contiguous dirty pages in one
// lower call, as the VMM does: a 16-page run and a page apart are 2.
TEST_P(SfsTest, SyncFileWritesBackOneLowerCallPerRun) {
  if (GetParam() == SfsPlacement::kNotStacked) {
    GTEST_SKIP() << "the bare disk layer has no write-back cache";
  }
  sp<File> file = *sfs_.root->CreateFile(*Name::Parse("runs"), sys_);
  Rng rng(17);
  Buffer run = rng.RandomBuffer(16 * kPageSize);
  Buffer apart = rng.RandomBuffer(kPageSize);
  ASSERT_TRUE(file->Write(0, run.span()).ok());
  ASSERT_TRUE(file->Write(20 * kPageSize, apart.span()).ok());
  uint64_t outs = metrics::StatValue(*sfs_.coherency, "lower_page_outs");
  ASSERT_TRUE(file->SyncFile().ok());
  EXPECT_EQ(metrics::StatValue(*sfs_.coherency, "lower_page_outs") - outs, 2u);
  file.reset();
  sfs_ = Sfs{};  // unmount everything

  SfsOptions options;
  options.placement = GetParam();
  options.format = false;
  Result<Sfs> again = CreateSfs(device_.get(), options, &clock_);
  ASSERT_TRUE(again.ok());
  Result<sp<File>> found = ResolveAs<File>(again->root, "runs", sys_);
  ASSERT_TRUE(found.ok());
  Buffer out(21 * kPageSize);
  ASSERT_EQ(*(*found)->Read(0, out.mutable_span()), out.size());
  Buffer want(21 * kPageSize);
  want.WriteAt(0, run.span());
  want.WriteAt(20 * kPageSize, apart.span());
  EXPECT_EQ(out, want);
}

TEST_P(SfsTest, MappedClientsAreCoherentThroughSfs) {
  if (GetParam() == SfsPlacement::kNotStacked) {
    GTEST_SKIP() << "the bare disk layer is non-coherent by design";
  }
  sp<File> file = *sfs_.root->CreateFile(*Name::Parse("coh"), sys_);
  ASSERT_TRUE(file->SetLength(kPageSize).ok());
  sp<Domain> node = Domain::Create("client-node");
  sp<Vmm> vmm1 = Vmm::Create(node, "vmm1");
  sp<Vmm> vmm2 = Vmm::Create(node, "vmm2");
  sp<MappedRegion> w = *vmm1->Map(file, AccessRights::kReadWrite);
  sp<MappedRegion> r = *vmm2->Map(file, AccessRights::kReadOnly);

  Buffer out(5);
  ASSERT_TRUE(r->Read(0, out.mutable_span()).ok());  // cache the zero page
  Buffer data(std::string("fresh"));
  ASSERT_TRUE(w->Write(0, data.span()).ok());
  ASSERT_TRUE(r->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "fresh") << "SFS failed to keep mappings coherent";
}

TEST_P(SfsTest, FileOpsCoherentWithMappings) {
  if (GetParam() == SfsPlacement::kNotStacked) {
    GTEST_SKIP() << "the bare disk layer is non-coherent by design";
  }
  sp<File> file = *sfs_.root->CreateFile(*Name::Parse("mix"), sys_);
  ASSERT_TRUE(file->SetLength(kPageSize).ok());
  sp<Domain> node = Domain::Create("client-node");
  sp<Vmm> vmm = Vmm::Create(node, "vmm");
  sp<MappedRegion> region = *vmm->Map(file, AccessRights::kReadWrite);

  // Mapped write, then file read.
  Buffer via_map(std::string("via-map"));
  ASSERT_TRUE(region->Write(0, via_map.span()).ok());
  Buffer out(7);
  ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "via-map");

  // File write, then mapped read.
  Buffer via_file(std::string("via-fil"));
  ASSERT_TRUE(file->Write(0, via_file.span()).ok());
  ASSERT_TRUE(region->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "via-fil");
}

TEST_P(SfsTest, CachedOperationsSkipTheLowerLayer) {
  if (GetParam() != SfsPlacement::kTwoDomains) {
    GTEST_SKIP() << "lower-layer traffic is observable via domain crossings "
                    "only in the two-domain configuration";
  }
  sp<File> file = *sfs_.root->CreateFile(*Name::Parse("hot"), sys_);
  Buffer data(std::string("hot data"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  Buffer out(8);
  ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
  ASSERT_TRUE(file->Stat().ok());

  // Warm: further reads/writes/stats must not call into the disk domain.
  uint64_t cross = metrics::StatValue(*sfs_.disk_domain, "cross_calls");
  uint64_t inline_calls = metrics::StatValue(*sfs_.disk_domain, "inline_calls");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
    ASSERT_TRUE(file->Write(0, data.span()).ok());
    ASSERT_TRUE(file->Stat().ok());
  }
  EXPECT_EQ(metrics::StatValue(*sfs_.disk_domain, "cross_calls"), cross)
      << "cached coherency-layer ops still reached the disk layer";
  EXPECT_EQ(metrics::StatValue(*sfs_.disk_domain, "inline_calls"),
            inline_calls);
}

TEST_P(SfsTest, TruncateDiscardsBeyondEofEverywhere) {
  // Only a coherent stack keeps a mapping made before the truncation in
  // step; file ops must see zeros on every placement.
  const bool mapped = GetParam() != SfsPlacement::kNotStacked;
  sp<File> file = *sfs_.root->CreateFile(*Name::Parse("trunc"), sys_);
  Buffer data(std::string("0123456789"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  sp<Domain> node = Domain::Create("client-node");
  sp<Vmm> vmm = Vmm::Create(node, "vmm");
  sp<MappedRegion> region;
  Buffer out(10);
  if (mapped) {
    region = *vmm->Map(file, AccessRights::kReadOnly);
    ASSERT_TRUE(region->Read(0, out.mutable_span()).ok());
  }

  ASSERT_TRUE(file->SetLength(4).ok());
  EXPECT_EQ(*file->GetLength(), 4u);
  // Extending again must yield zeros, both via file ops and the mapping.
  ASSERT_TRUE(file->SetLength(10).ok());
  ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString().substr(0, 4), "0123");
  for (int i = 4; i < 10; ++i) {
    EXPECT_EQ(out.data()[i], 0) << "stale byte at " << i;
  }
  if (!mapped) {
    GTEST_SKIP() << "truncation coherence of a mapping needs the coherency "
                    "layer";
  }
  ASSERT_TRUE(region->Read(0, out.mutable_span()).ok());
  for (int i = 4; i < 10; ++i) {
    EXPECT_EQ(out.data()[i], 0) << "stale mapped byte at " << i;
  }
}

TEST_P(SfsTest, FsInfoReportsStackDepth) {
  Result<FsInfo> info = sfs_.root->GetFsInfo();
  ASSERT_TRUE(info.ok());
  if (GetParam() == SfsPlacement::kNotStacked) {
    EXPECT_EQ(info->type, "disk");
    EXPECT_EQ(info->stack_depth, 1u);
  } else {
    EXPECT_EQ(info->type, "coherency(disk)");
    EXPECT_EQ(info->stack_depth, 2u);
  }
}

TEST_P(SfsTest, RandomWorkloadMatchesModelAndDiskStaysConsistent) {
  Rng rng(20260707);
  std::map<std::string, Buffer> model;
  std::map<std::string, sp<File>> files;

  for (int step = 0; step < 200; ++step) {
    uint64_t action = rng.Below(10);
    if (action < 3 || files.empty()) {
      std::string name = "f" + std::to_string(rng.Below(12));
      if (files.count(name)) {
        continue;
      }
      Result<sp<File>> file = sfs_.root->CreateFile(Name::Single(name), sys_);
      if (file.ok()) {
        files[name] = *file;
        model[name] = Buffer();
      }
    } else {
      auto it = files.begin();
      std::advance(it, rng.Below(files.size()));
      const std::string& name = it->first;
      sp<File>& file = it->second;
      if (action < 7) {  // write
        uint64_t offset = rng.Below(3 * kPageSize);
        Buffer data = rng.RandomBuffer(rng.Range(1, kPageSize));
        ASSERT_TRUE(file->Write(offset, data.span()).ok());
        model[name].WriteAt(offset, data.span());
      } else if (action < 9) {  // read & compare
        const Buffer& ref = model[name];
        uint64_t offset = rng.Below(4 * kPageSize);
        size_t len = rng.Range(1, kPageSize);
        Buffer got(len), expect(len);
        Result<size_t> n = file->Read(offset, got.mutable_span());
        ASSERT_TRUE(n.ok());
        size_t ref_n = ref.ReadAt(offset, expect.mutable_span());
        ASSERT_EQ(*n, ref_n) << name << " offset " << offset;
        EXPECT_TRUE(std::equal(got.data(), got.data() + *n, expect.data()));
      } else {  // truncate
        uint64_t new_size = rng.Below(3 * kPageSize);
        ASSERT_TRUE(file->SetLength(new_size).ok());
        Buffer& ref = model[name];
        if (new_size <= ref.size()) {
          Buffer shrunk(new_size);
          ref.ReadAt(0, shrunk.mutable_span());
          ref = shrunk;
        } else {
          ref.resize(new_size);
        }
      }
    }
  }

  // Push everything to disk and fsck the device.
  ASSERT_TRUE(sfs_.root->SyncFs().ok());
  for (auto& [name, ref] : model) {
    Result<sp<File>> under = ResolveAs<File>(sfs_.disk, name, sys_);
    ASSERT_TRUE(under.ok());
    EXPECT_EQ((*under)->Stat()->size, ref.size()) << name;
  }
  files.clear();
  sfs_ = Sfs{};
  ufs::Checker checker(device_.get());
  Result<ufs::CheckReport> report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
}

INSTANTIATE_TEST_SUITE_P(
    Placements, SfsTest,
    ::testing::Values(SfsPlacement::kNotStacked, SfsPlacement::kOneDomain,
                      SfsPlacement::kTwoDomains),
    [](const ::testing::TestParamInfo<SfsPlacement>& info) {
      switch (info.param) {
        case SfsPlacement::kNotStacked:
          return "NotStacked";
        case SfsPlacement::kOneDomain:
          return "OneDomain";
        case SfsPlacement::kTwoDomains:
          return "TwoDomains";
      }
      return "Unknown";
    });

// --- uncached (write-through) configuration: Table 2's "No" rows ---

TEST(SfsUncachedTest, OperationsAlwaysReachTheLowerLayer) {
  MemBlockDevice device(ufs::kBlockSize, 4096);
  FakeClock clock;
  SfsOptions options;
  options.placement = SfsPlacement::kTwoDomains;
  options.coherency.cache_data = false;
  options.coherency.cache_attrs = false;
  Sfs sfs = *CreateSfs(&device, options, &clock);

  sp<File> file = *sfs.root->CreateFile(*Name::Parse("wt"), Credentials::System());
  Buffer data(std::string("write through"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());

  uint64_t cross = metrics::StatValue(*sfs.disk_domain, "cross_calls");
  Buffer out(13);
  ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "write through");
  ASSERT_TRUE(file->Stat().ok());
  EXPECT_GT(metrics::StatValue(*sfs.disk_domain, "cross_calls"), cross)
      << "uncached coherency layer should delegate to the disk layer";
}

TEST(SfsUncachedTest, UncachedStackIsStillCoherent) {
  MemBlockDevice device(ufs::kBlockSize, 4096);
  FakeClock clock;
  SfsOptions options;
  options.coherency.cache_data = false;
  Sfs sfs = *CreateSfs(&device, options, &clock);
  sp<File> file = *sfs.root->CreateFile(*Name::Parse("c"), Credentials::System());
  ASSERT_TRUE(file->SetLength(kPageSize).ok());

  sp<Domain> node = Domain::Create("n");
  sp<Vmm> vmm1 = Vmm::Create(node, "vmm1");
  sp<Vmm> vmm2 = Vmm::Create(node, "vmm2");
  sp<MappedRegion> w = *vmm1->Map(file, AccessRights::kReadWrite);
  sp<MappedRegion> r = *vmm2->Map(file, AccessRights::kReadOnly);
  Buffer out(4);
  ASSERT_TRUE(r->Read(0, out.mutable_span()).ok());
  Buffer data(std::string("sync"));
  ASSERT_TRUE(w->Write(0, data.span()).ok());
  ASSERT_TRUE(r->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "sync");
}

// Dropping an SFS and everything from it destroys its layers and files.
// A file held past its layers keeps working (the layers' handles go, the
// state the file needs stays), and dropping it last unmounts the UFS,
// whose image then holds what the file wrote.
TEST(SfsLifetime, ADroppedSfsIsDestroyedAndAHeldFileKeepsWorking) {
  Credentials sys = Credentials::System();
  FakeClock clock;
  MemBlockDevice device(ufs::kBlockSize, 2048);
  sp<Domain> app = Domain::Create("app");
  size_t providers = metrics::Registry::Global().NumProviders();
  std::vector<std::pair<std::string, std::weak_ptr<void>>> weak;
  sp<File> held;
  {
    Sfs sfs = *CreateSfs(&device, SfsOptions{}, &clock);
    held = *sfs.root->CreateFile(*Name::Parse("kept"), sys);
    Buffer before(std::string(kPageSize, 'b'));
    ASSERT_TRUE(held->Write(0, before.span()).ok());

    sp<File> mapped = *sfs.root->CreateFile(*Name::Parse("mapped"), sys);
    ASSERT_TRUE(mapped->Write(0, before.span()).ok());
    sp<Vmm> vmm = Vmm::Create(app, "vmm");
    sp<MappedRegion> region = *vmm->Map(mapped, AccessRights::kReadWrite);
    Buffer page(kPageSize);
    ASSERT_TRUE(region->Read(0, page.mutable_span()).ok());
    weak.push_back({"the coherency layer", sfs.coherency});
    weak.push_back({"the disk layer", sfs.disk});
    weak.push_back({"a file", mapped});
    weak.push_back({"the disk layer's file", ResolveAs<File>(sfs.disk,
                                                             "mapped", sys)
                                                 .value()});
    weak.push_back({"a vmm", vmm});
  }
  for (const auto& [what, ref] : weak) {
    EXPECT_TRUE(ref.expired()) << what << " outlived every user reference";
  }

  Buffer after(std::string(kPageSize, 'a'));
  ASSERT_TRUE(held->Write(kPageSize, after.span()).ok());
  ASSERT_TRUE(held->SyncFile().ok());
  Buffer page(kPageSize);
  ASSERT_EQ(*held->Read(kPageSize, page.mutable_span()), kPageSize);
  EXPECT_EQ(page.ToString(), after.ToString());
  held.reset();
  EXPECT_EQ(metrics::Registry::Global().NumProviders(), providers);

  Result<std::unique_ptr<ufs::Ufs>> fs = ufs::Ufs::Mount(&device);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  ufs::InodeNum ino = *(*fs)->Lookup(ufs::kRootInode, "kept");
  EXPECT_EQ((*fs)->GetAttrs(ino)->size, 2 * kPageSize);
}

}  // namespace
}  // namespace springfs
