// Tests for the disk layer: the naming-context surface over UFS, File
// objects, memory-object bind/paging against a VMM, and the non-coherence
// the paper ascribes to the base layer (section 6.2).

#include <gtest/gtest.h>

#include "src/layers/disklayer/disk_layer.h"
#include "src/support/rng.h"
#include "src/vmm/vmm.h"

namespace springfs {
namespace {

class DiskLayerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_unique<MemBlockDevice>(ufs::kBlockSize, 4096);
    domain_ = Domain::Create("disklayer");
    Result<sp<DiskLayer>> layer =
        DiskLayer::Format(domain_, device_.get(), &clock_);
    ASSERT_TRUE(layer.ok()) << layer.status().ToString();
    layer_ = layer.take_value();
  }

  Credentials sys_ = Credentials::System();
  FakeClock clock_;
  std::unique_ptr<MemBlockDevice> device_;
  sp<Domain> domain_;
  sp<DiskLayer> layer_;
};

TEST_F(DiskLayerTest, CreateFileThenResolve) {
  Result<sp<File>> file = layer_->CreateFile(*Name::Parse("hello"), sys_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  Result<sp<File>> found = ResolveAs<File>(layer_, "hello", sys_);
  ASSERT_TRUE(found.ok());
  // Equivalent lookups return the same file object (open-file state).
  EXPECT_EQ(*found, *file);
}

TEST_F(DiskLayerTest, FileReadWriteStat) {
  sp<File> file = *layer_->CreateFile(*Name::Parse("data"), sys_);
  Buffer content(std::string("disk layer bytes"));
  ASSERT_TRUE(file->Write(0, content.span()).ok());
  Buffer out(16);
  EXPECT_EQ(*file->Read(0, out.mutable_span()), 16u);
  EXPECT_EQ(out.ToString(), "disk layer bytes");
  Result<FileAttributes> attrs = file->Stat();
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size, 16u);
  EXPECT_EQ(attrs->kind, FileKind::kRegular);
}

TEST_F(DiskLayerTest, DirectoriesResolveAsContexts) {
  ASSERT_TRUE(layer_->CreateContext(*Name::Parse("dir"), sys_).ok());
  Result<sp<Context>> dir = ResolveAs<Context>(layer_, "dir", sys_);
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE((*dir)->CreateContext(*Name::Parse("sub"), sys_).ok());
  sp<File> file = *layer_->CreateFile(*Name::Parse("dir/sub/f"), sys_);
  Result<sp<File>> found = ResolveAs<File>(layer_, "dir/sub/f", sys_);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, file);
}

TEST_F(DiskLayerTest, ListShowsEntriesWithKind) {
  ASSERT_TRUE(layer_->CreateContext(*Name::Parse("d"), sys_).ok());
  ASSERT_TRUE(layer_->CreateFile(*Name::Parse("f"), sys_).ok());
  Result<std::vector<BindingInfo>> list = layer_->List(sys_);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 2u);
  for (const auto& entry : *list) {
    if (entry.name == "d") {
      EXPECT_TRUE(entry.is_context);
    } else {
      EXPECT_EQ(entry.name, "f");
      EXPECT_FALSE(entry.is_context);
    }
  }
}

TEST_F(DiskLayerTest, BindOfOwnFileIsHardLink) {
  sp<File> file = *layer_->CreateFile(*Name::Parse("orig"), sys_);
  ASSERT_TRUE(layer_->Bind(*Name::Parse("alias"), file, sys_).ok());
  Result<sp<File>> via_alias = ResolveAs<File>(layer_, "alias", sys_);
  ASSERT_TRUE(via_alias.ok());
  EXPECT_EQ(*via_alias, file);
  EXPECT_EQ(file->Stat()->nlink, 2u);
}

TEST_F(DiskLayerTest, BindOfForeignObjectRejected) {
  struct Foreign : Object {};
  EXPECT_EQ(layer_->Bind(*Name::Parse("x"), std::make_shared<Foreign>(), sys_)
                .code(),
            ErrorCode::kNotSupported);
}

TEST_F(DiskLayerTest, UnbindRemovesFile) {
  ASSERT_TRUE(layer_->CreateFile(*Name::Parse("gone"), sys_).ok());
  ASSERT_TRUE(layer_->Unbind(*Name::Parse("gone"), sys_).ok());
  EXPECT_EQ(layer_->Resolve(*Name::Parse("gone"), sys_).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(DiskLayerTest, HeldFileIsFencedAfterItsLastUnlink) {
  // The next file created reuses a freed inode number, so a file held
  // across its last unlink, and a mapping of it, must not write into the
  // inode's next owner: both are fenced and answer kStale.
  sp<File> f = *layer_->CreateFile(*Name::Parse("f"), sys_);
  ASSERT_TRUE(f->Write(0, Buffer(std::string("FFFFFFFF")).span()).ok());
  ASSERT_TRUE(f->SyncFile().ok());
  sp<Vmm> vmm = Vmm::Create(domain_, "vmm");
  sp<MappedRegion> region = *vmm->Map(f, AccessRights::kReadWrite);
  ASSERT_TRUE(region->Write(0, Buffer(std::string("FFFF")).span()).ok());
  ASSERT_TRUE(region->Sync().ok());
  ASSERT_TRUE(layer_->Unbind(*Name::Parse("f"), sys_).ok());
  sp<File> g = *layer_->CreateFile(*Name::Parse("g"), sys_);
  ASSERT_TRUE(g->Write(0, Buffer(std::string("GGGGGGGG")).span()).ok());
  ASSERT_TRUE(g->SyncFile().ok());

  Buffer z(std::string("ZZZZ"));
  EXPECT_EQ(f->Write(0, z.span()).code(), ErrorCode::kStale);
  EXPECT_FALSE(f->SyncFile().ok());
  EXPECT_EQ(f->Stat().code(), ErrorCode::kStale);
  ASSERT_TRUE(region->Write(0, z.span()).ok());  // a page the VMM holds
  EXPECT_FALSE(region->Sync().ok());
  ASSERT_TRUE(layer_->SyncFs().ok());
  Buffer out(8);
  EXPECT_EQ(*g->Read(0, out.mutable_span()), 8u);
  EXPECT_EQ(out.ToString(), "GGGGGGGG");

  // A hard link over a held file's last name frees its inode the same way.
  sp<File> h = *layer_->CreateFile(*Name::Parse("h"), sys_);
  ASSERT_TRUE(h->Write(0, Buffer(std::string("HHHHHHHH")).span()).ok());
  ASSERT_TRUE(layer_->Bind(*Name::Parse("g"), h, sys_, /*replace=*/true).ok());
  sp<File> k = *layer_->CreateFile(*Name::Parse("k"), sys_);
  ASSERT_TRUE(k->Write(0, Buffer(std::string("KKKKKKKK")).span()).ok());
  ASSERT_TRUE(k->SyncFile().ok());
  EXPECT_EQ(g->Write(0, z.span()).code(), ErrorCode::kStale);
  EXPECT_FALSE(g->SyncFile().ok());
  ASSERT_TRUE(layer_->SyncFs().ok());
  EXPECT_EQ(*k->Read(0, out.mutable_span()), 8u);
  EXPECT_EQ(out.ToString(), "KKKKKKKK");
}

TEST_F(DiskLayerTest, StackOnRejected) {
  EXPECT_EQ(layer_->StackOn(layer_).code(), ErrorCode::kNotSupported);
}

TEST_F(DiskLayerTest, GetFsInfo) {
  Result<FsInfo> info = layer_->GetFsInfo();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->type, "disk");
  EXPECT_EQ(info->block_size, ufs::kBlockSize);
  EXPECT_EQ(info->stack_depth, 1u);
  EXPECT_GT(info->free_blocks, 0u);
}

TEST_F(DiskLayerTest, MapThroughVmm) {
  sp<File> file = *layer_->CreateFile(*Name::Parse("mapped"), sys_);
  Rng rng(1);
  Buffer content = rng.RandomBuffer(2 * kPageSize + 77);
  ASSERT_TRUE(file->Write(0, content.span()).ok());

  sp<Vmm> vmm = Vmm::Create(domain_, "vmm");
  Result<sp<MappedRegion>> region = vmm->Map(file, AccessRights::kReadOnly);
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  Buffer out(content.size());
  ASSERT_TRUE((*region)->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(Xxh64(ByteSpan(out.data(), content.size())),
            Xxh64(content.span()));
}

TEST_F(DiskLayerTest, MappedWritesReachDiskAfterSyncAndSetLength) {
  sp<File> file = *layer_->CreateFile(*Name::Parse("wfile"), sys_);
  sp<Vmm> vmm = Vmm::Create(domain_, "vmm");
  sp<MappedRegion> region = *vmm->Map(file, AccessRights::kReadWrite);
  Buffer data(std::string("dirty page content"));
  ASSERT_TRUE(region->Write(0, data.span()).ok());
  ASSERT_TRUE(region->Sync().ok());
  // Block writes do not extend the length; a client managing the file via
  // the memory-object interface sets it explicitly (paper Table 1: length
  // ops live on the memory object).
  ASSERT_TRUE(file->SetLength(data.size()).ok());
  Buffer out(data.size());
  EXPECT_EQ(*file->Read(0, out.mutable_span()), data.size());
  EXPECT_EQ(out.ToString(), "dirty page content");
}

TEST_F(DiskLayerTest, DiskLayerIsNotCoherent) {
  // The base layer performs no coherency actions: two VMMs mapping the same
  // disk file do NOT see each other's un-synced writes. This is by design
  // (section 6.2); the coherency layer on top fixes it.
  sp<File> file = *layer_->CreateFile(*Name::Parse("nc"), sys_);
  ASSERT_TRUE(file->SetLength(kPageSize).ok());
  sp<Vmm> vmm1 = Vmm::Create(domain_, "vmm1");
  sp<Vmm> vmm2 = Vmm::Create(domain_, "vmm2");
  sp<MappedRegion> w = *vmm1->Map(file, AccessRights::kReadWrite);
  sp<MappedRegion> r = *vmm2->Map(file, AccessRights::kReadOnly);

  // Reader caches the (zero) page first.
  Buffer out(5);
  ASSERT_TRUE(r->Read(0, out.mutable_span()).ok());
  // Writer updates and even syncs to disk.
  Buffer data(std::string("fresh"));
  ASSERT_TRUE(w->Write(0, data.span()).ok());
  ASSERT_TRUE(w->Sync().ok());
  // The reader still sees its stale cached copy: nobody flushed it.
  ASSERT_TRUE(r->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.data()[0], 0) << "disk layer unexpectedly ran coherency";
}

TEST_F(DiskLayerTest, EquivalentBindsShareOneChannel) {
  sp<File> file = *layer_->CreateFile(*Name::Parse("sharebind"), sys_);
  ASSERT_TRUE(file->SetLength(kPageSize).ok());
  sp<Vmm> vmm = Vmm::Create(domain_, "vmm");
  sp<MappedRegion> r1 = *vmm->Map(file, AccessRights::kReadOnly);
  // Re-resolve the file by name (an "equivalent memory object").
  sp<File> again = *ResolveAs<File>(layer_, "sharebind", sys_);
  sp<MappedRegion> r2 = *vmm->Map(again, AccessRights::kReadOnly);
  EXPECT_EQ(r1->channel_id(), r2->channel_id());
}

TEST_F(DiskLayerTest, PersistenceAcrossRemount) {
  sp<File> file = *layer_->CreateFile(*Name::Parse("keep"), sys_);
  Buffer data(std::string("still here"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(layer_->SyncFs().ok());
  file.reset();
  layer_.reset();

  Result<sp<DiskLayer>> remounted =
      DiskLayer::Mount(domain_, device_.get(), &clock_);
  ASSERT_TRUE(remounted.ok());
  Result<sp<File>> found = ResolveAs<File>(*remounted, "keep", sys_);
  ASSERT_TRUE(found.ok());
  Buffer out(10);
  EXPECT_EQ(*(*found)->Read(0, out.mutable_span()), 10u);
  EXPECT_EQ(out.ToString(), "still here");
}

TEST_F(DiskLayerTest, ServantsLiveInTheLayerDomain) {
  // Calls from outside the layer's domain are cross-domain; from inside
  // they are plain procedure calls — placement transparency (section 6.4).
  sp<File> file = *layer_->CreateFile(*Name::Parse("dom"), sys_);
  uint64_t cross = metrics::StatValue(*domain_, "cross_calls");
  uint64_t inline_calls = metrics::StatValue(*domain_, "inline_calls");
  ASSERT_TRUE(file->Stat().ok());
  EXPECT_EQ(metrics::StatValue(*domain_, "cross_calls"), cross + 1);
  {
    Domain::Scope scope(domain_.get());
    ASSERT_TRUE(file->Stat().ok());
  }
  EXPECT_EQ(metrics::StatValue(*domain_, "cross_calls"), cross + 1);
  EXPECT_GE(metrics::StatValue(*domain_, "inline_calls"), inline_calls + 1);
}

}  // namespace
}  // namespace springfs
