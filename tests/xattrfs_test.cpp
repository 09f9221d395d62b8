// Tests for XATTRFS: the extended-attributes layer and the section 4.3
// interface-subclassing discovery pattern (narrow<XattrFile>()).

#include <gtest/gtest.h>

#include "src/layers/sfs/sfs.h"
#include "src/layers/xattrfs/xattr_layer.h"
#include "src/support/rng.h"
#include "src/vmm/vmm.h"

namespace springfs {
namespace {

class XattrfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_unique<MemBlockDevice>(ufs::kBlockSize, 8192);
    sfs_ = *CreateSfs(device_.get(), SfsOptions{}, &clock_);
    xattrfs_ = XattrLayer::Create(Domain::Create("xattrfs"), &clock_);
    ASSERT_TRUE(xattrfs_->StackOn(sfs_.root).ok());
  }

  Credentials sys_ = Credentials::System();
  FakeClock clock_;
  std::unique_ptr<MemBlockDevice> device_;
  Sfs sfs_;
  sp<XattrLayer> xattrfs_;
};

TEST_F(XattrfsTest, NarrowDiscoversTheCapability) {
  // The section 4.3 pattern: clients narrow to discover extended
  // functionality instead of using untyped escape hatches.
  ASSERT_TRUE(xattrfs_->CreateFile(*Name::Parse("f"), sys_).ok());
  sp<Object> via_xattrfs = *xattrfs_->Resolve(*Name::Parse("f"), sys_);
  EXPECT_NE(narrow<XattrFile>(via_xattrfs), nullptr);
  // The same file resolved through plain SFS does NOT narrow.
  sp<Object> via_sfs = *sfs_.root->Resolve(*Name::Parse("f"), sys_);
  EXPECT_EQ(narrow<XattrFile>(via_sfs), nullptr);
  EXPECT_NE(narrow<File>(via_sfs), nullptr);
}

TEST_F(XattrfsTest, SetGetListRemove) {
  sp<XattrFile> file = narrow<XattrFile>(
      *xattrfs_->CreateFile(*Name::Parse("doc"), sys_));
  ASSERT_NE(file, nullptr);
  Buffer author(std::string("khalidi+nelson"));
  Buffer year(std::string("1993"));
  ASSERT_TRUE(file->SetXattr("author", author.span()).ok());
  ASSERT_TRUE(file->SetXattr("year", year.span()).ok());

  Result<Buffer> got = file->GetXattr("author");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->ToString(), "khalidi+nelson");

  Result<std::vector<std::string>> names = file->ListXattrs();
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 2u);
  EXPECT_EQ((*names)[0], "author");
  EXPECT_EQ((*names)[1], "year");

  ASSERT_TRUE(file->RemoveXattr("author").ok());
  EXPECT_EQ(file->GetXattr("author").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(file->RemoveXattr("author").code(), ErrorCode::kNotFound);
}

TEST_F(XattrfsTest, AttributesPersistViaShadowFiles) {
  {
    sp<XattrFile> file = narrow<XattrFile>(
        *xattrfs_->CreateFile(*Name::Parse("p"), sys_));
    Buffer v(std::string("survives"));
    ASSERT_TRUE(file->SetXattr("key", v.span()).ok());
    ASSERT_TRUE(xattrfs_->SyncFs().ok());
  }
  // A fresh layer instance over the same stack reloads the shadow.
  sp<XattrLayer> fresh = XattrLayer::Create(Domain::Create("x2"), &clock_);
  ASSERT_TRUE(fresh->StackOn(sfs_.root).ok());
  sp<XattrFile> file = narrow<XattrFile>(
      *fresh->Resolve(*Name::Parse("p"), sys_));
  ASSERT_NE(file, nullptr);
  Result<Buffer> got = file->GetXattr("key");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->ToString(), "survives");
  EXPECT_GE(metrics::StatValue(*fresh, "shadow_loads"), 1u);
}

TEST_F(XattrfsTest, ShadowFilesHiddenFromListing) {
  sp<XattrFile> file = narrow<XattrFile>(
      *xattrfs_->CreateFile(*Name::Parse("f"), sys_));
  Buffer v(std::string("x"));
  ASSERT_TRUE(file->SetXattr("k", v.span()).ok());
  Result<std::vector<BindingInfo>> list = xattrfs_->List(sys_);
  ASSERT_TRUE(list.ok());
  for (const auto& entry : *list) {
    EXPECT_EQ(entry.name.find(".xattr"), std::string::npos) << entry.name;
  }
  // But the shadow exists below.
  EXPECT_TRUE(sfs_.root->Resolve(*Name::Parse("f.xattr"), sys_).ok());
  EXPECT_EQ(xattrfs_->Resolve(*Name::Parse("f.xattr"), sys_).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(XattrfsTest, UnbindRemovesShadow) {
  sp<XattrFile> file = narrow<XattrFile>(
      *xattrfs_->CreateFile(*Name::Parse("gone"), sys_));
  Buffer v(std::string("x"));
  ASSERT_TRUE(file->SetXattr("k", v.span()).ok());
  file.reset();
  ASSERT_TRUE(xattrfs_->Unbind(*Name::Parse("gone"), sys_).ok());
  EXPECT_EQ(sfs_.root->Resolve(*Name::Parse("gone.xattr"), sys_)
                .status().code(),
            ErrorCode::kNotFound);
}

TEST_F(XattrfsTest, SubdirectoryContextActsLikeTheRoot) {
  // A directory context names the same files as the root: its listing
  // hides the attribute shadows, a removal through it forgets the file,
  // and a hard link made through it binds the file below.
  ASSERT_TRUE(xattrfs_->CreateContext(*Name::Parse("d"), sys_).ok());
  {
    sp<XattrFile> f = narrow<XattrFile>(
        *xattrfs_->CreateFile(*Name::Parse("d/f"), sys_));
    Buffer a(std::string(100, 'A'));
    ASSERT_TRUE(f->Write(0, a.span()).ok());
    ASSERT_TRUE(f->SetXattr("k", a.span()).ok());
  }
  ASSERT_TRUE(sfs_.root->Resolve(*Name::Parse("d/f.xattr"), sys_).ok());
  sp<Context> d = *ResolveAs<Context>(xattrfs_, "d", sys_);
  Result<std::vector<BindingInfo>> list = d->List(sys_);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].name, "f");

  ASSERT_TRUE(d->Unbind(*Name::Parse("f"), sys_).ok());
  sp<File> again = *xattrfs_->CreateFile(*Name::Parse("d/f"), sys_);
  Buffer b(std::string(10, 'B'));
  ASSERT_TRUE(again->Write(0, b.span()).ok());
  EXPECT_EQ(again->Stat()->size, 10u);
  sp<File> below = *ResolveAs<File>(sfs_.root, "d/f", sys_);
  EXPECT_EQ(below->Stat()->size, 10u);

  Status linked = d->Bind(*Name::Parse("h"), again, sys_);
  ASSERT_TRUE(linked.ok()) << linked.ToString();
  sp<File> link = *ResolveAs<File>(xattrfs_, "d/h", sys_);
  Buffer out(10);
  EXPECT_EQ(*link->Read(0, out.mutable_span()), 10u);
  EXPECT_EQ(out.ToString(), std::string(10, 'B'));
}

TEST_F(XattrfsTest, DataPathIsForwardedToTheUnderlyingFile) {
  sp<File> file = *xattrfs_->CreateFile(*Name::Parse("data"), sys_);
  ASSERT_TRUE(file->SetLength(kPageSize).ok());
  // Map through the xattrfs view; the bind is forwarded, so the channel is
  // identical to a direct SFS mapping.
  sp<Vmm> vmm = Vmm::Create(Domain::Create("n"), "vmm");
  sp<MappedRegion> via_xattr = *vmm->Map(file, AccessRights::kReadWrite);
  sp<File> direct = *ResolveAs<File>(sfs_.root, "data", sys_);
  sp<MappedRegion> via_sfs = *vmm->Map(direct, AccessRights::kReadOnly);
  EXPECT_EQ(via_xattr->channel_id(), via_sfs->channel_id());
  // Data round-trips.
  Buffer payload(std::string("forwarded"));
  ASSERT_TRUE(via_xattr->Write(0, payload.span()).ok());
  Buffer out(9);
  ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "forwarded");
}

TEST_F(XattrfsTest, BinaryValuesAndOverwrite) {
  sp<XattrFile> file = narrow<XattrFile>(
      *xattrfs_->CreateFile(*Name::Parse("b"), sys_));
  Rng rng(17);
  Buffer blob = rng.RandomBuffer(1000);
  ASSERT_TRUE(file->SetXattr("blob", blob.span()).ok());
  Result<Buffer> got = file->GetXattr("blob");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, blob);
  Buffer small(std::string("new"));
  ASSERT_TRUE(file->SetXattr("blob", small.span()).ok());
  EXPECT_EQ(file->GetXattr("blob")->ToString(), "new");
  EXPECT_EQ(file->ListXattrs()->size(), 1u);
}

TEST_F(XattrfsTest, RejectsBadNames) {
  sp<XattrFile> file = narrow<XattrFile>(
      *xattrfs_->CreateFile(*Name::Parse("f"), sys_));
  Buffer v(std::string("x"));
  EXPECT_EQ(file->SetXattr("", v.span()).code(), ErrorCode::kInvalidArgument);
  std::string nul_name("a\0b", 3);
  EXPECT_EQ(file->SetXattr(nul_name, v.span()).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(XattrfsTest, ManyAttributesRoundTrip) {
  sp<XattrFile> file = narrow<XattrFile>(
      *xattrfs_->CreateFile(*Name::Parse("many"), sys_));
  Rng rng(18);
  std::map<std::string, Buffer> model;
  for (int i = 0; i < 64; ++i) {
    std::string name = "attr" + std::to_string(i);
    Buffer value = rng.RandomBuffer(rng.Range(0, 200));
    ASSERT_TRUE(file->SetXattr(name, value.span()).ok());
    model[name] = value;
  }
  EXPECT_EQ(file->ListXattrs()->size(), 64u);
  for (const auto& [name, value] : model) {
    Result<Buffer> got = file->GetXattr(name);
    ASSERT_TRUE(got.ok()) << name;
    EXPECT_EQ(*got, value) << name;
  }
}

TEST_F(XattrfsTest, FsInfoAndStackDepth) {
  Result<FsInfo> info = xattrfs_->GetFsInfo();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->type, "xattrfs(coherency(disk))");
  EXPECT_EQ(info->stack_depth, 3u);
}

}  // namespace
}  // namespace springfs
