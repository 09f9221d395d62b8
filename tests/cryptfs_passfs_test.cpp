// Tests for the encryption layer (CRYPTFS) and the pass-through layer
// (PASSFS), both built on the coherency layer's transform hooks.

#include <gtest/gtest.h>

#include "src/layers/cryptfs/crypt_layer.h"
#include "src/layers/passfs/pass_layer.h"
#include "src/layers/sfs/sfs.h"
#include "src/support/rng.h"
#include "src/vmm/vmm.h"

namespace springfs {
namespace {

struct CryptStack {
  std::unique_ptr<MemBlockDevice> device;
  Sfs sfs;
  sp<CryptLayer> cryptfs;
};

CryptStack MakeCryptStack(FakeClock* clock, const std::string& passphrase) {
  CryptStack stack;
  stack.device = std::make_unique<MemBlockDevice>(ufs::kBlockSize, 8192);
  stack.sfs = *CreateSfs(stack.device.get(), SfsOptions{}, clock);
  stack.cryptfs =
      CryptLayer::Create(Domain::Create("cryptfs"), passphrase, {}, clock);
  SPRINGFS_CHECK(stack.cryptfs->StackOn(stack.sfs.root).ok());
  return stack;
}

class CryptfsTest : public ::testing::Test {
 protected:
  void SetUp() override { stack_ = MakeCryptStack(&clock_, "hunter2"); }

  Credentials sys_ = Credentials::System();
  FakeClock clock_;
  CryptStack stack_;
};

TEST_F(CryptfsTest, PlaintextRoundTrip) {
  sp<File> file = *stack_.cryptfs->CreateFile(*Name::Parse("secret"), sys_);
  Buffer data(std::string("attack at dawn"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(file->SyncFile().ok());
  Buffer out(data.size());
  EXPECT_EQ(*file->Read(0, out.mutable_span()), data.size());
  EXPECT_EQ(out.ToString(), "attack at dawn");
}

TEST_F(CryptfsTest, UnderlyingFileHoldsCiphertext) {
  sp<File> file = *stack_.cryptfs->CreateFile(*Name::Parse("secret"), sys_);
  Buffer data(std::string("attack at dawn"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(file->SyncFile().ok());

  // Direct access to the underlying SFS file reads ciphertext (the
  // administrative-exposure point of section 4.2.1).
  sp<File> under = *ResolveAs<File>(stack_.sfs.root, "secret", sys_);
  Buffer raw(data.size());
  ASSERT_TRUE(under->Read(0, raw.mutable_span()).ok());
  EXPECT_NE(raw.ToString(), "attack at dawn");
  EXPECT_NE(raw.ToString().find('\0') == std::string::npos &&
                raw.ToString() == data.ToString(),
            true);
}

TEST_F(CryptfsTest, WrongPassphraseYieldsGarbage) {
  {
    sp<File> file = *stack_.cryptfs->CreateFile(*Name::Parse("s"), sys_);
    Buffer data(std::string("the real content."));
    ASSERT_TRUE(file->Write(0, data.span()).ok());
    ASSERT_TRUE(file->SyncFile().ok());
  }
  sp<CryptLayer> wrong =
      CryptLayer::Create(Domain::Create("crypt-wrong"), "password1", {},
                         &clock_);
  ASSERT_TRUE(wrong->StackOn(stack_.sfs.root).ok());
  Result<sp<File>> file = ResolveAs<File>(wrong, "s", sys_);
  ASSERT_TRUE(file.ok());
  Buffer out(17);
  ASSERT_TRUE((*file)->Read(0, out.mutable_span()).ok());
  EXPECT_NE(out.ToString(), "the real content.");
}

TEST_F(CryptfsTest, RightPassphraseAfterRemount) {
  {
    sp<File> file = *stack_.cryptfs->CreateFile(*Name::Parse("s"), sys_);
    Buffer data(std::string("survives remount"));
    ASSERT_TRUE(file->Write(0, data.span()).ok());
    ASSERT_TRUE(file->SyncFile().ok());
  }
  sp<CryptLayer> fresh = CryptLayer::Create(Domain::Create("crypt2"),
                                            "hunter2", {}, &clock_);
  ASSERT_TRUE(fresh->StackOn(stack_.sfs.root).ok());
  sp<File> file = *ResolveAs<File>(fresh, "s", sys_);
  Buffer out(16);
  ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "survives remount");
}

TEST_F(CryptfsTest, MappedClientsSeePlaintextCoherently) {
  sp<File> file = *stack_.cryptfs->CreateFile(*Name::Parse("m"), sys_);
  ASSERT_TRUE(file->SetLength(kPageSize).ok());
  sp<Vmm> vmm1 = Vmm::Create(Domain::Create("n1"), "vmm1");
  sp<Vmm> vmm2 = Vmm::Create(Domain::Create("n2"), "vmm2");
  sp<MappedRegion> w = *vmm1->Map(file, AccessRights::kReadWrite);
  sp<MappedRegion> r = *vmm2->Map(file, AccessRights::kReadOnly);
  Buffer data(std::string("plain"));
  ASSERT_TRUE(w->Write(0, data.span()).ok());
  Buffer out(5);
  ASSERT_TRUE(r->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "plain");
}

TEST_F(CryptfsTest, LargeRandomRoundTrip) {
  sp<File> file = *stack_.cryptfs->CreateFile(*Name::Parse("big"), sys_);
  Rng rng(11);
  Buffer data = rng.RandomBuffer(10 * kPageSize + 123);
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(file->SyncFile().ok());
  // Re-read through a fresh layer instance (forces decryption from disk).
  sp<CryptLayer> fresh = CryptLayer::Create(Domain::Create("crypt3"),
                                            "hunter2", {}, &clock_);
  ASSERT_TRUE(fresh->StackOn(stack_.sfs.root).ok());
  sp<File> again = *ResolveAs<File>(fresh, "big", sys_);
  Buffer out(data.size());
  ASSERT_TRUE(again->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(Xxh64(out.span()), Xxh64(data.span()));
}

TEST_F(CryptfsTest, FsInfoNamesTheLayer) {
  Result<FsInfo> info = stack_.cryptfs->GetFsInfo();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->type, "cryptfs(coherency(disk))");
  EXPECT_EQ(info->stack_depth, 3u);
}

// --- PASSFS ---

class PassfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_unique<MemBlockDevice>(ufs::kBlockSize, 8192);
    sfs_ = *CreateSfs(device_.get(), SfsOptions{}, &clock_);
    passfs_ = PassLayer::Create(Domain::Create("passfs"), {}, 0, &clock_);
    ASSERT_TRUE(passfs_->StackOn(sfs_.root).ok());
  }

  Credentials sys_ = Credentials::System();
  FakeClock clock_;
  std::unique_ptr<MemBlockDevice> device_;
  Sfs sfs_;
  sp<PassLayer> passfs_;
};

TEST_F(PassfsTest, TransparentPassThrough) {
  sp<File> file = *passfs_->CreateFile(*Name::Parse("f"), sys_);
  Buffer data(std::string("unchanged"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(file->SyncFile().ok());
  // The underlying bytes are identical (identity transform).
  sp<File> under = *ResolveAs<File>(sfs_.root, "f", sys_);
  Buffer raw(9);
  ASSERT_TRUE(under->Read(0, raw.mutable_span()).ok());
  EXPECT_EQ(raw.ToString(), "unchanged");
}

TEST_F(PassfsTest, CountsTransitPages) {
  sp<File> file = *passfs_->CreateFile(*Name::Parse("f"), sys_);
  Rng rng(12);
  Buffer data = rng.RandomBuffer(3 * kPageSize);
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(file->SyncFile().ok());
  PassLayerCounters counters = passfs_->counters();
  EXPECT_GE(counters.pages_encoded, 3u);
}

TEST_F(PassfsTest, InjectedTransitFaultPropagates) {
  sp<File> file = *passfs_->CreateFile(*Name::Parse("f"), sys_);
  Buffer data(std::string("will fail to sync"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  passfs_->set_fail_transit(true);
  EXPECT_EQ(file->SyncFile().code(), ErrorCode::kIoError);
  passfs_->set_fail_transit(false);
  EXPECT_TRUE(file->SyncFile().ok());
}

TEST_F(PassfsTest, DeepStackStillCorrect) {
  // passfs on passfs on passfs on SFS: content survives any depth.
  sp<PassLayer> l2 = PassLayer::Create(Domain::Create("p2"), {}, 0, &clock_);
  ASSERT_TRUE(l2->StackOn(passfs_).ok());
  sp<PassLayer> l3 = PassLayer::Create(Domain::Create("p3"), {}, 0, &clock_);
  ASSERT_TRUE(l3->StackOn(l2).ok());

  sp<File> file = *l3->CreateFile(*Name::Parse("deep"), sys_);
  Rng rng(13);
  Buffer data = rng.RandomBuffer(2 * kPageSize + 17);
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(l3->SyncFs().ok());
  Buffer out(data.size());
  ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out, data);

  Result<FsInfo> info = l3->GetFsInfo();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->stack_depth, 5u);
  EXPECT_EQ(info->type, "passfs(passfs(passfs(coherency(disk))))");

  // And the content is readable straight from the disk layer after sync.
  sp<File> bottom = *ResolveAs<File>(sfs_.root, "deep", sys_);
  Buffer raw(data.size());
  ASSERT_TRUE(bottom->Read(0, raw.mutable_span()).ok());
  EXPECT_EQ(raw, data);
}

TEST_F(PassfsTest, CryptoOnCompressionStyleStacking) {
  // cryptfs on passfs on SFS — arbitrary composition works (Figure 3).
  sp<CryptLayer> crypt =
      CryptLayer::Create(Domain::Create("c"), "key", {}, &clock_);
  ASSERT_TRUE(crypt->StackOn(passfs_).ok());
  sp<File> file = *crypt->CreateFile(*Name::Parse("x"), sys_);
  Buffer data(std::string("layer lasagna"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(crypt->SyncFs().ok());
  Buffer out(13);
  ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "layer lasagna");
  // Below the crypt layer it is ciphertext.
  sp<File> below = *ResolveAs<File>(passfs_, "x", sys_);
  Buffer raw(13);
  ASSERT_TRUE(below->Read(0, raw.mutable_span()).ok());
  EXPECT_NE(raw.ToString(), "layer lasagna");
}

}  // namespace
}  // namespace springfs
