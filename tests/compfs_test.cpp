// Tests for COMPFS (paper §4.2.1, Figures 5/6): transparent compression on
// top of SFS, disk-space savings, metadata persistence, compaction, both
// coherency modes, and mapped-client access through the VMM.

#include <gtest/gtest.h>

#include "src/layers/compfs/comp_layer.h"
#include "src/layers/sfs/sfs.h"
#include "src/support/rng.h"
#include "src/vmm/vmm.h"

namespace springfs {
namespace {

struct CompStack {
  std::unique_ptr<MemBlockDevice> device;
  Sfs sfs;
  sp<Domain> comp_domain;
  sp<CompLayer> compfs;
};

CompStack MakeStack(FakeClock* clock, CompLayerOptions options = {}) {
  CompStack stack;
  stack.device = std::make_unique<MemBlockDevice>(ufs::kBlockSize, 16384);
  stack.sfs = *CreateSfs(stack.device.get(), SfsOptions{}, clock);
  stack.comp_domain = Domain::Create("compfs");
  stack.compfs = CompLayer::Create(stack.comp_domain, options, clock);
  SPRINGFS_CHECK(stack.compfs->StackOn(stack.sfs.root).ok());
  return stack;
}

class CompfsTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    CompLayerOptions options;
    options.coherent_lower = GetParam();
    stack_ = MakeStack(&clock_, options);
  }

  Credentials sys_ = Credentials::System();
  FakeClock clock_;
  CompStack stack_;
};

TEST_P(CompfsTest, RoundTripThroughCompression) {
  sp<File> file = *stack_.compfs->CreateFile(*Name::Parse("doc"), sys_);
  Rng rng(1);
  Buffer data = rng.CompressibleBuffer(3 * kPageSize + 100);
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  Buffer out(data.size());
  EXPECT_EQ(*file->Read(0, out.mutable_span()), data.size());
  EXPECT_EQ(out, data);
  EXPECT_EQ(file->Stat()->size, data.size());
}

TEST_P(CompfsTest, UnderlyingFileHoldsCompressedBytes) {
  sp<File> file = *stack_.compfs->CreateFile(*Name::Parse("c"), sys_);
  Rng rng(2);
  Buffer data = rng.CompressibleBuffer(8 * kPageSize);
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(file->SyncFile().ok());

  // The underlying data file is much smaller than the logical file.
  Result<sp<File>> under = ResolveAs<File>(stack_.sfs.root, "c", sys_);
  ASSERT_TRUE(under.ok());
  uint64_t stored = (*under)->Stat()->size;
  EXPECT_GT(stored, 0u);
  EXPECT_LT(stored, data.size() / 2)
      << "compressible data should shrink substantially";
  // And its bytes are not the plaintext.
  Buffer raw(kPageSize);
  ASSERT_TRUE((*under)->Read(0, raw.mutable_span()).ok());
  EXPECT_NE(Xxh64(raw.subspan(0, kPageSize)),
            Xxh64(data.subspan(0, kPageSize)));
}

TEST_P(CompfsTest, IncompressibleDataStoredRaw) {
  sp<File> file = *stack_.compfs->CreateFile(*Name::Parse("r"), sys_);
  Rng rng(3);
  Buffer data = rng.RandomBuffer(2 * kPageSize);
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(file->SyncFile().ok());
  EXPECT_GT(metrics::StatValue(*stack_.compfs, "blocks_stored_raw"), 0u);
  Buffer out(data.size());
  EXPECT_EQ(*file->Read(0, out.mutable_span()), data.size());
  EXPECT_EQ(out, data);
}

TEST_P(CompfsTest, MetadataPersistsAcrossReopen) {
  {
    sp<File> file = *stack_.compfs->CreateFile(*Name::Parse("persist"), sys_);
    Buffer data(std::string("compressed and persisted"));
    ASSERT_TRUE(file->Write(0, data.span()).ok());
    ASSERT_TRUE(file->SyncFile().ok());
  }
  // A fresh COMPFS instance over the same stack reads the metadata back.
  CompLayerOptions options;
  options.coherent_lower = GetParam();
  sp<CompLayer> fresh =
      CompLayer::Create(Domain::Create("compfs2"), options, &clock_);
  ASSERT_TRUE(fresh->StackOn(stack_.sfs.root).ok());
  Result<sp<File>> file = ResolveAs<File>(fresh, "persist", sys_);
  ASSERT_TRUE(file.ok());
  Buffer out(24);
  EXPECT_EQ(*(*file)->Read(0, out.mutable_span()), 24u);
  EXPECT_EQ(out.ToString(), "compressed and persisted");
}

TEST_P(CompfsTest, MetaShadowFilesAreHidden) {
  ASSERT_TRUE(stack_.compfs->CreateFile(*Name::Parse("visible"), sys_).ok());
  sp<File> f = *ResolveAs<File>(stack_.compfs, "visible", sys_);
  Buffer data(std::string("x"));
  ASSERT_TRUE(f->Write(0, data.span()).ok());
  ASSERT_TRUE(f->SyncFile().ok());

  Result<std::vector<BindingInfo>> list = stack_.compfs->List(sys_);
  ASSERT_TRUE(list.ok());
  for (const auto& entry : *list) {
    EXPECT_EQ(entry.name.find(".cmeta"), std::string::npos) << entry.name;
  }
  // But the shadow exists in the underlying layer.
  EXPECT_TRUE(stack_.sfs.root->Resolve(*Name::Parse("visible.cmeta"), sys_).ok());
  // Resolving the shadow through COMPFS is refused.
  EXPECT_EQ(stack_.compfs->Resolve(*Name::Parse("visible.cmeta"), sys_)
                .status().code(),
            ErrorCode::kNotFound);
}

TEST_P(CompfsTest, UnbindRemovesShadowToo) {
  sp<File> f = *stack_.compfs->CreateFile(*Name::Parse("gone"), sys_);
  Buffer data(std::string("y"));
  ASSERT_TRUE(f->Write(0, data.span()).ok());
  ASSERT_TRUE(f->SyncFile().ok());
  f.reset();
  ASSERT_TRUE(stack_.compfs->Unbind(*Name::Parse("gone"), sys_).ok());
  EXPECT_EQ(stack_.sfs.root->Resolve(*Name::Parse("gone"), sys_).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(stack_.sfs.root->Resolve(*Name::Parse("gone.cmeta"), sys_)
                .status().code(),
            ErrorCode::kNotFound);
}

TEST_P(CompfsTest, RemoveThroughASubdirectoryForgetsTheFile) {
  // A directory context names the same files as the root: its listing
  // hides the .cmeta shadows, and a removal through it forgets the file,
  // so the next file created at the name starts empty with its own shadow.
  sp<CompLayer>& compfs = stack_.compfs;
  ASSERT_TRUE(compfs->CreateContext(*Name::Parse("d"), sys_).ok());
  {
    sp<File> f = *compfs->CreateFile(*Name::Parse("d/f"), sys_);
    Buffer a(std::string(100, 'A'));
    ASSERT_TRUE(f->Write(0, a.span()).ok());
    ASSERT_TRUE(f->SyncFile().ok());
  }
  ASSERT_TRUE(stack_.sfs.root->Resolve(*Name::Parse("d/f.cmeta"), sys_).ok());
  sp<Context> d = *ResolveAs<Context>(compfs, "d", sys_);
  Result<std::vector<BindingInfo>> list = d->List(sys_);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].name, "f");

  ASSERT_TRUE(d->Unbind(*Name::Parse("f"), sys_).ok());
  sp<File> again = *compfs->CreateFile(*Name::Parse("d/f"), sys_);
  Buffer b(std::string(10, 'B'));
  ASSERT_TRUE(again->Write(0, b.span()).ok());
  Buffer out(100);
  EXPECT_EQ(*again->Read(0, out.mutable_span()), 10u);
  EXPECT_EQ(out.ToString().substr(0, 10), std::string(10, 'B'));
  EXPECT_TRUE(stack_.sfs.root->Resolve(*Name::Parse("d/f.cmeta"), sys_).ok());
  Status synced = compfs->SyncFs();
  EXPECT_TRUE(synced.ok()) << synced.ToString();
}

TEST_P(CompfsTest, RewritesCreateGarbageCompactionReclaims) {
  sp<File> file = *stack_.compfs->CreateFile(*Name::Parse("churn"), sys_);
  Rng rng(4);
  // Rewrite the same blocks repeatedly; every rewrite orphans a chunk.
  for (int round = 0; round < 10; ++round) {
    Buffer data = rng.CompressibleBuffer(4 * kPageSize);
    ASSERT_TRUE(file->Write(0, data.span()).ok());
    ASSERT_TRUE(file->SyncFile().ok());
  }
  Buffer expected(4 * kPageSize);
  ASSERT_TRUE(file->Read(0, expected.mutable_span()).ok());

  Result<uint64_t> reclaimed =
      stack_.compfs->Compact(*Name::Parse("churn"), sys_);
  ASSERT_TRUE(reclaimed.ok()) << reclaimed.status().ToString();
  EXPECT_GT(*reclaimed, 0u);
  // Data intact after compaction.
  Buffer out(4 * kPageSize);
  ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out, expected);
  EXPECT_GE(metrics::StatValue(*stack_.compfs, "compactions"), 1u);
}

TEST_P(CompfsTest, SparseFilesReadZerosInHoles) {
  sp<File> file = *stack_.compfs->CreateFile(*Name::Parse("sparse"), sys_);
  Buffer tail(std::string("tail"));
  ASSERT_TRUE(file->Write(5 * kPageSize, tail.span()).ok());
  Buffer out(kPageSize);
  ASSERT_TRUE(file->Read(kPageSize, out.mutable_span()).ok());
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(out.data()[i], 0);
  }
}

TEST_P(CompfsTest, TruncateThenExtendZeros) {
  sp<File> file = *stack_.compfs->CreateFile(*Name::Parse("t"), sys_);
  Buffer data(std::string("secretsecret"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(file->SetLength(3).ok());
  ASSERT_TRUE(file->SetLength(12).ok());
  Buffer out(12);
  ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString().substr(0, 3), "sec");
  for (int i = 3; i < 12; ++i) {
    EXPECT_EQ(out.data()[i], 0);
  }
}

TEST_P(CompfsTest, MappedAccessThroughVmm) {
  sp<File> file = *stack_.compfs->CreateFile(*Name::Parse("mapped"), sys_);
  Rng rng(5);
  Buffer data = rng.CompressibleBuffer(2 * kPageSize);
  ASSERT_TRUE(file->Write(0, data.span()).ok());

  sp<Vmm> vmm = Vmm::Create(Domain::Create("node"), "vmm");
  Result<sp<MappedRegion>> region = vmm->Map(file, AccessRights::kReadWrite);
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  Buffer out(data.size());
  ASSERT_TRUE((*region)->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out, data);

  // Mapped write, read back through the file interface (client coherency).
  Buffer patch(std::string("PATCH"));
  ASSERT_TRUE((*region)->Write(100, patch.span()).ok());
  Buffer check(5);
  ASSERT_TRUE(file->Read(100, check.mutable_span()).ok());
  EXPECT_EQ(check.ToString(), "PATCH");
}

TEST_P(CompfsTest, RandomWorkloadAgainstModel) {
  sp<File> file = *stack_.compfs->CreateFile(*Name::Parse("rand"), sys_);
  Rng rng(77);
  Buffer model;
  for (int step = 0; step < 120; ++step) {
    if (rng.Chance(7, 10)) {
      uint64_t offset = rng.Below(4 * kPageSize);
      Buffer data = rng.Chance(1, 2)
                        ? rng.CompressibleBuffer(rng.Range(1, kPageSize))
                        : rng.RandomBuffer(rng.Range(1, 512));
      ASSERT_TRUE(file->Write(offset, data.span()).ok());
      model.WriteAt(offset, data.span());
    } else if (rng.Chance(1, 3)) {
      ASSERT_TRUE(file->SyncFile().ok());
    } else {
      uint64_t offset = rng.Below(5 * kPageSize);
      size_t len = rng.Range(1, kPageSize);
      Buffer got(len), expect(len);
      Result<size_t> n = file->Read(offset, got.mutable_span());
      ASSERT_TRUE(n.ok());
      size_t ref_n = model.ReadAt(offset, expect.mutable_span());
      ASSERT_EQ(*n, ref_n);
      EXPECT_TRUE(std::equal(got.data(), got.data() + *n, expect.data()));
    }
  }
  EXPECT_EQ(file->Stat()->size, model.size());
}

INSTANTIATE_TEST_SUITE_P(Modes, CompfsTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "CoherentFig6"
                                             : "NonCoherentFig5";
                         });

// --- the Figure 5 vs Figure 6 distinction ---

TEST(CompfsCoherencyTest, Fig6SeesDirectUnderlyingWrites) {
  // Figure 6: COMPFS is a cache manager for file_SFS, so a direct write to
  // the underlying file invalidates COMPFS's decompressed cache.
  FakeClock clock;
  CompLayerOptions options;
  options.coherent_lower = true;
  CompStack stack = MakeStack(&clock, options);
  Credentials sys = Credentials::System();

  sp<File> comp_file = *stack.compfs->CreateFile(*Name::Parse("f"), sys);
  Rng rng(6);
  Buffer v1 = rng.CompressibleBuffer(kPageSize);
  ASSERT_TRUE(comp_file->Write(0, v1.span()).ok());
  ASSERT_TRUE(comp_file->SyncFile().ok());
  // Trigger binding below + populate the decompressed cache.
  sp<Vmm> vmm = Vmm::Create(Domain::Create("node"), "vmm");
  sp<MappedRegion> region = *vmm->Map(comp_file, AccessRights::kReadOnly);
  Buffer out(kPageSize);
  ASSERT_TRUE(region->Read(0, out.mutable_span()).ok());

  // Someone rewrites the underlying compressed file directly (e.g. restores
  // it from backup): replace it with a fresh COMPFS image of new content.
  uint64_t invalidations_before =
      metrics::StatValue(*stack.compfs, "lower_invalidations");
  sp<File> under = *ResolveAs<File>(stack.sfs.root, "f", sys);
  Buffer junk(std::string("overwritten directly!"));
  ASSERT_TRUE(under->Write(0, junk.span()).ok());
  EXPECT_GT(metrics::StatValue(*stack.compfs, "lower_invalidations"),
            invalidations_before)
      << "COMPFS (Fig. 6) must receive coherency callbacks from below";
}

TEST(CompfsCoherencyTest, Fig5DoesNotBindBelow) {
  FakeClock clock;
  CompLayerOptions options;
  options.coherent_lower = false;
  CompStack stack = MakeStack(&clock, options);
  Credentials sys = Credentials::System();

  sp<File> comp_file = *stack.compfs->CreateFile(*Name::Parse("f"), sys);
  Rng rng(7);
  Buffer v1 = rng.CompressibleBuffer(kPageSize);
  ASSERT_TRUE(comp_file->Write(0, v1.span()).ok());
  ASSERT_TRUE(comp_file->SyncFile().ok());
  sp<Vmm> vmm = Vmm::Create(Domain::Create("node"), "vmm");
  sp<MappedRegion> region = *vmm->Map(comp_file, AccessRights::kReadOnly);
  Buffer out(kPageSize);
  ASSERT_TRUE(region->Read(0, out.mutable_span()).ok());

  // Direct underlying write: COMPFS (Fig. 5) does not hear about it.
  uint64_t invalidations_before =
      metrics::StatValue(*stack.compfs, "lower_invalidations");
  sp<File> under = *ResolveAs<File>(stack.sfs.root, "f", sys);
  Buffer junk(std::string("overwritten directly!"));
  ASSERT_TRUE(under->Write(0, junk.span()).ok());
  EXPECT_EQ(metrics::StatValue(*stack.compfs, "lower_invalidations"),
            invalidations_before)
      << "Fig. 5 COMPFS must not be engaged in lower-layer coherency";
}

TEST(CompfsCodecChoiceTest, RleAndLz77BothWork) {
  FakeClock clock;
  for (const char* codec : {"rle", "lz77"}) {
    CompLayerOptions options;
    options.codec = codec;
    CompStack stack = MakeStack(&clock, options);
    sp<File> file =
        *stack.compfs->CreateFile(*Name::Parse("f"), Credentials::System());
    Rng rng(8);
    Buffer data = rng.CompressibleBuffer(2 * kPageSize);
    ASSERT_TRUE(file->Write(0, data.span()).ok()) << codec;
    Buffer out(data.size());
    ASSERT_TRUE(file->Read(0, out.mutable_span()).ok()) << codec;
    EXPECT_EQ(out, data) << codec;
  }
}

}  // namespace
}  // namespace springfs
