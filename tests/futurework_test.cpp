// Tests for the paper's section 8 future-work features, implemented here:
// name caching (eliminating open/domain-crossing overhead) and page-in
// read-ahead (the pager "given the opportunity to return more data than
// strictly needed"), which the VMM's fault clustering asks for.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/layers/sfs/sfs.h"
#include "src/naming/name_cache.h"
#include "src/support/rng.h"
#include "src/vmm/vmm.h"

namespace springfs {
namespace {

class NameCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_unique<MemBlockDevice>(ufs::kBlockSize, 8192);
    SfsOptions options;
    options.placement = SfsPlacement::kTwoDomains;
    sfs_ = *CreateSfs(device_.get(), options, &clock_);
    cache_ = NameCacheContext::Create(Domain::Create("name-cache"), sfs_.root);
  }

  Credentials sys_ = Credentials::System();
  FakeClock clock_;
  std::unique_ptr<MemBlockDevice> device_;
  Sfs sfs_;
  sp<NameCacheContext> cache_;
};

TEST_F(NameCacheTest, SecondResolveIsAHit) {
  ASSERT_TRUE(sfs_.root->CreateFile(*Name::Parse("f"), sys_).ok());
  ASSERT_TRUE(cache_->Resolve(*Name::Parse("f"), sys_).ok());
  EXPECT_EQ(metrics::StatValue(*cache_, "misses"), 1u);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cache_->Resolve(*Name::Parse("f"), sys_).ok());
  }
  std::map<std::string, uint64_t> stats = metrics::CollectFrom(*cache_);
  EXPECT_EQ(stats["misses"], 1u);
  EXPECT_EQ(stats["hits"], 10u);
}

TEST_F(NameCacheTest, CachedOpenSkipsEveryLayer) {
  // The section 8 claim: name caching eliminates the domain-crossing
  // overhead of open. After warming, resolves cross into NO domain.
  ASSERT_TRUE(sfs_.root->CreateFile(*Name::Parse("hot"), sys_).ok());
  ASSERT_TRUE(cache_->Resolve(*Name::Parse("hot"), sys_).ok());
  uint64_t top_before = metrics::StatValue(*sfs_.top_domain, "cross_calls");
  uint64_t disk_before = metrics::StatValue(*sfs_.disk_domain, "cross_calls");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cache_->Resolve(*Name::Parse("hot"), sys_).ok());
  }
  EXPECT_EQ(metrics::StatValue(*sfs_.top_domain, "cross_calls"), top_before);
  EXPECT_EQ(metrics::StatValue(*sfs_.disk_domain, "cross_calls"), disk_before);
}

TEST_F(NameCacheTest, MutationsInvalidate) {
  ASSERT_TRUE(sfs_.root->CreateFile(*Name::Parse("f"), sys_).ok());
  sp<Object> before = *cache_->Resolve(*Name::Parse("f"), sys_);
  ASSERT_TRUE(cache_->Unbind(*Name::Parse("f"), sys_).ok());
  EXPECT_EQ(cache_->Resolve(*Name::Parse("f"), sys_).status().code(),
            ErrorCode::kNotFound);
  EXPECT_GE(metrics::StatValue(*cache_, "invalidations"), 1u);
}

TEST_F(NameCacheTest, InvalidationCoversDescendants) {
  ASSERT_TRUE(sfs_.root->CreateContext(*Name::Parse("d"), sys_).ok());
  ASSERT_TRUE(sfs_.root->CreateFile(*Name::Parse("d/f"), sys_).ok());
  ASSERT_TRUE(cache_->Resolve(*Name::Parse("d/f"), sys_).ok());
  ASSERT_TRUE(cache_->Resolve(*Name::Parse("d"), sys_).ok());
  // Unbinding the directory entry drops both cached paths.
  ASSERT_TRUE(cache_->Unbind(*Name::Parse("d/f"), sys_).ok());
  ASSERT_TRUE(cache_->Resolve(*Name::Parse("d"), sys_).ok());  // still fine
  EXPECT_EQ(cache_->Resolve(*Name::Parse("d/f"), sys_).status().code(),
            ErrorCode::kNotFound);
  // Prefix logic must not over-invalidate sibling names ("d" vs "dd").
  ASSERT_TRUE(sfs_.root->CreateFile(*Name::Parse("dd"), sys_).ok());
  ASSERT_TRUE(cache_->Resolve(*Name::Parse("dd"), sys_).ok());
  uint64_t invals = metrics::StatValue(*cache_, "invalidations");
  ASSERT_TRUE(cache_->CreateContext(*Name::Parse("d/sub"), sys_).ok());
  ASSERT_TRUE(cache_->Resolve(*Name::Parse("dd"), sys_).ok());
  EXPECT_EQ(metrics::StatValue(*cache_, "invalidations"), invals)
      << "'d/...' invalidation must not touch 'dd'";
}

TEST_F(NameCacheTest, CapacityEvictsFifo) {
  sp<NameCacheContext> small =
      NameCacheContext::Create(Domain::Create("nc"), sfs_.root, 2);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sfs_.root->CreateFile(
        Name::Single("f" + std::to_string(i)), sys_).ok());
    ASSERT_TRUE(small->Resolve(Name::Single("f" + std::to_string(i)), sys_)
                    .ok());
  }
  EXPECT_EQ(metrics::StatValue(*small, "evictions"), 2u);
  // The most recent two are hits; the evicted ones miss again.
  ASSERT_TRUE(small->Resolve(Name::Single("f3"), sys_).ok());
  EXPECT_EQ(metrics::StatValue(*small, "hits"), 1u);
}

TEST_F(NameCacheTest, FlushDropsEverything) {
  ASSERT_TRUE(sfs_.root->CreateFile(*Name::Parse("f"), sys_).ok());
  ASSERT_TRUE(cache_->Resolve(*Name::Parse("f"), sys_).ok());
  cache_->Flush();
  ASSERT_TRUE(cache_->Resolve(*Name::Parse("f"), sys_).ok());
  EXPECT_EQ(metrics::StatValue(*cache_, "misses"), 2u);
}

// --- negative entries ---

TEST_F(NameCacheTest, RepeatedMissingLookupsHitTheNegativeCache) {
  EXPECT_EQ(cache_->Resolve(*Name::Parse("ghost"), sys_).status().code(),
            ErrorCode::kNotFound);
  uint64_t top_before = metrics::StatValue(*sfs_.top_domain, "cross_calls");
  uint64_t disk_before = metrics::StatValue(*sfs_.disk_domain, "cross_calls");
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(cache_->Resolve(*Name::Parse("ghost"), sys_).status().code(),
              ErrorCode::kNotFound);
  }
  std::map<std::string, uint64_t> stats = metrics::CollectFrom(*cache_);
  EXPECT_EQ(stats["misses"], 1u);
  EXPECT_EQ(stats["negative_hits"], 10u);
  // The absence is served locally: no layer below is consulted.
  EXPECT_EQ(metrics::StatValue(*sfs_.top_domain, "cross_calls"), top_before);
  EXPECT_EQ(metrics::StatValue(*sfs_.disk_domain, "cross_calls"), disk_before);
}

TEST_F(NameCacheTest, CreateThroughCacheInvalidatesNegatives) {
  EXPECT_EQ(cache_->Resolve(*Name::Parse("d"), sys_).status().code(),
            ErrorCode::kNotFound);
  // Any later name under it is unknown too.
  EXPECT_EQ(cache_->Resolve(*Name::Parse("other"), sys_).status().code(),
            ErrorCode::kNotFound);
  ASSERT_TRUE(cache_->CreateContext(*Name::Parse("d"), sys_).ok());
  // The generation bump retires BOTH negatives, not just the created path:
  // the next probe for each re-asks the target instead of trusting a
  // pre-mutation absence.
  EXPECT_TRUE(cache_->Resolve(*Name::Parse("d"), sys_).ok());
  uint64_t negative_hits = metrics::StatValue(*cache_, "negative_hits");
  EXPECT_EQ(cache_->Resolve(*Name::Parse("other"), sys_).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(metrics::StatValue(*cache_, "negative_hits"), negative_hits)
      << "a stale negative must re-ask the target, not answer locally";
}

TEST_F(NameCacheTest, BindThroughCacheInvalidatesNegatives) {
  ASSERT_TRUE(sfs_.root->CreateFile(*Name::Parse("src"), sys_).ok());
  sp<Object> object = *cache_->Resolve(*Name::Parse("src"), sys_);
  EXPECT_EQ(cache_->Resolve(*Name::Parse("alias"), sys_).status().code(),
            ErrorCode::kNotFound);
  ASSERT_TRUE(cache_->Bind(*Name::Parse("alias"), object, sys_).ok());
  EXPECT_TRUE(cache_->Resolve(*Name::Parse("alias"), sys_).ok());
}

TEST_F(NameCacheTest, UnlinkThroughCacheYieldsFreshNegative) {
  ASSERT_TRUE(sfs_.root->CreateFile(*Name::Parse("f"), sys_).ok());
  ASSERT_TRUE(cache_->Resolve(*Name::Parse("f"), sys_).ok());
  ASSERT_TRUE(cache_->Unbind(*Name::Parse("f"), sys_).ok());
  // First post-unlink probe asks the target (and caches the absence); the
  // second is answered locally.
  EXPECT_EQ(cache_->Resolve(*Name::Parse("f"), sys_).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(metrics::StatValue(*cache_, "negative_hits"), 0u);
  EXPECT_EQ(cache_->Resolve(*Name::Parse("f"), sys_).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(metrics::StatValue(*cache_, "negative_hits"), 1u);
}

TEST_F(NameCacheTest, FlushDropsNegativesToo) {
  EXPECT_EQ(cache_->Resolve(*Name::Parse("late"), sys_).status().code(),
            ErrorCode::kNotFound);
  cache_->Flush();
  // An out-of-band create the cache never saw: only the flush saves us.
  ASSERT_TRUE(sfs_.root->CreateFile(*Name::Parse("late"), sys_).ok());
  EXPECT_TRUE(cache_->Resolve(*Name::Parse("late"), sys_).ok());
}

TEST_F(NameCacheTest, NegativeEntriesRespectCapacity) {
  sp<NameCacheContext> small =
      NameCacheContext::Create(Domain::Create("nc"), sfs_.root, 2);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(small->Resolve(Name::Single("no" + std::to_string(i)), sys_)
                  .status()
                  .code(),
              ErrorCode::kNotFound);
  }
  EXPECT_EQ(metrics::StatValue(*small, "evictions"), 2u);
}

// --- read-ahead ---

class ReadAheadTest : public ::testing::Test {
 protected:
  Sfs MakeSfs() {
    device_ = std::make_unique<MemBlockDevice>(ufs::kBlockSize, 8192);
    return *CreateSfs(device_.get(), SfsOptions{}, &clock_);
  }

  Credentials sys_ = Credentials::System();
  FakeClock clock_;
  std::unique_ptr<MemBlockDevice> device_;
};

TEST_F(ReadAheadTest, WithoutReadAheadEveryPageFaults) {
  Sfs sfs = MakeSfs();
  sp<File> file = *sfs.root->CreateFile(*Name::Parse("seq"), sys_);
  Rng rng(1);
  Buffer data = rng.RandomBuffer(16 * kPageSize);
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  // VMM clustering off: the layer grants only what a fault asks for, so
  // this is the true one-fault-per-page control.
  VmmOptions no_cluster;
  no_cluster.read_ahead_pages = 0;
  sp<Vmm> vmm = Vmm::Create(Domain::Create("n"), "vmm", no_cluster);
  sp<MappedRegion> region = *vmm->Map(file, AccessRights::kReadOnly);
  Buffer out(kPageSize);
  for (int p = 0; p < 16; ++p) {
    ASSERT_TRUE(region->Read(Offset{static_cast<uint64_t>(p)} * kPageSize,
                             out.mutable_span()).ok());
  }
  EXPECT_EQ(metrics::StatValue(*vmm, "faults"), 16u);
}

TEST_F(ReadAheadTest, VmmClusterClampsToPartialPageAtEof) {
  // The file ends mid-page, so a widened cluster request crosses EOF and
  // the layer returns a short (partial) reply: the VMM must keep the
  // partial tail page and stay byte-exact.
  Sfs sfs = MakeSfs();
  sp<File> file = *sfs.root->CreateFile(*Name::Parse("partial"), sys_);
  Rng rng(7);
  Buffer data = rng.RandomBuffer(2 * kPageSize + 100);
  ASSERT_TRUE(file->Write(0, data.span()).ok());

  sp<Vmm> vmm = Vmm::Create(Domain::Create("n"), "vmm");
  sp<MappedRegion> region = *vmm->Map(file, AccessRights::kReadOnly);
  Buffer out(data.size());
  ASSERT_TRUE(region->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(Xxh64(out.span()), Xxh64(data.span()));
  // Clustering must not fabricate pages past the end of the file: three
  // pages of content, at most three cached (the tail one partial).
  EXPECT_LE(metrics::StatValue(*vmm, "pages_cached"), 3u);
  EXPECT_LE(metrics::StatValue(*vmm, "faults"), 3u);
}

}  // namespace
}  // namespace springfs
