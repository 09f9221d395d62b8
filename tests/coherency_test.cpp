// Unit tests for the coherency engine: MRSW state transitions, callback
// selection, recovered-data plumbing, release paths, and a randomized
// invariant sweep with scripted fake caches.

#include <gtest/gtest.h>

#include <map>

#include "src/coherency/engine.h"
#include "src/support/rng.h"

namespace springfs {
namespace {

// A scripted cache object that records the callbacks it receives, can be
// loaded with dirty blocks to hand back, and can be scripted to fail its
// callbacks (a dead or misbehaving holder).
class FakeCache : public CacheObject {
 public:
  Result<std::vector<BlockData>> FlushBack(Range range) override {
    ++flush_backs;
    if (!fail_with.ok()) {
      return fail_with;
    }
    return TakeDirty(range);
  }
  Result<std::vector<BlockData>> DenyWrites(Range range) override {
    ++deny_writes;
    if (!fail_with.ok()) {
      return fail_with;
    }
    return TakeDirty(range);
  }
  Result<std::vector<BlockData>> WriteBack(Range range) override {
    ++write_backs;
    return TakeDirty(range);
  }
  Status DeleteRange(Range) override { return Status::Ok(); }
  Status ZeroFill(Range) override { return Status::Ok(); }
  Status Populate(Offset, AccessRights, ByteSpan) override {
    return Status::Ok();
  }
  Status DestroyCache() override { return Status::Ok(); }

  void LoadDirty(Offset offset, Buffer data) {
    dirty_[offset] = std::move(data);
  }

  int flush_backs = 0;
  int deny_writes = 0;
  int write_backs = 0;
  Status fail_with = Status::Ok();  // sticky callback failure when not OK

 private:
  std::vector<BlockData> TakeDirty(Range range) {
    std::vector<BlockData> out;
    for (auto it = dirty_.begin(); it != dirty_.end();) {
      if (range.Contains(it->first)) {
        out.push_back(BlockData{it->first, std::move(it->second)});
        it = dirty_.erase(it);
      } else {
        ++it;
      }
    }
    return out;
  }

  std::map<Offset, Buffer> dirty_;
};

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    c1_ = std::make_shared<FakeCache>();
    c2_ = std::make_shared<FakeCache>();
    c3_ = std::make_shared<FakeCache>();
    engine_.AddCache(1, c1_);
    engine_.AddCache(2, c2_);
    engine_.AddCache(3, c3_);
  }

  CoherencyEngine engine_;
  sp<FakeCache> c1_, c2_, c3_;
};

TEST_F(EngineTest, ReadersCoexistWithoutCallbacks) {
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadOnly).ok());
  ASSERT_TRUE(engine_.Acquire(2, Range{0, kPageSize},
                              AccessRights::kReadOnly).ok());
  ASSERT_TRUE(engine_.Acquire(3, Range{0, kPageSize},
                              AccessRights::kReadOnly).ok());
  EXPECT_EQ(c1_->flush_backs + c2_->flush_backs + c3_->flush_backs, 0);
  EXPECT_EQ(c1_->deny_writes + c2_->deny_writes + c3_->deny_writes, 0);
  EXPECT_EQ(engine_.BlockNumReaders(0), 3u);
  EXPECT_TRUE(engine_.CheckInvariants());
}

TEST_F(EngineTest, WriterFlushesAllReaders) {
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadOnly).ok());
  ASSERT_TRUE(engine_.Acquire(2, Range{0, kPageSize},
                              AccessRights::kReadOnly).ok());
  ASSERT_TRUE(engine_.Acquire(3, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  EXPECT_EQ(c1_->flush_backs, 1);
  EXPECT_EQ(c2_->flush_backs, 1);
  EXPECT_EQ(c3_->flush_backs, 0);
  EXPECT_TRUE(engine_.BlockHasWriter(0));
  EXPECT_EQ(engine_.BlockNumReaders(0), 0u);
  EXPECT_TRUE(engine_.CheckInvariants());
}

TEST_F(EngineTest, ReaderDemotesWriterAndRecoversDirtyData) {
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  Buffer dirty(kPageSize);
  dirty.data()[0] = 0x42;
  c1_->LoadDirty(0, dirty);
  CoherencyEngine::Recovered recovered =
      engine_.Acquire(2, Range{0, kPageSize}, AccessRights::kReadOnly);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(c1_->deny_writes, 1);
  ASSERT_EQ(recovered.blocks.size(), 1u);
  EXPECT_EQ(recovered.blocks[0].offset, 0u);
  EXPECT_EQ(recovered.blocks[0].data.data()[0], 0x42);
  // Ex-writer is now a reader alongside the requester.
  EXPECT_FALSE(engine_.BlockHasWriter(0));
  EXPECT_EQ(engine_.BlockNumReaders(0), 2u);
  EXPECT_TRUE(engine_.CheckInvariants());
  EXPECT_EQ(engine_.stats().blocks_recovered, 1u);
}

TEST_F(EngineTest, WriterStealsFromWriter) {
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  ASSERT_TRUE(engine_.Acquire(2, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  EXPECT_EQ(c1_->flush_backs, 1);
  EXPECT_TRUE(engine_.BlockHasWriter(0));
  EXPECT_TRUE(engine_.CheckInvariants());
}

TEST_F(EngineTest, RepeatAcquireBySameHolderIsFree) {
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadOnly).ok());
  EXPECT_EQ(c1_->flush_backs + c1_->deny_writes, 0);
}

TEST_F(EngineTest, BlocksAreIndependent) {
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  ASSERT_TRUE(engine_.Acquire(2, Range{kPageSize, kPageSize},
                              AccessRights::kReadWrite).ok());
  EXPECT_EQ(c1_->flush_backs, 0);
  EXPECT_EQ(c2_->flush_backs, 0);
  EXPECT_TRUE(engine_.BlockHasWriter(0));
  EXPECT_TRUE(engine_.BlockHasWriter(kPageSize));
  EXPECT_TRUE(engine_.CheckInvariants());
}

TEST_F(EngineTest, RangeAcquireSpansMultipleBlocks) {
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  ASSERT_TRUE(engine_.Acquire(1, Range{2 * kPageSize, kPageSize},
                              AccessRights::kReadWrite).ok());
  // One flush_back call covering the whole range, not one per block.
  ASSERT_TRUE(engine_.Acquire(2, Range{0, 3 * kPageSize},
                              AccessRights::kReadWrite).ok());
  EXPECT_EQ(c1_->flush_backs, 1);
  EXPECT_TRUE(engine_.BlockHasWriter(0));
  EXPECT_TRUE(engine_.BlockHasWriter(kPageSize));
  EXPECT_TRUE(engine_.BlockHasWriter(2 * kPageSize));
}

TEST_F(EngineTest, AnonymousReaderDemotesButHoldsNothing) {
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  ASSERT_TRUE(engine_.Acquire(0, Range{0, kPageSize},
                              AccessRights::kReadOnly).ok());
  EXPECT_EQ(c1_->deny_writes, 1);
  EXPECT_FALSE(engine_.BlockHasWriter(0));
  EXPECT_EQ(engine_.BlockNumReaders(0), 1u);  // only the demoted ex-writer
}

TEST_F(EngineTest, AnonymousWriterFlushesEveryone) {
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadOnly).ok());
  ASSERT_TRUE(engine_.Acquire(2, Range{0, kPageSize},
                              AccessRights::kReadOnly).ok());
  ASSERT_TRUE(engine_.Acquire(0, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  EXPECT_EQ(c1_->flush_backs, 1);
  EXPECT_EQ(c2_->flush_backs, 1);
  EXPECT_FALSE(engine_.BlockHasWriter(0));
  EXPECT_EQ(engine_.BlockNumReaders(0), 0u);
}

TEST_F(EngineTest, ReleaseDroppedClearsHolder) {
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  engine_.ReleaseDropped(1, Range{0, kPageSize});
  EXPECT_FALSE(engine_.BlockHasWriter(0));
  // A new writer needs no callbacks now.
  ASSERT_TRUE(engine_.Acquire(2, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  EXPECT_EQ(c1_->flush_backs, 0);
}

TEST_F(EngineTest, ReleaseDowngradedKeepsReader) {
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  engine_.ReleaseDowngraded(1, Range{0, kPageSize});
  EXPECT_FALSE(engine_.BlockHasWriter(0));
  EXPECT_EQ(engine_.BlockNumReaders(0), 1u);
  // A subsequent writer must flush the downgraded holder.
  ASSERT_TRUE(engine_.Acquire(2, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  EXPECT_EQ(c1_->flush_backs, 1);
}

TEST_F(EngineTest, RemoveCacheForgetsItsHoldings) {
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  engine_.RemoveCache(1);
  EXPECT_FALSE(engine_.BlockHasWriter(0));
  EXPECT_EQ(engine_.NumCaches(), 2u);
  EXPECT_TRUE(engine_.CheckInvariants());
}

// --- failure model: callback errors, eviction, leases, fencing ---

TEST_F(EngineTest, CallbackErrorFromHealthyHolderPropagates) {
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  // An in-process error (not an unreachable-style code, no lease configured)
  // means the holder is alive but failing: the engine must surface it, not
  // silently evict a live cache.
  c1_->fail_with = ErrIoError("cache torn");
  CoherencyEngine::Recovered got =
      engine_.Acquire(2, Range{0, kPageSize}, AccessRights::kReadWrite);
  EXPECT_EQ(got.status.code(), ErrorCode::kIoError);
  EXPECT_EQ(engine_.stats().callback_failures, 1u);
  EXPECT_EQ(engine_.stats().evictions, 0u);
  EXPECT_TRUE(engine_.HasCache(1)) << "a live holder must not be evicted";
  EXPECT_TRUE(engine_.CheckInvariants());
  // Once the holder recovers, the acquire goes through.
  c1_->fail_with = Status::Ok();
  EXPECT_TRUE(engine_.Acquire(2, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
}

// A failed action still takes what the holders that answered handed over:
// holder 1 gives its dirty page up before holder 2 refuses, so the failing
// Acquire returns that page to its caller and no longer records holder 1 on
// it. Had it kept holder 1 as the writer, a retry would recover nothing and
// the page would be lost.
TEST_F(EngineTest, FailedAcquireHandsOverWhatAnsweringHoldersGaveUp) {
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  Buffer dirty(kPageSize);
  dirty.data()[0] = 0x42;
  c1_->LoadDirty(0, dirty);
  ASSERT_TRUE(engine_.Acquire(2, Range{kPageSize, kPageSize},
                              AccessRights::kReadOnly).ok());
  c2_->fail_with = ErrIoError("cache torn");

  CoherencyEngine::Recovered failed =
      engine_.Acquire(3, Range{0, 2 * kPageSize}, AccessRights::kReadWrite);
  EXPECT_EQ(failed.status.code(), ErrorCode::kIoError);
  ASSERT_EQ(failed.blocks.size(), 1u) << "holder 1's dirty page is handed over";
  EXPECT_EQ(failed.blocks[0].offset, 0u);
  EXPECT_EQ(failed.blocks[0].data.data()[0], 0x42);
  EXPECT_EQ(c1_->flush_backs, 1);
  EXPECT_FALSE(engine_.BlockHasWriter(0)) << "holder 1 gave page 0 up";
  EXPECT_EQ(engine_.BlockNumReaders(kPageSize), 1u) << "holder 2 keeps page 1";
  EXPECT_FALSE(engine_.BlockHasWriter(kPageSize)) << "3 was granted nothing";
  EXPECT_TRUE(engine_.CheckInvariants());

  // Once holder 2 recovers, the retry calls only holder 2 and goes through.
  c2_->fail_with = Status::Ok();
  CoherencyEngine::Recovered retried =
      engine_.Acquire(3, Range{0, 2 * kPageSize}, AccessRights::kReadWrite);
  ASSERT_TRUE(retried.ok()) << retried.status.ToString();
  EXPECT_TRUE(retried.blocks.empty());
  EXPECT_EQ(c1_->flush_backs, 1);
  EXPECT_EQ(c2_->flush_backs, 2);
  EXPECT_TRUE(engine_.BlockHasWriter(0));
  EXPECT_TRUE(engine_.BlockHasWriter(kPageSize));
  EXPECT_EQ(engine_.BlockNumReaders(kPageSize), 0u);
  EXPECT_TRUE(engine_.CheckInvariants());
}

TEST_F(EngineTest, ARefusalEndsTheCallbacks) {
  // Holder 1 reads page 0 and will refuse; holder 2 writes page 1.
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadOnly).ok());
  ASSERT_TRUE(engine_.Acquire(2, Range{kPageSize, kPageSize},
                              AccessRights::kReadWrite).ok());
  c1_->fail_with = ErrIoError("cache torn");

  CoherencyEngine::Recovered failed =
      engine_.Acquire(3, Range{0, 2 * kPageSize}, AccessRights::kReadWrite);
  EXPECT_EQ(failed.status.code(), ErrorCode::kIoError);
  EXPECT_TRUE(failed.blocks.empty());
  EXPECT_EQ(c1_->flush_backs, 1);
  EXPECT_EQ(c2_->flush_backs, 0) << "no holder is called after a refusal";
  EXPECT_EQ(engine_.BlockNumReaders(0), 1u) << "holder 1 keeps page 0";
  EXPECT_TRUE(engine_.BlockHasWriter(kPageSize)) << "holder 2 keeps page 1";
  EXPECT_EQ(engine_.stats().flush_back_calls, 1u);
  EXPECT_TRUE(engine_.CheckInvariants());
}

TEST_F(EngineTest, UnreachableWriterIsEvictedAndLossRecorded) {
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  c1_->fail_with = ErrTimedOut("holder dead");
  // A read acquire demotes the dead writer: the callback times out, the
  // holder is evicted, and the reader proceeds instead of failing forever.
  CoherencyEngine::Recovered got =
      engine_.Acquire(2, Range{0, kPageSize}, AccessRights::kReadOnly);
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  EXPECT_FALSE(engine_.HasCache(1));
  EXPECT_EQ(engine_.stats().evictions, 1u);
  EXPECT_EQ(engine_.stats().lost_dirty_blocks, 1u);
  EXPECT_TRUE(engine_.BlockNeedsRecovery(0))
      << "the evicted writer's block may have lost dirty data";
  EXPECT_TRUE(engine_.CheckInvariants());
}

TEST_F(EngineTest, FreshWriterClearsRecoveryNeeded) {
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  c1_->fail_with = ErrConnectionLost("gone");
  ASSERT_TRUE(engine_.Acquire(2, Range{0, kPageSize},
                              AccessRights::kReadOnly).ok());
  ASSERT_TRUE(engine_.BlockNeedsRecovery(0));
  // A new writer supersedes whatever the evicted one lost.
  ASSERT_TRUE(engine_.Acquire(2, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  EXPECT_FALSE(engine_.BlockNeedsRecovery(0));
}

TEST_F(EngineTest, ExpiredLeaseEvictsWithoutCalling) {
  FakeClock clock;
  engine_.ConfigureLeases(&clock, /*lease_ns=*/1'000'000);
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  int calls_before = c1_->flush_backs + c1_->deny_writes;
  clock.Advance(2'000'000);  // the writer goes silent past its lease
  ASSERT_TRUE(engine_.Acquire(2, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  EXPECT_EQ(c1_->flush_backs + c1_->deny_writes, calls_before)
      << "an expired holder is presumed dead: no pointless callback";
  EXPECT_FALSE(engine_.HasCache(1));
  EXPECT_EQ(engine_.stats().lease_expiries, 1u);
  EXPECT_EQ(engine_.stats().evictions, 1u);
  EXPECT_TRUE(engine_.CheckInvariants());
}

TEST_F(EngineTest, AcquireRenewsTheRequestersLease) {
  FakeClock clock;
  engine_.ConfigureLeases(&clock, /*lease_ns=*/1'000'000);
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  // Keep touching the engine just inside the lease each time.
  for (int i = 0; i < 5; ++i) {
    clock.Advance(900'000);
    ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                                AccessRights::kReadWrite).ok());
  }
  clock.Advance(900'000);
  ASSERT_TRUE(engine_.Acquire(2, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  EXPECT_EQ(engine_.stats().lease_expiries, 0u)
      << "an active holder's lease must keep sliding forward";
  EXPECT_EQ(c1_->flush_backs, 1) << "live holder is flushed, not evicted";
}

TEST_F(EngineTest, StaleReleasesAreFenced) {
  ASSERT_TRUE(engine_.Acquire(1, Range{0, kPageSize},
                              AccessRights::kReadWrite).ok());
  c1_->fail_with = ErrTimedOut("dead");
  ASSERT_TRUE(engine_.Acquire(2, Range{0, kPageSize},
                              AccessRights::kReadOnly).ok());
  ASSERT_FALSE(engine_.HasCache(1));

  // The dead client revives and its stale page-out frame finally lands:
  // holder 1 is no longer a member, so the release is a no-op.
  engine_.ReleaseDropped(1, Range{0, kPageSize});
  EXPECT_EQ(engine_.stats().fenced_releases, 1u);
  EXPECT_TRUE(engine_.CheckInvariants());
}

class EnginePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnginePropertyTest, RandomAcquireSequencePreservesInvariants) {
  CoherencyEngine engine;
  std::vector<sp<FakeCache>> caches;
  for (uint64_t id = 1; id <= 4; ++id) {
    caches.push_back(std::make_shared<FakeCache>());
    engine.AddCache(id, caches.back());
  }
  Rng rng(GetParam());
  for (int step = 0; step < 2000; ++step) {
    uint64_t cache_id = rng.Range(1, 4);
    Offset offset = rng.Below(8) * kPageSize;
    Offset size = rng.Range(1, 3) * kPageSize;
    uint64_t action = rng.Below(10);
    if (action < 5) {
      ASSERT_TRUE(engine.Acquire(cache_id, Range{offset, size},
                                 AccessRights::kReadOnly).ok());
    } else if (action < 8) {
      ASSERT_TRUE(engine.Acquire(cache_id, Range{offset, size},
                                 AccessRights::kReadWrite).ok());
    } else if (action < 9) {
      engine.ReleaseDropped(cache_id, Range{offset, size});
    } else {
      engine.ReleaseDowngraded(cache_id, Range{offset, size});
    }
    ASSERT_TRUE(engine.CheckInvariants()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePropertyTest,
                         ::testing::Values(1, 7, 13, 77, 20260707));

}  // namespace
}  // namespace springfs
