// Unit and property tests for the UFS substrate: format/mount, directories,
// file data across direct/indirect/double-indirect ranges, truncation, hard
// links, persistence, the fsck-style checker, and a randomized workload
// checked against an in-memory reference model.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/blockdev/decorators.h"
#include "src/support/rng.h"
#include "src/ufs/checker.h"
#include "src/ufs/ufs.h"

namespace springfs::ufs {
namespace {

class UfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_unique<MemBlockDevice>(kBlockSize, 4096);
    clock_ = std::make_unique<FakeClock>();
    Result<std::unique_ptr<Ufs>> fs = Ufs::Format(device_.get(), clock_.get());
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = fs.take_value();
  }

  void ExpectClean() {
    ASSERT_TRUE(fs_->Sync().ok());
    Checker checker(device_.get());
    Result<CheckReport> report = checker.Check();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->clean()) << report->Summary();
  }

  std::unique_ptr<MemBlockDevice> device_;
  std::unique_ptr<FakeClock> clock_;
  std::unique_ptr<Ufs> fs_;
};

TEST_F(UfsTest, FormatCreatesEmptyRoot) {
  Result<std::vector<NamedEntry>> entries = fs_->ReadDir(kRootInode);
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->empty());
  ExpectClean();
}

TEST_F(UfsTest, CreateAndLookup) {
  Result<InodeNum> ino = fs_->Create(kRootInode, "hello", FileType::kRegular);
  ASSERT_TRUE(ino.ok());
  Result<InodeNum> found = fs_->Lookup(kRootInode, "hello");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *ino);
  ExpectClean();
}

TEST_F(UfsTest, LookupMissingIsNotFound) {
  EXPECT_EQ(fs_->Lookup(kRootInode, "ghost").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(UfsTest, DuplicateCreateFails) {
  ASSERT_TRUE(fs_->Create(kRootInode, "x", FileType::kRegular).ok());
  EXPECT_EQ(fs_->Create(kRootInode, "x", FileType::kRegular).status().code(),
            ErrorCode::kAlreadyExists);
}

TEST_F(UfsTest, RejectsBadNames) {
  EXPECT_EQ(fs_->Create(kRootInode, "", FileType::kRegular).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(fs_->Create(kRootInode, "a/b", FileType::kRegular).status().code(),
            ErrorCode::kInvalidArgument);
  std::string long_name(kMaxNameLen + 1, 'n');
  EXPECT_EQ(fs_->Create(kRootInode, long_name, FileType::kRegular)
                .status().code(),
            ErrorCode::kInvalidArgument);
  std::string max_name(kMaxNameLen, 'n');
  EXPECT_TRUE(fs_->Create(kRootInode, max_name, FileType::kRegular).ok());
}

TEST_F(UfsTest, WriteReadRoundTrip) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  Rng rng(1);
  Buffer data = rng.RandomBuffer(1000);
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  Buffer out(1000);
  Result<size_t> n = fs_->Read(ino, 0, out.mutable_span());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1000u);
  EXPECT_EQ(out, data);
  ExpectClean();
}

TEST_F(UfsTest, UnalignedWritesPreserveNeighbors) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  Buffer a(std::string("AAAA"));
  Buffer b(std::string("BB"));
  ASSERT_TRUE(fs_->Write(ino, 0, a.span()).ok());
  ASSERT_TRUE(fs_->Write(ino, 1, b.span()).ok());
  Buffer out(4);
  ASSERT_TRUE(fs_->Read(ino, 0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "ABBA");
}

TEST_F(UfsTest, ReadPastEofIsShort) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  Buffer data(std::string("12345"));
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  Buffer out(100);
  Result<size_t> n = fs_->Read(ino, 3, out.mutable_span());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(*fs_->Read(ino, 5, out.mutable_span()), 0u);
  EXPECT_EQ(*fs_->Read(ino, 50, out.mutable_span()), 0u);
}

TEST_F(UfsTest, SparseFileReadsZerosInHoles) {
  InodeNum ino = *fs_->Create(kRootInode, "sparse", FileType::kRegular);
  Buffer tail(std::string("end"));
  // Write beyond several blocks without touching earlier ones.
  ASSERT_TRUE(fs_->Write(ino, 10 * kBlockSize, tail.span()).ok());
  Buffer out(kBlockSize);
  ASSERT_TRUE(fs_->Read(ino, kBlockSize, out.mutable_span()).ok());
  for (size_t i = 0; i < kBlockSize; ++i) {
    ASSERT_EQ(out.data()[i], 0);
  }
  Result<InodeAttrs> attrs = fs_->GetAttrs(ino);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size, 10 * kBlockSize + 3);
  ExpectClean();
}

TEST_F(UfsTest, LargeFileSpansIndirectBlocks) {
  InodeNum ino = *fs_->Create(kRootInode, "big", FileType::kRegular);
  // Beyond 12 direct blocks: 40 blocks uses the single-indirect range.
  Rng rng(2);
  Buffer data = rng.RandomBuffer(40 * kBlockSize);
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  Buffer out(40 * kBlockSize);
  ASSERT_TRUE(fs_->Read(ino, 0, out.mutable_span()).ok());
  EXPECT_EQ(Xxh64(out.span()), Xxh64(data.span()));
  ExpectClean();
}

TEST_F(UfsTest, DoubleIndirectRange) {
  InodeNum ino = *fs_->Create(kRootInode, "huge", FileType::kRegular);
  // File block kNumDirect + kPtrsPerBlock + 5 lives in the double-indirect
  // range; write it as a sparse block so the test stays fast.
  uint64_t fb = kNumDirect + kPtrsPerBlock + 5;
  Buffer data(std::string("deep"));
  ASSERT_TRUE(fs_->Write(ino, fb * kBlockSize, data.span()).ok());
  Buffer out(4);
  ASSERT_TRUE(fs_->Read(ino, fb * kBlockSize, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "deep");
  ExpectClean();
}

TEST_F(UfsTest, TruncateShrinkFreesBlocks) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  Rng rng(3);
  Buffer data = rng.RandomBuffer(20 * kBlockSize);
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  uint64_t free_before = fs_->FreeBlocks();
  ASSERT_TRUE(fs_->Truncate(ino, kBlockSize).ok());
  EXPECT_GT(fs_->FreeBlocks(), free_before);
  Result<InodeAttrs> attrs = fs_->GetAttrs(ino);
  EXPECT_EQ(attrs->size, kBlockSize);
  ExpectClean();
}

// Truncate and SetSize (the disk layer's set_length) shrink alike: a short
// file cut to 3 bytes, and a whole 0xAB block cut to 100, read back zeros
// past the cut once extended again.
TEST_F(UfsTest, TruncateThenExtendReadsZeros) {
  for (bool truncate : {true, false}) {
    SCOPED_TRACE(truncate ? "Truncate" : "SetSize");
    auto resize = [&](InodeNum ino, uint64_t size) {
      return truncate ? fs_->Truncate(ino, size) : fs_->SetSize(ino, size);
    };
    InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
    Buffer data(std::string("secret-data"));
    ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
    ASSERT_TRUE(resize(ino, 3).ok());
    ASSERT_TRUE(resize(ino, 11).ok());
    Buffer out(11);
    ASSERT_TRUE(fs_->Read(ino, 0, out.mutable_span()).ok());
    EXPECT_EQ(out.ToString().substr(0, 3), "sec");
    for (size_t i = 3; i < 11; ++i) {
      EXPECT_EQ(out.data()[i], 0) << "old data resurrected at " << i;
    }

    Buffer block(kBlockSize);
    std::memset(block.data(), 0xAB, kBlockSize);
    ASSERT_TRUE(fs_->Write(ino, 0, block.span()).ok());
    ASSERT_TRUE(resize(ino, 100).ok());
    ASSERT_TRUE(resize(ino, kBlockSize).ok());
    ASSERT_TRUE(fs_->Read(ino, 0, block.mutable_span()).ok());
    for (size_t i = 100; i < kBlockSize; ++i) {
      ASSERT_EQ(block.data()[i], 0) << "old data resurrected at " << i;
    }
    ASSERT_TRUE(fs_->Remove(kRootInode, "f").ok());
  }
}

TEST_F(UfsTest, RemoveFreesEverything) {
  // Warm-up so the root directory's entry block is already allocated; a
  // directory keeps its blocks after entries are removed.
  ASSERT_TRUE(fs_->Create(kRootInode, "warmup", FileType::kRegular).ok());
  ASSERT_TRUE(fs_->Remove(kRootInode, "warmup").ok());
  uint64_t free_blocks = fs_->FreeBlocks();
  uint64_t free_inodes = fs_->FreeInodes();
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  Rng rng(4);
  Buffer data = rng.RandomBuffer(30 * kBlockSize);
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  ASSERT_TRUE(fs_->Remove(kRootInode, "f").ok());
  EXPECT_EQ(fs_->FreeBlocks(), free_blocks);
  EXPECT_EQ(fs_->FreeInodes(), free_inodes);
  EXPECT_EQ(fs_->Lookup(kRootInode, "f").status().code(),
            ErrorCode::kNotFound);
  ExpectClean();
}

TEST_F(UfsTest, RemoveNonEmptyDirectoryFails) {
  InodeNum dir = *fs_->Create(kRootInode, "d", FileType::kDirectory);
  ASSERT_TRUE(fs_->Create(dir, "child", FileType::kRegular).ok());
  EXPECT_EQ(fs_->Remove(kRootInode, "d").code(), ErrorCode::kNotEmpty);
  ASSERT_TRUE(fs_->Remove(dir, "child").ok());
  EXPECT_TRUE(fs_->Remove(kRootInode, "d").ok());
  ExpectClean();
}

TEST_F(UfsTest, HardLinksShareData) {
  InodeNum ino = *fs_->Create(kRootInode, "a", FileType::kRegular);
  ASSERT_TRUE(fs_->Link(kRootInode, "b", ino).ok());
  Buffer data(std::string("shared"));
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  InodeNum via_b = *fs_->Lookup(kRootInode, "b");
  EXPECT_EQ(via_b, ino);
  Result<InodeAttrs> attrs = fs_->GetAttrs(ino);
  EXPECT_EQ(attrs->nlink, 2u);
  // Removing one name keeps the data.
  ASSERT_TRUE(fs_->Remove(kRootInode, "a").ok());
  Buffer out(6);
  ASSERT_TRUE(fs_->Read(via_b, 0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "shared");
  ASSERT_TRUE(fs_->Remove(kRootInode, "b").ok());
  ExpectClean();
}

TEST_F(UfsTest, HardLinkToDirectoryForbidden) {
  InodeNum dir = *fs_->Create(kRootInode, "d", FileType::kDirectory);
  EXPECT_EQ(fs_->Link(kRootInode, "d2", dir).code(), ErrorCode::kIsADirectory);
}

TEST_F(UfsTest, RenameMovesBinding) {
  InodeNum ino = *fs_->Create(kRootInode, "old", FileType::kRegular);
  InodeNum dir = *fs_->Create(kRootInode, "d", FileType::kDirectory);
  ASSERT_TRUE(fs_->Rename(kRootInode, "old", dir, "new").ok());
  EXPECT_EQ(fs_->Lookup(kRootInode, "old").status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(*fs_->Lookup(dir, "new"), ino);
  ExpectClean();
}

TEST_F(UfsTest, ReadDirListsAllEntries) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(fs_->Create(kRootInode, "file" + std::to_string(i),
                            FileType::kRegular).ok());
  }
  Result<std::vector<NamedEntry>> entries = fs_->ReadDir(kRootInode);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 100u);
  ExpectClean();
}

TEST_F(UfsTest, DirSlotReuseAfterRemove) {
  ASSERT_TRUE(fs_->Create(kRootInode, "a", FileType::kRegular).ok());
  ASSERT_TRUE(fs_->Create(kRootInode, "b", FileType::kRegular).ok());
  ASSERT_TRUE(fs_->Remove(kRootInode, "a").ok());
  ASSERT_TRUE(fs_->Create(kRootInode, "c", FileType::kRegular).ok());
  Result<std::vector<NamedEntry>> entries = fs_->ReadDir(kRootInode);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
  ExpectClean();
}

TEST_F(UfsTest, AttributesTrackOperations) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  Result<InodeAttrs> created = fs_->GetAttrs(ino);
  clock_->Advance(1000);
  Buffer data(std::string("x"));
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  Result<InodeAttrs> written = fs_->GetAttrs(ino);
  EXPECT_GT(written->mtime_ns, created->mtime_ns);
  clock_->Advance(1000);
  Buffer out(1);
  ASSERT_TRUE(fs_->Read(ino, 0, out.mutable_span()).ok());
  Result<InodeAttrs> read = fs_->GetAttrs(ino);
  EXPECT_GT(read->atime_ns, written->atime_ns);
}

TEST_F(UfsTest, SetTimesAndSetSize) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  ASSERT_TRUE(fs_->SetTimes(ino, 111, 222).ok());
  Result<InodeAttrs> attrs = fs_->GetAttrs(ino);
  EXPECT_EQ(attrs->atime_ns, 111u);
  EXPECT_EQ(attrs->mtime_ns, 222u);
  ASSERT_TRUE(fs_->SetSize(ino, 12345).ok());
  EXPECT_EQ(fs_->GetAttrs(ino)->size, 12345u);
}

TEST_F(UfsTest, BlockGranularityAccess) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  Rng rng(5);
  Buffer block = rng.RandomBuffer(kBlockSize);
  ASSERT_TRUE(fs_->WriteFileBlock(ino, 3, block.span()).ok());
  Buffer out(kBlockSize);
  ASSERT_TRUE(fs_->ReadFileBlock(ino, 3, out.mutable_span()).ok());
  EXPECT_EQ(out, block);
  // Holes read zeros.
  ASSERT_TRUE(fs_->ReadFileBlock(ino, 1, out.mutable_span()).ok());
  for (size_t i = 0; i < kBlockSize; ++i) {
    ASSERT_EQ(out.data()[i], 0);
  }
  // Block writes do not move the size; that is SetSize's job.
  EXPECT_EQ(fs_->GetAttrs(ino)->size, 0u);
}

// Whole-block writes into holes and over committed blocks at every pointer
// depth, in one transaction: a fresh data block is not zeroed before it is
// written, a pointer block the transaction already holds is changed where
// it lies, and a block written twice is stored over its first copy. A
// commit keeps all of it; an abandoned transaction none of it.
TEST_F(UfsTest, WholeBlockWritesAtEveryPointerDepth) {
  constexpr uint64_t kSingle = kNumDirect;
  constexpr uint64_t kDouble = kNumDirect + kPtrsPerBlock;
  // Per depth: blocks committed first, then overwritten, and holes. The
  // double-indirect blocks sit under three second-level blocks, the last
  // of which the holes create.
  const std::vector<uint64_t> committed = {2, kSingle + 7, kDouble + 4,
                                           kDouble + kPtrsPerBlock + 1};
  const std::vector<uint64_t> holes = {
      5,           9,           kSingle + 3,  kSingle + 200,
      kDouble + 3, kDouble + 600, kDouble + kPtrsPerBlock + 9,
      kDouble + 2 * kPtrsPerBlock + 5};
  const uint64_t end = kDouble + 2 * kPtrsPerBlock + 6;
  Rng rng(31);
  InodeNum ino = *fs_->Create(kRootInode, "deep", FileType::kRegular);
  std::map<uint64_t, Buffer> before;
  for (uint64_t fb : committed) {
    before[fb] = rng.RandomBuffer(kBlockSize);
    ASSERT_TRUE(fs_->WriteFileBlock(ino, fb, before[fb].span()).ok());
  }
  ASSERT_TRUE(fs_->SetSize(ino, end * kBlockSize).ok());
  ASSERT_TRUE(fs_->Sync().ok());

  // Holes and overwrites interleaved, so each pointer block is first met
  // as a committed copy and then held by the transaction; every other hole
  // is written twice.
  std::map<uint64_t, Buffer> after = before;
  auto write_all = [&](Ufs* fs) {
    for (size_t i = 0; i < holes.size(); ++i) {
      std::vector<uint64_t> blocks = {holes[i]};
      if (i < committed.size()) {
        blocks.push_back(committed[i]);
      }
      if (i % 2 == 0) {
        blocks.push_back(holes[i]);
      }
      for (uint64_t fb : blocks) {
        after[fb] = rng.RandomBuffer(kBlockSize);
        ASSERT_TRUE(fs->WriteFileBlock(ino, fb, after[fb].span()).ok());
      }
    }
  };
  auto expect_blocks = [&](Ufs* fs, const std::map<uint64_t, Buffer>& want) {
    Buffer out(kBlockSize);
    Buffer zero(kBlockSize);
    for (uint64_t fb = 0; fb < end; ++fb) {
      ASSERT_TRUE(fs->ReadFileBlock(ino, fb, out.mutable_span()).ok());
      auto it = want.find(fb);
      ASSERT_EQ(out, it == want.end() ? zero : it->second) << "block " << fb;
    }
  };
  auto remount = [&]() -> std::unique_ptr<Ufs> {
    fs_.reset();
    Result<std::unique_ptr<Ufs>> fs = Ufs::Mount(device_.get(), clock_.get());
    EXPECT_TRUE(fs.ok()) << fs.status().ToString();
    return fs.ok() ? fs.take_value() : nullptr;
  };

  write_all(fs_.get());
  expect_blocks(fs_.get(), after);
  fs_->Abandon();
  fs_ = remount();
  ASSERT_NE(fs_, nullptr);
  expect_blocks(fs_.get(), before);
  ExpectClean();

  after = before;
  write_all(fs_.get());
  ASSERT_TRUE(fs_->Sync().ok());
  fs_ = remount();
  ASSERT_NE(fs_, nullptr);
  expect_blocks(fs_.get(), after);
  ExpectClean();
}

TEST_F(UfsTest, PersistsAcrossRemount) {
  InodeNum dir = *fs_->Create(kRootInode, "docs", FileType::kDirectory);
  InodeNum ino = *fs_->Create(dir, "readme", FileType::kRegular);
  Buffer data(std::string("persistent content"));
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  fs_.reset();  // unmount

  Result<std::unique_ptr<Ufs>> remounted =
      Ufs::Mount(device_.get(), clock_.get());
  ASSERT_TRUE(remounted.ok()) << remounted.status().ToString();
  std::unique_ptr<Ufs> fs2 = remounted.take_value();
  InodeNum dir2 = *fs2->Lookup(kRootInode, "docs");
  InodeNum ino2 = *fs2->Lookup(dir2, "readme");
  EXPECT_EQ(ino2, ino);
  Buffer out(data.size());
  ASSERT_TRUE(fs2->Read(ino2, 0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "persistent content");
}

TEST_F(UfsTest, SyncWithNothingPendingMakesNoDeviceFlush) {
  ASSERT_TRUE(fs_->Create(kRootInode, "f", FileType::kRegular).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  BlockDeviceStats before = device_->stats();
  uint64_t tx = fs_->last_committed_tx();
  ASSERT_TRUE(fs_->Sync().ok());
  EXPECT_EQ(device_->stats().flushes, before.flushes);
  EXPECT_EQ(device_->stats().writes, before.writes);
  EXPECT_EQ(fs_->last_committed_tx(), tx);
  ExpectClean();
}

TEST_F(UfsTest, MountRejectsUnformattedDevice) {
  MemBlockDevice raw(kBlockSize, 64);
  EXPECT_FALSE(Ufs::Mount(&raw).ok());
}

// A write larger than the free space lands what fits, as a short write:
// every block it allocated stays referenced by the file, whose size covers
// exactly the bytes that landed. Only a write that lands nothing fails.
TEST_F(UfsTest, OutOfSpaceIsReported) {
  MemBlockDevice tiny(kBlockSize, 32);
  Result<std::unique_ptr<Ufs>> fs = Ufs::Format(&tiny, clock_.get());
  ASSERT_TRUE(fs.ok());
  InodeNum ino = *(*fs)->Create(kRootInode, "f", FileType::kRegular);
  ASSERT_TRUE((*fs)->Sync().ok());
  Rng rng(6);
  Buffer big = rng.RandomBuffer(64 * kBlockSize);
  Result<size_t> written = (*fs)->Write(ino, 0, big.span());
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_GT(*written, 0u);
  EXPECT_LT(*written, big.size());
  EXPECT_EQ((*fs)->GetAttrs(ino)->size, *written);
  Buffer got(*written);
  ASSERT_EQ(*(*fs)->Read(ino, 0, got.mutable_span()), *written);
  EXPECT_TRUE(got == Buffer(big.subspan(0, *written)));

  ByteSpan rest = big.span().subspan(*written);
  EXPECT_EQ((*fs)->Write(ino, *written, rest).status().code(),
            ErrorCode::kNoSpace);
  ASSERT_TRUE((*fs)->Sync().ok());
  Result<CheckReport> report = Checker(&tiny).Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
}

// An op that runs out of space after MapFileBlock allocated the indirect
// block still writes back the inode that points at it, so nothing leaks:
// a block write into a file, and a link that grows a full directory.
TEST_F(UfsTest, OutOfSpaceAfterAPointerBlockLeaksNothing) {
  Buffer block(kBlockSize);
  auto expect_clean = [](Ufs* fs, BlockDevice* device) {
    ASSERT_TRUE(fs->Sync().ok());
    EXPECT_EQ(fs->FreeBlocks(), 0u);
    Result<CheckReport> report = Checker(device).Check();
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean()) << report->Summary();
  };
  {
    MemBlockDevice tiny(kBlockSize, 32);
    std::unique_ptr<Ufs> fs = Ufs::Format(&tiny, clock_.get()).take_value();
    InodeNum ino = *fs->Create(kRootInode, "f", FileType::kRegular);
    for (uint64_t fb = 0; fs->FreeBlocks() > 1; ++fb) {
      ASSERT_TRUE(fs->WriteFileBlock(ino, fb, block.span()).ok());
    }
    ASSERT_TRUE(fs->Sync().ok());
    EXPECT_EQ(fs->WriteFileBlock(ino, kNumDirect, block.span()).code(),
              ErrorCode::kNoSpace);
    expect_clean(fs.get(), &tiny);
  }
  {
    MemBlockDevice small(kBlockSize, 64);
    std::unique_ptr<Ufs> fs = Ufs::Format(&small, clock_.get()).take_value();
    InodeNum ino = *fs->Create(kRootInode, "f", FileType::kRegular);
    for (uint32_t i = 1; i < kNumDirect * kDirEntriesPerBlock; ++i) {
      ASSERT_TRUE(fs->Link(kRootInode, "l" + std::to_string(i), ino).ok());
    }
    for (uint64_t fb = 0; fs->FreeBlocks() > 1; ++fb) {
      ASSERT_TRUE(fs->WriteFileBlock(ino, fb, block.span()).ok());
    }
    ASSERT_TRUE(fs->Sync().ok());
    EXPECT_EQ(fs->Link(kRootInode, "full", ino).code(), ErrorCode::kNoSpace);
    expect_clean(fs.get(), &small);
  }
}

TEST_F(UfsTest, InodeCacheServesRepeatLookups) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  (void)fs_->GetAttrs(ino);
  std::map<std::string, uint64_t> before = metrics::CollectFrom(*fs_);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fs_->GetAttrs(ino).ok());
  }
  std::map<std::string, uint64_t> after = metrics::CollectFrom(*fs_);
  EXPECT_EQ(after["inode_cache_misses"], before["inode_cache_misses"]);
  EXPECT_GE(after["inode_cache_hits"], before["inode_cache_hits"] + 10);
}

// --- placement: data blocks are allocated downward from the log ---

// The first block allocated (the root directory's, for the first entry)
// lands just below the log, and the file's data just below it. A Remove,
// Create, Write and Sync in one transaction leaves the removed file's
// blocks alone: the last commit still names them as allocated, so reusing
// one would journal it. The new block is ordered data, and the record is
// one log block of deltas.
TEST_F(UfsTest, DataBlocksAreAllocatedDownwardFromTheLog) {
  const uint64_t jnl_start = fs_->superblock().jnl_start();
  auto write_block = [&](std::string_view name, uint64_t seed) {
    InodeNum ino = *fs_->Create(kRootInode, name, FileType::kRegular);
    Buffer data = Rng(seed).RandomBuffer(kBlockSize);
    EXPECT_TRUE(fs_->Write(ino, 0, data.span()).ok());
    return data;
  };
  auto read_home = [&](BlockNum block) {
    Buffer out(kBlockSize);
    EXPECT_TRUE(device_->ReadBlock(block, out.mutable_span()).ok());
    return out;
  };
  const Buffer a = write_block("a", 1);
  ASSERT_TRUE(fs_->Sync().ok());
  Buffer dir = read_home(jnl_start - 1);
  EXPECT_EQ(DirEntry::Decode(dir.subspan(0, kDirEntrySize)).name, "a");
  EXPECT_TRUE(read_home(jnl_start - 2) == a) << "a's data is not below it";

  // Log the root directory block once, so its next change is a delta.
  ASSERT_TRUE(fs_->Create(kRootInode, "warm", FileType::kRegular).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  ASSERT_TRUE(fs_->Remove(kRootInode, "a").ok());
  const Buffer b = write_block("b", 2);
  const uint64_t logged = metrics::StatValue(*fs_, "journal_log_blocks");
  ASSERT_TRUE(fs_->Sync().ok());
  EXPECT_EQ(metrics::StatValue(*fs_, "journal_log_blocks") - logged, 1u);
  EXPECT_TRUE(read_home(jnl_start - 2) == a) << "a's block was reused";
  EXPECT_TRUE(read_home(jnl_start - 3) == b) << "b's data is not below a's";
  ExpectClean();
}

// A varmail-like loop straight on UFS over the rotating-disk model, timed
// by a FakeClock so that its modeled disk time is exact. Each step deletes
// a message, creates one with a 4-16 KB append and Syncs, then appends
// 4-16 KB to another and Syncs. It writes as the disk layer does: whole
// blocks through WriteFileBlock, then SetSize. With file data allocated
// next to the log, a commit's ordered writes and its record are a short
// seek apart: about 444 us of disk time per Sync, where a next-fit
// allocator that sweeps the data area spends about 543.
TEST(UfsPlacementTest, VarmailDiskTimePerSyncStaysNearTheLog) {
  FakeClock clock;
  LatencyBlockDevice device(std::make_unique<MemBlockDevice>(kBlockSize, 4096),
                            DiskLatencyModel{}, &clock);
  std::unique_ptr<Ufs> fs = Ufs::Format(&device, &clock).take_value();
  Rng rng(1);
  constexpr uint64_t kSlots = 48;
  std::map<uint64_t, std::pair<InodeNum, Buffer>> files;
  auto append = [&](uint64_t slot) {
    auto& [ino, content] = files[slot];
    uint64_t old_size = content.size();
    content.append(rng.RandomBuffer(rng.Range(4096, 16384)));
    Buffer padded(
        (content.size() + kBlockSize - 1) / kBlockSize * kBlockSize);
    content.ReadAt(0, padded.mutable_span());
    for (uint64_t fb = old_size / kBlockSize; fb * kBlockSize < content.size();
         ++fb) {
      ASSERT_TRUE(fs->WriteFileBlock(
          ino, fb, padded.subspan(fb * kBlockSize, kBlockSize)).ok());
    }
    ASSERT_TRUE(fs->SetSize(ino, content.size()).ok());
    ASSERT_TRUE(fs->Sync().ok());
  };
  auto create = [&](uint64_t slot) {
    std::string name = "m" + std::to_string(slot);
    Result<InodeNum> ino = fs->Create(kRootInode, name, FileType::kRegular);
    ASSERT_TRUE(ino.ok()) << ino.status().ToString();
    files[slot] = {*ino, Buffer()};
    append(slot);
  };
  for (uint64_t slot = 0; slot < kSlots / 2; ++slot) {
    create(slot);
  }

  constexpr uint64_t kSyncs = 4000;
  const uint64_t start_ns = device.total_latency_ns();
  for (uint64_t syncs = 0; syncs < kSyncs; syncs += 2) {
    uint64_t slot = rng.Below(kSlots);
    if (files.count(slot) != 0) {
      ASSERT_TRUE(fs->Remove(kRootInode, "m" + std::to_string(slot)).ok());
      files.erase(slot);
    }
    create(slot);
    auto other = files.begin();
    std::advance(other, rng.Below(files.size()));
    append(other->first);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  const double us_per_sync =
      static_cast<double>(device.total_latency_ns() - start_ns) / 1000.0 /
      kSyncs;
  std::printf("varmail disk time: %.1f us per Sync\n", us_per_sync);
  EXPECT_LE(us_per_sync, 495.0);

  for (const auto& [slot, file] : files) {
    Buffer got(file.second.size());
    ASSERT_EQ(*fs->Read(file.first, 0, got.mutable_span()), got.size());
    EXPECT_TRUE(got == file.second) << "m" << slot;
  }
  ASSERT_TRUE(fs->Sync().ok());
  Result<CheckReport> report = Checker(&device).Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
}

// --- corrupt block pointers ---

// Indirect blocks carry no CRC, so a pointer read from one may name any
// block. A 14-block file's first indirect pointer is rewritten to a
// metadata block, to a free data block and to a block of the log. Cutting
// the file to its 12 direct blocks, and reading block 12, then return
// kCorrupted and free nothing. A cut to 0, or a Remove, that frees blocks
// before it meets the bad pointer unlinks them: the inode and the pointer
// block are written back, so they read as holes after a remount.
TEST_F(UfsTest, CorruptIndirectPointerIsReportedNotFollowed) {
  const Superblock sb = fs_->superblock();
  // Formats, writes f's 14 blocks, rewrites pointer `index` of its
  // indirect block to `bad` and mounts again.
  auto corrupt = [&](uint64_t index, BlockNum bad) {
    fs_.reset();
    fs_ = Ufs::Format(device_.get(), clock_.get()).take_value();
    InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
    Buffer data = Rng(7).RandomBuffer(14 * kBlockSize);
    EXPECT_TRUE(fs_->Write(ino, 0, data.span()).ok());
    fs_.reset();  // unmount: checkpoint every metadata block home
    Buffer block(kBlockSize);
    BlockNum itb_block = sb.itb_start + ino / kInodesPerBlock;
    EXPECT_TRUE(device_->ReadBlock(itb_block, block.mutable_span()).ok());
    Inode inode = *Inode::Decode(
        block.subspan((ino % kInodesPerBlock) * kInodeSize, kInodeSize));
    EXPECT_TRUE(device_->ReadBlock(inode.indirect, block.mutable_span()).ok());
    StoreLe<uint64_t>(block.data() + 8 * index, bad);
    EXPECT_TRUE(device_->WriteBlock(inode.indirect, block.span()).ok());
    fs_ = Ufs::Mount(device_.get(), clock_.get()).take_value();
    return ino;
  };
  Buffer out(kBlockSize);
  for (BlockNum bad : {sb.ibm_start, sb.data_start, sb.jnl_start() + 3}) {
    SCOPED_TRACE("pointer to block " + std::to_string(bad));
    InodeNum ino = corrupt(0, bad);
    const uint64_t free_blocks = fs_->FreeBlocks();
    EXPECT_EQ(fs_->Truncate(ino, kNumDirect * kBlockSize).code(),
              ErrorCode::kCorrupted);
    EXPECT_EQ(fs_->Read(ino, kNumDirect * kBlockSize, out.mutable_span())
                  .status().code(),
              ErrorCode::kCorrupted);
    EXPECT_EQ(fs_->FreeBlocks(), free_blocks);
  }

  for (bool remove : {false, true}) {
    SCOPED_TRACE(remove ? "Remove" : "Truncate to 0");
    InodeNum ino = corrupt(1, sb.jnl_start() + 3);
    const uint64_t free_blocks = fs_->FreeBlocks();
    Status cut = remove ? fs_->Remove(kRootInode, "f") : fs_->Truncate(ino, 0);
    EXPECT_EQ(cut.code(), ErrorCode::kCorrupted);
    EXPECT_EQ(fs_->FreeBlocks(), free_blocks + kNumDirect + 1);
    fs_.reset();
    fs_ = Ufs::Mount(device_.get(), clock_.get()).take_value();
    for (uint64_t fb = 0; fb <= kNumDirect; ++fb) {
      ASSERT_TRUE(fs_->ReadFileBlock(ino, fb, out.mutable_span()).ok()) << fb;
      EXPECT_TRUE(out == Buffer(kBlockSize)) << "block " << fb << " not a hole";
    }
  }
}

// --- checker corruption detection ---

// Both corruption tests damage a home copy, so they unmount first: until a
// checkpoint the live log holds the newest metadata, and the checker (like
// Mount's replay) reads that instead of the home copy.
TEST_F(UfsTest, CheckerDetectsCorruptSuperblock) {
  fs_.reset();  // unmount: checkpoint every metadata block home
  Buffer block(kBlockSize);
  ASSERT_TRUE(device_->ReadBlock(0, block.mutable_span()).ok());
  block.data()[8] ^= 0xFF;  // flip bits in num_blocks
  ASSERT_TRUE(device_->WriteBlock(0, block.span()).ok());
  Checker checker(device_.get());
  Result<CheckReport> report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean());
}

// Every file system is journaled, so a superblock that names no journal is
// damage.
TEST_F(UfsTest, CheckerDetectsSuperblockWithoutJournal) {
  fs_.reset();  // unmount: checkpoint every metadata block home
  Buffer block(kBlockSize);
  ASSERT_TRUE(device_->ReadBlock(0, block.mutable_span()).ok());
  Result<Superblock> sb = Superblock::Decode(block.span());
  ASSERT_TRUE(sb.ok());
  sb->jnl_blocks = 0;
  sb->Encode(block.mutable_span());
  ASSERT_TRUE(device_->WriteBlock(0, block.span()).ok());
  Result<CheckReport> report = Checker(device_.get()).Check();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean());
  EXPECT_NE(report->Summary().find("names no journal"), std::string::npos)
      << report->Summary();
}

TEST_F(UfsTest, CheckerDetectsLinkCountMismatch) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  const Superblock sb = fs_->superblock();
  fs_.reset();  // unmount: checkpoint every metadata block home
  // Corrupt the inode's nlink directly on disk (re-encode with valid CRC).
  BlockNum itb_block = sb.itb_start + ino / kInodesPerBlock;
  Buffer block(kBlockSize);
  ASSERT_TRUE(device_->ReadBlock(itb_block, block.mutable_span()).ok());
  size_t slot = (ino % kInodesPerBlock) * kInodeSize;
  Inode inode = *Inode::Decode(block.subspan(slot, kInodeSize));
  inode.nlink = 5;
  inode.Encode(block.mutable_span().subspan(slot, kInodeSize));
  ASSERT_TRUE(device_->WriteBlock(itb_block, block.span()).ok());

  Checker checker(device_.get());
  Result<CheckReport> report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean());
}

// --- property test: random workload vs. in-memory reference model ---

struct RefFile {
  Buffer content;
};

class UfsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UfsPropertyTest, RandomWorkloadMatchesReferenceModel) {
  MemBlockDevice device(kBlockSize, 8192);
  FakeClock clock;
  std::unique_ptr<Ufs> fs = Ufs::Format(&device, &clock).take_value();
  Rng rng(GetParam());

  std::map<std::string, RefFile> model;
  auto pick_existing = [&]() -> std::string {
    if (model.empty()) {
      return "";
    }
    auto it = model.begin();
    std::advance(it, rng.Below(model.size()));
    return it->first;
  };

  for (int step = 0; step < 400; ++step) {
    uint64_t action = rng.Below(100);
    if (action < 25) {  // create
      std::string name = "f" + std::to_string(rng.Below(40));
      Result<InodeNum> ino = fs->Create(kRootInode, name, FileType::kRegular);
      if (model.count(name)) {
        EXPECT_EQ(ino.status().code(), ErrorCode::kAlreadyExists);
      } else {
        ASSERT_TRUE(ino.ok()) << ino.status().ToString();
        model[name] = RefFile{};
      }
    } else if (action < 50) {  // write
      std::string name = pick_existing();
      if (name.empty()) {
        continue;
      }
      uint64_t offset = rng.Below(3 * kBlockSize);
      Buffer data = rng.RandomBuffer(rng.Range(1, 2 * kBlockSize));
      InodeNum ino = *fs->Lookup(kRootInode, name);
      ASSERT_TRUE(fs->Write(ino, offset, data.span()).ok());
      model[name].content.WriteAt(offset, data.span());
    } else if (action < 70) {  // read and compare
      std::string name = pick_existing();
      if (name.empty()) {
        continue;
      }
      InodeNum ino = *fs->Lookup(kRootInode, name);
      const Buffer& ref = model[name].content;
      uint64_t offset = rng.Below(4 * kBlockSize);
      size_t len = rng.Range(1, 2 * kBlockSize);
      Buffer got(len);
      Result<size_t> n = fs->Read(ino, offset, got.mutable_span());
      ASSERT_TRUE(n.ok());
      Buffer expect(len);
      size_t ref_n = ref.ReadAt(offset, expect.mutable_span());
      ASSERT_EQ(*n, ref_n);
      EXPECT_EQ(ByteSpan(got.data(), *n).size(),
                ByteSpan(expect.data(), ref_n).size());
      EXPECT_TRUE(std::equal(got.data(), got.data() + *n, expect.data()));
    } else if (action < 85) {  // truncate
      std::string name = pick_existing();
      if (name.empty()) {
        continue;
      }
      InodeNum ino = *fs->Lookup(kRootInode, name);
      uint64_t new_size = rng.Below(4 * kBlockSize);
      ASSERT_TRUE(fs->Truncate(ino, new_size).ok());
      Buffer& ref = model[name].content;
      if (new_size <= ref.size()) {
        Buffer shrunk(new_size);
        ref.ReadAt(0, shrunk.mutable_span());
        ref = shrunk;
      } else {
        ref.resize(new_size);
      }
    } else {  // remove
      std::string name = pick_existing();
      if (name.empty()) {
        continue;
      }
      ASSERT_TRUE(fs->Remove(kRootInode, name).ok());
      model.erase(name);
    }
  }

  // Final full comparison plus an on-disk consistency check.
  for (const auto& [name, ref] : model) {
    InodeNum ino = *fs->Lookup(kRootInode, name);
    Result<InodeAttrs> attrs = fs->GetAttrs(ino);
    ASSERT_TRUE(attrs.ok());
    EXPECT_EQ(attrs->size, ref.content.size()) << name;
    Buffer got(ref.content.size());
    if (!got.empty()) {
      ASSERT_TRUE(fs->Read(ino, 0, got.mutable_span()).ok());
      EXPECT_EQ(Xxh64(got.span()), Xxh64(ref.content.span())) << name;
    }
  }
  ASSERT_TRUE(fs->Sync().ok());
  Checker checker(&device);
  Result<CheckReport> report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, UfsPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 1234, 99991));

}  // namespace
}  // namespace springfs::ufs
