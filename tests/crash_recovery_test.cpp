// Crash-consistency property suite for the UFS write-ahead journal.
//
// The harness runs a seeded random workload against a journaled UFS on a
// FaultyBlockDevice, replays the identical workload with a CrashPlan armed
// to "lose power" at a seeded-random device write, then recovers: discard
// the dead mount, clear the crash, remount (which replays the journal), and
// assert that (a) the fsck-style checker finds a clean file system and
// (b) the recovered state is byte-identical to the workload model at the
// transaction the journal says survived. Every failure prints its seed; a
// failing run is reproducible from that seed alone.
//
// A control suite formats without the journal and asserts the same harness
// detects corruption — proof the crash model has teeth.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "src/blockdev/block_device.h"
#include "src/blockdev/decorators.h"
#include "src/obs/flight_recorder.h"
#include "src/support/rng.h"
#include "src/ufs/checker.h"
#include "src/ufs/journal.h"
#include "src/ufs/ufs.h"

namespace springfs {
namespace {

using ufs::kBlockSize;
using ufs::kRootInode;

constexpr uint64_t kDevBlocks = 1024;
constexpr int kSteps = 60;

// name -> file content; the workload's in-memory truth.
using Model = std::map<std::string, Buffer>;

std::unique_ptr<FaultyBlockDevice> MakeDevice() {
  return std::make_unique<FaultyBlockDevice>(
      std::make_unique<MemBlockDevice>(kBlockSize, kDevBlocks));
}

void ModelWrite(Model& model, const std::string& name, uint64_t offset,
                ByteSpan data) {
  Buffer& content = model[name];
  if (content.size() < offset + data.size()) {
    content.resize(offset + data.size());  // zero-fill, like a file hole
  }
  content.WriteAt(offset, data);
}

// Runs the seeded workload. Snapshots the model keyed by the journal
// transaction that persists it: before each Sync the upcoming transaction
// id is last_committed_tx() + 1. Returns false when the device crashed
// mid-workload (the armed run); the dry run always returns true.
bool RunWorkload(ufs::Ufs* fs, uint64_t seed,
                 std::map<uint64_t, Model>* snapshots) {
  Rng rng(seed);
  Model model;
  if (snapshots != nullptr) {
    (*snapshots)[fs->last_committed_tx()] = model;  // post-format state
  }
  int next_file = 0;
  std::vector<std::string> names;
  for (int step = 0; step < kSteps; ++step) {
    uint64_t dice = rng.Below(100);
    if (dice < 25 || names.empty()) {
      std::string name = "f" + std::to_string(next_file++);
      if (!fs->Create(kRootInode, name, ufs::FileType::kRegular).ok()) {
        return false;
      }
      names.push_back(name);
      model[name] = Buffer();
    } else if (dice < 60) {
      const std::string& name = names[rng.Below(names.size())];
      uint64_t offset = rng.Below(4 * kBlockSize);
      Buffer data(rng.Range(1, 2 * kBlockSize));
      rng.Fill(data.mutable_span());
      ufs::InodeNum ino = 0;
      {
        auto looked = fs->Lookup(kRootInode, name);
        if (!looked.ok()) {
          return false;
        }
        ino = *looked;
      }
      if (!fs->Write(ino, offset, data.span()).ok()) {
        return false;
      }
      ModelWrite(model, name, offset, data.span());
    } else if (dice < 70) {
      const std::string& name = names[rng.Below(names.size())];
      auto looked = fs->Lookup(kRootInode, name);
      if (!looked.ok()) {
        return false;
      }
      uint64_t new_size = rng.Below(3 * kBlockSize);
      if (!fs->Truncate(*looked, new_size).ok()) {
        return false;
      }
      model[name].resize(new_size);
    } else if (dice < 80) {
      size_t pick = rng.Below(names.size());
      std::string name = names[pick];
      if (!fs->Remove(kRootInode, name).ok()) {
        return false;
      }
      names.erase(names.begin() + pick);
      model.erase(name);
    } else {
      if (snapshots != nullptr) {
        (*snapshots)[fs->last_committed_tx() + 1] = model;
      }
      if (!fs->Sync().ok()) {
        return false;
      }
    }
  }
  if (snapshots != nullptr) {
    (*snapshots)[fs->last_committed_tx() + 1] = model;
  }
  return fs->Sync().ok();
}

// Phase one of the harness: run the workload unarmed and count the device
// writes it performs after format, so the crash point can be placed
// uniformly among them.
uint64_t CountWorkloadWrites(uint64_t seed, bool journal) {
  auto device = MakeDevice();
  auto fs = ufs::Ufs::Format(device.get(), &DefaultClock(),
                             ufs::FormatOptions{journal});
  EXPECT_TRUE(fs.ok());
  if (!fs.ok()) {
    return 0;
  }
  uint64_t before = device->stats().writes;
  EXPECT_TRUE(RunWorkload(fs->get(), seed, nullptr));
  EXPECT_EQ(metrics::StatValue(**fs, "journal_overflow_syncs"), 0u);
  uint64_t writes = device->stats().writes - before;
  (*fs)->Abandon();  // already synced; skip the unmount sync
  return writes;
}

// Verifies the recovered file system matches `want` exactly: same directory
// listing, same sizes, same bytes.
void ExpectMatchesModel(ufs::Ufs* fs, const Model& want) {
  auto listing = fs->ReadDir(kRootInode);
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  std::set<std::string> got_names;
  for (const auto& entry : *listing) {
    got_names.insert(entry.name);
  }
  std::set<std::string> want_names;
  for (const auto& [name, content] : want) {
    want_names.insert(name);
  }
  EXPECT_EQ(got_names, want_names);
  for (const auto& [name, content] : want) {
    auto looked = fs->Lookup(kRootInode, name);
    ASSERT_TRUE(looked.ok()) << "lost file " << name;
    auto attrs = fs->GetAttrs(*looked);
    ASSERT_TRUE(attrs.ok());
    ASSERT_EQ(attrs->size, content.size()) << "size of " << name;
    Buffer got(content.size());
    auto n = fs->Read(*looked, 0, got.mutable_span());
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_EQ(*n, content.size());
    EXPECT_TRUE(got == content) << "content of " << name;
  }
}

// One full crash/recovery property check for one seed.
void RunCrashSeed(uint64_t seed) {
  // Per-seed black box (see tests/chaos_dfs_test.cpp): a failure dump below
  // then shows only this seed's journal/crash events.
  flight::Clear();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  uint64_t writes = CountWorkloadWrites(seed, /*journal=*/true);
  ASSERT_GT(writes, 0u);

  Rng pick(seed ^ 0xC0FFEE);
  CrashPlan plan;
  plan.crash_after_writes = pick.Range(1, writes);
  plan.seed = seed;

  auto device = MakeDevice();
  auto formatted = ufs::Ufs::Format(device.get());
  ASSERT_TRUE(formatted.ok());
  std::map<uint64_t, Model> snapshots;
  device->ArmCrash(plan);
  bool completed = RunWorkload(formatted->get(), seed, &snapshots);
  ASSERT_FALSE(completed) << "workload survived the planned crash";
  ASSERT_TRUE(device->crashed());

  // Abandon the dead mount, restore power, and remount: Mount replays the
  // journal's last committed transaction.
  (*formatted)->Abandon();
  formatted->reset();
  device->RecoverAfterCrash();
  auto recovered = ufs::Ufs::Mount(device.get());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // (a) fsck-clean at the crash point.
  ufs::Checker checker(device.get());
  auto report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();

  // (b) the recovered image is exactly the model at the surviving
  // transaction — no torn syncs, no lost synced data.
  uint64_t tx = (*recovered)->last_committed_tx();
  auto snap = snapshots.find(tx);
  ASSERT_TRUE(snap != snapshots.end())
      << "recovered tx " << tx << " matches no pre-crash sync";
  ExpectMatchesModel(recovered->get(), snap->second);

  // The recovered file system is writable and stays clean.
  ASSERT_TRUE((*recovered)->Create(kRootInode, "post-crash",
                                   ufs::FileType::kRegular).ok());
  ASSERT_TRUE((*recovered)->Sync().ok());
  auto report2 = checker.Check();
  ASSERT_TRUE(report2.ok());
  EXPECT_TRUE(report2->clean()) << report2->Summary();
}

// The same crash applied to a journal-less format: returns true when the
// harness catches the damage (unmountable image or checker errors).
bool CrashWithoutJournalIsDetected(uint64_t seed) {
  uint64_t writes = CountWorkloadWrites(seed, /*journal=*/false);
  if (writes == 0) {
    return false;
  }
  Rng pick(seed ^ 0xC0FFEE);
  CrashPlan plan;
  plan.crash_after_writes = pick.Range(1, writes);
  plan.seed = seed;

  auto device = MakeDevice();
  auto formatted = ufs::Ufs::Format(device.get(), &DefaultClock(),
                                    ufs::FormatOptions{/*journal=*/false});
  EXPECT_TRUE(formatted.ok());
  device->ArmCrash(plan);
  (void)RunWorkload(formatted->get(), seed, nullptr);
  (*formatted)->Abandon();
  formatted->reset();
  device->RecoverAfterCrash();

  auto recovered = ufs::Ufs::Mount(device.get());
  if (!recovered.ok()) {
    return true;  // superblock torn beyond recognition
  }
  ufs::Checker checker(device.get());
  auto report = checker.Check();
  return !report.ok() || !report->clean();
}

// --- Journal unit tests ---

TEST(Journal, CommitThenReplayRestoresHomes) {
  MemBlockDevice device(kBlockSize, 64);
  uint64_t jnl_start = 48;
  ufs::Journal journal(&device, jnl_start);

  std::map<BlockNum, Buffer> tx;
  Rng rng(7);
  for (BlockNum b : {5u, 9u, 17u}) {
    Buffer content(kBlockSize);
    rng.Fill(content.mutable_span());
    ASSERT_TRUE(device.WriteBlock(b, content.span()).ok());
    tx[b] = std::move(content);
  }
  ASSERT_TRUE(journal.Commit(3, tx).ok());

  // Scribble over the home locations, as a crash mid-checkpoint would.
  Buffer junk(kBlockSize);
  rng.Fill(junk.mutable_span());
  for (const auto& [b, content] : tx) {
    ASSERT_TRUE(device.WriteBlock(b, junk.span()).ok());
  }

  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 3u);
  EXPECT_EQ(report->blocks_replayed, 3u);
  Buffer got(kBlockSize);
  for (const auto& [b, content] : tx) {
    ASSERT_TRUE(device.ReadBlock(b, got.mutable_span()).ok());
    EXPECT_TRUE(got == content) << "home block " << b;
  }

  // Replay is idempotent.
  auto again = ufs::Journal::Replay(&device);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->tx_id, 3u);
}

TEST(Journal, TornPayloadInvalidatesWholeTransaction) {
  MemBlockDevice device(kBlockSize, 64);
  ufs::Journal journal(&device, 48);
  std::map<BlockNum, Buffer> tx;
  Buffer content(kBlockSize);
  Rng rng(11);
  rng.Fill(content.mutable_span());
  tx[5] = content;
  ASSERT_TRUE(journal.Commit(1, tx).ok());

  // Flip one byte of the journaled payload: the commit record still
  // verifies, but the record CRC must not, so nothing is replayed.
  uint64_t payload_block = 64 - 2 - tx.size();
  Buffer payload(kBlockSize);
  ASSERT_TRUE(device.ReadBlock(payload_block, payload.mutable_span()).ok());
  payload.data()[100] ^= 0xFF;
  ASSERT_TRUE(device.WriteBlock(payload_block, payload.span()).ok());

  Buffer junk(kBlockSize);
  rng.Fill(junk.mutable_span());
  ASSERT_TRUE(device.WriteBlock(5, junk.span()).ok());
  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 0u);
  Buffer got(kBlockSize);
  ASSERT_TRUE(device.ReadBlock(5, got.mutable_span()).ok());
  EXPECT_TRUE(got == junk);  // home untouched
}

// Why the payload tag must be non-linear. Transaction N+1 writes its
// payloads into the slots transaction N used, before its own commit record
// lands; a crash in between leaves tx N's commit record over tx N+1's
// superblock. Every valid superblock embeds its Crc32, so by the CRC
// residue property all of them share one Crc32 and a linear tag would
// accept the stale slot, mixing two transactions on replay (the crash
// sweep first hit this at seed 1048).
TEST(Journal, StaleSlotHoldingAnotherValidSuperblockIsRejected) {
  constexpr uint64_t kBlocks = 64;
  MemBlockDevice device(kBlockSize, kBlocks);
  ufs::Journal journal(&device, 48);
  ufs::Superblock sb;
  sb.num_blocks = kBlocks;
  sb.jnl_blocks = 16;
  sb.free_blocks = 20;
  sb.last_tx = 7;
  Buffer committed(kBlockSize);
  sb.Encode(committed.mutable_span());
  sb.free_blocks = 19;
  sb.last_tx = 8;
  Buffer next(kBlockSize);
  sb.Encode(next.mutable_span());
  ASSERT_FALSE(committed == next);
  ASSERT_EQ(Crc32(committed.span()), Crc32(next.span()));

  std::map<BlockNum, Buffer> tx;
  tx[0] = committed;
  ASSERT_TRUE(journal.Commit(7, tx).ok());
  uint64_t payload_block = kBlocks - 2 - tx.size();
  ASSERT_TRUE(device.WriteBlock(payload_block, next.span()).ok());

  Buffer junk(kBlockSize);
  Rng(13).Fill(junk.mutable_span());
  ASSERT_TRUE(device.WriteBlock(0, junk.span()).ok());
  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 0u);
  Buffer got(kBlockSize);
  ASSERT_TRUE(device.ReadBlock(0, got.mutable_span()).ok());
  EXPECT_TRUE(got == junk);  // home untouched
}

TEST(Journal, EmptyDeviceTailReplaysNothing) {
  MemBlockDevice device(kBlockSize, 64);
  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 0u);
  EXPECT_EQ(report->blocks_replayed, 0u);
}

TEST(Journal, FitsAccountsForDescriptorsAndCommit) {
  MemBlockDevice device(kBlockSize, 64);
  ufs::Journal journal(&device, 52);  // 12 journal blocks
  // 1 commit + 1 descriptor block covers up to 10 payloads.
  EXPECT_TRUE(journal.Fits(10));
  EXPECT_FALSE(journal.Fits(11));
  std::map<BlockNum, Buffer> too_big;
  for (BlockNum b = 1; b <= 11; ++b) {
    too_big[b] = Buffer(kBlockSize);
  }
  EXPECT_EQ(journal.Commit(1, too_big).code(), ErrorCode::kNoSpace);
}

// --- CrashPlan unit tests ---

TEST(CrashPlan, ArmedDeviceBuffersWritesUntilFlush) {
  auto device = MakeDevice();
  Buffer data(kBlockSize);
  data.data()[0] = 0xAB;
  device->ArmCrash(CrashPlan{/*crash_after_writes=*/100, /*seed=*/1});
  ASSERT_TRUE(device->WriteBlock(3, data.span()).ok());
  EXPECT_EQ(device->stats().writes, 0u);  // cached, not on the platter

  Buffer got(kBlockSize);
  ASSERT_TRUE(device->ReadBlock(3, got.mutable_span()).ok());
  EXPECT_TRUE(got == data);  // reads see the cache

  ASSERT_TRUE(device->Flush().ok());
  EXPECT_EQ(device->stats().writes, 1u);  // flush made it durable
}

TEST(CrashPlan, CrashFailsEverythingUntilRecovered) {
  auto device = MakeDevice();
  Buffer data(kBlockSize);
  device->ArmCrash(CrashPlan{/*crash_after_writes=*/2, /*seed=*/1});
  ASSERT_TRUE(device->WriteBlock(3, data.span()).ok());
  EXPECT_EQ(device->WriteBlock(4, data.span()).code(), ErrorCode::kIoError);
  EXPECT_TRUE(device->crashed());
  Buffer got(kBlockSize);
  EXPECT_EQ(device->ReadBlock(3, got.mutable_span()).code(),
            ErrorCode::kIoError);
  EXPECT_EQ(device->Flush().code(), ErrorCode::kIoError);
  EXPECT_GE(device->stats().write_errors, 1u);

  device->RecoverAfterCrash();
  EXPECT_FALSE(device->crashed());
  ASSERT_TRUE(device->ReadBlock(3, got.mutable_span()).ok());
  ASSERT_TRUE(device->WriteBlock(3, data.span()).ok());
}

TEST(CrashPlan, OutcomeIsDeterministicPerSeed) {
  // Two identical runs with the same plan leave identical durable images.
  auto image_after_crash = [](uint64_t seed) {
    auto device = MakeDevice();
    Rng rng(42);  // workload rng fixed; plan seed varies
    device->ArmCrash(CrashPlan{/*crash_after_writes=*/6, seed});
    Buffer data(kBlockSize);
    for (BlockNum b = 1; b <= 6; ++b) {
      rng.Fill(data.mutable_span());
      (void)device->WriteBlock(b, data.span());
    }
    device->RecoverAfterCrash();
    Buffer image;
    Buffer block(kBlockSize);
    for (BlockNum b = 1; b <= 6; ++b) {
      EXPECT_TRUE(device->ReadBlock(b, block.mutable_span()).ok());
      image.append(block.span());
    }
    return image;
  };
  Buffer first = image_after_crash(123);
  Buffer second = image_after_crash(123);
  EXPECT_TRUE(first == second);
  // And a different seed chooses a different survivor set (overwhelmingly).
  Buffer third = image_after_crash(456);
  EXPECT_FALSE(first == third);
}

// --- Journal-through-Ufs integration ---

TEST(CrashRecovery, FormatReservesJournalAndMountReplays) {
  auto device = MakeDevice();
  auto fs = ufs::Ufs::Format(device.get());
  ASSERT_TRUE(fs.ok());
  EXPECT_TRUE((*fs)->journaled());
  const ufs::Superblock& sb = (*fs)->superblock();
  EXPECT_GT(sb.jnl_blocks, 0u);
  EXPECT_EQ(sb.jnl_start(), kDevBlocks - sb.jnl_blocks);
  EXPECT_EQ((*fs)->last_committed_tx(), 1u);  // the format sync

  ASSERT_TRUE((*fs)->Create(kRootInode, "a", ufs::FileType::kRegular).ok());
  ASSERT_TRUE((*fs)->Sync().ok());
  EXPECT_EQ((*fs)->last_committed_tx(), 2u);
  EXPECT_GE(metrics::StatValue(**fs, "journal_commits"), 2u);
  (*fs)->Abandon();
  fs->reset();

  auto again = ufs::Ufs::Mount(device.get());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE((*again)->journaled());
  EXPECT_EQ((*again)->last_committed_tx(), 2u);
  EXPECT_TRUE((*again)->Lookup(kRootInode, "a").ok());
  (*again)->Abandon();
}

TEST(CrashRecovery, JournalOffFormatStillWorks) {
  auto device = MakeDevice();
  auto fs = ufs::Ufs::Format(device.get(), &DefaultClock(),
                             ufs::FormatOptions{/*journal=*/false});
  ASSERT_TRUE(fs.ok());
  EXPECT_FALSE((*fs)->journaled());
  EXPECT_EQ((*fs)->superblock().jnl_blocks, 0u);
  ASSERT_TRUE((*fs)->Create(kRootInode, "a", ufs::FileType::kRegular).ok());
  ASSERT_TRUE((*fs)->Sync().ok());
  ufs::Checker checker(device.get());
  auto report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
}

// --- The crash/recovery property suite: >= 200 seeded crash points ---

// On the first failing seed, print the flight recorder (journal commits,
// replay decisions, injected crash point) and save it for CI upload.
void RunCrashShard(uint64_t first_seed) {
  bool dumped = false;
  for (uint64_t seed = first_seed; seed < first_seed + 55; ++seed) {
    RunCrashSeed(seed);
    if (!dumped && ::testing::Test::HasFailure()) {
      dumped = true;
      std::string header = "crash seed=" + std::to_string(seed);
      std::fprintf(stderr,
                   "=== flight recorder (%s, last 64 events) ===\n%s",
                   header.c_str(), flight::Dump(64).c_str());
      flight::DumpToArtifact("crash", header);
    }
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(CrashRecovery, SeededCrashPointsShard0) { RunCrashShard(1000); }
TEST(CrashRecovery, SeededCrashPointsShard1) { RunCrashShard(2000); }
TEST(CrashRecovery, SeededCrashPointsShard2) { RunCrashShard(3000); }
TEST(CrashRecovery, SeededCrashPointsShard3) { RunCrashShard(4000); }

// Control: with the journal disabled the same crashes corrupt the file
// system and the harness notices — i.e. the property suite above is not
// vacuously green.
TEST(CrashRecovery, WithoutJournalHarnessDetectsCorruption) {
  int detected = 0;
  constexpr int kSeeds = 40;
  for (uint64_t seed = 5000; seed < 5000 + kSeeds; ++seed) {
    detected += CrashWithoutJournalIsDetected(seed) ? 1 : 0;
  }
  EXPECT_GE(detected, 1) << "no crash corrupted a journal-less fs in "
                         << kSeeds << " seeds; the harness has no teeth";
}

}  // namespace
}  // namespace springfs
