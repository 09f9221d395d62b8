// Crash-consistency property suite for the UFS write-ahead journal.
//
// The harness runs a seeded random workload against a journaled UFS on a
// FaultyBlockDevice, replays the identical workload with a CrashPlan armed
// to "lose power" at a seeded-random device write, then recovers: discard
// the dead mount, clear the crash, remount (which replays the journal), and
// assert that (a) the fsck-style checker finds a clean file system and
// (b) the recovered state is byte-identical to the workload model at the
// transaction the journal says survived, which is no older than the last
// Sync that returned OK before the crash. Every failure prints its seed; a
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
// Journal size for the shard whose seeds must wrap the log.
constexpr uint64_t kWrapJournalBlocks = 16;

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
// id is last_committed_tx() + 1. `acked` tracks the transaction of the last
// Sync that returned OK. Returns false when the device crashed
// mid-workload (the armed run); the dry run always returns true.
bool RunWorkload(ufs::Ufs* fs, uint64_t seed,
                 std::map<uint64_t, Model>* snapshots, uint64_t* acked) {
  Rng rng(seed);
  Model model;
  if (snapshots != nullptr) {
    (*snapshots)[fs->last_committed_tx()] = model;  // post-format state
  }
  *acked = fs->last_committed_tx();  // Format's own sync returned OK
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
      *acked = fs->last_committed_tx();
    }
  }
  if (snapshots != nullptr) {
    (*snapshots)[fs->last_committed_tx() + 1] = model;
  }
  if (!fs->Sync().ok()) {
    return false;
  }
  *acked = fs->last_committed_tx();
  return true;
}

// What the unarmed run of one seed did after format.
struct DryRun {
  uint64_t writes = 0;
  uint64_t checkpoints = 0;
  // Write ordinals (1-based, as CrashPlan counts them) spanned by each
  // checkpoint: from its superblock home write through its anchor write.
  std::vector<std::pair<uint64_t, uint64_t>> checkpoint_writes;

  bool InCheckpoint(uint64_t write) const {
    for (const auto& [first, last] : checkpoint_writes) {
      if (write >= first && write <= last) {
        return true;
      }
    }
    return false;
  }
};

// Phase one of the harness: run the workload unarmed and count the device
// writes it performs after format, so the crash point can be placed
// uniformly among them. A journaled workload writes the superblock home
// and the anchor (the device's last block) only inside a checkpoint, which
// writes its homes in block order, so those two writes bound each one.
DryRun CountWorkloadWrites(uint64_t seed, const ufs::FormatOptions& options) {
  DryRun dry;
  uint64_t open_checkpoint = 0;
  auto device = MakeDevice();
  auto fs = ufs::Ufs::Format(device.get(), &DefaultClock(), options);
  EXPECT_TRUE(fs.ok());
  if (!fs.ok()) {
    return dry;
  }
  device->set_predicate([&](int op, BlockNum block) {
    if (op == 1) {
      ++dry.writes;
      if (block == 0 && open_checkpoint == 0) {
        open_checkpoint = dry.writes;
      } else if (block == kDevBlocks - 1 && open_checkpoint != 0) {
        dry.checkpoint_writes.emplace_back(open_checkpoint, dry.writes);
        open_checkpoint = 0;
      }
    }
    return false;
  });
  uint64_t acked = 0;
  EXPECT_TRUE(RunWorkload(fs->get(), seed, nullptr, &acked));
  EXPECT_EQ(metrics::StatValue(**fs, "journal_overflow_syncs"), 0u);
  dry.checkpoints = metrics::StatValue(**fs, "journal_checkpoints");
  (*fs)->Abandon();  // already synced; skip the unmount sync
  device->set_predicate(nullptr);
  return dry;
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

// Runs seed `seed`'s workload with `plan` armed, then recovers and checks
// the image.
void CheckCrashAt(uint64_t seed, const ufs::FormatOptions& options,
                  const CrashPlan& plan) {
  auto device = MakeDevice();
  auto formatted = ufs::Ufs::Format(device.get(), &DefaultClock(), options);
  ASSERT_TRUE(formatted.ok());
  std::map<uint64_t, Model> snapshots;
  uint64_t acked = 0;
  device->ArmCrash(plan);
  bool completed = RunWorkload(formatted->get(), seed, &snapshots, &acked);
  ASSERT_FALSE(completed) << "workload survived the planned crash";
  ASSERT_TRUE(device->crashed());

  // Abandon the dead mount, restore power, and remount: Mount replays every
  // live transaction in the log.
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
  // transaction — no torn syncs — and that transaction is no older than the
  // last acknowledged Sync: no lost synced data.
  uint64_t tx = (*recovered)->last_committed_tx();
  EXPECT_GE(tx, acked) << "the Sync of tx " << acked
                       << " returned OK but did not survive the crash";
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

// One full crash/recovery property check for one seed. Sets
// `in_checkpoint` when the crash point fell inside a checkpoint.
void RunCrashSeed(uint64_t seed, const ufs::FormatOptions& options,
                  uint64_t min_checkpoints, bool* in_checkpoint) {
  // Per-seed black box (see tests/chaos_dfs_test.cpp): a failure dump below
  // then shows only this seed's journal/crash events.
  flight::Clear();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  DryRun dry = CountWorkloadWrites(seed, options);
  ASSERT_GT(dry.writes, 0u);
  ASSERT_GE(dry.checkpoints, min_checkpoints) << "the log did not wrap";

  Rng pick(seed ^ 0xC0FFEE);
  CrashPlan plan;
  plan.crash_after_writes = pick.Range(1, dry.writes);
  plan.seed = seed;
  *in_checkpoint = dry.InCheckpoint(plan.crash_after_writes);
  CheckCrashAt(seed, options, plan);
}

// The same crash applied to a journal-less format: returns true when the
// harness catches the damage (unmountable image or checker errors).
bool CrashWithoutJournalIsDetected(uint64_t seed) {
  const ufs::FormatOptions no_journal{/*journal=*/false};
  uint64_t writes = CountWorkloadWrites(seed, no_journal).writes;
  if (writes == 0) {
    return false;
  }
  Rng pick(seed ^ 0xC0FFEE);
  CrashPlan plan;
  plan.crash_after_writes = pick.Range(1, writes);
  plan.seed = seed;

  auto device = MakeDevice();
  auto formatted = ufs::Ufs::Format(device.get(), &DefaultClock(), no_journal);
  EXPECT_TRUE(formatted.ok());
  device->ArmCrash(plan);
  uint64_t acked = 0;
  (void)RunWorkload(formatted->get(), seed, nullptr, &acked);
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

// A block of seeded random bytes.
Buffer RandomBlock(uint64_t seed) {
  Buffer block(kBlockSize);
  Rng(seed).Fill(block.mutable_span());
  return block;
}

Buffer ReadBack(BlockDevice& device, BlockNum block) {
  Buffer got(kBlockSize);
  EXPECT_TRUE(device.ReadBlock(block, got.mutable_span()).ok());
  return got;
}

// Overwrites `homes` with junk, as a crash before their checkpoint leaves
// them (or a stale image would).
void Scribble(BlockDevice& device, std::initializer_list<BlockNum> homes) {
  Buffer junk = RandomBlock(0xBAD);
  for (BlockNum b : homes) {
    ASSERT_TRUE(device.WriteBlock(b, junk.span()).ok());
  }
}

std::unique_ptr<ufs::Journal> OpenJournal(BlockDevice* device,
                                          uint64_t jnl_start,
                                          uint64_t next_tx) {
  auto journal = ufs::Journal::Open(device, jnl_start, next_tx);
  EXPECT_TRUE(journal.ok()) << journal.status().ToString();
  return journal.ok() ? std::move(*journal) : nullptr;
}

TEST(Journal, CommitThenReplayRestoresHomes) {
  MemBlockDevice device(kBlockSize, 64);
  auto journal = OpenJournal(&device, 48, /*next_tx=*/3);
  ASSERT_NE(journal, nullptr);

  std::map<BlockNum, Buffer> tx;
  for (BlockNum b : {5u, 9u, 17u}) {
    tx[b] = RandomBlock(b);
    ASSERT_TRUE(device.WriteBlock(b, tx[b].span()).ok());
  }
  ASSERT_TRUE(journal->Commit(3, tx).ok());
  Scribble(device, {5, 9, 17});

  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 3u);
  EXPECT_EQ(report->transactions, 1u);
  EXPECT_EQ(report->blocks_replayed, 3u);
  for (const auto& [b, content] : tx) {
    EXPECT_TRUE(ReadBack(device, b) == content) << "home block " << b;
  }

  // Replay is idempotent.
  auto again = ufs::Journal::Replay(&device);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->tx_id, 3u);
}

TEST(Journal, TornPayloadInvalidatesWholeTransaction) {
  MemBlockDevice device(kBlockSize, 64);
  auto journal = OpenJournal(&device, 48, 1);
  ASSERT_NE(journal, nullptr);
  std::map<BlockNum, Buffer> tx;
  tx[5] = RandomBlock(11);
  tx[6] = RandomBlock(12);
  ASSERT_TRUE(journal->Commit(1, tx).ok());

  // The record is one descriptor block, then the payloads in home order.
  // Flip one byte of the second payload: the descriptor still verifies,
  // but its tag must not, so nothing of the transaction is replayed.
  BlockNum payload_block = 48 + 2;
  Buffer payload = ReadBack(device, payload_block);
  payload.data()[100] ^= 0xFF;
  ASSERT_TRUE(device.WriteBlock(payload_block, payload.span()).ok());

  Scribble(device, {5, 6});
  Buffer junk = ReadBack(device, 5);
  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 0u);
  EXPECT_TRUE(ReadBack(device, 5) == junk);  // homes untouched
  EXPECT_TRUE(ReadBack(device, 6) == junk);
}

// Why the payload tag must be non-linear. Once the log wraps, a newer
// record writes its payloads into slots an older one used; a crash before
// all of them land can leave a record's slot holding another transaction's
// superblock. Every valid superblock embeds its Crc32, so by the CRC
// residue property all of them share one Crc32 and a linear tag would
// accept the stale slot, mixing two transactions on replay (the crash
// sweep first hit this at seed 1048).
TEST(Journal, StaleSlotHoldingAnotherValidSuperblockIsRejected) {
  constexpr uint64_t kBlocks = 64;
  MemBlockDevice device(kBlockSize, kBlocks);
  auto journal = OpenJournal(&device, 48, 7);
  ASSERT_NE(journal, nullptr);
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
  ASSERT_TRUE(journal->Commit(7, tx).ok());
  ASSERT_TRUE(device.WriteBlock(48 + 1, next.span()).ok());

  Scribble(device, {0});
  Buffer junk = ReadBack(device, 0);
  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 0u);
  EXPECT_TRUE(ReadBack(device, 0) == junk);  // home untouched
}

TEST(Journal, EmptyDeviceTailReplaysNothing) {
  MemBlockDevice device(kBlockSize, 64);
  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 0u);
  EXPECT_EQ(report->blocks_replayed, 0u);

  // A freshly opened log holds no transaction either.
  ASSERT_NE(OpenJournal(&device, 48, 1), nullptr);
  report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 0u);
}

// A freshly opened log is empty, so HasRoom there says whether a
// transaction fits in the log at all.
TEST(Journal, FitsAccountsForDescriptorsAndAnchor) {
  MemBlockDevice device(kBlockSize, 64);
  auto journal = OpenJournal(&device, 52, 1);  // 12 journal blocks
  ASSERT_NE(journal, nullptr);
  // 1 anchor + 1 descriptor block leaves room for 10 payloads.
  EXPECT_TRUE(journal->HasRoom(10));
  EXPECT_FALSE(journal->HasRoom(11));
  std::map<BlockNum, Buffer> too_big;
  for (BlockNum b = 1; b <= 11; ++b) {
    too_big[b] = Buffer(kBlockSize);
  }
  EXPECT_EQ(journal->Commit(1, too_big).code(), ErrorCode::kNoSpace);

  // A region without room for the anchor and a one-block record is refused.
  EXPECT_EQ(ufs::Journal::Open(&device, 62, 1).status().code(),
            ErrorCode::kInvalidArgument);

  // One descriptor block holds 253 entries; the 254th needs a second.
  MemBlockDevice big(kBlockSize, 600);
  auto wide = OpenJournal(&big, 600 - 256, 1);  // 255 log blocks
  ASSERT_NE(wide, nullptr);
  EXPECT_TRUE(wide->HasRoom(253));
  EXPECT_FALSE(wide->HasRoom(254));
}

// Every live transaction replays, in tx order, so the newest copy of each
// home wins.
TEST(Journal, LiveTransactionsReplayInTxOrderNewestWins) {
  MemBlockDevice device(kBlockSize, 64);
  auto journal = OpenJournal(&device, 32, 1);
  ASSERT_NE(journal, nullptr);
  std::vector<std::map<BlockNum, Buffer>> txs = {
      {{5, RandomBlock(51)}, {6, RandomBlock(61)}},
      {{5, RandomBlock(52)}, {7, RandomBlock(72)}},
      {{6, RandomBlock(63)}},
      {{5, RandomBlock(54)}},
  };
  for (size_t i = 0; i < txs.size(); ++i) {
    ASSERT_TRUE(journal->Commit(i + 1, txs[i]).ok());
  }
  Scribble(device, {5, 6, 7});

  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 4u);
  EXPECT_EQ(report->transactions, 4u);
  EXPECT_EQ(report->blocks_replayed, 3u);
  EXPECT_TRUE(ReadBack(device, 5) == txs[3][5]);
  EXPECT_TRUE(ReadBack(device, 6) == txs[2][6]);
  EXPECT_TRUE(ReadBack(device, 7) == txs[1][7]);
}

// Replay keeps every transaction before the first damaged record and none
// after it, even when a later record is intact on its own.
TEST(Journal, ReplayStopsAtFirstGapBadCrcOrTag) {
  // Three one-block transactions, two log blocks each: tx 1 at log
  // offsets 0-1, tx 2 at 2-3, tx 3 at 4-5.
  constexpr BlockNum kLog = 32;
  enum Damage { kTxIdGap, kBadCrc, kBadTag };
  for (Damage damage : {kTxIdGap, kBadCrc, kBadTag}) {
    SCOPED_TRACE("damage=" + std::to_string(damage));
    MemBlockDevice device(kBlockSize, 64);
    auto journal = OpenJournal(&device, kLog, 1);
    ASSERT_NE(journal, nullptr);
    std::map<BlockNum, Buffer> tx1 = {{5, RandomBlock(1)}};
    ASSERT_TRUE(journal->Commit(1, tx1).ok());
    ASSERT_TRUE(journal->Commit(2, {{6, RandomBlock(2)}}).ok());
    ASSERT_TRUE(journal->Commit(3, {{7, RandomBlock(3)}}).ok());

    if (damage == kTxIdGap) {
      // Where tx 2 should start, a valid record of tx 3.
      Buffer tx3_header = ReadBack(device, kLog + 4);
      ASSERT_TRUE(device.WriteBlock(kLog + 2, tx3_header.span()).ok());
    } else {
      BlockNum victim = damage == kBadCrc ? kLog + 2 : kLog + 3;
      Buffer block = ReadBack(device, victim);
      block.data()[48] ^= 0x01;  // a descriptor entry, or payload bytes
      ASSERT_TRUE(device.WriteBlock(victim, block.span()).ok());
    }
    Scribble(device, {5, 6, 7});
    Buffer junk = ReadBack(device, 6);

    auto report = ufs::Journal::Replay(&device);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->tx_id, 1u);
    EXPECT_EQ(report->transactions, 1u);
    EXPECT_TRUE(ReadBack(device, 5) == tx1[5]);
    EXPECT_TRUE(ReadBack(device, 6) == junk);
    EXPECT_TRUE(ReadBack(device, 7) == junk);
  }
}

// After a wrap, the chain from the tail meets records from before it. They
// verify on their own (same log, valid CRC and tags) but carry an older tx
// id, so replay never takes them.
TEST(Journal, RecordFromBeforeLastWrapIsNeverReplayed) {
  constexpr BlockNum kLog = 53;  // 10 log blocks + the anchor
  MemBlockDevice device(kBlockSize, 64);
  auto journal = OpenJournal(&device, kLog, 1);
  ASSERT_NE(journal, nullptr);
  for (uint64_t tx = 1; tx <= 5; ++tx) {  // fills offsets 0-9
    ASSERT_TRUE(journal->Commit(tx, {{BlockNum(tx), RandomBlock(tx)}}).ok());
  }
  EXPECT_FALSE(journal->HasRoom(1));
  // A checkpoint would write homes 1-5 here; the tail moves to offset 0.
  ASSERT_TRUE(journal->Truncate().ok());
  std::map<BlockNum, Buffer> tx6 = {{6, RandomBlock(6)}};
  ASSERT_TRUE(journal->Commit(6, tx6).ok());  // overwrites tx 1's record
  Scribble(device, {1, 2, 3, 4, 5, 6});
  Buffer junk = ReadBack(device, 2);

  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 6u);
  EXPECT_EQ(report->transactions, 1u);
  EXPECT_TRUE(ReadBack(device, 6) == tx6[6]);
  for (BlockNum b = 2; b <= 5; ++b) {
    EXPECT_TRUE(ReadBack(device, b) == junk) << "stale tx " << b << " replayed";
  }
}

// The anchor alternates between two half-block slots. When the newer slot
// is torn, the older one still names a tail whose records are intact, so
// nothing committed is lost.
TEST(Journal, TornAnchorFallsBackToTheOlderSlot) {
  MemBlockDevice device(kBlockSize, 64);
  auto journal = OpenJournal(&device, 32, 1);
  ASSERT_NE(journal, nullptr);
  ASSERT_TRUE(journal->Commit(1, {{5, RandomBlock(1)}}).ok());
  std::map<BlockNum, Buffer> tx2 = {{5, RandomBlock(2)}};
  ASSERT_TRUE(journal->Commit(2, tx2).ok());
  ASSERT_TRUE(journal->Truncate().ok());  // the anchor's other slot
  ASSERT_TRUE(journal->Commit(3, {{6, RandomBlock(3)}}).ok());

  // Intact anchor: only tx 3 is live.
  auto live = ufs::Journal::Scan(&device);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->last_tx, 3u);
  EXPECT_EQ(live->transactions, 1u);

  // Tear the slot the truncate wrote: Open wrote anchor sequence 1 into
  // the second half, so sequence 2 went to the first.
  Buffer anchor = ReadBack(device, 63);
  anchor.data()[20] ^= 0xFF;
  ASSERT_TRUE(device.WriteBlock(63, anchor.span()).ok());
  Scribble(device, {5});
  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->transactions, 3u);
  EXPECT_EQ(report->tx_id, 3u);
  EXPECT_TRUE(ReadBack(device, 5) == tx2[5]);
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

// A journaled Format over an image that held a journal-less file system.
// The superblock's home copy is first written at a checkpoint, so until
// then the old one must not stay in block 0: Mount and the checker would
// trust it, skip the log, and lose every acknowledged Sync.
TEST(CrashRecovery, JournaledReformatOfJournalLessImageReplays) {
  auto device = MakeDevice();
  {
    auto old = ufs::Ufs::Format(device.get(), &DefaultClock(),
                                ufs::FormatOptions{/*journal=*/false});
    ASSERT_TRUE(old.ok());
    ASSERT_TRUE(
        (*old)->Create(kRootInode, "old", ufs::FileType::kRegular).ok());
  }  // unmount: a superblock without a journal is home in block 0

  auto fs = ufs::Ufs::Format(device.get());
  ASSERT_TRUE(fs.ok());
  Model model;
  for (uint64_t i = 0; i < 2; ++i) {
    std::string name = "f" + std::to_string(i);
    auto ino = (*fs)->Create(kRootInode, name, ufs::FileType::kRegular);
    ASSERT_TRUE(ino.ok());
    model[name] = RandomBlock(i);
    ASSERT_TRUE((*fs)->Write(*ino, 0, model[name].span()).ok());
    ASSERT_TRUE((*fs)->Sync().ok());
  }
  ASSERT_EQ(metrics::StatValue(**fs, "journal_checkpoints"), 0u)
      << "a checkpoint wrote the superblock home";
  (*fs)->Abandon();
  fs->reset();

  ufs::Checker checker(device.get());
  auto before_mount = checker.Check();
  ASSERT_TRUE(before_mount.ok());
  EXPECT_TRUE(before_mount->clean()) << before_mount->Summary();
  auto again = ufs::Ufs::Mount(device.get());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE((*again)->journaled());
  EXPECT_EQ((*again)->last_committed_tx(), 3u);
  ExpectMatchesModel(again->get(), model);
  auto report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
}

// Journaled, then journal-less, then journaled again with the same
// geometry. Both journaled logs begin with the format's transaction at
// log offset 0, and the journal-less format zeroed the anchor in between,
// so the first log's later records would verify in the new chain. A crash
// that loses the new tx 2 must not let replay continue into the old one.
TEST(CrashRecovery, ReformatNeverReplaysAnEarlierFileSystemsLog) {
  auto device = MakeDevice();
  {
    auto first = ufs::Ufs::Format(device.get());
    ASSERT_TRUE(first.ok());
    for (const char* name : {"old1", "old2"}) {
      ASSERT_TRUE(
          (*first)->Create(kRootInode, name, ufs::FileType::kRegular).ok());
      ASSERT_TRUE((*first)->Sync().ok());
    }
  }  // unmount: the first log's records stay in the region
  {
    auto between = ufs::Ufs::Format(device.get(), &DefaultClock(),
                                    ufs::FormatOptions{/*journal=*/false});
    ASSERT_TRUE(between.ok());
  }
  auto fs = ufs::Ufs::Format(device.get());
  ASSERT_TRUE(fs.ok());
  ASSERT_EQ((*fs)->last_committed_tx(), 1u);
  ASSERT_TRUE((*fs)->Create(kRootInode, "new", ufs::FileType::kRegular).ok());
  // Power fails at the first write of the next Sync.
  device->ArmCrash(CrashPlan{/*crash_after_writes=*/1, /*seed=*/1});
  EXPECT_FALSE((*fs)->Sync().ok());
  ASSERT_TRUE(device->crashed());
  (*fs)->Abandon();
  fs->reset();
  device->RecoverAfterCrash();

  auto again = ufs::Ufs::Mount(device.get());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->last_committed_tx(), 1u);
  ExpectMatchesModel(again->get(), Model{});
  auto report = ufs::Checker(device.get()).Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
}

// A transaction larger than the log takes the degraded in-place path. With
// several transactions live, replay of any of them would roll the in-place
// writes back, so the path must first checkpoint the whole live log.
TEST(CrashRecovery, OverflowCheckpointsTheLiveLog) {
  auto device = MakeDevice();
  ufs::FormatOptions small_log;
  small_log.journal_blocks = kWrapJournalBlocks;
  auto fs = ufs::Ufs::Format(device.get(), &DefaultClock(), small_log);
  ASSERT_TRUE(fs.ok());
  Model model;
  auto write = [&](const std::string& name, uint64_t offset, ByteSpan data) {
    auto ino = (*fs)->Lookup(kRootInode, name);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE((*fs)->Write(*ino, offset, data).ok());
    ModelWrite(model, name, offset, data);
  };
  auto create = [&](const std::string& name) {
    ASSERT_TRUE(
        (*fs)->Create(kRootInode, name, ufs::FileType::kRegular).ok());
    model[name] = Buffer();
  };

  // Two small transactions: fresh data goes in place, so each record
  // carries only metadata.
  constexpr uint64_t kBigBlocks = 2 * kWrapJournalBlocks;
  create("a");
  write("a", 0, RandomBlock(1).span());
  Buffer big(kBigBlocks * kBlockSize);
  Rng(2).Fill(big.mutable_span());
  write("a", kBlockSize, big.span());
  ASSERT_TRUE((*fs)->Sync().ok());
  create("b");
  write("b", 0, RandomBlock(3).span());
  ASSERT_TRUE((*fs)->Sync().ok());
  EXPECT_GE((*fs)->last_committed_tx(), 3u);

  // One transaction larger than the log: it overwrites every committed
  // block of "a", and also changes the root directory.
  Rng(4).Fill(big.mutable_span());
  write("a", kBlockSize, big.span());
  ASSERT_TRUE((*fs)->Remove(kRootInode, "b").ok());
  model.erase("b");
  create("c");
  write("c", 0, RandomBlock(5).span());
  ASSERT_TRUE((*fs)->Sync().ok());
  EXPECT_EQ(metrics::StatValue(**fs, "journal_overflow_syncs"), 1u);

  (*fs)->Abandon();
  fs->reset();
  auto again = ufs::Ufs::Mount(device.get());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ufs::Checker checker(device.get());
  auto report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
  ExpectMatchesModel(again->get(), model);
}

// The reuse rule: a freshly allocated block that a live log record still
// names must be journaled, not written in place as ordered data, or replay
// of that older record overwrites the new file's bytes.
TEST(CrashRecovery, ReusedLiveLogHomeIsJournaled) {
  // 20 data blocks and a 40-block journal: the allocator wraps to reuse a
  // freed block long before the log needs a checkpoint.
  MemBlockDevice device(kBlockSize, 64);
  ufs::FormatOptions options;
  options.journal_blocks = 40;
  auto fs = ufs::Ufs::Format(&device, &DefaultClock(), options);
  ASSERT_TRUE(fs.ok());
  ufs::Ufs* ufs = fs->get();
  auto a = ufs->Create(kRootInode, "a", ufs::FileType::kRegular);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(ufs->Write(*a, 0, RandomBlock(1).span()).ok());
  ASSERT_TRUE(ufs->Sync().ok());
  // The overwrite puts a's block into a log record as a home...
  ASSERT_TRUE(ufs->Write(*a, 0, RandomBlock(2).span()).ok());
  ASSERT_TRUE(ufs->Sync().ok());
  // ...which is then freed while that record is still live.
  ASSERT_TRUE(ufs->Remove(kRootInode, "a").ok());
  ASSERT_TRUE(ufs->Sync().ok());

  // Fill every free block, the freed one included: 12 direct blocks, one
  // indirect block, and the rest through it.
  uint64_t data_blocks = ufs->FreeBlocks() - 1;
  Buffer content(data_blocks * kBlockSize);
  Rng(3).Fill(content.mutable_span());
  auto b = ufs->Create(kRootInode, "b", ufs::FileType::kRegular);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(ufs->Write(*b, 0, content.span()).ok());
  EXPECT_EQ(ufs->FreeBlocks(), 0u);
  ASSERT_TRUE(ufs->Sync().ok());
  ASSERT_EQ(metrics::StatValue(*ufs, "journal_checkpoints"), 0u)
      << "a checkpoint retired the record this test needs live";

  ufs->Abandon();
  fs->reset();
  auto again = ufs::Ufs::Mount(&device);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  Model model;
  model["b"] = content;
  ExpectMatchesModel(again->get(), model);
  auto report = ufs::Checker(&device).Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
}

// UFS holds only metadata of the live log in memory. Commits that overwrite
// file data worth several logs retain no more than the metadata blocks they
// touched, and the file data is home after each commit.
TEST(CrashRecovery, RetainedBlocksStayBoundedByMetadata) {
  auto device = MakeDevice();
  ufs::FormatOptions small_log;
  small_log.journal_blocks = kWrapJournalBlocks;
  auto fs = ufs::Ufs::Format(device.get(), &DefaultClock(), small_log);
  ASSERT_TRUE(fs.ok());
  ufs::Ufs* ufs = fs->get();
  constexpr uint64_t kFileBlocks = 4;
  auto ino = ufs->Create(kRootInode, "f", ufs::FileType::kRegular);
  ASSERT_TRUE(ino.ok());
  Buffer content(kFileBlocks * kBlockSize);
  ASSERT_TRUE(ufs->Write(*ino, 0, content.span()).ok());
  ASSERT_TRUE(ufs->Sync().ok());
  // Since format the commits touched the superblock, both bitmaps, one
  // inode-table block (root and "f" share it) and one directory block.
  constexpr uint64_t kMetadataTouched = 5;
  EXPECT_LE(metrics::StatValue(*ufs, "retained_blocks"), kMetadataTouched);

  uint64_t overwritten = 0;
  for (uint64_t round = 0; overwritten < 2 * kWrapJournalBlocks; ++round) {
    Rng(round).Fill(content.mutable_span());
    ASSERT_TRUE(ufs->Write(*ino, 0, content.span()).ok());
    ASSERT_TRUE(ufs->Sync().ok());
    overwritten += kFileBlocks;
    EXPECT_LE(metrics::StatValue(*ufs, "retained_blocks"), kMetadataTouched)
        << "round " << round;
    if (metrics::StatValue(*ufs, "journal_checkpoints") > 0) {
      // After a checkpoint only the overwrites' own metadata comes back:
      // the superblock and the inode-table block.
      EXPECT_LE(metrics::StatValue(*ufs, "retained_blocks"), 2u)
          << "round " << round;
    }
  }
  EXPECT_GE(metrics::StatValue(*ufs, "journal_checkpoints"), 1u);
  EXPECT_GE(metrics::StatValue(*ufs, "checkpoint_blocks"), 1u);

  ufs->Abandon();
  fs->reset();
  auto again = ufs::Ufs::Mount(device.get());
  ASSERT_TRUE(again.ok());
  ExpectMatchesModel(again->get(), Model{{"f", content}});
}

// --- The crash/recovery property suite: >= 200 seeded crash points ---

// On the first failing seed, print the flight recorder (journal commits,
// replay decisions, injected crash point) and save it for CI upload.
// Returns how many seeds crashed inside a checkpoint.
int RunCrashShard(uint64_t first_seed,
                  const ufs::FormatOptions& options = {},
                  uint64_t min_checkpoints = 0) {
  bool dumped = false;
  int in_checkpoint = 0;
  for (uint64_t seed = first_seed; seed < first_seed + 55; ++seed) {
    bool crashed_in_checkpoint = false;
    RunCrashSeed(seed, options, min_checkpoints, &crashed_in_checkpoint);
    in_checkpoint += crashed_in_checkpoint ? 1 : 0;
    if (!dumped && ::testing::Test::HasFailure()) {
      dumped = true;
      std::string header = "crash seed=" + std::to_string(seed);
      std::fprintf(stderr,
                   "=== flight recorder (%s, last 64 events) ===\n%s",
                   header.c_str(), flight::Dump(64).c_str());
      flight::DumpToArtifact("crash", header);
    }
    if (::testing::Test::HasFatalFailure()) {
      break;
    }
  }
  return in_checkpoint;
}

TEST(CrashRecovery, SeededCrashPointsShard0) { RunCrashShard(1000); }
TEST(CrashRecovery, SeededCrashPointsShard1) { RunCrashShard(2000); }
TEST(CrashRecovery, SeededCrashPointsShard2) { RunCrashShard(3000); }
TEST(CrashRecovery, SeededCrashPointsShard3) { RunCrashShard(4000); }

// A log small enough that every seed wraps it at least twice, so crash
// points also land inside checkpoints and anchor rewrites.
TEST(CrashRecovery, SeededCrashPointsWrapShard) {
  ufs::FormatOptions small_log;
  small_log.journal_blocks = kWrapJournalBlocks;
  int in_checkpoint =
      RunCrashShard(6000, small_log, /*min_checkpoints=*/2);
  std::printf("wrap shard: %d of 55 seeds crashed inside a checkpoint\n",
              in_checkpoint);
  ::testing::Test::RecordProperty("seeds_crashed_in_checkpoint",
                                  in_checkpoint);
  EXPECT_GE(in_checkpoint, 1) << "no crash point landed in a checkpoint";
}

// Every write of every checkpoint of one wrapping workload as the crash
// point, under several power-loss outcomes each: the homes, their flush
// and the anchor rewrite must be ordered so that no outcome loses state.
TEST(CrashRecovery, CrashAtEveryCheckpointWrite) {
  constexpr uint64_t kSeed = 6000;
  ufs::FormatOptions small_log;
  small_log.journal_blocks = kWrapJournalBlocks;
  DryRun dry = CountWorkloadWrites(kSeed, small_log);
  ASSERT_GE(dry.checkpoint_writes.size(), 2u);
  for (const auto& [first, last] : dry.checkpoint_writes) {
    for (uint64_t write = first; write <= last; ++write) {
      for (uint64_t outcome = 1; outcome <= 4; ++outcome) {
        SCOPED_TRACE("write=" + std::to_string(write) +
                     " outcome=" + std::to_string(outcome));
        CheckCrashAt(kSeed, small_log, CrashPlan{write, outcome});
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
  }
}

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
