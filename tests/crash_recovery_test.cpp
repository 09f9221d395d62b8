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
// A control suite runs the same crashes over a device that drops cache
// flushes and asserts the harness detects the damage — proof the crash
// model has teeth.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
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

// One seeded workload: its length, and how often a Sync step syncs.
struct Workload {
  int steps = 60;
  // A Sync step syncs one time in `sync_one_in`. A second Rng decides, so
  // every workload of one seed runs the same schedule of other steps.
  uint64_t sync_one_in = 1;
};
constexpr Workload kDefault;
// Journal size for the shard whose seeds must wrap the log, and that
// shard's workload: enough steps that every seed's metadata deltas fill
// the log at least twice.
constexpr uint64_t kWrapJournalBlocks = 16;
constexpr Workload kWrap{130};
// Rare Syncs let the open transaction grow until it must commit early.
constexpr Workload kRareSync{130, 8};

// name -> file content; the workload's in-memory truth.
using Model = std::map<std::string, Buffer>;

std::unique_ptr<FaultyBlockDevice> MakeDevice(uint64_t blocks = kDevBlocks) {
  return std::make_unique<FaultyBlockDevice>(
      std::make_unique<MemBlockDevice>(kBlockSize, blocks));
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
// transaction that persists it: any step may first commit the open
// transaction, so before each step the model is what the upcoming
// transaction, last_committed_tx() + 1, would hold. `acked` tracks the
// transaction of the last Sync that returned OK. Returns false when the
// device crashed mid-workload (the armed run); the dry run always returns
// true.
bool RunWorkload(ufs::Ufs* fs, uint64_t seed,
                 std::map<uint64_t, Model>* snapshots, uint64_t* acked,
                 const Workload& workload = kDefault) {
  Rng rng(seed);
  Rng syncs(seed ^ 0x5EC0DD);
  Model model;
  if (snapshots != nullptr) {
    (*snapshots)[fs->last_committed_tx()] = model;  // post-format state
  }
  *acked = fs->last_committed_tx();  // Format's own sync returned OK
  int next_file = 0;
  std::vector<std::string> names;
  for (int step = 0; step < workload.steps; ++step) {
    if (snapshots != nullptr) {
      (*snapshots)[fs->last_committed_tx() + 1] = model;
    }
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
    } else if (syncs.Below(workload.sync_one_in) == 0) {
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
DryRun CountWorkloadWrites(uint64_t seed, const ufs::FormatOptions& options,
                           const Workload& workload = kDefault) {
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
  EXPECT_TRUE(RunWorkload(fs->get(), seed, nullptr, &acked, workload));
  dry.checkpoints = metrics::StatValue(**fs, "journal_checkpoints");
  (*fs)->Abandon();  // already synced; skip the unmount sync
  device->set_predicate(nullptr);
  return dry;
}

// How the file system differs from `want`: directory listing, sizes and
// bytes. Empty when it matches exactly.
std::string ModelMismatch(ufs::Ufs* fs, const Model& want) {
  auto listing = fs->ReadDir(kRootInode);
  if (!listing.ok()) {
    return "root unreadable: " + listing.status().ToString();
  }
  std::set<std::string> got_names;
  for (const auto& entry : *listing) {
    got_names.insert(entry.name);
  }
  if (got_names.size() != want.size()) {
    return "root holds " + std::to_string(got_names.size()) + " files, not " +
           std::to_string(want.size());
  }
  for (const auto& [name, content] : want) {
    auto looked = fs->Lookup(kRootInode, name);
    if (!looked.ok() || got_names.count(name) == 0) {
      return "lost file " + name;
    }
    auto attrs = fs->GetAttrs(*looked);
    if (!attrs.ok() || attrs->size != content.size()) {
      return "size of " + name + " is " +
             (attrs.ok() ? std::to_string(attrs->size) : "unreadable") +
             ", not " + std::to_string(content.size());
    }
    Buffer got(content.size());
    auto n = fs->Read(*looked, 0, got.mutable_span());
    if (!n.ok() || *n != content.size() || !(got == content)) {
      return "content of " + name;
    }
  }
  return "";
}

void ExpectMatchesModel(ufs::Ufs* fs, const Model& want) {
  EXPECT_EQ(ModelMismatch(fs, want), "");
}

// Runs seed `seed`'s workload with `plan` armed, then recovers and checks
// the image.
void CheckCrashAt(uint64_t seed, const ufs::FormatOptions& options,
                  const CrashPlan& plan, const Workload& workload = kDefault) {
  auto device = MakeDevice();
  auto formatted = ufs::Ufs::Format(device.get(), &DefaultClock(), options);
  ASSERT_TRUE(formatted.ok());
  std::map<uint64_t, Model> snapshots;
  uint64_t acked = 0;
  device->ArmCrash(plan);
  bool completed =
      RunWorkload(formatted->get(), seed, &snapshots, &acked, workload);
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
                  uint64_t min_checkpoints, const Workload& workload,
                  bool* in_checkpoint) {
  // Per-seed black box (see tests/chaos_dfs_test.cpp): a failure dump below
  // then shows only this seed's journal/crash events.
  flight::Clear();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  DryRun dry = CountWorkloadWrites(seed, options, workload);
  ASSERT_GT(dry.writes, 0u);
  ASSERT_GE(dry.checkpoints, min_checkpoints) << "the log did not wrap";

  Rng pick(seed ^ 0xC0FFEE);
  CrashPlan plan;
  plan.crash_after_writes = pick.Range(1, dry.writes);
  plan.seed = seed;
  *in_checkpoint = dry.InCheckpoint(plan.crash_after_writes);
  CheckCrashAt(seed, options, plan, workload);
}

// A disk that ignores cache flushes: everything else reaches `base`.
// Under an armed CrashPlan every write since arming then stays volatile,
// and a crash keeps a random subset of them, whatever order the journal
// relied on.
class FlushDroppingDevice : public BlockDevice {
 public:
  explicit FlushDroppingDevice(BlockDevice* base) : base_(base) {}
  uint32_t block_size() const override { return base_->block_size(); }
  BlockNum num_blocks() const override { return base_->num_blocks(); }
  Status ReadBlock(BlockNum block, MutableByteSpan out) override {
    return base_->ReadBlock(block, out);
  }
  Status WriteBlock(BlockNum block, ByteSpan data) override {
    return base_->WriteBlock(block, data);
  }
  Status Flush() override { return Status::Ok(); }
  BlockDeviceStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  BlockDevice* base_;
};

// The crash a default seed takes, applied to a journaled UFS whose device
// drops flushes: returns true when the harness catches the damage (an
// unmountable image, checker errors, a lost acknowledged Sync, or an image
// that matches no snapshot).
bool CrashWithoutFlushesIsDetected(uint64_t seed) {
  uint64_t writes = CountWorkloadWrites(seed, {}).writes;
  if (writes == 0) {
    return false;
  }
  Rng pick(seed ^ 0xC0FFEE);
  CrashPlan plan;
  plan.crash_after_writes = pick.Range(1, writes);
  plan.seed = seed;

  auto device = MakeDevice();
  FlushDroppingDevice dropping(device.get());
  auto formatted = ufs::Ufs::Format(&dropping);
  EXPECT_TRUE(formatted.ok());
  device->ArmCrash(plan);
  std::map<uint64_t, Model> snapshots;
  uint64_t acked = 0;
  (void)RunWorkload(formatted->get(), seed, &snapshots, &acked);
  (*formatted)->Abandon();
  formatted->reset();
  device->RecoverAfterCrash();

  auto recovered = ufs::Ufs::Mount(device.get());
  if (!recovered.ok()) {
    return true;  // superblock torn beyond recognition
  }
  auto report = ufs::Checker(device.get()).Check();
  if (!report.ok() || !report->clean()) {
    return true;
  }
  uint64_t tx = (*recovered)->last_committed_tx();
  auto snap = snapshots.find(tx);
  return tx < acked || snap == snapshots.end() ||
         !ModelMismatch(recovered->get(), snap->second).empty();
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

// `base` with one byte flipped at each of `offsets`: each dirties the
// 128-byte chunk that holds it.
Buffer Changed(const Buffer& base, std::initializer_list<size_t> offsets) {
  Buffer out(base.span());
  for (size_t offset : offsets) {
    out.data()[offset] ^= 0x5A;
  }
  return out;
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
  ASSERT_TRUE(journal->Commit(3, tx, {}).ok());
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
  ASSERT_TRUE(journal->Commit(1, tx, {}).ok());

  // Neither home has a base, so the record is one descriptor block, then
  // the full images in home order. Flip one byte of the second entry's
  // image: the descriptor still verifies, but its tag must not, so nothing
  // of the transaction is replayed.
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
  ASSERT_TRUE(journal->Commit(7, tx, {}).ok());
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

// `count` blocks of `byte`, at homes 1..count.
std::map<BlockNum, Buffer> Filled(uint64_t count, uint8_t byte) {
  std::map<BlockNum, Buffer> blocks;
  for (BlockNum b = 1; b <= count; ++b) {
    blocks[b] = Buffer(kBlockSize);
    std::memset(blocks[b].data(), byte, kBlockSize);
  }
  return blocks;
}

// A freshly opened log is empty, so HasRoom there says whether a record
// fits in the log at all. RecordBlocks sizes a record: the descriptor
// area (a 40-byte header, 24-byte entries, then the deltas' 128-byte
// chunks), then one block per full image.
TEST(Journal, FitsAccountsForDescriptorsAndAnchor) {
  MemBlockDevice device(kBlockSize, 64);
  auto journal = OpenJournal(&device, 52, 1);  // 12 journal blocks
  ASSERT_NE(journal, nullptr);
  // 1 anchor + 1 descriptor block leaves room for 10 full images.
  EXPECT_EQ(ufs::Journal::RecordBlocks(Filled(10, 0), {}), 11u);
  EXPECT_TRUE(journal->HasRoom(11));
  EXPECT_FALSE(journal->HasRoom(12));
  EXPECT_EQ(journal->Commit(1, Filled(11, 0), {}).code(),
            ErrorCode::kNoSpace);

  // A region without room for the anchor and a one-block record is refused.
  EXPECT_EQ(ufs::Journal::Open(&device, 62, 1).status().code(),
            ErrorCode::kInvalidArgument);

  // One descriptor block holds 169 entries (40 + 169 * 24 = 4096 bytes);
  // the 170th needs a second.
  EXPECT_EQ(ufs::Journal::RecordBlocks(Filled(169, 0), {}), 1u + 169);
  EXPECT_EQ(ufs::Journal::RecordBlocks(Filled(170, 0), {}), 2u + 170);

  // Deltas share the descriptor area with the entries: 26 one-chunk deltas
  // take 40 + 26 * (24 + 128) = 3992 bytes, and the 27th spills over.
  std::map<BlockNum, Buffer> bases = Filled(27, 0);
  std::map<BlockNum, Buffer> changed;
  for (const auto& [b, base] : bases) {
    changed[b] = Changed(base, {b * 100});
  }
  EXPECT_EQ(ufs::Journal::RecordBlocks(changed, bases), 2u);
  changed.erase(27);
  EXPECT_EQ(ufs::Journal::RecordBlocks(changed, bases), 1u);

  // A delta with every chunk changed is logged as a full image, and an
  // unchanged home as an entry without chunks.
  EXPECT_EQ(ufs::Journal::RecordBlocks(Filled(1, 1), Filled(1, 0)), 2u);
  EXPECT_EQ(ufs::Journal::RecordBlocks(Filled(1, 0), Filled(1, 0)), 1u);

  // MaxImages: the most full images one record carries in an empty log of
  // a region that size, anchor included. 170 images need a second
  // descriptor block, so they take a 173-block region.
  EXPECT_EQ(ufs::Journal::MaxImages(12), 10u);
  EXPECT_EQ(ufs::Journal::MaxImages(172), 169u);
  EXPECT_EQ(ufs::Journal::MaxImages(173), 170u);
  EXPECT_EQ(ufs::Journal::MaxImages(0), 0u);
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
    ASSERT_TRUE(journal->Commit(i + 1, txs[i], {}).ok());
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
    ASSERT_TRUE(journal->Commit(1, tx1, {}).ok());
    ASSERT_TRUE(journal->Commit(2, {{6, RandomBlock(2)}}, {}).ok());
    ASSERT_TRUE(journal->Commit(3, {{7, RandomBlock(3)}}, {}).ok());

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
    ASSERT_TRUE(journal->Commit(tx, {{BlockNum(tx), RandomBlock(tx)}}, {})
                    .ok());
  }
  EXPECT_FALSE(journal->HasRoom(1));
  // A checkpoint would write homes 1-5 here; the tail moves to offset 0.
  ASSERT_TRUE(journal->Truncate().ok());
  std::map<BlockNum, Buffer> tx6 = {{6, RandomBlock(6)}};
  ASSERT_TRUE(journal->Commit(6, tx6, {}).ok());  // overwrites tx 1's record
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
  ASSERT_TRUE(journal->Commit(1, {{5, RandomBlock(1)}}, {}).ok());
  std::map<BlockNum, Buffer> tx2 = {{5, RandomBlock(2)}};
  ASSERT_TRUE(journal->Commit(2, tx2, {}).ok());
  ASSERT_TRUE(journal->Truncate().ok());  // the anchor's other slot
  ASSERT_TRUE(journal->Commit(3, {{6, RandomBlock(3)}}, {}).ok());

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

// A home the live log holds is logged as its changed chunks, and replay
// applies them in tx order onto the newest earlier copy, byte for byte.
// The home copies are junk, so a replay that took one as a base would
// show.
TEST(Journal, DeltaReplaysOntoTheNewestEarlierCopy) {
  MemBlockDevice device(kBlockSize, 64);
  auto journal = OpenJournal(&device, 32, 1);
  ASSERT_NE(journal, nullptr);
  std::map<BlockNum, Buffer> tx1 = {{5, RandomBlock(1)}, {6, RandomBlock(2)}};
  ASSERT_TRUE(journal->Commit(1, tx1, {}).ok());
  // The first and the last chunk of home 5.
  std::map<BlockNum, Buffer> tx2 = {{5, Changed(tx1[5], {0, kBlockSize - 1})}};
  EXPECT_EQ(ufs::Journal::RecordBlocks(tx2, tx1), 1u);
  ASSERT_TRUE(journal->Commit(2, tx2, tx1).ok());
  // Deltas of both homes against their newest copies, and home 7, which
  // has no base, whole.
  std::map<BlockNum, Buffer> bases = {{5, tx2[5]}, {6, tx1[6]}};
  std::map<BlockNum, Buffer> tx3 = {{5, Changed(tx2[5], {128, 129, 2000})},
                                    {6, Changed(tx1[6], {300, 4000})},
                                    {7, RandomBlock(3)}};
  EXPECT_EQ(ufs::Journal::RecordBlocks(tx3, bases), 2u);
  ASSERT_TRUE(journal->Commit(3, tx3, bases).ok());
  EXPECT_EQ(journal->appended_blocks(), 3u + 1u + 2u);
  Scribble(device, {5, 6, 7});

  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 3u);
  EXPECT_EQ(report->transactions, 3u);
  EXPECT_EQ(report->blocks_replayed, 3u);
  for (BlockNum b : {5u, 6u, 7u}) {
    EXPECT_TRUE(ReadBack(device, b) == tx3[b]) << "home block " << b;
  }
}

// A delta needs an earlier live copy of its home. Two fresh devices hash
// the same zero anchor block, so their logs share an id, and a record of
// one verifies in the other. Grafted after a tx 1 that carries its home,
// a delta of home 5 replays; after a tx 1 that does not, replay stops
// before it, even though home 5's own copy is the delta's true base.
TEST(Journal, DeltaWithoutAnEarlierCopyStopsReplay) {
  std::map<BlockNum, Buffer> donor_tx1 = {{5, RandomBlock(5)},
                                          {6, RandomBlock(6)}};
  std::map<BlockNum, Buffer> donor_tx2 = {{5, Changed(donor_tx1[5], {64})}};
  MemBlockDevice donor(kBlockSize, 64);
  auto donor_journal = OpenJournal(&donor, 32, 1);
  ASSERT_NE(donor_journal, nullptr);
  ASSERT_TRUE(donor_journal->Commit(1, donor_tx1, {}).ok());  // offsets 0-2
  ASSERT_TRUE(donor_journal->Commit(2, donor_tx2, donor_tx1).ok());  // 3
  Buffer grafted = ReadBack(donor, 32 + 3);

  for (bool carries_home : {true, false}) {
    SCOPED_TRACE(carries_home ? "tx 1 carries home 5" : "tx 1 lacks home 5");
    MemBlockDevice device(kBlockSize, 64);
    auto journal = OpenJournal(&device, 32, 1);
    ASSERT_NE(journal, nullptr);
    std::map<BlockNum, Buffer> tx1 = donor_tx1;
    if (!carries_home) {
      tx1.erase(5);
      tx1[7] = RandomBlock(7);  // same record size
    }
    ASSERT_TRUE(journal->Commit(1, tx1, {}).ok());
    ASSERT_TRUE(device.WriteBlock(32 + 3, grafted.span()).ok());
    ASSERT_TRUE(device.WriteBlock(5, donor_tx1[5].span()).ok());

    auto report = ufs::Journal::Replay(&device);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->tx_id, carries_home ? 2u : 1u);
    EXPECT_TRUE(ReadBack(device, 5) ==
                (carries_home ? donor_tx2[5] : donor_tx1[5]));
    EXPECT_TRUE(ReadBack(device, 6) == tx1[6]);
  }
}

// The mask is bound into the tag. Moving a delta's chunk to another
// position, with the descriptor CRC recomputed to match, must not verify.
TEST(Journal, ChunksUnderAnotherMaskFailTheTag) {
  constexpr BlockNum kLog = 32;
  MemBlockDevice device(kBlockSize, 64);
  auto journal = OpenJournal(&device, kLog, 1);
  ASSERT_NE(journal, nullptr);
  std::map<BlockNum, Buffer> tx1 = {{5, RandomBlock(1)}};
  ASSERT_TRUE(journal->Commit(1, tx1, {}).ok());  // offsets 0-1
  std::map<BlockNum, Buffer> tx2 = {{5, Changed(tx1[5], {3 * 128 + 7})}};
  ASSERT_TRUE(journal->Commit(2, tx2, tx1).ok());  // offset 2

  // tx 2's only entry sits at bytes [40, 64): home, tag, then the mask.
  // The header CRC at byte 32 covers bytes [0, 32) and the entries.
  Buffer desc = ReadBack(device, kLog + 2);
  ASSERT_EQ(LoadLe<uint64_t>(desc.data() + 56), uint64_t{1} << 3);
  StoreLe<uint64_t>(desc.data() + 56, uint64_t{1} << 4);
  StoreLe<uint32_t>(desc.data() + 32,
                    Crc32(desc.subspan(40, 24), Crc32(desc.subspan(0, 32))));
  ASSERT_TRUE(device.WriteBlock(kLog + 2, desc.span()).ok());
  Scribble(device, {5});

  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 1u);
  EXPECT_TRUE(ReadBack(device, 5) == tx1[5]);
}

// Chunk bytes are covered by their entry's tag, not the descriptor CRC: a
// torn chunk of the second entry drops the whole transaction, the first
// entry's intact delta included.
TEST(Journal, TornChunkBytesInvalidateWholeTransaction) {
  constexpr BlockNum kLog = 32;
  MemBlockDevice device(kBlockSize, 64);
  auto journal = OpenJournal(&device, kLog, 1);
  ASSERT_NE(journal, nullptr);
  std::map<BlockNum, Buffer> tx1 = {{5, RandomBlock(1)}, {6, RandomBlock(2)}};
  ASSERT_TRUE(journal->Commit(1, tx1, {}).ok());  // offsets 0-2
  std::map<BlockNum, Buffer> tx2 = {{5, Changed(tx1[5], {0})},
                                    {6, Changed(tx1[6], {7 * 128})}};
  ASSERT_TRUE(journal->Commit(2, tx2, tx1).ok());  // offset 3

  // Header, two entries, home 5's chunk, then home 6's.
  Buffer desc = ReadBack(device, kLog + 3);
  desc.data()[40 + 2 * 24 + 128 + 10] ^= 0x01;
  ASSERT_TRUE(device.WriteBlock(kLog + 3, desc.span()).ok());
  Scribble(device, {5, 6});

  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 1u);
  EXPECT_TRUE(ReadBack(device, 5) == tx1[5]);
  EXPECT_TRUE(ReadBack(device, 6) == tx1[6]);
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
  EXPECT_EQ((*again)->last_committed_tx(), 2u);
  EXPECT_TRUE((*again)->Lookup(kRootInode, "a").ok());
  (*again)->Abandon();
}

// The smallest log Format accepts holds one op's record beside the
// superblock and both bitmap blocks: 8 + 3 full images and a descriptor,
// plus the anchor.
TEST(CrashRecovery, FormatRefusesALogTooSmallForOneOp) {
  auto device = MakeDevice();
  ufs::FormatOptions options;
  options.journal_blocks = 12;
  EXPECT_EQ(ufs::Ufs::Format(device.get(), &DefaultClock(), options)
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  options.journal_blocks = 13;
  EXPECT_TRUE(ufs::Ufs::Format(device.get(), &DefaultClock(), options).ok());
}

// Every file system is journaled: Mount refuses a superblock that names no
// journal. A journaled Format over such an image must not leave it in
// block 0, whose home copy is first written at a checkpoint; the syncs
// before one are read from the log.
TEST(CrashRecovery, JournaledReformatOfJournalLessImageReplays) {
  auto device = MakeDevice();
  ASSERT_TRUE(ufs::Ufs::Format(device.get()).ok());  // unmounted: all home
  Buffer home = ReadBack(*device, 0);
  auto old = ufs::Superblock::Decode(home.span());
  ASSERT_TRUE(old.ok());
  old->jnl_blocks = 0;
  old->Encode(home.mutable_span());
  ASSERT_TRUE(device->WriteBlock(0, home.span()).ok());
  ASSERT_TRUE(device->WriteBlock(kDevBlocks - 1, Buffer(kBlockSize).span())
                  .ok());  // and no anchor
  EXPECT_EQ(ufs::Ufs::Mount(device.get()).status().code(),
            ErrorCode::kCorrupted);

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
  EXPECT_EQ((*again)->last_committed_tx(), 3u);
  ExpectMatchesModel(again->get(), model);
  auto report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
}

// Two formats with the same geometry, and the anchor zeroed in between.
// Both logs begin with the format's transaction at log offset 0, and both
// ids hash the same zero anchor block, so the first log's later records
// would verify in the new chain. A crash that loses the new tx 2 must not
// let replay continue into the old one.
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
  ASSERT_TRUE(device->WriteBlock(kDevBlocks - 1, Buffer(kBlockSize).span())
                  .ok());
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

// Writes worth more than the log never reach Sync as one transaction: an op
// that could make the record too large for an empty log first commits the
// open transaction, and a write larger than that lands block by block.
TEST(CrashRecovery, TransactionLargerThanTheLogCommitsEarly) {
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

  // Fresh data goes in place, so each record carries only metadata.
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

  // Changes larger than the log: they overwrite every committed block of
  // "a", and also change the root directory.
  const uint64_t before = (*fs)->last_committed_tx();
  Rng(4).Fill(big.mutable_span());
  write("a", kBlockSize, big.span());
  ASSERT_TRUE((*fs)->Remove(kRootInode, "b").ok());
  model.erase("b");
  create("c");
  write("c", 0, RandomBlock(5).span());
  EXPECT_GT((*fs)->last_committed_tx(), before + 1);
  ASSERT_TRUE((*fs)->Sync().ok());

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
// of that older record overwrites the new file's bytes. A file-data
// overwrite moves to a fresh block and reaches no record, so the named
// home here is a directory block.
TEST(CrashRecovery, ReusedLiveLogHomeIsJournaled) {
  // 20 data blocks and a 40-block journal: the allocator wraps to reuse a
  // freed block long before the log needs a checkpoint.
  MemBlockDevice device(kBlockSize, 64);
  ufs::FormatOptions options;
  options.journal_blocks = 40;
  auto fs = ufs::Ufs::Format(&device, &DefaultClock(), options);
  ASSERT_TRUE(fs.ok());
  ufs::Ufs* ufs = fs->get();
  auto d = ufs->Create(kRootInode, "d", ufs::FileType::kDirectory);
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(ufs->Create(*d, "x", ufs::FileType::kRegular).ok());
  ASSERT_TRUE(ufs->Sync().ok());
  // Removing the entry puts d's block into a log record as a home, and
  // removing d frees that block while the record is live.
  ASSERT_TRUE(ufs->Remove(*d, "x").ok());
  ASSERT_TRUE(ufs->Remove(kRootInode, "d").ok());
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
// touched: each overwrite moves its blocks to fresh ones, written in place.
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
      // the superblock, the inode-table block and the data bitmap, which
      // each move changes.
      EXPECT_LE(metrics::StatValue(*ufs, "retained_blocks"), 3u)
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

// A metadata-only commit logs the changed chunks of blocks the live log
// already holds: after a Sync, a SetTimes and Sync appends one descriptor
// block carrying the superblock's and the inode's chunks.
TEST(CrashRecovery, SetTimesSyncLogsOneBlock) {
  auto device = MakeDevice();
  auto fs = ufs::Ufs::Format(device.get());
  ASSERT_TRUE(fs.ok());
  ufs::Ufs* ufs = fs->get();
  auto ino = ufs->Create(kRootInode, "f", ufs::FileType::kRegular);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(ufs->Sync().ok());
  uint64_t logged = metrics::StatValue(*ufs, "journal_log_blocks");
  ASSERT_TRUE(ufs->SetTimes(*ino, 1000, 2000).ok());
  ASSERT_TRUE(ufs->Sync().ok());
  EXPECT_EQ(metrics::StatValue(*ufs, "journal_log_blocks") - logged, 1u);

  ufs->Abandon();
  fs->reset();
  auto again = ufs::Ufs::Mount(device.get());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  auto attrs = (*again)->GetAttrs(*ino);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->atime_ns, 1000u);
  EXPECT_EQ(attrs->mtime_ns, 2000u);
}

// Deltas are taken only against copies the live log holds. The record
// that follows a checkpoint, and the first record after a mount, log their
// blocks whole: the descriptor, the superblock and the inode-table block.
TEST(CrashRecovery, FirstRecordAfterCheckpointOrMountCarriesFullImages) {
  auto device = MakeDevice();
  ufs::FormatOptions small_log;
  small_log.journal_blocks = kWrapJournalBlocks;
  auto fs = ufs::Ufs::Format(device.get(), &DefaultClock(), small_log);
  ASSERT_TRUE(fs.ok());
  auto ino = (*fs)->Create(kRootInode, "f", ufs::FileType::kRegular);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE((*fs)->Sync().ok());
  uint64_t time = 0;
  // Log blocks appended by one SetTimes and Sync.
  auto touch = [&](ufs::Ufs* ufs) -> uint64_t {
    uint64_t before = metrics::StatValue(*ufs, "journal_log_blocks");
    ++time;
    EXPECT_TRUE(ufs->SetTimes(*ino, time, time).ok());
    EXPECT_TRUE(ufs->Sync().ok());
    return metrics::StatValue(*ufs, "journal_log_blocks") - before;
  };

  const uint64_t checkpoints =
      metrics::StatValue(**fs, "journal_checkpoints");
  while (metrics::StatValue(**fs, "journal_checkpoints") == checkpoints) {
    ASSERT_LT(time, kWrapJournalBlocks) << "the log never filled";
    uint64_t logged = touch(fs->get());
    bool checkpointed =
        metrics::StatValue(**fs, "journal_checkpoints") != checkpoints;
    EXPECT_EQ(logged, checkpointed ? 3u : 1u) << "SetTimes " << time;
  }
  EXPECT_EQ(touch(fs->get()), 1u);

  fs->reset();  // unmount
  auto again = ufs::Ufs::Mount(device.get());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(touch(again->get()), 3u);
  EXPECT_EQ(touch(again->get()), 1u);
  (*again)->Abandon();
  again->reset();

  auto last = ufs::Ufs::Mount(device.get());
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  auto attrs = (*last)->GetAttrs(*ino);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->mtime_ns, time);
  auto report = ufs::Checker(device.get()).Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
}

// An overwrite moves the file block to a fresh device block, written in
// place as ordered data: the record carries only the metadata deltas (one
// log block), and the committed bytes stay where they were.
TEST(CrashRecovery, OverwriteLeavesTheCommittedBlockUntouched) {
  auto device = MakeDevice();
  auto fs = ufs::Ufs::Format(device.get());
  ASSERT_TRUE(fs.ok());
  ufs::Ufs* ufs = fs->get();
  auto ino = ufs->Create(kRootInode, "f", ufs::FileType::kRegular);
  ASSERT_TRUE(ino.ok());
  const Buffer committed = RandomBlock(1);
  ASSERT_TRUE(ufs->Write(*ino, 0, committed.span()).ok());
  ASSERT_TRUE(ufs->Sync().ok());
  const uint64_t logged = metrics::StatValue(*ufs, "journal_log_blocks");
  const Buffer overwrite = RandomBlock(2);
  ASSERT_TRUE(ufs->Write(*ino, 0, overwrite.span()).ok());
  ASSERT_TRUE(ufs->Sync().ok());
  EXPECT_EQ(metrics::StatValue(*ufs, "journal_log_blocks") - logged, 1u);
  int copies = 0;
  for (BlockNum b = 0; b < kDevBlocks; ++b) {
    copies += ReadBack(*device, b) == committed ? 1 : 0;
  }
  EXPECT_EQ(copies, 1) << "device blocks holding the committed bytes";

  ufs->Abandon();
  fs->reset();
  auto again = ufs::Ufs::Mount(device.get());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ExpectMatchesModel(again->get(), Model{{"f", overwrite}});
  auto report = ufs::Checker(device.get()).Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
}

// On a full device a moved block gets its own block back, which the commit
// journals. One direct block and a range through the indirect block are
// overwritten; a crash at any device write of that recovers a clean file
// system holding either the old bytes or the new. Allocating the fresh
// block before freeing the old one would fail the overwrite with kNoSpace.
TEST(CrashRecovery, OverwriteOnAFullDeviceIsJournaled) {
  constexpr uint64_t kSmallDevBlocks = 64;
  ufs::FormatOptions options;
  options.journal_blocks = 24;
  Buffer before;
  Buffer after;
  const uint64_t range_offset = 10 * kBlockSize + 100;
  Buffer range(4 * kBlockSize);
  Rng(3).Fill(range.mutable_span());
  // Formats, fills the device with one file and syncs; then `arm` runs,
  // and the file is overwritten and synced. `synced` is that Sync's result
  // and `logged` the log blocks it appended.
  auto run = [&](FaultyBlockDevice* device, const std::function<void()>& arm,
                 bool* synced, uint64_t* logged) {
    auto fs = ufs::Ufs::Format(device, &DefaultClock(), options);
    ASSERT_TRUE(fs.ok());
    auto ino = (*fs)->Create(kRootInode, "f", ufs::FileType::kRegular);
    ASSERT_TRUE(ino.ok());
    // Every free block: the file's data and its indirect block.
    before = Buffer(((*fs)->FreeBlocks() - 1) * kBlockSize);
    Rng(1).Fill(before.mutable_span());
    ASSERT_EQ(*(*fs)->Write(*ino, 0, before.span()), before.size());
    ASSERT_EQ((*fs)->FreeBlocks(), 0u);
    ASSERT_TRUE((*fs)->Sync().ok());
    after = before;
    after.WriteAt(0, RandomBlock(2).span());
    after.WriteAt(range_offset, range.span());
    arm();
    *logged = metrics::StatValue(**fs, "journal_log_blocks");
    *synced = (*fs)->Write(*ino, 0, RandomBlock(2).span()).ok() &&
              (*fs)->Write(*ino, range_offset, range.span()).ok() &&
              (*fs)->Sync().ok();
    *logged = metrics::StatValue(**fs, "journal_log_blocks") - *logged;
    (*fs)->Abandon();
  };
  // Remounts and checks the image; returns whether f holds `after`.
  auto recover = [&](FaultyBlockDevice* device, bool* overwritten) {
    auto recovered = ufs::Ufs::Mount(device);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    auto report = ufs::Checker(device).Check();
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean()) << report->Summary();
    *overwritten = ModelMismatch(recovered->get(), Model{{"f", after}}).empty();
    EXPECT_TRUE(*overwritten ||
                ModelMismatch(recovered->get(), Model{{"f", before}}).empty())
        << "neither the old bytes nor the new";
  };

  uint64_t writes = 0;
  uint64_t logged = 0;
  {
    auto device = MakeDevice(kSmallDevBlocks);
    bool synced = false;
    run(device.get(), [&] {
      device->set_predicate([&](int op, BlockNum) {
        writes += op == 1 ? 1 : 0;
        return false;
      });
    }, &synced, &logged);
    ASSERT_TRUE(synced);
    // Six file blocks overwritten, each logged whole.
    EXPECT_GT(logged, 6u) << "the overwrite was not journaled";
    device->set_predicate(nullptr);
    bool overwritten = false;
    recover(device.get(), &overwritten);
    EXPECT_TRUE(overwritten) << "the acknowledged Sync did not survive";
  }
  ASSERT_GT(writes, 0u);

  for (uint64_t write = 1; write <= writes; ++write) {
    for (uint64_t outcome = 1; outcome <= 4; ++outcome) {
      SCOPED_TRACE("write=" + std::to_string(write) + " of " +
                   std::to_string(writes) +
                   " outcome=" + std::to_string(outcome));
      auto device = MakeDevice(kSmallDevBlocks);
      bool synced = true;
      run(device.get(), [&] { device->ArmCrash(CrashPlan{write, outcome}); },
          &synced, &logged);
      ASSERT_TRUE(device->crashed());
      EXPECT_FALSE(synced);
      device->RecoverAfterCrash();
      bool overwritten = false;
      recover(device.get(), &overwritten);
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
  }
  std::printf("full-device overwrite sweep: %lu writes\n",
              static_cast<unsigned long>(writes));
}

// A moved block's ordered write fails once: the Sync fails and commits
// nothing, and the next Sync writes it again and commits. The block it
// moved from was freed, so no block leaks or is referenced twice.
TEST(CrashRecovery, FailedOrderedWriteOfAMovedBlockIsRetried) {
  auto device = MakeDevice();
  auto fs = ufs::Ufs::Format(device.get());
  ASSERT_TRUE(fs.ok());
  ufs::Ufs* ufs = fs->get();
  auto ino = ufs->Create(kRootInode, "a", ufs::FileType::kRegular);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(ufs->Write(*ino, 0, RandomBlock(1).span()).ok());
  ASSERT_TRUE(ufs->Sync().ok());

  const Buffer overwrite = RandomBlock(2);
  ASSERT_TRUE(ufs->Write(*ino, 0, overwrite.span()).ok());
  const uint64_t data_start = ufs->superblock().data_start;
  const uint64_t jnl_start = ufs->superblock().jnl_start();
  const uint64_t committed = ufs->last_committed_tx();
  bool failed = false;
  device->set_predicate([&](int op, BlockNum block) {
    if (op == 1 && !failed && block >= data_start && block < jnl_start) {
      failed = true;
      return true;
    }
    return false;
  });
  EXPECT_FALSE(ufs->Sync().ok());
  ASSERT_TRUE(failed);
  EXPECT_EQ(ufs->last_committed_tx(), committed);
  ASSERT_TRUE(ufs->Sync().ok());
  EXPECT_EQ(ufs->last_committed_tx(), committed + 1);
  ufs->Abandon();
  fs->reset();
  device->set_predicate(nullptr);

  auto again = ufs::Ufs::Mount(device.get());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  auto report = ufs::Checker(device.get()).Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
  ExpectMatchesModel(again->get(), Model{{"a", overwrite}});
}

// A commit whose record did not land must never reach a checkpoint: its
// journaled blocks join retained_ only once the record is durable. The
// live log is filled to two blocks short of full, so the failed
// overwrite's record still fits and runs no checkpoint; the next commit's
// does not fit, and its checkpoint must write home only committed state.
TEST(CrashRecovery, FailedCommitNeverReachesALaterCheckpoint) {
  auto device = MakeDevice();
  ufs::FormatOptions small_log;
  small_log.journal_blocks = kWrapJournalBlocks;
  auto fs = ufs::Ufs::Format(device.get(), &DefaultClock(), small_log);
  ASSERT_TRUE(fs.ok());
  ufs::Ufs* ufs = fs->get();
  auto ino = ufs->Create(kRootInode, "a", ufs::FileType::kRegular);
  ASSERT_TRUE(ino.ok());
  const Model committed_model{{"a", RandomBlock(1)}};
  ASSERT_TRUE(ufs->Write(*ino, 0, committed_model.at("a").span()).ok());
  ASSERT_TRUE(ufs->Sync().ok());

  // One-block SetTimes Syncs; the one that checkpoints logs 3 blocks into
  // the emptied log. `used` counts the live log's blocks from then on.
  const uint64_t log_blocks = kWrapJournalBlocks - 1;  // less the anchor
  uint64_t used = 0;
  uint64_t checkpoints = metrics::StatValue(*ufs, "journal_checkpoints");
  for (uint64_t time = 1; used == 0 || used + 2 < log_blocks; ++time) {
    ASSERT_LT(time, 2 * kWrapJournalBlocks) << "the log never filled";
    uint64_t logged = metrics::StatValue(*ufs, "journal_log_blocks");
    ASSERT_TRUE(ufs->SetTimes(*ino, time, time).ok());
    ASSERT_TRUE(ufs->Sync().ok());
    logged = metrics::StatValue(*ufs, "journal_log_blocks") - logged;
    if (metrics::StatValue(*ufs, "journal_checkpoints") != checkpoints) {
      checkpoints = metrics::StatValue(*ufs, "journal_checkpoints");
      used = logged;
    } else if (used != 0) {
      used += logged;
    }
  }
  ASSERT_EQ(used + 2, log_blocks);
  const uint64_t committed = ufs->last_committed_tx();

  // Every log write fails. The overwrite's record (a descriptor of deltas
  // and the data bitmap whole) fits, so its commit runs no checkpoint.
  const uint64_t jnl_start = ufs->superblock().jnl_start();
  device->set_predicate([&](int op, BlockNum block) {
    return op == 1 && block >= jnl_start && block + 1 < kDevBlocks;
  });
  ASSERT_TRUE(ufs->Write(*ino, 0, RandomBlock(2).span()).ok());
  EXPECT_FALSE(ufs->Sync().ok());
  EXPECT_EQ(metrics::StatValue(*ufs, "journal_checkpoints"), checkpoints);
  // Creates grow the open transaction until its record no longer fits and
  // a checkpoint runs; the commit after it fails too.
  for (int i = 0;
       metrics::StatValue(*ufs, "journal_checkpoints") == checkpoints; ++i) {
    ASSERT_LT(i, 8) << "no checkpoint ran";
    ASSERT_TRUE(ufs->Create(kRootInode, "f" + std::to_string(i),
                            ufs::FileType::kRegular).ok());
    EXPECT_FALSE(ufs->Sync().ok());
  }
  EXPECT_EQ(ufs->last_committed_tx(), committed);
  ufs->Abandon();
  fs->reset();
  device->set_predicate(nullptr);

  auto again = ufs::Ufs::Mount(device.get());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  auto report = ufs::Checker(device.get()).Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
  EXPECT_EQ((*again)->last_committed_tx(), committed);
  ExpectMatchesModel(again->get(), committed_model);
}

// --- The crash/recovery property suite: >= 200 seeded crash points ---

// On the first failing seed, print the flight recorder (journal commits,
// replay decisions, injected crash point) and save it for CI upload.
// Returns how many seeds crashed inside a checkpoint.
int RunCrashShard(uint64_t first_seed,
                  const ufs::FormatOptions& options = {},
                  uint64_t min_checkpoints = 0,
                  const Workload& workload = kDefault) {
  bool dumped = false;
  int in_checkpoint = 0;
  for (uint64_t seed = first_seed; seed < first_seed + 55; ++seed) {
    bool crashed_in_checkpoint = false;
    RunCrashSeed(seed, options, min_checkpoints, workload,
                 &crashed_in_checkpoint);
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

// A log small enough, and a workload long enough, that every seed wraps
// the log at least twice, so crash points also land inside checkpoints and
// anchor rewrites.
TEST(CrashRecovery, SeededCrashPointsWrapShard) {
  ufs::FormatOptions small_log;
  small_log.journal_blocks = kWrapJournalBlocks;
  int in_checkpoint =
      RunCrashShard(6000, small_log, /*min_checkpoints=*/2, kWrap);
  std::printf("wrap shard: %d of 55 seeds crashed inside a checkpoint\n",
              in_checkpoint);
  ::testing::Test::RecordProperty("seeds_crashed_in_checkpoint",
                                  in_checkpoint);
  EXPECT_GE(in_checkpoint, 1) << "no crash point landed in a checkpoint";
}

// Every write of every checkpoint of one wrap-shard workload as the crash
// point, under several power-loss outcomes each: the homes, their flush
// and the anchor rewrite must be ordered so that no outcome loses state.
TEST(CrashRecovery, CrashAtEveryCheckpointWrite) {
  constexpr uint64_t kSeed = 6000;
  ufs::FormatOptions small_log;
  small_log.journal_blocks = kWrapJournalBlocks;
  DryRun dry = CountWorkloadWrites(kSeed, small_log, kWrap);
  ASSERT_GE(dry.checkpoint_writes.size(), 2u);
  for (const auto& [first, last] : dry.checkpoint_writes) {
    for (uint64_t write = first; write <= last; ++write) {
      for (uint64_t outcome = 1; outcome <= 4; ++outcome) {
        SCOPED_TRACE("write=" + std::to_string(write) +
                     " outcome=" + std::to_string(outcome));
        CheckCrashAt(kSeed, small_log, CrashPlan{write, outcome}, kWrap);
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
  }
}

// The rare-Sync workload on the 16-block log, at every device write under
// two power-loss outcomes. Its seeds are those of 7000-7054 whose open
// transaction outgrew the log before transactions were bounded, when such
// a sync wrote in place, unprotected: each then failed this sweep.
TEST(CrashRecovery, RareSyncCrashAtEveryWrite) {
  ufs::FormatOptions small_log;
  small_log.journal_blocks = kWrapJournalBlocks;
  int points = 0;
  for (uint64_t seed : {7001u, 7005u, 7012u, 7014u, 7043u, 7049u}) {
    DryRun dry = CountWorkloadWrites(seed, small_log, kRareSync);
    for (uint64_t write = 1; write <= dry.writes; ++write) {
      for (uint64_t outcome = 1; outcome <= 2; ++outcome, ++points) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " write=" + std::to_string(write) + " of " +
                     std::to_string(dry.writes) +
                     " outcome=" + std::to_string(outcome));
        CheckCrashAt(seed, small_log, CrashPlan{write, outcome}, kRareSync);
        if (::testing::Test::HasFailure()) {
          return;
        }
      }
    }
  }
  std::printf("rare-Sync sweep: %d crash points\n", points);
}

// One Write of three logs' worth into an empty file lands block by block,
// and early commits split it. A crash at any device write recovers a clean
// file system whose file holds a block-aligned prefix of the new bytes,
// with its size exactly that prefix.
TEST(CrashRecovery, SplitWriteCrashAtEveryWrite) {
  ufs::FormatOptions small_log;
  small_log.journal_blocks = kWrapJournalBlocks;
  Buffer data(3 * kWrapJournalBlocks * kBlockSize);
  Rng(7).Fill(data.mutable_span());
  // Formats, creates the file and syncs; then `arm` runs, and the file is
  // written and synced. `commits` counts the Write's own commits.
  auto run = [&](FaultyBlockDevice* device, const std::function<void()>& arm,
                 uint64_t* commits) {
    auto fs = ufs::Ufs::Format(device, &DefaultClock(), small_log);
    ASSERT_TRUE(fs.ok());
    auto ino = (*fs)->Create(kRootInode, "f", ufs::FileType::kRegular);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE((*fs)->Sync().ok());
    arm();
    *commits = (*fs)->last_committed_tx();
    auto written = (*fs)->Write(*ino, 0, data.span());
    *commits = (*fs)->last_committed_tx() - *commits;
    if (written.ok() && *written == data.size()) {
      (void)(*fs)->Sync();
    }
    (*fs)->Abandon();
  };
  uint64_t writes = 0;
  uint64_t commits = 0;
  {
    auto device = MakeDevice();
    run(device.get(), [&] {
      device->set_predicate([&](int op, BlockNum) {
        writes += op == 1 ? 1 : 0;
        return false;
      });
    }, &commits);
  }
  ASSERT_GE(commits, 3u) << "the Write was not split";

  for (uint64_t write = 1; write <= writes; ++write) {
    SCOPED_TRACE("write=" + std::to_string(write) + " of " +
                 std::to_string(writes));
    auto device = MakeDevice();
    run(device.get(), [&] { device->ArmCrash(CrashPlan{write, write}); },
        &commits);
    ASSERT_TRUE(device->crashed());
    device->RecoverAfterCrash();
    auto recovered = ufs::Ufs::Mount(device.get());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    auto report = ufs::Checker(device.get()).Check();
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean()) << report->Summary();
    auto ino = (*recovered)->Lookup(kRootInode, "f");
    ASSERT_TRUE(ino.ok());
    uint64_t size = (*recovered)->GetAttrs(*ino)->size;
    EXPECT_EQ(size % kBlockSize, 0u);
    ASSERT_LE(size, data.size());
    Buffer got(size);
    ASSERT_EQ(*(*recovered)->Read(*ino, 0, got.mutable_span()), size);
    EXPECT_TRUE(got == Buffer(data.subspan(0, size))) << "size " << size;
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  std::printf("split-Write sweep: %lu crash points\n",
              static_cast<unsigned long>(writes));
}

// Control: on a device that drops flushes the same crashes break the
// journal's write ordering and the harness notices — i.e. the property
// suite above is not vacuously green.
TEST(CrashRecovery, WithoutFlushesHarnessDetectsCorruption) {
  int detected = 0;
  constexpr int kSeeds = 40;
  for (uint64_t seed = 5000; seed < 5000 + kSeeds; ++seed) {
    detected += CrashWithoutFlushesIsDetected(seed) ? 1 : 0;
  }
  std::printf("control: %d of %d crashes without flushes detected\n",
              detected, kSeeds);
  EXPECT_GE(detected, 1) << "no crash without flushes damaged the fs in "
                         << kSeeds << " seeds; the harness has no teeth";
}

}  // namespace
}  // namespace springfs
