// Write-ahead (redo) journal for the UFS substrate.
//
// The journal turns each Ufs::Sync into an atomic transaction: every block
// that is already referenced by durable metadata (superblock, bitmaps,
// inode table, directory and indirect blocks, and in-place data overwrites)
// is first written to the journal region together with a checksummed commit
// record, flushed, and only then written in place. Recovery scans the
// journal on mount and redoes the last committed transaction, so a crash at
// any point leaves the file system either wholly before or wholly after the
// transaction — never in between.
//
// On-disk layout, inside [jnl_start, num_blocks):
//
//   [region_low, desc_lo)      record payloads, one full block each
//   [desc_lo, num_blocks - 1)  descriptor table: 16 bytes per record
//                              (home block u64, payload tag u64), packed
//   num_blocks - 1             commit record (written last)
//
// The commit record lives at a fixed location (the device's last block) so
// that recovery needs nothing else to find it — in particular, not the
// superblock, whose in-place update is itself journaled and may be torn at
// the crash point. A commit record is only believed if its own CRC, the
// descriptor-table CRC, and every record's payload tag all verify; a torn
// or reordered journal write therefore invalidates the whole transaction
// and recovery falls back to the previous durable state. The payload tag is
// an XXH64 of the block folded with the tx id and home block: non-linear,
// so two valid superblocks (which share one CRC32) still get different
// tags, and a stale slot from another transaction never verifies.
//
// Each transaction overwrites the previous one: because a transaction's
// home-location writes are flushed before the next transaction starts, only
// the most recent committed transaction can ever be un-applied.

#ifndef SPRINGFS_UFS_JOURNAL_H_
#define SPRINGFS_UFS_JOURNAL_H_

#include <map>

#include "src/blockdev/block_device.h"
#include "src/ufs/layout.h"

namespace springfs::ufs {

inline constexpr uint32_t kJournalMagic = 0x4C4E4A53;  // "SJNL"

// Result of a recovery scan.
struct ReplayReport {
  uint64_t tx_id = 0;        // 0 when no committed transaction was found
  uint64_t blocks_replayed = 0;
};

class Journal {
 public:
  // The journal occupies [jnl_start, device->num_blocks()).
  Journal(BlockDevice* device, uint64_t jnl_start);

  uint64_t jnl_start() const { return jnl_start_; }

  // True when a transaction of `num_records` blocks fits in the region
  // (payloads + descriptor blocks + commit record).
  bool Fits(uint64_t num_records) const;

  // Writes `blocks` (home block -> new content) plus descriptors and the
  // commit record for transaction `tx_id`, then flushes the device. After
  // this returns OK the transaction is durable; the caller then writes the
  // blocks to their home locations.
  Status Commit(uint64_t tx_id, const std::map<BlockNum, Buffer>& blocks);

  // Scans the device tail for a committed transaction and, if the commit
  // record, descriptor table, and all payloads verify, rewrites every
  // record to its home location and flushes. Idempotent; returns tx_id 0
  // (not an error) when no valid committed transaction exists.
  static Result<ReplayReport> Replay(BlockDevice* device);

 private:
  BlockDevice* device_;
  uint64_t jnl_start_;
};

}  // namespace springfs::ufs

#endif  // SPRINGFS_UFS_JOURNAL_H_
