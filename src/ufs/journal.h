// Write-ahead (redo) log for the UFS substrate.
//
// The log turns each Ufs::Sync into an atomic transaction: every block that
// durable metadata may already reference (superblock, bitmaps, inode table,
// directory and indirect blocks, and in-place data overwrites) is appended
// to the log as one checksummed record and flushed before Sync returns.
// Records accumulate: the log is circular, and a transaction stays live
// until a checkpoint has written every block it carries to its home
// location. Recovery replays every live transaction in tx order, so a crash
// at any point leaves the file system exactly at some committed
// transaction, never between two.
//
// On-disk layout, inside [jnl_start, num_blocks):
//
//   [jnl_start, num_blocks - 1)  the circular log: records of
//                                (descriptor blocks, payload blocks), each
//                                laid out consecutively modulo the region
//   num_blocks - 1               the anchor
//
// A record's first descriptor block holds the log id, tx id, record count
// and a CRC over its descriptor entries (16 bytes each: home block u64,
// payload tag u64); a transaction of up to 253 blocks needs one descriptor
// block. The payload tag is an XXH64 of the block folded with the tx id and
// home block: non-linear, so two valid superblocks (which share one CRC32)
// still get different tags, and a stale slot from another transaction
// never verifies. Records are self-validating, so a commit writes them
// with no flush between descriptor and payloads, and one flush at the end.
//
// The anchor sits at a fixed location (the device's last block), so
// recovery needs nothing else to find the log — in particular, not the
// superblock, whose home copy may lag the log. It names the oldest live
// transaction (tail position and tx id) and the log id. It is rewritten only
// when the tail moves, into one of two half-block slots in turn; the valid
// slot with the higher sequence number wins, so a torn anchor write falls
// back to the previous anchor and loses nothing that was committed.
//
// Replay starts at the anchor's tail and follows consecutive tx ids. It
// stops at the first record whose id, log id, CRC or payload tags fail to
// verify, and keeps every transaction before it. A record left over from
// before the last wrap carries an older tx id, so the chain never reaches
// it. Format zeroes the whole log first, so nothing an earlier file system
// left there survives. Every Mount starts a new log with a new log id
// (derived from the anchor block it replaces), so records from an earlier
// mount — including one a crash left half-written — never continue the
// chain.

#ifndef SPRINGFS_UFS_JOURNAL_H_
#define SPRINGFS_UFS_JOURNAL_H_

#include <map>
#include <memory>
#include <set>

#include "src/blockdev/block_device.h"
#include "src/ufs/layout.h"

namespace springfs::ufs {

inline constexpr uint32_t kJournalMagic = 0x4C4E4A53;  // "SJNL"

// The live transactions a recovery scan found, merged in tx order.
struct LiveLog {
  uint64_t last_tx = 0;  // 0 when the log holds no live transaction
  uint64_t transactions = 0;
  std::map<BlockNum, Buffer> homes;  // newest content of every live home
};

// Result of a recovery replay.
struct ReplayReport {
  uint64_t tx_id = 0;        // newest replayed transaction; 0 = none
  uint64_t transactions = 0;
  uint64_t blocks_replayed = 0;
};

class Journal {
 public:
  // Starts a new, empty log in [jnl_start, device->num_blocks()) whose
  // first transaction will be `next_tx`: writes the anchor and flushes.
  // Any live transactions of the previous log must be replayed first.
  static Result<std::unique_ptr<Journal>> Open(BlockDevice* device,
                                               uint64_t jnl_start,
                                               uint64_t next_tx);

  // The first log of a newly formatted file system: zeroes the circular
  // region, then Opens it with tx 1 (whose flush makes the zeroes durable).
  // An earlier file system's records may survive there with an anchor
  // that has since been overwritten, so the log id alone cannot keep them
  // out of the chain.
  static Result<std::unique_ptr<Journal>> Create(BlockDevice* device,
                                                 uint64_t jnl_start);

  // True when a transaction of `num_records` blocks (payloads plus
  // descriptor blocks) fits after the live transactions.
  bool HasRoom(uint64_t num_records) const;

  // True when a live record carries `home`: replay would overwrite
  // whatever is written there in place before the next Truncate.
  bool Names(BlockNum home) const { return homes_.count(home) != 0; }

  // Appends transaction `tx_id` (which must be the next id) carrying
  // `blocks` (home block -> new content), then flushes. After this returns
  // OK the transaction is durable and stays live until Truncate.
  Status Commit(uint64_t tx_id, const std::map<BlockNum, Buffer>& blocks);

  // Frees the whole log: rewrites the anchor so that the next transaction
  // is the tail, then flushes. The caller must first have written every
  // live home to its home location and flushed.
  Status Truncate();

  // Reads the anchor and validates the live transactions without writing
  // anything. Returns an empty LiveLog (not an error) when there is no
  // valid anchor or no live transaction.
  static Result<LiveLog> Scan(BlockDevice* device);

  // Scan, then writes every live home's newest content to its home
  // location and flushes. Idempotent.
  static Result<ReplayReport> Replay(BlockDevice* device);

 private:
  Journal(BlockDevice* device, uint64_t jnl_start);

  // Writes the anchor (next slot, next sequence) naming `tail_pos_` and
  // `tail_tx_` as the oldest live transaction, then flushes.
  Status WriteAnchor();

  BlockDevice* device_;
  uint64_t jnl_start_;
  uint64_t log_blocks_;   // circular region, excluding the anchor block
  uint64_t log_id_ = 0;
  uint64_t sequence_ = 0;  // of the newest anchor written
  Buffer anchor_;          // current anchor block (both slots)
  uint64_t tail_pos_ = 0;  // log offset of the oldest live record
  uint64_t tail_tx_ = 0;
  uint64_t head_ = 0;      // log offset where the next record goes
  uint64_t used_ = 0;      // log blocks held by live transactions
  uint64_t next_tx_ = 0;
  std::set<BlockNum> homes_;  // every home a live record carries
};

}  // namespace springfs::ufs

#endif  // SPRINGFS_UFS_JOURNAL_H_
