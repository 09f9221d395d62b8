// Write-ahead (redo) log for the UFS substrate.
//
// The log turns each UFS commit into an atomic transaction: every block that
// durable metadata may already reference (superblock, bitmaps, inode table,
// directory and indirect blocks, and file data that UFS found no fresh
// block for) is appended to the log as one checksummed record and flushed
// before the commit returns. UFS commits at every Sync, and also before an
// op that could make the record too large for an empty log (MaxImages), so
// a transaction id may become durable without a Sync. Records accumulate:
// the log is circular, and a transaction stays live until a checkpoint has
// written every block it carries to its home location. Recovery replays
// every live transaction in tx order, so a crash at any point leaves the
// file system exactly at some committed transaction, never between two.
//
// The journal owns the live log in memory too: the newest committed copy
// of every home a live record carries, which is exactly what replay would
// rebuild. These copies serve UFS's reads of their homes (Find), are the
// bases of the next record's deltas, and are what a checkpoint writes
// home. A block becomes a live copy only once its record has landed, so a
// record that failed is never a delta base and never reaches a checkpoint.
//
// On-disk layout, inside [jnl_start, num_blocks):
//
//   [jnl_start, num_blocks - 1)  the circular log: records of
//                                (descriptor blocks, full images), each
//                                laid out consecutively modulo the region
//   num_blocks - 1               the anchor
//
// A record's first descriptor block starts with the log id, tx id, entry
// count and a CRC over the header and the entries (24 bytes each: home
// block u64, payload tag u64, chunk mask u64). An entry logs its home
// either as a full image or as a delta: the 128-byte chunks that differ
// from the home's live copy, one mask bit per chunk. A home with no live
// copy (the first record to name it after a checkpoint, or in a new log)
// is logged whole. The deltas' chunks follow the entries, packed in entry
// order, and the descriptor area is zero-padded to a block boundary; then
// come the full images, one block each, in entry order. A record of a few
// metadata deltas is one block.
//
// The payload tag is an XXH64 of the entry's logged bytes (the image, or
// its packed chunks) folded with the tx id, home block and mask:
// non-linear, so two valid superblocks (which share one CRC32) still get
// different tags, the same chunk bytes under another mask never verify,
// and a stale slot from another transaction never verifies. Records are
// self-validating, so a commit writes them with no flush between
// descriptor and payloads, and one flush at the end.
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
// stops at the first record whose id, log id, CRC, masks or payload tags
// fail to verify, or that holds a delta for a home no earlier live record
// carries, and keeps every transaction before it. Deltas apply in tx order
// onto the image the earlier records rebuilt, never onto a home copy. A
// record left over from before the last wrap carries an older tx id, so
// the chain never reaches it. Format zeroes the whole log first, so
// nothing an earlier file system left there survives. Every Mount starts a
// new log with a new log id (derived from the anchor block it replaces), so
// records from an earlier mount — including one a crash left half-written
// — never continue the chain.

#ifndef SPRINGFS_UFS_JOURNAL_H_
#define SPRINGFS_UFS_JOURNAL_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

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

// Not thread-safe: UFS makes every call under its own mutex.
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

  // Log blocks (descriptors included) of a record that carries `blocks`
  // and takes its deltas against `bases`.
  static uint64_t RecordBlocks(const std::map<BlockNum, Buffer>& blocks,
                               const std::map<BlockNum, Buffer>& bases);

  // The most full images one record can carry in an empty log of a
  // `jnl_blocks`-block region (anchor included); 0 when there is no log.
  static uint64_t MaxImages(uint64_t jnl_blocks);

  // The live copy of `home`, or nullptr when no live record carries it.
  const Buffer* Find(BlockNum home) const;

  // True when a live record carries `home`: replay would overwrite
  // whatever is written there in place before the next checkpoint.
  bool Names(BlockNum home) const { return live_.count(home) != 0; }

  // Commits transaction `tx_id` (which must be the next id) carrying
  // `blocks` (home block -> new content), in four steps:
  //   1. if the record, sized by its deltas against the live copies, does
  //      not fit after the live transactions, checkpoint; every home is
  //      then logged whole;
  //   2. write `ordered` (blocks that no durable state references until
  //      this record lands) in place, and flush;
  //   3. append the record and flush: the transaction is now durable;
  //   4. adopt `blocks` as the live copies.
  // When any step fails, `blocks` are not adopted.
  Status Commit(uint64_t tx_id, std::map<BlockNum, Buffer> blocks,
                const std::vector<std::pair<BlockNum, ByteSpan>>& ordered);

  // Writes every live copy to its home in block order, flushes, forgets
  // the copies, then rewrites the anchor so that the next transaction is
  // the tail. Does nothing when no record is live.
  Status Checkpoint();

  // Log blocks appended by this log's commits, descriptors included.
  uint64_t appended_blocks() const { return appended_blocks_; }
  uint64_t checkpoints() const { return checkpoints_; }
  // Homes written by checkpoints.
  uint64_t checkpoint_blocks() const { return checkpoint_blocks_; }
  // Homes the live log holds newer than their home copies.
  uint64_t live_blocks() const { return live_.size(); }

  // Reads the anchor and validates the live transactions without writing
  // anything. Returns an empty LiveLog (not an error) when there is no
  // valid anchor or no live transaction.
  static Result<LiveLog> Scan(BlockDevice* device);

  // Scan, then writes every live home's newest content to its home
  // location and flushes. Returns what it wrote. Idempotent.
  static Result<LiveLog> Replay(BlockDevice* device);

 private:
  Journal(BlockDevice* device, uint64_t jnl_start);

  // True when a record of `record_blocks` log blocks fits after the live
  // transactions.
  bool HasRoom(uint64_t record_blocks) const;

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
  uint64_t appended_blocks_ = 0;
  uint64_t checkpoints_ = 0;
  uint64_t checkpoint_blocks_ = 0;
  // The newest committed copy of every home a live record carries: what
  // replay would rebuild. Bounded by the log's size; emptied by Checkpoint.
  std::map<BlockNum, Buffer> live_;
};

}  // namespace springfs::ufs

#endif  // SPRINGFS_UFS_JOURNAL_H_
