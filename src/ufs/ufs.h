// UFS-like file system over a BlockDevice.
//
// This is the storage substrate underneath the Spring disk layer. It keeps
// an in-memory inode cache (the paper notes the disk layer "maintains its
// own cache to handle open and stat operations without requiring disk
// I/Os"); data caching is the job of the VMM and the coherency layer above.
// Still, every write lands in the open journal transaction, which serves
// reads of it until the commit; so unlike the paper's disk layer ("reads
// and writes to the disk layer do require disk I/Os"), Table 2's uncached
// rows make no device I/O. Reads of blocks that the live log holds newer
// than their home copies are served by the journal, until a checkpoint
// writes them home. Those are metadata: an overwrite moves a file block to
// a fresh device block, written in place, so committed file data is held
// only when no fresh block was free.

#ifndef SPRINGFS_UFS_UFS_H_
#define SPRINGFS_UFS_UFS_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/obs/metrics.h"
#include "src/support/clock.h"
#include "src/ufs/journal.h"
#include "src/ufs/layout.h"

namespace springfs::ufs {

// In-memory allocation bitmap with dirty-block write-back.
class Bitmap {
 public:
  Bitmap() = default;
  Bitmap(uint64_t num_bits, uint64_t disk_start);

  bool Get(uint64_t bit) const;
  void Set(uint64_t bit);
  void Clear(uint64_t bit);
  // Lowest clear bit; kInvalid if full.
  static constexpr uint64_t kInvalid = ~0ull;
  uint64_t FindClear() const;

  uint64_t num_bits() const { return num_bits_; }

  // The raw backing bytes (for snapshotting the committed state).
  ByteSpan raw_bits() const { return ByteSpan(bits_.data(), bits_.size()); }

  Status Load(BlockDevice& dev);
  // Encodes each dirty on-disk bitmap block and hands it to `write`; the
  // caller decides whether it goes straight to the device or into a
  // journal transaction.
  using BlockWriter = std::function<Status(BlockNum, ByteSpan)>;
  Status FlushDirty(const BlockWriter& write);

 private:
  uint64_t num_bits_ = 0;
  uint64_t disk_start_ = 0;  // first device block of this bitmap
  std::vector<uint8_t> bits_;
  std::vector<bool> dirty_;  // one flag per on-disk bitmap block
};

struct InodeAttrs {
  FileType type = FileType::kFree;
  uint64_t size = 0;
  uint32_t nlink = 0;
  uint64_t atime_ns = 0;
  uint64_t mtime_ns = 0;
  uint64_t ctime_ns = 0;
  uint64_t generation = 0;
};

struct NamedEntry {
  std::string name;
  InodeNum ino;
  FileType type;
};

struct FormatOptions {
  // Journal size in blocks (0 = auto: num_blocks/8, clamped). Format fails
  // when the log cannot hold the record of one op.
  uint64_t journal_blocks = 0;
};

class Ufs : public metrics::StatsProvider {
 public:
  // Writes a fresh empty file system (with a root directory) to `device`.
  static Result<std::unique_ptr<Ufs>> Format(BlockDevice* device,
                                             Clock* clock = &DefaultClock(),
                                             const FormatOptions& options = {});

  // Mounts an existing file system.
  static Result<std::unique_ptr<Ufs>> Mount(BlockDevice* device,
                                            Clock* clock = &DefaultClock());

  ~Ufs();

  // --- directory operations ---
  Result<InodeNum> Lookup(InodeNum dir, std::string_view name);
  Result<InodeNum> Create(InodeNum dir, std::string_view name, FileType type);
  Status Remove(InodeNum dir, std::string_view name);
  // Hard link: binds `name` in `dir` to existing inode `target`.
  Status Link(InodeNum dir, std::string_view name, InodeNum target);
  Status Rename(InodeNum src_dir, std::string_view src_name, InodeNum dst_dir,
                std::string_view dst_name);
  Result<std::vector<NamedEntry>> ReadDir(InodeNum dir);

  // --- file data ---
  // Byte-granularity read; returns bytes read (short at EOF).
  Result<size_t> Read(InodeNum ino, uint64_t offset, MutableByteSpan out);
  // Byte-granularity write; extends the file as needed.
  Result<size_t> Write(InodeNum ino, uint64_t offset, ByteSpan data);
  Status Truncate(InodeNum ino, uint64_t new_size);

  // Block-granularity access for the pager path: reads/writes one
  // kBlockSize-sized file block. Reads of holes return zeros; block writes
  // never extend inode size (callers manage length via SetSize).
  Status ReadFileBlock(InodeNum ino, uint64_t file_block, MutableByteSpan out);
  Status WriteFileBlock(InodeNum ino, uint64_t file_block, ByteSpan data);

  // --- attributes ---
  Result<InodeAttrs> GetAttrs(InodeNum ino);
  Status SetTimes(InodeNum ino, uint64_t atime_ns, uint64_t mtime_ns);
  Status SetSize(InodeNum ino, uint64_t size);

  // Makes all dirty state (data, inodes, bitmaps, superblock) durable and
  // returns once it is. The whole sync is one atomic transaction, which
  // Journal::Commit carries out: ordered data (every fresh block,
  // overwritten file data included, since an overwrite moves) is written
  // in place and flushed, then the log record is appended and flushed. The
  // record logs each block that the live log already holds as the 128-byte
  // chunks that changed since, and every other block whole. Logged blocks
  // stay in the journal's memory until a checkpoint writes them home (when
  // the log needs space, or at unmount). A crash at any device write
  // leaves the file system either before or after the transaction. With
  // nothing pending, Sync touches no device: the last commit's flush
  // already made everything durable.
  Status Sync();

  // Marks the instance dead: the destructor skips its unmount sync and
  // checkpoint. For crash tests that abandon a file system on a failed
  // device.
  void Abandon();

  // Id of the last journal transaction known durable. It also advances
  // without a Sync: an op first commits the open transaction when it could
  // otherwise outgrow the log. After a crash and remount this identifies
  // which commit's state the recovered image carries.
  uint64_t last_committed_tx() const;

  const Superblock& superblock() const { return sb_; }
  // --- StatsProvider ---
  std::string stats_prefix() const override { return "ufs"; }
  void CollectStats(const metrics::StatsEmitter& emit) const override;

  uint64_t FreeBlocks() const;
  uint64_t FreeInodes() const;

 private:
  Ufs(BlockDevice* device, Clock* clock);

  // All private methods assume mutex_ is held.
  Result<Inode*> GetInode(InodeNum ino);
  Status WriteInode(InodeNum ino);
  Result<InodeNum> AllocInode(FileType type);
  Status FreeInode(InodeNum ino);
  // Allocates the free data block nearest the log: the highest block below
  // jnl_start that is free now, was free at the last commit and that no
  // live log record names, so the commit writes it in place as ordered
  // data, a short seek from the record. Only when no such block is left
  // does it take the highest free one, which the commit then journals.
  Result<BlockNum> AllocBlock();
  Status FreeBlock(BlockNum block);
  // kCorrupted unless `block` is an allocated block of the data area.
  // Indirect blocks and bitmaps carry no CRC, so a pointer read from them
  // may name any block: one is checked before it is followed or freed.
  Status CheckDataBlock(BlockNum block) const;

  // Maps file block index -> device block. With allocate=false, returns 0
  // for holes. With allocate=true, returns a block the caller must
  // overwrite whole in the same op: it allocates one for a hole, and moves
  // a data block that the open transaction has not written to a fresh one,
  // so the committed bytes stay put until the commit lands. A fresh data
  // block is not zeroed first; a fresh pointer block is. Pointer blocks
  // never move, and one the open transaction holds is changed in place.
  // Directories use allocate=true only to grow.
  Result<BlockNum> MapFileBlock(Inode* inode, uint64_t file_block,
                                bool allocate);
  // Frees all blocks mapping file indices >= first_block.
  Status FreeBlocksFrom(Inode* inode, uint64_t first_block);
  // Frees what `*slot` maps at indices >= `begin`, counted from the first
  // file index the slot covers. Depth 0 is a data block, 1 a pointer block
  // and 2 a double-indirect block. A pointer block that keeps a pointer is
  // written back; one the cut leaves wholly alone is not even read.
  Status TrimSlot(uint64_t* slot, int depth, uint64_t begin);
  // SetSize's and Truncate's body: frees the blocks past `size` and zeroes
  // the rest of the new last block, so re-extension reads zeros.
  Status Resize(InodeNum ino, uint64_t size, bool touch_mtime);

  // Device access. Writes land in `pending_` (the open transaction), over
  // the copy it already holds if any; reads see pending content first, then
  // the journal's live copies; nothing touches the device between commits
  // except cache-miss reads.
  Status ReadDeviceBlock(BlockNum block, MutableByteSpan out);
  Status WriteDeviceBlock(BlockNum block, ByteSpan data);

  // Commits the open transaction if an op adding up to `homes` blocks could
  // take it past tx_limit_. Ops call it before they change anything.
  Status MakeRoom(uint64_t homes);
  // Sync's work: partitions `pending_` into freshly-allocated blocks that
  // no live log record names (written in place, "ordered" mode) and
  // everything else (journaled), then hands both to Journal::Commit.
  Status Commit();
  // True when `block` was allocated at the last committed transaction, so
  // an in-place write would be visible after a crash.
  bool CommittedBitSet(BlockNum block) const;
  void FinishJournalEpoch();

  // Directory helpers.
  // A directory slot that FindDirSlot accepted: its device block, that
  // block's bytes, and the slot's index and entry. dev_block is 0 when no
  // slot was accepted.
  struct DirSlot {
    BlockNum dev_block = 0;
    Buffer block;
    uint32_t index = 0;
    DirEntry entry;
  };
  // Walks the directory's slots in order and returns the first that
  // `accept` takes. An error from `accept` ends the walk and is returned.
  Result<DirSlot> FindDirSlot(
      Inode* dir_inode,
      const std::function<Result<bool>(const DirEntry&)>& accept);
  Result<InodeNum> DirLookup(Inode* dir_inode, std::string_view name);
  Status DirAddEntry(InodeNum dir_ino, Inode* dir_inode, std::string_view name,
                     InodeNum target);
  Status DirRemoveEntry(Inode* dir_inode, std::string_view name);
  Result<bool> DirIsEmpty(Inode* dir_inode);

  struct CachedInode {
    Inode inode;
    bool dirty = false;
  };

  BlockDevice* device_;
  Clock* clock_;
  mutable std::mutex mutex_;
  Superblock sb_;
  Bitmap inode_bitmap_;
  Bitmap data_bitmap_;
  std::map<InodeNum, CachedInode> inode_cache_;
  // Directory-entry cache: with the inode cache it lets the disk layer
  // "handle open and stat operations without requiring disk I/Os" (paper
  // Table 2 commentary).
  std::map<std::pair<InodeNum, std::string>, InodeNum> dirent_cache_;
  uint64_t next_generation_ = 1;
  mutable uint64_t cache_hits_ = 0;
  mutable uint64_t cache_misses_ = 0;

  // Journal state.
  // Set after Abandon, and until Format or Mount returns the instance: the
  // destructor then writes nothing.
  bool abandoned_ = false;
  std::unique_ptr<Journal> journal_;
  // The most blocks the open transaction may hold, so that its record, with
  // the superblock and every bitmap block, fits an empty log as full images.
  uint64_t tx_limit_ = 0;
  // The open transaction: every block written since the last commit. With
  // the dirty inodes' table blocks, MakeRoom keeps it within tx_limit_, so
  // its commit fits after at most one checkpoint.
  std::map<BlockNum, Buffer> pending_;
  std::vector<uint8_t> committed_bits_;  // data bitmap at the last commit
  uint64_t last_committed_tx_ = 0;
  uint64_t journal_commits_ = 0;
};

}  // namespace springfs::ufs

#endif  // SPRINGFS_UFS_UFS_H_
