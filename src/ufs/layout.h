// On-disk layout of the UFS-like base file system (paper reference [14]).
//
// The disk layer of Spring SFS implements "an on-disk UFS compatible file
// system" (section 6.2). This module defines a from-scratch equivalent:
//
//   block 0                  superblock
//   [ibm_start, +ibm_blocks) inode allocation bitmap
//   [dbm_start, +dbm_blocks) data-block allocation bitmap
//   [itb_start, +itb_blocks) inode table (kInodesPerBlock per block)
//   [data_start, jnl_start)  data blocks
//   [jnl_start, num_blocks)  write-ahead journal
//
// The journal is pinned to the *end* of the device so that crash recovery
// can locate its commit record (always the last device block) without a
// readable superblock — a torn superblock write is itself one of the
// failures the journal repairs. Data blocks are allocated downward from the
// log, so live file data stays packed just below it, and a commit's
// in-place data writes and its log record are a short seek apart.
//
// Inodes hold 12 direct pointers plus single- and double-indirect blocks,
// like classic UFS/FFS. Directories are files containing fixed-size entries.
// All multi-byte integers are little-endian on disk; superblock and inodes
// carry CRCs so the fsck-style checker can detect corruption.

#ifndef SPRINGFS_UFS_LAYOUT_H_
#define SPRINGFS_UFS_LAYOUT_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "src/support/bytes.h"
#include "src/support/result.h"

namespace springfs::ufs {

inline constexpr uint32_t kMagic = 0x53465355;  // "USFS"
inline constexpr uint32_t kVersion = 1;
inline constexpr uint32_t kBlockSize = 4096;
inline constexpr uint32_t kInodeSize = 256;
inline constexpr uint32_t kInodesPerBlock = kBlockSize / kInodeSize;
inline constexpr uint32_t kNumDirect = 12;
inline constexpr uint32_t kPtrsPerBlock = kBlockSize / 8;
inline constexpr uint32_t kDirEntrySize = 64;
inline constexpr uint32_t kMaxNameLen = kDirEntrySize - 8 - 2;  // 54
inline constexpr uint32_t kDirEntriesPerBlock = kBlockSize / kDirEntrySize;

using InodeNum = uint64_t;
inline constexpr InodeNum kInvalidInode = 0;
inline constexpr InodeNum kRootInode = 1;

enum class FileType : uint32_t {
  kFree = 0,
  kRegular = 1,
  kDirectory = 2,
  kSymlink = 3,
};

struct Superblock {
  uint32_t magic = kMagic;
  uint32_t version = kVersion;
  uint64_t num_blocks = 0;
  uint64_t num_inodes = 0;
  uint64_t ibm_start = 0, ibm_blocks = 0;
  uint64_t dbm_start = 0, dbm_blocks = 0;
  uint64_t itb_start = 0, itb_blocks = 0;
  uint64_t data_start = 0;
  uint64_t free_blocks = 0;
  uint64_t free_inodes = 0;
  uint32_t clean = 1;  // cleared while mounted dirty; checker warns if 0
  uint64_t jnl_blocks = 0;  // journal block count; Mount refuses 0
  uint64_t last_tx = 0;     // id of the last committed journal transaction

  // First journal block; it bounds the data area from above.
  uint64_t jnl_start() const { return num_blocks - jnl_blocks; }

  void Encode(MutableByteSpan block) const;
  static Result<Superblock> Decode(ByteSpan block);
};

struct Inode {
  FileType type = FileType::kFree;
  uint32_t nlink = 0;
  uint64_t size = 0;
  uint64_t atime_ns = 0;
  uint64_t mtime_ns = 0;
  uint64_t ctime_ns = 0;
  uint64_t direct[kNumDirect] = {0};
  uint64_t indirect = 0;
  uint64_t dindirect = 0;
  uint64_t generation = 0;

  bool IsFree() const { return type == FileType::kFree; }

  // Encodes into a kInodeSize slot.
  void Encode(MutableByteSpan slot) const;
  static Result<Inode> Decode(ByteSpan slot);
};

struct DirEntry {
  InodeNum ino = kInvalidInode;  // kInvalidInode marks an empty slot
  std::string name;

  void Encode(MutableByteSpan slot) const;
  static DirEntry Decode(ByteSpan slot);
};

// Geometry derived from a device size at format time.
struct Geometry {
  uint64_t num_blocks;
  uint64_t num_inodes;
  uint64_t ibm_start, ibm_blocks;
  uint64_t dbm_start, dbm_blocks;
  uint64_t itb_start, itb_blocks;
  uint64_t data_start;
  uint64_t jnl_start, jnl_blocks;  // journal at the device tail (may be 0)

  // Computes a layout: roughly one inode per 4 data blocks unless
  // overridden; `jnl_blocks` tail blocks are reserved for the journal.
  static Result<Geometry> Compute(uint64_t num_blocks, uint64_t num_inodes = 0,
                                  uint64_t jnl_blocks = 0);
};

}  // namespace springfs::ufs

#endif  // SPRINGFS_UFS_LAYOUT_H_
