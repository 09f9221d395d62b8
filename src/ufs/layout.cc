#include "src/ufs/layout.h"

#include "src/support/logging.h"

#include <algorithm>

namespace springfs::ufs {
namespace {

// Superblock field offsets.
constexpr size_t kSbCrcOffset = 120;

uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

}  // namespace

void Superblock::Encode(MutableByteSpan block) const {
  SPRINGFS_CHECK(block.size() >= kBlockSize);
  std::memset(block.data(), 0, kBlockSize);
  uint8_t* p = block.data();
  StoreLe<uint32_t>(p + 0, magic);
  StoreLe<uint32_t>(p + 4, version);
  StoreLe<uint64_t>(p + 8, num_blocks);
  StoreLe<uint64_t>(p + 16, num_inodes);
  StoreLe<uint64_t>(p + 24, ibm_start);
  StoreLe<uint64_t>(p + 32, ibm_blocks);
  StoreLe<uint64_t>(p + 40, dbm_start);
  StoreLe<uint64_t>(p + 48, dbm_blocks);
  StoreLe<uint64_t>(p + 56, itb_start);
  StoreLe<uint64_t>(p + 64, itb_blocks);
  StoreLe<uint64_t>(p + 72, data_start);
  StoreLe<uint64_t>(p + 80, free_blocks);
  StoreLe<uint64_t>(p + 88, free_inodes);
  StoreLe<uint32_t>(p + 96, clean);
  StoreLe<uint64_t>(p + 100, jnl_blocks);
  StoreLe<uint64_t>(p + 108, last_tx);
  uint32_t crc = Crc32(ByteSpan(p, kSbCrcOffset));
  StoreLe<uint32_t>(p + kSbCrcOffset, crc);
}

Result<Superblock> Superblock::Decode(ByteSpan block) {
  if (block.size() < kBlockSize) {
    return ErrInvalidArgument("superblock span too small");
  }
  const uint8_t* p = block.data();
  uint32_t stored_crc = LoadLe<uint32_t>(p + kSbCrcOffset);
  uint32_t computed_crc = Crc32(ByteSpan(p, kSbCrcOffset));
  if (stored_crc != computed_crc) {
    return ErrCorrupted("superblock CRC mismatch");
  }
  Superblock sb;
  sb.magic = LoadLe<uint32_t>(p + 0);
  if (sb.magic != kMagic) {
    return ErrCorrupted("bad superblock magic");
  }
  sb.version = LoadLe<uint32_t>(p + 4);
  if (sb.version != kVersion) {
    return ErrCorrupted("unsupported superblock version");
  }
  sb.num_blocks = LoadLe<uint64_t>(p + 8);
  sb.num_inodes = LoadLe<uint64_t>(p + 16);
  sb.ibm_start = LoadLe<uint64_t>(p + 24);
  sb.ibm_blocks = LoadLe<uint64_t>(p + 32);
  sb.dbm_start = LoadLe<uint64_t>(p + 40);
  sb.dbm_blocks = LoadLe<uint64_t>(p + 48);
  sb.itb_start = LoadLe<uint64_t>(p + 56);
  sb.itb_blocks = LoadLe<uint64_t>(p + 64);
  sb.data_start = LoadLe<uint64_t>(p + 72);
  sb.free_blocks = LoadLe<uint64_t>(p + 80);
  sb.free_inodes = LoadLe<uint64_t>(p + 88);
  sb.clean = LoadLe<uint32_t>(p + 96);
  sb.jnl_blocks = LoadLe<uint64_t>(p + 100);
  sb.last_tx = LoadLe<uint64_t>(p + 108);
  if (sb.jnl_blocks >= sb.num_blocks) {
    return ErrCorrupted("journal larger than the device");
  }
  return sb;
}

namespace {
constexpr size_t kInodeCrcOffset = 160;
}  // namespace

void Inode::Encode(MutableByteSpan slot) const {
  SPRINGFS_CHECK(slot.size() >= kInodeSize);
  std::memset(slot.data(), 0, kInodeSize);
  uint8_t* p = slot.data();
  StoreLe<uint32_t>(p + 0, static_cast<uint32_t>(type));
  StoreLe<uint32_t>(p + 4, nlink);
  StoreLe<uint64_t>(p + 8, size);
  StoreLe<uint64_t>(p + 16, atime_ns);
  StoreLe<uint64_t>(p + 24, mtime_ns);
  StoreLe<uint64_t>(p + 32, ctime_ns);
  for (uint32_t i = 0; i < kNumDirect; ++i) {
    StoreLe<uint64_t>(p + 40 + 8 * i, direct[i]);
  }
  StoreLe<uint64_t>(p + 136, indirect);
  StoreLe<uint64_t>(p + 144, dindirect);
  StoreLe<uint64_t>(p + 152, generation);
  uint32_t crc = Crc32(ByteSpan(p, kInodeCrcOffset));
  StoreLe<uint32_t>(p + kInodeCrcOffset, crc);
}

Result<Inode> Inode::Decode(ByteSpan slot) {
  if (slot.size() < kInodeSize) {
    return ErrInvalidArgument("inode span too small");
  }
  const uint8_t* p = slot.data();
  uint32_t stored_crc = LoadLe<uint32_t>(p + kInodeCrcOffset);
  uint32_t computed_crc = Crc32(ByteSpan(p, kInodeCrcOffset));
  if (stored_crc != computed_crc) {
    return ErrCorrupted("inode CRC mismatch");
  }
  Inode inode;
  inode.type = static_cast<FileType>(LoadLe<uint32_t>(p + 0));
  inode.nlink = LoadLe<uint32_t>(p + 4);
  inode.size = LoadLe<uint64_t>(p + 8);
  inode.atime_ns = LoadLe<uint64_t>(p + 16);
  inode.mtime_ns = LoadLe<uint64_t>(p + 24);
  inode.ctime_ns = LoadLe<uint64_t>(p + 32);
  for (uint32_t i = 0; i < kNumDirect; ++i) {
    inode.direct[i] = LoadLe<uint64_t>(p + 40 + 8 * i);
  }
  inode.indirect = LoadLe<uint64_t>(p + 136);
  inode.dindirect = LoadLe<uint64_t>(p + 144);
  inode.generation = LoadLe<uint64_t>(p + 152);
  return inode;
}

void DirEntry::Encode(MutableByteSpan slot) const {
  SPRINGFS_CHECK(slot.size() >= kDirEntrySize);
  SPRINGFS_CHECK(name.size() <= kMaxNameLen);
  std::memset(slot.data(), 0, kDirEntrySize);
  uint8_t* p = slot.data();
  StoreLe<uint64_t>(p + 0, ino);
  StoreLe<uint16_t>(p + 8, static_cast<uint16_t>(name.size()));
  std::memcpy(p + 10, name.data(), name.size());
}

DirEntry DirEntry::Decode(ByteSpan slot) {
  DirEntry entry;
  const uint8_t* p = slot.data();
  entry.ino = LoadLe<uint64_t>(p + 0);
  uint16_t name_len = std::min<uint16_t>(LoadLe<uint16_t>(p + 8), kMaxNameLen);
  entry.name.assign(reinterpret_cast<const char*>(p + 10), name_len);
  return entry;
}

Result<Geometry> Geometry::Compute(uint64_t num_blocks, uint64_t num_inodes,
                                   uint64_t jnl_blocks) {
  if (num_blocks < 16) {
    return ErrInvalidArgument("device too small to format");
  }
  if (jnl_blocks >= num_blocks) {
    return ErrInvalidArgument("journal larger than the device");
  }
  Geometry g;
  g.num_blocks = num_blocks;
  g.num_inodes = num_inodes != 0 ? num_inodes : std::max<uint64_t>(num_blocks / 4, 16);
  g.ibm_start = 1;
  g.ibm_blocks = CeilDiv(g.num_inodes, 8ull * kBlockSize);
  g.dbm_start = g.ibm_start + g.ibm_blocks;
  g.dbm_blocks = CeilDiv(num_blocks, 8ull * kBlockSize);
  g.itb_start = g.dbm_start + g.dbm_blocks;
  g.itb_blocks = CeilDiv(g.num_inodes, kInodesPerBlock);
  g.data_start = g.itb_start + g.itb_blocks;
  g.jnl_blocks = jnl_blocks;
  g.jnl_start = num_blocks - jnl_blocks;
  if (g.data_start + 4 > g.jnl_start) {
    return ErrInvalidArgument("device too small for metadata + data");
  }
  return g;
}

}  // namespace springfs::ufs
