#include "src/ufs/ufs.h"

#include <algorithm>

#include "src/support/logging.h"

namespace springfs::ufs {
namespace {

// The most blocks one op adds to the open transaction: two inode-table
// blocks, two directory blocks, three pointer blocks and one data block.
constexpr uint64_t kOpHomes = 8;

// Ufs::tx_limit_ for a log of `jnl_blocks`; 0 when it cannot hold one op.
uint64_t TransactionLimit(uint64_t jnl_blocks, uint64_t bitmap_blocks) {
  uint64_t images = Journal::MaxImages(jnl_blocks);
  return images < 1 + bitmap_blocks + kOpHomes ? 0 : images - 1 - bitmap_blocks;
}

}  // namespace

// --- Bitmap ---

Bitmap::Bitmap(uint64_t num_bits, uint64_t disk_start)
    : num_bits_(num_bits), disk_start_(disk_start),
      bits_((num_bits + 7) / 8, 0),
      dirty_((num_bits + 8ull * kBlockSize - 1) / (8ull * kBlockSize), false) {}

bool Bitmap::Get(uint64_t bit) const {
  SPRINGFS_CHECK(bit < num_bits_);
  return (bits_[bit / 8] >> (bit % 8)) & 1;
}

void Bitmap::Set(uint64_t bit) {
  SPRINGFS_CHECK(bit < num_bits_);
  bits_[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
  dirty_[bit / (8ull * kBlockSize)] = true;
}

void Bitmap::Clear(uint64_t bit) {
  SPRINGFS_CHECK(bit < num_bits_);
  bits_[bit / 8] &= static_cast<uint8_t>(~(1u << (bit % 8)));
  dirty_[bit / (8ull * kBlockSize)] = true;
}

uint64_t Bitmap::FindClear(uint64_t hint) const {
  if (num_bits_ == 0) {
    return kInvalid;
  }
  uint64_t start = hint % num_bits_;
  for (uint64_t i = 0; i < num_bits_; ++i) {
    uint64_t bit = (start + i) % num_bits_;
    if (!Get(bit)) {
      return bit;
    }
  }
  return kInvalid;
}

uint64_t Bitmap::CountSet() const {
  uint64_t count = 0;
  for (uint64_t bit = 0; bit < num_bits_; ++bit) {
    count += Get(bit) ? 1 : 0;
  }
  return count;
}

Status Bitmap::Load(BlockDevice& dev) {
  Buffer block(kBlockSize);
  for (size_t b = 0; b < dirty_.size(); ++b) {
    RETURN_IF_ERROR(dev.ReadBlock(disk_start_ + b, block.mutable_span()));
    size_t offset = b * kBlockSize;
    size_t count = std::min<size_t>(kBlockSize, bits_.size() - offset);
    std::memcpy(bits_.data() + offset, block.data(), count);
    dirty_[b] = false;
  }
  return Status::Ok();
}

Status Bitmap::FlushDirty(const BlockWriter& write) {
  Buffer block(kBlockSize);
  for (size_t b = 0; b < dirty_.size(); ++b) {
    if (!dirty_[b]) {
      continue;
    }
    size_t offset = b * kBlockSize;
    size_t count = std::min<size_t>(kBlockSize, bits_.size() - offset);
    std::memset(block.data(), 0, kBlockSize);
    std::memcpy(block.data(), bits_.data() + offset, count);
    RETURN_IF_ERROR(write(disk_start_ + b, block.span()));
    dirty_[b] = false;
  }
  return Status::Ok();
}

// --- Ufs lifecycle ---

Ufs::Ufs(BlockDevice* device, Clock* clock) : device_(device), clock_(clock) {
  metrics::Registry::Global().RegisterProvider(this);
}

Ufs::~Ufs() {
  metrics::Registry::Global().UnregisterProvider(this);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (abandoned_) {
      return;
    }
  }
  Status st = Sync();
  if (st.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    st = Checkpoint();
  }
  if (!st.ok()) {
    LOG_ERROR << "unmount sync failed: " << st.ToString();
  }
}

Result<std::unique_ptr<Ufs>> Ufs::Format(BlockDevice* device, Clock* clock,
                                         const FormatOptions& options) {
  if (device->block_size() != kBlockSize) {
    return ErrInvalidArgument("device block size must be " +
                              std::to_string(kBlockSize));
  }
  // Journal sizing: num_blocks/8 clamped to [16, 1024] blocks, shrunk to
  // what the device can spare; an explicit size is taken as given. Either
  // way a log that cannot hold one op's record is an error.
  uint64_t jnl_blocks = options.journal_blocks;
  if (jnl_blocks == 0) {
    ASSIGN_OR_RETURN(Geometry base, Geometry::Compute(device->num_blocks()));
    jnl_blocks = std::min(std::clamp<uint64_t>(base.num_blocks / 8, 16, 1024),
                          base.num_blocks - base.data_start - 4);
  }
  ASSIGN_OR_RETURN(Geometry geo,
                   Geometry::Compute(device->num_blocks(), 0, jnl_blocks));
  uint64_t tx_limit =
      TransactionLimit(geo.jnl_blocks, geo.ibm_blocks + geo.dbm_blocks);
  if (tx_limit == 0) {
    return ErrInvalidArgument("a journal of " + std::to_string(jnl_blocks) +
                              " blocks cannot hold one op");
  }

  std::unique_ptr<Ufs> fs(new Ufs(device, clock));
  fs->tx_limit_ = tx_limit;
  fs->sb_.num_blocks = geo.num_blocks;
  fs->sb_.num_inodes = geo.num_inodes;
  fs->sb_.ibm_start = geo.ibm_start;
  fs->sb_.ibm_blocks = geo.ibm_blocks;
  fs->sb_.dbm_start = geo.dbm_start;
  fs->sb_.dbm_blocks = geo.dbm_blocks;
  fs->sb_.itb_start = geo.itb_start;
  fs->sb_.itb_blocks = geo.itb_blocks;
  fs->sb_.data_start = geo.data_start;
  fs->sb_.jnl_blocks = geo.jnl_blocks;

  fs->inode_bitmap_ = Bitmap(geo.num_inodes, geo.ibm_start);
  fs->data_bitmap_ = Bitmap(geo.num_blocks, geo.dbm_start);

  // Metadata blocks (superblock through the end of the inode table) and the
  // journal region are permanently allocated in the data bitmap.
  for (uint64_t b = 0; b < geo.data_start; ++b) {
    fs->data_bitmap_.Set(b);
  }
  for (uint64_t b = geo.jnl_start; b < geo.num_blocks; ++b) {
    fs->data_bitmap_.Set(b);
  }
  // Inode 0 is reserved so that 0 can mean "no inode".
  fs->inode_bitmap_.Set(0);

  // The superblock's home copy is first written at a checkpoint. Until then
  // block 0 must not hold an earlier file system's superblock, which a crash
  // before the first commit would leave mountable over the zeroed inode
  // table. Create zeroes the log, so no earlier record replays here; its
  // flush makes both durable before the first commit.
  Buffer zero(kBlockSize);
  RETURN_IF_ERROR(device->WriteBlock(0, zero.span()));
  ASSIGN_OR_RETURN(fs->journal_, Journal::Create(device, geo.jnl_start));
  // Zero the inode table so undecodable garbage never looks like an inode.
  for (uint64_t b = 0; b < geo.itb_blocks; ++b) {
    RETURN_IF_ERROR(device->WriteBlock(geo.itb_start + b, zero.span()));
  }

  fs->sb_.free_blocks = geo.jnl_start - geo.data_start;
  fs->sb_.free_inodes = geo.num_inodes - 1;
  ByteSpan raw = fs->data_bitmap_.raw_bits();
  fs->committed_bits_.assign(raw.begin(), raw.end());

  // Root directory.
  {
    std::lock_guard<std::mutex> lock(fs->mutex_);
    ASSIGN_OR_RETURN(InodeNum root, fs->AllocInode(FileType::kDirectory));
    SPRINGFS_CHECK(root == kRootInode);
    ASSIGN_OR_RETURN(Inode * inode, fs->GetInode(root));
    inode->nlink = 1;
    RETURN_IF_ERROR(fs->WriteInode(root));
  }

  RETURN_IF_ERROR(fs->Sync());
  return fs;
}

Result<std::unique_ptr<Ufs>> Ufs::Mount(BlockDevice* device, Clock* clock) {
  if (device->block_size() != kBlockSize) {
    return ErrInvalidArgument("device block size must be " +
                              std::to_string(kBlockSize));
  }
  // Redo every live transaction before trusting anything on the device:
  // the superblock's home copy is written only at checkpoints (Format
  // leaves it zeroed, and a crash can tear it).
  ASSIGN_OR_RETURN(ReplayReport replayed, Journal::Replay(device));
  if (replayed.blocks_replayed > 0) {
    LOG_INFO << "journal replay: " << replayed.transactions
             << " transactions up to tx " << replayed.tx_id << " ("
             << replayed.blocks_replayed << " blocks)";
  }
  Buffer block(kBlockSize);
  RETURN_IF_ERROR(device->ReadBlock(0, block.mutable_span()));
  ASSIGN_OR_RETURN(Superblock sb, Superblock::Decode(block.span()));
  if (sb.num_blocks > device->num_blocks()) {
    return ErrCorrupted("superblock claims more blocks than the device has");
  }
  uint64_t tx_limit =
      TransactionLimit(sb.jnl_blocks, sb.ibm_blocks + sb.dbm_blocks);
  if (tx_limit == 0 || sb.data_start + 1 > sb.jnl_start()) {
    return ErrCorrupted("superblock names no journal that holds one op");
  }

  std::unique_ptr<Ufs> fs(new Ufs(device, clock));
  fs->sb_ = sb;
  fs->inode_bitmap_ = Bitmap(sb.num_inodes, sb.ibm_start);
  fs->data_bitmap_ = Bitmap(sb.num_blocks, sb.dbm_start);
  RETURN_IF_ERROR(fs->inode_bitmap_.Load(*device));
  RETURN_IF_ERROR(fs->data_bitmap_.Load(*device));
  // The replayed log is all home now; start a new one.
  ASSIGN_OR_RETURN(fs->journal_,
                   Journal::Open(device, sb.jnl_start(), sb.last_tx + 1));
  ByteSpan raw = fs->data_bitmap_.raw_bits();
  fs->committed_bits_.assign(raw.begin(), raw.end());
  fs->tx_limit_ = tx_limit;
  fs->last_committed_tx_ = sb.last_tx;

  // Find the largest generation in use so new inodes stay unique. A linear
  // scan of allocated inodes at mount time stands in for a mount log.
  {
    std::lock_guard<std::mutex> lock(fs->mutex_);
    for (InodeNum ino = 1; ino < sb.num_inodes; ++ino) {
      if (!fs->inode_bitmap_.Get(ino)) {
        continue;
      }
      ASSIGN_OR_RETURN(Inode * inode, fs->GetInode(ino));
      fs->next_generation_ =
          std::max(fs->next_generation_, inode->generation + 1);
    }
  }
  return fs;
}

// --- inode cache and allocation ---

Result<Inode*> Ufs::GetInode(InodeNum ino) {
  if (ino == kInvalidInode || ino >= sb_.num_inodes) {
    return ErrInvalidArgument("bad inode number " + std::to_string(ino));
  }
  auto it = inode_cache_.find(ino);
  if (it != inode_cache_.end()) {
    ++cache_hits_;
    return &it->second.inode;
  }
  ++cache_misses_;
  if (!inode_bitmap_.Get(ino)) {
    return ErrStale("inode " + std::to_string(ino) + " is not allocated");
  }
  Buffer block(kBlockSize);
  BlockNum itb_block = sb_.itb_start + ino / kInodesPerBlock;
  RETURN_IF_ERROR(ReadDeviceBlock(itb_block, block.mutable_span()));
  size_t slot = (ino % kInodesPerBlock) * kInodeSize;
  ASSIGN_OR_RETURN(Inode inode, Inode::Decode(block.subspan(slot, kInodeSize)));
  auto [pos, inserted] = inode_cache_.emplace(ino, CachedInode{inode, false});
  SPRINGFS_CHECK(inserted);
  return &pos->second.inode;
}

Status Ufs::WriteInode(InodeNum ino) {
  auto it = inode_cache_.find(ino);
  SPRINGFS_CHECK(it != inode_cache_.end());
  it->second.dirty = true;
  return Status::Ok();
}

Result<InodeNum> Ufs::AllocInode(FileType type) {
  uint64_t bit = inode_bitmap_.FindClear(1);
  if (bit == Bitmap::kInvalid || bit == 0) {
    return ErrNoSpace("out of inodes");
  }
  inode_bitmap_.Set(bit);
  --sb_.free_inodes;
  Inode inode;
  inode.type = type;
  inode.nlink = 0;
  uint64_t now = clock_->Now();
  inode.atime_ns = inode.mtime_ns = inode.ctime_ns = now;
  inode.generation = next_generation_++;
  inode_cache_[bit] = CachedInode{inode, true};
  return InodeNum{bit};
}

Status Ufs::FreeInode(InodeNum ino) {
  ASSIGN_OR_RETURN(Inode * inode, GetInode(ino));
  RETURN_IF_ERROR(FreeBlocksFrom(inode, 0));
  inode->type = FileType::kFree;
  inode->size = 0;
  RETURN_IF_ERROR(WriteInode(ino));
  // Write the freed inode through to disk now, then drop it from the cache:
  // a stale cached copy must not resurrect after the number is reused.
  Buffer block(kBlockSize);
  BlockNum itb_block = sb_.itb_start + ino / kInodesPerBlock;
  RETURN_IF_ERROR(ReadDeviceBlock(itb_block, block.mutable_span()));
  size_t slot = (ino % kInodesPerBlock) * kInodeSize;
  inode->Encode(block.mutable_span().subspan(slot, kInodeSize));
  RETURN_IF_ERROR(WriteDeviceBlock(itb_block, block.span()));
  inode_cache_.erase(ino);
  inode_bitmap_.Clear(ino);
  ++sb_.free_inodes;
  return Status::Ok();
}

Result<BlockNum> Ufs::AllocBlock() {
  uint64_t bit = data_bitmap_.FindClear(std::max(alloc_rotor_, sb_.data_start));
  if (bit == Bitmap::kInvalid || bit < sb_.data_start) {
    return ErrNoSpace("out of data blocks");
  }
  data_bitmap_.Set(bit);
  alloc_rotor_ = bit + 1;
  --sb_.free_blocks;
  return BlockNum{bit};
}

Status Ufs::FreeBlock(BlockNum block) {
  SPRINGFS_CHECK(block >= sb_.data_start && block < sb_.num_blocks);
  SPRINGFS_CHECK(data_bitmap_.Get(block));
  data_bitmap_.Clear(block);
  ++sb_.free_blocks;
  return Status::Ok();
}

Status Ufs::ReadDeviceBlock(BlockNum block, MutableByteSpan out) {
  const Buffer* held = nullptr;
  if (auto it = pending_.find(block); it != pending_.end()) {
    held = &it->second;
  } else if (auto r = retained_.find(block); r != retained_.end()) {
    held = &r->second;
  }
  if (held == nullptr) {
    return device_->ReadBlock(block, out);
  }
  SPRINGFS_CHECK(out.size() >= kBlockSize);
  std::memcpy(out.data(), held->data(), kBlockSize);
  return Status::Ok();
}

Status Ufs::WriteDeviceBlock(BlockNum block, ByteSpan data) {
  SPRINGFS_CHECK(data.size() == kBlockSize);
  pending_.insert_or_assign(block, Buffer(data));
  return Status::Ok();
}

// --- block mapping ---

Result<BlockNum> Ufs::MapFileBlock(Inode* inode, uint64_t file_block,
                                   bool allocate) {
  // With `allocate`, points `slot` at a block the op may overwrite: a fresh
  // zeroed one for a hole and, for a leaf data slot, a fresh one in place
  // of a block the open transaction has not written (durable state
  // references it, so it keeps its bytes until the commit lands). That
  // block is freed first, so a full device hands it back and the commit
  // journals it.
  auto place = [&](uint64_t* slot, bool leaf) -> Status {
    bool move = leaf && *slot != 0 && pending_.count(*slot) == 0;
    if (!allocate || (*slot != 0 && !move)) {
      return Status::Ok();
    }
    if (move) {
      RETURN_IF_ERROR(FreeBlock(*slot));
    }
    ASSIGN_OR_RETURN(BlockNum fresh, AllocBlock());
    Buffer zero(kBlockSize);
    RETURN_IF_ERROR(WriteDeviceBlock(fresh, zero.span()));
    *slot = fresh;
    return Status::Ok();
  };

  // Direct pointers.
  if (file_block < kNumDirect) {
    RETURN_IF_ERROR(place(&inode->direct[file_block], /*leaf=*/true));
    return BlockNum{inode->direct[file_block]};
  }
  file_block -= kNumDirect;

  // Follows one pointer inside a pointer block, placing the pointer block
  // itself and then the pointer.
  auto step = [&](uint64_t* slot_holder, uint64_t index,
                  bool leaf) -> Result<BlockNum> {
    RETURN_IF_ERROR(place(slot_holder, /*leaf=*/false));
    if (*slot_holder == 0) {
      return BlockNum{0};
    }
    Buffer ptr_block(kBlockSize);
    RETURN_IF_ERROR(ReadDeviceBlock(*slot_holder, ptr_block.mutable_span()));
    uint64_t target = LoadLe<uint64_t>(ptr_block.data() + 8 * index);
    uint64_t placed = target;
    RETURN_IF_ERROR(place(&placed, leaf));
    if (placed != target) {
      StoreLe<uint64_t>(ptr_block.data() + 8 * index, placed);
      RETURN_IF_ERROR(WriteDeviceBlock(*slot_holder, ptr_block.span()));
    }
    return BlockNum{placed};
  };

  // Single indirect.
  if (file_block < kPtrsPerBlock) {
    return step(&inode->indirect, file_block, /*leaf=*/true);
  }
  file_block -= kPtrsPerBlock;

  // Double indirect.
  if (file_block < static_cast<uint64_t>(kPtrsPerBlock) * kPtrsPerBlock) {
    uint64_t outer = file_block / kPtrsPerBlock;
    uint64_t inner = file_block % kPtrsPerBlock;
    // First hop: find (or create) the second-level pointer block.
    ASSIGN_OR_RETURN(BlockNum level2,
                     step(&inode->dindirect, outer, /*leaf=*/false));
    if (level2 == 0) {
      return BlockNum{0};
    }
    uint64_t level2_holder = level2;
    return step(&level2_holder, inner, /*leaf=*/true);
  }
  return ErrOutOfRange("file offset beyond maximum file size");
}

Status Ufs::FreeBlocksFrom(Inode* inode, uint64_t first_block) {
  // Walks the mapped blocks from `first_block` upward and frees them,
  // releasing pointer blocks that become fully unused.
  auto free_if_set = [&](uint64_t* slot) -> Status {
    if (*slot != 0) {
      RETURN_IF_ERROR(FreeBlock(*slot));
      *slot = 0;
    }
    return Status::Ok();
  };

  for (uint64_t i = first_block; i < kNumDirect; ++i) {
    RETURN_IF_ERROR(free_if_set(&inode->direct[i]));
  }

  // Single indirect range: file blocks [kNumDirect, kNumDirect + P).
  if (inode->indirect != 0) {
    uint64_t range_start = kNumDirect;
    if (first_block < range_start + kPtrsPerBlock) {
      uint64_t begin =
          first_block > range_start ? first_block - range_start : 0;
      Buffer ptr_block(kBlockSize);
      RETURN_IF_ERROR(ReadDeviceBlock(inode->indirect, ptr_block.mutable_span()));
      bool any_left = false;
      for (uint64_t i = 0; i < kPtrsPerBlock; ++i) {
        uint64_t target = LoadLe<uint64_t>(ptr_block.data() + 8 * i);
        if (target == 0) {
          continue;
        }
        if (i >= begin) {
          RETURN_IF_ERROR(FreeBlock(target));
          StoreLe<uint64_t>(ptr_block.data() + 8 * i, 0);
        } else {
          any_left = true;
        }
      }
      if (!any_left) {
        RETURN_IF_ERROR(free_if_set(&inode->indirect));
      } else {
        RETURN_IF_ERROR(WriteDeviceBlock(inode->indirect, ptr_block.span()));
      }
    }
  }

  // Double indirect range: file blocks [kNumDirect + P, kNumDirect + P + P*P).
  if (inode->dindirect != 0) {
    uint64_t range_start = kNumDirect + kPtrsPerBlock;
    Buffer outer_block(kBlockSize);
    RETURN_IF_ERROR(ReadDeviceBlock(inode->dindirect, outer_block.mutable_span()));
    bool outer_left = false;
    for (uint64_t o = 0; o < kPtrsPerBlock; ++o) {
      uint64_t level2 = LoadLe<uint64_t>(outer_block.data() + 8 * o);
      if (level2 == 0) {
        continue;
      }
      uint64_t seg_start = range_start + o * kPtrsPerBlock;
      if (first_block >= seg_start + kPtrsPerBlock) {
        outer_left = true;
        continue;
      }
      uint64_t begin = first_block > seg_start ? first_block - seg_start : 0;
      Buffer inner_block(kBlockSize);
      RETURN_IF_ERROR(ReadDeviceBlock(level2, inner_block.mutable_span()));
      bool inner_left = false;
      for (uint64_t i = 0; i < kPtrsPerBlock; ++i) {
        uint64_t target = LoadLe<uint64_t>(inner_block.data() + 8 * i);
        if (target == 0) {
          continue;
        }
        if (i >= begin) {
          RETURN_IF_ERROR(FreeBlock(target));
          StoreLe<uint64_t>(inner_block.data() + 8 * i, 0);
        } else {
          inner_left = true;
        }
      }
      if (!inner_left) {
        RETURN_IF_ERROR(FreeBlock(level2));
        StoreLe<uint64_t>(outer_block.data() + 8 * o, 0);
      } else {
        RETURN_IF_ERROR(WriteDeviceBlock(level2, inner_block.span()));
        outer_left = true;
      }
    }
    if (!outer_left) {
      RETURN_IF_ERROR(free_if_set(&inode->dindirect));
    } else {
      RETURN_IF_ERROR(WriteDeviceBlock(inode->dindirect, outer_block.span()));
    }
  }
  return Status::Ok();
}

// --- directories ---

Result<InodeNum> Ufs::DirLookup(Inode* dir_inode, std::string_view name,
                                uint64_t* slot_block, uint32_t* slot_index) {
  uint64_t num_dir_blocks = (dir_inode->size + kBlockSize - 1) / kBlockSize;
  Buffer block(kBlockSize);
  for (uint64_t b = 0; b < num_dir_blocks; ++b) {
    ASSIGN_OR_RETURN(BlockNum dev_block,
                     MapFileBlock(dir_inode, b, /*allocate=*/false));
    if (dev_block == 0) {
      continue;
    }
    RETURN_IF_ERROR(ReadDeviceBlock(dev_block, block.mutable_span()));
    for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
      DirEntry entry = DirEntry::Decode(block.subspan(e * kDirEntrySize,
                                                      kDirEntrySize));
      if (entry.ino != kInvalidInode && entry.name == name) {
        if (slot_block) {
          *slot_block = b;
        }
        if (slot_index) {
          *slot_index = e;
        }
        return entry.ino;
      }
    }
  }
  return ErrNotFound("no entry '" + std::string(name) + "'");
}

Status Ufs::DirAddEntry(InodeNum dir_ino, Inode* dir_inode,
                        std::string_view name, InodeNum target) {
  if (name.empty() || name.size() > kMaxNameLen) {
    return ErrInvalidArgument("bad name length");
  }
  if (name.find('/') != std::string_view::npos) {
    return ErrInvalidArgument("name contains '/'");
  }
  uint64_t num_dir_blocks = (dir_inode->size + kBlockSize - 1) / kBlockSize;
  Buffer block(kBlockSize);
  // Reuse the first free slot in an existing block.
  for (uint64_t b = 0; b < num_dir_blocks; ++b) {
    ASSIGN_OR_RETURN(BlockNum dev_block,
                     MapFileBlock(dir_inode, b, /*allocate=*/false));
    if (dev_block == 0) {
      continue;
    }
    RETURN_IF_ERROR(ReadDeviceBlock(dev_block, block.mutable_span()));
    for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
      DirEntry entry = DirEntry::Decode(block.subspan(e * kDirEntrySize,
                                                      kDirEntrySize));
      if (entry.ino == kInvalidInode) {
        DirEntry fresh{target, std::string(name)};
        fresh.Encode(block.mutable_span().subspan(e * kDirEntrySize,
                                                  kDirEntrySize));
        return WriteDeviceBlock(dev_block, block.span());
      }
    }
  }
  // All slots full: grow the directory by one block. The inode goes back
  // even if that fails: MapFileBlock may have set a pointer in it.
  Result<BlockNum> dev_block =
      MapFileBlock(dir_inode, num_dir_blocks, /*allocate=*/true);
  RETURN_IF_ERROR(WriteInode(dir_ino));
  RETURN_IF_ERROR(dev_block.status());
  std::memset(block.data(), 0, kBlockSize);
  DirEntry fresh{target, std::string(name)};
  fresh.Encode(block.mutable_span().subspan(0, kDirEntrySize));
  dir_inode->size = (num_dir_blocks + 1) * kBlockSize;
  dir_inode->mtime_ns = clock_->Now();
  return WriteDeviceBlock(*dev_block, block.span());
}

Status Ufs::DirRemoveEntry(Inode* dir_inode, std::string_view name) {
  uint64_t num_dir_blocks = (dir_inode->size + kBlockSize - 1) / kBlockSize;
  Buffer block(kBlockSize);
  for (uint64_t b = 0; b < num_dir_blocks; ++b) {
    ASSIGN_OR_RETURN(BlockNum dev_block,
                     MapFileBlock(dir_inode, b, /*allocate=*/false));
    if (dev_block == 0) {
      continue;
    }
    RETURN_IF_ERROR(ReadDeviceBlock(dev_block, block.mutable_span()));
    for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
      DirEntry entry = DirEntry::Decode(block.subspan(e * kDirEntrySize,
                                                      kDirEntrySize));
      if (entry.ino != kInvalidInode && entry.name == name) {
        DirEntry empty;
        empty.Encode(block.mutable_span().subspan(e * kDirEntrySize,
                                                  kDirEntrySize));
        return WriteDeviceBlock(dev_block, block.span());
      }
    }
  }
  return ErrNotFound("no entry '" + std::string(name) + "'");
}

Result<bool> Ufs::DirIsEmpty(Inode* dir_inode) {
  uint64_t num_dir_blocks = (dir_inode->size + kBlockSize - 1) / kBlockSize;
  Buffer block(kBlockSize);
  for (uint64_t b = 0; b < num_dir_blocks; ++b) {
    ASSIGN_OR_RETURN(BlockNum dev_block,
                     MapFileBlock(dir_inode, b, /*allocate=*/false));
    if (dev_block == 0) {
      continue;
    }
    RETURN_IF_ERROR(ReadDeviceBlock(dev_block, block.mutable_span()));
    for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
      DirEntry entry = DirEntry::Decode(block.subspan(e * kDirEntrySize,
                                                      kDirEntrySize));
      if (entry.ino != kInvalidInode) {
        return false;
      }
    }
  }
  return true;
}

Result<InodeNum> Ufs::Lookup(InodeNum dir, std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto cache_key = std::make_pair(dir, std::string(name));
  auto cached = dirent_cache_.find(cache_key);
  if (cached != dirent_cache_.end()) {
    ++cache_hits_;
    return cached->second;
  }
  ASSIGN_OR_RETURN(Inode * dir_inode, GetInode(dir));
  if (dir_inode->type != FileType::kDirectory) {
    return ErrNotADirectory("inode " + std::to_string(dir));
  }
  ASSIGN_OR_RETURN(InodeNum ino, DirLookup(dir_inode, name, nullptr, nullptr));
  dirent_cache_.emplace(std::move(cache_key), ino);
  return ino;
}

Result<InodeNum> Ufs::Create(InodeNum dir, std::string_view name,
                             FileType type) {
  if (type != FileType::kRegular && type != FileType::kDirectory &&
      type != FileType::kSymlink) {
    return ErrInvalidArgument("cannot create this file type");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  RETURN_IF_ERROR(MakeRoom(kOpHomes));
  ASSIGN_OR_RETURN(Inode * dir_inode, GetInode(dir));
  if (dir_inode->type != FileType::kDirectory) {
    return ErrNotADirectory("inode " + std::to_string(dir));
  }
  Result<InodeNum> existing = DirLookup(dir_inode, name, nullptr, nullptr);
  if (existing.ok()) {
    return ErrAlreadyExists("'" + std::string(name) + "' exists");
  }
  if (existing.code() != ErrorCode::kNotFound) {
    return existing.status();
  }
  ASSIGN_OR_RETURN(InodeNum ino, AllocInode(type));
  ASSIGN_OR_RETURN(Inode * inode, GetInode(ino));
  inode->nlink = 1;
  RETURN_IF_ERROR(WriteInode(ino));
  Status add = DirAddEntry(dir, dir_inode, name, ino);
  if (!add.ok()) {
    (void)FreeInode(ino);
    return add;
  }
  dirent_cache_[std::make_pair(dir, std::string(name))] = ino;
  return ino;
}

Status Ufs::Remove(InodeNum dir, std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  RETURN_IF_ERROR(MakeRoom(kOpHomes));
  ASSIGN_OR_RETURN(Inode * dir_inode, GetInode(dir));
  if (dir_inode->type != FileType::kDirectory) {
    return ErrNotADirectory("inode " + std::to_string(dir));
  }
  ASSIGN_OR_RETURN(InodeNum target, DirLookup(dir_inode, name, nullptr, nullptr));
  ASSIGN_OR_RETURN(Inode * inode, GetInode(target));
  if (inode->type == FileType::kDirectory) {
    ASSIGN_OR_RETURN(bool empty, DirIsEmpty(inode));
    if (!empty) {
      return ErrNotEmpty("'" + std::string(name) + "' is not empty");
    }
  }
  RETURN_IF_ERROR(DirRemoveEntry(dir_inode, name));
  dirent_cache_.erase(std::make_pair(dir, std::string(name)));
  SPRINGFS_CHECK(inode->nlink > 0);
  inode->nlink--;
  if (inode->nlink == 0) {
    return FreeInode(target);
  }
  inode->ctime_ns = clock_->Now();
  return WriteInode(target);
}

Status Ufs::Link(InodeNum dir, std::string_view name, InodeNum target) {
  std::lock_guard<std::mutex> lock(mutex_);
  RETURN_IF_ERROR(MakeRoom(kOpHomes));
  ASSIGN_OR_RETURN(Inode * dir_inode, GetInode(dir));
  if (dir_inode->type != FileType::kDirectory) {
    return ErrNotADirectory("inode " + std::to_string(dir));
  }
  ASSIGN_OR_RETURN(Inode * inode, GetInode(target));
  if (inode->type == FileType::kDirectory) {
    return ErrIsADirectory("hard links to directories are not allowed");
  }
  Result<InodeNum> existing = DirLookup(dir_inode, name, nullptr, nullptr);
  if (existing.ok()) {
    return ErrAlreadyExists("'" + std::string(name) + "' exists");
  }
  if (existing.code() != ErrorCode::kNotFound) {
    return existing.status();
  }
  RETURN_IF_ERROR(DirAddEntry(dir, dir_inode, name, target));
  dirent_cache_[std::make_pair(dir, std::string(name))] = target;
  inode->nlink++;
  inode->ctime_ns = clock_->Now();
  return WriteInode(target);
}

Status Ufs::Rename(InodeNum src_dir, std::string_view src_name,
                   InodeNum dst_dir, std::string_view dst_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  RETURN_IF_ERROR(MakeRoom(kOpHomes));
  ASSIGN_OR_RETURN(Inode * src_inode, GetInode(src_dir));
  ASSIGN_OR_RETURN(Inode * dst_inode, GetInode(dst_dir));
  if (src_inode->type != FileType::kDirectory ||
      dst_inode->type != FileType::kDirectory) {
    return ErrNotADirectory("rename directories");
  }
  ASSIGN_OR_RETURN(InodeNum target,
                   DirLookup(src_inode, src_name, nullptr, nullptr));
  Result<InodeNum> existing = DirLookup(dst_inode, dst_name, nullptr, nullptr);
  if (existing.ok()) {
    return ErrAlreadyExists("'" + std::string(dst_name) + "' exists");
  }
  if (existing.code() != ErrorCode::kNotFound) {
    return existing.status();
  }
  RETURN_IF_ERROR(DirAddEntry(dst_dir, dst_inode, dst_name, target));
  dirent_cache_.erase(std::make_pair(src_dir, std::string(src_name)));
  dirent_cache_[std::make_pair(dst_dir, std::string(dst_name))] = target;
  return DirRemoveEntry(src_inode, src_name);
}

Result<std::vector<NamedEntry>> Ufs::ReadDir(InodeNum dir) {
  std::lock_guard<std::mutex> lock(mutex_);
  ASSIGN_OR_RETURN(Inode * dir_inode, GetInode(dir));
  if (dir_inode->type != FileType::kDirectory) {
    return ErrNotADirectory("inode " + std::to_string(dir));
  }
  std::vector<NamedEntry> entries;
  uint64_t num_dir_blocks = (dir_inode->size + kBlockSize - 1) / kBlockSize;
  Buffer block(kBlockSize);
  for (uint64_t b = 0; b < num_dir_blocks; ++b) {
    ASSIGN_OR_RETURN(BlockNum dev_block,
                     MapFileBlock(dir_inode, b, /*allocate=*/false));
    if (dev_block == 0) {
      continue;
    }
    RETURN_IF_ERROR(ReadDeviceBlock(dev_block, block.mutable_span()));
    for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
      DirEntry entry = DirEntry::Decode(block.subspan(e * kDirEntrySize,
                                                      kDirEntrySize));
      if (entry.ino == kInvalidInode) {
        continue;
      }
      ASSIGN_OR_RETURN(Inode * inode, GetInode(entry.ino));
      entries.push_back(NamedEntry{entry.name, entry.ino, inode->type});
    }
  }
  return entries;
}

// --- file data ---

Result<size_t> Ufs::Read(InodeNum ino, uint64_t offset, MutableByteSpan out) {
  std::lock_guard<std::mutex> lock(mutex_);
  RETURN_IF_ERROR(MakeRoom(kOpHomes));  // the atime
  ASSIGN_OR_RETURN(Inode * inode, GetInode(ino));
  if (inode->type == FileType::kDirectory) {
    return ErrIsADirectory("read of directory inode");
  }
  if (offset >= inode->size) {
    return size_t{0};
  }
  size_t to_read = std::min<uint64_t>(out.size(), inode->size - offset);
  size_t done = 0;
  Buffer block(kBlockSize);
  while (done < to_read) {
    uint64_t file_block = (offset + done) / kBlockSize;
    size_t in_block = (offset + done) % kBlockSize;
    size_t chunk = std::min<size_t>(kBlockSize - in_block, to_read - done);
    ASSIGN_OR_RETURN(BlockNum dev_block,
                     MapFileBlock(inode, file_block, /*allocate=*/false));
    if (dev_block == 0) {
      std::memset(out.data() + done, 0, chunk);  // hole
    } else {
      RETURN_IF_ERROR(ReadDeviceBlock(dev_block, block.mutable_span()));
      std::memcpy(out.data() + done, block.data() + in_block, chunk);
    }
    done += chunk;
  }
  inode->atime_ns = clock_->Now();
  RETURN_IF_ERROR(WriteInode(ino));
  return to_read;
}

Result<size_t> Ufs::Write(InodeNum ino, uint64_t offset, ByteSpan data) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A write that fits an empty transaction reserves room for all of its
  // blocks and lands in one. A larger one lands block by block, each block
  // its own op, so the transaction may close between any two of them.
  uint64_t blocks = (offset % kBlockSize + data.size() + kBlockSize - 1) /
                    kBlockSize;
  bool whole = blocks + kOpHomes <= tx_limit_;
  RETURN_IF_ERROR(MakeRoom(whole ? blocks + kOpHomes : kOpHomes));
  ASSIGN_OR_RETURN(Inode * inode, GetInode(ino));
  if (inode->type == FileType::kDirectory) {
    return ErrIsADirectory("write of directory inode");
  }
  size_t done = 0;
  Buffer block(kBlockSize);
  auto land_next_block = [&]() -> Status {
    if (done > 0 && !whole) {
      RETURN_IF_ERROR(MakeRoom(kOpHomes));
    }
    uint64_t file_block = (offset + done) / kBlockSize;
    size_t in_block = (offset + done) % kBlockSize;
    size_t chunk = std::min<size_t>(kBlockSize - in_block, data.size() - done);
    // A partial block keeps its other bytes: read them before the block
    // moves.
    std::memset(block.data(), 0, kBlockSize);
    if (in_block != 0 || chunk != kBlockSize) {
      ASSIGN_OR_RETURN(BlockNum current,
                       MapFileBlock(inode, file_block, /*allocate=*/false));
      if (current != 0) {
        RETURN_IF_ERROR(ReadDeviceBlock(current, block.mutable_span()));
      }
    }
    ASSIGN_OR_RETURN(BlockNum dev_block,
                     MapFileBlock(inode, file_block, /*allocate=*/true));
    std::memcpy(block.data() + in_block, data.data() + done, chunk);
    RETURN_IF_ERROR(WriteDeviceBlock(dev_block, block.span()));
    done += chunk;
    // The size and pointers go back with every block: a commit before the
    // next one then holds a file that ends at the bytes that landed.
    inode->size = std::max<uint64_t>(inode->size, offset + done);
    return WriteInode(ino);
  };
  Status status;
  while (status.ok() && done < data.size()) {
    status = land_next_block();
  }
  // Also after a failure: MapFileBlock may have set a pointer in the inode.
  inode->mtime_ns = clock_->Now();
  RETURN_IF_ERROR(WriteInode(ino));
  if (done == 0 && !status.ok()) {
    return status;
  }
  return done;  // short when a block failed after others landed
}

Status Ufs::Truncate(InodeNum ino, uint64_t new_size) {
  std::lock_guard<std::mutex> lock(mutex_);
  RETURN_IF_ERROR(MakeRoom(kOpHomes));
  ASSIGN_OR_RETURN(Inode * inode, GetInode(ino));
  if (inode->type == FileType::kDirectory) {
    return ErrIsADirectory("truncate of directory inode");
  }
  if (new_size < inode->size) {
    uint64_t first_block = (new_size + kBlockSize - 1) / kBlockSize;
    RETURN_IF_ERROR(FreeBlocksFrom(inode, first_block));
    // Zero the tail of the new last block so re-extension reads zeros.
    if (new_size % kBlockSize != 0) {
      uint64_t last = new_size / kBlockSize;
      ASSIGN_OR_RETURN(BlockNum dev_block,
                       MapFileBlock(inode, last, /*allocate=*/false));
      if (dev_block != 0) {
        Buffer block(kBlockSize);
        RETURN_IF_ERROR(ReadDeviceBlock(dev_block, block.mutable_span()));
        std::memset(block.data() + new_size % kBlockSize, 0,
                    kBlockSize - new_size % kBlockSize);
        ASSIGN_OR_RETURN(dev_block,
                         MapFileBlock(inode, last, /*allocate=*/true));
        RETURN_IF_ERROR(WriteDeviceBlock(dev_block, block.span()));
      }
    }
  }
  inode->size = new_size;
  inode->mtime_ns = clock_->Now();
  return WriteInode(ino);
}

Status Ufs::ReadFileBlock(InodeNum ino, uint64_t file_block,
                          MutableByteSpan out) {
  if (out.size() != kBlockSize) {
    return ErrInvalidArgument("block read span must be one block");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ASSIGN_OR_RETURN(Inode * inode, GetInode(ino));
  ASSIGN_OR_RETURN(BlockNum dev_block,
                   MapFileBlock(inode, file_block, /*allocate=*/false));
  if (dev_block == 0) {
    std::memset(out.data(), 0, out.size());
    return Status::Ok();
  }
  return ReadDeviceBlock(dev_block, out);
}

Status Ufs::WriteFileBlock(InodeNum ino, uint64_t file_block, ByteSpan data) {
  if (data.size() != kBlockSize) {
    return ErrInvalidArgument("block write span must be one block");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  RETURN_IF_ERROR(MakeRoom(kOpHomes));
  ASSIGN_OR_RETURN(Inode * inode, GetInode(ino));
  Result<BlockNum> dev_block =
      MapFileBlock(inode, file_block, /*allocate=*/true);
  RETURN_IF_ERROR(WriteInode(ino));  // even on failure: a pointer may be set
  RETURN_IF_ERROR(dev_block.status());
  return WriteDeviceBlock(*dev_block, data);
}

// --- attributes ---

Result<InodeAttrs> Ufs::GetAttrs(InodeNum ino) {
  std::lock_guard<std::mutex> lock(mutex_);
  ASSIGN_OR_RETURN(Inode * inode, GetInode(ino));
  InodeAttrs attrs;
  attrs.type = inode->type;
  attrs.size = inode->size;
  attrs.nlink = inode->nlink;
  attrs.atime_ns = inode->atime_ns;
  attrs.mtime_ns = inode->mtime_ns;
  attrs.ctime_ns = inode->ctime_ns;
  attrs.generation = inode->generation;
  return attrs;
}

Status Ufs::SetTimes(InodeNum ino, uint64_t atime_ns, uint64_t mtime_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  RETURN_IF_ERROR(MakeRoom(kOpHomes));
  ASSIGN_OR_RETURN(Inode * inode, GetInode(ino));
  inode->atime_ns = atime_ns;
  inode->mtime_ns = mtime_ns;
  return WriteInode(ino);
}

Status Ufs::SetSize(InodeNum ino, uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  RETURN_IF_ERROR(MakeRoom(kOpHomes));
  ASSIGN_OR_RETURN(Inode * inode, GetInode(ino));
  if (inode->type == FileType::kDirectory) {
    return ErrIsADirectory("set_length of directory inode");
  }
  if (size < inode->size) {
    uint64_t first_block = (size + kBlockSize - 1) / kBlockSize;
    RETURN_IF_ERROR(FreeBlocksFrom(inode, first_block));
  }
  inode->size = size;
  return WriteInode(ino);
}

// --- sync ---

Status Ufs::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  return Commit();
}

Status Ufs::MakeRoom(uint64_t homes) {
  uint64_t open_blocks = pending_.size();
  if (open_blocks + inode_cache_.size() + homes <= tx_limit_) {
    return Status::Ok();  // room even if every cached inode is dirty
  }
  // inode_cache_ is in inode order, so dirty inodes that share an
  // inode-table block are adjacent.
  uint64_t itb_block = ~0ull;
  for (const auto& [ino, cached] : inode_cache_) {
    if (cached.dirty && ino / kInodesPerBlock != itb_block) {
      itb_block = ino / kInodesPerBlock;
      ++open_blocks;
    }
  }
  return open_blocks + homes > tx_limit_ ? Commit() : Status::Ok();
}

Status Ufs::Commit() {
  Buffer block(kBlockSize);
  // Dirty inodes, grouped by inode-table block.
  for (auto& [ino, cached] : inode_cache_) {
    if (!cached.dirty) {
      continue;
    }
    BlockNum itb_block = sb_.itb_start + ino / kInodesPerBlock;
    RETURN_IF_ERROR(ReadDeviceBlock(itb_block, block.mutable_span()));
    size_t slot = (ino % kInodesPerBlock) * kInodeSize;
    cached.inode.Encode(block.mutable_span().subspan(slot, kInodeSize));
    RETURN_IF_ERROR(WriteDeviceBlock(itb_block, block.span()));
    cached.dirty = false;
  }
  Bitmap::BlockWriter writer = [this](BlockNum b, ByteSpan data) {
    return WriteDeviceBlock(b, data);
  };
  RETURN_IF_ERROR(inode_bitmap_.FlushDirty(writer));
  RETURN_IF_ERROR(data_bitmap_.FlushDirty(writer));
  if (pending_.empty()) {
    // Nothing changed since the last commit; the log already holds the
    // current state.
    return device_->Flush();
  }
  // Partition the open transaction. Blocks that durable state may already
  // reference go through the log: the whole metadata area, data-area
  // blocks that were allocated at the last commit (directory and pointer
  // blocks, and file data that an overwrite found no fresh block for), and
  // any home a live log record names (replay of that older record would
  // overwrite an in-place write). Every other block is invisible until
  // this commit lands, so it is written in place first ("ordered" mode)
  // without log traffic.
  std::map<BlockNum, Buffer> journaled;
  std::vector<std::pair<BlockNum, const Buffer*>> ordered;
  for (const auto& [b, data] : pending_) {
    if (b < sb_.data_start || CommittedBitSet(b) || journal_->Names(b)) {
      journaled.emplace(b, Buffer(data.span()));
    } else {
      ordered.emplace_back(b, &data);
    }
  }
  uint64_t tx = last_committed_tx_ + 1;
  sb_.clean = 1;
  sb_.last_tx = tx;
  Buffer sb_block(kBlockSize);
  sb_.Encode(sb_block.mutable_span());
  journaled.insert_or_assign(0, std::move(sb_block));
  // Size the record by its deltas against retained_. MakeRoom keeps every
  // record small enough to fit an empty log as full images, so after a
  // checkpoint (which empties the log and retained_) it fits.
  if (!journal_->HasRoom(Journal::RecordBlocks(journaled, retained_))) {
    RETURN_IF_ERROR(Checkpoint());
  }

  // Phase 1: ordered writes. These blocks are unreferenced until the
  // commit record lands, so a crash in this window is invisible.
  if (!ordered.empty()) {
    for (const auto& [b, buf] : ordered) {
      RETURN_IF_ERROR(device_->WriteBlock(b, buf->span()));
    }
    RETURN_IF_ERROR(device_->Flush());
  }
  // Phase 2: append the log record (flushed). After this returns the
  // transaction is durable.
  RETURN_IF_ERROR(journal_->Commit(tx, journaled, retained_));
  last_committed_tx_ = tx;
  ++journal_commits_;
  // Every journaled block stays in memory and serves reads until a
  // checkpoint writes it home; until the checkpoint's flush, replay
  // restores it from the log. Only now: a record that did not land must
  // never reach a checkpoint, nor be the base of the next delta.
  for (auto& [b, buf] : journaled) {
    retained_.insert_or_assign(b, std::move(buf));
  }
  FinishJournalEpoch();
  return Status::Ok();
}

Status Ufs::Checkpoint() {
  // Every record carries the superblock, which is retained: nothing
  // retained means no live record.
  if (retained_.empty()) {
    return Status::Ok();
  }
  // Homes in block order, then one flush: only once they are durable may
  // the anchor stop naming the records that carry them.
  for (const auto& [b, buf] : retained_) {
    RETURN_IF_ERROR(device_->WriteBlock(b, buf.span()));
  }
  RETURN_IF_ERROR(device_->Flush());
  // The homes are durable, so reads no longer need retained_. Empty it
  // before Truncate forgets the homes: a base for a home the log does not
  // name is never valid, even when the anchor write fails.
  ++journal_checkpoints_;
  checkpoint_blocks_ += retained_.size();
  retained_.clear();
  return journal_->Truncate();
}

bool Ufs::CommittedBitSet(BlockNum block) const {
  uint64_t byte = block / 8;
  if (byte >= committed_bits_.size()) {
    return true;  // untracked: journal it to be safe
  }
  return (committed_bits_[byte] >> (block % 8)) & 1;
}

void Ufs::FinishJournalEpoch() {
  pending_.clear();
  ByteSpan raw = data_bitmap_.raw_bits();
  committed_bits_.assign(raw.begin(), raw.end());
}

void Ufs::Abandon() {
  std::lock_guard<std::mutex> lock(mutex_);
  abandoned_ = true;
}

uint64_t Ufs::last_committed_tx() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_committed_tx_;
}

void Ufs::CollectStats(const metrics::StatsEmitter& emit) const {
  std::lock_guard<std::mutex> lock(mutex_);
  emit("inode_cache_hits", cache_hits_);
  emit("inode_cache_misses", cache_misses_);
  emit("journal_commits", journal_commits_);
  // Blocks appended to the log, descriptors included.
  emit("journal_log_blocks", journal_->appended_blocks());
  emit("journal_checkpoints", journal_checkpoints_);
  emit("checkpoint_blocks", checkpoint_blocks_);
  // Gauge: blocks held in memory because the live log has them newer than
  // their home copies.
  emit("retained_blocks", retained_.size());
}

uint64_t Ufs::FreeBlocks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sb_.free_blocks;
}

uint64_t Ufs::FreeInodes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sb_.free_inodes;
}

}  // namespace springfs::ufs
