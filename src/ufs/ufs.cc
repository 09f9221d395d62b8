#include "src/ufs/ufs.h"

#include <algorithm>
#include <bit>

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

// File index `index` counted from `start`: 0 when it lies before `start`.
uint64_t IndexFrom(uint64_t index, uint64_t start) {
  return index > start ? index - start : 0;
}

// The 64 bits of `bits` from bit `first` (a multiple of 64) on; bytes past
// its end read as zero.
uint64_t BitWord(ByteSpan bits, uint64_t first) {
  size_t at = first / 8;
  if (at + 8 <= bits.size()) {
    return LoadLe<uint64_t>(bits.data() + at);
  }
  uint8_t tail[8] = {};
  std::memcpy(tail, bits.data() + at, bits.size() - at);
  return LoadLe<uint64_t>(tail);
}

// Accepts the directory entry in use under `name`.
auto Named(std::string_view name) {
  return [name](const DirEntry& e) {
    return e.ino != kInvalidInode && e.name == name;
  };
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

uint64_t Bitmap::FindClear() const {
  for (uint64_t bit = 0; bit < num_bits_; ++bit) {
    if (!Get(bit)) {
      return bit;
    }
  }
  return kInvalid;
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
    st = journal_->Checkpoint();
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

  // Until Format returns it, `fs` is abandoned: a Format that fails part
  // way must not sync its half-built state on destruction, which would
  // make a file system without a root mountable.
  std::unique_ptr<Ufs> fs(new Ufs(device, clock));
  fs->abandoned_ = true;
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
  fs->abandoned_ = false;
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
  ASSIGN_OR_RETURN(LiveLog replayed, Journal::Replay(device));
  if (replayed.transactions > 0) {
    LOG_INFO << "journal replay: " << replayed.transactions
             << " transactions up to tx " << replayed.last_tx << " ("
             << replayed.homes.size() << " blocks)";
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

  // Abandoned until Mount returns it, as in Format: a failed Mount may not
  // have opened its log.
  std::unique_ptr<Ufs> fs(new Ufs(device, clock));
  fs->abandoned_ = true;
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
  fs->abandoned_ = false;
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
  uint64_t bit = inode_bitmap_.FindClear();
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
  Status freed = FreeBlocksFrom(inode, 0);
  // After a failure too: the blocks freed so far are no longer pointed at.
  RETURN_IF_ERROR(WriteInode(ino));
  RETURN_IF_ERROR(freed);
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
  // Two passes down from the log, a 64-bit word of the bitmaps at a time:
  // the first over blocks free now and at the last commit, asking Names
  // only about the candidates a word yields; the second over any free one.
  ByteSpan live = data_bitmap_.raw_bits();
  ByteSpan committed(committed_bits_.data(), committed_bits_.size());
  for (bool ordered : {true, false}) {
    for (uint64_t end = sb_.jnl_start(); end > sb_.data_start;) {
      uint64_t first = (end - 1) & ~uint64_t{63};
      uint64_t begin = std::max(first, sb_.data_start);
      uint64_t used = BitWord(live, first) |
                      (ordered ? BitWord(committed, first) : 0);
      uint64_t in_range = (~uint64_t{0} >> (64 - (end - first))) &
                          (~uint64_t{0} << (begin - first));
      for (uint64_t free = ~used & in_range; free != 0;) {
        uint64_t bit = 63 - std::countl_zero(free);
        free &= ~(uint64_t{1} << bit);
        if (!ordered || !journal_->Names(first + bit)) {
          data_bitmap_.Set(first + bit);
          --sb_.free_blocks;
          return BlockNum{first + bit};
        }
      }
      end = begin;
    }
  }
  return ErrNoSpace("out of data blocks");
}

Status Ufs::FreeBlock(BlockNum block) {
  RETURN_IF_ERROR(CheckDataBlock(block));
  data_bitmap_.Clear(block);
  ++sb_.free_blocks;
  return Status::Ok();
}

Status Ufs::CheckDataBlock(BlockNum block) const {
  if (block < sb_.data_start || block >= sb_.jnl_start() ||
      !data_bitmap_.Get(block)) {
    return ErrCorrupted("block pointer " + std::to_string(block) +
                        " names no allocated data block");
  }
  return Status::Ok();
}

Status Ufs::ReadDeviceBlock(BlockNum block, MutableByteSpan out) {
  auto it = pending_.find(block);
  const Buffer* held =
      it != pending_.end() ? &it->second : journal_->Find(block);
  if (held == nullptr) {
    return device_->ReadBlock(block, out);
  }
  SPRINGFS_CHECK(out.size() >= kBlockSize);
  std::memcpy(out.data(), held->data(), kBlockSize);
  return Status::Ok();
}

Status Ufs::WriteDeviceBlock(BlockNum block, ByteSpan data) {
  SPRINGFS_CHECK(data.size() == kBlockSize);
  auto [it, inserted] = pending_.try_emplace(block);
  if (inserted) {
    it->second = Buffer(data);
  } else {
    std::memcpy(it->second.data(), data.data(), kBlockSize);
  }
  return Status::Ok();
}

// --- block mapping ---

Result<BlockNum> Ufs::MapFileBlock(Inode* inode, uint64_t file_block,
                                   bool allocate) {
  // With `allocate`, points `slot` at a block the op may overwrite: a fresh
  // one for a hole and, for a leaf data slot, a fresh one in place of a
  // block the open transaction has not written (durable state references
  // it, so it keeps its bytes until the commit lands). That block is freed
  // first, so a full device hands it back and the commit journals it. A
  // fresh pointer block is zeroed in the open transaction; a fresh leaf is
  // not, since the caller overwrites it whole. Every pointer it meets is
  // checked before it is followed.
  auto place = [&](uint64_t* slot, bool leaf) -> Status {
    if (*slot != 0) {
      RETURN_IF_ERROR(CheckDataBlock(*slot));
    }
    bool move = leaf && *slot != 0 && pending_.count(*slot) == 0;
    if (!allocate || (*slot != 0 && !move)) {
      return Status::Ok();
    }
    if (move) {
      RETURN_IF_ERROR(FreeBlock(*slot));
    }
    ASSIGN_OR_RETURN(BlockNum fresh, AllocBlock());
    if (!leaf) {
      pending_.insert_or_assign(fresh, Buffer(kBlockSize));
    }
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
  // itself and then the pointer. The pointer is read where the block lies:
  // in the open transaction, in the journal's live copy, or, when neither
  // holds it, in a block read from the device. A block the open
  // transaction does not hold is copied into it only if its pointer
  // changes.
  auto step = [&](uint64_t* slot_holder, uint64_t index,
                  bool leaf) -> Result<BlockNum> {
    RETURN_IF_ERROR(place(slot_holder, /*leaf=*/false));
    BlockNum holder = *slot_holder;
    if (holder == 0) {
      return BlockNum{0};
    }
    auto held = pending_.find(holder);
    const Buffer* ptrs =
        held != pending_.end() ? &held->second : journal_->Find(holder);
    Buffer read;
    if (ptrs == nullptr) {
      read.resize(kBlockSize);
      RETURN_IF_ERROR(device_->ReadBlock(holder, read.mutable_span()));
      ptrs = &read;
    }
    uint64_t target = LoadLe<uint64_t>(ptrs->data() + 8 * index);
    uint64_t placed = target;
    RETURN_IF_ERROR(place(&placed, leaf));
    if (placed != target) {
      if (held == pending_.end()) {
        held = pending_.emplace(holder, ptrs == &read ? std::move(read)
                                                      : Buffer(*ptrs))
                   .first;
      }
      StoreLe<uint64_t>(held->second.data() + 8 * index, placed);
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
  for (uint64_t i = 0; i < kNumDirect; ++i) {
    RETURN_IF_ERROR(TrimSlot(&inode->direct[i], 0, IndexFrom(first_block, i)));
  }
  RETURN_IF_ERROR(
      TrimSlot(&inode->indirect, 1, IndexFrom(first_block, kNumDirect)));
  return TrimSlot(&inode->dindirect, 2,
                  IndexFrom(first_block, kNumDirect + kPtrsPerBlock));
}

Status Ufs::TrimSlot(uint64_t* slot, int depth, uint64_t begin) {
  uint64_t span = 1;  // file indices the slot maps
  for (int d = 0; d < depth; ++d) {
    span *= kPtrsPerBlock;
  }
  if (*slot == 0 || begin >= span) {
    return Status::Ok();
  }
  if (depth > 0) {
    RETURN_IF_ERROR(CheckDataBlock(*slot));
    uint64_t child_span = span / kPtrsPerBlock;
    Buffer ptrs(kBlockSize);
    RETURN_IF_ERROR(ReadDeviceBlock(*slot, ptrs.mutable_span()));
    bool any_left = false;
    Status trimmed;
    for (uint64_t i = 0; trimmed.ok() && i < kPtrsPerBlock; ++i) {
      uint64_t child = LoadLe<uint64_t>(ptrs.data() + 8 * i);
      trimmed = TrimSlot(&child, depth - 1, IndexFrom(begin, i * child_span));
      StoreLe<uint64_t>(ptrs.data() + 8 * i, child);
      any_left = any_left || child != 0;
    }
    // After a failure too: the children freed so far must not stay named.
    if (!trimmed.ok() || any_left) {
      RETURN_IF_ERROR(WriteDeviceBlock(*slot, ptrs.span()));
      return trimmed;
    }
  }
  RETURN_IF_ERROR(FreeBlock(*slot));
  *slot = 0;
  return Status::Ok();
}

// --- directories ---

Result<Ufs::DirSlot> Ufs::FindDirSlot(
    Inode* dir_inode,
    const std::function<Result<bool>(const DirEntry&)>& accept) {
  uint64_t num_dir_blocks = (dir_inode->size + kBlockSize - 1) / kBlockSize;
  DirSlot slot;
  slot.block = Buffer(kBlockSize);
  for (uint64_t b = 0; b < num_dir_blocks; ++b) {
    ASSIGN_OR_RETURN(BlockNum dev_block,
                     MapFileBlock(dir_inode, b, /*allocate=*/false));
    if (dev_block == 0) {
      continue;
    }
    RETURN_IF_ERROR(ReadDeviceBlock(dev_block, slot.block.mutable_span()));
    for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
      slot.entry = DirEntry::Decode(
          slot.block.subspan(e * kDirEntrySize, kDirEntrySize));
      ASSIGN_OR_RETURN(bool accepted, accept(slot.entry));
      if (accepted) {
        slot.dev_block = dev_block;
        slot.index = e;
        return slot;
      }
    }
  }
  return slot;
}

Result<InodeNum> Ufs::DirLookup(Inode* dir_inode, std::string_view name) {
  ASSIGN_OR_RETURN(DirSlot slot, FindDirSlot(dir_inode, Named(name)));
  if (slot.dev_block == 0) {
    return ErrNotFound("no entry '" + std::string(name) + "'");
  }
  return slot.entry.ino;
}

Status Ufs::DirAddEntry(InodeNum dir_ino, Inode* dir_inode,
                        std::string_view name, InodeNum target) {
  if (name.empty() || name.size() > kMaxNameLen) {
    return ErrInvalidArgument("bad name length");
  }
  if (name.find('/') != std::string_view::npos) {
    return ErrInvalidArgument("name contains '/'");
  }
  DirEntry fresh{target, std::string(name)};
  // Reuse the first free slot in an existing block.
  ASSIGN_OR_RETURN(DirSlot slot, FindDirSlot(dir_inode, [](const DirEntry& e) {
                     return e.ino == kInvalidInode;
                   }));
  if (slot.dev_block != 0) {
    fresh.Encode(slot.block.mutable_span().subspan(
        slot.index * kDirEntrySize, kDirEntrySize));
    return WriteDeviceBlock(slot.dev_block, slot.block.span());
  }
  // All slots full: grow the directory by one block. The inode goes back
  // even if that fails: MapFileBlock may have set a pointer in it.
  uint64_t num_dir_blocks = (dir_inode->size + kBlockSize - 1) / kBlockSize;
  Result<BlockNum> dev_block =
      MapFileBlock(dir_inode, num_dir_blocks, /*allocate=*/true);
  RETURN_IF_ERROR(WriteInode(dir_ino));
  RETURN_IF_ERROR(dev_block.status());
  Buffer block(kBlockSize);
  fresh.Encode(block.mutable_span().subspan(0, kDirEntrySize));
  dir_inode->size = (num_dir_blocks + 1) * kBlockSize;
  dir_inode->mtime_ns = clock_->Now();
  return WriteDeviceBlock(*dev_block, block.span());
}

Status Ufs::DirRemoveEntry(Inode* dir_inode, std::string_view name) {
  ASSIGN_OR_RETURN(DirSlot slot, FindDirSlot(dir_inode, Named(name)));
  if (slot.dev_block == 0) {
    return ErrNotFound("no entry '" + std::string(name) + "'");
  }
  DirEntry().Encode(slot.block.mutable_span().subspan(
      slot.index * kDirEntrySize, kDirEntrySize));
  return WriteDeviceBlock(slot.dev_block, slot.block.span());
}

Result<bool> Ufs::DirIsEmpty(Inode* dir_inode) {
  ASSIGN_OR_RETURN(DirSlot slot, FindDirSlot(dir_inode, [](const DirEntry& e) {
                     return e.ino != kInvalidInode;
                   }));
  return slot.dev_block == 0;
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
  ASSIGN_OR_RETURN(InodeNum ino, DirLookup(dir_inode, name));
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
  Result<InodeNum> existing = DirLookup(dir_inode, name);
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
  ASSIGN_OR_RETURN(InodeNum target, DirLookup(dir_inode, name));
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
  Result<InodeNum> existing = DirLookup(dir_inode, name);
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
                   DirLookup(src_inode, src_name));
  Result<InodeNum> existing = DirLookup(dst_inode, dst_name);
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
  // The walk accepts no slot: it takes every entry on its way.
  std::vector<NamedEntry> entries;
  auto take = [&](const DirEntry& e) -> Result<bool> {
    if (e.ino == kInvalidInode) {
      return false;
    }
    ASSIGN_OR_RETURN(Inode * inode, GetInode(e.ino));
    entries.push_back(NamedEntry{e.name, e.ino, inode->type});
    return false;
  };
  RETURN_IF_ERROR(FindDirSlot(dir_inode, take).status());
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
    // A partial block keeps its other bytes, zeros in a hole: read them
    // before the block moves.
    if (in_block != 0 || chunk != kBlockSize) {
      std::memset(block.data(), 0, kBlockSize);
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
  return Resize(ino, new_size, /*touch_mtime=*/true);
}

Status Ufs::Resize(InodeNum ino, uint64_t size, bool touch_mtime) {
  RETURN_IF_ERROR(MakeRoom(kOpHomes));
  ASSIGN_OR_RETURN(Inode * inode, GetInode(ino));
  if (inode->type == FileType::kDirectory) {
    return ErrIsADirectory("resize of directory inode");
  }
  if (size < inode->size) {
    Status freed = FreeBlocksFrom(inode, (size + kBlockSize - 1) / kBlockSize);
    // After a failure too: the blocks freed so far are no longer pointed at.
    RETURN_IF_ERROR(WriteInode(ino));
    RETURN_IF_ERROR(freed);
    // Zero the tail of the new last block so re-extension reads zeros.
    if (size % kBlockSize != 0) {
      uint64_t last = size / kBlockSize;
      ASSIGN_OR_RETURN(BlockNum dev_block,
                       MapFileBlock(inode, last, /*allocate=*/false));
      if (dev_block != 0) {
        Buffer block(kBlockSize);
        RETURN_IF_ERROR(ReadDeviceBlock(dev_block, block.mutable_span()));
        std::memset(block.data() + size % kBlockSize, 0,
                    kBlockSize - size % kBlockSize);
        ASSIGN_OR_RETURN(dev_block,
                         MapFileBlock(inode, last, /*allocate=*/true));
        RETURN_IF_ERROR(WriteDeviceBlock(dev_block, block.span()));
      }
    }
  }
  inode->size = size;
  if (touch_mtime) {
    inode->mtime_ns = clock_->Now();
  }
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
  return Resize(ino, size, /*touch_mtime=*/false);
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
    // Nothing changed since the last commit, and every device write UFS
    // makes is flushed before the call that made it returns: the device
    // already holds the current state durably.
    return Status::Ok();
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
  std::vector<std::pair<BlockNum, ByteSpan>> ordered;
  for (const auto& [b, data] : pending_) {
    if (b < sb_.data_start || CommittedBitSet(b) || journal_->Names(b)) {
      journaled.emplace(b, Buffer(data.span()));
    } else {
      ordered.emplace_back(b, data.span());
    }
  }
  uint64_t tx = last_committed_tx_ + 1;
  sb_.clean = 1;
  sb_.last_tx = tx;
  Buffer sb_block(kBlockSize);
  sb_.Encode(sb_block.mutable_span());
  journaled.insert_or_assign(0, std::move(sb_block));
  // MakeRoom keeps every record small enough to fit an empty log as full
  // images, so it fits after the checkpoint the journal may run first.
  RETURN_IF_ERROR(journal_->Commit(tx, std::move(journaled), ordered));
  last_committed_tx_ = tx;
  ++journal_commits_;
  FinishJournalEpoch();
  return Status::Ok();
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
  emit("journal_checkpoints", journal_->checkpoints());
  emit("checkpoint_blocks", journal_->checkpoint_blocks());
  // Gauge: blocks held in memory because the live log has them newer than
  // their home copies.
  emit("retained_blocks", journal_->live_blocks());
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
