#include "src/ufs/journal.h"

#include <bit>
#include <vector>

#include "src/support/logging.h"

namespace springfs::ufs {
namespace {

// Version 4 logs metadata deltas as 128-byte chunks. Version 3 (the
// circular log of full images), version 2 (one-slot journal, XXH64 tags)
// and version 1 (FNV-1a tags) fail the version check and are never
// replayed.
constexpr uint32_t kJournalVersion = 4;
constexpr uint32_t kRecordMagic = 0x58544A53;  // "SJTX"

// Anchor slot fields; the two slots sit at offsets 0 and kBlockSize / 2.
constexpr size_t kAnMagic = 0;
constexpr size_t kAnVersion = 4;
constexpr size_t kAnSequence = 8;
constexpr size_t kAnLogId = 16;
constexpr size_t kAnJnlStart = 24;
constexpr size_t kAnTailPos = 32;
constexpr size_t kAnTailTx = 40;
constexpr size_t kAnCrc = 48;  // CRC over bytes [0, kAnCrc) of the slot
constexpr size_t kAnchorSlotSize = kBlockSize / 2;

// Record header fields, at the start of the first descriptor block.
constexpr size_t kRhMagic = 0;
constexpr size_t kRhVersion = 4;
constexpr size_t kRhLogId = 8;
constexpr size_t kRhTxId = 16;
constexpr size_t kRhNumEntries = 24;
constexpr size_t kRhCrc = 32;  // CRC over [0, kRhCrc) and the entries
constexpr size_t kRhEntries = 40;

// Descriptor entry fields.
constexpr size_t kEnHome = 0;
constexpr size_t kEnTag = 8;
constexpr size_t kEnMask = 16;
constexpr uint64_t kDescEntrySize = 24;

// A delta logs the chunks of its home that differ from the base, one mask
// bit per chunk. An entry with every bit set is a full image.
constexpr size_t kChunkSize = 128;
constexpr size_t kChunksPerBlock = kBlockSize / kChunkSize;
constexpr uint64_t kFullImage = (uint64_t{1} << kChunksPerBlock) - 1;

// Descriptor blocks of a record: header, entries, then the deltas' chunks.
uint64_t DescBlocksFor(uint64_t entries, uint64_t delta_chunks) {
  return (kRhEntries + entries * kDescEntrySize + delta_chunks * kChunkSize +
          kBlockSize - 1) /
         kBlockSize;
}

// The chunks of `block` that differ from `base`.
uint64_t DirtyChunks(ByteSpan base, ByteSpan block) {
  uint64_t mask = 0;
  for (size_t c = 0; c < kChunksPerBlock; ++c) {
    if (std::memcmp(base.data() + c * kChunkSize, block.data() + c * kChunkSize,
                    kChunkSize) != 0) {
      mask |= uint64_t{1} << c;
    }
  }
  return mask;
}

// The mask each home of `blocks` is logged with, in home order.
std::vector<uint64_t> ChunkMasks(const std::map<BlockNum, Buffer>& blocks,
                                 const std::map<BlockNum, Buffer>& bases) {
  std::vector<uint64_t> masks;
  masks.reserve(blocks.size());
  for (const auto& [home, image] : blocks) {
    auto base = bases.find(home);
    masks.push_back(base == bases.end()
                        ? kFullImage
                        : DirtyChunks(base->second.span(), image.span()));
  }
  return masks;
}

// Log blocks taken by a record whose entries carry `masks`: the
// descriptor blocks, plus one block per full image.
struct RecordShape {
  uint64_t desc_blocks = 0;
  uint64_t full_images = 0;

  explicit RecordShape(const std::vector<uint64_t>& masks) {
    uint64_t delta_chunks = 0;
    for (uint64_t mask : masks) {
      if (mask == kFullImage) {
        ++full_images;
      } else {
        delta_chunks += std::popcount(mask);
      }
    }
    desc_blocks = DescBlocksFor(masks.size(), delta_chunks);
  }
  uint64_t blocks() const { return desc_blocks + full_images; }
};

// Integrity tag for a journaled payload. Deliberately NOT Crc32: the
// superblock embeds its own Crc32 as a trailer, which by the CRC residue
// property gives every valid superblock block the same CRC32 — any two
// valid superblocks differ by a CRC codeword, so a linear check (seeded or
// not) cannot tell them apart. Log slots are reused once the log wraps, so
// a torn payload write landing in an older record's slot could otherwise
// masquerade as that record's payload and make replay apply a mix of two
// transactions. XXH64 is non-linear, and folding in the tx id and home
// block also rejects stale slot contents left by other transactions, and
// folding in the mask binds a delta's chunks to the positions they were
// taken from. Every journaled entry is tagged at commit, so the tag sits
// on the commit path; XXH64 costs about 0.5 us per 4 KB block.
uint64_t PayloadTag(uint64_t tx_id, uint64_t home, uint64_t mask,
                    ByteSpan logged) {
  uint64_t tag = Xxh64(logged);
  tag ^= tx_id * 0x9E3779B97F4A7C15ull;
  tag ^= home * 0xC2B2AE3D27D4EB4Full;
  tag ^= mask * 0x165667B19E3779F9ull;
  return tag;
}

// The region must hold the anchor plus the smallest record (descriptor +
// payload).
Status CheckRegion(const BlockDevice* device, uint64_t jnl_start) {
  if (jnl_start == 0 || jnl_start + 3 > device->num_blocks()) {
    return ErrInvalidArgument("journal region too small");
  }
  return Status::Ok();
}

uint32_t HeaderCrc(ByteSpan desc, uint64_t num_entries) {
  return Crc32(desc.subspan(kRhEntries, num_entries * kDescEntrySize),
               Crc32(desc.subspan(0, kRhCrc)));
}

struct Anchor {
  uint64_t sequence = 0;  // 0 = no valid anchor
  uint64_t log_id = 0;
  uint64_t jnl_start = 0;
  uint64_t tail_pos = 0;
  uint64_t tail_tx = 0;
};

// The newer of the anchor block's two valid slots.
Anchor DecodeAnchor(ByteSpan block) {
  Anchor best;
  for (size_t slot = 0; slot < 2; ++slot) {
    const uint8_t* p = block.data() + slot * kAnchorSlotSize;
    if (LoadLe<uint32_t>(p + kAnMagic) != kJournalMagic ||
        LoadLe<uint32_t>(p + kAnVersion) != kJournalVersion ||
        LoadLe<uint32_t>(p + kAnCrc) != Crc32(ByteSpan(p, kAnCrc))) {
      continue;
    }
    uint64_t sequence = LoadLe<uint64_t>(p + kAnSequence);
    if (sequence > best.sequence) {
      best = Anchor{sequence, LoadLe<uint64_t>(p + kAnLogId),
                    LoadLe<uint64_t>(p + kAnJnlStart),
                    LoadLe<uint64_t>(p + kAnTailPos),
                    LoadLe<uint64_t>(p + kAnTailTx)};
    }
  }
  return best;
}

}  // namespace

Journal::Journal(BlockDevice* device, uint64_t jnl_start)
    : device_(device),
      jnl_start_(jnl_start),
      log_blocks_(device->num_blocks() - 1 - jnl_start),
      anchor_(kBlockSize) {}

Result<std::unique_ptr<Journal>> Journal::Open(BlockDevice* device,
                                               uint64_t jnl_start,
                                               uint64_t next_tx) {
  if (next_tx == 0) {
    return ErrInvalidArgument("journal tx id 0 is reserved");
  }
  RETURN_IF_ERROR(CheckRegion(device, jnl_start));
  std::unique_ptr<Journal> journal(new Journal(device, jnl_start));
  RETURN_IF_ERROR(device->ReadBlock(device->num_blocks() - 1,
                                    journal->anchor_.mutable_span()));
  // A new log id: the hash of the anchor block this log replaces. Since
  // the Create that zeroed the region, only the journal has written that
  // block, and each anchor write raises the sequence number, so the id
  // differs from that of every log whose records the region still holds.
  journal->log_id_ = Xxh64(journal->anchor_.span());
  journal->sequence_ = DecodeAnchor(journal->anchor_.span()).sequence;
  journal->tail_tx_ = journal->next_tx_ = next_tx;
  RETURN_IF_ERROR(journal->WriteAnchor());
  return journal;
}

Result<std::unique_ptr<Journal>> Journal::Create(BlockDevice* device,
                                                 uint64_t jnl_start) {
  RETURN_IF_ERROR(CheckRegion(device, jnl_start));
  Buffer zero(kBlockSize);
  for (BlockNum b = jnl_start; b + 1 < device->num_blocks(); ++b) {
    RETURN_IF_ERROR(device->WriteBlock(b, zero.span()));
  }
  return Open(device, jnl_start, /*next_tx=*/1);
}

uint64_t Journal::RecordBlocks(const std::map<BlockNum, Buffer>& blocks,
                               const std::map<BlockNum, Buffer>& bases) {
  return RecordShape(ChunkMasks(blocks, bases)).blocks();
}

uint64_t Journal::MaxImages(uint64_t jnl_blocks) {
  uint64_t images = jnl_blocks > 0 ? jnl_blocks - 1 : 0;  // less the anchor
  while (images > 0 && 1 + DescBlocksFor(images, 0) + images > jnl_blocks) {
    --images;
  }
  return images;
}

bool Journal::HasRoom(uint64_t record_blocks) const {
  return used_ + record_blocks <= log_blocks_;
}

Status Journal::WriteAnchor() {
  ++sequence_;
  uint8_t* p = anchor_.data() + (sequence_ % 2) * kAnchorSlotSize;
  std::memset(p, 0, kAnchorSlotSize);
  StoreLe<uint32_t>(p + kAnMagic, kJournalMagic);
  StoreLe<uint32_t>(p + kAnVersion, kJournalVersion);
  StoreLe<uint64_t>(p + kAnSequence, sequence_);
  StoreLe<uint64_t>(p + kAnLogId, log_id_);
  StoreLe<uint64_t>(p + kAnJnlStart, jnl_start_);
  StoreLe<uint64_t>(p + kAnTailPos, tail_pos_);
  StoreLe<uint64_t>(p + kAnTailTx, tail_tx_);
  StoreLe<uint32_t>(p + kAnCrc, Crc32(ByteSpan(p, kAnCrc)));
  RETURN_IF_ERROR(device_->WriteBlock(device_->num_blocks() - 1,
                                      anchor_.span()));
  return device_->Flush();
}

const Buffer* Journal::Find(BlockNum home) const {
  auto it = live_.find(home);
  return it == live_.end() ? nullptr : &it->second;
}

Status Journal::Commit(
    uint64_t tx_id, std::map<BlockNum, Buffer> blocks,
    const std::vector<std::pair<BlockNum, ByteSpan>>& ordered) {
  if (tx_id != next_tx_) {
    return ErrInvalidArgument("journal expects tx " + std::to_string(next_tx_) +
                              ", got " + std::to_string(tx_id));
  }
  uint64_t n = blocks.size();
  if (n == 0) {
    return ErrInvalidArgument("empty journal transaction");
  }
  std::vector<uint64_t> masks = ChunkMasks(blocks, live_);
  if (!HasRoom(RecordShape(masks).blocks())) {
    // The checkpoint empties the live copies, so every home goes whole.
    RETURN_IF_ERROR(Checkpoint());
    masks.assign(n, kFullImage);
  }
  RecordShape shape(masks);
  if (!HasRoom(shape.blocks())) {
    return ErrNoSpace("transaction of " + std::to_string(shape.blocks()) +
                      " log blocks exceeds free journal space");
  }

  // Ordered writes. No durable state references these blocks until the
  // record lands, so a crash in this window is invisible.
  if (!ordered.empty()) {
    for (const auto& [b, data] : ordered) {
      RETURN_IF_ERROR(device_->WriteBlock(b, data));
    }
    RETURN_IF_ERROR(device_->Flush());
  }

  Buffer desc(shape.desc_blocks * kBlockSize);
  uint8_t* p = desc.data();
  StoreLe<uint32_t>(p + kRhMagic, kRecordMagic);
  StoreLe<uint32_t>(p + kRhVersion, kJournalVersion);
  StoreLe<uint64_t>(p + kRhLogId, log_id_);
  StoreLe<uint64_t>(p + kRhTxId, tx_id);
  StoreLe<uint64_t>(p + kRhNumEntries, n);
  size_t chunk_pos = kRhEntries + n * kDescEntrySize;
  uint64_t i = 0;
  for (const auto& [home, image] : blocks) {
    SPRINGFS_CHECK(image.size() == kBlockSize);
    SPRINGFS_CHECK(home < jnl_start_);  // homes never point into the log
    uint64_t mask = masks[i];
    ByteSpan logged = image.span();
    if (mask != kFullImage) {
      size_t first = chunk_pos;
      for (uint64_t m = mask; m != 0; m &= m - 1) {
        std::memcpy(p + chunk_pos,
                    image.data() + std::countr_zero(m) * kChunkSize,
                    kChunkSize);
        chunk_pos += kChunkSize;
      }
      logged = desc.subspan(first, chunk_pos - first);
    }
    uint8_t* e = p + kRhEntries + i * kDescEntrySize;
    StoreLe<uint64_t>(e + kEnHome, home);
    StoreLe<uint64_t>(e + kEnTag, PayloadTag(tx_id, home, mask, logged));
    StoreLe<uint64_t>(e + kEnMask, mask);
    ++i;
  }
  StoreLe<uint32_t>(p + kRhCrc, HeaderCrc(desc.span(), n));

  // Descriptor, then full images, in log order. No flush in between: a
  // record whose blocks did not all land fails its CRC or a payload tag.
  uint64_t pos = head_;
  auto write_next = [&](ByteSpan block) {
    BlockNum target = jnl_start_ + pos;
    pos = (pos + 1) % log_blocks_;
    return device_->WriteBlock(target, block);
  };
  for (uint64_t b = 0; b < shape.desc_blocks; ++b) {
    RETURN_IF_ERROR(write_next(desc.subspan(b * kBlockSize, kBlockSize)));
  }
  i = 0;
  for (const auto& [home, image] : blocks) {
    if (masks[i++] == kFullImage) {
      RETURN_IF_ERROR(write_next(image.span()));
    }
  }
  RETURN_IF_ERROR(device_->Flush());
  head_ = pos;
  used_ += shape.blocks();
  appended_blocks_ += shape.blocks();
  ++next_tx_;
  // Only now: a record that did not land must never reach a checkpoint,
  // nor be the base of the next delta.
  for (auto& [home, image] : blocks) {
    live_.insert_or_assign(home, std::move(image));
  }
  return Status::Ok();
}

Status Journal::Checkpoint() {
  // Every record carries at least one home, so no live copy means no live
  // record.
  if (live_.empty()) {
    return Status::Ok();
  }
  // Homes in block order, then one flush: only once they are durable may
  // the anchor stop naming the records that carry them.
  for (const auto& [home, image] : live_) {
    RETURN_IF_ERROR(device_->WriteBlock(home, image.span()));
  }
  RETURN_IF_ERROR(device_->Flush());
  // Forget the copies before the anchor write: a base for a home the log
  // does not name is never valid, even when that write fails.
  ++checkpoints_;
  checkpoint_blocks_ += live_.size();
  live_.clear();
  tail_pos_ = head_;
  tail_tx_ = next_tx_;
  used_ = 0;
  return WriteAnchor();
}

Result<LiveLog> Journal::Scan(BlockDevice* device) {
  LiveLog live;
  uint64_t nb = device->num_blocks();
  if (nb < 4) {
    return live;
  }
  Buffer block(kBlockSize);
  RETURN_IF_ERROR(device->ReadBlock(nb - 1, block.mutable_span()));
  Anchor anchor = DecodeAnchor(block.span());
  if (anchor.sequence == 0 || anchor.jnl_start == 0 ||
      anchor.jnl_start >= nb - 2) {
    return live;
  }
  const uint64_t log_blocks = nb - 1 - anchor.jnl_start;
  if (anchor.tail_pos >= log_blocks || anchor.tail_tx == 0) {
    return live;
  }

  uint64_t pos = anchor.tail_pos;
  uint64_t used = 0;
  auto read_at = [&](uint64_t offset, MutableByteSpan out) {
    return device->ReadBlock(anchor.jnl_start + (pos + offset) % log_blocks,
                             out);
  };
  for (uint64_t tx = anchor.tail_tx; used < log_blocks; ++tx) {
    // Validate the whole record before taking any of it. The entries come
    // first: the CRC over them must hold before their masks size the
    // record.
    RETURN_IF_ERROR(read_at(0, block.mutable_span()));
    const uint8_t* p = block.data();
    uint64_t n = LoadLe<uint64_t>(p + kRhNumEntries);
    if (LoadLe<uint32_t>(p + kRhMagic) != kRecordMagic ||
        LoadLe<uint32_t>(p + kRhVersion) != kJournalVersion ||
        LoadLe<uint64_t>(p + kRhLogId) != anchor.log_id ||
        LoadLe<uint64_t>(p + kRhTxId) != tx || n == 0 ||
        n > (log_blocks - used) * kBlockSize / kDescEntrySize ||
        used + DescBlocksFor(n, 0) > log_blocks) {
      break;
    }
    uint64_t entry_blocks = DescBlocksFor(n, 0);
    Buffer desc(entry_blocks * kBlockSize);
    std::memcpy(desc.data(), block.data(), kBlockSize);
    for (uint64_t b = 1; b < entry_blocks; ++b) {
      RETURN_IF_ERROR(read_at(
          b, desc.mutable_span().subspan(b * kBlockSize, kBlockSize)));
    }
    if (LoadLe<uint32_t>(desc.data() + kRhCrc) != HeaderCrc(desc.span(), n)) {
      break;
    }
    std::vector<uint64_t> masks(n);
    bool valid = true;
    for (uint64_t i = 0; i < n && valid; ++i) {
      const uint8_t* e = desc.data() + kRhEntries + i * kDescEntrySize;
      masks[i] = LoadLe<uint64_t>(e + kEnMask);
      valid = LoadLe<uint64_t>(e + kEnHome) < anchor.jnl_start &&
              masks[i] <= kFullImage;
    }
    RecordShape shape(masks);
    if (!valid || used + shape.blocks() > log_blocks) {
      break;
    }
    desc.resize(shape.desc_blocks * kBlockSize);
    for (uint64_t b = entry_blocks; b < shape.desc_blocks; ++b) {
      RETURN_IF_ERROR(read_at(
          b, desc.mutable_span().subspan(b * kBlockSize, kBlockSize)));
    }

    // Rebuild every entry's image. A delta needs the image an earlier live
    // record left: never a home copy, which may be older than the log.
    std::map<BlockNum, Buffer> images;
    size_t chunk_pos = kRhEntries + n * kDescEntrySize;
    uint64_t next_image = shape.desc_blocks;
    for (uint64_t i = 0; i < n && valid; ++i) {
      const uint8_t* e = desc.data() + kRhEntries + i * kDescEntrySize;
      uint64_t home = LoadLe<uint64_t>(e + kEnHome);
      uint64_t mask = masks[i];
      Buffer image;
      ByteSpan logged;
      if (mask == kFullImage) {
        image = Buffer(kBlockSize);
        RETURN_IF_ERROR(read_at(next_image++, image.mutable_span()));
        logged = image.span();
      } else {
        auto base = live.homes.find(home);
        if (base == live.homes.end()) {
          valid = false;
          break;
        }
        logged = desc.subspan(chunk_pos, std::popcount(mask) * kChunkSize);
        chunk_pos += logged.size();
        image = Buffer(base->second.span());
        const uint8_t* chunk = logged.data();
        for (uint64_t m = mask; m != 0; m &= m - 1) {
          std::memcpy(image.data() + std::countr_zero(m) * kChunkSize, chunk,
                      kChunkSize);
          chunk += kChunkSize;
        }
      }
      valid =
          LoadLe<uint64_t>(e + kEnTag) == PayloadTag(tx, home, mask, logged);
      images.insert_or_assign(home, std::move(image));
    }
    if (!valid) {
      break;
    }
    for (auto& [home, image] : images) {
      live.homes.insert_or_assign(home, std::move(image));
    }
    ++live.transactions;
    live.last_tx = tx;
    pos = (pos + shape.blocks()) % log_blocks;
    used += shape.blocks();
  }
  return live;
}

Result<LiveLog> Journal::Replay(BlockDevice* device) {
  ASSIGN_OR_RETURN(LiveLog live, Scan(device));
  if (live.transactions == 0) {
    return live;
  }
  for (const auto& [home, data] : live.homes) {
    RETURN_IF_ERROR(device->WriteBlock(home, data.span()));
  }
  RETURN_IF_ERROR(device->Flush());
  return live;
}

}  // namespace springfs::ufs
