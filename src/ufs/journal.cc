#include "src/ufs/journal.h"

#include "src/support/logging.h"

namespace springfs::ufs {
namespace {

// Version 3 is the circular log with an anchor. Version 2 (one-slot journal,
// XXH64 tags) and version 1 (FNV-1a tags) fail the version check and are
// never replayed.
constexpr uint32_t kJournalVersion = 3;
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
constexpr size_t kRhNumRecords = 24;
constexpr size_t kRhCrc = 32;  // CRC over [0, kRhCrc) and the entries
constexpr size_t kRhEntries = 40;
constexpr uint64_t kDescEntrySize = 16;  // home block u64 + payload tag u64

uint64_t DescBlocksFor(uint64_t num_records) {
  return (kRhEntries + num_records * kDescEntrySize + kBlockSize - 1) /
         kBlockSize;
}

// Integrity tag for a journaled payload. Deliberately NOT Crc32: the
// superblock embeds its own Crc32 as a trailer, which by the CRC residue
// property gives every valid superblock block the same CRC32 — any two
// valid superblocks differ by a CRC codeword, so a linear check (seeded or
// not) cannot tell them apart. Log slots are reused once the log wraps, so
// a torn payload write landing in an older record's slot could otherwise
// masquerade as that record's payload and make replay apply a mix of two
// transactions. XXH64 is non-linear, and folding in the tx id and home
// block also rejects stale slot contents left by other transactions. Every
// journaled block is tagged inside Sync, so the tag sits on the commit
// path; XXH64 costs about 0.5 us per 4 KB block.
uint64_t PayloadTag(uint64_t tx_id, uint64_t home, ByteSpan payload) {
  uint64_t tag = Xxh64(payload);
  tag ^= tx_id * 0x9E3779B97F4A7C15ull;
  tag ^= home * 0xC2B2AE3D27D4EB4Full;
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

uint32_t HeaderCrc(ByteSpan desc, uint64_t num_records) {
  return Crc32(desc.subspan(kRhEntries, num_records * kDescEntrySize),
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

bool Journal::HasRoom(uint64_t num_records) const {
  return used_ + DescBlocksFor(num_records) + num_records <= log_blocks_;
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

Status Journal::Commit(uint64_t tx_id,
                       const std::map<BlockNum, Buffer>& blocks) {
  if (tx_id != next_tx_) {
    return ErrInvalidArgument("journal expects tx " + std::to_string(next_tx_) +
                              ", got " + std::to_string(tx_id));
  }
  uint64_t n = blocks.size();
  if (n == 0) {
    return ErrInvalidArgument("empty journal transaction");
  }
  if (!HasRoom(n)) {
    return ErrNoSpace("transaction of " + std::to_string(n) +
                      " blocks exceeds free journal space");
  }
  uint64_t desc_blocks = DescBlocksFor(n);
  Buffer desc(desc_blocks * kBlockSize);
  uint8_t* p = desc.data();
  StoreLe<uint32_t>(p + kRhMagic, kRecordMagic);
  StoreLe<uint32_t>(p + kRhVersion, kJournalVersion);
  StoreLe<uint64_t>(p + kRhLogId, log_id_);
  StoreLe<uint64_t>(p + kRhTxId, tx_id);
  StoreLe<uint64_t>(p + kRhNumRecords, n);
  uint64_t i = 0;
  for (const auto& [home, payload] : blocks) {
    SPRINGFS_CHECK(payload.size() == kBlockSize);
    SPRINGFS_CHECK(home < jnl_start_);  // homes never point into the log
    uint8_t* e = p + kRhEntries + i * kDescEntrySize;
    StoreLe<uint64_t>(e + 0, home);
    StoreLe<uint64_t>(e + 8, PayloadTag(tx_id, home, payload.span()));
    ++i;
  }
  StoreLe<uint32_t>(p + kRhCrc, HeaderCrc(desc.span(), n));

  // Descriptor, then payloads, in log order. No flush in between: a record
  // whose blocks did not all land fails its CRC or a payload tag.
  uint64_t pos = head_;
  auto write_next = [&](ByteSpan block) {
    BlockNum target = jnl_start_ + pos;
    pos = (pos + 1) % log_blocks_;
    return device_->WriteBlock(target, block);
  };
  for (uint64_t b = 0; b < desc_blocks; ++b) {
    RETURN_IF_ERROR(write_next(desc.subspan(b * kBlockSize, kBlockSize)));
  }
  for (const auto& [home, payload] : blocks) {
    RETURN_IF_ERROR(write_next(payload.span()));
  }
  RETURN_IF_ERROR(device_->Flush());
  head_ = pos;
  used_ += desc_blocks + n;
  ++next_tx_;
  for (const auto& [home, payload] : blocks) {
    homes_.insert(home);
  }
  return Status::Ok();
}

Status Journal::Truncate() {
  tail_pos_ = head_;
  tail_tx_ = next_tx_;
  used_ = 0;
  homes_.clear();
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
    // Validate the whole record before taking any of it.
    RETURN_IF_ERROR(read_at(0, block.mutable_span()));
    const uint8_t* p = block.data();
    uint64_t n = LoadLe<uint64_t>(p + kRhNumRecords);
    if (LoadLe<uint32_t>(p + kRhMagic) != kRecordMagic ||
        LoadLe<uint32_t>(p + kRhVersion) != kJournalVersion ||
        LoadLe<uint64_t>(p + kRhLogId) != anchor.log_id ||
        LoadLe<uint64_t>(p + kRhTxId) != tx || n == 0 ||
        n > log_blocks || used + DescBlocksFor(n) + n > log_blocks) {
      break;
    }
    uint64_t desc_blocks = DescBlocksFor(n);
    Buffer desc(desc_blocks * kBlockSize);
    std::memcpy(desc.data(), block.data(), kBlockSize);
    for (uint64_t b = 1; b < desc_blocks; ++b) {
      RETURN_IF_ERROR(read_at(
          b, desc.mutable_span().subspan(b * kBlockSize, kBlockSize)));
    }
    if (LoadLe<uint32_t>(desc.data() + kRhCrc) != HeaderCrc(desc.span(), n)) {
      break;
    }
    std::map<BlockNum, Buffer> records;
    bool valid = true;
    for (uint64_t i = 0; i < n && valid; ++i) {
      const uint8_t* e = desc.data() + kRhEntries + i * kDescEntrySize;
      uint64_t home = LoadLe<uint64_t>(e + 0);
      Buffer payload(kBlockSize);
      RETURN_IF_ERROR(read_at(desc_blocks + i, payload.mutable_span()));
      valid = home < anchor.jnl_start &&
              LoadLe<uint64_t>(e + 8) == PayloadTag(tx, home, payload.span());
      records.insert_or_assign(home, std::move(payload));
    }
    if (!valid) {
      break;
    }
    for (auto& [home, payload] : records) {
      live.homes.insert_or_assign(home, std::move(payload));
    }
    ++live.transactions;
    live.last_tx = tx;
    pos = (pos + desc_blocks + n) % log_blocks;
    used += desc_blocks + n;
  }
  return live;
}

Result<ReplayReport> Journal::Replay(BlockDevice* device) {
  ASSIGN_OR_RETURN(LiveLog live, Scan(device));
  ReplayReport report;
  if (live.transactions == 0) {
    return report;
  }
  for (const auto& [home, data] : live.homes) {
    RETURN_IF_ERROR(device->WriteBlock(home, data.span()));
  }
  RETURN_IF_ERROR(device->Flush());
  report.tx_id = live.last_tx;
  report.transactions = live.transactions;
  report.blocks_replayed = live.homes.size();
  return report;
}

}  // namespace springfs::ufs
