#include "src/ufs/journal.h"

#include "src/support/logging.h"

namespace springfs::ufs {
namespace {

// Commit-record field offsets (all within the first commit block).
constexpr size_t kCrMagic = 0;
constexpr size_t kCrVersion = 4;
constexpr size_t kCrTxId = 8;
constexpr size_t kCrNumRecords = 16;
constexpr size_t kCrDescCrc = 24;
constexpr size_t kCrCrc = 28;  // CRC over bytes [0, kCrCrc)

// Version 2 tags payloads with XXH64; a version-1 commit record (FNV-1a
// tags) fails the version check and is never replayed.
constexpr uint32_t kJournalVersion = 2;
constexpr uint64_t kDescEntrySize = 16;  // home block u64 + payload tag u64

uint64_t DescBlocksFor(uint64_t num_records) {
  return (num_records * kDescEntrySize + kBlockSize - 1) / kBlockSize;
}

// Integrity tag for a journaled payload. Deliberately NOT Crc32: the
// superblock embeds its own Crc32 as a trailer, which by the CRC residue
// property gives every valid superblock block the same CRC32 — any two
// valid superblocks differ by a CRC codeword, so a linear check (seeded or
// not) cannot tell them apart. Successive transactions reuse the same
// journal slots, so a torn payload write from tx N+1 landing in tx N's
// slot could otherwise masquerade as tx N's record and make replay apply
// a mix of two transactions. XXH64 is non-linear, and folding in the tx
// id and home block also rejects stale slot contents left by other
// transactions. Every journaled block is tagged inside Sync, so the tag
// sits on the commit path; XXH64 costs about 0.5 us per 4 KB block.
uint64_t PayloadTag(uint64_t tx_id, uint64_t home, ByteSpan payload) {
  uint64_t tag = Xxh64(payload);
  tag ^= tx_id * 0x9E3779B97F4A7C15ull;
  tag ^= home * 0xC2B2AE3D27D4EB4Full;
  return tag;
}

}  // namespace

Journal::Journal(BlockDevice* device, uint64_t jnl_start)
    : device_(device), jnl_start_(jnl_start) {
  SPRINGFS_CHECK(jnl_start_ < device_->num_blocks());
}

bool Journal::Fits(uint64_t num_records) const {
  uint64_t jnl_blocks = device_->num_blocks() - jnl_start_;
  return 1 + DescBlocksFor(num_records) + num_records <= jnl_blocks;
}

Status Journal::Commit(uint64_t tx_id,
                       const std::map<BlockNum, Buffer>& blocks) {
  if (tx_id == 0) {
    return ErrInvalidArgument("journal tx id 0 is reserved");
  }
  uint64_t n = blocks.size();
  if (n == 0) {
    return ErrInvalidArgument("empty journal transaction");
  }
  if (!Fits(n)) {
    return ErrNoSpace("transaction of " + std::to_string(n) +
                      " blocks exceeds journal capacity");
  }
  uint64_t nb = device_->num_blocks();
  uint64_t desc_blocks = DescBlocksFor(n);
  uint64_t desc_lo = nb - 1 - desc_blocks;
  uint64_t payload_lo = desc_lo - n;

  // Payloads plus the descriptor table; the commit record is written last
  // so that, under the crash model where any unflushed subset may be
  // dropped, a commit record without its records fails its CRC checks.
  Buffer desc(desc_blocks * kBlockSize);
  uint64_t i = 0;
  for (const auto& [home, payload] : blocks) {
    SPRINGFS_CHECK(payload.size() == kBlockSize);
    SPRINGFS_CHECK(home < payload_lo);  // homes never point into the journal
    uint8_t* e = desc.data() + i * kDescEntrySize;
    StoreLe<uint64_t>(e + 0, home);
    StoreLe<uint64_t>(e + 8, PayloadTag(tx_id, home, payload.span()));
    RETURN_IF_ERROR(device_->WriteBlock(payload_lo + i, payload.span()));
    ++i;
  }
  for (uint64_t b = 0; b < desc_blocks; ++b) {
    RETURN_IF_ERROR(device_->WriteBlock(
        desc_lo + b, desc.subspan(b * kBlockSize, kBlockSize)));
  }

  Buffer commit(kBlockSize);
  uint8_t* p = commit.data();
  StoreLe<uint32_t>(p + kCrMagic, kJournalMagic);
  StoreLe<uint32_t>(p + kCrVersion, kJournalVersion);
  StoreLe<uint64_t>(p + kCrTxId, tx_id);
  StoreLe<uint64_t>(p + kCrNumRecords, n);
  StoreLe<uint32_t>(p + kCrDescCrc,
                    Crc32(desc.subspan(0, n * kDescEntrySize)));
  StoreLe<uint32_t>(p + kCrCrc, Crc32(commit.subspan(0, kCrCrc)));
  RETURN_IF_ERROR(device_->WriteBlock(nb - 1, commit.span()));
  return device_->Flush();
}

Result<ReplayReport> Journal::Replay(BlockDevice* device) {
  ReplayReport report;
  uint64_t nb = device->num_blocks();
  if (nb < 4) {
    return report;
  }
  Buffer commit(kBlockSize);
  RETURN_IF_ERROR(device->ReadBlock(nb - 1, commit.mutable_span()));
  const uint8_t* p = commit.data();
  if (LoadLe<uint32_t>(p + kCrMagic) != kJournalMagic ||
      LoadLe<uint32_t>(p + kCrVersion) != kJournalVersion ||
      LoadLe<uint32_t>(p + kCrCrc) != Crc32(commit.subspan(0, kCrCrc))) {
    return report;
  }
  uint64_t tx_id = LoadLe<uint64_t>(p + kCrTxId);
  uint64_t n = LoadLe<uint64_t>(p + kCrNumRecords);
  if (tx_id == 0 || n == 0 || n >= nb) {
    return report;
  }
  uint64_t desc_blocks = DescBlocksFor(n);
  if (1 + desc_blocks + n >= nb) {  // region must leave room for block 0
    return report;
  }
  uint64_t desc_lo = nb - 1 - desc_blocks;
  uint64_t payload_lo = desc_lo - n;

  Buffer desc(desc_blocks * kBlockSize);
  for (uint64_t b = 0; b < desc_blocks; ++b) {
    RETURN_IF_ERROR(device->ReadBlock(
        desc_lo + b, desc.mutable_span().subspan(b * kBlockSize, kBlockSize)));
  }
  if (LoadLe<uint32_t>(p + kCrDescCrc) !=
      Crc32(desc.subspan(0, n * kDescEntrySize))) {
    return report;
  }

  // Validate every record before applying any: a single torn payload
  // invalidates the whole transaction.
  std::map<BlockNum, Buffer> records;
  Buffer payload(kBlockSize);
  for (uint64_t i = 0; i < n; ++i) {
    const uint8_t* e = desc.data() + i * kDescEntrySize;
    uint64_t home = LoadLe<uint64_t>(e + 0);
    if (home >= payload_lo) {
      return report;
    }
    RETURN_IF_ERROR(device->ReadBlock(payload_lo + i, payload.mutable_span()));
    if (LoadLe<uint64_t>(e + 8) != PayloadTag(tx_id, home, payload.span())) {
      return report;
    }
    records[home] = payload;
  }

  for (const auto& [home, data] : records) {
    RETURN_IF_ERROR(device->WriteBlock(home, data.span()));
  }
  RETURN_IF_ERROR(device->Flush());
  report.tx_id = tx_id;
  report.blocks_replayed = records.size();
  return report;
}

}  // namespace springfs::ufs
