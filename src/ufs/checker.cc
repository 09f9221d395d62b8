#include "src/ufs/checker.h"

#include <deque>
#include <map>
#include <set>

#include "src/ufs/journal.h"

namespace springfs::ufs {

std::string CheckReport::Summary() const {
  std::string out = "checked " + std::to_string(inodes_checked) + " inodes, " +
                    std::to_string(blocks_referenced) + " data blocks, " +
                    std::to_string(directories_walked) + " directories: ";
  if (clean()) {
    out += "clean";
  } else {
    out += std::to_string(errors.size()) + " error(s)";
    for (const auto& err : errors) {
      out += "\n  - " + err;
    }
  }
  return out;
}

Result<CheckReport> Checker::Check() {
  CheckReport report;
  Buffer block(kBlockSize);

  // Check the image that Mount's replay would produce, as e2fsck replays
  // the journal before it checks: the newest live log copy of each block
  // overlays its home copy.
  ASSIGN_OR_RETURN(LiveLog live, Journal::Scan(device_));
  auto read = [&](BlockNum b, MutableByteSpan out) -> Status {
    auto it = live.homes.find(b);
    if (it == live.homes.end()) {
      return device_->ReadBlock(b, out);
    }
    std::memcpy(out.data(), it->second.data(), kBlockSize);
    return Status::Ok();
  };

  RETURN_IF_ERROR(read(0, block.mutable_span()));
  Result<Superblock> sb_result = Superblock::Decode(block.span());
  if (!sb_result.ok()) {
    report.errors.push_back("superblock: " + sb_result.status().ToString());
    return report;
  }
  Superblock sb = sb_result.take_value();
  if (sb.num_blocks > device_->num_blocks()) {
    report.errors.push_back("superblock block count exceeds device");
    return report;
  }
  if (sb.jnl_blocks == 0) {
    report.errors.push_back("superblock names no journal");
    return report;
  }
  // The data area ends where the journal region begins.
  const uint64_t data_end = sb.jnl_start();
  if (sb.data_start >= data_end) {
    report.errors.push_back("superblock geometry leaves no data area");
    return report;
  }

  // Load bitmaps.
  auto load_bitmap = [&](uint64_t start, uint64_t bits) -> Result<std::vector<uint8_t>> {
    std::vector<uint8_t> raw((bits + 7) / 8, 0);
    uint64_t nblocks = (bits + 8ull * kBlockSize - 1) / (8ull * kBlockSize);
    for (uint64_t b = 0; b < nblocks; ++b) {
      RETURN_IF_ERROR(read(start + b, block.mutable_span()));
      size_t offset = b * kBlockSize;
      size_t count = std::min<size_t>(kBlockSize, raw.size() - offset);
      std::memcpy(raw.data() + offset, block.data(), count);
    }
    return raw;
  };
  auto bit_of = [](const std::vector<uint8_t>& raw, uint64_t bit) {
    return (raw[bit / 8] >> (bit % 8)) & 1;
  };

  ASSIGN_OR_RETURN(std::vector<uint8_t> inode_bits,
                   load_bitmap(sb.ibm_start, sb.num_inodes));
  ASSIGN_OR_RETURN(std::vector<uint8_t> data_bits,
                   load_bitmap(sb.dbm_start, sb.num_blocks));

  // Decode all allocated inodes.
  std::map<InodeNum, Inode> inodes;
  for (InodeNum ino = 1; ino < sb.num_inodes; ++ino) {
    if (!bit_of(inode_bits, ino)) {
      continue;
    }
    BlockNum itb_block = sb.itb_start + ino / kInodesPerBlock;
    RETURN_IF_ERROR(read(itb_block, block.mutable_span()));
    size_t slot = (ino % kInodesPerBlock) * kInodeSize;
    Result<Inode> decoded = Inode::Decode(block.subspan(slot, kInodeSize));
    if (!decoded.ok()) {
      report.errors.push_back("inode " + std::to_string(ino) + ": " +
                              decoded.status().ToString());
      continue;
    }
    Inode inode = decoded.take_value();
    if (inode.IsFree()) {
      report.errors.push_back("inode " + std::to_string(ino) +
                              " allocated in bitmap but marked free");
      continue;
    }
    if (inode.type != FileType::kRegular &&
        inode.type != FileType::kDirectory &&
        inode.type != FileType::kSymlink) {
      report.errors.push_back("inode " + std::to_string(ino) +
                              " has invalid type");
      continue;
    }
    inodes[ino] = inode;
    ++report.inodes_checked;
  }

  if (inodes.find(kRootInode) == inodes.end()) {
    report.errors.push_back("root inode missing");
  } else if (inodes[kRootInode].type != FileType::kDirectory) {
    report.errors.push_back("root inode is not a directory");
  }

  // Walk every inode's block tree; each data block must be referenced once.
  std::map<BlockNum, InodeNum> referenced;
  auto reference = [&](InodeNum ino, BlockNum b) {
    if (b == 0) {
      return;
    }
    if (b < sb.data_start || b >= data_end) {
      report.errors.push_back("inode " + std::to_string(ino) +
                              " references out-of-area block " +
                              std::to_string(b));
      return;
    }
    auto [it, inserted] = referenced.emplace(b, ino);
    if (!inserted) {
      report.errors.push_back("block " + std::to_string(b) +
                              " referenced by inodes " +
                              std::to_string(it->second) + " and " +
                              std::to_string(ino));
      return;
    }
    if (!bit_of(data_bits, b)) {
      report.errors.push_back("block " + std::to_string(b) +
                              " referenced but free in bitmap");
    }
    ++report.blocks_referenced;
  };

  Buffer ptr_block(kBlockSize);
  Buffer ptr_block2(kBlockSize);
  for (const auto& [ino, inode] : inodes) {
    for (uint32_t i = 0; i < kNumDirect; ++i) {
      reference(ino, inode.direct[i]);
    }
    if (inode.indirect != 0) {
      reference(ino, inode.indirect);
      RETURN_IF_ERROR(read(inode.indirect, ptr_block.mutable_span()));
      for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
        reference(ino, LoadLe<uint64_t>(ptr_block.data() + 8 * i));
      }
    }
    if (inode.dindirect != 0) {
      reference(ino, inode.dindirect);
      RETURN_IF_ERROR(read(inode.dindirect, ptr_block.mutable_span()));
      for (uint32_t o = 0; o < kPtrsPerBlock; ++o) {
        BlockNum level2 = LoadLe<uint64_t>(ptr_block.data() + 8 * o);
        if (level2 == 0) {
          continue;
        }
        reference(ino, level2);
        if (level2 < sb.data_start || level2 >= data_end) {
          continue;
        }
        RETURN_IF_ERROR(read(level2, ptr_block2.mutable_span()));
        for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
          reference(ino, LoadLe<uint64_t>(ptr_block2.data() + 8 * i));
        }
      }
    }
  }

  // Allocated-but-unreferenced data blocks (leaks).
  uint64_t free_blocks = 0;
  for (BlockNum b = sb.data_start; b < data_end; ++b) {
    bool allocated = bit_of(data_bits, b);
    if (!allocated) {
      ++free_blocks;
      continue;
    }
    if (referenced.find(b) == referenced.end()) {
      report.errors.push_back("block " + std::to_string(b) +
                              " allocated but unreferenced (leak)");
    }
  }
  if (free_blocks != sb.free_blocks) {
    report.errors.push_back(
        "superblock free_blocks=" + std::to_string(sb.free_blocks) +
        " but bitmap says " + std::to_string(free_blocks));
  }
  uint64_t free_inodes = 0;
  for (InodeNum ino = 0; ino < sb.num_inodes; ++ino) {
    if (!bit_of(inode_bits, ino)) {
      ++free_inodes;
    }
  }
  if (free_inodes != sb.free_inodes) {
    report.errors.push_back(
        "superblock free_inodes=" + std::to_string(sb.free_inodes) +
        " but bitmap says " + std::to_string(free_inodes));
  }

  // Directory walk from the root: entries must name allocated inodes; count
  // references for link-count validation and reachability.
  std::map<InodeNum, uint32_t> ref_counts;
  std::set<InodeNum> reachable;
  std::deque<InodeNum> queue;
  if (inodes.count(kRootInode) != 0) {
    queue.push_back(kRootInode);
    reachable.insert(kRootInode);
    ref_counts[kRootInode] = 1;  // the implicit mount reference
  }
  auto map_file_block = [&](const Inode& inode,
                            uint64_t fb) -> Result<BlockNum> {
    if (fb < kNumDirect) {
      return BlockNum{inode.direct[fb]};
    }
    fb -= kNumDirect;
    if (fb < kPtrsPerBlock) {
      if (inode.indirect == 0) {
        return BlockNum{0};
      }
      RETURN_IF_ERROR(read(inode.indirect, ptr_block.mutable_span()));
      return BlockNum{LoadLe<uint64_t>(ptr_block.data() + 8 * fb)};
    }
    fb -= kPtrsPerBlock;
    if (inode.dindirect == 0) {
      return BlockNum{0};
    }
    RETURN_IF_ERROR(read(inode.dindirect, ptr_block.mutable_span()));
    BlockNum level2 =
        LoadLe<uint64_t>(ptr_block.data() + 8 * (fb / kPtrsPerBlock));
    if (level2 == 0) {
      return BlockNum{0};
    }
    RETURN_IF_ERROR(read(level2, ptr_block2.mutable_span()));
    return BlockNum{
        LoadLe<uint64_t>(ptr_block2.data() + 8 * (fb % kPtrsPerBlock))};
  };

  while (!queue.empty()) {
    InodeNum dir = queue.front();
    queue.pop_front();
    const Inode& dir_inode = inodes[dir];
    ++report.directories_walked;
    uint64_t nblocks = (dir_inode.size + kBlockSize - 1) / kBlockSize;
    for (uint64_t fb = 0; fb < nblocks; ++fb) {
      ASSIGN_OR_RETURN(BlockNum dev_block, map_file_block(dir_inode, fb));
      if (dev_block == 0) {
        continue;
      }
      RETURN_IF_ERROR(read(dev_block, block.mutable_span()));
      for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
        DirEntry entry = DirEntry::Decode(block.subspan(e * kDirEntrySize,
                                                        kDirEntrySize));
        if (entry.ino == kInvalidInode) {
          continue;
        }
        auto target = inodes.find(entry.ino);
        if (target == inodes.end()) {
          report.errors.push_back("directory " + std::to_string(dir) +
                                  " entry '" + entry.name +
                                  "' names unallocated inode " +
                                  std::to_string(entry.ino));
          continue;
        }
        ref_counts[entry.ino]++;
        if (reachable.insert(entry.ino).second &&
            target->second.type == FileType::kDirectory) {
          queue.push_back(entry.ino);
        }
      }
    }
  }

  for (const auto& [ino, inode] : inodes) {
    uint32_t refs = ref_counts.count(ino) ? ref_counts[ino] : 0;
    if (inode.nlink != refs) {
      report.errors.push_back("inode " + std::to_string(ino) + " nlink=" +
                              std::to_string(inode.nlink) + " but " +
                              std::to_string(refs) + " references");
    }
    if (reachable.find(ino) == reachable.end()) {
      report.errors.push_back("inode " + std::to_string(ino) +
                              " unreachable from root (orphan)");
    }
  }

  return report;
}

}  // namespace springfs::ufs
