// fsck-style consistency checker for the UFS substrate. Property tests run
// random workloads and then assert a clean check; corruption tests flip
// on-disk bits and assert the checker notices.

#ifndef SPRINGFS_UFS_CHECKER_H_
#define SPRINGFS_UFS_CHECKER_H_

#include <string>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/ufs/layout.h"

namespace springfs::ufs {

struct CheckReport {
  std::vector<std::string> errors;
  uint64_t inodes_checked = 0;
  uint64_t blocks_referenced = 0;
  uint64_t directories_walked = 0;

  bool clean() const { return errors.empty(); }
  std::string Summary() const;
};

// Offline checker: operates on the raw device (the file system must be
// synced, and may stay mounted). Like e2fsck, it checks the image that
// journal replay would produce: the newest copy of each block in the live
// log, found by the same validated scan Mount uses, overlays its home copy.
// Verifies:
//  * superblock decodes, names a journal, and its geometry fits the device
//  * every allocated inode decodes and has a valid type
//  * every block referenced by any inode is inside the data area, marked
//    allocated, and referenced exactly once
//  * the data bitmap has no allocated-but-unreferenced data blocks
//  * free counts in the superblock match the bitmaps
//  * every directory entry names an allocated inode
//  * link counts match the number of directory references
//  * all inodes are reachable from the root directory
class Checker {
 public:
  explicit Checker(BlockDevice* device) : device_(device) {}

  Result<CheckReport> Check();

 private:
  BlockDevice* device_;
};

}  // namespace springfs::ufs

#endif  // SPRINGFS_UFS_CHECKER_H_
