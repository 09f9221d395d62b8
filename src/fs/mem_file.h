// MemFile: a reference, fully coherent in-memory file.
//
// MemFile is the smallest complete pager in the repository: it owns its
// backing store (a RAM buffer), services pager-cache channels through a
// PagerChannelTable, and keeps every cache manager coherent with a
// CoherencyEngine (per-block single-writer/multiple-reader). It exists
// (a) as the substrate for VMM and coherency unit tests, and (b) as the
// file implementation of tmpfs-style contexts used in examples.

#ifndef SPRINGFS_FS_MEM_FILE_H_
#define SPRINGFS_FS_MEM_FILE_H_

#include <mutex>

#include "src/coherency/engine.h"
#include "src/fs/channel_table.h"
#include "src/fs/file.h"
#include "src/obj/domain.h"
#include "src/support/clock.h"

namespace springfs {

class MemFile : public File, public Servant {
 public:
  static sp<MemFile> Create(sp<Domain> domain,
                            Clock* clock = &DefaultClock());

  const char* interface_name() const override { return "mem_file"; }

  // --- MemoryObject ---
  Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                               AccessRights requested_access) override;
  Result<Offset> GetLength() override;
  Status SetLength(Offset length) override;

  // --- File ---
  Result<size_t> Read(Offset offset, MutableByteSpan out) override;
  Result<size_t> Write(Offset offset, ByteSpan data) override;
  Result<FileAttributes> Stat() override;
  Status SetTimes(uint64_t atime_ns, uint64_t mtime_ns) override;
  Status SyncFile() override;

  // Test probes.
  CoherencyStats coherency_stats() const;
  size_t num_channels() const { return channels_.NumChannels(); }

 private:
  friend class MemFilePagerObject;

  MemFile(sp<Domain> domain, Clock* clock);

  // Pager entry points (called by MemFilePagerObject). `channel` identifies
  // the requesting cache manager.
  Result<Buffer> PagerPageIn(uint64_t channel, Offset offset, Offset size,
                             AccessRights access);
  Status PagerWrite(uint64_t channel, Offset offset, ByteSpan data,
                    bool drops, bool downgrades);
  void PagerDone(uint64_t channel);
  Result<FileAttributes> PagerGetAttributes();
  Status PagerWriteAttributes(const AttrUpdate& update);

  // Runs the engine's Acquire and folds the dirty blocks it recovered from
  // demoted caches into the store (also when it failed); mutex_ held.
  Status AcquireLocked(uint64_t requester, Range range, AccessRights access);

  Clock* clock_;
  mutable std::mutex mutex_;
  Buffer store_;
  FileAttributes attrs_;
  uint64_t pager_key_;
  PagerChannelTable channels_;
  CoherencyEngine engine_;
};

}  // namespace springfs

#endif  // SPRINGFS_FS_MEM_FILE_H_
