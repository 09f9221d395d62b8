// The per-node virtual memory manager (paper section 3.3).
//
// The VMM "is responsible for handling mapping, sharing, and caching of
// local memory" and "depends on external pagers for accessing backing store
// and maintaining inter-machine coherency." This implementation:
//
//   * implements the CacheManager / CacheObject side of pager-cache
//     channels (Appendix A),
//   * maintains a page cache keyed by channel identity, so that two
//     equivalent memory objects — or a stacked file system that forwards
//     bind to the layer below — share the same cached pages,
//   * serves MappedRegion accesses with fault-driven page_in, write faults
//     that upgrade to read-write rights (letting the pager run its
//     coherency protocol), and LRU eviction with page_out of dirty pages,
//   * clusters read faults: sequential access widens an adaptive window
//     (doubling up to read_ahead_pages, resetting on random access) so one
//     page_in brings in many pages, and contiguous dirty pages are written
//     back as single multi-page page_out / sync calls.
//
// Concurrency: the page cache is sharded per channel. A channel's page map
// and read-ahead state are guarded by that channel's own mutex; the channel
// table is guarded by a separate registry mutex, and the LRU clock, page
// count, and statistics are atomics. Faulting threads on different files
// therefore never contend on a shared lock.
//
// "Mapped" access is simulated: MappedRegion::Read/Write perform page-
// granular faulting and memcpy instead of relying on an MMU. The fault and
// coherency traffic — which is what the architecture is about — is real.

#ifndef SPRINGFS_VMM_VMM_H_
#define SPRINGFS_VMM_VMM_H_

#include <atomic>
#include <map>
#include <mutex>
#include <vector>

#include "src/obj/domain.h"
#include "src/obs/metrics.h"
#include "src/vmm/interfaces.h"

namespace springfs {

class MappedRegion;

struct VmmOptions {
  // Bounds the page cache; 0 means unbounded.
  size_t max_pages = 0;
  // Maximum fault cluster, in pages. A read fault that continues a
  // sequential run issues one page_in for an adaptive cluster (1, 2, 4, ...
  // capped here); random access resets the window to one page, and write
  // faults are never widened (the writer set must stay tight under the
  // MRSW protocol). 0 disables clustering entirely.
  uint32_t read_ahead_pages = 8;
};

class Vmm : public CacheManager, public Servant, public metrics::StatsProvider {
 public:
  // `max_pages` bounds the page cache; 0 means unbounded.
  static sp<Vmm> Create(sp<Domain> domain, std::string name,
                        size_t max_pages = 0);
  static sp<Vmm> Create(sp<Domain> domain, std::string name,
                        VmmOptions options);
  ~Vmm() override;

  // Maps `object` for this node. The bind operation on the memory object
  // establishes (or reuses) a pager-cache channel.
  Result<sp<MappedRegion>> Map(const sp<MemoryObject>& object,
                               AccessRights access);

  // --- CacheManager ---
  Result<ChannelSetup> EstablishChannel(uint64_t pager_key,
                                        sp<PagerObject> pager) override;
  std::string cache_manager_name() const override { return name_; }

  // --- StatsProvider ---
  std::string stats_prefix() const override { return "vmm/" + name_; }
  void CollectStats(const metrics::StatsEmitter& emit) const override;

  // Drops every cached page of every channel (testing: simulates memory
  // pressure). Dirty pages are paged out first, contiguous runs coalesced.
  Status DropAllPages();

 private:
  friend class MappedRegion;
  friend class VmmCacheObject;

  Vmm(sp<Domain> domain, std::string name, VmmOptions options);

  struct Page {
    Buffer data;
    AccessRights rights = AccessRights::kReadOnly;
    bool dirty = false;
    // Brought in by fault clustering but not yet demanded; the first
    // demand hit counts as a read_ahead_hit and clears the flag.
    bool prefetched = false;
    uint64_t lru_tick = 0;
  };

  static constexpr Offset kNoPrediction = ~Offset{0};

  // One pager-cache channel; one shard of the page cache. `mutex` guards
  // `pages` and the read-ahead state. The identity fields and `pager` are
  // immutable after EstablishChannel and need no lock.
  struct Channel {
    uint64_t id = 0;
    uint64_t pager_key = 0;
    sp<PagerObject> pager;
    sp<CacheObject> cache_object;
    sp<CacheRights> rights_object;

    std::mutex mutex;
    std::map<Offset, Page> pages;
    // Set by CacheDestroy under `mutex`; an in-flight fault must not
    // repopulate a torn-down channel (the page count would leak).
    bool destroyed = false;
    // Adaptive fault clustering: the offset at which the next fault counts
    // as sequential, and the current cluster width in pages.
    Offset next_expected = kNoPrediction;
    uint32_t cluster_pages = 1;
  };

  // MappedRegion entry points.
  Status RegionRead(uint64_t channel_id, Offset offset, MutableByteSpan out);
  Status RegionWrite(uint64_t channel_id, Offset offset, ByteSpan data);
  Status RegionSync(uint64_t channel_id);

  sp<Channel> FindChannel(uint64_t channel_id) const;

  uint64_t NextLruTick() {
    return lru_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // Ensures the page at `page_offset` is cached with at least `access`;
  // invokes `with_page` under the channel lock. The hot hit path takes only
  // that channel's lock and allocates nothing; misses go through the cold
  // clustered-fault path.
  template <typename WithPage>
  Status EnsurePageAnd(uint64_t channel_id, Offset page_offset,
                       AccessRights access, WithPage&& with_page) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      sp<Channel> ch = FindChannel(channel_id);
      if (ch == nullptr) {
        return ErrStale("channel destroyed");
      }
      {
        std::lock_guard<std::mutex> lock(ch->mutex);
        auto page_it = ch->pages.find(page_offset);
        if (page_it != ch->pages.end() &&
            (access == AccessRights::kReadOnly ||
             page_it->second.rights == AccessRights::kReadWrite)) {
          Page& page = page_it->second;
          page_hits_.fetch_add(1, std::memory_order_relaxed);
          if (page.prefetched) {
            page.prefetched = false;
            read_ahead_hits_.fetch_add(1, std::memory_order_relaxed);
          }
          page.lru_tick = NextLruTick();
          with_page(page);
          return Status::Ok();
        }
      }
      RETURN_IF_ERROR(FaultCluster(*ch, page_offset, access));
      // Loop: re-check under the lock (a concurrent coherency action may
      // have already invalidated what we just brought in).
    }
    return ErrBusy("page repeatedly invalidated during fault");
  }

  // Cold fault path: picks a cluster size from the channel's sequential
  // detector, issues one page_in for the whole cluster with no lock held
  // (pagers may call back into our cache objects re-entrantly), and
  // populates every returned page.
  Status FaultCluster(Channel& ch, Offset page_offset, AccessRights access);

  // Inserts one page under `ch.mutex`. Pages that appeared (or were
  // dirtied) while a pager call was in flight are never clobbered; only the
  // demanded page may upgrade a still-clean mapping in place.
  void InsertPageLocked(Channel& ch, Offset offset, AccessRights access,
                        Buffer&& data, Offset demanded);

  // Evicts LRU pages until the cache fits; never called with a lock held.
  // Dirty victims take their contiguous dirty neighbours with them in one
  // multi-page page_out (cluster write-back).
  Status EvictIfNeeded();

  // Cache-object callbacks (invoked by pagers), one per channel.
  Result<std::vector<BlockData>> CacheFlushBack(uint64_t channel_id,
                                                Range range);
  Result<std::vector<BlockData>> CacheDenyWrites(uint64_t channel_id,
                                                 Range range);
  Result<std::vector<BlockData>> CacheWriteBack(uint64_t channel_id,
                                                Range range);
  Status CacheDeleteRange(uint64_t channel_id, Range range);
  Status CacheZeroFill(uint64_t channel_id, Range range);
  Status CachePopulate(uint64_t channel_id, Offset offset, AccessRights access,
                       ByteSpan data);
  Status CacheDestroy(uint64_t channel_id);

  std::string name_;
  const size_t max_pages_;
  const uint32_t read_ahead_pages_;

  // Guards only the channel table; per-channel state has its own lock.
  mutable std::mutex channels_mutex_;
  std::map<uint64_t, sp<Channel>> channels_;          // by channel id
  std::map<uint64_t, uint64_t> channel_by_pager_key_;
  uint64_t next_channel_id_ = 1;

  std::atomic<uint64_t> lru_clock_{0};
  std::atomic<size_t> total_pages_{0};

  std::atomic<uint64_t> faults_{0};
  std::atomic<uint64_t> page_hits_{0};
  std::atomic<uint64_t> read_ahead_hits_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> flush_backs_{0};
  std::atomic<uint64_t> deny_writes_{0};
  std::atomic<uint64_t> write_backs_{0};
};

// A memory object mapped into an address space. Read/Write simulate
// load/store access to the mapping: they fault pages in through the
// pager-cache channel and copy through the VMM page cache.
class MappedRegion : public virtual Object {
 public:
  MappedRegion(sp<Vmm> vmm, uint64_t channel_id, AccessRights access);

  const char* interface_name() const override { return "mapped_region"; }

  // Load from the mapping. Faults pages read-only.
  Status Read(Offset offset, MutableByteSpan out);

  // Store to the mapping. Faults pages read-write (kPermissionDenied for
  // read-only mappings).
  Status Write(Offset offset, ByteSpan data);

  // Pushes dirty pages to the pager (pager_object::sync); pages stay cached.
  Status Sync();

  uint64_t channel_id() const { return channel_id_; }
  AccessRights access() const { return access_; }

 private:
  sp<Vmm> vmm_;
  uint64_t channel_id_;
  AccessRights access_;
};

}  // namespace springfs

#endif  // SPRINGFS_VMM_VMM_H_
