#include "src/vmm/vmm.h"

#include <algorithm>
#include <cstring>

#include "src/obs/trace.h"

namespace springfs {
namespace {

metrics::OpMetric& FaultMetric() {
  static metrics::OpMetric metric("vmm/fault");
  return metric;
}

metrics::OpMetric& MapMetric() {
  static metrics::OpMetric metric("vmm/map");
  return metric;
}

// Distribution of fault cluster widths, in pages. A healthy sequential
// workload shows mass in the high power-of-two buckets; pure random access
// stays in bucket 1.
metrics::Histogram& ClusterSizeHistogram() {
  static metrics::Histogram& histogram =
      metrics::Registry::Global().histogram("vmm/fault.cluster_pages");
  return histogram;
}

// A contiguous run of pages headed for one multi-page pager call.
struct DirtyRun {
  Offset offset = 0;
  Buffer data;
};

}  // namespace

// The VMM's cache-object servant for one channel; pagers invoke it for
// coherency actions. Runs in the VMM's domain like any servant.
class VmmCacheObject : public CacheObject, public Servant {
 public:
  VmmCacheObject(sp<Domain> domain, wp<Vmm> vmm, uint64_t channel_id)
      : Servant(std::move(domain)), vmm_(std::move(vmm)),
        channel_id_(channel_id) {}

  Result<std::vector<BlockData>> FlushBack(Range range) override {
    return InDomain([&]() -> Result<std::vector<BlockData>> {
      sp<Vmm> vmm = vmm_.lock();
      if (!vmm) {
        return ErrDeadObject("vmm gone");
      }
      return vmm->CacheFlushBack(channel_id_, range);
    });
  }

  Result<std::vector<BlockData>> DenyWrites(Range range) override {
    return InDomain([&]() -> Result<std::vector<BlockData>> {
      sp<Vmm> vmm = vmm_.lock();
      if (!vmm) {
        return ErrDeadObject("vmm gone");
      }
      return vmm->CacheDenyWrites(channel_id_, range);
    });
  }

  Result<std::vector<BlockData>> WriteBack(Range range) override {
    return InDomain([&]() -> Result<std::vector<BlockData>> {
      sp<Vmm> vmm = vmm_.lock();
      if (!vmm) {
        return ErrDeadObject("vmm gone");
      }
      return vmm->CacheWriteBack(channel_id_, range);
    });
  }

  Status DeleteRange(Range range) override {
    return InDomain([&]() -> Status {
      sp<Vmm> vmm = vmm_.lock();
      if (!vmm) {
        return ErrDeadObject("vmm gone");
      }
      return vmm->CacheDeleteRange(channel_id_, range);
    });
  }

  Status ZeroFill(Range range) override {
    return InDomain([&]() -> Status {
      sp<Vmm> vmm = vmm_.lock();
      if (!vmm) {
        return ErrDeadObject("vmm gone");
      }
      return vmm->CacheZeroFill(channel_id_, range);
    });
  }

  Status Populate(Offset offset, AccessRights access, ByteSpan data) override {
    return InDomain([&]() -> Status {
      sp<Vmm> vmm = vmm_.lock();
      if (!vmm) {
        return ErrDeadObject("vmm gone");
      }
      return vmm->CachePopulate(channel_id_, offset, access, data);
    });
  }

  Status DestroyCache() override {
    return InDomain([&]() -> Status {
      sp<Vmm> vmm = vmm_.lock();
      if (!vmm) {
        return ErrDeadObject("vmm gone");
      }
      return vmm->CacheDestroy(channel_id_);
    });
  }

 private:
  wp<Vmm> vmm_;
  uint64_t channel_id_;
};

sp<Vmm> Vmm::Create(sp<Domain> domain, std::string name, size_t max_pages) {
  VmmOptions options;
  options.max_pages = max_pages;
  return Create(std::move(domain), std::move(name), options);
}

sp<Vmm> Vmm::Create(sp<Domain> domain, std::string name, VmmOptions options) {
  return sp<Vmm>(new Vmm(std::move(domain), std::move(name), options));
}

Vmm::Vmm(sp<Domain> domain, std::string name, VmmOptions options)
    : Servant(std::move(domain)), name_(std::move(name)),
      max_pages_(options.max_pages),
      read_ahead_pages_(options.read_ahead_pages) {
  metrics::Registry::Global().RegisterProvider(this);
}

Vmm::~Vmm() {
  metrics::Registry::Global().UnregisterProvider(this);
  // A cache manager that goes away closes its channels: each pager forgets
  // this VMM's cache object (a DFS mount also unbinds it at the server).
  // Dirty pages nobody synced go with the VMM.
  for (const auto& [id, ch] : channels_) {
    ch->pager->DoneWithPagerObject();
  }
}

void Vmm::CollectStats(const metrics::StatsEmitter& emit) const {
  emit("faults", faults_.load(std::memory_order_relaxed));
  emit("page_hits", page_hits_.load(std::memory_order_relaxed));
  emit("read_ahead_hits", read_ahead_hits_.load(std::memory_order_relaxed));
  emit("evictions", evictions_.load(std::memory_order_relaxed));
  emit("pages_cached", total_pages_.load(std::memory_order_relaxed));
  emit("flush_backs", flush_backs_.load(std::memory_order_relaxed));
  emit("deny_writes", deny_writes_.load(std::memory_order_relaxed));
  emit("write_backs", write_backs_.load(std::memory_order_relaxed));
}

Result<CacheManager::ChannelSetup> Vmm::EstablishChannel(
    uint64_t pager_key, sp<PagerObject> pager) {
  return InDomain([&]() -> Result<ChannelSetup> {
    std::lock_guard<std::mutex> lock(channels_mutex_);
    auto existing = channel_by_pager_key_.find(pager_key);
    if (existing != channel_by_pager_key_.end()) {
      const sp<Channel>& ch = channels_.at(existing->second);
      return ChannelSetup{ch->cache_object, ch->rights_object};
    }
    uint64_t id = next_channel_id_++;
    auto ch = std::make_shared<Channel>();
    ch->id = id;
    ch->pager_key = pager_key;
    ch->pager = std::move(pager);
    ch->cache_object = std::make_shared<VmmCacheObject>(
        domain(), std::dynamic_pointer_cast<Vmm>(shared_from_this()), id);
    ch->rights_object = std::make_shared<ChannelRights>(id);
    ChannelSetup setup{ch->cache_object, ch->rights_object};
    channels_.emplace(id, std::move(ch));
    channel_by_pager_key_.emplace(pager_key, id);
    return setup;
  });
}

sp<Vmm::Channel> Vmm::FindChannel(uint64_t channel_id) const {
  std::lock_guard<std::mutex> lock(channels_mutex_);
  auto it = channels_.find(channel_id);
  return it == channels_.end() ? nullptr : it->second;
}

Result<sp<MappedRegion>> Vmm::Map(const sp<MemoryObject>& object,
                                  AccessRights access) {
  metrics::TimedOp timed(MapMetric(), "vmm.map");
  sp<Vmm> self = std::dynamic_pointer_cast<Vmm>(shared_from_this());
  ASSIGN_OR_RETURN(sp<CacheRights> rights, object->Bind(self, access));
  uint64_t channel_id = rights->channel_id();
  if (FindChannel(channel_id) == nullptr) {
    return ErrInvalidArgument(
        "bind returned cache rights for a channel this VMM does not own");
  }
  return std::make_shared<MappedRegion>(self, channel_id, access);
}

void Vmm::InsertPageLocked(Channel& ch, Offset offset, AccessRights access,
                           Buffer&& data, Offset demanded) {
  auto it = ch.pages.find(offset);
  if (it != ch.pages.end()) {
    Page& existing = it->second;
    // A page that appeared (or was dirtied) while the pager call was in
    // flight is newer than what the pager returned: keep it. Only the
    // demanded page may upgrade a still-clean read-only mapping in place.
    if (offset != demanded || existing.dirty ||
        existing.rights == AccessRights::kReadWrite) {
      return;
    }
    existing.data = std::move(data);
    existing.rights = access;
    existing.prefetched = false;
    existing.lru_tick = NextLruTick();
    return;
  }
  Page page;
  page.data = std::move(data);
  page.rights = access;
  page.dirty = false;
  page.prefetched = (offset != demanded);
  page.lru_tick = NextLruTick();
  ch.pages.emplace(offset, std::move(page));
  total_pages_.fetch_add(1, std::memory_order_relaxed);
}

Status Vmm::FaultCluster(Channel& ch, Offset page_offset, AccessRights access) {
  // Pick the cluster width from the sequential detector. Write faults are
  // never widened: a clustered read-write page_in would claim write
  // ownership over pages nobody is storing to, inflating coherency traffic.
  uint32_t cluster = 1;
  {
    std::lock_guard<std::mutex> lock(ch.mutex);
    if (ch.destroyed) {
      return ErrStale("channel destroyed");
    }
    if (access == AccessRights::kReadOnly && read_ahead_pages_ > 0) {
      if (ch.next_expected == page_offset) {
        ch.cluster_pages =
            std::min<uint32_t>(ch.cluster_pages * 2, read_ahead_pages_);
      } else {
        ch.cluster_pages = 1;
      }
      cluster = std::max<uint32_t>(ch.cluster_pages, 1);
    }
    ch.next_expected = page_offset + Offset{cluster} * kPageSize;
  }

  // Issue the page_in with no lock held — the pager's coherency protocol
  // may re-enter our cache objects (deny_writes on another channel, or
  // even this one).
  faults_.fetch_add(1, std::memory_order_relaxed);
  ClusterSizeHistogram().Record(cluster);
  Result<Buffer> reply = [&] {
    metrics::TimedOp timed(FaultMetric(), "vmm.fault");
    return ch.pager->PageIn(page_offset, Offset{cluster} * kPageSize, access);
  }();
  if (!reply.ok() && cluster > 1) {
    // A widened fault may cross a range the pager refuses (EOF, a hole, a
    // revoked region). The demanded page alone must still be served.
    faults_.fetch_add(1, std::memory_order_relaxed);
    ClusterSizeHistogram().Record(1);
    metrics::TimedOp timed(FaultMetric(), "vmm.fault");
    reply = ch.pager->PageIn(page_offset, kPageSize, access);
  }
  RETURN_IF_ERROR(reply.status());
  Buffer data = std::move(*reply);
  if (data.size() == 0 || data.size() % kPageSize != 0) {
    data.resize(PageCeil(std::max<Offset>(data.size(), 1)));
  }

  {
    std::lock_guard<std::mutex> lock(ch.mutex);
    if (ch.destroyed) {
      return ErrStale("channel destroyed during fault");
    }
    if (data.size() == kPageSize) {
      // Exactly one page: adopt the reply buffer, no copy.
      InsertPageLocked(ch, page_offset, access, std::move(data), page_offset);
    } else {
      for (Offset off = 0; off < data.size(); off += kPageSize) {
        InsertPageLocked(ch, page_offset + off, access,
                         Buffer(data.subspan(off, kPageSize)), page_offset);
      }
    }
    // The pager may have over-delivered (its own read-ahead); count a fault
    // at the end of whatever actually arrived as sequential too.
    if (access == AccessRights::kReadOnly) {
      ch.next_expected =
          std::max<Offset>(ch.next_expected, page_offset + data.size());
    }
  }
  return EvictIfNeeded();
}

Status Vmm::EvictIfNeeded() {
  if (max_pages_ == 0) {
    return Status::Ok();
  }
  while (total_pages_.load(std::memory_order_relaxed) > max_pages_) {
    // Phase 1: find the globally least-recently-used page, taking one
    // channel lock at a time.
    std::vector<sp<Channel>> snapshot;
    {
      std::lock_guard<std::mutex> lock(channels_mutex_);
      snapshot.reserve(channels_.size());
      for (const auto& [id, ch] : channels_) {
        snapshot.push_back(ch);
      }
    }
    sp<Channel> victim_ch;
    Offset victim_offset = 0;
    uint64_t best_tick = ~0ull;
    for (const sp<Channel>& ch : snapshot) {
      std::lock_guard<std::mutex> lock(ch->mutex);
      for (const auto& [off, page] : ch->pages) {
        if (page.lru_tick < best_tick) {
          best_tick = page.lru_tick;
          victim_ch = ch;
          victim_offset = off;
        }
      }
    }
    if (victim_ch == nullptr) {
      return Status::Ok();
    }

    // Phase 2: re-lock the victim's channel, re-verify, and evict. A dirty
    // victim takes its contiguous dirty neighbours with it so the write-back
    // is one multi-page page_out (cluster write-back).
    DirtyRun run;
    bool dirty = false;
    {
      std::lock_guard<std::mutex> lock(victim_ch->mutex);
      auto it = victim_ch->pages.find(victim_offset);
      if (it == victim_ch->pages.end()) {
        continue;  // raced with an invalidation; rescan
      }
      dirty = it->second.dirty;
      if (!dirty) {
        victim_ch->pages.erase(it);
        total_pages_.fetch_sub(1, std::memory_order_relaxed);
        evictions_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Offset lo = victim_offset;
      Offset hi = victim_offset + kPageSize;
      while (lo >= kPageSize) {
        auto prev = victim_ch->pages.find(lo - kPageSize);
        if (prev == victim_ch->pages.end() || !prev->second.dirty) {
          break;
        }
        lo -= kPageSize;
      }
      for (;;) {
        auto next = victim_ch->pages.find(hi);
        if (next == victim_ch->pages.end() || !next->second.dirty) {
          break;
        }
        hi += kPageSize;
      }
      run.offset = lo;
      run.data = Buffer(hi - lo);
      size_t evicted = 0;
      for (Offset off = lo; off < hi; off += kPageSize) {
        auto page_it = victim_ch->pages.find(off);
        std::memcpy(run.data.data() + (off - lo), page_it->second.data.data(),
                    kPageSize);
        victim_ch->pages.erase(page_it);
        ++evicted;
      }
      total_pages_.fetch_sub(evicted, std::memory_order_relaxed);
      evictions_.fetch_add(evicted, std::memory_order_relaxed);
    }
    if (dirty) {
      trace::ScopedSpan span("vmm.evict");
      RETURN_IF_ERROR(victim_ch->pager->PageOut(run.offset, run.data.span()));
    }
  }
  return Status::Ok();
}

Status Vmm::RegionRead(uint64_t channel_id, Offset offset,
                       MutableByteSpan out) {
  size_t done = 0;
  while (done < out.size()) {
    Offset page_offset = PageFloor(offset + done);
    size_t in_page = (offset + done) - page_offset;
    size_t chunk = std::min<size_t>(kPageSize - in_page, out.size() - done);
    RETURN_IF_ERROR(EnsurePageAnd(
        channel_id, page_offset, AccessRights::kReadOnly, [&](Page& page) {
          std::memcpy(out.data() + done, page.data.data() + in_page, chunk);
        }));
    done += chunk;
  }
  return Status::Ok();
}

Status Vmm::RegionWrite(uint64_t channel_id, Offset offset, ByteSpan data) {
  size_t done = 0;
  while (done < data.size()) {
    Offset page_offset = PageFloor(offset + done);
    size_t in_page = (offset + done) - page_offset;
    size_t chunk = std::min<size_t>(kPageSize - in_page, data.size() - done);
    RETURN_IF_ERROR(EnsurePageAnd(
        channel_id, page_offset, AccessRights::kReadWrite, [&](Page& page) {
          std::memcpy(page.data.data() + in_page, data.data() + done, chunk);
          page.dirty = true;
        }));
    done += chunk;
  }
  return Status::Ok();
}

Status Vmm::RegionSync(uint64_t channel_id) {
  trace::ScopedSpan span("vmm.sync");
  sp<Channel> ch = FindChannel(channel_id);
  if (ch == nullptr) {
    return ErrStale("channel destroyed");
  }
  // Coalesce contiguous dirty pages into single multi-page sync calls.
  std::vector<DirtyRun> runs;
  {
    std::lock_guard<std::mutex> lock(ch->mutex);
    Offset run_end = 0;
    for (const auto& [off, page] : ch->pages) {
      if (!page.dirty) {
        continue;
      }
      if (runs.empty() || off != run_end) {
        runs.push_back(DirtyRun{off, Buffer(page.data.span())});
      } else {
        runs.back().data.WriteAt(runs.back().data.size(), page.data.span());
      }
      run_end = off + kPageSize;
    }
  }
  for (const DirtyRun& run : runs) {
    RETURN_IF_ERROR(ch->pager->Sync(run.offset, run.data.span()));
  }
  {
    std::lock_guard<std::mutex> lock(ch->mutex);
    for (const DirtyRun& run : runs) {
      for (Offset off = run.offset; off < run.offset + run.data.size();
           off += kPageSize) {
        auto page_it = ch->pages.find(off);
        if (page_it != ch->pages.end()) {
          page_it->second.dirty = false;
        }
      }
    }
  }
  return Status::Ok();
}

// --- cache-object callbacks ---

Result<std::vector<BlockData>> Vmm::CacheFlushBack(uint64_t channel_id,
                                                   Range range) {
  trace::ScopedSpan span("vmm.flush_back");
  flush_backs_.fetch_add(1, std::memory_order_relaxed);
  sp<Channel> ch = FindChannel(channel_id);
  if (ch == nullptr) {
    return ErrStale("channel destroyed");
  }
  std::lock_guard<std::mutex> lock(ch->mutex);
  Offset end = range.end();
  std::vector<BlockData> modified;
  auto it = ch->pages.lower_bound(PageFloor(range.offset));
  while (it != ch->pages.end() && it->first < end) {
    if (it->second.dirty) {
      modified.push_back(BlockData{it->first, std::move(it->second.data)});
    }
    it = ch->pages.erase(it);
    total_pages_.fetch_sub(1, std::memory_order_relaxed);
  }
  return modified;
}

Result<std::vector<BlockData>> Vmm::CacheDenyWrites(uint64_t channel_id,
                                                    Range range) {
  trace::ScopedSpan span("vmm.deny_writes");
  deny_writes_.fetch_add(1, std::memory_order_relaxed);
  sp<Channel> ch = FindChannel(channel_id);
  if (ch == nullptr) {
    return ErrStale("channel destroyed");
  }
  std::lock_guard<std::mutex> lock(ch->mutex);
  Offset end = range.end();
  std::vector<BlockData> modified;
  for (auto it = ch->pages.lower_bound(PageFloor(range.offset));
       it != ch->pages.end() && it->first < end; ++it) {
    Page& page = it->second;
    if (page.dirty) {
      modified.push_back(BlockData{it->first, page.data});
      page.dirty = false;
    }
    page.rights = AccessRights::kReadOnly;
  }
  return modified;
}

Result<std::vector<BlockData>> Vmm::CacheWriteBack(uint64_t channel_id,
                                                   Range range) {
  trace::ScopedSpan span("vmm.write_back");
  write_backs_.fetch_add(1, std::memory_order_relaxed);
  sp<Channel> ch = FindChannel(channel_id);
  if (ch == nullptr) {
    return ErrStale("channel destroyed");
  }
  std::lock_guard<std::mutex> lock(ch->mutex);
  Offset end = range.end();
  std::vector<BlockData> modified;
  for (auto it = ch->pages.lower_bound(PageFloor(range.offset));
       it != ch->pages.end() && it->first < end; ++it) {
    Page& page = it->second;
    if (page.dirty) {
      modified.push_back(BlockData{it->first, page.data});
      page.dirty = false;
    }
  }
  return modified;
}

Status Vmm::CacheDeleteRange(uint64_t channel_id, Range range) {
  sp<Channel> ch = FindChannel(channel_id);
  if (ch == nullptr) {
    return ErrStale("channel destroyed");
  }
  std::lock_guard<std::mutex> lock(ch->mutex);
  Offset end = range.end();
  auto it = ch->pages.lower_bound(PageFloor(range.offset));
  while (it != ch->pages.end() && it->first < end) {
    it = ch->pages.erase(it);
    total_pages_.fetch_sub(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

Status Vmm::CacheZeroFill(uint64_t channel_id, Range range) {
  sp<Channel> ch = FindChannel(channel_id);
  if (ch == nullptr) {
    return ErrStale("channel destroyed");
  }
  std::lock_guard<std::mutex> lock(ch->mutex);
  Offset end = range.end();
  for (auto it = ch->pages.lower_bound(PageFloor(range.offset));
       it != ch->pages.end() && it->first < end; ++it) {
    std::memset(it->second.data.data(), 0, it->second.data.size());
    it->second.dirty = false;
  }
  return Status::Ok();
}

Status Vmm::CachePopulate(uint64_t channel_id, Offset offset,
                          AccessRights access, ByteSpan data) {
  if (offset % kPageSize != 0 || data.size() % kPageSize != 0) {
    return ErrInvalidArgument("populate must be page-aligned");
  }
  sp<Channel> ch = FindChannel(channel_id);
  if (ch == nullptr) {
    return ErrStale("channel destroyed");
  }
  {
    std::lock_guard<std::mutex> lock(ch->mutex);
    if (ch->destroyed) {
      return ErrStale("channel destroyed");
    }
    // The pager is authoritative here: populate overwrites unconditionally.
    for (Offset off = 0; off < data.size(); off += kPageSize) {
      Page page;
      page.data = Buffer(data.subspan(off, kPageSize));
      page.rights = access;
      page.dirty = false;
      page.lru_tick = NextLruTick();
      auto [it, inserted] =
          ch->pages.insert_or_assign(offset + off, std::move(page));
      (void)it;
      if (inserted) {
        total_pages_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return EvictIfNeeded();
}

Status Vmm::CacheDestroy(uint64_t channel_id) {
  sp<Channel> ch;
  {
    std::lock_guard<std::mutex> lock(channels_mutex_);
    auto it = channels_.find(channel_id);
    if (it == channels_.end()) {
      return Status::Ok();
    }
    ch = it->second;
    channel_by_pager_key_.erase(ch->pager_key);
    channels_.erase(it);
  }
  std::lock_guard<std::mutex> lock(ch->mutex);
  ch->destroyed = true;
  total_pages_.fetch_sub(ch->pages.size(), std::memory_order_relaxed);
  ch->pages.clear();
  return Status::Ok();
}

Status Vmm::DropAllPages() {
  std::vector<sp<Channel>> snapshot;
  {
    std::lock_guard<std::mutex> lock(channels_mutex_);
    snapshot.reserve(channels_.size());
    for (const auto& [id, ch] : channels_) {
      snapshot.push_back(ch);
    }
  }
  Status first_error;
  for (const sp<Channel>& ch : snapshot) {
    // Coalesce contiguous dirty pages into single multi-page page_outs.
    std::vector<DirtyRun> runs;
    {
      std::lock_guard<std::mutex> lock(ch->mutex);
      Offset run_end = 0;
      for (auto& [off, page] : ch->pages) {
        if (page.dirty) {
          if (runs.empty() || off != run_end) {
            runs.push_back(DirtyRun{off, std::move(page.data)});
          } else {
            runs.back().data.WriteAt(runs.back().data.size(),
                                     page.data.span());
          }
          run_end = off + kPageSize;
        }
      }
      total_pages_.fetch_sub(ch->pages.size(), std::memory_order_relaxed);
      ch->pages.clear();
    }
    // Best effort across channels: one channel whose pager rejects the
    // write-back (e.g. a fenced/stale DFS channel after a server-side
    // eviction) must not strand every other channel's dirty data. The
    // first error is still reported.
    for (const DirtyRun& run : runs) {
      Status st = ch->pager->PageOut(run.offset, run.data.span());
      if (!st.ok() && first_error.ok()) {
        first_error = st;
      }
    }
  }
  return first_error;
}

// --- MappedRegion ---

MappedRegion::MappedRegion(sp<Vmm> vmm, uint64_t channel_id,
                           AccessRights access)
    : vmm_(std::move(vmm)), channel_id_(channel_id), access_(access) {}

Status MappedRegion::Read(Offset offset, MutableByteSpan out) {
  return vmm_->RegionRead(channel_id_, offset, out);
}

Status MappedRegion::Write(Offset offset, ByteSpan data) {
  if (access_ != AccessRights::kReadWrite) {
    return ErrPermissionDenied("store to read-only mapping");
  }
  return vmm_->RegionWrite(channel_id_, offset, data);
}

Status MappedRegion::Sync() { return vmm_->RegionSync(channel_id_); }

}  // namespace springfs
