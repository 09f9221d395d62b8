#include "src/layers/coherent/coherency_layer.h"

#include <algorithm>
#include <utility>

#include "src/naming/views.h"
#include "src/obs/trace.h"
#include "src/support/logging.h"

namespace springfs {
namespace {

metrics::OpMetric& PageInMetric() {
  static metrics::OpMetric metric("layer/coherent/page_in");
  return metric;
}

metrics::OpMetric& PageWriteMetric() {
  static metrics::OpMetric metric("layer/coherent/page_write");
  return metric;
}

metrics::OpMetric& ReadMetric() {
  static metrics::OpMetric metric("layer/coherent/read");
  return metric;
}

metrics::OpMetric& WriteMetric() {
  static metrics::OpMetric metric("layer/coherent/write");
  return metric;
}

}  // namespace

// --- shared state ----------------------------------------------------------

namespace {

struct CachedBlock {
  Buffer data;
  AccessRights rights = AccessRights::kReadOnly;  // rights held from below
  bool dirty = false;
};

}  // namespace

struct CoherencyLayer::FileState {
  sp<File> under;                 // the underlying layer's file object
  uint64_t file_id = 0;           // our identity for this file
  uint64_t pager_key = 0;         // key our clients' channels use
  bool bound_below = false;
  // Our end of the channel to the layer below: owned here, so it closes
  // when the state goes. A DestroyCache from below unbinds the state but
  // leaves it until the next bind replaces it.
  sp<OneChannelManager> below;
  sp<PagerObject> lower_pager;       // below's pager, while bound
  sp<FsPagerObject> lower_fs_pager;  // narrow of the above; may be null
  CoherencyEngine engine;            // MRSW across *client* caches
  std::map<Offset, CachedBlock> blocks;  // the layer's own data cache
  FileAttributes attrs;
  bool attrs_valid = false;
  bool attrs_dirty = false;
  // Serializes this file's bind below; taken before `mutex`, and never by
  // the lower cache object.
  std::mutex bind_mutex;
  std::mutex mutex;
};

// The layer's machinery: what its files, pager objects and lower cache
// objects need, none of which owns the layer itself.
class CoherencyLayer::Core : public Servant {
 public:
  Core(sp<Domain> domain, CoherencyLayerOptions options, Clock* clock,
       sp<PageTransform> transform)
      : Servant(std::move(domain)), options_(options), clock_(clock),
        transform_(std::move(transform)) {}

  // Binds `state` to the underlying file (once), capturing the lower pager.
  Status EnsureBoundBelow(const sp<FileState>& state);

  // Data-path helpers; `state.mutex` must be held by the caller.
  Status EnsureBlocks(FileState& state, Offset begin, Offset end,
                      AccessRights access);
  Status EnsureBoundBelowLocked(FileState& state);
  Status EnsureAttrs(FileState& state);
  // Fetches [begin, begin+len) from below and runs the transform's
  // DecodeFromBelow on each page in place; len must be page-aligned.
  Result<Buffer> FetchFromBelow(FileState& state, Offset begin, Offset len,
                                AccessRights access);
  // Runs the transform's EncodeForBelow on each page of `run`, a whole run
  // of contiguous pages from `offset`, in place, and hands the run below in
  // one Sync.
  Status PushToBelow(FileState& state, Offset offset, Buffer run);
  Status FoldRecoveredLocked(FileState& state,
                             const std::vector<BlockData>& blocks);
  // Runs the engine's Acquire, folds the dirty blocks it recovered (also
  // when it failed), then returns its verdict.
  Status AcquireLocked(FileState& state, uint64_t requester, Range range,
                       AccessRights access);

  // Client-pager entry points (from CoherentPagerObject).
  Result<Buffer> ClientPageIn(FileState& state, uint64_t channel,
                              Offset offset, Offset size, AccessRights access);
  Status ClientPageWrite(FileState& state, uint64_t channel, Offset offset,
                         ByteSpan data, bool drops, bool downgrades,
                         bool push_below);
  Result<FileAttributes> ClientGetAttributes(FileState& state);
  Status ClientWriteAttributes(FileState& state, uint64_t channel,
                               const AttrUpdate& update);

  // Lower-cache-object entry points (callbacks from the layer below).
  Result<std::vector<BlockData>> LowerFlushBack(FileState& state, Range range);
  Result<std::vector<BlockData>> LowerDenyWrites(FileState& state, Range range);

  // Pushes a file's dirty blocks, one lower Sync per run of contiguous
  // dirty pages, and its attributes to the layer below.
  Status SyncFileState(FileState& state);

  // Tells every file-system client cache (fs_cache narrows) except
  // `except_channel` that its cached attributes are stale. Part of the
  // section 4.3 attribute coherency protocol.
  Status BroadcastAttrInvalidate(FileState& state, uint64_t except_channel);

  const CoherencyLayerOptions options_;
  Clock* const clock_;
  const sp<PageTransform> transform_;  // null: the identity
  PagerChannelTable client_channels_;

  // Cache accounting, guarded by stats_mutex_; published by the layer.
  struct Stats {
    uint64_t data_cache_hits = 0;
    uint64_t data_cache_misses = 0;
    uint64_t attr_cache_hits = 0;
    uint64_t attr_cache_misses = 0;
    uint64_t lower_page_ins = 0;
    uint64_t lower_page_outs = 0;
  };

  mutable std::mutex stats_mutex_;
  Stats stats_;
};

// --- servants -------------------------------------------------------------

// The layer's cache object toward the layer below: coherency actions from
// below are propagated to this layer's clients and its own cache.
class CoherencyLowerCacheObject : public FsCacheObject, public Servant {
 public:
  // The state owns this object (through its channel below), so the object
  // refers to it weakly; a callback that finds it gone has nothing to do.
  CoherencyLowerCacheObject(sp<Domain> domain, sp<CoherencyLayer::Core> core,
                            wp<CoherencyLayer::FileState> state)
      : Servant(std::move(domain)), core_(std::move(core)),
        state_(std::move(state)) {}

  Result<std::vector<BlockData>> FlushBack(Range range) override {
    return WithState(std::vector<BlockData>{}, [&](State& state) {
      return core_->LowerFlushBack(state, range);
    });
  }
  Result<std::vector<BlockData>> DenyWrites(Range range) override {
    return WithState(std::vector<BlockData>{}, [&](State& state) {
      return core_->LowerDenyWrites(state, range);
    });
  }
  Result<std::vector<BlockData>> WriteBack(Range range) override {
    return WithState(std::vector<BlockData>{}, [&](State& state) {
      std::lock_guard<std::mutex> lock(state.mutex);
      std::vector<BlockData> modified;
      Offset end = range.end();
      for (auto& [off, block] : state.blocks) {
        if (off >= range.offset && off < end && block.dirty) {
          modified.push_back(BlockData{off, block.data});
          block.dirty = false;
        }
      }
      return modified;
    });
  }
  Status DeleteRange(Range range) override {
    return WithState(Status::Ok(), [&](State& state) -> Status {
      std::lock_guard<std::mutex> lock(state.mutex);
      Offset end = range.end();
      for (const sp<CacheObject>& cache : state.engine.Caches()) {
        RETURN_IF_ERROR(cache->DeleteRange(range));
      }
      auto it = state.blocks.lower_bound(PageFloor(range.offset));
      while (it != state.blocks.end() && it->first < end) {
        it = state.blocks.erase(it);
      }
      return Status::Ok();
    });
  }
  Status ZeroFill(Range range) override {
    return WithState(Status::Ok(), [&](State& state) -> Status {
      std::lock_guard<std::mutex> lock(state.mutex);
      Offset end = range.end();
      for (const sp<CacheObject>& cache : state.engine.Caches()) {
        RETURN_IF_ERROR(cache->ZeroFill(range));
      }
      for (auto& [off, block] : state.blocks) {
        if (off >= range.offset && off < end) {
          std::memset(block.data.data(), 0, block.data.size());
          block.dirty = false;
        }
      }
      return Status::Ok();
    });
  }
  Status Populate(Offset offset, AccessRights access, ByteSpan data) override {
    if (offset % kPageSize != 0 || data.size() % kPageSize != 0) {
      return ErrInvalidArgument("populate must be page-aligned");
    }
    return WithState(Status::Ok(), [&](State& state) {
      std::lock_guard<std::mutex> lock(state.mutex);
      for (Offset off = 0; off < data.size(); off += kPageSize) {
        CachedBlock block;
        block.data = Buffer(data.subspan(off, kPageSize));
        block.rights = access;
        block.dirty = false;
        state.blocks.insert_or_assign(offset + off, std::move(block));
      }
      return Status::Ok();
    });
  }
  Status DestroyCache() override {
    return WithState(Status::Ok(), [&](State& state) {
      std::lock_guard<std::mutex> lock(state.mutex);
      state.blocks.clear();
      state.bound_below = false;
      state.lower_pager = nullptr;
      state.lower_fs_pager = nullptr;
      return Status::Ok();
    });
  }

  Status InvalidateAttributes() override {
    return WithState(Status::Ok(), [&](State& state) {
      std::lock_guard<std::mutex> lock(state.mutex);
      state.attrs_valid = false;
      return Status::Ok();
    });
  }
  Result<AttrUpdate> RecallAttributes() override {
    return WithState(AttrUpdate{}, [&](State& state) {
      std::lock_guard<std::mutex> lock(state.mutex);
      AttrUpdate update;
      if (state.attrs_valid && state.attrs_dirty) {
        update.size = state.attrs.size;
        update.atime_ns = state.attrs.atime_ns;
        update.mtime_ns = state.attrs.mtime_ns;
      }
      return update;
    });
  }

 private:
  using State = CoherencyLayer::FileState;

  // Runs `op` on the state in the layer's domain. A state that is gone
  // holds nothing, so the callback answers `gone`.
  template <class Gone, class Op>
  auto WithState(Gone gone, Op op) -> decltype(op(std::declval<State&>())) {
    return InDomain([&]() -> decltype(op(std::declval<State&>())) {
      sp<State> state = state_.lock();
      if (!state) {
        return gone;
      }
      return op(*state);
    });
  }

  sp<CoherencyLayer::Core> core_;
  wp<State> state_;
};

// The layer's pager object toward one client cache manager.
class CoherentPagerObject : public FsPagerObject, public Servant {
 public:
  CoherentPagerObject(sp<Domain> domain, sp<CoherencyLayer::Core> core,
                      sp<CoherencyLayer::FileState> state, uint64_t channel)
      : Servant(std::move(domain)), core_(std::move(core)),
        state_(std::move(state)), channel_(channel) {}

  Result<Buffer> PageIn(Offset offset, Offset size,
                        AccessRights access) override {
    return InDomain([&] {
      return core_->ClientPageIn(*state_, channel_, offset, size, access);
    });
  }
  Status PageOut(Offset offset, ByteSpan data) override {
    return InDomain([&] {
      return core_->ClientPageWrite(*state_, channel_, offset, data,
                                     /*drops=*/true, /*downgrades=*/false,
                                     /*push_below=*/false);
    });
  }
  Status WriteOut(Offset offset, ByteSpan data) override {
    return InDomain([&] {
      return core_->ClientPageWrite(*state_, channel_, offset, data,
                                     /*drops=*/false, /*downgrades=*/true,
                                     /*push_below=*/false);
    });
  }
  Status Sync(Offset offset, ByteSpan data) override {
    return InDomain([&] {
      return core_->ClientPageWrite(*state_, channel_, offset, data,
                                     /*drops=*/false, /*downgrades=*/false,
                                     /*push_below=*/true);
    });
  }
  void DoneWithPagerObject() override {
    InDomain([&] {
      std::lock_guard<std::mutex> lock(state_->mutex);
      state_->engine.RemoveCache(channel_);
      core_->client_channels_.RemoveChannel(channel_);
    });
  }

  Result<FileAttributes> GetAttributes() override {
    return InDomain([&] { return core_->ClientGetAttributes(*state_); });
  }
  Status WriteAttributes(const AttrUpdate& update) override {
    return InDomain([&] {
      return core_->ClientWriteAttributes(*state_, channel_, update);
    });
  }

 private:
  sp<CoherencyLayer::Core> core_;
  sp<CoherencyLayer::FileState> state_;
  uint64_t channel_;
};

// A file exported by the coherency layer.
class CoherentFile : public File, public Servant {
 public:
  CoherentFile(sp<Domain> domain, sp<CoherencyLayer::Core> core,
               sp<CoherencyLayer::FileState> state)
      : Servant(std::move(domain)), core_(std::move(core)),
        state_(std::move(state)) {}

  const sp<CoherencyLayer::FileState>& state() const { return state_; }
  const sp<File>& under() const { return state_->under; }

  // --- MemoryObject ---
  Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                               AccessRights requested_access) override {
    (void)requested_access;
    return InDomain([&]() -> Result<sp<CacheRights>> {
      RETURN_IF_ERROR(core_->EnsureBoundBelow(state_));
      ASSIGN_OR_RETURN(
          sp<CacheRights> rights,
          core_->client_channels_.Bind(
              state_->file_id, state_->pager_key, caller,
              [&](uint64_t local_id) -> sp<PagerObject> {
                return std::make_shared<CoherentPagerObject>(
                    core_->domain(), core_, state_, local_id);
              }));
      std::lock_guard<std::mutex> lock(state_->mutex);
      for (const auto& ch :
           core_->client_channels_.ChannelsForFile(state_->file_id)) {
        if (!state_->engine.HasCache(ch.local_id)) {
          state_->engine.AddCache(ch.local_id, ch.cache);
        }
      }
      return rights;
    });
  }

  Result<Offset> GetLength() override {
    return InDomain([&]() -> Result<Offset> {
      if (!core_->options_.cache_attrs) {
        return state_->under->GetLength();
      }
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(core_->EnsureAttrs(*state_));
      return Offset{state_->attrs.size};
    });
  }

  Status SetLength(Offset length) override {
    return InDomain([&]() -> Status {
      if (!core_->options_.cache_attrs) {
        return state_->under->SetLength(length);
      }
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(core_->EnsureAttrs(*state_));
      uint64_t old_size = state_->attrs.size;
      state_->attrs.size = length;
      state_->attrs.mtime_ns = core_->clock_->Now();
      state_->attrs_dirty = true;
      RETURN_IF_ERROR(core_->BroadcastAttrInvalidate(*state_, 0));
      if (length < old_size) {
        // Truncation: discard data beyond EOF everywhere.
        Offset from = PageCeil(length);
        for (const sp<CacheObject>& cache : state_->engine.Caches()) {
          RETURN_IF_ERROR(cache->DeleteRange(Range{from, ~Offset{0} - from}));
        }
        auto it = state_->blocks.lower_bound(from);
        while (it != state_->blocks.end()) {
          it = state_->blocks.erase(it);
        }
        // Zero the tail of the page containing the new EOF.
        if (length % kPageSize != 0) {
          Offset page = PageFloor(length);
          auto block_it = state_->blocks.find(page);
          if (block_it != state_->blocks.end()) {
            size_t cut = length - page;
            std::memset(block_it->second.data.data() + cut, 0,
                        kPageSize - cut);
            // We now hold the newest content for this block; claim it
            // read-write so the dirty copy can be pushed below.
            block_it->second.dirty = true;
            block_it->second.rights = AccessRights::kReadWrite;
          }
          for (const sp<CacheObject>& cache : state_->engine.Caches()) {
            RETURN_IF_ERROR(
                cache->ZeroFill(Range{length, kPageSize - length % kPageSize}));
          }
        }
      }
      return Status::Ok();
    });
  }

  // --- File ---
  Result<size_t> Read(Offset offset, MutableByteSpan out) override {
    return InDomain([&]() -> Result<size_t> {
      metrics::TimedOp timed(ReadMetric(), "coh.read");
      RETURN_IF_ERROR(core_->EnsureBoundBelow(state_));
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(core_->AcquireLocked(
          *state_, 0, Range{offset, out.size()}, AccessRights::kReadOnly));
      if (!core_->options_.cache_data) {
        return state_->under->Read(offset, out);
      }
      RETURN_IF_ERROR(core_->EnsureAttrs(*state_));
      if (offset >= state_->attrs.size) {
        return size_t{0};
      }
      size_t to_read = std::min<uint64_t>(out.size(),
                                          state_->attrs.size - offset);
      RETURN_IF_ERROR(core_->EnsureBlocks(*state_, PageFloor(offset),
                                           PageCeil(offset + to_read),
                                           AccessRights::kReadOnly));
      size_t done = 0;
      while (done < to_read) {
        Offset page = PageFloor(offset + done);
        size_t in_page = offset + done - page;
        size_t chunk = std::min<size_t>(kPageSize - in_page, to_read - done);
        const CachedBlock& block = state_->blocks.at(page);
        std::memcpy(out.data() + done, block.data.data() + in_page, chunk);
        done += chunk;
      }
      state_->attrs.atime_ns = core_->clock_->Now();
      state_->attrs_dirty = true;
      return to_read;
    });
  }

  Result<size_t> Write(Offset offset, ByteSpan data) override {
    return InDomain([&]() -> Result<size_t> {
      metrics::TimedOp timed(WriteMetric(), "coh.write");
      RETURN_IF_ERROR(core_->EnsureBoundBelow(state_));
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(core_->AcquireLocked(
          *state_, 0, Range{offset, data.size()}, AccessRights::kReadWrite));
      if (!core_->options_.cache_data) {
        return state_->under->Write(offset, data);
      }
      RETURN_IF_ERROR(core_->EnsureAttrs(*state_));
      RETURN_IF_ERROR(core_->EnsureBlocks(*state_, PageFloor(offset),
                                           PageCeil(offset + data.size()),
                                           AccessRights::kReadWrite));
      size_t done = 0;
      while (done < data.size()) {
        Offset page = PageFloor(offset + done);
        size_t in_page = offset + done - page;
        size_t chunk = std::min<size_t>(kPageSize - in_page,
                                        data.size() - done);
        CachedBlock& block = state_->blocks.at(page);
        std::memcpy(block.data.data() + in_page, data.data() + done, chunk);
        block.dirty = true;
        done += chunk;
      }
      state_->attrs.size = std::max<uint64_t>(state_->attrs.size,
                                              offset + data.size());
      state_->attrs.mtime_ns = core_->clock_->Now();
      state_->attrs_dirty = true;
      RETURN_IF_ERROR(core_->BroadcastAttrInvalidate(*state_, 0));
      return data.size();
    });
  }

  Result<FileAttributes> Stat() override {
    return InDomain([&]() -> Result<FileAttributes> {
      if (!core_->options_.cache_attrs) {
        return state_->under->Stat();
      }
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(core_->EnsureAttrs(*state_));
      return state_->attrs;
    });
  }

  Status SetTimes(uint64_t atime_ns, uint64_t mtime_ns) override {
    return InDomain([&]() -> Status {
      if (!core_->options_.cache_attrs) {
        return state_->under->SetTimes(atime_ns, mtime_ns);
      }
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(core_->EnsureAttrs(*state_));
      state_->attrs.atime_ns = atime_ns;
      state_->attrs.mtime_ns = mtime_ns;
      state_->attrs_dirty = true;
      RETURN_IF_ERROR(core_->BroadcastAttrInvalidate(*state_, 0));
      return Status::Ok();
    });
  }

  Status SyncFile() override {
    return InDomain([&]() -> Status {
      {
        std::lock_guard<std::mutex> lock(state_->mutex);
        RETURN_IF_ERROR(core_->SyncFileState(*state_));
      }
      return state_->under->SyncFile();
    });
  }

 private:
  sp<CoherencyLayer::Core> core_;
  sp<CoherencyLayer::FileState> state_;
};

// --- CoherencyLayer --------------------------------------------------------

sp<CoherencyLayer> CoherencyLayer::Create(sp<Domain> domain,
                                          CoherencyLayerOptions options,
                                          Clock* clock) {
  return sp<CoherencyLayer>(
      new CoherencyLayer(std::move(domain), options, clock));
}

CoherencyLayer::CoherencyLayer(sp<Domain> domain,
                               CoherencyLayerOptions options, Clock* clock,
                               sp<PageTransform> transform)
    : Servant(domain),
      core_(std::make_shared<Core>(std::move(domain), options, clock,
                                   std::move(transform))) {
  metrics::Registry::Global().RegisterProvider(this);
}

CoherencyLayer::~CoherencyLayer() {
  metrics::Registry::Global().UnregisterProvider(this);
}

void CoherencyLayer::CollectStats(const metrics::StatsEmitter& emit) const {
  std::lock_guard<std::mutex> lock(core_->stats_mutex_);
  const Core::Stats& stats = core_->stats_;
  emit("data_cache_hits", stats.data_cache_hits);
  emit("data_cache_misses", stats.data_cache_misses);
  emit("attr_cache_hits", stats.attr_cache_hits);
  emit("attr_cache_misses", stats.attr_cache_misses);
  emit("lower_page_ins", stats.lower_page_ins);
  emit("lower_page_outs", stats.lower_page_outs);
}

Status CoherencyLayer::StackOn(sp<StackableFs> underlying) {
  return InDomain([&]() -> Status {
    if (under_) {
      return ErrAlreadyExists("coherency layer already stacked");
    }
    if (!underlying) {
      return ErrInvalidArgument("null underlying file system");
    }
    under_ = std::move(underlying);
    return Status::Ok();
  });
}

sp<CoherencyLayer::FileState> CoherencyLayer::StateForFile(
    const sp<File>& under) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, state] : states_) {
    if (state->under == under) {
      return state;
    }
  }
  auto state = std::make_shared<FileState>();
  state->under = under;
  state->file_id = next_file_id_++;
  state->pager_key = NewPagerKey();
  states_.emplace(state->file_id, state);
  return state;
}

Result<sp<CoherentFile>> CoherencyLayer::WrapFile(const sp<File>& under) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = wrapped_files_.find(under.get());
    if (it != wrapped_files_.end()) {
      return it->second;
    }
  }
  sp<FileState> state = StateForFile(under);
  auto wrapped = std::make_shared<CoherentFile>(domain(), core_, state);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = wrapped_files_.emplace(under.get(), wrapped);
  return it->second;
}

Status CoherencyLayer::Core::EnsureBoundBelow(const sp<FileState>& state) {
  std::lock_guard<std::mutex> bind_lock(state->bind_mutex);
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    if (state->bound_below) {
      return Status::Ok();
    }
  }
  sp<Core> self = std::dynamic_pointer_cast<Core>(shared_from_this());
  ASSIGN_OR_RETURN(
      sp<OneChannelManager> below,
      BindBelow(*state->under,
                std::make_shared<CoherencyLowerCacheObject>(domain(), self,
                                                            state),
                state->file_id, "coherency-layer"));
  // A channel a DestroyCache from below left behind closes here, out of
  // the state's lock.
  sp<OneChannelManager> old;
  std::lock_guard<std::mutex> lock(state->mutex);
  state->lower_pager = below->pager();
  state->lower_fs_pager = narrow<FsPagerObject>(state->lower_pager);
  old = std::exchange(state->below, std::move(below));
  state->bound_below = true;
  return Status::Ok();
}

Status CoherencyLayer::Core::EnsureAttrs(FileState& state) {
  if (state.attrs_valid) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.attr_cache_hits;
    return Status::Ok();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.attr_cache_misses;
  }
  // Prefer the fs_pager attribute path when the layer below is a file
  // system; fall back to the file interface.
  if (state.lower_fs_pager) {
    ASSIGN_OR_RETURN(state.attrs, state.lower_fs_pager->GetAttributes());
  } else {
    ASSIGN_OR_RETURN(state.attrs, state.under->Stat());
  }
  state.attrs_valid = true;
  state.attrs_dirty = false;
  return Status::Ok();
}

Result<Buffer> CoherencyLayer::Core::FetchFromBelow(FileState& state,
    Offset begin, Offset len, AccessRights access) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.lower_page_ins;
  }
  trace::ScopedSpan span("coh.lower_page_in");
  ASSIGN_OR_RETURN(Buffer run, state.lower_pager->PageIn(begin, len, access));
  run.resize(len);  // the pager may return more, or less, than was asked
  for (Offset off = 0; off < len; off += kPageSize) {
    if (transform_) {
      RETURN_IF_ERROR(transform_->DecodeFromBelow(
          state.file_id, begin + off,
          run.mutable_span().subspan(off, kPageSize)));
    }
  }
  return run;
}

Status CoherencyLayer::Core::PushToBelow(FileState& state, Offset offset,
                                   Buffer run) {
  if (offset % kPageSize != 0 || run.size() % kPageSize != 0) {
    return ErrInvalidArgument("push to below must be page-aligned");
  }
  for (Offset off = 0; off < run.size(); off += kPageSize) {
    if (transform_) {
      RETURN_IF_ERROR(transform_->EncodeForBelow(
          state.file_id, offset + off,
          run.mutable_span().subspan(off, kPageSize)));
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.lower_page_outs;
  }
  trace::ScopedSpan span("coh.lower_page_out");
  return state.lower_pager->Sync(offset, run.span());
}

Status CoherencyLayer::Core::EnsureBlocks(FileState& state, Offset begin,
    Offset end, AccessRights access) {
  RETURN_IF_ERROR(EnsureBoundBelowLocked(state));
  // Collect contiguous runs of pages that need fetching from below.
  Offset run_start = 0;
  Offset run_len = 0;
  auto flush_run = [&]() -> Status {
    if (run_len == 0) {
      return Status::Ok();
    }
    ASSIGN_OR_RETURN(Buffer data,
                     FetchFromBelow(state, run_start, run_len, access));
    for (Offset off = 0; off < run_len; off += kPageSize) {
      CachedBlock block;
      block.data = Buffer(data.subspan(off, kPageSize));
      block.rights = access;
      block.dirty = false;
      state.blocks.insert_or_assign(run_start + off, std::move(block));
    }
    run_len = 0;
    return Status::Ok();
  };

  for (Offset page = begin; page < end; page += kPageSize) {
    auto it = state.blocks.find(page);
    bool ok_cached = it != state.blocks.end() &&
                     (access == AccessRights::kReadOnly ||
                      it->second.rights == AccessRights::kReadWrite);
    if (ok_cached) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.data_cache_hits;
      }
      RETURN_IF_ERROR(flush_run());
      continue;
    }
    if (it != state.blocks.end() && it->second.dirty) {
      // Upgrading a dirty block would clobber it; a dirty block must
      // already be held read-write from below.
      return ErrCorrupted("dirty read-only block in coherency layer cache");
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.data_cache_misses;
    }
    if (run_len == 0) {
      run_start = page;
    }
    run_len += kPageSize;
  }
  return flush_run();
}

Status CoherencyLayer::Core::EnsureBoundBelowLocked(FileState& state) {
  // state.mutex is held: binding from here would invert the bind_mutex /
  // mutex order, so every entry point (CoherentFile data paths,
  // CoherentFile::Bind before client channels exist) binds first via
  // EnsureBoundBelow. This is an internal invariant check, not a user error.
  if (state.bound_below) {
    return Status::Ok();
  }
  return ErrInvalidArgument("file not bound to the layer below");
}

Status CoherencyLayer::Core::FoldRecoveredLocked(
    FileState& state, const std::vector<BlockData>& blocks) {
  if (blocks.empty()) {
    return Status::Ok();
  }
  if (options_.cache_data) {
    for (const BlockData& block : blocks) {
      CachedBlock cached;
      cached.data = block.data;
      cached.data.resize(kPageSize);
      cached.rights = AccessRights::kReadWrite;
      cached.dirty = true;
      state.blocks.insert_or_assign(block.offset, std::move(cached));
    }
    return Status::Ok();
  }
  // Uncached mode: write the recovered data straight through to the layer
  // below, one Sync per run of pages that follow each other.
  Offset start = 0;
  Buffer run;
  for (const BlockData& block : blocks) {
    if (!run.empty() && block.offset != start + run.size()) {
      RETURN_IF_ERROR(PushToBelow(state, start, std::move(run)));
      run = Buffer();
    }
    if (run.empty()) {
      start = block.offset;
    }
    size_t at = run.size();
    run.resize(at + kPageSize);
    block.data.ReadAt(0, run.mutable_span().subspan(at, kPageSize));
  }
  return run.empty() ? Status::Ok() : PushToBelow(state, start, std::move(run));
}

Status CoherencyLayer::Core::AcquireLocked(FileState& state, uint64_t requester,
                                     Range range, AccessRights access) {
  CoherencyEngine::Recovered recovered =
      state.engine.Acquire(requester, range, access);
  RETURN_IF_ERROR(FoldRecoveredLocked(state, recovered.blocks));
  return recovered.status;
}

Result<Buffer> CoherencyLayer::Core::ClientPageIn(FileState& state,
    uint64_t channel, Offset offset, Offset size, AccessRights access) {
  metrics::TimedOp timed(PageInMetric(), "coh.page_in");
  std::lock_guard<std::mutex> lock(state.mutex);
  Offset begin = PageFloor(offset);
  Offset end = PageCeil(offset + std::max<Offset>(size, 1));
  RETURN_IF_ERROR(
      AcquireLocked(state, channel, Range::FromTo(begin, end), access));
  if (!options_.cache_data) {
    // Pass-through: fetch from below without retaining.
    return FetchFromBelow(state, begin, end - begin, access);
  }
  RETURN_IF_ERROR(EnsureBlocks(state, begin, end, access));
  Buffer out(end - begin);
  for (Offset page = begin; page < end; page += kPageSize) {
    const CachedBlock& block = state.blocks.at(page);
    out.WriteAt(page - begin, block.data.span());
  }
  return out;
}

Status CoherencyLayer::Core::ClientPageWrite(FileState& state, uint64_t channel,
                                       Offset offset, ByteSpan data,
                                       bool drops, bool downgrades,
                                       bool push_below) {
  metrics::TimedOp timed(PageWriteMetric(), "coh.page_write");
  std::lock_guard<std::mutex> lock(state.mutex);
  if (offset % kPageSize != 0 || data.size() % kPageSize != 0) {
    return ErrInvalidArgument("page write must be page-aligned");
  }
  if (options_.cache_data && !push_below) {
    for (Offset off = 0; off < data.size(); off += kPageSize) {
      CachedBlock block;
      block.data = Buffer(data.subspan(off, kPageSize));
      block.rights = AccessRights::kReadWrite;
      block.dirty = true;
      state.blocks.insert_or_assign(offset + off, std::move(block));
    }
  } else {
    // Uncached mode, or an explicit sync: write through to the layer below.
    if (options_.cache_data) {
      for (Offset off = 0; off < data.size(); off += kPageSize) {
        CachedBlock block;
        block.data = Buffer(data.subspan(off, kPageSize));
        block.rights = AccessRights::kReadWrite;
        block.dirty = false;  // about to be pushed below
        state.blocks.insert_or_assign(offset + off, std::move(block));
      }
    }
    RETURN_IF_ERROR(PushToBelow(state, offset, Buffer(data)));
  }
  if (drops) {
    state.engine.ReleaseDropped(channel, Range{offset, data.size()});
  } else if (downgrades) {
    state.engine.ReleaseDowngraded(channel, Range{offset, data.size()});
  }
  return Status::Ok();
}

Result<FileAttributes> CoherencyLayer::Core::ClientGetAttributes(
    FileState& state) {
  if (!options_.cache_attrs) {
    if (state.lower_fs_pager) {
      return state.lower_fs_pager->GetAttributes();
    }
    return state.under->Stat();
  }
  std::lock_guard<std::mutex> lock(state.mutex);
  RETURN_IF_ERROR(EnsureAttrs(state));
  return state.attrs;
}

Status CoherencyLayer::Core::ClientWriteAttributes(FileState& state,
                                             uint64_t channel,
                                             const AttrUpdate& update) {
  if (!options_.cache_attrs) {
    if (state.lower_fs_pager) {
      return state.lower_fs_pager->WriteAttributes(update);
    }
    if (update.size) {
      RETURN_IF_ERROR(state.under->SetLength(*update.size));
    }
    return Status::Ok();
  }
  std::lock_guard<std::mutex> lock(state.mutex);
  RETURN_IF_ERROR(EnsureAttrs(state));
  if (update.size) {
    state.attrs.size = *update.size;
  }
  if (update.atime_ns) {
    state.attrs.atime_ns = *update.atime_ns;
  }
  if (update.mtime_ns) {
    state.attrs.mtime_ns = *update.mtime_ns;
  }
  state.attrs_dirty = true;
  RETURN_IF_ERROR(BroadcastAttrInvalidate(state, channel));
  return Status::Ok();
}

Result<std::vector<BlockData>> CoherencyLayer::Core::LowerFlushBack(
    FileState& state, Range range) {
  trace::ScopedSpan span("coh.lower_flush_back");
  std::lock_guard<std::mutex> lock(state.mutex);
  // Our clients' caches depend on ours: flush them first. Recovered data is
  // returned to the caller (the layer below) via the return value — never
  // by calling back down, which could re-enter the caller mid-callback.
  CoherencyEngine::Recovered recovered =
      state.engine.Acquire(0, range, AccessRights::kReadWrite);
  if (!recovered.ok()) {
    // Our claim below stands, so we keep what the clients that answered
    // handed over. Mid-callback nothing may go below, so only a caching
    // layer can.
    if (options_.cache_data) {
      RETURN_IF_ERROR(FoldRecoveredLocked(state, recovered.blocks));
    }
    return recovered.status;
  }
  Offset end = range.end();
  std::vector<BlockData> modified = std::move(recovered.blocks);
  if (options_.cache_data) {
    // Fold first so a block dirty both here and at a client surfaces once,
    // with the client's (newer) content.
    for (BlockData& block : modified) {
      state.blocks.erase(block.offset);
    }
    auto it = state.blocks.lower_bound(PageFloor(range.offset));
    while (it != state.blocks.end() && it->first < end) {
      if (it->second.dirty) {
        modified.push_back(BlockData{it->first, std::move(it->second.data)});
      }
      it = state.blocks.erase(it);
    }
  }
  return modified;
}

Result<std::vector<BlockData>> CoherencyLayer::Core::LowerDenyWrites(
    FileState& state, Range range) {
  trace::ScopedSpan span("coh.lower_deny_writes");
  std::lock_guard<std::mutex> lock(state.mutex);
  CoherencyEngine::Recovered recovered =
      state.engine.Acquire(0, range, AccessRights::kReadOnly);
  if (!recovered.ok()) {
    if (options_.cache_data) {  // as in LowerFlushBack
      RETURN_IF_ERROR(FoldRecoveredLocked(state, recovered.blocks));
    }
    return recovered.status;
  }
  Offset end = range.end();
  std::vector<BlockData> modified;
  if (options_.cache_data) {
    // Keep the recovered client data in our cache (now read-only below) and
    // report it as modified.
    for (const BlockData& block : recovered.blocks) {
      CachedBlock cached;
      cached.data = block.data;
      cached.data.resize(kPageSize);
      cached.rights = AccessRights::kReadOnly;
      cached.dirty = false;
      state.blocks.insert_or_assign(block.offset, std::move(cached));
      modified.push_back(block);
    }
    for (auto it = state.blocks.lower_bound(PageFloor(range.offset));
         it != state.blocks.end() && it->first < end; ++it) {
      if (it->second.dirty) {
        modified.push_back(BlockData{it->first, it->second.data});
        it->second.dirty = false;
      }
      it->second.rights = AccessRights::kReadOnly;
    }
  } else {
    modified = std::move(recovered.blocks);
  }
  return modified;
}

Status CoherencyLayer::Core::BroadcastAttrInvalidate(FileState& state,
                                               uint64_t except_channel) {
  for (const auto& ch : client_channels_.ChannelsForFile(state.file_id)) {
    if (ch.local_id == except_channel || !ch.fs_cache) {
      continue;
    }
    RETURN_IF_ERROR(ch.fs_cache->InvalidateAttributes());
  }
  return Status::Ok();
}

Status CoherencyLayer::Core::SyncFileState(FileState& state) {
  // Demote client writers so their latest data lands in our cache first.
  RETURN_IF_ERROR(
      AcquireLocked(state, 0, Range::All(), AccessRights::kReadOnly));
  // One lower Sync per run of contiguous dirty pages, as the VMM writes
  // back. A run turns clean only once its Sync returned OK, so a run that
  // failed stays dirty whole. A file never bound below holds no pages (the
  // lower DestroyCache clears them with the binding), but its attribute
  // changes still go down.
  for (auto it = state.blocks.begin(); it != state.blocks.end();) {
    if (!it->second.dirty) {
      ++it;
      continue;
    }
    Offset start = it->first;
    Offset next = start;
    auto end = it;
    for (; end != state.blocks.end() && end->second.dirty && end->first == next;
         ++end) {
      next += kPageSize;
    }
    Buffer run;
    run.reserve(next - start);
    for (auto page = it; page != end; ++page) {
      run.append(page->second.data);
    }
    RETURN_IF_ERROR(PushToBelow(state, start, std::move(run)));
    for (; it != end; ++it) {
      it->second.dirty = false;
    }
  }
  if (state.attrs_valid && state.attrs_dirty) {
    AttrUpdate update;
    update.size = state.attrs.size;
    update.atime_ns = state.attrs.atime_ns;
    update.mtime_ns = state.attrs.mtime_ns;
    if (state.lower_fs_pager) {
      RETURN_IF_ERROR(state.lower_fs_pager->WriteAttributes(update));
    } else {
      RETURN_IF_ERROR(state.under->SetLength(state.attrs.size));
      RETURN_IF_ERROR(state.under->SetTimes(state.attrs.atime_ns,
                                            state.attrs.mtime_ns));
    }
    state.attrs_dirty = false;
  }
  return Status::Ok();
}

// --- Context / StackableFs / Fs -------------------------------------------

Result<sp<Object>> CoherencyLayer::Resolve(const Name& name,
                                           const Credentials& creds) {
  return InDomain([&]() -> Result<sp<Object>> {
    if (!under_) {
      return ErrInvalidArgument("coherency layer not stacked");
    }
    if (name.empty()) {
      return sp<Object>(std::dynamic_pointer_cast<Object>(shared_from_this()));
    }
    ASSIGN_OR_RETURN(sp<Object> object, under_->Resolve(name, creds));
    if (sp<File> file = narrow<File>(object)) {
      ASSIGN_OR_RETURN(sp<CoherentFile> wrapped, WrapFile(file));
      return sp<Object>(wrapped);
    }
    if (narrow<Context>(object)) {
      return sp<Object>(SubContext<CoherencyLayer>::Of(this, name));
    }
    return object;
  });
}

Status CoherencyLayer::Bind(const Name& name, sp<Object> object,
                            const Credentials& creds, bool replace) {
  return InDomain([&]() -> Status {
    if (!under_) {
      return ErrInvalidArgument("coherency layer not stacked");
    }
    if (sp<CoherentFile> wrapped = narrow<CoherentFile>(object)) {
      object = wrapped->under();
    }
    return under_->Bind(name, std::move(object), creds, replace);
  });
}

Status CoherencyLayer::Unbind(const Name& name, const Credentials& creds) {
  return InDomain([&]() -> Status {
    if (!under_) {
      return ErrInvalidArgument("coherency layer not stacked");
    }
    // Capture the underlying object first so this layer's per-file state
    // can be dropped after a successful removal — otherwise a later SyncFs
    // would push cached data into a deleted file.
    Result<sp<Object>> target = under_->Resolve(name, creds);
    RETURN_IF_ERROR(under_->Unbind(name, creds));
    if (target.ok()) {
      sp<File> under_file = narrow<File>(*target);
      // Purge only when the last link is gone (stat fails): a renamed or
      // hard-linked file keeps its cached state.
      if (under_file && !under_file->Stat().ok()) {
        // A dropped state closes its channel below; it goes out of mutex_.
        std::vector<sp<FileState>> dropped;
        std::lock_guard<std::mutex> lock(mutex_);
        wrapped_files_.erase(under_file.get());
        for (auto it = states_.begin(); it != states_.end();) {
          if (it->second->under == under_file) {
            core_->client_channels_.RemoveFile(it->second->file_id);
            dropped.push_back(std::move(it->second));
            it = states_.erase(it);
          } else {
            ++it;
          }
        }
      }
    }
    return Status::Ok();
  });
}

Result<std::vector<BindingInfo>> CoherencyLayer::List(
    const Credentials& creds) {
  return ListAt(Name(), creds);
}

Result<std::vector<BindingInfo>> CoherencyLayer::ListAt(
    const Name& dir, const Credentials& creds) {
  return InDomain([&]() -> Result<std::vector<BindingInfo>> {
    if (!under_) {
      return ErrInvalidArgument("coherency layer not stacked");
    }
    return ListDirectory(under_, dir, creds);
  });
}

Result<sp<Context>> CoherencyLayer::CreateContext(const Name& name,
                                                  const Credentials& creds) {
  return InDomain([&]() -> Result<sp<Context>> {
    if (!under_) {
      return ErrInvalidArgument("coherency layer not stacked");
    }
    RETURN_IF_ERROR(under_->CreateContext(name, creds).status());
    return SubContext<CoherencyLayer>::Of(this, name);
  });
}

Result<sp<File>> CoherencyLayer::CreateFile(const Name& name,
                                            const Credentials& creds) {
  return InDomain([&]() -> Result<sp<File>> {
    if (!under_) {
      return ErrInvalidArgument("coherency layer not stacked");
    }
    ASSIGN_OR_RETURN(sp<File> under_file, under_->CreateFile(name, creds));
    ASSIGN_OR_RETURN(sp<CoherentFile> wrapped, WrapFile(under_file));
    return sp<File>(wrapped);
  });
}

Result<FsInfo> CoherencyLayer::GetFsInfo() {
  return InDomain([&]() -> Result<FsInfo> {
    if (!under_) {
      return ErrInvalidArgument("coherency layer not stacked");
    }
    ASSIGN_OR_RETURN(FsInfo info, under_->GetFsInfo());
    info.type = type_name() + "(" + info.type + ")";
    info.stack_depth += 1;
    return info;
  });
}

Status CoherencyLayer::SyncFs() {
  return InDomain([&]() -> Status {
    if (!under_) {
      return ErrInvalidArgument("coherency layer not stacked");
    }
    std::vector<sp<FileState>> states;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto& [id, state] : states_) {
        states.push_back(state);
      }
    }
    for (const sp<FileState>& state : states) {
      std::lock_guard<std::mutex> lock(state->mutex);
      RETURN_IF_ERROR(core_->SyncFileState(*state));
    }
    return under_->SyncFs();
  });
}

}  // namespace springfs
