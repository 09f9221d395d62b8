#include "src/layers/compfs/comp_layer.h"

#include <algorithm>
#include <cstring>

#include "src/naming/views.h"
#include "src/support/logging.h"

namespace springfs {
namespace {

constexpr uint32_t kCompMagic = 0x434D5046;  // "CMPF"
constexpr uint32_t kCompVersion = 1;
constexpr size_t kMetaHeaderSize = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8;
constexpr size_t kMetaEntrySize = 16;
constexpr const char* kMetaSuffix = ".cmeta";
// SyncFs compacts a file when chunk-store bytes exceed live bytes by this
// factor.
constexpr double kCompactWasteFactor = 2.0;

bool IsMetaName(const std::string& component) {
  return component.size() > std::strlen(kMetaSuffix) &&
         component.compare(component.size() - std::strlen(kMetaSuffix),
                           std::strlen(kMetaSuffix), kMetaSuffix) == 0;
}

// The metadata shadow of the file named `name`.
Name MetaNameFor(const Name& name) {
  return name.Parent().Join(Name::Single(name.back() + kMetaSuffix));
}

}  // namespace

// --- servants ---------------------------------------------------------------

// Figure 6: COMPFS's cache object toward the layer below. Coherency actions
// from below invalidate the derived (decompressed) caches.
class CompLowerCacheObject : public CacheObject, public Servant {
 public:
  CompLowerCacheObject(sp<Domain> domain, sp<CompLayer> layer,
                       sp<CompLayer::FileState> state)
      : Servant(std::move(domain)), layer_(std::move(layer)),
        state_(std::move(state)) {}

  Result<std::vector<BlockData>> FlushBack(Range) override {
    return InDomain([&]() -> Result<std::vector<BlockData>> {
      RETURN_IF_ERROR(layer_->LowerInvalidate(*state_));
      return std::vector<BlockData>{};
    });
  }
  Result<std::vector<BlockData>> DenyWrites(Range) override {
    return InDomain([&]() -> Result<std::vector<BlockData>> {
      RETURN_IF_ERROR(layer_->LowerInvalidate(*state_));
      return std::vector<BlockData>{};
    });
  }
  Result<std::vector<BlockData>> WriteBack(Range) override {
    return std::vector<BlockData>{};
  }
  Status DeleteRange(Range) override {
    return InDomain([&] { return layer_->LowerInvalidate(*state_); });
  }
  Status ZeroFill(Range) override {
    return InDomain([&] { return layer_->LowerInvalidate(*state_); });
  }
  Status Populate(Offset, AccessRights, ByteSpan) override {
    return Status::Ok();
  }
  Status DestroyCache() override {
    return InDomain([&]() -> Status {
      std::lock_guard<std::mutex> lock(state_->mutex);
      state_->bound_below = false;
      state_->lower_pager = nullptr;
      return Status::Ok();
    });
  }

 private:
  sp<CompLayer> layer_;
  sp<CompLayer::FileState> state_;
};

// COMPFS's pager object toward one client cache manager.
class CompPagerObject : public FsPagerObject, public Servant {
 public:
  CompPagerObject(sp<Domain> domain, sp<CompLayer> layer,
                  sp<CompLayer::FileState> state, uint64_t channel)
      : Servant(std::move(domain)), layer_(std::move(layer)),
        state_(std::move(state)), channel_(channel) {}

  Result<Buffer> PageIn(Offset offset, Offset size,
                        AccessRights access) override {
    return InDomain([&] {
      return layer_->ClientPageIn(*state_, channel_, offset, size, access);
    });
  }
  Status PageOut(Offset offset, ByteSpan data) override {
    return InDomain([&] {
      return layer_->ClientPageWrite(*state_, channel_, offset, data, true,
                                     false, false);
    });
  }
  Status WriteOut(Offset offset, ByteSpan data) override {
    return InDomain([&] {
      return layer_->ClientPageWrite(*state_, channel_, offset, data, false,
                                     true, false);
    });
  }
  Status Sync(Offset offset, ByteSpan data) override {
    return InDomain([&] {
      return layer_->ClientPageWrite(*state_, channel_, offset, data, false,
                                     false, true);
    });
  }
  void DoneWithPagerObject() override {
    InDomain([&] {
      std::lock_guard<std::mutex> lock(state_->mutex);
      state_->engine.RemoveCache(channel_);
      layer_->client_channels_.RemoveChannel(channel_);
    });
  }

  Result<FileAttributes> GetAttributes() override {
    return InDomain([&]() -> Result<FileAttributes> {
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(layer_->LoadMeta(*state_));
      FileAttributes attrs;
      attrs.kind = FileKind::kRegular;
      attrs.size = state_->logical_size;
      attrs.atime_ns = state_->atime_ns;
      attrs.mtime_ns = state_->mtime_ns;
      return attrs;
    });
  }
  Status WriteAttributes(const AttrUpdate& update) override {
    return InDomain([&]() -> Status {
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(layer_->LoadMeta(*state_));
      if (update.size) {
        state_->logical_size = *update.size;
      }
      if (update.atime_ns) {
        state_->atime_ns = *update.atime_ns;
      }
      if (update.mtime_ns) {
        state_->mtime_ns = *update.mtime_ns;
      }
      state_->meta_dirty = true;
      return Status::Ok();
    });
  }

 private:
  sp<CompLayer> layer_;
  sp<CompLayer::FileState> state_;
  uint64_t channel_;
};

// A compressed file as seen by COMPFS clients (plaintext view).
class CompFile : public File, public Servant {
 public:
  CompFile(sp<Domain> domain, sp<CompLayer> layer,
           sp<CompLayer::FileState> state)
      : Servant(std::move(domain)), layer_(std::move(layer)),
        state_(std::move(state)) {}

  const sp<CompLayer::FileState>& state() const { return state_; }

  Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                               AccessRights) override {
    return InDomain([&]() -> Result<sp<CacheRights>> {
      if (layer_->options_.coherent_lower) {
        RETURN_IF_ERROR(layer_->EnsureBoundBelow(state_));
      }
      sp<CompLayer> layer = layer_;
      sp<CompLayer::FileState> state = state_;
      ASSIGN_OR_RETURN(
          sp<CacheRights> rights,
          layer_->client_channels_.Bind(
              state_->file_id, state_->pager_key, caller,
              [&](uint64_t local_id) -> sp<PagerObject> {
                return std::make_shared<CompPagerObject>(layer->domain(),
                                                         layer, state,
                                                         local_id);
              }));
      std::lock_guard<std::mutex> lock(state_->mutex);
      for (const auto& ch :
           layer_->client_channels_.ChannelsForFile(state_->file_id)) {
        if (!state_->engine.HasCache(ch.local_id)) {
          state_->engine.AddCache(ch.local_id, ch.cache);
        }
      }
      return rights;
    });
  }

  Result<Offset> GetLength() override {
    return InDomain([&]() -> Result<Offset> {
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(layer_->LoadMeta(*state_));
      return Offset{state_->logical_size};
    });
  }

  Status SetLength(Offset length) override {
    return InDomain([&]() -> Status {
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(layer_->LoadMeta(*state_));
      uint64_t old_size = state_->logical_size;
      state_->logical_size = length;
      state_->mtime_ns = layer_->clock_->Now();
      state_->meta_dirty = true;
      if (length < old_size) {
        uint64_t keep_blocks = (length + kPageSize - 1) / kPageSize;
        if (state_->table.size() > keep_blocks) {
          state_->table.resize(keep_blocks);  // orphans chunks (garbage)
        }
        Offset from = PageCeil(length);
        for (const sp<CacheObject>& cache : state_->engine.Caches()) {
          RETURN_IF_ERROR(cache->DeleteRange(Range{from, ~Offset{0} - from}));
        }
        auto it = state_->cache.lower_bound(from);
        while (it != state_->cache.end()) {
          state_->dirty.erase(it->first);
          it = state_->cache.erase(it);
        }
        if (length % kPageSize != 0) {
          Offset page = PageFloor(length);
          auto cache_it = state_->cache.find(page);
          if (cache_it != state_->cache.end()) {
            size_t cut = length - page;
            std::memset(cache_it->second.data() + cut, 0, kPageSize - cut);
            state_->dirty[page] = true;
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

  Result<size_t> Read(Offset offset, MutableByteSpan out) override {
    return InDomain([&]() -> Result<size_t> {
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(layer_->LoadMeta(*state_));
      RETURN_IF_ERROR(layer_->AcquireLocked(
          *state_, 0, Range{offset, out.size()}, AccessRights::kReadOnly));
      if (offset >= state_->logical_size) {
        return size_t{0};
      }
      size_t to_read = std::min<uint64_t>(out.size(),
                                          state_->logical_size - offset);
      RETURN_IF_ERROR(layer_->EnsureCached(*state_, PageFloor(offset),
                                           PageCeil(offset + to_read)));
      size_t done = 0;
      while (done < to_read) {
        Offset page = PageFloor(offset + done);
        size_t in_page = offset + done - page;
        size_t chunk = std::min<size_t>(kPageSize - in_page, to_read - done);
        std::memcpy(out.data() + done,
                    state_->cache.at(page).data() + in_page, chunk);
        done += chunk;
      }
      state_->atime_ns = layer_->clock_->Now();
      state_->meta_dirty = true;
      return to_read;
    });
  }

  Result<size_t> Write(Offset offset, ByteSpan data) override {
    return InDomain([&]() -> Result<size_t> {
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(layer_->LoadMeta(*state_));
      RETURN_IF_ERROR(layer_->AcquireLocked(
          *state_, 0, Range{offset, data.size()}, AccessRights::kReadWrite));
      RETURN_IF_ERROR(layer_->EnsureCached(*state_, PageFloor(offset),
                                           PageCeil(offset + data.size())));
      size_t done = 0;
      while (done < data.size()) {
        Offset page = PageFloor(offset + done);
        size_t in_page = offset + done - page;
        size_t chunk = std::min<size_t>(kPageSize - in_page,
                                        data.size() - done);
        std::memcpy(state_->cache.at(page).data() + in_page,
                    data.data() + done, chunk);
        state_->dirty[page] = true;
        done += chunk;
      }
      state_->logical_size = std::max<uint64_t>(state_->logical_size,
                                                offset + data.size());
      state_->mtime_ns = layer_->clock_->Now();
      state_->meta_dirty = true;
      {
        std::lock_guard<std::mutex> stats_lock(layer_->stats_mutex_);
        layer_->stats_.bytes_logical += data.size();
      }
      return data.size();
    });
  }

  Result<FileAttributes> Stat() override {
    return InDomain([&]() -> Result<FileAttributes> {
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(layer_->LoadMeta(*state_));
      FileAttributes attrs;
      attrs.kind = FileKind::kRegular;
      attrs.size = state_->logical_size;
      attrs.atime_ns = state_->atime_ns;
      attrs.mtime_ns = state_->mtime_ns;
      return attrs;
    });
  }

  Status SetTimes(uint64_t atime_ns, uint64_t mtime_ns) override {
    return InDomain([&]() -> Status {
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(layer_->LoadMeta(*state_));
      state_->atime_ns = atime_ns;
      state_->mtime_ns = mtime_ns;
      state_->meta_dirty = true;
      return Status::Ok();
    });
  }

  Status SyncFile() override {
    return InDomain([&]() -> Status {
      {
        std::lock_guard<std::mutex> lock(state_->mutex);
        // Recall the freshest data from client writers first.
        RETURN_IF_ERROR(layer_->AcquireLocked(*state_, 0, Range::All(),
                                              AccessRights::kReadOnly));
        RETURN_IF_ERROR(layer_->FlushDirty(*state_));
      }
      RETURN_IF_ERROR(state_->under_data->SyncFile());
      return state_->under_meta->SyncFile();
    });
  }

 private:
  sp<CompLayer> layer_;
  sp<CompLayer::FileState> state_;
};

// --- CompLayer --------------------------------------------------------------

sp<CompLayer> CompLayer::Create(sp<Domain> domain, CompLayerOptions options,
                                Clock* clock) {
  return sp<CompLayer>(new CompLayer(std::move(domain), options, clock));
}

CompLayer::CompLayer(sp<Domain> domain, CompLayerOptions options, Clock* clock)
    : Servant(std::move(domain)), options_(std::move(options)),
      codec_(CodecByName(options_.codec)), clock_(clock) {
  SPRINGFS_CHECK(codec_ != nullptr);
  metrics::Registry::Global().RegisterProvider(this);
}

CompLayer::~CompLayer() {
  metrics::Registry::Global().UnregisterProvider(this);
}

Status CompLayer::StackOn(sp<StackableFs> underlying) {
  return InDomain([&]() -> Status {
    if (under_) {
      return ErrAlreadyExists("compfs already stacked");
    }
    if (!underlying) {
      return ErrInvalidArgument("null underlying file system");
    }
    under_ = std::move(underlying);
    return Status::Ok();
  });
}

Result<sp<CompFile>> CompLayer::WrapFile(const Name& name,
                                         const sp<File>& under_data) {
  std::string key = name.ToString();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = wrapped_files_.find(key);
    if (it != wrapped_files_.end()) {
      return it->second;
    }
  }
  // Locate (or create) the metadata shadow file.
  Name meta_name = MetaNameFor(name);
  sp<File> under_meta;
  Result<sp<Object>> meta_obj = under_->Resolve(meta_name,
                                                Credentials::System());
  if (meta_obj.ok()) {
    under_meta = narrow<File>(*meta_obj);
    if (!under_meta) {
      return ErrWrongType("metadata shadow is not a file");
    }
  } else if (meta_obj.code() == ErrorCode::kNotFound) {
    ASSIGN_OR_RETURN(under_meta,
                     under_->CreateFile(meta_name, Credentials::System()));
  } else {
    return meta_obj.status();
  }

  auto state = std::make_shared<FileState>();
  state->under_data = under_data;
  state->under_meta = under_meta;
  state->name = key;
  state->atime_ns = state->mtime_ns = clock_->Now();
  sp<CompLayer> self = std::dynamic_pointer_cast<CompLayer>(shared_from_this());
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = wrapped_files_.find(key);
  if (it != wrapped_files_.end()) {
    return it->second;
  }
  state->file_id = next_file_id_++;
  state->pager_key = NewPagerKey();
  auto wrapped = std::make_shared<CompFile>(domain(), self, state);
  wrapped_files_.emplace(key, wrapped);
  return wrapped;
}

Result<sp<Object>> CompLayer::Resolve(const Name& name,
                                      const Credentials& creds) {
  return InDomain([&]() -> Result<sp<Object>> {
    if (!under_) {
      return ErrInvalidArgument("compfs not stacked");
    }
    if (name.empty()) {
      return sp<Object>(std::dynamic_pointer_cast<Object>(shared_from_this()));
    }
    if (IsMetaName(name.back())) {
      return ErrNotFound("metadata shadow files are not exported");
    }
    ASSIGN_OR_RETURN(sp<Object> object, under_->Resolve(name, creds));
    if (sp<File> file = narrow<File>(object)) {
      ASSIGN_OR_RETURN(sp<CompFile> wrapped, WrapFile(name, file));
      return sp<Object>(wrapped);
    }
    if (narrow<Context>(object)) {
      return sp<Object>(SubContext<CompLayer>::Of(this, name));
    }
    return object;
  });
}

Status CompLayer::Bind(const Name& name, sp<Object> object,
                       const Credentials& creds, bool replace) {
  return InDomain([&]() -> Status {
    if (!under_) {
      return ErrInvalidArgument("compfs not stacked");
    }
    return under_->Bind(name, std::move(object), creds, replace);
  });
}

Status CompLayer::Unbind(const Name& name, const Credentials& creds) {
  return InDomain([&]() -> Status {
    if (!under_) {
      return ErrInvalidArgument("compfs not stacked");
    }
    RETURN_IF_ERROR(under_->Unbind(name, creds));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      wrapped_files_.erase(name.ToString());
    }
    if (!name.empty()) {
      Status st = under_->Unbind(MetaNameFor(name), creds);
      if (!st.ok() && st.code() != ErrorCode::kNotFound) {
        return st;
      }
    }
    return Status::Ok();
  });
}

Result<std::vector<BindingInfo>> CompLayer::List(const Credentials& creds) {
  return ListAt(Name(), creds);
}

Result<std::vector<BindingInfo>> CompLayer::ListAt(const Name& dir,
                                                   const Credentials& creds) {
  return InDomain([&]() -> Result<std::vector<BindingInfo>> {
    if (!under_) {
      return ErrInvalidArgument("compfs not stacked");
    }
    ASSIGN_OR_RETURN(std::vector<BindingInfo> all,
                     ListDirectory(under_, dir, creds));
    std::vector<BindingInfo> visible;
    for (auto& entry : all) {
      if (!IsMetaName(entry.name)) {
        visible.push_back(std::move(entry));
      }
    }
    return visible;
  });
}

Result<sp<Context>> CompLayer::CreateContext(const Name& name,
                                             const Credentials& creds) {
  return InDomain([&]() -> Result<sp<Context>> {
    if (!under_) {
      return ErrInvalidArgument("compfs not stacked");
    }
    RETURN_IF_ERROR(under_->CreateContext(name, creds).status());
    return SubContext<CompLayer>::Of(this, name);
  });
}

Result<sp<File>> CompLayer::CreateFile(const Name& name,
                                       const Credentials& creds) {
  return InDomain([&]() -> Result<sp<File>> {
    if (!under_) {
      return ErrInvalidArgument("compfs not stacked");
    }
    if (name.empty() || IsMetaName(name.back())) {
      return ErrInvalidArgument("invalid compfs file name");
    }
    ASSIGN_OR_RETURN(sp<File> under_data, under_->CreateFile(name, creds));
    ASSIGN_OR_RETURN(sp<CompFile> wrapped, WrapFile(name, under_data));
    return sp<File>(wrapped);
  });
}

Result<FsInfo> CompLayer::GetFsInfo() {
  return InDomain([&]() -> Result<FsInfo> {
    if (!under_) {
      return ErrInvalidArgument("compfs not stacked");
    }
    ASSIGN_OR_RETURN(FsInfo info, under_->GetFsInfo());
    info.type = "compfs(" + info.type + ")";
    info.stack_depth += 1;
    return info;
  });
}

Status CompLayer::SyncFs() {
  return InDomain([&]() -> Status {
    if (!under_) {
      return ErrInvalidArgument("compfs not stacked");
    }
    std::vector<sp<CompFile>> files;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto& [name, file] : wrapped_files_) {
        files.push_back(file);
      }
    }
    for (const sp<CompFile>& file : files) {
      const sp<FileState>& state = file->state();
      std::lock_guard<std::mutex> lock(state->mutex);
      if (!state->meta_loaded) {
        continue;
      }
      RETURN_IF_ERROR(FlushDirty(*state));
      // Auto-compaction: reclaim when the chunk store outgrew live data.
      uint64_t live = 0;
      for (const ChunkEntry& entry : state->table) {
        live += entry.length;
      }
      if (live > 0 &&
          static_cast<double>(state->next_free) >
              kCompactWasteFactor * static_cast<double>(live)) {
        uint64_t reclaimed = 0;
        RETURN_IF_ERROR(CompactLocked(*state, &reclaimed));
      }
    }
    return under_->SyncFs();
  });
}

// --- binding below (Figure 6) ----------------------------------------------

Status CompLayer::EnsureBoundBelow(const sp<FileState>& state) {
  std::lock_guard<std::mutex> bind_lock(state->bind_mutex);
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    if (state->bound_below) {
      return Status::Ok();
    }
  }
  sp<CompLayer> self = std::dynamic_pointer_cast<CompLayer>(shared_from_this());
  ASSIGN_OR_RETURN(
      sp<PagerObject> pager,
      BindBelow(*state->under_data,
                std::make_shared<CompLowerCacheObject>(domain(), self, state),
                state->file_id, "compfs"));
  std::lock_guard<std::mutex> lock(state->mutex);
  state->lower_pager = std::move(pager);
  state->bound_below = true;
  // Everything cached so far was fetched through the (incoherent) file
  // interface, with no holdings registered at the layer below. Drop the
  // derived caches so future loads go through the pager channel and the
  // layer below knows what we hold.
  for (auto it = state->cache.begin(); it != state->cache.end();) {
    auto dirty_it = state->dirty.find(it->first);
    bool is_dirty = dirty_it != state->dirty.end() && dirty_it->second;
    it = is_dirty ? std::next(it) : state->cache.erase(it);
  }
  if (!state->meta_dirty) {
    state->meta_loaded = false;
  }
  return Status::Ok();
}

Status CompLayer::LowerInvalidate(FileState& state) {
  std::lock_guard<std::mutex> lock(state.mutex);
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.lower_invalidations;
  }
  // Derived caches are stale; dirty plaintext (our own new data) survives.
  for (auto it = state.cache.begin(); it != state.cache.end();) {
    auto dirty_it = state.dirty.find(it->first);
    bool is_dirty = dirty_it != state.dirty.end() && dirty_it->second;
    it = is_dirty ? std::next(it) : state.cache.erase(it);
  }
  state.meta_loaded = state.meta_dirty;  // reload unless we own newer meta
  return Status::Ok();
}

// --- lower access ------------------------------------------------------------

Result<size_t> CompLayer::LowerRead(FileState& state, Offset offset,
                                    MutableByteSpan out) {
  if (state.bound_below) {
    Offset begin = PageFloor(offset);
    Offset end = PageCeil(offset + out.size());
    ASSIGN_OR_RETURN(Buffer pages, state.lower_pager->PageIn(
                                       begin, end - begin,
                                       AccessRights::kReadOnly));
    if (pages.size() < end - begin) {
      pages.resize(end - begin);
    }
    return pages.ReadAt(offset - begin, out);
  }
  return state.under_data->Read(offset, out);
}

Status CompLayer::LowerWrite(FileState& state, Offset offset, ByteSpan data) {
  if (!state.bound_below) {
    ASSIGN_OR_RETURN(size_t written, state.under_data->Write(offset, data));
    if (written != data.size()) {
      return ErrIoError("short write to underlying data file");
    }
    return Status::Ok();
  }
  // Page-granular read-modify-write through the pager channel. The PageIn
  // is issued even for whole-page writes: it registers this layer as the
  // write holder in the lower layer's coherency state, so later direct
  // writes to the underlying file flush us.
  Offset begin = PageFloor(offset);
  Offset end = PageCeil(offset + data.size());
  ASSIGN_OR_RETURN(Buffer pages,
                   state.lower_pager->PageIn(begin, end - begin,
                                             AccessRights::kReadWrite));
  pages.resize(end - begin);
  pages.WriteAt(offset - begin, data);
  RETURN_IF_ERROR(state.lower_pager->Sync(begin, pages.span()));
  // Keep the underlying file's length in step with the chunk store.
  ASSIGN_OR_RETURN(Offset under_len, state.under_data->GetLength());
  if (offset + data.size() > under_len) {
    RETURN_IF_ERROR(state.under_data->SetLength(offset + data.size()));
  }
  return Status::Ok();
}

// --- metadata ----------------------------------------------------------------

Status CompLayer::LoadMeta(FileState& state) {
  if (state.meta_loaded) {
    return Status::Ok();
  }
  ASSIGN_OR_RETURN(FileAttributes meta_attrs, state.under_meta->Stat());
  if (meta_attrs.size == 0) {
    // Fresh file: empty table.
    state.logical_size = 0;
    state.next_free = 0;
    state.table.clear();
    state.meta_loaded = true;
    state.meta_dirty = true;
    return Status::Ok();
  }
  Buffer raw(meta_attrs.size);
  ASSIGN_OR_RETURN(size_t n, state.under_meta->Read(0, raw.mutable_span()));
  if (n != meta_attrs.size || n < kMetaHeaderSize + 4) {
    return ErrCorrupted("compfs metadata truncated");
  }
  uint32_t stored_crc = LoadLe<uint32_t>(raw.data() + raw.size() - 4);
  uint32_t computed_crc = Crc32(raw.subspan(0, raw.size() - 4));
  if (stored_crc != computed_crc) {
    return ErrCorrupted("compfs metadata CRC mismatch");
  }
  if (LoadLe<uint32_t>(raw.data()) != kCompMagic ||
      LoadLe<uint32_t>(raw.data() + 4) != kCompVersion) {
    return ErrCorrupted("compfs metadata bad magic/version");
  }
  state.logical_size = LoadLe<uint64_t>(raw.data() + 8);
  state.next_free = LoadLe<uint64_t>(raw.data() + 16);
  uint64_t block_count = LoadLe<uint64_t>(raw.data() + 24);
  state.atime_ns = LoadLe<uint64_t>(raw.data() + 32);
  state.mtime_ns = LoadLe<uint64_t>(raw.data() + 40);
  if (raw.size() != kMetaHeaderSize + block_count * kMetaEntrySize + 4) {
    return ErrCorrupted("compfs metadata size mismatch");
  }
  state.table.clear();
  state.table.reserve(block_count);
  for (uint64_t i = 0; i < block_count; ++i) {
    size_t at = kMetaHeaderSize + i * kMetaEntrySize;
    ChunkEntry entry;
    entry.offset = LoadLe<uint64_t>(raw.data() + at);
    entry.length = LoadLe<uint32_t>(raw.data() + at + 8);
    entry.raw = (LoadLe<uint32_t>(raw.data() + at + 12) & 1) != 0;
    state.table.push_back(entry);
  }
  state.meta_loaded = true;
  state.meta_dirty = false;
  return Status::Ok();
}

Status CompLayer::StoreMeta(FileState& state) {
  Buffer raw(kMetaHeaderSize + state.table.size() * kMetaEntrySize + 4);
  StoreLe<uint32_t>(raw.data(), kCompMagic);
  StoreLe<uint32_t>(raw.data() + 4, kCompVersion);
  StoreLe<uint64_t>(raw.data() + 8, state.logical_size);
  StoreLe<uint64_t>(raw.data() + 16, state.next_free);
  StoreLe<uint64_t>(raw.data() + 24, state.table.size());
  StoreLe<uint64_t>(raw.data() + 32, state.atime_ns);
  StoreLe<uint64_t>(raw.data() + 40, state.mtime_ns);
  for (size_t i = 0; i < state.table.size(); ++i) {
    size_t at = kMetaHeaderSize + i * kMetaEntrySize;
    StoreLe<uint64_t>(raw.data() + at, state.table[i].offset);
    StoreLe<uint32_t>(raw.data() + at + 8, state.table[i].length);
    StoreLe<uint32_t>(raw.data() + at + 12, state.table[i].raw ? 1 : 0);
  }
  StoreLe<uint32_t>(raw.data() + raw.size() - 4,
                    Crc32(raw.subspan(0, raw.size() - 4)));
  ASSIGN_OR_RETURN(size_t written, state.under_meta->Write(0, raw.span()));
  if (written != raw.size()) {
    return ErrIoError("short metadata write");
  }
  RETURN_IF_ERROR(state.under_meta->SetLength(raw.size()));
  state.meta_dirty = false;
  return Status::Ok();
}

// --- blocks ------------------------------------------------------------------

Result<Buffer> CompLayer::LoadBlock(FileState& state, uint64_t block_index) {
  Buffer page(kPageSize);
  if (block_index >= state.table.size() ||
      state.table[block_index].length == 0) {
    return page;  // hole
  }
  const ChunkEntry& entry = state.table[block_index];
  Buffer chunk(entry.length);
  ASSIGN_OR_RETURN(size_t n, LowerRead(state, entry.offset,
                                       chunk.mutable_span()));
  if (n != entry.length) {
    return ErrCorrupted("compfs chunk truncated in underlying file");
  }
  if (entry.raw) {
    if (entry.length != kPageSize) {
      return ErrCorrupted("compfs raw chunk has wrong size");
    }
    return chunk;
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.blocks_decompressed;
  }
  return codec_->Decompress(chunk.span(), kPageSize);
}

Status CompLayer::StoreBlock(FileState& state, uint64_t block_index,
                             ByteSpan page) {
  SPRINGFS_CHECK(page.size() == kPageSize);
  Buffer compressed = codec_->Compress(page);
  bool raw = compressed.size() >= kPageSize;
  ByteSpan chunk = raw ? page : compressed.span();
  uint64_t offset = state.next_free;
  RETURN_IF_ERROR(LowerWrite(state, offset, chunk));
  state.next_free += chunk.size();
  if (state.table.size() <= block_index) {
    state.table.resize(block_index + 1);
  }
  state.table[block_index] =
      ChunkEntry{offset, static_cast<uint32_t>(chunk.size()), raw};
  state.meta_dirty = true;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.blocks_compressed;
    if (raw) {
      ++stats_.blocks_stored_raw;
    }
    stats_.bytes_stored += chunk.size();
  }
  return Status::Ok();
}

Status CompLayer::EnsureCached(FileState& state, Offset begin, Offset end) {
  for (Offset page = begin; page < end; page += kPageSize) {
    if (state.cache.count(page)) {
      continue;
    }
    ASSIGN_OR_RETURN(Buffer block, LoadBlock(state, page / kPageSize));
    state.cache.emplace(page, std::move(block));
    state.dirty[page] = false;
  }
  return Status::Ok();
}

Status CompLayer::FlushDirty(FileState& state) {
  for (auto& [page, is_dirty] : state.dirty) {
    if (!is_dirty) {
      continue;
    }
    RETURN_IF_ERROR(StoreBlock(state, page / kPageSize,
                               state.cache.at(page).span()));
    is_dirty = false;
  }
  if (state.meta_dirty) {
    RETURN_IF_ERROR(StoreMeta(state));
  }
  return Status::Ok();
}

Status CompLayer::CompactLocked(FileState& state, uint64_t* reclaimed) {
  RETURN_IF_ERROR(FlushDirty(state));
  uint64_t before = state.next_free;
  // Rebuild the chunk store: copy every live chunk into a fresh image.
  Buffer image;
  std::vector<ChunkEntry> new_table = state.table;
  for (size_t i = 0; i < state.table.size(); ++i) {
    const ChunkEntry& entry = state.table[i];
    if (entry.length == 0) {
      continue;
    }
    Buffer chunk(entry.length);
    ASSIGN_OR_RETURN(size_t n, LowerRead(state, entry.offset,
                                         chunk.mutable_span()));
    if (n != entry.length) {
      return ErrCorrupted("compfs chunk truncated during compaction");
    }
    new_table[i].offset = image.size();
    image.append(chunk.span());
  }
  RETURN_IF_ERROR(LowerWrite(state, 0, image.span()));
  RETURN_IF_ERROR(state.under_data->SetLength(image.size()));
  state.table = std::move(new_table);
  state.next_free = image.size();
  state.meta_dirty = true;
  RETURN_IF_ERROR(StoreMeta(state));
  if (reclaimed) {
    *reclaimed = before > state.next_free ? before - state.next_free : 0;
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.compactions;
  }
  return Status::Ok();
}

Result<uint64_t> CompLayer::Compact(const Name& name,
                                    const Credentials& creds) {
  return InDomain([&]() -> Result<uint64_t> {
    ASSIGN_OR_RETURN(sp<Object> object, Resolve(name, creds));
    sp<CompFile> file = narrow<CompFile>(object);
    if (!file) {
      return ErrWrongType("not a compfs file");
    }
    const sp<FileState>& state = file->state();
    std::lock_guard<std::mutex> lock(state->mutex);
    RETURN_IF_ERROR(LoadMeta(*state));
    uint64_t reclaimed = 0;
    RETURN_IF_ERROR(CompactLocked(*state, &reclaimed));
    return reclaimed;
  });
}

Status CompLayer::AcquireLocked(FileState& state, uint64_t requester,
                                Range range, AccessRights access) {
  CoherencyEngine::Recovered recovered =
      state.engine.Acquire(requester, range, access);
  for (const BlockData& block : recovered.blocks) {
    Buffer page = block.data;
    page.resize(kPageSize);
    state.cache[block.offset] = std::move(page);
    state.dirty[block.offset] = true;
  }
  return recovered.status;
}

// --- client pager paths -------------------------------------------------------

Result<Buffer> CompLayer::ClientPageIn(FileState& state, uint64_t channel,
                                       Offset offset, Offset size,
                                       AccessRights access) {
  std::lock_guard<std::mutex> lock(state.mutex);
  RETURN_IF_ERROR(LoadMeta(state));
  Offset begin = PageFloor(offset);
  Offset end = PageCeil(offset + std::max<Offset>(size, 1));
  RETURN_IF_ERROR(
      AcquireLocked(state, channel, Range::FromTo(begin, end), access));
  RETURN_IF_ERROR(EnsureCached(state, begin, end));
  Buffer out(end - begin);
  for (Offset page = begin; page < end; page += kPageSize) {
    out.WriteAt(page - begin, state.cache.at(page).span());
  }
  return out;
}

Status CompLayer::ClientPageWrite(FileState& state, uint64_t channel,
                                  Offset offset, ByteSpan data, bool drops,
                                  bool downgrades, bool push_below) {
  std::lock_guard<std::mutex> lock(state.mutex);
  RETURN_IF_ERROR(LoadMeta(state));
  if (offset % kPageSize != 0 || data.size() % kPageSize != 0) {
    return ErrInvalidArgument("page write must be page-aligned");
  }
  for (Offset off = 0; off < data.size(); off += kPageSize) {
    Buffer page(data.subspan(off, kPageSize));
    if (push_below) {
      RETURN_IF_ERROR(StoreBlock(state, (offset + off) / kPageSize,
                                 page.span()));
      state.cache[offset + off] = std::move(page);
      state.dirty[offset + off] = false;
    } else {
      state.cache[offset + off] = std::move(page);
      state.dirty[offset + off] = true;
    }
  }
  if (push_below && state.meta_dirty) {
    RETURN_IF_ERROR(StoreMeta(state));
  }
  if (drops) {
    state.engine.ReleaseDropped(channel, Range{offset, data.size()});
  } else if (downgrades) {
    state.engine.ReleaseDowngraded(channel, Range{offset, data.size()});
  }
  state.mtime_ns = clock_->Now();
  state.meta_dirty = true;
  return Status::Ok();
}

void CompLayer::CollectStats(const metrics::StatsEmitter& emit) const {
  Stats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
  }
  emit("blocks_compressed", snapshot.blocks_compressed);
  emit("blocks_decompressed", snapshot.blocks_decompressed);
  emit("blocks_stored_raw", snapshot.blocks_stored_raw);
  emit("bytes_logical", snapshot.bytes_logical);
  emit("bytes_stored", snapshot.bytes_stored);
  emit("compactions", snapshot.compactions);
  emit("lower_invalidations", snapshot.lower_invalidations);
}

}  // namespace springfs
