#include "src/layers/cfs/cfs_layer.h"

#include "src/fs/channel_table.h"

#include <algorithm>

#include "src/naming/views.h"
#include "src/support/logging.h"

namespace springfs {

// CFS's cache object toward the remote file. CFS caches no data (the VMM
// does, through its own channel), so data callbacks return nothing; the
// attribute callbacks maintain the local attribute cache.
class CfsCacheObject : public FsCacheObject, public Servant {
 public:
  CfsCacheObject(sp<Domain> domain, sp<CfsLayer> layer,
                 sp<CfsLayer::FileState> state)
      : Servant(std::move(domain)), layer_(std::move(layer)),
        state_(std::move(state)) {}

  Result<std::vector<BlockData>> FlushBack(Range) override {
    return std::vector<BlockData>{};
  }
  Result<std::vector<BlockData>> DenyWrites(Range) override {
    return std::vector<BlockData>{};
  }
  Result<std::vector<BlockData>> WriteBack(Range) override {
    return std::vector<BlockData>{};
  }
  Status DeleteRange(Range) override { return Status::Ok(); }
  Status ZeroFill(Range) override { return Status::Ok(); }
  Status Populate(Offset, AccessRights, ByteSpan) override {
    return Status::Ok();
  }
  Status DestroyCache() override { return Status::Ok(); }

  Status InvalidateAttributes() override {
    return InDomain([&]() -> Status {
      layer_->NoteAttrInvalidation();
      std::lock_guard<std::recursive_mutex> lock(state_->mutex);
      if (!state_->attrs_dirty) {
        state_->attrs_valid = false;
      }
      return Status::Ok();
    });
  }
  Result<AttrUpdate> RecallAttributes() override {
    return InDomain([&]() -> Result<AttrUpdate> {
      std::lock_guard<std::recursive_mutex> lock(state_->mutex);
      AttrUpdate update;
      if (state_->attrs_valid && state_->attrs_dirty) {
        update.size = state_->attrs.size;
        update.atime_ns = state_->attrs.atime_ns;
        update.mtime_ns = state_->attrs.mtime_ns;
      }
      return update;
    });
  }

 private:
  sp<CfsLayer> layer_;
  sp<CfsLayer::FileState> state_;
};

// The interposed view of one remote file.
class CfsFile : public File, public Servant {
 public:
  CfsFile(sp<Domain> domain, sp<CfsLayer> layer, sp<CfsLayer::FileState> state)
      : Servant(std::move(domain)), layer_(std::move(layer)),
        state_(std::move(state)) {}

  const sp<CfsLayer::FileState>& state() const { return state_; }

  Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                               AccessRights requested_access) override {
    // "CFS proceeds by returning to the VMM a pager-cache object channel to
    // the remote DFS": the bind is forwarded, CFS stays off the data path.
    return state_->remote->Bind(caller, requested_access);
  }

  Result<Offset> GetLength() override {
    return InDomain([&]() -> Result<Offset> {
      std::lock_guard<std::recursive_mutex> lock(state_->mutex);
      RETURN_IF_ERROR(layer_->EnsureAttrs(*state_));
      return Offset{state_->attrs.size};
    });
  }

  Status SetLength(Offset length) override {
    return InDomain([&]() -> Status {
      RETURN_IF_ERROR(state_->remote->SetLength(length));
      std::lock_guard<std::recursive_mutex> lock(state_->mutex);
      if (state_->attrs_valid) {
        state_->attrs.size = length;
      }
      return Status::Ok();
    });
  }

  Result<size_t> Read(Offset offset, MutableByteSpan out) override {
    return InDomain([&]() -> Result<size_t> {
      RETURN_IF_ERROR(layer_->EnsureBoundRemote(state_));
      std::lock_guard<std::recursive_mutex> lock(state_->mutex);
      RETURN_IF_ERROR(layer_->EnsureAttrs(*state_));
      if (offset >= state_->attrs.size) {
        return size_t{0};
      }
      size_t to_read = std::min<uint64_t>(out.size(),
                                          state_->attrs.size - offset);
      RETURN_IF_ERROR(layer_->EnsureRegion(*state_));
      RETURN_IF_ERROR(state_->region->Read(offset,
                                           out.subspan(0, to_read)));
      return to_read;
    });
  }

  Result<size_t> Write(Offset offset, ByteSpan data) override {
    return InDomain([&]() -> Result<size_t> {
      RETURN_IF_ERROR(layer_->EnsureBoundRemote(state_));
      std::lock_guard<std::recursive_mutex> lock(state_->mutex);
      RETURN_IF_ERROR(layer_->EnsureAttrs(*state_));
      RETURN_IF_ERROR(layer_->EnsureRegion(*state_));
      RETURN_IF_ERROR(state_->region->Write(offset, data));
      if (offset + data.size() > state_->attrs.size) {
        state_->attrs.size = offset + data.size();
      }
      state_->attrs.mtime_ns = layer_->clock_->Now();
      state_->attrs_dirty = true;
      return data.size();
    });
  }

  Result<FileAttributes> Stat() override {
    return InDomain([&]() -> Result<FileAttributes> {
      std::lock_guard<std::recursive_mutex> lock(state_->mutex);
      RETURN_IF_ERROR(layer_->EnsureAttrs(*state_));
      return state_->attrs;
    });
  }

  Status SetTimes(uint64_t atime_ns, uint64_t mtime_ns) override {
    return InDomain([&]() -> Status {
      std::lock_guard<std::recursive_mutex> lock(state_->mutex);
      RETURN_IF_ERROR(layer_->EnsureAttrs(*state_));
      state_->attrs.atime_ns = atime_ns;
      state_->attrs.mtime_ns = mtime_ns;
      state_->attrs_dirty = true;
      return Status::Ok();
    });
  }

  Status SyncFile() override {
    return InDomain([&]() -> Status {
      {
        std::lock_guard<std::recursive_mutex> lock(state_->mutex);
        if (state_->region) {
          RETURN_IF_ERROR(state_->region->Sync());
        }
        RETURN_IF_ERROR(layer_->PushAttrs(*state_));
      }
      return state_->remote->SyncFile();
    });
  }

 private:
  sp<CfsLayer> layer_;
  sp<CfsLayer::FileState> state_;
};

sp<CfsLayer> CfsLayer::Create(sp<Domain> domain, sp<Context> remote,
                              sp<Vmm> vmm, Clock* clock) {
  return sp<CfsLayer>(new CfsLayer(std::move(domain), std::move(remote),
                                   std::move(vmm), clock));
}

CfsLayer::CfsLayer(sp<Domain> domain, sp<Context> remote, sp<Vmm> vmm,
                   Clock* clock)
    : Servant(std::move(domain)), remote_(std::move(remote)),
      vmm_(std::move(vmm)), clock_(clock) {
  metrics::Registry::Global().RegisterProvider(this);
}

CfsLayer::~CfsLayer() { metrics::Registry::Global().UnregisterProvider(this); }

void CfsLayer::NoteAttrInvalidation() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.attr_invalidations;
}

sp<CfsLayer::FileState> CfsLayer::StateFor(const sp<File>& remote) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = states_.find(remote.get());
  if (it != states_.end()) {
    return it->second;
  }
  auto state = std::make_shared<FileState>();
  state->remote = remote;
  states_.emplace(remote.get(), state);
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.files_interposed;
  }
  return state;
}

Status CfsLayer::EnsureBoundRemote(const sp<FileState>& state) {
  std::lock_guard<std::mutex> bind_lock(state->bind_mutex);
  {
    std::lock_guard<std::recursive_mutex> lock(state->mutex);
    if (state->bound_remote) {
      return Status::Ok();
    }
  }
  sp<CfsLayer> self = std::dynamic_pointer_cast<CfsLayer>(shared_from_this());
  ASSIGN_OR_RETURN(
      sp<OneChannelManager> channel,
      BindBelow(*state->remote,
                std::make_shared<CfsCacheObject>(domain(), self, state),
                NewPagerKey(), "cfs"));
  std::lock_guard<std::recursive_mutex> lock(state->mutex);
  state->remote_fs_pager = narrow<FsPagerObject>(channel->pager());
  state->remote_channel = std::move(channel);
  state->bound_remote = true;
  return Status::Ok();
}

Status CfsLayer::EnsureAttrs(FileState& state) {
  if (state.attrs_valid) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.attr_cache_hits;
    return Status::Ok();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.attr_cache_misses;
  }
  if (state.remote_fs_pager) {
    ASSIGN_OR_RETURN(state.attrs, state.remote_fs_pager->GetAttributes());
  } else {
    ASSIGN_OR_RETURN(state.attrs, state.remote->Stat());
  }
  state.attrs_valid = true;
  state.attrs_dirty = false;
  return Status::Ok();
}

Status CfsLayer::EnsureRegion(FileState& state) {
  if (state.region) {
    return Status::Ok();
  }
  ASSIGN_OR_RETURN(state.region,
                   vmm_->Map(state.remote, AccessRights::kReadWrite));
  return Status::Ok();
}

Status CfsLayer::PushAttrs(FileState& state) {
  if (!state.attrs_valid || !state.attrs_dirty) {
    return Status::Ok();
  }
  AttrUpdate update;
  update.size = state.attrs.size;
  update.atime_ns = state.attrs.atime_ns;
  update.mtime_ns = state.attrs.mtime_ns;
  if (state.remote_fs_pager) {
    RETURN_IF_ERROR(state.remote_fs_pager->WriteAttributes(update));
  } else {
    RETURN_IF_ERROR(state.remote->SetLength(state.attrs.size));
    RETURN_IF_ERROR(state.remote->SetTimes(state.attrs.atime_ns,
                                           state.attrs.mtime_ns));
  }
  state.attrs_dirty = false;
  return Status::Ok();
}

Result<sp<Object>> CfsLayer::Resolve(const Name& name,
                                     const Credentials& creds) {
  return InDomain([&]() -> Result<sp<Object>> {
    if (name.empty()) {
      return sp<Object>(std::dynamic_pointer_cast<Object>(shared_from_this()));
    }
    ASSIGN_OR_RETURN(sp<Object> object, remote_->Resolve(name, creds));
    if (sp<File> remote_file = narrow<File>(object)) {
      sp<CfsLayer> self =
          std::dynamic_pointer_cast<CfsLayer>(shared_from_this());
      return sp<Object>(std::make_shared<CfsFile>(domain(), self,
                                                  StateFor(remote_file)));
    }
    // Directories stay CFS's, so the files under them are interposed on.
    if (narrow<Context>(object)) {
      return sp<Object>(SubContext<CfsLayer>::Of(this, name));
    }
    return object;
  });
}

Status CfsLayer::Bind(const Name& name, sp<Object> object,
                      const Credentials& creds, bool replace) {
  return InDomain([&]() -> Status {
    if (sp<CfsFile> wrapped = narrow<CfsFile>(object)) {
      object = wrapped->state()->remote;
    }
    return remote_->Bind(name, std::move(object), creds, replace);
  });
}

Status CfsLayer::Unbind(const Name& name, const Credentials& creds) {
  return InDomain([&]() -> Status {
    // Capture the remote object first: the client hands the same object to
    // the next file created at this name, so the removed file's cached
    // attributes and mapping must go with its name.
    Result<sp<Object>> target = remote_->Resolve(name, creds);
    RETURN_IF_ERROR(remote_->Unbind(name, creds));
    if (target.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      states_.erase(target->get());
    }
    return Status::Ok();
  });
}

Result<std::vector<BindingInfo>> CfsLayer::List(const Credentials& creds) {
  return ListAt(Name(), creds);
}

Result<std::vector<BindingInfo>> CfsLayer::ListAt(const Name& dir,
                                                  const Credentials& creds) {
  return InDomain([&] { return ListDirectory(remote_, dir, creds); });
}

Result<sp<Context>> CfsLayer::CreateContext(const Name& name,
                                            const Credentials& creds) {
  return InDomain([&]() -> Result<sp<Context>> {
    RETURN_IF_ERROR(remote_->CreateContext(name, creds).status());
    return SubContext<CfsLayer>::Of(this, name);
  });
}

Result<FsInfo> CfsLayer::GetFsInfo() {
  FsInfo info;
  info.type = "cfs";
  info.stack_depth = 1;
  if (sp<Fs> remote_fs = narrow<Fs>(remote_)) {
    Result<FsInfo> sub = remote_fs->GetFsInfo();
    if (sub.ok()) {
      info.type = "cfs(" + sub->type + ")";
      info.stack_depth = sub->stack_depth + 1;
    }
  }
  return info;
}

Status CfsLayer::SyncFs() {
  std::vector<sp<FileState>> states;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [ptr, state] : states_) {
      states.push_back(state);
    }
  }
  for (const sp<FileState>& state : states) {
    std::lock_guard<std::recursive_mutex> lock(state->mutex);
    if (state->region) {
      RETURN_IF_ERROR(state->region->Sync());
    }
    RETURN_IF_ERROR(PushAttrs(*state));
  }
  return Status::Ok();
}

void CfsLayer::CollectStats(const metrics::StatsEmitter& emit) const {
  Stats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
  }
  emit("attr_cache_hits", snapshot.attr_cache_hits);
  emit("attr_cache_misses", snapshot.attr_cache_misses);
  emit("attr_invalidations", snapshot.attr_invalidations);
  emit("files_interposed", snapshot.files_interposed);
}

}  // namespace springfs
