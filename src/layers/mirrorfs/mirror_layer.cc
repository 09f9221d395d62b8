#include "src/layers/mirrorfs/mirror_layer.h"

#include <algorithm>
#include <map>

#include "src/naming/views.h"
#include "src/support/logging.h"

namespace springfs {

class MirrorFile;

// The mirror's pager object for one client channel: page-ins come from the
// first healthy replica, page writes fan out to every replica. The mirror
// performs no coherency callbacks (like the disk layer, it is a
// non-coherent base from its clients' point of view; stack a coherency
// layer above it when multiple cache managers share mirrored files).
class MirrorPagerObject : public FsPagerObject, public Servant {
 public:
  MirrorPagerObject(sp<Domain> domain, sp<MirrorFile> file)
      : Servant(std::move(domain)), file_(std::move(file)) {}

  Result<Buffer> PageIn(Offset offset, Offset size,
                        AccessRights access) override;
  Status PageOut(Offset offset, ByteSpan data) override;
  Status WriteOut(Offset offset, ByteSpan data) override;
  Status Sync(Offset offset, ByteSpan data) override;
  void DoneWithPagerObject() override {}
  Result<FileAttributes> GetAttributes() override;
  Status WriteAttributes(const AttrUpdate& update) override;

 private:
  sp<MirrorFile> file_;
};

// A mirrored file: one handle per replica (entries may be null when a
// replica did not have the file at resolve time — failover skips them).
class MirrorFile : public File, public Servant {
 public:
  MirrorFile(sp<Domain> domain, sp<MirrorLayer> layer, Name name,
             std::vector<sp<File>> replicas)
      : Servant(std::move(domain)), layer_(std::move(layer)),
        name_(std::move(name)), replicas_(std::move(replicas)),
        pager_key_(NewPagerKey()) {}

  const Name& name() const { return name_; }
  const std::vector<sp<File>>& replicas() const { return replicas_; }
  MirrorLayer& layer() { return *layer_; }

  // The mirror implements its own pager: page reads come from the first
  // healthy replica and page writes fan out, so mapped clients (including
  // stacked layers such as CRYPTFS) replicate correctly.
  Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                               AccessRights requested_access) override {
    (void)requested_access;
    return InDomain([&]() -> Result<sp<CacheRights>> {
      sp<MirrorFile> self =
          std::dynamic_pointer_cast<MirrorFile>(shared_from_this());
      return layer_->channels_.Bind(
          pager_key_, pager_key_, caller,
          [&](uint64_t) -> sp<PagerObject> {
            return std::make_shared<MirrorPagerObject>(domain(), self);
          });
    });
  }

  // Byte-level fan-out helpers reused by the pager object.
  Result<Buffer> PagedRead(Offset offset, Offset size) {
    Buffer out(size);
    bool primary = true;
    for (const sp<File>& replica : replicas_) {
      if (!replica) {
        primary = false;
        continue;
      }
      Result<size_t> n = replica->Read(offset, out.mutable_span());
      if (n.ok()) {
        layer_->NoteRead(primary);
        return out;  // bytes past EOF stay zero
      }
      if (n.code() != ErrorCode::kIoError) {
        return n.status();
      }
      primary = false;
    }
    return ErrIoError("all replicas failed the page read");
  }

  Status PagedWrite(Offset offset, ByteSpan data) {
    // Whole pages are written through the file interface of every replica.
    // This may transiently round a replica's length up to a page boundary;
    // the attribute push that follows a sync (WriteAttributes -> SetLength)
    // trims it to the true length.
    return FanOut([&](File& file) -> Status {
      return file.Write(offset, data).status();
    });
  }

  Result<Offset> GetLength() override {
    return InDomain([&]() -> Result<Offset> {
      return FirstHealthy<Offset>(
          [](File& file) { return file.GetLength(); });
    });
  }

  Status SetLength(Offset length) override {
    return InDomain(
        [&] { return FanOut([&](File& file) { return file.SetLength(length); }); });
  }

  Result<size_t> Read(Offset offset, MutableByteSpan out) override {
    return InDomain([&]() -> Result<size_t> {
      bool primary = true;
      for (const sp<File>& replica : replicas_) {
        if (!replica) {
          primary = false;
          continue;
        }
        Result<size_t> n = replica->Read(offset, out);
        if (n.ok()) {
          layer_->NoteRead(primary);
          return n;
        }
        if (n.code() != ErrorCode::kIoError) {
          return n;
        }
        primary = false;
      }
      return ErrIoError("all replicas failed the read");
    });
  }

  Result<size_t> Write(Offset offset, ByteSpan data) override {
    return InDomain([&]() -> Result<size_t> {
      layer_->NoteWriteFanout();
      size_t written = 0;
      bool any_ok = false;
      Status non_io_error;
      for (const sp<File>& replica : replicas_) {
        if (!replica) {
          layer_->NoteReplicaWriteFailure();
          continue;
        }
        Result<size_t> n = replica->Write(offset, data);
        if (n.ok()) {
          written = *n;
          any_ok = true;
        } else if (n.code() == ErrorCode::kIoError) {
          layer_->NoteReplicaWriteFailure();
        } else {
          non_io_error = n.status();
        }
      }
      if (!non_io_error.ok()) {
        return non_io_error;
      }
      if (!any_ok) {
        return ErrIoError("all replicas failed the write");
      }
      return written;
    });
  }

  Result<FileAttributes> Stat() override {
    return InDomain([&]() -> Result<FileAttributes> {
      return FirstHealthy<FileAttributes>(
          [](File& file) { return file.Stat(); });
    });
  }

  Status SetTimes(uint64_t atime_ns, uint64_t mtime_ns) override {
    return InDomain([&] {
      return FanOut(
          [&](File& file) { return file.SetTimes(atime_ns, mtime_ns); });
    });
  }

  Status SyncFile() override {
    return InDomain(
        [&] { return FanOut([](File& file) { return file.SyncFile(); }); });
  }

 private:
  template <typename T, typename F>
  Result<T> FirstHealthy(F&& op) {
    for (const sp<File>& replica : replicas_) {
      if (!replica) {
        continue;
      }
      Result<T> result = op(*replica);
      if (result.ok() || result.code() != ErrorCode::kIoError) {
        return result;
      }
    }
    return ErrIoError("all replicas failed");
  }

  template <typename F>
  Status FanOut(F&& op) {
    bool any_ok = false;
    Status non_io_error;
    for (const sp<File>& replica : replicas_) {
      if (!replica) {
        continue;
      }
      Status st = op(*replica);
      if (st.ok()) {
        any_ok = true;
      } else if (st.code() == ErrorCode::kIoError) {
        layer_->NoteReplicaWriteFailure();
      } else {
        non_io_error = st;
      }
    }
    if (!non_io_error.ok()) {
      return non_io_error;
    }
    if (!any_ok) {
      return ErrIoError("all replicas failed");
    }
    return Status::Ok();
  }

  sp<MirrorLayer> layer_;
  Name name_;
  std::vector<sp<File>> replicas_;
  uint64_t pager_key_;
};

Result<Buffer> MirrorPagerObject::PageIn(Offset offset, Offset size,
                                         AccessRights access) {
  (void)access;  // non-coherent base: rights are not tracked
  return InDomain([&] {
    return file_->PagedRead(PageFloor(offset),
                            PageCeil(offset + std::max<Offset>(size, 1)) -
                                PageFloor(offset));
  });
}

Status MirrorPagerObject::PageOut(Offset offset, ByteSpan data) {
  return InDomain([&] { return file_->PagedWrite(offset, data); });
}
Status MirrorPagerObject::WriteOut(Offset offset, ByteSpan data) {
  return InDomain([&] { return file_->PagedWrite(offset, data); });
}
Status MirrorPagerObject::Sync(Offset offset, ByteSpan data) {
  return InDomain([&] { return file_->PagedWrite(offset, data); });
}

Result<FileAttributes> MirrorPagerObject::GetAttributes() {
  return InDomain([&] { return file_->Stat(); });
}

Status MirrorPagerObject::WriteAttributes(const AttrUpdate& update) {
  return InDomain([&]() -> Status {
    if (update.size) {
      RETURN_IF_ERROR(file_->SetLength(*update.size));
    }
    if (update.atime_ns || update.mtime_ns) {
      ASSIGN_OR_RETURN(FileAttributes attrs, file_->Stat());
      RETURN_IF_ERROR(file_->SetTimes(update.atime_ns.value_or(attrs.atime_ns),
                                      update.mtime_ns.value_or(attrs.mtime_ns)));
    }
    return Status::Ok();
  });
}

sp<MirrorLayer> MirrorLayer::Create(sp<Domain> domain, Clock* clock) {
  return sp<MirrorLayer>(new MirrorLayer(std::move(domain), clock));
}

MirrorLayer::MirrorLayer(sp<Domain> domain, Clock* clock)
    : Servant(std::move(domain)), clock_(clock) {
  metrics::Registry::Global().RegisterProvider(this);
}

MirrorLayer::~MirrorLayer() {
  metrics::Registry::Global().UnregisterProvider(this);
}

Status MirrorLayer::StackOn(sp<StackableFs> underlying) {
  return InDomain([&]() -> Status {
    if (!underlying) {
      return ErrInvalidArgument("null underlying file system");
    }
    std::lock_guard<std::mutex> lock(mutex_);
    replicas_.push_back(std::move(underlying));
    return Status::Ok();
  });
}

Status MirrorLayer::RequireReplicas() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (replicas_.size() < 2) {
    return ErrInvalidArgument(
        "mirrorfs needs at least two underlying file systems");
  }
  return Status::Ok();
}

size_t MirrorLayer::NumReplicas() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return replicas_.size();
}

void MirrorLayer::NoteRead(bool primary) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (primary) {
    ++stats_.reads_primary;
  } else {
    ++stats_.reads_failover;
  }
}
void MirrorLayer::NoteWriteFanout() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.write_fanouts;
}
void MirrorLayer::NoteReplicaWriteFailure() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.replica_write_failures;
}

void MirrorLayer::CollectStats(const metrics::StatsEmitter& emit) const {
  Stats snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = stats_;
  }
  emit("reads_primary", snapshot.reads_primary);
  emit("reads_failover", snapshot.reads_failover);
  emit("write_fanouts", snapshot.write_fanouts);
  emit("replica_write_failures", snapshot.replica_write_failures);
  emit("resilvered_files", snapshot.resilvered_files);
}

Result<sp<Object>> MirrorLayer::Resolve(const Name& name,
                                        const Credentials& creds) {
  return InDomain([&]() -> Result<sp<Object>> {
    RETURN_IF_ERROR(RequireReplicas());
    if (name.empty()) {
      return sp<Object>(std::dynamic_pointer_cast<Object>(shared_from_this()));
    }
    std::vector<sp<StackableFs>> replicas;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      replicas = replicas_;
    }
    // Resolve on every replica; the object kind is decided by the first
    // replica that answers.
    std::vector<sp<File>> files(replicas.size());
    bool found_any = false;
    bool is_context = false;
    Status last_error = ErrNotFound("'" + name.ToString() + "'");
    for (size_t i = 0; i < replicas.size(); ++i) {
      Result<sp<Object>> obj = replicas[i]->Resolve(name, creds);
      if (!obj.ok()) {
        last_error = obj.status();
        continue;
      }
      if (sp<File> file = narrow<File>(*obj)) {
        files[i] = std::move(file);
        found_any = true;
      } else if (narrow<Context>(*obj)) {
        is_context = true;
        found_any = true;
      }
    }
    if (!found_any) {
      return last_error;
    }
    if (is_context) {
      return sp<Object>(SubContext<MirrorLayer>::Of(this, name));
    }
    sp<MirrorLayer> self =
        std::dynamic_pointer_cast<MirrorLayer>(shared_from_this());
    return sp<Object>(std::make_shared<MirrorFile>(domain(), self, name,
                                                   std::move(files)));
  });
}

Status MirrorLayer::Bind(const Name& name, sp<Object> object,
                         const Credentials& creds, bool replace) {
  (void)name;
  (void)object;
  (void)creds;
  (void)replace;
  return ErrNotSupported("mirrorfs contexts hold only mirrored files");
}

Status MirrorLayer::Unbind(const Name& name, const Credentials& creds) {
  return InDomain([&]() -> Status {
    RETURN_IF_ERROR(RequireReplicas());
    std::vector<sp<StackableFs>> replicas;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      replicas = replicas_;
    }
    bool any_ok = false;
    Status last_error;
    for (const auto& replica : replicas) {
      Status st = replica->Unbind(name, creds);
      if (st.ok()) {
        any_ok = true;
      } else {
        last_error = st;
      }
    }
    return any_ok ? Status::Ok() : last_error;
  });
}

Result<std::vector<BindingInfo>> MirrorLayer::ListAt(const Name& prefix,
                                                     const Credentials& creds) {
  return InDomain([&]() -> Result<std::vector<BindingInfo>> {
    RETURN_IF_ERROR(RequireReplicas());
    std::vector<sp<StackableFs>> replicas;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      replicas = replicas_;
    }
    // Union of all replicas' listings (a degraded replica may miss files).
    std::map<std::string, bool> merged;
    Status last_error;
    bool any_ok = false;
    for (const auto& replica : replicas) {
      Result<std::vector<BindingInfo>> list =
          ListDirectory(replica, prefix, creds);
      if (!list.ok()) {
        last_error = list.status();
        continue;
      }
      any_ok = true;
      for (const auto& entry : *list) {
        merged[entry.name] = merged[entry.name] || entry.is_context;
      }
    }
    if (!any_ok) {
      return last_error;
    }
    std::vector<BindingInfo> out;
    out.reserve(merged.size());
    for (const auto& [entry_name, is_context] : merged) {
      out.push_back(BindingInfo{entry_name, is_context});
    }
    return out;
  });
}

Result<std::vector<BindingInfo>> MirrorLayer::List(const Credentials& creds) {
  return ListAt(Name(), creds);
}

Result<sp<Context>> MirrorLayer::CreateContext(const Name& name,
                                               const Credentials& creds) {
  return InDomain([&]() -> Result<sp<Context>> {
    RETURN_IF_ERROR(RequireReplicas());
    std::vector<sp<StackableFs>> replicas;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      replicas = replicas_;
    }
    bool any_ok = false;
    Status last_error;
    for (const auto& replica : replicas) {
      Result<sp<Context>> ctx = replica->CreateContext(name, creds);
      if (ctx.ok()) {
        any_ok = true;
      } else {
        last_error = ctx.status();
      }
    }
    if (!any_ok) {
      return last_error;
    }
    return SubContext<MirrorLayer>::Of(this, name);
  });
}

Result<sp<File>> MirrorLayer::CreateFile(const Name& name,
                                         const Credentials& creds) {
  return InDomain([&]() -> Result<sp<File>> {
    RETURN_IF_ERROR(RequireReplicas());
    std::vector<sp<StackableFs>> replicas;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      replicas = replicas_;
    }
    std::vector<sp<File>> files(replicas.size());
    bool any_ok = false;
    Status last_error;
    for (size_t i = 0; i < replicas.size(); ++i) {
      Result<sp<File>> file = replicas[i]->CreateFile(name, creds);
      if (file.ok()) {
        files[i] = *file;
        any_ok = true;
      } else {
        last_error = file.status();
      }
    }
    if (!any_ok) {
      return last_error;
    }
    sp<MirrorLayer> self =
        std::dynamic_pointer_cast<MirrorLayer>(shared_from_this());
    return sp<File>(std::make_shared<MirrorFile>(domain(), self, name,
                                                 std::move(files)));
  });
}

Result<FsInfo> MirrorLayer::GetFsInfo() {
  return InDomain([&]() -> Result<FsInfo> {
    RETURN_IF_ERROR(RequireReplicas());
    std::vector<sp<StackableFs>> replicas;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      replicas = replicas_;
    }
    FsInfo info;
    info.type = "mirrorfs[" + std::to_string(replicas.size()) + "](";
    uint32_t max_depth = 0;
    bool first = true;
    for (const auto& replica : replicas) {
      Result<FsInfo> sub = replica->GetFsInfo();
      if (!sub.ok()) {
        continue;
      }
      info.type += (first ? "" : ",") + sub->type;
      first = false;
      // Capacity of a mirror is its smallest replica.
      if (info.total_blocks == 0 || sub->total_blocks < info.total_blocks) {
        info.total_blocks = sub->total_blocks;
        info.free_blocks = sub->free_blocks;
      }
      info.block_size = sub->block_size;
      max_depth = std::max(max_depth, sub->stack_depth);
    }
    info.type += ")";
    info.stack_depth = max_depth + 1;
    return info;
  });
}

Status MirrorLayer::SyncFs() {
  return InDomain([&]() -> Status {
    RETURN_IF_ERROR(RequireReplicas());
    std::vector<sp<StackableFs>> replicas;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      replicas = replicas_;
    }
    bool any_ok = false;
    Status last_error;
    for (const auto& replica : replicas) {
      Status st = replica->SyncFs();
      if (st.ok()) {
        any_ok = true;
      } else {
        last_error = st;
      }
    }
    return any_ok ? Status::Ok() : last_error;
  });
}

Status MirrorLayer::Resilver(const Name& name, const Credentials& creds) {
  return InDomain([&]() -> Status {
    RETURN_IF_ERROR(RequireReplicas());
    std::vector<sp<StackableFs>> replicas;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      replicas = replicas_;
    }
    // Find the freshest healthy source (newest mtime wins).
    sp<File> source;
    FileAttributes source_attrs;
    for (const auto& replica : replicas) {
      Result<sp<File>> file = ResolveAs<File>(replica, name.ToString(), creds);
      if (!file.ok()) {
        continue;
      }
      Result<FileAttributes> attrs = (*file)->Stat();
      if (!attrs.ok()) {
        continue;
      }
      if (!source || attrs->mtime_ns > source_attrs.mtime_ns) {
        source = *file;
        source_attrs = *attrs;
      }
    }
    if (!source) {
      return ErrNotFound("no healthy replica holds '" + name.ToString() + "'");
    }
    Buffer content(source_attrs.size);
    if (!content.empty()) {
      ASSIGN_OR_RETURN(size_t n, source->Read(0, content.mutable_span()));
      if (n != content.size()) {
        return ErrIoError("short read from resilver source");
      }
    }
    for (const auto& replica : replicas) {
      Result<sp<File>> file = ResolveAs<File>(replica, name.ToString(), creds);
      if (!file.ok()) {
        if (file.code() != ErrorCode::kNotFound) {
          continue;  // replica still unhealthy; skip
        }
        file = replica->CreateFile(name, creds);
        if (!file.ok()) {
          continue;
        }
      }
      if (*file == source) {
        continue;
      }
      if (!content.empty()) {
        Result<size_t> written = (*file)->Write(0, content.span());
        if (!written.ok()) {
          continue;
        }
      }
      (void)(*file)->SetLength(content.size());
      (void)(*file)->SetTimes(source_attrs.atime_ns, source_attrs.mtime_ns);
      (void)(*file)->SyncFile();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.resilvered_files;
    }
    return Status::Ok();
  });
}

}  // namespace springfs
