#include "src/layers/disklayer/disk_layer.h"

#include <algorithm>
#include <shared_mutex>

#include "src/fs/channel_table.h"

namespace springfs {
namespace {

FileAttributes AttrsOf(const ufs::InodeAttrs& attrs) {
  FileAttributes out;
  out.kind = attrs.type == ufs::FileType::kDirectory ? FileKind::kDirectory
             : attrs.type == ufs::FileType::kSymlink ? FileKind::kSymlink
                                                     : FileKind::kRegular;
  out.size = attrs.size;
  out.nlink = attrs.nlink;
  out.atime_ns = attrs.atime_ns;
  out.mtime_ns = attrs.mtime_ns;
  return out;
}

}  // namespace

// What the disk layer's files, pagers and naming share: the mounted UFS,
// each inode's pager key and the pager channel table. `mutex` is the
// layer's (see DiskLayer::open_files_).
class DiskVolume {
 public:
  explicit DiskVolume(std::unique_ptr<ufs::Ufs> fs) : ufs(std::move(fs)) {}

  // Binds `manager` to `file`'s pager (DiskFile::Bind).
  Result<sp<CacheRights>> BindFile(const sp<Domain>& domain,
                                   const sp<DiskFile>& file,
                                   const sp<CacheManager>& manager);

  // With `mutex` held: drops a freed inode's pager key and channels.
  void ForgetInode(ufs::InodeNum ino) {
    if (auto key = pager_keys.find(ino); key != pager_keys.end()) {
      channels.RemoveFile(key->second);
      pager_keys.erase(key);
    }
  }

  const std::unique_ptr<ufs::Ufs> ufs;
  std::mutex mutex;
  std::map<ufs::InodeNum, uint64_t> pager_keys;
  PagerChannelTable channels;
};

// A regular file exported by the disk layer. When its last link goes, the
// layer fences it before the inode number can be reused by the next file:
// every later call on it, or on its pager objects, returns kStale (NFS's
// stale handle) instead of touching that file, and the fence waits out
// the calls already past the check.
class DiskFile : public File, public Servant {
 public:
  DiskFile(sp<Domain> domain, sp<DiskVolume> volume, ufs::InodeNum ino)
      : Servant(std::move(domain)), volume_(std::move(volume)), ino_(ino) {}

  const sp<DiskVolume>& volume() const { return volume_; }

  // The file's inode, or kStale once it is fenced.
  Result<ufs::InodeNum> Live() const {
    if (fenced_.load()) {
      return ErrStale("file was removed");
    }
    return ino_;
  }
  void Fence() {
    std::unique_lock<std::shared_mutex> lock(fence_mutex_);
    fenced_.store(true);
  }

  // Runs `op` on the live inode in the file's domain; the fence waits for
  // it to return.
  template <class Op>
  auto OnInode(Op op) -> decltype(op(ufs::InodeNum{})) {
    return InDomain([&]() -> decltype(op(ufs::InodeNum{})) {
      std::shared_lock<std::shared_mutex> lock(fence_mutex_);
      ASSIGN_OR_RETURN(ufs::InodeNum ino, Live());
      return op(ino);
    });
  }

  // --- MemoryObject ---
  Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                               AccessRights requested_access) override {
    (void)requested_access;
    return InDomain([&] {
      return volume_->BindFile(
          domain(), std::dynamic_pointer_cast<DiskFile>(shared_from_this()),
          caller);
    });
  }

  Result<Offset> GetLength() override {
    return OnInode([&](ufs::InodeNum ino) -> Result<Offset> {
      ASSIGN_OR_RETURN(ufs::InodeAttrs attrs, volume_->ufs->GetAttrs(ino));
      return Offset{attrs.size};
    });
  }

  Status SetLength(Offset length) override {
    return OnInode(
        [&](ufs::InodeNum ino) { return volume_->ufs->SetSize(ino, length); });
  }

  // --- File ---
  Result<size_t> Read(Offset offset, MutableByteSpan out) override {
    return OnInode([&](ufs::InodeNum ino) {
      return volume_->ufs->Read(ino, offset, out);
    });
  }

  Result<size_t> Write(Offset offset, ByteSpan data) override {
    return OnInode([&](ufs::InodeNum ino) {
      return volume_->ufs->Write(ino, offset, data);
    });
  }

  Result<FileAttributes> Stat() override {
    return OnInode([&](ufs::InodeNum ino) -> Result<FileAttributes> {
      ASSIGN_OR_RETURN(ufs::InodeAttrs attrs, volume_->ufs->GetAttrs(ino));
      return AttrsOf(attrs);
    });
  }

  Status SetTimes(uint64_t atime_ns, uint64_t mtime_ns) override {
    return OnInode([&](ufs::InodeNum ino) {
      return volume_->ufs->SetTimes(ino, atime_ns, mtime_ns);
    });
  }

  Status SyncFile() override {
    return OnInode([&](ufs::InodeNum) { return volume_->ufs->Sync(); });
  }

 private:
  sp<DiskVolume> volume_;
  ufs::InodeNum ino_;
  std::shared_mutex fence_mutex_;  // shared by calls, exclusive by Fence
  std::atomic<bool> fenced_{false};
};

// The disk layer's pager object for one inode: serves page traffic straight
// from the device through UFS block operations. Non-coherent by design.
class DiskPagerObject : public FsPagerObject, public Servant {
 public:
  DiskPagerObject(sp<Domain> domain, sp<DiskVolume> volume,
                  sp<DiskFile> file, uint64_t channel_id)
      : Servant(std::move(domain)), volume_(std::move(volume)),
        file_(std::move(file)), channel_id_(channel_id) {}

  Result<Buffer> PageIn(Offset offset, Offset size,
                        AccessRights access) override {
    (void)access;  // no coherency: rights are not tracked here
    return file_->OnInode([&](ufs::InodeNum ino) -> Result<Buffer> {
      Offset end = PageCeil(offset + std::max<Offset>(size, 1));
      Buffer out(end - PageFloor(offset));
      for (Offset off = PageFloor(offset); off < end; off += kPageSize) {
        RETURN_IF_ERROR(volume_->ufs->ReadFileBlock(
            ino, off / kPageSize,
            out.mutable_span().subspan(off - PageFloor(offset), kPageSize)));
      }
      return out;
    });
  }

  Status PageOut(Offset offset, ByteSpan data) override {
    return WriteBlocks(offset, data);
  }
  Status WriteOut(Offset offset, ByteSpan data) override {
    return WriteBlocks(offset, data);
  }
  Status Sync(Offset offset, ByteSpan data) override {
    return WriteBlocks(offset, data);
  }

  void DoneWithPagerObject() override {
    InDomain([&] { volume_->channels.RemoveChannel(channel_id_); });
  }

  Result<FileAttributes> GetAttributes() override {
    return file_->OnInode([&](ufs::InodeNum ino) -> Result<FileAttributes> {
      ASSIGN_OR_RETURN(ufs::InodeAttrs attrs, volume_->ufs->GetAttrs(ino));
      return AttrsOf(attrs);
    });
  }

  Status WriteAttributes(const AttrUpdate& update) override {
    return file_->OnInode([&](ufs::InodeNum ino) -> Status {
      if (update.size) {
        RETURN_IF_ERROR(volume_->ufs->SetSize(ino, *update.size));
      }
      if (update.atime_ns || update.mtime_ns) {
        ASSIGN_OR_RETURN(ufs::InodeAttrs attrs, volume_->ufs->GetAttrs(ino));
        RETURN_IF_ERROR(volume_->ufs->SetTimes(
            ino, update.atime_ns.value_or(attrs.atime_ns),
            update.mtime_ns.value_or(attrs.mtime_ns)));
      }
      return Status::Ok();
    });
  }

 private:
  Status WriteBlocks(Offset offset, ByteSpan data) {
    if (offset % kPageSize != 0 || data.size() % kPageSize != 0) {
      return ErrInvalidArgument("page write must be page-aligned");
    }
    return file_->OnInode([&](ufs::InodeNum ino) -> Status {
      for (Offset off = 0; off < data.size(); off += kPageSize) {
        RETURN_IF_ERROR(volume_->ufs->WriteFileBlock(
            ino, (offset + off) / kPageSize, data.subspan(off, kPageSize)));
      }
      return Status::Ok();
    });
  }

  sp<DiskVolume> volume_;
  sp<DiskFile> file_;
  uint64_t channel_id_;
};

// A directory exported as a naming context.
class DiskDirContext : public Context, public Servant {
 public:
  DiskDirContext(sp<Domain> domain, sp<DiskLayer> layer, ufs::InodeNum dir)
      : Servant(std::move(domain)), layer_(std::move(layer)), dir_(dir) {}

  Result<sp<Object>> Resolve(const Name& name,
                             const Credentials& creds) override {
    return layer_->ResolveFrom(dir_, name, creds);
  }
  Status Bind(const Name& name, sp<Object> object, const Credentials& creds,
              bool replace) override {
    return layer_->BindFrom(dir_, name, std::move(object), creds, replace);
  }
  Status Unbind(const Name& name, const Credentials& creds) override {
    return layer_->UnbindFrom(dir_, name, creds);
  }
  Result<std::vector<BindingInfo>> List(const Credentials& creds) override {
    return layer_->ListFrom(dir_, creds);
  }
  Result<sp<Context>> CreateContext(const Name& name,
                                    const Credentials& creds) override {
    return layer_->CreateContextFrom(dir_, name, creds);
  }

 private:
  sp<DiskLayer> layer_;
  ufs::InodeNum dir_;
};

Result<sp<DiskLayer>> DiskLayer::Format(sp<Domain> domain, BlockDevice* device,
                                        Clock* clock) {
  ASSIGN_OR_RETURN(std::unique_ptr<ufs::Ufs> fs,
                   ufs::Ufs::Format(device, clock));
  return sp<DiskLayer>(new DiskLayer(std::move(domain), std::move(fs)));
}

Result<sp<DiskLayer>> DiskLayer::Mount(sp<Domain> domain, BlockDevice* device,
                                       Clock* clock) {
  ASSIGN_OR_RETURN(std::unique_ptr<ufs::Ufs> fs,
                   ufs::Ufs::Mount(device, clock));
  return sp<DiskLayer>(new DiskLayer(std::move(domain), std::move(fs)));
}

DiskLayer::DiskLayer(sp<Domain> domain, std::unique_ptr<ufs::Ufs> fs)
    : Servant(std::move(domain)),
      volume_(std::make_shared<DiskVolume>(std::move(fs))),
      ufs_(volume_->ufs.get()) {}

static sp<DiskLayer> SelfOf(DiskLayer* layer) {
  return std::dynamic_pointer_cast<DiskLayer>(layer->shared_from_this());
}

Result<ufs::InodeNum> DiskLayer::WalkToDir(ufs::InodeNum start,
                                           const Name& dirname) {
  ufs::InodeNum current = start;
  for (const std::string& component : dirname.components()) {
    ASSIGN_OR_RETURN(current, ufs_->Lookup(current, component));
    ASSIGN_OR_RETURN(ufs::InodeAttrs attrs, ufs_->GetAttrs(current));
    if (attrs.type != ufs::FileType::kDirectory) {
      return ErrNotADirectory("'" + component + "' is not a directory");
    }
  }
  return current;
}

Result<sp<Object>> DiskLayer::ObjectForInode(ufs::InodeNum ino) {
  ASSIGN_OR_RETURN(ufs::InodeAttrs attrs, ufs_->GetAttrs(ino));
  if (attrs.type == ufs::FileType::kDirectory) {
    return sp<Object>(std::make_shared<DiskDirContext>(domain(), SelfOf(this),
                                                       ino));
  }
  return sp<Object>(FileForInode(ino));
}

sp<File> DiskLayer::FileForInode(ufs::InodeNum ino) {
  sp<DiskFile>& file = open_files_[ino];
  if (!file) {
    file = std::make_shared<DiskFile>(domain(), volume_, ino);
  }
  return file;
}

Result<sp<Object>> DiskLayer::ResolveFrom(ufs::InodeNum start, const Name& name,
                                          const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Result<sp<Object>> {
    if (name.empty()) {
      if (start == ufs::kRootInode) {
        return sp<Object>(
            std::static_pointer_cast<Object>(shared_from_this()));
      }
      std::lock_guard<std::mutex> lock(volume_->mutex);
      return ObjectForInode(start);
    }
    ASSIGN_OR_RETURN(ufs::InodeNum dir, WalkToDir(start, name.Parent()));
    // The name keeps its number.
    std::lock_guard<std::mutex> lock(volume_->mutex);
    ASSIGN_OR_RETURN(ufs::InodeNum ino, ufs_->Lookup(dir, name.back()));
    return ObjectForInode(ino);
  });
}

Status DiskLayer::BindFrom(ufs::InodeNum start, const Name& name,
                           sp<Object> object, const Credentials& creds,
                           bool replace) {
  (void)creds;
  return InDomain([&]() -> Status {
    if (name.empty()) {
      return ErrInvalidArgument("cannot bind the empty name");
    }
    // Binding a file object of this very layer creates a hard link; foreign
    // objects cannot be stored in an on-disk context.
    sp<DiskFile> file = narrow<DiskFile>(object);
    if (!file) {
      return ErrNotSupported(
          "disk layer contexts only hold objects implemented by this layer");
    }
    ASSIGN_OR_RETURN(ufs::InodeNum dir, WalkToDir(start, name.Parent()));
    std::lock_guard<std::mutex> lock(volume_->mutex);  // may free a number
    ASSIGN_OR_RETURN(ufs::InodeNum ino, file->Live());
    if (replace) {
      Result<ufs::InodeNum> old = ufs_->Lookup(dir, name.back());
      Status removed = ufs_->Remove(dir, name.back());
      if (!removed.ok() && removed.code() != ErrorCode::kNotFound) {
        return removed;
      }
      if (old.ok()) {
        FenceIfFreed(*old);
      }
    }
    return ufs_->Link(dir, name.back(), ino);
  });
}

Status DiskLayer::UnbindFrom(ufs::InodeNum start, const Name& name,
                             const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Status {
    if (name.empty()) {
      return ErrInvalidArgument("cannot unbind the empty name");
    }
    ASSIGN_OR_RETURN(ufs::InodeNum dir, WalkToDir(start, name.Parent()));
    std::lock_guard<std::mutex> lock(volume_->mutex);  // may free a number
    ASSIGN_OR_RETURN(ufs::InodeNum target, ufs_->Lookup(dir, name.back()));
    RETURN_IF_ERROR(ufs_->Remove(dir, name.back()));
    FenceIfFreed(target);
    return Status::Ok();
  });
}

Result<std::vector<BindingInfo>> DiskLayer::ListFrom(ufs::InodeNum dir,
                                                     const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Result<std::vector<BindingInfo>> {
    ASSIGN_OR_RETURN(std::vector<ufs::NamedEntry> entries, ufs_->ReadDir(dir));
    std::vector<BindingInfo> out;
    out.reserve(entries.size());
    for (const auto& entry : entries) {
      out.push_back(BindingInfo{entry.name,
                                entry.type == ufs::FileType::kDirectory});
    }
    return out;
  });
}

Result<sp<Context>> DiskLayer::CreateContextFrom(ufs::InodeNum start,
                                                 const Name& name,
                                                 const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Result<sp<Context>> {
    if (name.empty()) {
      return ErrInvalidArgument("cannot create a context at the empty name");
    }
    ASSIGN_OR_RETURN(ufs::InodeNum dir, WalkToDir(start, name.Parent()));
    // May reuse a freed number.
    std::lock_guard<std::mutex> lock(volume_->mutex);
    ASSIGN_OR_RETURN(ufs::InodeNum ino,
                     ufs_->Create(dir, name.back(),
                                  ufs::FileType::kDirectory));
    return sp<Context>(
        std::make_shared<DiskDirContext>(domain(), SelfOf(this), ino));
  });
}

Result<sp<Object>> DiskLayer::Resolve(const Name& name,
                                      const Credentials& creds) {
  return ResolveFrom(ufs::kRootInode, name, creds);
}
Status DiskLayer::Bind(const Name& name, sp<Object> object,
                       const Credentials& creds, bool replace) {
  return BindFrom(ufs::kRootInode, name, std::move(object), creds, replace);
}
Status DiskLayer::Unbind(const Name& name, const Credentials& creds) {
  return UnbindFrom(ufs::kRootInode, name, creds);
}
Result<std::vector<BindingInfo>> DiskLayer::List(const Credentials& creds) {
  return ListFrom(ufs::kRootInode, creds);
}
Result<sp<Context>> DiskLayer::CreateContext(const Name& name,
                                             const Credentials& creds) {
  return CreateContextFrom(ufs::kRootInode, name, creds);
}

Status DiskLayer::StackOn(sp<StackableFs> underlying) {
  (void)underlying;
  return ErrNotSupported("the disk layer is a base file system");
}

Result<sp<File>> DiskLayer::CreateFile(const Name& name,
                                       const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Result<sp<File>> {
    if (name.empty()) {
      return ErrInvalidArgument("cannot create the empty name");
    }
    ASSIGN_OR_RETURN(ufs::InodeNum dir,
                     WalkToDir(ufs::kRootInode, name.Parent()));
    // May reuse a freed number.
    std::lock_guard<std::mutex> lock(volume_->mutex);
    ASSIGN_OR_RETURN(ufs::InodeNum ino,
                     ufs_->Create(dir, name.back(), ufs::FileType::kRegular));
    return FileForInode(ino);
  });
}

Result<FsInfo> DiskLayer::GetFsInfo() {
  return InDomain([&]() -> Result<FsInfo> {
    FsInfo info;
    info.type = "disk";
    info.total_blocks = ufs_->superblock().num_blocks;
    info.free_blocks = ufs_->FreeBlocks();
    info.block_size = ufs::kBlockSize;
    info.stack_depth = 1;
    return info;
  });
}

Status DiskLayer::SyncFs() {
  return InDomain([&] { return ufs_->Sync(); });
}

void DiskLayer::FenceIfFreed(ufs::InodeNum ino) {
  if (ufs_->GetAttrs(ino).ok()) {
    return;  // another link keeps the inode
  }
  if (auto it = open_files_.find(ino); it != open_files_.end()) {
    it->second->Fence();
    open_files_.erase(it);
  }
  volume_->ForgetInode(ino);
}

Result<sp<CacheRights>> DiskVolume::BindFile(const sp<Domain>& domain,
                                             const sp<DiskFile>& file,
                                             const sp<CacheManager>& manager) {
  uint64_t pager_key;
  {
    std::lock_guard<std::mutex> lock(mutex);
    ASSIGN_OR_RETURN(ufs::InodeNum ino, file->Live());
    auto [it, inserted] = pager_keys.try_emplace(ino, 0);
    if (inserted) {
      it->second = NewPagerKey();
    }
    pager_key = it->second;
  }
  // Channels are filed under the pager key, which a reused inode number
  // does not inherit.
  return channels.Bind(pager_key, pager_key, manager,
                       [&](uint64_t local_id) -> sp<PagerObject> {
                         return std::make_shared<DiskPagerObject>(
                             domain, file->volume(), file, local_id);
                       });
}

}  // namespace springfs
