#include "src/layers/xattrfs/xattr_layer.h"

#include <algorithm>
#include <cstring>

#include "src/naming/views.h"
#include "src/support/logging.h"

namespace springfs {
namespace {

constexpr const char* kShadowSuffix = ".xattr";
constexpr uint32_t kShadowMagic = 0x58415452;  // "XATR"

bool IsShadowName(const std::string& component) {
  size_t suffix_len = std::strlen(kShadowSuffix);
  return component.size() > suffix_len &&
         component.compare(component.size() - suffix_len, suffix_len,
                           kShadowSuffix) == 0;
}

// The attribute shadow of the file named `name`.
Name ShadowNameFor(const Name& name) {
  return name.Parent().Join(Name::Single(name.back() + kShadowSuffix));
}

}  // namespace

// The exported file: data ops and binds delegate to the underlying file;
// the extended-attribute operations live here.
class XattrFileImpl : public XattrFile, public Servant {
 public:
  XattrFileImpl(sp<Domain> domain, sp<XattrLayer> layer,
                sp<XattrLayer::FileState> state)
      : Servant(std::move(domain)), layer_(std::move(layer)),
        state_(std::move(state)) {}

  const sp<File>& under() const { return state_->under; }

  // --- MemoryObject / File: pure delegation (binds forwarded) ---
  Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                               AccessRights access) override {
    return state_->under->Bind(caller, access);
  }
  Result<Offset> GetLength() override { return state_->under->GetLength(); }
  Status SetLength(Offset length) override {
    return state_->under->SetLength(length);
  }
  Result<size_t> Read(Offset offset, MutableByteSpan out) override {
    return state_->under->Read(offset, out);
  }
  Result<size_t> Write(Offset offset, ByteSpan data) override {
    return state_->under->Write(offset, data);
  }
  Result<FileAttributes> Stat() override { return state_->under->Stat(); }
  Status SetTimes(uint64_t atime_ns, uint64_t mtime_ns) override {
    return state_->under->SetTimes(atime_ns, mtime_ns);
  }
  Status SyncFile() override { return state_->under->SyncFile(); }

  // --- XattrFile ---
  Result<Buffer> GetXattr(const std::string& name) override {
    return InDomain([&]() -> Result<Buffer> {
      layer_->NoteGet();
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(layer_->LoadShadow(*state_));
      auto it = state_->xattrs.find(name);
      if (it == state_->xattrs.end()) {
        return ErrNotFound("no attribute '" + name + "'");
      }
      return it->second;
    });
  }

  Status SetXattr(const std::string& name, ByteSpan value) override {
    return InDomain([&]() -> Status {
      if (name.empty() || name.find('\0') != std::string::npos) {
        return ErrInvalidArgument("bad attribute name");
      }
      layer_->NoteSet();
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(layer_->LoadShadow(*state_));
      state_->xattrs[name] = Buffer(value);
      return layer_->StoreShadow(*state_);
    });
  }

  Status RemoveXattr(const std::string& name) override {
    return InDomain([&]() -> Status {
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(layer_->LoadShadow(*state_));
      if (state_->xattrs.erase(name) == 0) {
        return ErrNotFound("no attribute '" + name + "'");
      }
      return layer_->StoreShadow(*state_);
    });
  }

  Result<std::vector<std::string>> ListXattrs() override {
    return InDomain([&]() -> Result<std::vector<std::string>> {
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(layer_->LoadShadow(*state_));
      std::vector<std::string> names;
      names.reserve(state_->xattrs.size());
      for (const auto& [name, value] : state_->xattrs) {
        names.push_back(name);
      }
      return names;
    });
  }

 private:
  sp<XattrLayer> layer_;
  sp<XattrLayer::FileState> state_;
};

sp<XattrLayer> XattrLayer::Create(sp<Domain> domain, Clock* clock) {
  return sp<XattrLayer>(new XattrLayer(std::move(domain), clock));
}

XattrLayer::XattrLayer(sp<Domain> domain, Clock* clock)
    : Servant(std::move(domain)), clock_(clock) {
  metrics::Registry::Global().RegisterProvider(this);
}

XattrLayer::~XattrLayer() {
  metrics::Registry::Global().UnregisterProvider(this);
}

void XattrLayer::NoteGet() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.gets;
}
void XattrLayer::NoteSet() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.sets;
}

Status XattrLayer::StackOn(sp<StackableFs> underlying) {
  return InDomain([&]() -> Status {
    if (under_) {
      return ErrAlreadyExists("xattrfs already stacked");
    }
    if (!underlying) {
      return ErrInvalidArgument("null underlying file system");
    }
    under_ = std::move(underlying);
    return Status::Ok();
  });
}

Result<sp<File>> XattrLayer::WrapFile(const Name& name,
                                      const sp<File>& under) {
  std::string key = name.ToString();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = wrapped_files_.find(key);
  if (it != wrapped_files_.end()) {
    return it->second;
  }
  auto state = std::make_shared<FileState>();
  state->under = under;
  state->name = name;
  sp<XattrLayer> self =
      std::dynamic_pointer_cast<XattrLayer>(shared_from_this());
  sp<File> wrapped = std::make_shared<XattrFileImpl>(domain(), self, state);
  wrapped_files_.emplace(key, wrapped);
  return wrapped;
}

// Shadow format: magic u32, count u32, then per entry:
// name_len u32, value_len u32, name bytes, value bytes; trailing crc u32.
Status XattrLayer::LoadShadow(FileState& state) {
  if (state.loaded) {
    return Status::Ok();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.shadow_loads;
  }
  Result<sp<Object>> shadow_obj =
      under_->Resolve(ShadowNameFor(state.name), Credentials::System());
  if (!shadow_obj.ok()) {
    if (shadow_obj.code() == ErrorCode::kNotFound) {
      state.loaded = true;  // no attributes yet
      return Status::Ok();
    }
    return shadow_obj.status();
  }
  sp<File> shadow = narrow<File>(*shadow_obj);
  if (!shadow) {
    return ErrWrongType("attribute shadow is not a file");
  }
  ASSIGN_OR_RETURN(FileAttributes attrs, shadow->Stat());
  if (attrs.size == 0) {
    state.loaded = true;
    return Status::Ok();
  }
  Buffer raw(attrs.size);
  ASSIGN_OR_RETURN(size_t n, shadow->Read(0, raw.mutable_span()));
  if (n != attrs.size || n < 12) {
    return ErrCorrupted("xattr shadow truncated");
  }
  uint32_t stored_crc = LoadLe<uint32_t>(raw.data() + raw.size() - 4);
  if (stored_crc != Crc32(raw.subspan(0, raw.size() - 4))) {
    return ErrCorrupted("xattr shadow CRC mismatch");
  }
  if (LoadLe<uint32_t>(raw.data()) != kShadowMagic) {
    return ErrCorrupted("xattr shadow bad magic");
  }
  uint32_t count = LoadLe<uint32_t>(raw.data() + 4);
  size_t at = 8;
  std::map<std::string, Buffer> xattrs;
  for (uint32_t i = 0; i < count; ++i) {
    if (at + 8 > raw.size() - 4) {
      return ErrCorrupted("xattr shadow entry header overruns");
    }
    uint32_t name_len = LoadLe<uint32_t>(raw.data() + at);
    uint32_t value_len = LoadLe<uint32_t>(raw.data() + at + 4);
    at += 8;
    if (at + name_len + value_len > raw.size() - 4) {
      return ErrCorrupted("xattr shadow entry body overruns");
    }
    std::string name(reinterpret_cast<const char*>(raw.data() + at), name_len);
    at += name_len;
    xattrs[name] = Buffer(raw.subspan(at, value_len));
    at += value_len;
  }
  state.xattrs = std::move(xattrs);
  state.loaded = true;
  return Status::Ok();
}

Status XattrLayer::StoreShadow(FileState& state) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.shadow_stores;
  }
  Buffer raw(8);
  StoreLe<uint32_t>(raw.data(), kShadowMagic);
  StoreLe<uint32_t>(raw.data() + 4, state.xattrs.size());
  for (const auto& [name, value] : state.xattrs) {
    Buffer header(8);
    StoreLe<uint32_t>(header.data(), name.size());
    StoreLe<uint32_t>(header.data() + 4, value.size());
    raw.append(header.span());
    raw.append(ByteSpan(reinterpret_cast<const uint8_t*>(name.data()),
                        name.size()));
    raw.append(value.span());
  }
  Buffer crc(4);
  StoreLe<uint32_t>(crc.data(), Crc32(raw.span()));
  raw.append(crc.span());

  Credentials sys = Credentials::System();
  Name shadow_name = ShadowNameFor(state.name);
  sp<File> shadow;
  Result<sp<Object>> existing = under_->Resolve(shadow_name, sys);
  if (existing.ok()) {
    shadow = narrow<File>(*existing);
    if (!shadow) {
      return ErrWrongType("attribute shadow is not a file");
    }
  } else if (existing.code() == ErrorCode::kNotFound) {
    ASSIGN_OR_RETURN(shadow, under_->CreateFile(shadow_name, sys));
  } else {
    return existing.status();
  }
  ASSIGN_OR_RETURN(size_t written, shadow->Write(0, raw.span()));
  if (written != raw.size()) {
    return ErrIoError("short xattr shadow write");
  }
  return shadow->SetLength(raw.size());
}

Result<sp<Object>> XattrLayer::Resolve(const Name& name,
                                       const Credentials& creds) {
  return InDomain([&]() -> Result<sp<Object>> {
    if (!under_) {
      return ErrInvalidArgument("xattrfs not stacked");
    }
    if (name.empty()) {
      return sp<Object>(std::dynamic_pointer_cast<Object>(shared_from_this()));
    }
    if (IsShadowName(name.back())) {
      return ErrNotFound("attribute shadow files are not exported");
    }
    ASSIGN_OR_RETURN(sp<Object> object, under_->Resolve(name, creds));
    if (sp<File> file = narrow<File>(object)) {
      ASSIGN_OR_RETURN(sp<File> wrapped, WrapFile(name, file));
      return sp<Object>(wrapped);
    }
    if (narrow<Context>(object)) {
      return sp<Object>(SubContext<XattrLayer>::Of(this, name));
    }
    return object;
  });
}

Status XattrLayer::Bind(const Name& name, sp<Object> object,
                        const Credentials& creds, bool replace) {
  return InDomain([&]() -> Status {
    if (!under_) {
      return ErrInvalidArgument("xattrfs not stacked");
    }
    if (sp<XattrFileImpl> wrapped = narrow<XattrFileImpl>(object)) {
      object = wrapped->under();
    }
    return under_->Bind(name, std::move(object), creds, replace);
  });
}

Status XattrLayer::Unbind(const Name& name, const Credentials& creds) {
  return InDomain([&]() -> Status {
    if (!under_) {
      return ErrInvalidArgument("xattrfs not stacked");
    }
    RETURN_IF_ERROR(under_->Unbind(name, creds));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      wrapped_files_.erase(name.ToString());
    }
    if (!name.empty()) {
      Status st = under_->Unbind(ShadowNameFor(name), creds);
      if (!st.ok() && st.code() != ErrorCode::kNotFound) {
        return st;
      }
    }
    return Status::Ok();
  });
}

Result<std::vector<BindingInfo>> XattrLayer::List(const Credentials& creds) {
  return ListAt(Name(), creds);
}

Result<std::vector<BindingInfo>> XattrLayer::ListAt(const Name& dir,
                                                    const Credentials& creds) {
  return InDomain([&]() -> Result<std::vector<BindingInfo>> {
    if (!under_) {
      return ErrInvalidArgument("xattrfs not stacked");
    }
    ASSIGN_OR_RETURN(std::vector<BindingInfo> all,
                     ListDirectory(under_, dir, creds));
    std::vector<BindingInfo> visible;
    for (auto& entry : all) {
      if (!IsShadowName(entry.name)) {
        visible.push_back(std::move(entry));
      }
    }
    return visible;
  });
}

Result<sp<Context>> XattrLayer::CreateContext(const Name& name,
                                              const Credentials& creds) {
  return InDomain([&]() -> Result<sp<Context>> {
    if (!under_) {
      return ErrInvalidArgument("xattrfs not stacked");
    }
    RETURN_IF_ERROR(under_->CreateContext(name, creds).status());
    return SubContext<XattrLayer>::Of(this, name);
  });
}

Result<sp<File>> XattrLayer::CreateFile(const Name& name,
                                        const Credentials& creds) {
  return InDomain([&]() -> Result<sp<File>> {
    if (!under_) {
      return ErrInvalidArgument("xattrfs not stacked");
    }
    if (name.empty() || IsShadowName(name.back())) {
      return ErrInvalidArgument("invalid xattrfs file name");
    }
    ASSIGN_OR_RETURN(sp<File> under_file, under_->CreateFile(name, creds));
    return WrapFile(name, under_file);
  });
}

Result<FsInfo> XattrLayer::GetFsInfo() {
  return InDomain([&]() -> Result<FsInfo> {
    if (!under_) {
      return ErrInvalidArgument("xattrfs not stacked");
    }
    ASSIGN_OR_RETURN(FsInfo info, under_->GetFsInfo());
    info.type = "xattrfs(" + info.type + ")";
    info.stack_depth += 1;
    return info;
  });
}

Status XattrLayer::SyncFs() {
  return InDomain([&]() -> Status {
    if (!under_) {
      return ErrInvalidArgument("xattrfs not stacked");
    }
    return under_->SyncFs();
  });
}

void XattrLayer::CollectStats(const metrics::StatsEmitter& emit) const {
  Stats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
  }
  emit("gets", snapshot.gets);
  emit("sets", snapshot.sets);
  emit("shadow_loads", snapshot.shadow_loads);
  emit("shadow_stores", snapshot.shadow_stores);
}

}  // namespace springfs
