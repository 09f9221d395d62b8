#include "src/fs/mem_file.h"

#include <algorithm>

namespace springfs {

class MemFilePagerObject : public FsPagerObject, public Servant {
 public:
  MemFilePagerObject(sp<Domain> domain, sp<MemFile> file, uint64_t channel)
      : Servant(std::move(domain)), file_(std::move(file)), channel_(channel) {}

  Result<Buffer> PageIn(Offset offset, Offset size,
                        AccessRights access) override {
    return InDomain(
        [&] { return file_->PagerPageIn(channel_, offset, size, access); });
  }
  Status PageOut(Offset offset, ByteSpan data) override {
    return InDomain([&] {
      return file_->PagerWrite(channel_, offset, data, /*drops=*/true,
                               /*downgrades=*/false);
    });
  }
  Status WriteOut(Offset offset, ByteSpan data) override {
    return InDomain([&] {
      return file_->PagerWrite(channel_, offset, data, /*drops=*/false,
                               /*downgrades=*/true);
    });
  }
  Status Sync(Offset offset, ByteSpan data) override {
    return InDomain([&] {
      return file_->PagerWrite(channel_, offset, data, /*drops=*/false,
                               /*downgrades=*/false);
    });
  }
  void DoneWithPagerObject() override {
    InDomain([&] { file_->PagerDone(channel_); });
  }

  Result<FileAttributes> GetAttributes() override {
    return InDomain([&] { return file_->PagerGetAttributes(); });
  }
  Status WriteAttributes(const AttrUpdate& update) override {
    return InDomain([&] { return file_->PagerWriteAttributes(update); });
  }

 private:
  sp<MemFile> file_;
  uint64_t channel_;
};

sp<MemFile> MemFile::Create(sp<Domain> domain, Clock* clock) {
  return sp<MemFile>(new MemFile(std::move(domain), clock));
}

MemFile::MemFile(sp<Domain> domain, Clock* clock)
    : Servant(std::move(domain)), clock_(clock), pager_key_(NewPagerKey()) {
  attrs_.kind = FileKind::kRegular;
  attrs_.atime_ns = attrs_.mtime_ns = clock_->Now();
}

Result<sp<CacheRights>> MemFile::Bind(const sp<CacheManager>& caller,
                                      AccessRights requested_access) {
  (void)requested_access;
  return InDomain([&]() -> Result<sp<CacheRights>> {
    sp<MemFile> self = std::dynamic_pointer_cast<MemFile>(shared_from_this());
    ASSIGN_OR_RETURN(
        sp<CacheRights> rights,
        channels_.Bind(/*file_id=*/1, pager_key_, caller,
                       [&](uint64_t local_id) -> sp<PagerObject> {
                         return std::make_shared<MemFilePagerObject>(
                             domain(), self, local_id);
                       }));
    // Register the manager's cache object with the coherency engine.
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& ch : channels_.ChannelsForFile(1)) {
      if (!engine_.HasCache(ch.local_id)) {
        engine_.AddCache(ch.local_id, ch.cache);
      }
    }
    return rights;
  });
}

Result<Offset> MemFile::GetLength() {
  return InDomain([&]() -> Result<Offset> {
    std::lock_guard<std::mutex> lock(mutex_);
    return Offset{attrs_.size};
  });
}

Status MemFile::SetLength(Offset length) {
  return InDomain([&]() -> Status {
    std::lock_guard<std::mutex> lock(mutex_);
    attrs_.size = length;
    store_.resize(length);
    attrs_.mtime_ns = clock_->Now();
    return Status::Ok();
  });
}

Status MemFile::AcquireLocked(uint64_t requester, Range range,
                              AccessRights access) {
  CoherencyEngine::Recovered recovered =
      engine_.Acquire(requester, range, access);
  for (const BlockData& block : recovered.blocks) {
    // Recovered pages are page-sized; only bytes within the file count.
    size_t count = block.data.size();
    if (block.offset >= attrs_.size) {
      continue;
    }
    count = std::min<size_t>(count, attrs_.size - block.offset);
    store_.WriteAt(block.offset, block.data.subspan(0, count));
  }
  return recovered.status;
}

Result<size_t> MemFile::Read(Offset offset, MutableByteSpan out) {
  return InDomain([&]() -> Result<size_t> {
    std::lock_guard<std::mutex> lock(mutex_);
    RETURN_IF_ERROR(
        AcquireLocked(0, Range{offset, out.size()}, AccessRights::kReadOnly));
    attrs_.atime_ns = clock_->Now();
    return store_.ReadAt(offset, out);
  });
}

Result<size_t> MemFile::Write(Offset offset, ByteSpan data) {
  return InDomain([&]() -> Result<size_t> {
    std::lock_guard<std::mutex> lock(mutex_);
    RETURN_IF_ERROR(AcquireLocked(0, Range{offset, data.size()},
                                  AccessRights::kReadWrite));
    store_.WriteAt(offset, data);
    attrs_.size = std::max<uint64_t>(attrs_.size, offset + data.size());
    attrs_.mtime_ns = clock_->Now();
    return data.size();
  });
}

Result<FileAttributes> MemFile::Stat() {
  return InDomain([&]() -> Result<FileAttributes> {
    std::lock_guard<std::mutex> lock(mutex_);
    return attrs_;
  });
}

Status MemFile::SetTimes(uint64_t atime_ns, uint64_t mtime_ns) {
  return InDomain([&]() -> Status {
    std::lock_guard<std::mutex> lock(mutex_);
    attrs_.atime_ns = atime_ns;
    attrs_.mtime_ns = mtime_ns;
    return Status::Ok();
  });
}

Status MemFile::SyncFile() { return Status::Ok(); }

CoherencyStats MemFile::coherency_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_.stats();
}

Result<Buffer> MemFile::PagerPageIn(uint64_t channel, Offset offset,
                                    Offset size, AccessRights access) {
  std::lock_guard<std::mutex> lock(mutex_);
  Offset begin = PageFloor(offset);
  Offset end = PageCeil(offset + std::max<Offset>(size, 1));
  RETURN_IF_ERROR(AcquireLocked(channel, Range::FromTo(begin, end), access));
  Buffer out(end - begin);
  store_.ReadAt(begin, out.mutable_span());
  return out;
}

Status MemFile::PagerWrite(uint64_t channel, Offset offset, ByteSpan data,
                           bool drops, bool downgrades) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t count = data.size();
  if (offset < attrs_.size) {
    count = std::min<size_t>(count, attrs_.size - offset);
    store_.WriteAt(offset, data.subspan(0, count));
  }
  if (drops) {
    engine_.ReleaseDropped(channel, Range{offset, data.size()});
  } else if (downgrades) {
    engine_.ReleaseDowngraded(channel, Range{offset, data.size()});
  }
  attrs_.mtime_ns = clock_->Now();
  return Status::Ok();
}

void MemFile::PagerDone(uint64_t channel) {
  std::lock_guard<std::mutex> lock(mutex_);
  engine_.RemoveCache(channel);
  channels_.RemoveChannel(channel);
}

Result<FileAttributes> MemFile::PagerGetAttributes() {
  std::lock_guard<std::mutex> lock(mutex_);
  return attrs_;
}

Status MemFile::PagerWriteAttributes(const AttrUpdate& update) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (update.size) {
    attrs_.size = *update.size;
    store_.resize(*update.size);
  }
  if (update.atime_ns) {
    attrs_.atime_ns = *update.atime_ns;
  }
  if (update.mtime_ns) {
    attrs_.mtime_ns = *update.mtime_ns;
  }
  return Status::Ok();
}

}  // namespace springfs
