#include "src/fs/channel_table.h"

#include <atomic>

namespace springfs {

uint64_t NewPagerKey() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Result<CacheManager::ChannelSetup> OneChannelManager::EstablishChannel(
    uint64_t pager_key, sp<PagerObject> pager) {
  (void)pager_key;
  pager_ = std::move(pager);
  return ChannelSetup{cache_, std::make_shared<ChannelRights>(rights_id_)};
}

Result<sp<PagerObject>> BindBelow(MemoryObject& file, sp<CacheObject> cache,
                                  uint64_t rights_id, std::string name) {
  auto manager = std::make_shared<OneChannelManager>(
      std::move(cache), rights_id, std::move(name));
  RETURN_IF_ERROR(file.Bind(manager, AccessRights::kReadWrite).status());
  if (!manager->pager()) {
    return ErrInvalidArgument("the layer below established no channel");
  }
  return manager->pager();
}

Result<sp<CacheRights>> PagerChannelTable::Bind(
    uint64_t file_id, uint64_t pager_key, const sp<CacheManager>& manager,
    const std::function<sp<PagerObject>(uint64_t local_id)>& make_pager) {
  if (!manager) {
    return ErrInvalidArgument("bind with null cache manager");
  }
  uint64_t local_id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto key = std::make_pair(file_id, static_cast<Object*>(manager.get()));
    auto existing = index_.find(key);
    if (existing != index_.end()) {
      return channels_.at(existing->second).rights;
    }
    local_id = next_local_id_++;
    index_.emplace(key, local_id);
    Channel ch;
    ch.local_id = local_id;
    ch.file_id = file_id;
    ch.pager_key = pager_key;
    ch.manager = manager;
    channels_.emplace(local_id, std::move(ch));
  }

  // Perform the exchange outside the lock: EstablishChannel is a call into
  // the cache manager's domain.
  sp<PagerObject> pager = make_pager(local_id);
  Result<CacheManager::ChannelSetup> setup =
      manager->EstablishChannel(pager_key, pager);
  if (!setup.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    index_.erase(std::make_pair(file_id, static_cast<Object*>(manager.get())));
    channels_.erase(local_id);
    return setup.status();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  auto it = channels_.find(local_id);
  if (it == channels_.end()) {
    // Removed during the exchange (an unlink, a server restart): tear the
    // manager's end down too rather than complete a channel that is gone.
    lock.unlock();
    (void)setup->cache->DestroyCache();
    return ErrStale("channel removed during the bind");
  }
  Channel& ch = it->second;
  ch.pager = std::move(pager);
  ch.cache = setup->cache;
  ch.fs_cache = narrow<FsCacheObject>(setup->cache);
  ch.rights = setup->rights;
  return ch.rights;
}

std::vector<PagerChannelTable::Channel> PagerChannelTable::ChannelsForFile(
    uint64_t file_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Channel> out;
  for (const auto& [id, ch] : channels_) {
    if (ch.file_id == file_id && ch.cache != nullptr) {
      out.push_back(ch);
    }
  }
  return out;
}

std::vector<PagerChannelTable::Channel> PagerChannelTable::AllChannels()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Channel> out;
  out.reserve(channels_.size());
  for (const auto& [id, ch] : channels_) {
    out.push_back(ch);
  }
  return out;
}

Result<PagerChannelTable::Channel> PagerChannelTable::GetChannel(
    uint64_t local_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = channels_.find(local_id);
  if (it == channels_.end()) {
    return ErrStale("no such channel");
  }
  return it->second;
}

void PagerChannelTable::RemoveChannel(uint64_t local_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = channels_.find(local_id);
  if (it == channels_.end()) {
    return;
  }
  index_.erase(std::make_pair(it->second.file_id,
                              static_cast<Object*>(it->second.manager.get())));
  channels_.erase(it);
}

void PagerChannelTable::RemoveFile(uint64_t file_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = channels_.begin(); it != channels_.end();) {
    if (it->second.file_id == file_id) {
      index_.erase(std::make_pair(
          file_id, static_cast<Object*>(it->second.manager.get())));
      it = channels_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t PagerChannelTable::NumChannels() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return channels_.size();
}

}  // namespace springfs
