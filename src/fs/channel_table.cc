#include "src/fs/channel_table.h"

#include <atomic>

namespace springfs {

uint64_t NewPagerKey() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

OneChannelManager::~OneChannelManager() {
  if (pager_) {
    pager_->DoneWithPagerObject();
  }
}

Result<CacheManager::ChannelSetup> OneChannelManager::EstablishChannel(
    uint64_t pager_key, sp<PagerObject> pager) {
  (void)pager_key;
  pager_ = std::move(pager);
  return ChannelSetup{cache_, std::make_shared<ChannelRights>(rights_id_)};
}

Result<sp<OneChannelManager>> BindBelow(MemoryObject& file,
                                        sp<CacheObject> cache,
                                        uint64_t rights_id, std::string name) {
  auto manager = std::make_shared<OneChannelManager>(
      std::move(cache), rights_id, std::move(name));
  RETURN_IF_ERROR(file.Bind(manager, AccessRights::kReadWrite).status());
  if (!manager->pager()) {
    return ErrInvalidArgument("the layer below established no channel");
  }
  return manager;
}

void PagerChannelTable::EraseLocked(std::map<uint64_t, Entry>::iterator it) {
  auto key = std::make_pair(it->second.channel.file_id, it->second.manager_id);
  if (auto indexed = index_.find(key);
      indexed != index_.end() && indexed->second == it->first) {
    index_.erase(indexed);
  }
  channels_.erase(it);
}

Result<sp<CacheRights>> PagerChannelTable::Bind(
    uint64_t file_id, uint64_t pager_key, const sp<CacheManager>& manager,
    const std::function<sp<PagerObject>(uint64_t local_id)>& make_pager,
    uint64_t* local_id_out) {
  if (!manager) {
    return ErrInvalidArgument("bind with null cache manager");
  }
  auto key = std::make_pair(file_id, static_cast<const Object*>(manager.get()));
  uint64_t local_id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto existing = index_.find(key); existing != index_.end()) {
      Entry& entry = channels_.at(existing->second);
      // A manager that went away leaves its entry until it is closed; one
      // at its address now is a different manager.
      if (entry.manager.lock() == manager) {
        if (local_id_out != nullptr) {
          *local_id_out = existing->second;
        }
        return entry.rights;
      }
    }
    local_id = next_local_id_++;
    index_[key] = local_id;
    Entry entry;
    entry.channel.local_id = local_id;
    entry.channel.file_id = file_id;
    entry.channel.pager_key = pager_key;
    entry.manager_id = key.second;
    entry.manager = manager;
    channels_.emplace(local_id, std::move(entry));
  }

  // Perform the exchange outside the lock: EstablishChannel is a call into
  // the cache manager's domain.
  Result<CacheManager::ChannelSetup> setup =
      manager->EstablishChannel(pager_key, make_pager(local_id));
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = channels_.find(local_id);
  if (!setup.ok()) {
    if (it != channels_.end()) {
      EraseLocked(it);
    }
    return setup.status();
  }
  if (it == channels_.end()) {
    // Removed during the exchange (an unlink, a server restart): tear the
    // manager's end down too rather than complete a channel that is gone.
    lock.unlock();
    (void)setup->cache->DestroyCache();
    return ErrStale("channel removed during the bind");
  }
  for (auto& [id, other] : channels_) {
    if (id != local_id && other.rights == setup->rights &&
        other.channel.file_id == file_id) {
      // A manager that reached us through a new proxy found its channel:
      // it kept the pager it had, so the channel stays the one it was.
      EraseLocked(it);
      index_[key] = id;
      if (local_id_out != nullptr) {
        *local_id_out = id;
      }
      return other.rights;
    }
  }
  Entry& entry = it->second;
  entry.channel.cache = setup->cache;
  entry.channel.fs_cache = narrow<FsCacheObject>(setup->cache);
  entry.rights = setup->rights;
  if (local_id_out != nullptr) {
    *local_id_out = local_id;
  }
  return entry.rights;
}

std::vector<PagerChannelTable::Channel> PagerChannelTable::ChannelsForFile(
    uint64_t file_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Channel> out;
  for (const auto& [id, entry] : channels_) {
    if (entry.channel.file_id == file_id && entry.channel.cache != nullptr) {
      out.push_back(entry.channel);
    }
  }
  return out;
}

std::vector<PagerChannelTable::Channel> PagerChannelTable::AllChannels()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Channel> out;
  out.reserve(channels_.size());
  for (const auto& [id, entry] : channels_) {
    out.push_back(entry.channel);
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
  return it->second.channel;
}

void PagerChannelTable::RemoveChannel(uint64_t local_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = channels_.find(local_id); it != channels_.end()) {
    EraseLocked(it);
  }
}

void PagerChannelTable::RemoveFile(uint64_t file_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = channels_.begin(); it != channels_.end();) {
    auto next = std::next(it);
    if (it->second.channel.file_id == file_id) {
      EraseLocked(it);
    }
    it = next;
  }
}

size_t PagerChannelTable::NumChannels() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return channels_.size();
}

}  // namespace springfs
