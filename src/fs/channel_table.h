// Pager-side bookkeeping for pager-cache channels (paper section 3.3.2).
//
// "When a pager receives a bind operation from a VMM, it must determine if
// there is already a pager-cache object connection for the memory object at
// the given VMM. If there is no connection, the pager contacts the VMM, and
// the VMM and the pager exchange pager, cache, and cache_rights objects."
//
// Every file-system layer that acts as a pager keeps one of these tables:
// it maps (file, cache manager) to the established channel, performs the
// exchange on first bind, and narrows the manager's cache object to
// fs_cache to discover whether the peer is a file system (section 4.3).

#ifndef SPRINGFS_FS_CHANNEL_TABLE_H_
#define SPRINGFS_FS_CHANNEL_TABLE_H_

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/fs/fs_objects.h"

namespace springfs {

// Globally unique key identifying a pager-side file at cache managers
// (cache managers key their channels by it).
uint64_t NewPagerKey();

// The cache manager's end of exactly one channel. A layer that caches one
// file of the layer below binds through a fresh one, so the exchange lands
// on that file's cache object with no layer-wide "which file is binding"
// state, and binds of different files need not wait for each other.
class OneChannelManager final : public CacheManager {
 public:
  // `name` is the layer's diagnostic manager name.
  OneChannelManager(sp<CacheObject> cache, uint64_t rights_id, std::string name)
      : cache_(std::move(cache)), rights_id_(rights_id),
        name_(std::move(name)) {}

  // Keeps `pager` and hands back {cache, ChannelRights(rights_id)}.
  Result<ChannelSetup> EstablishChannel(uint64_t pager_key,
                                        sp<PagerObject> pager) override;
  std::string cache_manager_name() const override { return name_; }

  // The pager the exchange handed over; null until it ran.
  const sp<PagerObject>& pager() const { return pager_; }

 private:
  sp<CacheObject> cache_;
  uint64_t rights_id_;
  std::string name_;
  sp<PagerObject> pager_;
};

// The one way a layer binds a file below: binds `file` read-write for
// `cache` through a fresh OneChannelManager and returns the pager the
// exchange handed over (an error if it handed over none).
Result<sp<PagerObject>> BindBelow(MemoryObject& file, sp<CacheObject> cache,
                                  uint64_t rights_id, std::string name);

class PagerChannelTable {
 public:
  struct Channel {
    uint64_t local_id = 0;     // table-local channel identity
    uint64_t file_id = 0;      // pager's file identity
    uint64_t pager_key = 0;    // the key the manager's channel is under
    sp<CacheManager> manager;
    sp<CacheObject> cache;       // manager's cache object
    sp<FsCacheObject> fs_cache;  // narrow of `cache`; null for plain managers
    sp<CacheRights> rights;      // manager's cache_rights object
    sp<PagerObject> pager;       // our pager object handed to the manager
  };

  // Services a bind from `manager` for `file_id`: finds the existing
  // channel or performs the exchange, creating our pager object via
  // `make_pager(local_id)`. Returns the manager's cache_rights object (the
  // result of the bind operation). `pager_key` must be stable per file —
  // callers allocate it once per file with NewPagerKey().
  Result<sp<CacheRights>> Bind(
      uint64_t file_id, uint64_t pager_key, const sp<CacheManager>& manager,
      const std::function<sp<PagerObject>(uint64_t local_id)>& make_pager);

  // All channels currently established for a file (for coherency fan-out).
  std::vector<Channel> ChannelsForFile(uint64_t file_id) const;

  // Every channel in the table (for whole-mount invalidation).
  std::vector<Channel> AllChannels() const;

  Result<Channel> GetChannel(uint64_t local_id) const;

  // Drops one channel (cache manager closed its end) or a whole file's
  // channels (file deleted).
  void RemoveChannel(uint64_t local_id);
  void RemoveFile(uint64_t file_id);

  size_t NumChannels() const;

 private:
  mutable std::mutex mutex_;
  uint64_t next_local_id_ = 1;
  std::map<std::pair<uint64_t, Object*>, uint64_t> index_;  // (file, mgr)
  std::map<uint64_t, Channel> channels_;                    // by local id
};

}  // namespace springfs

#endif  // SPRINGFS_FS_CHANNEL_TABLE_H_
