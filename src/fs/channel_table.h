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
// state, and binds of different files need not wait for each other. The
// binder owns it, and with it the pager; destroying it closes the channel
// (DoneWithPagerObject).
class OneChannelManager final : public CacheManager {
 public:
  // `name` is the layer's diagnostic manager name.
  OneChannelManager(sp<CacheObject> cache, uint64_t rights_id, std::string name)
      : cache_(std::move(cache)), rights_id_(rights_id),
        name_(std::move(name)) {}
  ~OneChannelManager() override;

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
// `cache` through a fresh OneChannelManager and returns it once the
// exchange handed over a pager (an error if it handed over none). The
// caller keeps the manager for as long as it uses the channel.
Result<sp<OneChannelManager>> BindBelow(MemoryObject& file,
                                        sp<CacheObject> cache,
                                        uint64_t rights_id, std::string name);

// The pager's side of its channels. It keeps the cache object and rights
// each exchange handed it (a manager may hand over a proxy it keeps
// nowhere else), refers to the manager only weakly and holds no pager
// object: the manager's end owns the pager, and no cache object owns what
// bound it, so the table closes no reference cycle. A channel stays until
// its manager closes it (DoneWithPagerObject) or the pager removes it.
class PagerChannelTable {
 public:
  struct Channel {
    uint64_t local_id = 0;     // table-local channel identity
    uint64_t file_id = 0;      // pager's file identity
    uint64_t pager_key = 0;    // the key the manager's channel is under
    sp<CacheObject> cache;       // manager's cache object
    sp<FsCacheObject> fs_cache;  // narrow of `cache`; null for plain managers
  };

  // Services a bind from `manager` for `file_id`: finds the existing
  // channel or performs the exchange, creating our pager object via
  // `make_pager(local_id)`. Returns the manager's cache_rights object (the
  // result of the bind operation) and, when `local_id` is given, the
  // channel's id. `pager_key` must be stable per file — callers allocate it
  // once per file with NewPagerKey().
  Result<sp<CacheRights>> Bind(
      uint64_t file_id, uint64_t pager_key, const sp<CacheManager>& manager,
      const std::function<sp<PagerObject>(uint64_t local_id)>& make_pager,
      uint64_t* local_id = nullptr);

  // All channels currently established for a file (for coherency
  // fan-out).
  std::vector<Channel> ChannelsForFile(uint64_t file_id) const;

  // Every channel in the table (for whole-mount invalidation); `cache` is
  // null while its exchange runs.
  std::vector<Channel> AllChannels() const;

  Result<Channel> GetChannel(uint64_t local_id) const;

  // Drops one channel (cache manager closed its end) or a whole file's
  // channels (file deleted).
  void RemoveChannel(uint64_t local_id);
  void RemoveFile(uint64_t file_id);

  size_t NumChannels() const;

 private:
  struct Entry {
    Channel channel;
    const Object* manager_id = nullptr;  // the index key; never dereferenced
    wp<CacheManager> manager;
    sp<CacheRights> rights;  // null while the exchange runs
  };

  // Erases `it` and its index entry; mutex_ held.
  void EraseLocked(std::map<uint64_t, Entry>::iterator it);

  mutable std::mutex mutex_;
  uint64_t next_local_id_ = 1;
  std::map<std::pair<uint64_t, const Object*>, uint64_t> index_;
  std::map<uint64_t, Entry> channels_;  // by local id
};

}  // namespace springfs

#endif  // SPRINGFS_FS_CHANNEL_TABLE_H_
