// The generic coherency layer (paper sections 6.2 and 6.3).
//
// "The coherency layer implements a per-block multiple-readers/single-
// writer coherency protocol ... The coherency layer also caches file
// attributes using the operations provided by the fs_cache and fs_pager
// interfaces."
//
// The layer stacks on exactly one underlying file system. For every file it
// exports it:
//   * acts as a *pager* to its clients (VMMs and higher layers), running
//     the MRSW protocol across their cache objects via CoherencyEngine;
//   * acts as a *cache manager* to the layer below (Figure 4's C3-P3
//     connection), holding its own block and attribute caches filled
//     through the underlying pager object;
//   * implements file read/write against its own cache, so cached
//     operations complete with no calls to the lower layer (the paper's
//     third Table 2 observation).
//
// "Using the coherency layer, we can construct coherent file system stacks
// out of non-coherent layers" (section 6.3): stacking this layer on the
// non-coherent disk layer yields Spring SFS (Figure 10).
//
// Options.cache_data / cache_attrs reproduce Table 2's "Cached by Coherency
// Layer?" axis: with caching off, every read/write/stat is delegated to the
// lower layer.

#ifndef SPRINGFS_LAYERS_COHERENT_COHERENCY_LAYER_H_
#define SPRINGFS_LAYERS_COHERENT_COHERENCY_LAYER_H_

#include <map>

#include "src/coherency/engine.h"
#include "src/fs/channel_table.h"
#include "src/fs/file.h"
#include "src/obj/domain.h"
#include "src/obs/metrics.h"
#include "src/support/clock.h"

namespace springfs {

class CoherentFile;

struct CoherencyLayerOptions {
  bool cache_data = true;
  bool cache_attrs = true;
  // Read-ahead (paper section 8, future work): on a client page-in the
  // layer may "return more data than strictly needed" — up to this many
  // extra sequential pages, clamped to the file length. 0 disables.
  uint32_t read_ahead_pages = 0;
};

class CoherencyLayer : public StackableFs,
                       public CacheManager,
                       public Servant,
                       public metrics::StatsProvider {
 public:
  static sp<CoherencyLayer> Create(sp<Domain> domain,
                                   CoherencyLayerOptions options = {},
                                   Clock* clock = &DefaultClock());
  ~CoherencyLayer() override;

  const char* interface_name() const override { return "coherency_layer"; }

  // --- Context ---
  Result<sp<Object>> Resolve(const Name& name,
                             const Credentials& creds) override;
  Status Bind(const Name& name, sp<Object> object, const Credentials& creds,
              bool replace = false) override;
  Status Unbind(const Name& name, const Credentials& creds) override;
  Result<std::vector<BindingInfo>> List(const Credentials& creds) override;
  Result<sp<Context>> CreateContext(const Name& name,
                                    const Credentials& creds) override;

  // --- StackableFs ---
  Status StackOn(sp<StackableFs> underlying) override;
  Result<sp<File>> CreateFile(const Name& name,
                              const Credentials& creds) override;

  // --- Fs ---
  Result<FsInfo> GetFsInfo() override;
  Status SyncFs() override;

  // --- CacheManager (toward the layer below) ---
  Result<ChannelSetup> EstablishChannel(uint64_t pager_key,
                                        sp<PagerObject> pager) override;
  std::string cache_manager_name() const override { return "coherency-layer"; }

  // --- StatsProvider ---
  std::string stats_prefix() const override { return "layer/" + type_name(); }
  void CollectStats(const metrics::StatsEmitter& emit) const override;

 protected:
  CoherencyLayer(sp<Domain> domain, CoherencyLayerOptions options,
                 Clock* clock);

  // Transform hooks at the lower-layer boundary. The coherency layer itself
  // is an identity transform; subclasses (the encryption layer, the
  // pass-through layer) override these to translate between the
  // representation exported to clients and the representation stored in
  // the underlying file system. Transforms work in place, so they are
  // size-preserving per page, and must be self-inverse under
  // Encode∘Decode; the compression layer, which is not size-preserving,
  // is a separate implementation (COMPFS).
  //
  // `page` is exactly one kPageSize page at `page_offset` of the file
  // identified by `file_id`: one page's slice of the run crossing the
  // boundary, transformed where it lies.
  virtual Status DecodeFromBelow(uint64_t file_id, Offset page_offset,
                                 MutableByteSpan page) {
    (void)file_id;
    (void)page_offset;
    (void)page;
    return Status::Ok();
  }
  virtual Status EncodeForBelow(uint64_t file_id, Offset page_offset,
                                MutableByteSpan page) {
    (void)file_id;
    (void)page_offset;
    (void)page;
    return Status::Ok();
  }
  // Layer type name reported in FsInfo ("coherency", "cryptfs", ...).
  virtual std::string type_name() const { return "coherency"; }

 private:
  friend class CoherentFile;
  friend class CoherentDirContext;
  friend class CoherentPagerObject;
  friend class CoherencyLowerCacheObject;

  struct CachedBlock {
    Buffer data;
    AccessRights rights = AccessRights::kReadOnly;  // rights held from below
    bool dirty = false;
  };

  // Everything the layer knows about one exported file.
  struct FileState {
    sp<File> under;                 // the underlying layer's file object
    uint64_t file_id = 0;           // our identity for this file
    uint64_t pager_key = 0;         // key our clients' channels use
    bool bound_below = false;
    sp<PagerObject> lower_pager;       // from EstablishChannel
    sp<FsPagerObject> lower_fs_pager;  // narrow of the above; may be null
    CoherencyEngine engine;            // MRSW across *client* caches
    std::map<Offset, CachedBlock> blocks;  // the layer's own data cache
    FileAttributes attrs;
    bool attrs_valid = false;
    bool attrs_dirty = false;
    std::mutex mutex;
  };

  // Wrapping machinery.
  Result<sp<Object>> WrapResolved(sp<Object> object);
  Result<sp<CoherentFile>> WrapFile(const sp<File>& under);
  sp<Object> UnwrapForBind(sp<Object> object);
  sp<FileState> StateForFile(const sp<File>& under);

  // Binds `state` to the underlying file (once), capturing the lower pager.
  Status EnsureBoundBelow(const sp<FileState>& state);

  // Data-path helpers; `state.mutex` must be held by the caller.
  Status EnsureBlocks(FileState& state, Offset begin, Offset end,
                      AccessRights access);
  Status EnsureBoundBelowLocked(FileState& state);
  Status EnsureAttrs(FileState& state);
  // Fetches [begin, begin+len) from below and runs DecodeFromBelow on each
  // page in place; len must be page-aligned.
  Result<Buffer> FetchFromBelow(FileState& state, Offset begin, Offset len,
                                AccessRights access);
  // Runs EncodeForBelow on each page of `run`, a whole run of contiguous
  // pages from `offset`, in place, and hands the run below in one Sync.
  Status PushToBelow(FileState& state, Offset offset, Buffer run);
  Status FoldRecoveredLocked(FileState& state,
                             const std::vector<BlockData>& blocks);

  // Client-pager entry points (from CoherentPagerObject).
  Result<Buffer> ClientPageIn(FileState& state, uint64_t channel,
                              Offset offset, Offset size, AccessRights access);
  Status ClientPageWrite(FileState& state, uint64_t channel, Offset offset,
                         ByteSpan data, bool drops, bool downgrades,
                         bool push_below);
  Result<FileAttributes> ClientGetAttributes(FileState& state);
  Status ClientWriteAttributes(FileState& state, uint64_t channel,
                               const AttrUpdate& update);

  // Lower-cache-object entry points (callbacks from the layer below).
  Result<std::vector<BlockData>> LowerFlushBack(FileState& state, Range range);
  Result<std::vector<BlockData>> LowerDenyWrites(FileState& state, Range range);

  // Pushes a file's dirty blocks, one lower Sync per run of contiguous
  // dirty pages, and its attributes to the layer below.
  Status SyncFileState(FileState& state);

  // Tells every file-system client cache (fs_cache narrows) except
  // `except_channel` that its cached attributes are stale. Part of the
  // section 4.3 attribute coherency protocol.
  Status BroadcastAttrInvalidate(FileState& state, uint64_t except_channel);

  CoherencyLayerOptions options_;
  Clock* clock_;
  sp<StackableFs> under_;

  std::mutex mutex_;  // protects the maps below (never held across lower calls)
  std::map<Object*, sp<CoherentFile>> wrapped_files_;
  std::map<uint64_t, sp<FileState>> states_;  // by file_id
  uint64_t next_file_id_ = 1;
  PagerChannelTable client_channels_;

  // Correlates EstablishChannel callbacks (from below, mid-bind) with the
  // file being bound; guarded by bind_mutex_.
  std::mutex bind_mutex_;
  sp<FileState> binding_state_;

  // Cache accounting, guarded by stats_mutex_; published via CollectStats.
  struct Stats {
    uint64_t data_cache_hits = 0;
    uint64_t data_cache_misses = 0;
    uint64_t attr_cache_hits = 0;
    uint64_t attr_cache_misses = 0;
    uint64_t lower_page_ins = 0;
    uint64_t lower_page_outs = 0;
  };

  mutable std::mutex stats_mutex_;
  Stats stats_;
};

}  // namespace springfs

#endif  // SPRINGFS_LAYERS_COHERENT_COHERENCY_LAYER_H_
