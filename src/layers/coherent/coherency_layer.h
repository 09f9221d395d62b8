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
//
// Ownership: the layer object is a handle that owns the table of files it
// handed out and their cached state. The files, their pager objects and
// the cache objects bound below share the layer's machinery (the Core:
// options, transform, client channel table, counters) without owning the
// layer, so a file keeps working after the layer is dropped, and dropping
// the layer and every file from it frees the cache. A file's state owns
// its channel to the layer below, and closes it when it goes.

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
};

// A transform at the lower-layer boundary. The coherency layer itself is
// an identity transform; the encryption layer and the pass-through layer
// supply one to translate between the representation exported to clients
// and the representation stored in the underlying file system. Transforms
// work in place, so they are size-preserving per page, and must be
// self-inverse under Encode∘Decode; the compression layer, which is not
// size-preserving, is a separate implementation (COMPFS).
//
// `page` is exactly one kPageSize page at `page_offset` of the file
// identified by `file_id`: one page's slice of the run crossing the
// boundary, transformed where it lies.
class PageTransform {
 public:
  virtual ~PageTransform() = default;
  virtual Status DecodeFromBelow(uint64_t file_id, Offset page_offset,
                                 MutableByteSpan page) = 0;
  virtual Status EncodeForBelow(uint64_t file_id, Offset page_offset,
                                MutableByteSpan page) = 0;
};

class CoherencyLayer : public StackableFs,
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
  // Lists directory `dir` (the root when empty); directories this layer
  // hands out are SubContexts listed through here.
  Result<std::vector<BindingInfo>> ListAt(const Name& dir,
                                          const Credentials& creds);

  // --- StackableFs ---
  Status StackOn(sp<StackableFs> underlying) override;
  Result<sp<File>> CreateFile(const Name& name,
                              const Credentials& creds) override;

  // --- Fs ---
  Result<FsInfo> GetFsInfo() override;
  Status SyncFs() override;

  // --- StatsProvider ---
  std::string stats_prefix() const override { return "layer/" + type_name(); }
  void CollectStats(const metrics::StatsEmitter& emit) const override;

 protected:
  // `transform`, when given, runs on every page crossing the lower
  // boundary.
  CoherencyLayer(sp<Domain> domain, CoherencyLayerOptions options,
                 Clock* clock, sp<PageTransform> transform = nullptr);

  // Layer type name reported in FsInfo ("coherency", "cryptfs", ...).
  virtual std::string type_name() const { return "coherency"; }

 private:
  friend class CoherentFile;
  friend class CoherentPagerObject;
  friend class CoherencyLowerCacheObject;

  class Core;        // the machinery files, pagers and cache objects share
  struct FileState;  // everything the layer knows about one exported file

  // Wrapping machinery.
  Result<sp<CoherentFile>> WrapFile(const sp<File>& under);
  sp<FileState> StateForFile(const sp<File>& under);

  const sp<Core> core_;
  sp<StackableFs> under_;

  std::mutex mutex_;  // protects the maps below (never held across lower calls)
  std::map<Object*, sp<CoherentFile>> wrapped_files_;
  std::map<uint64_t, sp<FileState>> states_;  // by file_id
  uint64_t next_file_id_ = 1;
};

}  // namespace springfs

#endif  // SPRINGFS_LAYERS_COHERENT_COHERENCY_LAYER_H_
