// CFS: the attribute-caching file system (paper section 6.2).
//
// "Its main function is to interpose on remote files when they are passed
// to the local machine ... When CFS is asked to interpose on a file, it
// becomes a cache manager for the remote file by invoking the bind
// operation on the file."
//
//   * Binds from the local VMM are forwarded to the remote file, "so all
//     page-ins and page-outs from the VMM go directly to the remote DFS" —
//     CFS is not on the data path.
//   * Attributes are cached locally via the fs_pager/fs_cache interfaces;
//     the server's kCbAttrInvalidate callback lands in CFS's fs_cache
//     object and drops the cache. A stat storm therefore costs one network
//     round trip, not N.
//   * Read/write requests are serviced "by mapping the file into its
//     address space and reading/writing the data from/to its memory (thus
//     utilizing the local VMM for caching the data)".
//
// "Note that CFS is optional. If it is not running, remote files will not
// be interposed on, and all file operations go to the remote DFS."

#ifndef SPRINGFS_LAYERS_CFS_CFS_LAYER_H_
#define SPRINGFS_LAYERS_CFS_CFS_LAYER_H_

#include <map>

#include "src/fs/channel_table.h"
#include "src/fs/fs_objects.h"
#include "src/naming/context.h"
#include "src/obs/metrics.h"
#include "src/vmm/vmm.h"

namespace springfs {

class CfsLayer : public Context, public Fs, public Servant,
                 public metrics::StatsProvider {
 public:
  // `remote` is the context whose files are interposed on (typically a
  // DfsClient mount); `vmm` is the local node's VMM used for data caching.
  static sp<CfsLayer> Create(sp<Domain> domain, sp<Context> remote,
                             sp<Vmm> vmm, Clock* clock = &DefaultClock());
  ~CfsLayer() override;

  const char* interface_name() const override { return "cfs_layer"; }

  // --- Context: resolutions through CFS interpose on files ---
  Result<sp<Object>> Resolve(const Name& name,
                             const Credentials& creds) override;
  Status Bind(const Name& name, sp<Object> object, const Credentials& creds,
              bool replace = false) override;
  Status Unbind(const Name& name, const Credentials& creds) override;
  Result<std::vector<BindingInfo>> List(const Credentials& creds) override;
  Result<sp<Context>> CreateContext(const Name& name,
                                    const Credentials& creds) override;
  // Lists remote directory `dir` (the root when empty); directories this
  // layer hands out are SubContexts listed through here.
  Result<std::vector<BindingInfo>> ListAt(const Name& dir,
                                          const Credentials& creds);

  // --- Fs ---
  Result<FsInfo> GetFsInfo() override;
  Status SyncFs() override;

  // --- StatsProvider ---
  std::string stats_prefix() const override { return "layer/cfs"; }
  void CollectStats(const metrics::StatsEmitter& emit) const override;

 private:
  friend class CfsFile;
  friend class CfsCacheObject;

  // Interposition accounting, guarded by stats_mutex_; published via
  // CollectStats.
  struct Stats {
    uint64_t attr_cache_hits = 0;
    uint64_t attr_cache_misses = 0;
    uint64_t attr_invalidations = 0;
    uint64_t files_interposed = 0;
  };

  void NoteAttrInvalidation();

  struct FileState {
    sp<File> remote;
    bool bound_remote = false;
    sp<OneChannelManager> remote_channel;  // our end; closes with the state
    sp<FsPagerObject> remote_fs_pager;  // attribute channel to the server
    FileAttributes attrs;
    bool attrs_valid = false;
    bool attrs_dirty = false;
    sp<MappedRegion> region;  // lazy mapping for read/write service
    // Recursive: an RPC issued while this is held (attr push, mapped-page
    // sync) can trigger a server-side broadcast that re-enters this file's
    // cache object on the same call stack.
    std::recursive_mutex mutex;
    // Serializes this file's bind to the remote file; taken before `mutex`,
    // and never by the cache object.
    std::mutex bind_mutex;
  };

  CfsLayer(sp<Domain> domain, sp<Context> remote, sp<Vmm> vmm, Clock* clock);

  sp<FileState> StateFor(const sp<File>& remote);
  Status EnsureBoundRemote(const sp<FileState>& state);
  Status EnsureAttrs(FileState& state);      // state.mutex held
  Status EnsureRegion(FileState& state);     // state.mutex held
  Status PushAttrs(FileState& state);        // state.mutex held

  sp<Context> remote_;
  sp<Vmm> vmm_;
  Clock* clock_;

  std::mutex mutex_;
  std::map<Object*, sp<FileState>> states_;

  mutable std::mutex stats_mutex_;
  Stats stats_;
};

}  // namespace springfs

#endif  // SPRINGFS_LAYERS_CFS_CFS_LAYER_H_
