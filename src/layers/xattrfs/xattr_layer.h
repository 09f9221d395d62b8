// XATTRFS: the extended-file-attributes layer (paper section 1's last
// motivating extension, built on the section 4.3 subclassing point).
//
// Files exported by this layer narrow to XattrFile. The attribute lists
// live in shadow files (`<name>.xattr`) of the underlying file system —
// another use of the paper's observation that a layer's files need not
// correspond 1:1 to underlying files. Data access is pass-through: like
// DFS with local clients (Figure 7), binds are FORWARDED to the underlying
// file, so the layer is entirely off the data path and mapped I/O costs
// exactly what the underlying stack charges.

#ifndef SPRINGFS_LAYERS_XATTRFS_XATTR_LAYER_H_
#define SPRINGFS_LAYERS_XATTRFS_XATTR_LAYER_H_

#include <map>

#include "src/fs/xattr.h"
#include "src/naming/context.h"
#include "src/obj/domain.h"
#include "src/obs/metrics.h"
#include "src/support/clock.h"

namespace springfs {

class XattrLayer : public StackableFs,
                   public Servant,
                   public metrics::StatsProvider {
 public:
  static sp<XattrLayer> Create(sp<Domain> domain,
                               Clock* clock = &DefaultClock());
  ~XattrLayer() override;

  const char* interface_name() const override { return "xattr_layer"; }

  // --- Context ---
  Result<sp<Object>> Resolve(const Name& name,
                             const Credentials& creds) override;
  Status Bind(const Name& name, sp<Object> object, const Credentials& creds,
              bool replace = false) override;
  Status Unbind(const Name& name, const Credentials& creds) override;
  Result<std::vector<BindingInfo>> List(const Credentials& creds) override;
  Result<sp<Context>> CreateContext(const Name& name,
                                    const Credentials& creds) override;
  // Lists directory `dir` (the root when empty) without the attribute
  // shadows; directories this layer hands out are SubContexts listed
  // through here.
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
  std::string stats_prefix() const override { return "layer/xattrfs"; }
  void CollectStats(const metrics::StatsEmitter& emit) const override;

 private:
  friend class XattrFileImpl;

  XattrLayer(sp<Domain> domain, Clock* clock);

  // Attribute accounting, guarded by stats_mutex_; published via
  // CollectStats.
  struct Stats {
    uint64_t gets = 0;
    uint64_t sets = 0;
    uint64_t shadow_loads = 0;
    uint64_t shadow_stores = 0;
  };

  void NoteGet();
  void NoteSet();

  struct FileState {
    sp<File> under;        // the data file (binds are forwarded to it)
    Name name;             // the layer-relative path (for the shadow)
    bool loaded = false;
    std::map<std::string, Buffer> xattrs;
    std::mutex mutex;
  };

  Result<sp<File>> WrapFile(const Name& name, const sp<File>& under);

  // Shadow (de)serialization; state.mutex held.
  Status LoadShadow(FileState& state);
  Status StoreShadow(FileState& state);

  Clock* clock_;
  sp<StackableFs> under_;
  std::mutex mutex_;
  std::map<std::string, sp<File>> wrapped_files_;  // by full path
  mutable std::mutex stats_mutex_;
  Stats stats_;
};

}  // namespace springfs

#endif  // SPRINGFS_LAYERS_XATTRFS_XATTR_LAYER_H_
