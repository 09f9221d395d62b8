// MIRRORFS: a replication layer stacked on TWO underlying file systems
// (the paper's fs4 in Figure 3: "fs4 uses two underlying file systems to
// implement its function (e.g. ... fs4 is a mirroring file system)", and
// section 4.4: "The stack_on operation can be called more than once to
// stack on more than one underlying file system").
//
// Semantics: every mutation is applied to all replicas; reads prefer the
// primary (replica 0) and fail over to the next replica on kIoError. A
// replica that fell behind (its device was broken during writes) can be
// re-synchronized with Resilver().

#ifndef SPRINGFS_LAYERS_MIRRORFS_MIRROR_LAYER_H_
#define SPRINGFS_LAYERS_MIRRORFS_MIRROR_LAYER_H_

#include <vector>

#include "src/fs/channel_table.h"
#include "src/fs/file.h"
#include "src/obj/domain.h"
#include "src/obs/metrics.h"
#include "src/support/clock.h"

namespace springfs {

class MirrorLayer : public StackableFs,
                    public Servant,
                    public metrics::StatsProvider {
 public:
  static sp<MirrorLayer> Create(sp<Domain> domain,
                                Clock* clock = &DefaultClock());
  ~MirrorLayer() override;

  const char* interface_name() const override { return "mirror_layer"; }

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
  // May be called repeatedly; each call adds a replica. At least two are
  // required before the layer accepts traffic.
  Status StackOn(sp<StackableFs> underlying) override;
  Result<sp<File>> CreateFile(const Name& name,
                              const Credentials& creds) override;

  // --- Fs ---
  Result<FsInfo> GetFsInfo() override;
  Status SyncFs() override;

  // Copies `name` from the first healthy replica to every other replica
  // (recovery after a replica came back from the dead).
  Status Resilver(const Name& name, const Credentials& creds);

  size_t NumReplicas() const;
  // --- StatsProvider ---
  std::string stats_prefix() const override { return "layer/mirrorfs"; }
  void CollectStats(const metrics::StatsEmitter& emit) const override;

  // Lists directory `prefix` (the root when empty) as the union over the
  // replicas; directories this layer hands out are SubContexts listed
  // through here.
  Result<std::vector<BindingInfo>> ListAt(const Name& prefix,
                                          const Credentials& creds);

 private:
  friend class MirrorFile;
  friend class MirrorPagerObject;

  explicit MirrorLayer(sp<Domain> domain, Clock* clock);

  // Replica accounting, guarded by mutex_; published via CollectStats.
  struct Stats {
    uint64_t reads_primary = 0;
    uint64_t reads_failover = 0;
    uint64_t write_fanouts = 0;
    uint64_t replica_write_failures = 0;
    uint64_t resilvered_files = 0;
  };

  Status RequireReplicas() const;

  // Statistics hooks for MirrorFile.
  void NoteRead(bool primary);
  void NoteWriteFanout();
  void NoteReplicaWriteFailure();

  Clock* clock_;
  mutable std::mutex mutex_;
  std::vector<sp<StackableFs>> replicas_;
  PagerChannelTable channels_;  // client pager-cache channels per file
  mutable Stats stats_;
};

}  // namespace springfs

#endif  // SPRINGFS_LAYERS_MIRRORFS_MIRROR_LAYER_H_
