// COMPFS: the compression file system layer (paper section 4.2.1,
// Figures 5 and 6).
//
// "We can use COMPFS to save disk space by compressing all data before
// writing it out and by uncompressing all data read from the disk. Since we
// are not interested in rewriting an on-disk file system, we can implement
// COMPFS as a layer on top of a base file system."
//
// Unlike the encryption layer, compression is not size-preserving, so
// COMPFS cannot reuse the coherency layer's 1:1 block mapping. Each COMPFS
// file is backed by TWO underlying files (the paper: "There need not be a
// one-to-one correspondence between the files exported by a given layer and
// its underlying layers"):
//
//   <name>        — an append-only chunk store of compressed blocks
//   <name>.cmeta  — header + per-logical-block chunk table
//
// Incompressible blocks are stored raw (flagged in the table). Rewritten
// blocks append a fresh chunk and orphan the old one; Compact() rewrites
// the chunk store to reclaim the garbage (invoked explicitly or by SyncFs
// when waste exceeds a threshold).
//
// The two stacking modes of the paper:
//   Figure 5 (options.coherent_lower = false): COMPFS accesses underlying
//     files through their read/write interface only. Mappings of the
//     COMPFS file and direct access to the underlying file are NOT
//     coherent with each other.
//   Figure 6 (options.coherent_lower = true): COMPFS additionally binds to
//     the underlying data file as a *cache manager* (the C3-P3 connection),
//     so the layer below engages COMPFS in its coherency protocol and
//     direct writes to the underlying file invalidate COMPFS's caches.

#ifndef SPRINGFS_LAYERS_COMPFS_COMP_LAYER_H_
#define SPRINGFS_LAYERS_COMPFS_COMP_LAYER_H_

#include <map>

#include "src/codec/codec.h"
#include "src/coherency/engine.h"
#include "src/fs/channel_table.h"
#include "src/fs/file.h"
#include "src/obj/domain.h"
#include "src/obs/metrics.h"
#include "src/support/clock.h"

namespace springfs {

class CompFile;

struct CompLayerOptions {
  std::string codec = "lz77";
  bool coherent_lower = true;  // Figure 6 vs. Figure 5
};

class CompLayer : public StackableFs,
                  public Servant,
                  public metrics::StatsProvider {
 public:
  static sp<CompLayer> Create(sp<Domain> domain, CompLayerOptions options = {},
                              Clock* clock = &DefaultClock());
  ~CompLayer() override;

  const char* interface_name() const override { return "comp_layer"; }

  // --- Context ---
  Result<sp<Object>> Resolve(const Name& name,
                             const Credentials& creds) override;
  Status Bind(const Name& name, sp<Object> object, const Credentials& creds,
              bool replace = false) override;
  Status Unbind(const Name& name, const Credentials& creds) override;
  Result<std::vector<BindingInfo>> List(const Credentials& creds) override;
  Result<sp<Context>> CreateContext(const Name& name,
                                    const Credentials& creds) override;
  // Lists directory `dir` (the root when empty) without the .cmeta shadows;
  // directories this layer hands out are SubContexts listed through here.
  Result<std::vector<BindingInfo>> ListAt(const Name& dir,
                                          const Credentials& creds);

  // --- StackableFs ---
  Status StackOn(sp<StackableFs> underlying) override;
  Result<sp<File>> CreateFile(const Name& name,
                              const Credentials& creds) override;

  // --- Fs ---
  Result<FsInfo> GetFsInfo() override;
  Status SyncFs() override;

  // Rewrites a file's chunk store, dropping orphaned chunks. Returns bytes
  // reclaimed.
  Result<uint64_t> Compact(const Name& name, const Credentials& creds);

  // --- StatsProvider ---
  std::string stats_prefix() const override { return "layer/compfs"; }
  void CollectStats(const metrics::StatsEmitter& emit) const override;

 private:
  friend class CompFile;
  friend class CompPagerObject;
  friend class CompLowerCacheObject;

  CompLayer(sp<Domain> domain, CompLayerOptions options, Clock* clock);

  // Codec accounting, guarded by stats_mutex_; published via CollectStats.
  struct Stats {
    uint64_t blocks_compressed = 0;
    uint64_t blocks_decompressed = 0;
    uint64_t blocks_stored_raw = 0;
    uint64_t bytes_logical = 0;    // plaintext bytes written
    uint64_t bytes_stored = 0;     // chunk bytes appended
    uint64_t compactions = 0;
    uint64_t lower_invalidations = 0;  // coherency callbacks from below
  };

  // One chunk-table entry: where a logical block lives in the chunk store.
  struct ChunkEntry {
    uint64_t offset = 0;  // byte offset in the underlying data file
    uint32_t length = 0;  // 0 = hole (reads as zeros)
    bool raw = false;     // stored uncompressed
  };

  struct FileState {
    sp<File> under_data;   // chunk store
    sp<File> under_meta;   // serialized header + table
    uint64_t file_id = 0;
    uint64_t pager_key = 0;
    std::string name;      // for diagnostics and compaction

    bool meta_loaded = false;
    bool meta_dirty = false;
    uint64_t logical_size = 0;
    uint64_t next_free = 0;          // append position in the chunk store
    std::vector<ChunkEntry> table;   // indexed by logical block

    // Decompressed-block cache + client coherency.
    std::map<Offset, Buffer> cache;  // page-aligned offset -> plaintext page
    std::map<Offset, bool> dirty;
    CoherencyEngine engine;

    // Figure 6: our channel to the layer below.
    bool bound_below = false;
    sp<PagerObject> lower_pager;

    uint64_t atime_ns = 0;
    uint64_t mtime_ns = 0;

    // Serializes this file's bind below; taken before `mutex`, and never by
    // the lower cache object.
    std::mutex bind_mutex;
    std::mutex mutex;
  };

  Result<sp<CompFile>> WrapFile(const Name& name, const sp<File>& under_data);
  Status EnsureBoundBelow(const sp<FileState>& state);

  // Metadata (de)serialization; state.mutex held.
  Status LoadMeta(FileState& state);
  Status StoreMeta(FileState& state);

  // Block access; state.mutex held.
  Result<Buffer> LoadBlock(FileState& state, uint64_t block_index);
  Status StoreBlock(FileState& state, uint64_t block_index, ByteSpan page);
  Status EnsureCached(FileState& state, Offset begin, Offset end);
  Status FlushDirty(FileState& state);
  Status CompactLocked(FileState& state, uint64_t* reclaimed);
  // Runs the engine's Acquire and caches the dirty blocks it recovered
  // (also when it failed), then returns its verdict.
  Status AcquireLocked(FileState& state, uint64_t requester, Range range,
                       AccessRights access);

  // Reads/writes bytes of the underlying data file, via the pager channel
  // when bound below (Figure 6) or the file interface otherwise (Figure 5).
  Result<size_t> LowerRead(FileState& state, Offset offset,
                           MutableByteSpan out);
  Status LowerWrite(FileState& state, Offset offset, ByteSpan data);

  // Client-pager entry points.
  Result<Buffer> ClientPageIn(FileState& state, uint64_t channel,
                              Offset offset, Offset size, AccessRights access);
  Status ClientPageWrite(FileState& state, uint64_t channel, Offset offset,
                         ByteSpan data, bool drops, bool downgrades,
                         bool push_below);

  // Lower coherency callbacks (Figure 6): drop caches.
  Status LowerInvalidate(FileState& state);

  CompLayerOptions options_;
  const Codec* codec_;
  Clock* clock_;
  sp<StackableFs> under_;

  std::mutex mutex_;
  std::map<std::string, sp<CompFile>> wrapped_files_;  // by full path
  uint64_t next_file_id_ = 1;
  PagerChannelTable client_channels_;

  mutable std::mutex stats_mutex_;
  Stats stats_;
};

}  // namespace springfs

#endif  // SPRINGFS_LAYERS_COMPFS_COMP_LAYER_H_
