#include "src/layers/dfs/striped_client.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <set>

#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/support/logging.h"

namespace springfs::dfs {
namespace {

// Failed rounds of a mutating fan-out before the client reports a
// still-unreachable replica target stale to the metadata server (so the
// write can complete degraded on the surviving replicas). The first failed
// round is always retried plainly — one lost frame should not degrade the
// cluster.
constexpr uint32_t kDegradeAfterRounds = 2;

bool TransientCode(ErrorCode code) {
  return code == ErrorCode::kTimedOut || code == ErrorCode::kConnectionLost;
}

bool StaleCode(ErrorCode code) {
  return code == ErrorCode::kStale || code == ErrorCode::kDeadObject;
}

}  // namespace

uint64_t StripeRequestIdTable::IdFor(size_t extent, size_t target,
                                     bool* retargeted) {
  if (retargeted != nullptr) {
    *retargeted = false;
  }
  auto it = ids_.find({extent, target});
  if (it != ids_.end()) {
    return it->second;
  }
  if (retargeted != nullptr) {
    for (const auto& [key, id] : ids_) {
      (void)id;
      if (key.first == extent) {
        *retargeted = true;
        break;
      }
    }
  }
  uint64_t id = NewRequestId();
  ids_.emplace(std::make_pair(extent, target), id);
  return id;
}

// ---- striping math (RAID-0) -----------------------------------------------

std::vector<StripeExtent> ComputeStripeExtents(uint64_t offset, uint64_t size,
                                               uint64_t stripe_size,
                                               size_t width) {
  std::vector<StripeExtent> out;
  if (size == 0 || stripe_size == 0 || width == 0) {
    return out;
  }
  uint64_t end = offset + size;
  for (uint64_t s = offset / stripe_size; s * stripe_size < end; ++s) {
    uint64_t log_start = std::max(offset, s * stripe_size);
    uint64_t log_end = std::min(end, (s + 1) * stripe_size);
    StripeExtent ext;
    ext.target = static_cast<size_t>(s % width);
    ext.logical_offset = log_start;
    ext.local_offset = (s / width) * stripe_size + (log_start - s * stripe_size);
    ext.size = log_end - log_start;
    out.push_back(ext);
  }
  return out;
}

uint64_t LocalLengthFor(size_t target, uint64_t length, uint64_t stripe_size,
                        size_t width) {
  if (length == 0 || stripe_size == 0 || width == 0) {
    return 0;
  }
  uint64_t s_last = (length - 1) / stripe_size;
  if (s_last < target) {
    return 0;  // the file ends before this target's first stripe
  }
  // Highest stripe owned by `target` at or below s_last.
  uint64_t s_own = s_last - ((s_last - target) % width);
  uint64_t stripe_end = std::min(length, (s_own + 1) * stripe_size);
  return (s_own / width) * stripe_size + (stripe_end - s_own * stripe_size);
}

// ---- the striped session ----------------------------------------------------

// What a striped mount's files share: the metadata mount's session, one
// plain session per data server, the serialization of data-path fan-outs
// and the counters. The files own it; it owns no file, and its data
// mounts' channel tables refer to the files' lane caches without owning
// them.
class StripedSession : public metrics::StatsProvider {
 public:
  StripedSession(const sp<net::Node>& node, net::Network* network,
                 Clock* clock, const StripedDfsClientOptions& options,
                 sp<DfsSession> meta)
      : node_(node), network_(network), clock_(clock), options_(options),
        meta_(std::move(meta)) {
    metrics::Registry::Global().RegisterProvider(this);
  }
  ~StripedSession() override {
    metrics::Registry::Global().UnregisterProvider(this);
  }
  StripedSession(const StripedSession&) = delete;
  StripedSession& operator=(const StripedSession&) = delete;

  // --- StatsProvider ---
  std::string stats_prefix() const override { return "layer/striped_client"; }
  void CollectStats(const metrics::StatsEmitter& emit) const override;

  struct Stats {
    uint64_t map_fetches = 0;      // kGetStripeMap round trips
    uint64_t stripe_reads = 0;     // logical read fan-outs
    uint64_t stripe_writes = 0;    // logical write fan-outs
    uint64_t stripe_extents = 0;   // data-path submissions (all ops)
    uint64_t stripe_rebinds = 0;   // per-stripe recoveries after kStale /
                                   // epoch bump (a refetched map's fresh
                                   // handle, or a cache rebind)
    uint64_t data_retries = 0;     // extent re-submissions
    uint64_t retries_exhausted = 0;
    uint64_t recalls_received = 0;  // data-server coherency callbacks
    uint64_t zero_fills = 0;        // sparse stripe holes served as zeros
    uint64_t replica_failovers = 0;  // reads served by a non-primary replica
    uint64_t degraded_writes = 0;    // write extents completed on fewer
                                     // than R replicas (stale ones skipped)
    uint64_t stale_reports = 0;      // kReportStaleReplica frames sent
    uint64_t maps_fenced = 0;        // refreshed maps older than the one
                                     // held (version fence)
    uint64_t retarget_fresh_ids = 0;  // dedup ids re-minted because an
                                      // extent moved to a different replica
  };

  void Bump(uint64_t Stats::*field) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++(stats_.*field);
  }

  // The plain mount of data server `target`, shared by every file
  // (connected on first use, without Mount's probe, over
  // options_.data_channel).
  sp<DfsSession> DataMount(const StripeMapResponse::Target& target);

  const sp<net::Node> node_;
  net::Network* const network_;
  Clock* const clock_;
  const StripedDfsClientOptions options_;
  const sp<DfsSession> meta_;

  // Serializes data-path fan-outs: the data mounts' channels are drained
  // with net::WaitAnyOf, so two concurrent fan-outs on a shared channel
  // would steal each other's completions. The parallelism that matters —
  // the overlapping round trips ACROSS data servers inside one fan-out —
  // is unaffected.
  std::mutex data_io_mutex_;

  mutable std::mutex mutex_;
  // By (node, service).
  std::map<std::pair<std::string, std::string>, sp<DfsSession>> data_mounts_;

  mutable std::mutex stats_mutex_;
  Stats stats_;
};

// ---- the striped remote file ----------------------------------------------

// A logical file whose pages live RAID-0 across N data servers. Reads and
// writes fan one frame per stripe extent out over the per-server channels;
// the metadata server is only consulted for attributes, length pushes, and
// map refreshes after a per-stripe failure.
class StripedRemoteFile : public File, public Servant {
 public:
  StripedRemoteFile(sp<Domain> domain, sp<StripedSession> session,
                    std::string path, uint64_t meta_handle,
                    StripeMapResponse map)
      : Servant(std::move(domain)), session_(std::move(session)),
        path_(std::move(path)), meta_handle_(meta_handle),
        map_(std::move(map)), logical_length_(map_.length) {
    map_.replicas = std::max<uint32_t>(map_.replicas, 1);
    bindings_.assign(map_.targets.size() * map_.replicas, Binding{});
    for (size_t t = 0; t < map_.targets.size(); ++t) {
      for (size_t lane = 0; lane < map_.replicas; ++lane) {
        bindings_[t * map_.replicas + lane].handle =
            lane < map_.targets[t].lane_handles.size()
                ? map_.targets[t].lane_handles[lane]
                : 0;
      }
    }
  }

  const char* interface_name() const override { return "striped_file"; }

  // --- MemoryObject ---

  Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                               AccessRights) override;

  Result<Offset> GetLength() override {
    return InDomain([&]() -> Result<Offset> {
      ASSIGN_OR_RETURN(
          GetLengthResponse body,
          MetaCall<GetLengthResponse>(Op::kGetLength, HandleRequest{}));
      std::lock_guard<std::mutex> lock(mutex_);
      logical_length_ = body.length;
      return Offset{body.length};
    });
  }

  Status SetLength(Offset length) override;

  // --- File ---

  Result<size_t> Read(Offset offset, MutableByteSpan out) override;
  Result<size_t> Write(Offset offset, ByteSpan data) override;

  Result<FileAttributes> Stat() override {
    return InDomain([&]() -> Result<FileAttributes> {
      ASSIGN_OR_RETURN(
          GetAttrResponse body,
          MetaCall<GetAttrResponse>(Op::kGetAttr, HandleRequest{}));
      std::lock_guard<std::mutex> lock(mutex_);
      logical_length_ = body.attrs.size;
      return body.attrs;
    });
  }

  Status SetTimes(uint64_t atime_ns, uint64_t mtime_ns) override {
    return InDomain([&]() -> Status {
      return MetaCall(Op::kSetTimes, SetTimesRequest{.atime_ns = atime_ns,
                                                     .mtime_ns = mtime_ns})
          .status();
    });
  }

  Status SyncFile() override;

 private:
  friend class StripedPagerObject;
  friend class LaneCache;

  // A metadata-path call under this file's metadata handle, with one
  // handle rebind on kStale or kDeadObject (the metadata server restarted,
  // or died before its successor took the service, and forgot the
  // handle). Because
  // stripe maps are derived from durable state (content-addressed object
  // names + the persisted staleness sidecar), this rebind is all an MDS
  // failover needs client-side.
  //
  // Every op but the two reads and the commit itself may change state the
  // metadata server owns and commits only on a SyncFile (length, times),
  // so it marks the metadata dirty once it has returned, whatever its
  // status; SyncFile commits the metadata server only while it is
  // marked. The mark comes after the call, not before: a commit that
  // cleared an earlier mark could reach the server ahead of a delayed or
  // retried send, and a SyncFile owes a commit only to the ops that
  // returned before it began.
  template <class Resp = Empty, class Req>
  Result<Resp> MetaCall(Op op, Req req) {
    Result<Resp> done = session_->meta_->InvokeByPath<Resp>(
        op, path_, meta_handle_, std::move(req), /*rebind_dead=*/true);
    if (op != Op::kGetAttr && op != Op::kGetLength && op != Op::kSyncFile) {
      meta_dirty_.store(true);
    }
    return done;
  }

  // Per-(target, lane) client state: the lane object's handle from the
  // map, plus the cache registration for page traffic: the lane's channel
  // at its data server's mount and the server's cache id for it. Indexed
  // target * replicas + lane in `bindings_`.
  struct Binding {
    uint64_t handle = 0;
    uint64_t cache_id = 0;  // 0 = no cache registered
    uint64_t channel = 0;   // the registration's channel at the data mount
    bool rebound_pending = false;  // a failure killed the previous binding
  };

  // An immutable per-round view of the stripe map, taken so one fan-out
  // round plans against a single consistent geometry while refreshes land
  // between rounds.
  struct MapSnapshot {
    uint64_t stripe_size = 0;
    uint64_t map_version = 0;
    uint32_t replicas = 1;
    std::vector<StripeMapResponse::Target> targets;
  };

  using BuildFrame =
      std::function<net::Frame(const StripeExtent&, const Binding&)>;
  using ConsumeFrame =
      std::function<Status(const StripeExtent&, const net::Frame&)>;

  // The fan-out engine: submits one frame per pending (extent, replica)
  // on the owning target's data mount's channel through a net::FanOut,
  // which queues past a full window and drains all the targets' channels
  // together in event-time order, hands each reply's boot epoch to that
  // mount, and retries failed sub-ops (with a map refresh + rebind when a
  // target went stale) under the client's backoff budget.
  //
  // Replica r of an extent whose primary is target p goes to target
  // (p + r) % width, lane-r object, at the extent's (unchanged) local
  // offset. `fan_all` sends every fresh replica and completes the extent
  // when all of them acked (mutating fans and SyncFile); otherwise one
  // fresh replica serves the extent, failing over within the round when
  // it cannot (reads). `mutating` mints one dedup request id per
  // (extent, target) — reused across retries so a duplicate never applies
  // twice within a server boot, re-minted when a map refresh moves the
  // extent to a different server. `bind_caches` establishes the per-lane
  // cache registration first (page ops carry cache ids; byte ops do not).
  //
  // Degraded completion: a mutating fan about to skip a stale replica
  // confirms the skip with the metadata server first (kReportStaleReplica,
  // version-fenced) so a target a rebuild just revived rejoins the plan
  // instead of silently missing the write; targets that keep failing are
  // reported stale after kDegradeAfterRounds rounds, letting the write
  // complete on the surviving replicas.
  Status FanExtents(const std::vector<StripeExtent>& exts, bool mutating,
                    bool bind_caches, bool fan_all, const BuildFrame& build,
                    const ConsumeFrame& consume);

  MapSnapshot SnapshotMap();

  // The pager's fault path: one kPageInRange per stripe extent of the
  // page-aligned logical range [offset, offset + dest.size()), under the
  // lanes' cache registrations. `dest` has been pre-zeroed (sparse
  // stripe holes and post-EOF tails read as zeros).
  Status FanPageInto(uint64_t offset, MutableByteSpan dest,
                     AccessRights access);

  // Fan page write-back (kPageOut / kWriteOut / kSyncPages).
  Status FanPageWrite(Op op, uint64_t offset, ByteSpan data);

  // Ensures (target, lane)'s cache registration: binds a LaneCache through
  // the target's data mount.
  Status EnsureBound(size_t target, size_t lane, Binding* out);

  // Re-fetches the stripe map from the metadata server (re-resolving the
  // meta handle if the metadata server itself restarted) and installs it.
  Status RefreshMap();

  // Reports `target` stale to the metadata server, stamped with the map
  // version the decision to skip it was made under (the server ignores
  // reports from maps older than its state — the reporter re-plans from
  // the returned fresh map instead), and installs the map that comes back.
  Status ReportStale(size_t target, uint64_t map_version);

  // Installs a fetched map: resets bindings whose lane handle changed and
  // adopts the new geometry. Maps older than the one held are dropped
  // (the version fence) — a raced refresh must not resurrect replicas
  // that have since been marked stale.
  Status InstallMap(StripeMapResponse fresh);

  // Marks (target, lane)'s binding dead and invalidates its channel at the
  // data mount, whose LaneCache then drops the local page caches: a
  // data-server restart or lease eviction means the server may have served
  // conflicting access while we were gone, so locally cached pages cannot
  // be trusted.
  void InvalidateBinding(size_t target, size_t lane);
  // A LaneCache's DestroyCache: forgets (target, lane)'s binding if it is
  // still on `channel`, and drops the local page caches.
  void ForgetBinding(size_t target, size_t lane, uint64_t channel);

  void DropLocalChannels();
  void DropLocalChannel(uint64_t local_id);

  // Pushes the logical length to the metadata server (data-path writes
  // extend stripe objects locally; the logical length is metadata).
  Status MetaSetLength(uint64_t length);

  // Serves a data server's recall against this client's page caches:
  // translates the (target, lane) object's local range to the logical
  // stripes it covers, flushes/downgrades them in every local cache, and
  // translates the dirty blocks back to local coordinates for the
  // response. Lane r of target t holds the stripes whose primary is
  // target (t - r) % width, so local stripe i maps to logical stripe
  // i * width + (t - r) % width.
  CbRecallResponse RecallLocal(Op op, Range local, size_t target,
                               size_t lane);

  sp<StripedSession> session_;
  std::string path_;
  std::atomic<uint64_t> meta_handle_;
  // Set by MetaCall, cleared by SyncFile's commit of the metadata server.
  // A new object starts dirty: it cannot know what the calls that created
  // or opened the file left uncommitted.
  std::atomic<bool> meta_dirty_{true};
  // Held across SyncFile's metadata commit, so a SyncFile that finds the
  // metadata clean returns only after a commit in flight has answered.
  std::mutex meta_sync_mutex_;

  std::mutex mutex_;  // never held across a wire call
  StripeMapResponse map_;
  uint64_t logical_length_ = 0;
  std::vector<Binding> bindings_;
  uint64_t pager_key_ = 0;  // minted on first local Bind
  PagerChannelTable local_channels_;
  // Our end of each lane's channel at its data mount, by binding index:
  // owned here, so they close with the file. One a failure made stale
  // stays until EnsureBound replaces it.
  std::map<size_t, sp<OneChannelManager>> lane_channels_;
};

// Pager for one local channel of a striped file: faults fan-read across
// the stripe owners; write-back fans kPageOut the same way.
class StripedPagerObject : public PagerObject, public Servant {
 public:
  StripedPagerObject(sp<Domain> domain, sp<StripedRemoteFile> file,
                     uint64_t local_channel)
      : Servant(std::move(domain)), file_(std::move(file)),
        local_channel_(local_channel) {}

  Result<Buffer> PageIn(Offset offset, Offset size,
                        AccessRights access) override {
    return InDomain([&]() -> Result<Buffer> {
      trace::ScopedSpan span("dfs.stripe_page_in");
      Buffer out;
      out.resize(size);  // zero-filled; stripe holes stay zero
      RETURN_IF_ERROR(file_->FanPageInto(offset, out.mutable_span(), access));
      return out;
    });
  }
  Status PageOut(Offset offset, ByteSpan data) override {
    return InDomain([&] { return file_->FanPageWrite(Op::kPageOut, offset,
                                                     data); });
  }
  Status WriteOut(Offset offset, ByteSpan data) override {
    return InDomain([&] { return file_->FanPageWrite(Op::kWriteOut, offset,
                                                     data); });
  }
  Status Sync(Offset offset, ByteSpan data) override {
    return InDomain([&] { return file_->FanPageWrite(Op::kSyncPages, offset,
                                                     data); });
  }
  void DoneWithPagerObject() override {
    InDomain([&] { file_->DropLocalChannel(local_channel_); });
  }

 private:
  sp<StripedRemoteFile> file_;
  uint64_t local_channel_;
};

// The cache of one (target, lane) object at this client. It binds through
// the target's data mount like any cache below, so that server's recalls
// of the lane, and its restarts, reach the file through the mount. Its
// pages are the file's local caches' pages.
// The cache of one (target, lane) object at this client. It binds through
// the target's data mount like any cache below, so that server's recalls
// of the lane, and its restarts, reach the file through the mount. Its
// pages are the file's local caches' pages. The file owns it (through its
// lane channel), so it refers to the file weakly.
class LaneCache : public CacheObject {
 public:
  LaneCache(wp<StripedRemoteFile> file, size_t target, size_t lane)
      : file_(std::move(file)), target_(target), lane_(lane) {}

  Result<std::vector<BlockData>> FlushBack(Range range) override {
    return Recall(Op::kCbFlushBack, range);
  }
  Result<std::vector<BlockData>> DenyWrites(Range range) override {
    return Recall(Op::kCbDenyWrites, range);
  }
  Result<std::vector<BlockData>> WriteBack(Range) override {
    return std::vector<BlockData>{};
  }
  Status DeleteRange(Range) override { return Status::Ok(); }
  Status ZeroFill(Range) override { return Status::Ok(); }
  Status Populate(Offset, AccessRights, ByteSpan) override {
    return Status::Ok();
  }
  Status DestroyCache() override {
    if (sp<StripedRemoteFile> file = file_.lock()) {
      file->ForgetBinding(target_, lane_, channel.load());
    }
    return Status::Ok();
  }

  // The channel this cache is bound on at the data mount, once bound.
  std::atomic<uint64_t> channel{0};

 private:
  std::vector<BlockData> Recall(Op op, Range range) {
    sp<StripedRemoteFile> file = file_.lock();
    if (!file) {
      return {};
    }
    return std::move(file->RecallLocal(op, range, target_, lane_).blocks);
  }

  wp<StripedRemoteFile> file_;
  size_t target_;
  size_t lane_;
};

Result<sp<CacheRights>> StripedRemoteFile::Bind(const sp<CacheManager>& caller,
                                                AccessRights) {
  return InDomain([&]() -> Result<sp<CacheRights>> {
    uint64_t pager_key;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (pager_key_ == 0) {
        pager_key_ = NewPagerKey();
      }
      pager_key = pager_key_;
    }
    sp<StripedRemoteFile> self =
        std::dynamic_pointer_cast<StripedRemoteFile>(shared_from_this());
    // The table is per-file, so any constant file id works.
    return local_channels_.Bind(
        /*file_id=*/1, pager_key, caller,
        [&](uint64_t local_id) -> sp<PagerObject> {
          return std::make_shared<StripedPagerObject>(domain(), self, local_id);
        });
  });
}

StripedRemoteFile::MapSnapshot StripedRemoteFile::SnapshotMap() {
  std::lock_guard<std::mutex> lock(mutex_);
  MapSnapshot snap;
  snap.stripe_size = map_.stripe_size;
  snap.map_version = map_.map_version;
  snap.replicas = map_.replicas;
  snap.targets = map_.targets;
  return snap;
}

Status StripedRemoteFile::FanExtents(const std::vector<StripeExtent>& exts,
                                     bool mutating, bool bind_caches,
                                     bool fan_all, const BuildFrame& build,
                                     const ConsumeFrame& consume) {
  if (exts.empty()) {
    return Status::Ok();
  }
  trace::ScopedSpan span("dfs.stripe_fanout");
  std::lock_guard<std::mutex> io_lock(session_->data_io_mutex_);
  StripeRequestIdTable ids;
  std::vector<bool> done(exts.size(), false);
  // fan_all bookkeeping: the targets that acked each extent, kept across
  // rounds so a retry only re-sends the replicas still missing.
  std::vector<std::set<size_t>> acked(exts.size());
  // Targets this fan-out already reported stale (one report per target).
  std::set<size_t> reported;
  RetryState retry;

  for (;;) {
    bool map_stale = false;
    Status failure = Status::Ok();
    std::set<size_t> failed_targets;

    MapSnapshot snap = SnapshotMap();
    size_t width = snap.targets.size();

    // A mutating fan about to skip a stale replica confirms the skip with
    // the metadata server first: if a rebuild revived the target since
    // this map was fetched, the fresh map comes back, the target rejoins
    // the plan below, and the write reaches it. Without this a write
    // issued under the older map would silently miss the revived replica.
    // When client and server agree the report is a convergent no-op.
    if (mutating && snap.replicas > 1) {
      bool replanned = false;
      for (size_t i = 0; i < exts.size(); ++i) {
        if (done[i]) {
          continue;
        }
        for (size_t r = 0; r < snap.replicas; ++r) {
          size_t t = ReplicaTarget(exts[i].target, r, width);
          if (snap.targets[t].stale && !reported.count(t)) {
            reported.insert(t);
            if (ReportStale(t, snap.map_version).ok()) {
              replanned = true;
            }
          }
        }
      }
      if (replanned) {
        snap = SnapshotMap();
        width = snap.targets.size();
      }
    }

    // Each target's data mount, looked up once per round.
    std::vector<sp<DfsSession>> mounts(width);
    auto mount_for = [&](size_t t) -> DfsSession& {
      if (!mounts[t]) {
        mounts[t] = session_->DataMount(snap.targets[t]);
      }
      return *mounts[t];
    };

    auto eligible = [&](size_t t, size_t lane) {
      return !snap.targets[t].stale &&
             lane < snap.targets[t].lane_handles.size() &&
             snap.targets[t].lane_handles[lane] != 0;
    };

    // Bindings for the (target, lane) pairs this round touches, bound
    // lazily at first submission (the cache registration is a wire call;
    // byte ops skip it).
    std::map<std::pair<size_t, size_t>, Binding> bound;
    auto binding_for = [&](size_t t, size_t lane, Binding* out) -> Status {
      auto it = bound.find({t, lane});
      if (it != bound.end()) {
        *out = it->second;
        return Status::Ok();
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        size_t idx = t * map_.replicas + lane;
        if (idx >= bindings_.size()) {
          return ErrTimedOut("stripe binding out of range");
        }
        *out = bindings_[idx];
      }
      if (bind_caches && out->cache_id == 0) {
        RETURN_IF_ERROR(EnsureBound(t, lane, out));
      }
      if (out->handle == 0) {
        return ErrTimedOut("replica lane has no handle in the current map");
      }
      bound[{t, lane}] = *out;
      return Status::Ok();
    };

    // One sub-op: extent `ext` sent to replica lane `lane` on target
    // `target`. Its index in `subs` is its owner id in `fan`.
    struct SubRef {
      size_t ext = 0;
      size_t target = 0;
      size_t lane = 0;
    };
    std::vector<SubRef> subs;
    net::FanOut fan;

    auto note_failure = [&](size_t t, const Status& st) {
      failed_targets.insert(t);
      failure = st;
    };

    // Submits extent i's replica lane r; false when the bind failed.
    auto submit = [&](size_t i, size_t r) -> bool {
      size_t t = ReplicaTarget(exts[i].target, r, width);
      Binding b;
      Status st = binding_for(t, r, &b);
      if (!st.ok()) {
        if (StaleCode(st.code())) {
          InvalidateBinding(t, r);
          map_stale = true;
        }
        note_failure(t, st);
        return false;
      }
      net::Frame frame = build(exts[i], b);
      if (mutating) {
        bool retargeted = false;
        frame.request_id = ids.IdFor(i, t, &retargeted);
        if (retargeted) {
          session_->Bump(&StripedSession::Stats::retarget_fresh_ids);
        }
      }
      subs.push_back(SubRef{i, t, r});
      fan.Submit(mount_for(t).channel(), frame, subs.size() - 1,
                 retry.attempt);
      session_->Bump(&StripedSession::Stats::stripe_extents);
      return true;
    };

    // Replica lanes of each extent already tried (and failed) this round
    // — drives the single-replica (read) in-round failover.
    std::vector<std::set<size_t>> tried(exts.size());

    // Submits a single-replica extent to its first untried fresh replica;
    // false when none is left this round.
    auto submit_single = [&](size_t i) -> bool {
      for (size_t r = 0; r < snap.replicas; ++r) {
        size_t t = ReplicaTarget(exts[i].target, r, width);
        if (!eligible(t, r) || tried[i].count(r)) {
          continue;
        }
        if (submit(i, r)) {
          return true;
        }
        tried[i].insert(r);
      }
      return false;
    };

    for (size_t i = 0; i < exts.size(); ++i) {
      if (done[i]) {
        continue;
      }
      if (fan_all) {
        size_t eligible_count = 0;
        for (size_t r = 0; r < snap.replicas; ++r) {
          size_t t = ReplicaTarget(exts[i].target, r, width);
          if (!eligible(t, r)) {
            continue;
          }
          ++eligible_count;
          if (!acked[i].count(t)) {
            submit(i, r);  // bind failures recorded inside
          }
        }
        if (eligible_count == 0) {
          failure = ErrTimedOut("no fresh replica for a stripe extent");
          map_stale = true;  // a newer map may hold a handle for it
        }
      } else if (!submit_single(i)) {
        if (failure.ok()) {
          failure = ErrTimedOut("no fresh replica for a stripe extent");
        }
        map_stale = true;
      }
    }

    // Drain every target's channel together, in event-time order: each
    // data server handles its frames as they arrive and the round trips
    // to different servers overlap, as on separate links.
    while (std::optional<net::FanOut::Finished> finished = fan.Next()) {
      SubRef ref = subs[finished->owner];  // a copy: failover grows `subs`
      const net::Completion& got = finished->completion;
      bool ok = false;
      Status st = got.status;
      if (st.ok()) {
        DfsSession& mount = mount_for(ref.target);
        mount.NoteServerEpoch(got.response.epoch);
        st = got.response.ToStatus();
        if (StaleCode(st.code())) {
          // The data server restarted (or evicted us): its handle space
          // and cache ids are fresh. Refetch the map and rebind the lane.
          InvalidateBinding(ref.target, ref.lane);
          map_stale = true;
        } else if (!st.ok() && !TransientCode(st.code())) {
          return st;  // hard application error: fail the whole operation
        } else if (st.ok()) {
          if (bind_caches &&
              !mount.ServerCacheIdFor(bound[{ref.target, ref.lane}].channel)
                   .ok()) {
            // The mount dropped the registration this op ran under: the
            // server restarted between our bind and this response.
            InvalidateBinding(ref.target, ref.lane);
            map_stale = true;
            st = ErrStale("data server restarted under the binding");
          } else {
            ok = true;
          }
        }
      }
      if (ok) {
        Status used = consume(exts[ref.ext], got.response);
        if (!used.ok()) {
          return used;
        }
        if (fan_all) {
          acked[ref.ext].insert(ref.target);
        } else {
          done[ref.ext] = true;
          if (ref.lane > 0) {
            session_->Bump(&StripedSession::Stats::replica_failovers);
          }
        }
        continue;
      }
      note_failure(ref.target, st);
      if (!fan_all && !done[ref.ext]) {
        // Per-extent failover: go straight for the next fresh replica —
        // a dead primary degrades the read without waiting out a backoff.
        tried[ref.ext].insert(ref.lane);
        (void)submit_single(ref.ext);
      }
    }

    if (fan_all) {
      // An extent completes when every fresh replica acked it; completing
      // on fewer than R replicas is a degraded write (the stale ones will
      // catch up via rebuild).
      for (size_t i = 0; i < exts.size(); ++i) {
        if (done[i]) {
          continue;
        }
        size_t eligible_count = 0;
        size_t have = 0;
        for (size_t r = 0; r < snap.replicas; ++r) {
          size_t t = ReplicaTarget(exts[i].target, r, width);
          if (!eligible(t, r)) {
            continue;
          }
          ++eligible_count;
          if (acked[i].count(t)) {
            ++have;
          }
        }
        if (eligible_count > 0 && have == eligible_count) {
          done[i] = true;
          if (mutating && eligible_count < snap.replicas) {
            session_->Bump(&StripedSession::Stats::degraded_writes);
          }
        }
      }
    }
    if (std::all_of(done.begin(), done.end(), [](bool d) { return d; })) {
      if (map_stale) {
        // Completed despite a stale binding (a read failed over): refresh
        // now so the NEXT fan-out plans around the dead target instead of
        // re-discovering it.
        (void)RefreshMap();
      }
      return Status::Ok();
    }
    if (retry.attempt >= RetryState::kMaxRetries) {
      session_->Bump(&StripedSession::Stats::retries_exhausted);
      flight::Record(flight::Severity::kError, "dfs_striped",
                     "fan-out retries exhausted", exts.size(), retry.attempt);
      return failure.ok() ? ErrTimedOut("striped fan-out gave up") : failure;
    }
    retry.Backoff(session_->clock_);
    session_->Bump(&StripedSession::Stats::data_retries);
    flight::Record(flight::Severity::kInfo, "dfs_striped", "fan-out retry",
                   retry.attempt, map_stale ? 1 : 0);
    if (map_stale) {
      // Best effort: a failed refresh leaves the stale bindings in place
      // and the remaining attempts keep trying.
      (void)RefreshMap();
    } else if (mutating && snap.replicas > 1 &&
               retry.attempt >= kDegradeAfterRounds) {
      // Targets that failed plain retries get reported stale so the write
      // can complete degraded; the MDS refuses to strand a stripe's last
      // fresh replica, so an outage of every copy keeps retrying instead.
      for (size_t t : failed_targets) {
        if (!reported.count(t)) {
          reported.insert(t);
          (void)ReportStale(t, snap.map_version);
        }
      }
    }
  }
}

Status StripedRemoteFile::EnsureBound(size_t target, size_t lane,
                                      Binding* out) {
  StripeMapResponse::Target where;
  uint64_t handle;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t idx = target * map_.replicas + lane;
    if (idx >= bindings_.size()) {
      return ErrTimedOut("stripe binding out of range");
    }
    Binding& b = bindings_[idx];
    if (b.cache_id != 0) {
      *out = b;
      return Status::Ok();
    }
    where = map_.targets[target];
    handle = b.handle;
  }
  if (handle == 0) {
    return ErrTimedOut("replica lane has no handle in the current map");
  }
  sp<DfsSession> mount = session_->DataMount(where);
  auto cache = std::make_shared<LaneCache>(
      std::dynamic_pointer_cast<StripedRemoteFile>(shared_from_this()),
      target, lane);
  // Our end of the lane's channel: a failed bind closes it on return, and
  // the one it replaces closes out of mutex_ below.
  auto lane_channel =
      std::make_shared<OneChannelManager>(cache, handle, "striped_client");
  uint64_t channel = 0;
  RETURN_IF_ERROR(mount->BindRemote(handle, lane_channel, &channel).status());
  ASSIGN_OR_RETURN(uint64_t cache_id, mount->ServerCacheIdFor(channel));
  cache->channel = channel;
  std::lock_guard<std::mutex> lock(mutex_);
  size_t idx = target * map_.replicas + lane;
  if (idx >= bindings_.size()) {
    return ErrTimedOut("stripe binding out of range");
  }
  std::swap(lane_channels_[idx], lane_channel);
  Binding& b = bindings_[idx];
  b.cache_id = cache_id;
  b.channel = channel;
  if (b.rebound_pending) {
    b.rebound_pending = false;
    session_->Bump(&StripedSession::Stats::stripe_rebinds);
    flight::Record(flight::Severity::kInfo, "dfs_striped", "stripe rebound",
                   target, mount->observed_server_epoch());
  }
  *out = b;
  return Status::Ok();
}

Status StripedRemoteFile::RefreshMap() {
  ASSIGN_OR_RETURN(
      StripeMapResponse fresh,
      MetaCall<StripeMapResponse>(Op::kGetStripeMap, HandleRequest{}));
  return InstallMap(std::move(fresh));
}

Status StripedRemoteFile::ReportStale(size_t target, uint64_t map_version) {
  session_->Bump(&StripedSession::Stats::stale_reports);
  ASSIGN_OR_RETURN(
      StripeMapResponse fresh,
      MetaCall<StripeMapResponse>(
          Op::kReportStaleReplica,
          ReportStaleRequest{.target = static_cast<uint32_t>(target),
                             .map_version = map_version}));
  return InstallMap(std::move(fresh));
}

Status StripedRemoteFile::InstallMap(StripeMapResponse fresh) {
  session_->Bump(&StripedSession::Stats::map_fetches);
  fresh.replicas = std::max<uint32_t>(fresh.replicas, 1);
  std::lock_guard<std::mutex> lock(mutex_);
  if (fresh.map_version < map_.map_version) {
    // The version fence: a raced or replayed older map must not resurrect
    // replicas that have since been marked stale.
    session_->Bump(&StripedSession::Stats::maps_fenced);
    return Status::Ok();
  }
  if (fresh.targets.size() != map_.targets.size() ||
      fresh.replicas != map_.replicas ||
      bindings_.size() != fresh.targets.size() * fresh.replicas) {
    // Geometry is fixed per metadata-server configuration; a different
    // width or replication factor means the file was recreated under a
    // different topology.
    bindings_.assign(fresh.targets.size() * fresh.replicas, Binding{});
  }
  for (size_t t = 0; t < fresh.targets.size(); ++t) {
    for (size_t lane = 0; lane < fresh.replicas; ++lane) {
      uint64_t handle = lane < fresh.targets[t].lane_handles.size()
                            ? fresh.targets[t].lane_handles[lane]
                            : 0;
      Binding& b = bindings_[t * fresh.replicas + lane];
      if (b.handle != handle) {
        b.handle = handle;
        b.cache_id = 0;  // minted by an instance that is gone
        b.channel = 0;
        if (b.rebound_pending && handle != 0) {
          // The stripe recovered: byte ops (kRead / kWrite) need only the
          // fresh handle, and mapped I/O re-registers its cache on the
          // next fault (EnsureBound).
          b.rebound_pending = false;
          session_->Bump(&StripedSession::Stats::stripe_rebinds);
          flight::Record(flight::Severity::kInfo, "dfs_striped",
                         "stripe rebound", t, fresh.map_version);
        }
      }
    }
  }
  map_ = std::move(fresh);
  logical_length_ = std::max(logical_length_, map_.length);
  return Status::Ok();
}

void StripedRemoteFile::InvalidateBinding(size_t target, size_t lane) {
  uint64_t channel = 0;
  StripeMapResponse::Target where;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t idx = target * map_.replicas + lane;
    if (idx >= bindings_.size()) {
      return;
    }
    Binding& b = bindings_[idx];
    channel = std::exchange(b.channel, 0);
    b.cache_id = 0;
    b.rebound_pending = true;
    where = map_.targets[target];
  }
  if (channel != 0) {
    // The server may have granted conflicting access while the binding was
    // dead (our lease expired with it): the channel's LaneCache drops the
    // local page caches — of ANY stripe, since they are per file.
    session_->DataMount(where)->InvalidateChannel(channel);
  }
}

void StripedRemoteFile::ForgetBinding(size_t target, size_t lane,
                                      uint64_t channel) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t idx = target * map_.replicas + lane;
    if (idx < bindings_.size() && channel != 0 &&
        bindings_[idx].channel == channel) {
      bindings_[idx].cache_id = 0;
      bindings_[idx].channel = 0;
      bindings_[idx].rebound_pending = true;
    }
  }
  DropLocalChannels();
}

void StripedRemoteFile::DropLocalChannels() {
  for (const auto& ch : local_channels_.AllChannels()) {
    if (ch.cache) {
      (void)ch.cache->DestroyCache();
    }
    local_channels_.RemoveChannel(ch.local_id);
  }
}

void StripedRemoteFile::DropLocalChannel(uint64_t local_id) {
  local_channels_.RemoveChannel(local_id);
}

Status StripedRemoteFile::MetaSetLength(uint64_t length) {
  return MetaCall(Op::kSetLength, SetLengthRequest{.length = length}).status();
}

Status StripedRemoteFile::FanPageInto(uint64_t offset, MutableByteSpan dest,
                                      AccessRights access) {
  uint64_t stripe_size;
  size_t width;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stripe_size = map_.stripe_size;
    width = map_.targets.size();
  }
  std::vector<StripeExtent> exts =
      ComputeStripeExtents(offset, dest.size(), stripe_size, width);
  bool write_access = access == AccessRights::kReadWrite;
  return FanExtents(
      exts, /*mutating=*/false, /*bind_caches=*/true, /*fan_all=*/false,
      [&](const StripeExtent& ext, const Binding& b) {
        return RequestFrame(Op::kPageInRange,
                            PageInRequest{b.handle, b.cache_id,
                                          ext.local_offset, ext.size,
                                          write_access});
      },
      [&](const StripeExtent& ext, const net::Frame& response) -> Status {
        ASSIGN_OR_RETURN(PageInRangeResponse body,
                         Reply<PageInRangeResponse>(response));
        if (body.blocks.empty()) {
          // Past the stripe object's EOF: the pre-zeroed destination is
          // the right answer (a stripe hole or the logical tail).
          session_->Bump(&StripedSession::Stats::zero_fills);
          return Status::Ok();
        }
        for (const BlockData& block : body.blocks) {
          if (block.offset < ext.local_offset ||
              block.offset - ext.local_offset + block.data.size() >
                  ext.size) {
            return ErrCorrupted("page-in block outside its stripe extent");
          }
          std::memcpy(dest.data() + (ext.logical_offset - offset) +
                          (block.offset - ext.local_offset),
                      block.data.data(), block.data.size());
        }
        return Status::Ok();
      });
}

Status StripedRemoteFile::FanPageWrite(Op op, uint64_t offset, ByteSpan data) {
  uint64_t stripe_size;
  size_t width;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stripe_size = map_.stripe_size;
    width = map_.targets.size();
  }
  std::vector<StripeExtent> exts =
      ComputeStripeExtents(offset, data.size(), stripe_size, width);
  RETURN_IF_ERROR(FanExtents(
      exts, /*mutating=*/true, /*bind_caches=*/true, /*fan_all=*/true,
      [&](const StripeExtent& ext, const Binding& b) {
        return RequestFrame(
            op, PageOutRequest{b.handle, b.cache_id, ext.local_offset,
                               Buffer(data.subspan(ext.logical_offset - offset,
                                                   ext.size))});
      },
      [](const StripeExtent&, const net::Frame&) { return Status::Ok(); }));
  // Mapped write-back can extend the file (a CFS above us may push pages
  // past the old EOF); keep the logical length metadata-owned.
  uint64_t end = offset + data.size();
  bool extend;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    extend = end > logical_length_;
  }
  if (extend && op != Op::kSyncPages) {
    RETURN_IF_ERROR(MetaSetLength(end));
    std::lock_guard<std::mutex> lock(mutex_);
    logical_length_ = std::max(logical_length_, end);
  }
  return Status::Ok();
}

Result<size_t> StripedRemoteFile::Read(Offset offset, MutableByteSpan out) {
  return InDomain([&]() -> Result<size_t> {
    uint64_t length;
    uint64_t stripe_size;
    size_t width;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      length = logical_length_;
      stripe_size = map_.stripe_size;
      width = map_.targets.size();
    }
    if (out.empty() || offset >= length) {
      return size_t{0};
    }
    size_t n = static_cast<size_t>(
        std::min<uint64_t>(out.size(), length - offset));
    MutableByteSpan dest = out.first(n);
    // Pre-zeroed: sparse stripe holes and post-EOF tails read as zeros.
    std::fill(dest.begin(), dest.end(), uint8_t{0});
    session_->Bump(&StripedSession::Stats::stripe_reads);
    std::vector<StripeExtent> exts =
        ComputeStripeExtents(offset, n, stripe_size, width);
    // Byte ops, like Write: the data server serves each kRead as its own
    // cache and registers no holder for this client, so later writes to
    // the stripe recall nothing here. Only VMM faults (FanPageInto) bind.
    RETURN_IF_ERROR(FanExtents(
        exts, /*mutating=*/false, /*bind_caches=*/false, /*fan_all=*/false,
        [](const StripeExtent& ext, const Binding& b) {
          return RequestFrame(Op::kRead, ReadRequest{b.handle, ext.local_offset,
                                                     ext.size});
        },
        [&](const StripeExtent& ext, const net::Frame& response) -> Status {
          ASSIGN_OR_RETURN(ReadResponse body, Reply<ReadResponse>(response));
          size_t got = std::min<size_t>(body.data.size(), ext.size);
          // copy_n, not memcpy: an empty reply's buffer may be null.
          std::copy_n(body.data.data(), got,
                      dest.data() + (ext.logical_offset - offset));
          if (got < ext.size) {
            // Short: a stripe hole or the logical tail past the stripe
            // object's EOF; the pre-zeroed destination is the answer.
            session_->Bump(&StripedSession::Stats::zero_fills);
          }
          return Status::Ok();
        }));
    return n;
  });
}

Result<size_t> StripedRemoteFile::Write(Offset offset, ByteSpan data) {
  return InDomain([&]() -> Result<size_t> {
    if (data.empty()) {
      return size_t{0};
    }
    uint64_t stripe_size;
    size_t width;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stripe_size = map_.stripe_size;
      width = map_.targets.size();
    }
    session_->Bump(&StripedSession::Stats::stripe_writes);
    std::vector<StripeExtent> exts =
        ComputeStripeExtents(offset, data.size(), stripe_size, width);
    RETURN_IF_ERROR(FanExtents(
        exts, /*mutating=*/true, /*bind_caches=*/false, /*fan_all=*/true,
        [&](const StripeExtent& ext, const Binding& b) {
          return RequestFrame(
              Op::kWrite,
              WriteRequest{b.handle, ext.local_offset,
                           Buffer(data.subspan(ext.logical_offset - offset,
                                               ext.size))});
        },
        [](const StripeExtent&, const net::Frame& response) -> Status {
          return Reply<WriteResponse>(response).status();
        }));
    uint64_t end = offset + data.size();
    bool extend;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      extend = end > logical_length_;
    }
    if (extend) {
      RETURN_IF_ERROR(MetaSetLength(end));
      std::lock_guard<std::mutex> lock(mutex_);
      logical_length_ = std::max(logical_length_, end);
    }
    return data.size();
  });
}

Status StripedRemoteFile::SetLength(Offset length) {
  return InDomain([&]() -> Status {
    RETURN_IF_ERROR(MetaSetLength(length));
    uint64_t stripe_size;
    size_t width;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stripe_size = map_.stripe_size;
      width = map_.targets.size();
    }
    // One kSetLength per target, as a degenerate one-extent-per-target fan.
    std::vector<StripeExtent> per_target(width);
    for (size_t k = 0; k < width; ++k) {
      per_target[k].target = k;
    }
    RETURN_IF_ERROR(FanExtents(
        per_target, /*mutating=*/true, /*bind_caches=*/false,
        /*fan_all=*/true,
        [&](const StripeExtent& ext, const Binding& b) {
          return RequestFrame(
              Op::kSetLength,
              SetLengthRequest{b.handle, LocalLengthFor(ext.target, length,
                                                        stripe_size, width)});
        },
        [](const StripeExtent&, const net::Frame&) { return Status::Ok(); }));
    std::lock_guard<std::mutex> lock(mutex_);
    logical_length_ = length;
    return Status::Ok();
  });
}

Status StripedRemoteFile::SyncFile() {
  return InDomain([&]() -> Status {
    size_t width;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      width = map_.targets.size();
    }
    std::vector<StripeExtent> per_target(width);
    for (size_t k = 0; k < width; ++k) {
      per_target[k].target = k;
    }
    RETURN_IF_ERROR(FanExtents(
        per_target, /*mutating=*/false, /*bind_caches=*/false,
        /*fan_all=*/true,
        [&](const StripeExtent&, const Binding& b) {
          return RequestFrame(Op::kSyncFile, HandleRequest{b.handle});
        },
        [](const StripeExtent&, const net::Frame&) { return Status::Ok(); }));
    // The mark is cleared before the commit is sent. Every op that marked
    // it had returned, so the server applied it before this commit
    // arrives; an op that returns later marks it again for the next
    // SyncFile, and a failed commit restores it.
    std::lock_guard<std::mutex> lock(meta_sync_mutex_);
    if (!meta_dirty_.exchange(false)) {
      return Status::Ok();
    }
    Status synced = MetaCall(Op::kSyncFile, HandleRequest{}).status();
    if (!synced.ok()) {
      meta_dirty_.store(true);
    }
    return synced;
  });
}

CbRecallResponse StripedRemoteFile::RecallLocal(Op op, Range local,
                                                size_t target, size_t lane) {
  session_->Bump(&StripedSession::Stats::recalls_received);
  uint64_t stripe_size;
  size_t width;
  uint64_t length;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stripe_size = map_.stripe_size;
    width = map_.targets.size();
    length = logical_length_;
  }
  CbRecallResponse out;
  if (stripe_size == 0 || width == 0 || target >= width) {
    return out;
  }
  // The lane-`lane` object on `target` mirrors the primary object of this
  // base target; its stripes are the base target's stripes.
  size_t base = PrimaryTarget(target, lane, width);
  std::vector<PagerChannelTable::Channel> channels =
      local_channels_.AllChannels();
  // Bound the recall by the object's share of the file; Range::All() and
  // other huge ranges saturate instead of wrapping.
  uint64_t local_len = LocalLengthFor(base, PageCeil(length), stripe_size,
                                      width);
  uint64_t lo = std::min<uint64_t>(local.offset, local_len);
  uint64_t hi = std::min<uint64_t>(local.end(), local_len);
  for (uint64_t i = lo / stripe_size; i * stripe_size < hi; ++i) {
    uint64_t seg_lo = std::max(lo, i * stripe_size);
    uint64_t seg_hi = std::min(hi, (i + 1) * stripe_size);
    if (seg_lo >= seg_hi) {
      continue;
    }
    // Local stripe i of base target k is logical stripe i * width + k.
    uint64_t s = i * width + base;
    Range logical{s * stripe_size + (seg_lo - i * stripe_size),
                  seg_hi - seg_lo};
    for (const auto& ch : channels) {
      if (!ch.cache) {
        continue;
      }
      Result<std::vector<BlockData>> dirty =
          op == Op::kCbFlushBack ? ch.cache->FlushBack(logical)
                                 : ch.cache->DenyWrites(logical);
      if (!dirty.ok()) {
        continue;
      }
      for (BlockData& block : *dirty) {
        BlockData translated;
        translated.offset =
            i * stripe_size + (block.offset - s * stripe_size);
        translated.data = std::move(block.data);
        out.blocks.push_back(std::move(translated));
      }
    }
  }
  return out;
}

// ---- the striped client ----------------------------------------------------

Result<sp<StripedDfsClient>> StripedDfsClient::Mount(
    const sp<net::Node>& node, net::Network* network,
    const std::string& server_node, const std::string& service, Clock* clock,
    const StripedDfsClientOptions& options) {
  // The metadata path is a full plain mount: naming, attrs, retry/backoff,
  // and the single-server fallback all come from it.
  ASSIGN_OR_RETURN(
      sp<DfsClient> meta,
      DfsClient::Mount(node, network, server_node, service, clock));
  auto session = std::make_shared<StripedSession>(node, network, clock,
                                                  options, meta->session());
  return sp<StripedDfsClient>(
      new StripedDfsClient(std::move(meta), std::move(session)));
}

StripedDfsClient::StripedDfsClient(sp<DfsClient> meta,
                                   sp<StripedSession> session)
    : Servant(meta->domain()), meta_(std::move(meta)),
      session_(std::move(session)) {}

sp<DfsSession> StripedSession::DataMount(
    const StripeMapResponse::Target& target) {
  std::pair<std::string, std::string> key{target.node, target.service};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = data_mounts_.find(key); it != data_mounts_.end()) {
      return it->second;
    }
  }
  // Connected outside mutex_: a mount registers with the metrics registry,
  // whose Collect holds its lock across CollectStats, which takes mutex_.
  DfsClientOptions mount_options;
  mount_options.channel = options_.data_channel;
  sp<DfsSession> mount = DfsSession::Connect(
      node_, network_, target.node, target.service, clock_, mount_options);
  std::lock_guard<std::mutex> lock(mutex_);
  return data_mounts_.try_emplace(key, mount).first->second;
}

Result<sp<File>> StripedDfsClient::OpenStriped(const std::string& path) {
  return InDomain([&]() -> Result<sp<File>> {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = files_.find(path);
      if (it != files_.end()) {
        return sp<File>(it->second);
      }
    }
    ASSIGN_OR_RETURN(LookupResponse looked,
                     session_->meta_->Invoke<LookupResponse>(
                         Op::kLookup, PathRequest{path}));
    if (looked.is_dir) {
      return ErrWrongType("'" + path + "' is a directory");
    }
    return OpenWithHandle(path, looked.handle);
  });
}

Result<sp<File>> StripedDfsClient::CreateStriped(const std::string& path) {
  return InDomain([&]() -> Result<sp<File>> {
    ASSIGN_OR_RETURN(CreateResponse created,
                     session_->meta_->Invoke<CreateResponse>(
                         Op::kCreate, PathRequest{path}));
    return OpenWithHandle(path, created.handle);
  });
}

Result<sp<File>> StripedDfsClient::OpenWithHandle(const std::string& path,
                                                  uint64_t handle) {
  std::atomic<uint64_t> h{handle};
  // A non-striped server answers kInvalidArgument — propagated so callers
  // can fall back to meta()'s single-server file.
  ASSIGN_OR_RETURN(StripeMapResponse map,
                   session_->meta_->InvokeByPath<StripeMapResponse>(
                       Op::kGetStripeMap, path, h, HandleRequest{},
                       /*rebind_dead=*/true));
  if (map.targets.empty() || map.stripe_size == 0) {
    return ErrCorrupted("stripe map without targets");
  }
  session_->Bump(&StripedSession::Stats::map_fetches);
  auto file = std::make_shared<StripedRemoteFile>(domain(), session_, path,
                                                  h.load(), std::move(map));
  std::lock_guard<std::mutex> lock(mutex_);
  files_[path] = file;
  return sp<File>(file);
}

void StripedDfsClient::CollectStats(const metrics::StatsEmitter& emit) const {
  session_->CollectStats(emit);
}

void StripedSession::CollectStats(const metrics::StatsEmitter& emit) const {
  Stats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
  }
  emit("map_fetches", snapshot.map_fetches);
  emit("stripe_reads", snapshot.stripe_reads);
  emit("stripe_writes", snapshot.stripe_writes);
  emit("stripe_extents", snapshot.stripe_extents);
  emit("stripe_rebinds", snapshot.stripe_rebinds);
  emit("data_retries", snapshot.data_retries);
  emit("retries_exhausted", snapshot.retries_exhausted);
  emit("recalls_received", snapshot.recalls_received);
  emit("zero_fills", snapshot.zero_fills);
  emit("replica_failovers", snapshot.replica_failovers);
  emit("degraded_writes", snapshot.degraded_writes);
  emit("stale_reports", snapshot.stale_reports);
  emit("maps_fenced", snapshot.maps_fenced);
  emit("retarget_fresh_ids", snapshot.retarget_fresh_ids);
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t restarts = 0;  // the boot-epoch bumps the data mounts saw
  for (const auto& [where, mount] : data_mounts_) {
    restarts += mount->server_restarts();
  }
  emit("target_restarts", restarts);
}

}  // namespace springfs::dfs
