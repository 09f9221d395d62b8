// The DFS server: the network-coherent distributed file system layer
// (paper sections 4.2.2 and 6.2, Figures 7 and 9).
//
// "The job of DFS is to export SFS files to other machines in a coherent
// fashion through some existing protocol." The server:
//
//   * stacks on an underlying file system (SFS in the paper) and acts as a
//     *cache manager* for its files (the P2-C2 connection in Figure 7), so
//     local activity on the underlying files triggers coherency callbacks
//     that the server fans out to its remote clients;
//   * serves the DFS protocol (src/layers/dfs/protocol.h) to remote nodes,
//     tracking remote caches with a per-file CoherencyEngine whose cache
//     objects are network proxies;
//   * for *local* clients, "forwards bind operations from local cache
//     managers on file_DFS to the bind operation on file_SFS", so "local
//     accesses to file_DFS use the same cached memory as file_SFS" and
//     "DFS is not involved in local page-in/page-out requests".
//
// The server itself caches no file data: remote page-ins are satisfied
// through its pager channel to the layer below.

#ifndef SPRINGFS_LAYERS_DFS_DFS_SERVER_H_
#define SPRINGFS_LAYERS_DFS_DFS_SERVER_H_

#include <deque>
#include <functional>
#include <map>

#include "src/coherency/engine.h"
#include "src/fs/channel_table.h"
#include "src/fs/file.h"
#include "src/layers/dfs/protocol.h"
#include "src/layers/dfs/wire.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"

namespace springfs::dfs {

// Failure-model knobs (DESIGN.md §11, §13).
struct DfsServerOptions {
  // Holder lease for remote caches: a client not heard from for this long
  // is presumed dead and may be evicted when it conflicts with another
  // client. Simulated nanoseconds on the server's clock. 0 disables leases
  // (callback-failure eviction still applies). Delegations (DESIGN.md §13)
  // use the same duration, but their leases are never renewed: a
  // delegation's expiry is fixed at grant time so the absolute expires_at
  // the client received stays exact.
  uint64_t lease_ns = 30'000'000'000;
  // Grace period after boot during which mutating ops are rejected with a
  // transient kTimedOut. A restarted server cannot know which delegations
  // its predecessor handed out; as long as grace_ns >= the predecessor's
  // lease_ns, every pre-restart delegation has provably expired before the
  // first post-restart mutation can conflict with its local serves.
  // 0 (default) disables the grace period — correct when the server is the
  // first on its node or delegations are not in use.
  uint64_t grace_ns = 0;

  // Striped-cluster role (DESIGN.md §14). When `stripe_targets` is
  // non-empty this server is a *metadata* server: it answers
  // kGetStripeMap with this geometry, lazily creating the per-file stripe
  // objects on the listed data servers. The data servers themselves are
  // plain DfsServers (each over its own backing store) and need no
  // configuration — they just see lookups/creates/page I/O on
  // "stripe-<hash>" names at their root. Empty (default) = single-server
  // DFS;
  // kGetStripeMap answers kInvalidArgument.
  struct StripeTarget {
    std::string node;
    std::string service;
  };
  uint64_t stripe_size = 4 * 4096;  // bytes per stripe unit (page multiple)
  std::vector<StripeTarget> stripe_targets;
  // Replica lanes per stripe (R, clamped to the target count). Replica r
  // of stripe s lives on target (s + r) % width in that server's lane-r
  // object ("<object>-r<r>"), at the same local offset as the primary —
  // the lane-r object on target t is byte-identical to the lane-0 object
  // on target (t - r) % width, which is what makes rebuild a whole-object
  // copy. With R >= 2 a dead data server degrades its stripes (reads fail
  // over to the peer replica, writes skip it and mark it stale) instead of
  // failing them; R = 1 keeps the PR 8 pure-RAID-0 behavior, including
  // "any unreachable target fails the map request".
  uint32_t stripe_replicas = 2;

  // --- telemetry (DESIGN.md §16) ---
  // An op whose server-side dispatch takes at least this long (on the
  // server's clock) lands in the bounded slow-op ring and the flight
  // recorder, so a failing seed shows which *server-side* ops were slow,
  // not just which client calls failed. 0 disables slow-op tracking.
  // Note: simulated worlds run on a FakeClock that only advances when a
  // handler performs nested wire calls, so purely local ops measure 0
  // there — tests that want every op captured set the threshold to 1 and
  // use a real clock, or drive ops with nested calls.
  uint64_t slow_op_threshold_ns = 10'000'000;
};

class DfsServer : public StackableFs,
                  public Servant,
                  public metrics::StatsProvider {
 public:
  // Creates the server on `node`, stacked on `under`, answering protocol
  // requests addressed to `service`. Each server instance gets a fresh
  // boot epoch, stamped on every response, so clients detect a restart.
  static Result<sp<DfsServer>> Create(const sp<net::Node>& node,
                                      net::Network* network,
                                      const std::string& service,
                                      sp<StackableFs> under,
                                      Clock* clock = &DefaultClock(),
                                      const DfsServerOptions& options = {});

  ~DfsServer() override;

  const char* interface_name() const override { return "dfs_server"; }

  // --- Context (the local side, Figure 7) ---
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

  // --- StatsProvider ---
  std::string stats_prefix() const override { return "layer/dfs_server"; }
  void CollectStats(const metrics::StatsEmitter& emit) const override;

  // This instance's boot epoch (stamped on every response frame).
  uint64_t boot_epoch() const { return boot_epoch_; }

  // One over-threshold op as kept in the slow-op ring (DESIGN.md §16).
  // The ring retains the newest kSlowOpRing.
  static constexpr size_t kSlowOpRing = 64;
  struct SlowOp {
    Op op = Op::kLookup;
    uint64_t handle = 0;      // leading body handle; 0 for name-space ops
    uint64_t bytes = 0;       // request body size
    uint64_t elapsed_ns = 0;  // server-clock dispatch time
    uint64_t trace_id = 0;    // the caller's trace, for cross-referencing
    uint64_t at_ns = 0;       // server clock when the op finished
  };

  // Snapshot of the slow-op ring, oldest first.
  std::vector<SlowOp> SlowOps() const;

  // Diagnostic probes for tests: per-file coherency invariants and the sum
  // of every file engine's stats.
  bool CheckCoherencyInvariants();
  CoherencyStats AggregateCoherencyStats();

  // One pass of the background rebuild daemon (metadata role): for every
  // striped file with stale replica targets, re-syncs each stale target's
  // lane objects from a fresh peer (whole-object copy — the lane-r object
  // on target t is byte-identical to the lane-r' object on target
  // (t - r + r') % width) and clears the mark under a bumped, persisted
  // map version. Returns the number of stale targets brought back fresh.
  // Deterministic and idempotent, so tests and embedders drive it
  // explicitly; it assumes the rebuilt files are quiesced (writes racing
  // the copy can be missed — DESIGN.md §15).
  Result<size_t> RunRebuildPass();

 private:
  friend class DfsLocalFile;
  friend class DfsLowerCacheObject;

  // Protocol accounting, guarded by stats_mutex_; published via
  // CollectStats.
  struct Stats {
    uint64_t remote_lookups = 0;
    uint64_t remote_page_ins = 0;
    uint64_t remote_range_page_ins = 0;  // batched kPageInRange round trips
    uint64_t remote_page_outs = 0;
    uint64_t remote_reads = 0;
    uint64_t remote_writes = 0;
    uint64_t callbacks_sent = 0;
    uint64_t callback_rounds = 0;  // rounds that sent at least one callback
    uint64_t lower_flushes = 0;  // coherency callbacks received from below
    uint64_t dedup_hits = 0;     // retransmissions answered from the window
    uint64_t stale_fenced = 0;   // page I/O rejected from evicted cache ids
    uint64_t compounds = 0;      // kCompound frames served
    uint64_t compound_sub_ops = 0;  // sub-ops executed inside compounds
    uint64_t delegations_granted = 0;
    uint64_t delegations_recalled = 0;  // recalled for a change
    uint64_t delegations_expired = 0;   // lapsed without a recall
    uint64_t grace_rejects = 0;  // mutations bounced during the boot grace
    uint64_t stripe_maps_served = 0;  // kGetStripeMap replies (metadata role)
    uint64_t stripe_objects_created = 0;  // stripe objects ensured on data
                                          // servers (first map of a file)
    uint64_t stripe_replicas_marked_stale = 0;  // staleness marks applied
    uint64_t stripe_stale_reports = 0;  // kReportStaleReplica frames served
    uint64_t stripe_rebuilds = 0;       // stale targets re-synced + cleared
    uint64_t stripe_rebuild_bytes = 0;  // bytes copied by rebuild passes
    uint64_t slow_ops = 0;              // ops over slow_op_threshold_ns
    uint64_t health_scrapes = 0;        // kGetHealth frames served
    uint64_t stats_scrapes = 0;         // kGetStats frames served
  };

  void NoteLowerFlush();

  // A read delegation (DESIGN.md §13): where its recall goes, and its
  // absolute expiry, fixed at the grant and never renewed.
  struct Delegation {
    std::string node;
    std::string service;
    uint64_t expires_at = 0;
  };

  struct ServerFile {
    uint64_t handle = 0;
    std::string path;
    sp<File> under;
    bool bound_below = false;
    sp<PagerObject> lower_pager;
    sp<FsPagerObject> lower_fs_pager;
    // The remote page caches, each a RemoteCacheProxy registered under a
    // cache id that is never reused.
    CoherencyEngine engine;
    uint64_t next_cache_id = 1;
    // Read delegations by deleg_id, which is never reused either.
    std::map<uint64_t, Delegation> delegations;
    // Serializes this file's bind below; taken before `mutex`, and never by
    // the lower cache object.
    std::mutex bind_mutex;
    std::mutex mutex;
  };

  DfsServer(const sp<net::Node>& node, net::Network* network,
            std::string service, sp<StackableFs> under, Clock* clock,
            const DfsServerOptions& options);

  // Protocol dispatch. Handle() wraps Dispatch() with the mutating-request
  // dedup window and stamps the boot epoch on every response. Compound
  // sub-ops re-enter through Dispatch(), so they share the per-op handlers
  // (and the grace-period check) but not the dedup window — the compound
  // frame as a whole is the dedup unit.
  net::Frame Handle(const net::Frame& request);
  // The dedup-window + dispatch body of Handle(); the wrapper adds per-op
  // latency accounting and slow-op detection around it.
  net::Frame HandleFrame(Op op, const net::Frame& request,
                         trace::ScopedSpan& span);
  // Records `request` in the slow-op ring + flight recorder when its
  // dispatch time crossed options_.slow_op_threshold_ns.
  void NoteSlowOp(Op op, const net::Frame& request, uint64_t elapsed_ns);
  net::Frame Dispatch(Op op, const net::Frame& request);
  // Serves a handle-carrying op: decodes its Req body, resolves the
  // handle (kStale when unknown) and answers with handler(req, file).
  template <class Req, class Handler>
  net::Frame ServeFile(const net::Frame& request, Handler&& handler);
  net::Frame HandleNameOp(Op op, const net::Frame& request);
  net::Frame HandleFileOp(Op op, const net::Frame& request);

  // Typed per-op handlers.
  CompoundResponse HandleCompound(const CompoundRequest& req);
  Result<OpenResponse> HandleOpen(const OpenRequest& req,
                                  const sp<ServerFile>& file);
  Result<StripeMapResponse> HandleGetStripeMap(const HandleRequest& req);
  Result<StripeMapResponse> HandleReportStale(const ReportStaleRequest& req);
  GetStatsResponse HandleGetStats();
  HealthResponse HandleGetHealth();
  // kSetTimes / kSetLength: recall the delegations, apply, and invalidate
  // the remote attribute caches.
  Status SetAttr(const sp<ServerFile>& file,
                 const std::function<Status()>& apply);
  // kRead / kWrite prologue: one callback round that recalls the
  // delegations before a write and pulls the range's dirty pages back from
  // the remote caches.
  Status PrepareWholeFileIo(const sp<ServerFile>& file, Range range,
                            AccessRights access);
  // kPageIn / kPageInRange: the pages of `req`'s range (clamped at EOF for
  // kPageInRange, where no data means zero-fill) under the remote cache's
  // coherency claim.
  Result<Buffer> PageInForRemote(Op op, PageInRequest& req,
                                 const sp<ServerFile>& file);
  // kPageOut / kWriteOut / kSyncPages.
  Status PageOutFromRemote(Op op, const PageOutRequest& req);

  // --- striped metadata role (DESIGN.md §15) ---

  // Per-file replica staleness + map version, cached in memory and
  // persisted in a sidecar file on the metadata store (so a restarted MDS
  // re-derives it and the version stays monotonic).
  struct StripeState {
    uint64_t version = 1;
    std::vector<bool> stale;  // by target index
  };

  // Effective replica count: stripe_replicas clamped to [1, width].
  uint32_t StripeReplicaCount() const;

  // Loads `path`'s stripe state (memory cache -> sidecar -> default);
  // `stale` is sized to the target count.
  StripeState LoadStripeState(const std::string& path);
  // Persists + caches `state` for `path`. Best-effort: a failed sidecar
  // write keeps the in-memory state authoritative for this boot.
  void StoreStripeState(const std::string& path, const StripeState& state);
  // Walks the metadata store's staleness sidecars and caches every file's
  // stripe state, so a cold incumbent's view (rebuild pass, kGetHealth) is
  // complete without waiting for client traffic. Local reads only.
  void LoadAllSidecarStates();
  // Marks target `t` stale for `path` unless it is the last fresh target
  // (a cluster cannot serve from zero fresh replicas). Returns true when
  // the state changed (mark applied + version bumped + persisted).
  bool MarkReplicaStale(const std::string& path, size_t t);

  // A typed call to one data server.
  template <class Resp = Empty, class Req>
  Result<Resp> CallTarget(const DfsServerOptions::StripeTarget& target, Op op,
                          const Req& req);

  // The lookup -> create -> re-lookup ladder ensuring one stripe object on
  // one data server; returns its current handle.
  Result<uint64_t> EnsureStripeObject(
      const DfsServerOptions::StripeTarget& target, const std::string& name);

  // Builds the full stripe map for `file`, ensuring every target's lane
  // objects. With R >= 2 an unreachable target is marked stale and served
  // with zero handles instead of failing the map.
  Result<StripeMapResponse> BuildStripeMap(const sp<ServerFile>& file);

  // Re-syncs every lane object of stale target `t` from a fresh peer.
  Status RebuildTarget(const std::string& object_name, size_t t,
                       const StripeState& state);

  // True while mutating ops are rejected after boot (options_.grace_ns).
  bool InGracePeriod() const;

  // Sends server->client callbacks as one round (Network::CallAll) and
  // returns their answers in order. An empty round sends nothing.
  std::vector<Result<net::Frame>> SendCallbacks(
      std::span<const net::CallTo> calls);

  // One callback round for an access to `file` (DESIGN.md §13): collects
  // every holder it conflicts with — every delegation when `access` writes
  // (a delegation is a read claim, so no read recalls one), and the page
  // holders of `range` other than `requester` — sends all their callbacks
  // together, drops the delegations recalled, and grants the access in the
  // page engine. Returns the dirty blocks the answering holders handed
  // over, also when the round failed; the caller pushes them below
  // (PushRecovered) or returns them to it. An empty `range` recalls only
  // delegations. `file.mutex` held.
  CoherencyEngine::Recovered RecallRound(ServerFile& file, uint64_t requester,
                                         Range range, AccessRights access);
  // A delegations-only round for a change that touches no cached page
  // (attributes, a remove). Takes file.mutex itself.
  Status RecallDelegations(ServerFile& file);

  // Drops the delegations whose lease lapsed; `file.mutex` held.
  void DropLapsedDelegations(ServerFile& file);
  // Drops one delegation, counted as expired or recalled; `file.mutex`
  // held. Returns the next one.
  std::map<uint64_t, Delegation>::iterator DropDelegation(
      ServerFile& file, std::map<uint64_t, Delegation>::iterator it,
      bool expired);

  Result<sp<ServerFile>> FileForPath(const std::string& path);
  Result<sp<ServerFile>> FileForHandle(uint64_t handle);
  Status EnsureBoundBelow(const sp<ServerFile>& file);

  // Pushes the dirty blocks a round recovered from remote caches down to
  // the layer below, even when the round failed, then returns the round's
  // verdict; `file.mutex` held.
  Status PushRecovered(ServerFile& file,
                       const CoherencyEngine::Recovered& recovered);

  // Sends an attribute invalidation to every remote fs_cache in one round;
  // file.mutex held.
  Status BroadcastAttrInvalidate(ServerFile& file);

  sp<net::Node> node_;
  net::Network* network_;
  std::string service_;
  Clock* clock_;
  DfsServerOptions options_;
  uint64_t boot_epoch_;
  uint64_t boot_time_ = 0;  // clock at construction, for the grace period
  sp<StackableFs> under_;

  std::mutex mutex_;
  std::map<uint64_t, sp<ServerFile>> files_by_handle_;
  std::map<std::string, uint64_t> handles_by_path_;
  uint64_t next_handle_ = 1;

  // Bounded dedup window: request_id -> original response, FIFO-evicted.
  // Retransmissions of mutating ops replay the stored response instead of
  // re-executing (exactly-once within this boot epoch).
  std::mutex dedup_mutex_;
  std::map<uint64_t, net::Frame> dedup_;
  std::deque<uint64_t> dedup_order_;

  // Striped metadata role: per-file staleness state by path (see
  // StripeState). Guarded by stripe_mutex_; never held across a wire call.
  std::mutex stripe_mutex_;
  std::map<std::string, StripeState> stripe_states_;

  mutable std::mutex stats_mutex_;
  Stats stats_;

  // Bounded slow-op ring (DESIGN.md §16), oldest evicted first.
  mutable std::mutex slow_mutex_;
  std::deque<SlowOp> slow_ops_;
};

}  // namespace springfs::dfs

#endif  // SPRINGFS_LAYERS_DFS_DFS_SERVER_H_
