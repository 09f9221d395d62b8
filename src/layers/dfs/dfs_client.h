// The DFS client: the remote node's view of an exported file system.
//
// Mounting yields a naming context whose resolutions produce RemoteFile
// objects. A RemoteFile is a full Spring file: local cache managers (the
// node's VMM, or an interposing CFS) bind to it; the client services those
// channels with pager objects that carry page traffic over the DFS
// protocol, and it registers each local cache with the server so the
// server's coherency protocol can recall data from this node (the
// kCbFlushBack / kCbDenyWrites callbacks land here and are forwarded to the
// local cache objects).

#ifndef SPRINGFS_LAYERS_DFS_DFS_CLIENT_H_
#define SPRINGFS_LAYERS_DFS_DFS_CLIENT_H_

#include <atomic>
#include <deque>
#include <map>

#include "src/fs/channel_table.h"
#include "src/layers/dfs/protocol.h"
#include "src/layers/dfs/wire.h"
#include "src/obs/metrics.h"

namespace springfs::dfs {

struct DfsClientOptions {
  // The mount's channel to the server (DESIGN.md §12). Every op rides it,
  // so its RACK/RTO machinery recovers lost frames below the logical
  // retry loop above; channel.max_inflight is ReadPipelined's window.
  net::ChannelOptions channel;

  // Compound open (DESIGN.md §13): resolving a path sends ONE kCompound
  // frame carrying the program lookup -> open -> getattr -> first-page
  // read instead of a bare lookup. When no delegation comes back, the
  // attr and data results prime a close-to-open one-shot cache consumed
  // by the file's first Stat/GetLength and first covered Read.
  bool compound = false;
  // Ask for a read delegation at open (needs `compound`). While it is
  // valid this client serves re-opens, Stat/GetLength, and first-page
  // reads locally with ZERO round trips; the server recalls it through
  // the callback service before any change to the file.
  bool delegations = false;
};

// Client-side handling of transient transport faults: calls that fail with
// kTimedOut / kConnectionLost / kDeadObject are re-sent up to kMaxRetries
// times with capped exponential backoff. Idempotent calls (see
// IsIdempotent) are naturally safe to re-send; mutating calls are stamped
// with a unique Frame::request_id so the server's dedup window replays the
// original response instead of applying the op twice. The backoff sleeps
// on the mount's clock, so tests driving a FakeClock stay deterministic.
//
// One RetryState is the bookkeeping for one client operation. It is
// carried across a kStale handle rebind so the capped exponential backoff
// keeps growing (and the attempt budget keeps shrinking) instead of
// restarting from the base value on the re-resolved handle.
struct RetryState {
  static constexpr uint32_t kMaxRetries = 4;
  // Every DFS retry loop waits 1 ms before its first retry, doubling up to
  // a 50 ms cap.
  static constexpr uint64_t kBackoffBaseNs = 1'000'000;
  static constexpr uint64_t kBackoffMaxNs = 50'000'000;

  uint32_t attempt = 0;
  uint64_t next_backoff_ns = 0;  // 0 = start at kBackoffBaseNs

  // Sleeps the next backoff step on `clock` and counts the attempt.
  void Backoff(Clock* clock);
};

// Process-wide request-id mint: a server's dedup window keys on the id
// alone, so no two requests from any client may share one.
uint64_t NewRequestId();

class RemoteFile;

// The machinery a mount shares with its files and pager objects: the
// channel to the server, the callback service, the server's boot epoch,
// the pager-cache channel table and the server's cache ids for it, and
// the routing of delegation recalls. Files and pager objects own the
// session, never the mount (DfsClient), so a file keeps working after its
// mount is dropped, and the session goes (its callback service with it)
// once neither the mount nor anything from it is held. A striped mount's
// data mounts are sessions of their own.
class DfsSession : public Servant, public metrics::StatsProvider {
 public:
  // Opens the channel to `service` on `server_node` and registers the
  // callback service on `node` (unique per session), without a probe.
  static sp<DfsSession> Connect(const sp<net::Node>& node,
                                net::Network* network,
                                const std::string& server_node,
                                const std::string& service, Clock* clock,
                                const DfsClientOptions& options);
  ~DfsSession() override;

  // --- StatsProvider ---
  std::string stats_prefix() const override { return "layer/dfs_client"; }
  void CollectStats(const metrics::StatsEmitter& emit) const override;

  // Per-session accounting, guarded by stats_mutex_; published via
  // CollectStats.
  struct Stats {
    uint64_t calls_sent = 0;
    uint64_t callbacks_received = 0;
    // Retry accounting for this session's channel to the server.
    uint64_t retries = 0;            // individual re-sends
    uint64_t retry_successes = 0;    // calls that succeeded after >=1 retry
    uint64_t retries_exhausted = 0;  // calls that failed even after retrying
    // Failure-recovery accounting (DESIGN.md §11).
    uint64_t server_restarts = 0;        // boot-epoch bumps observed
    uint64_t channels_invalidated = 0;   // local channels torn down
    uint64_t handle_rebinds = 0;         // stale handles re-resolved by path
    // Compound + delegation accounting (DESIGN.md §13).
    uint64_t compound_opens = 0;      // kCompound frames sent for a resolve
    uint64_t local_opens = 0;         // re-opens served by a held delegation
    uint64_t local_attr_serves = 0;   // Stat/GetLength served locally
    uint64_t local_read_serves = 0;   // reads served from the prefetch
    uint64_t cto_serves = 0;          // one-shot close-to-open cache hits
    uint64_t delegations_held = 0;    // grants installed
    uint64_t deleg_recalls = 0;       // recall callbacks honored
    uint64_t deleg_grant_races = 0;   // grants killed by an earlier recall
  };

  // Locked single-counter increment.
  void Bump(uint64_t Stats::*field);
  uint64_t server_restarts() const;

  const sp<net::Node>& node() const { return node_; }
  const std::string& server_node() const { return server_node_; }
  const std::string& service() const { return service_; }
  const std::string& callback_service() const { return callback_service_; }
  const DfsClientOptions& options() const { return options_; }
  Clock* clock() const { return clock_; }
  // The channel to the server.
  const sp<net::Channel>& channel() const { return channel_; }

  // The last server boot epoch observed (0 until the first response).
  uint64_t observed_server_epoch() const { return server_epoch_.load(); }

  // One RPC to the server (the op is request.type): the one home of the
  // retry, request-id and epoch policy. `retry`, when given, is
  // caller-held state threaded across a kStale rebind so backoff carries
  // over.
  Result<net::Frame> Call(net::Frame request, RetryState* retry = nullptr);
  // The typed form every caller uses: a Req body out, the decoded Resp (or
  // the error Status) back.
  template <class Resp = Empty, class Req>
  Result<Resp> Invoke(Op op, const Req& req, RetryState* retry = nullptr) {
    return Reply<Resp>(Call(RequestFrame(op, req), retry));
  }
  // A handle-carrying call that survives the server forgetting the handle
  // (it restarted): on kStale — or, with `rebind_dead`, on the kDeadObject
  // of a server that is gone — re-resolves `path`, stores the fresh handle
  // in `handle` and re-sends once. The re-send mints a fresh request id
  // (the first attempt definitively did not execute) but keeps the
  // RetryState, so the backoff keeps growing and the attempt budget keeps
  // shrinking.
  template <class Resp = Empty, class Req>
  Result<Resp> InvokeByPath(Op op, const std::string& path,
                            std::atomic<uint64_t>& handle, Req req,
                            bool rebind_dead = false) {
    RetryState retry;
    req.handle = handle.load();
    Result<Resp> reply = Invoke<Resp>(op, req, &retry);
    if (reply.code() != ErrorCode::kStale &&
        !(rebind_dead && reply.code() == ErrorCode::kDeadObject)) {
      return reply;
    }
    ASSIGN_OR_RETURN(req.handle, RebindHandle(path));
    handle.store(req.handle);
    return Invoke<Resp>(op, req, &retry);
  }
  // Re-resolves a path to a fresh handle after the server forgot the old
  // one (kStale across a restart).
  Result<uint64_t> RebindHandle(const std::string& path);

  // Bind support for RemoteFile and the striped client's lanes:
  // establishes the local channel, reports its id in `local_channel` when
  // given, and registers it with the server; returns the cache rights.
  Result<sp<CacheRights>> BindRemote(uint64_t handle,
                                     const sp<CacheManager>& manager,
                                     uint64_t* local_channel = nullptr);
  // The server-side cache id for a local channel.
  Result<uint64_t> ServerCacheIdFor(uint64_t local_channel);
  // Tears a channel down locally, and unbinds it at the server with one
  // kUnbindCache (no retry) while the server still knows it and the node
  // is still on the network.
  void DropChannel(uint64_t local_channel);
  // Tears one channel down locally only (the server already evicted it).
  void InvalidateChannel(uint64_t local_channel);
  // Tears down every local pager-cache channel WITHOUT telling the server,
  // and drops every delegation: cached pages are discarded through the
  // VMM's channel-destroy path (unflushed dirty data is lost — the
  // server's copy is authoritative after an eviction or restart). Called
  // when the session observes a server restart or death.
  void InvalidateCaches();

  // Tracks the boot epoch stamped on a response; an epoch bump means the
  // server restarted — every channel and server cache id is stale.
  void NoteServerEpoch(uint64_t epoch);

  // Files `holder` as the holder of delegation `deleg_id`, for recall
  // routing. False when a recall for the id already came (the grant is
  // dead on arrival).
  bool AdoptDelegation(uint64_t deleg_id, const sp<RemoteFile>& holder);
  // Forgets a delegation the holder dropped (it lapsed).
  void ForgetDelegation(uint64_t deleg_id);

 private:
  DfsSession(const sp<net::Node>& node, net::Network* network,
             std::string server_node, std::string service, Clock* clock,
             const DfsClientOptions& options);

  // Server->client callbacks.
  net::Frame HandleCallback(const net::Frame& request);

  sp<net::Node> node_;
  net::Network* network_;
  std::string server_node_;
  std::string service_;
  std::string callback_service_;
  Clock* clock_;
  DfsClientOptions options_;
  // The channel to the server.
  sp<net::Channel> channel_;

  std::atomic<uint64_t> server_epoch_{0};

  std::mutex mutex_;
  PagerChannelTable channels_;
  std::map<uint64_t, uint64_t> server_cache_ids_;  // local channel -> server
  std::map<uint64_t, uint64_t> pager_keys_;        // handle -> pager key
  // Held delegations, for recall routing (deleg_id -> holder).
  std::map<uint64_t, wp<RemoteFile>> delegations_by_id_;
  // Recalls that raced their grant (bounded; see AdoptDelegation).
  std::deque<uint64_t> unknown_recall_ids_;

  mutable std::mutex stats_mutex_;
  Stats stats_;
};

// The mount: a naming context over the server's name space. It is the
// handle its user holds, and it owns the table of the files it handed out
// (keyed by path), with their delegations and cached attributes, so a file
// its user dropped is re-opened from the table. Dropping the mount and
// everything from it destroys the session.
class DfsClient : public Context,
                  public Fs,
                  public Servant,
                  public metrics::StatsProvider {
 public:
  // Mounts `service` exported by `server_node`. The callback service this
  // client registers on `node` is unique per mount. `clock` paces retry
  // backoff; `options` tunes the retry policy.
  static Result<sp<DfsClient>> Mount(const sp<net::Node>& node,
                                     net::Network* network,
                                     const std::string& server_node,
                                     const std::string& service,
                                     Clock* clock = &DefaultClock(),
                                     const DfsClientOptions& options = {});

  const char* interface_name() const override { return "dfs_client"; }

  // --- Context ---
  Result<sp<Object>> Resolve(const Name& name,
                             const Credentials& creds) override;
  Status Bind(const Name& name, sp<Object> object, const Credentials& creds,
              bool replace = false) override;
  Status Unbind(const Name& name, const Credentials& creds) override;
  Result<std::vector<BindingInfo>> List(const Credentials& creds) override;
  Result<sp<Context>> CreateContext(const Name& name,
                                    const Credentials& creds) override;
  // Lists the server directory `dir` (the root when empty); directories
  // this client hands out are SubContexts listed through here.
  Result<std::vector<BindingInfo>> ListAt(const Name& dir,
                                          const Credentials& creds);

  // --- Fs ---
  Result<FsInfo> GetFsInfo() override;
  Status SyncFs() override;

  // Creates a file on the server and returns its remote view.
  Result<sp<File>> CreateFile(const Name& name, const Credentials& creds);

  // Bulk sequential read: fetches [offset, offset+size) of `path`'s file
  // as per-`chunk_bytes` kRead frames, up to channel.max_inflight of them
  // in flight at once on the mount's channel (Lustre's many outstanding
  // requests per connection); a window of 1 is stop-and-wait. Returns the
  // bytes actually read (short at EOF or when a chunk's transport gave
  // up).
  Result<Buffer> ReadPipelined(const std::string& path, Offset offset,
                               Offset size, size_t chunk_bytes);

  // The last server boot epoch observed (0 until the first response).
  uint64_t observed_server_epoch() const {
    return session_->observed_server_epoch();
  }

  // --- StatsProvider ---
  // The session's counters (the session is the one in the registry).
  std::string stats_prefix() const override {
    return session_->stats_prefix();
  }
  void CollectStats(const metrics::StatsEmitter& emit) const override {
    session_->CollectStats(emit);
  }

  // DfsSession::InvalidateCaches, public as a test probe.
  void InvalidateCaches() { session_->InvalidateCaches(); }

  const sp<DfsSession>& session() const { return session_; }

 private:
  explicit DfsClient(sp<DfsSession> session);

  Result<sp<Object>> ObjectForPath(const Name& name);
  // The file object for `path`, made on first use, with its handle set to
  // `handle`: the server's answer to the lookup or create just made, which
  // may postdate a server restart.
  sp<RemoteFile> FileFor(const std::string& path, uint64_t handle);
  // The compound variant: a delegated cache hit resolves with zero round
  // trips; otherwise one kCompound frame looks up, opens (asking for a
  // delegation when configured), stats, and prefetches the first page.
  Result<sp<Object>> ObjectForPathCompound(const Name& name);

  const sp<DfsSession> session_;

  std::mutex mutex_;
  // Keyed by path, not handle: the server's handle space resets across a
  // restart, and RemoteFile re-resolves its handle by path.
  std::map<std::string, sp<RemoteFile>> remote_files_;
};

}  // namespace springfs::dfs

#endif  // SPRINGFS_LAYERS_DFS_DFS_CLIENT_H_
