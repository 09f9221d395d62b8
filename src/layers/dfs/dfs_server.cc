#include "src/layers/dfs/dfs_server.h"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/support/logging.h"

namespace springfs::dfs {
namespace {

class DfsCacheRights : public CacheRights {
 public:
  explicit DfsCacheRights(uint64_t id) : id_(id) {}
  uint64_t channel_id() const override { return id_; }

 private:
  uint64_t id_;
};

net::Frame OkFrame() { return net::Frame{}; }

net::Frame StatusFrame(const Status& st) {
  if (st.ok()) {
    return OkFrame();
  }
  net::Frame frame = net::Frame::Error(st.code());
  frame.payload = Buffer(st.message());
  return frame;
}

// Monotonic boot-epoch source shared by every server instance in the
// process: a restarted server (new DfsServer on the same node/service)
// necessarily gets a larger epoch than its predecessor.
uint64_t NextBootEpoch() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

// Delegation ids are process-global and never reused, so an id minted by a
// restarted server can never collide with one its predecessor handed out.
uint64_t NextDelegId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

// Durable name of a file's per-data-server stripe object, derived from the
// metadata path with FNV-1a so it stays stable across metadata- and
// data-server restarts. Every data server holds the object under the same
// name; what differs per server is which stripes of the file it stores.
std::string StripeObjectName(const std::string& path) {
  uint64_t h = Fnv1a64(
      ByteSpan(reinterpret_cast<const uint8_t*>(path.data()), path.size()));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "stripe-%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// Ops that modify server state — rejected during the post-boot grace
// period and counted toward the dedup-window policy.
bool IsMutating(Op op) {
  switch (op) {
    case Op::kCreate:
    case Op::kMkdir:
    case Op::kRemove:
    case Op::kWrite:
    case Op::kSetTimes:
    case Op::kSetLength:
    case Op::kPageOut:
    case Op::kWriteOut:
    case Op::kSyncPages:
      return true;
    default:
      return false;
  }
}

// Every handle-carrying request struct puts its handle in the first 8
// bytes of the body (see wire.h), so the compound executor can substitute
// the current-handle register with a fixed-offset patch.
bool CarriesLeadingHandle(Op op) {
  switch (op) {
    case Op::kLookup:
    case Op::kCreate:
    case Op::kMkdir:
    case Op::kRemove:
    case Op::kReadDir:
    case Op::kCompound:
    case Op::kGetStats:
    case Op::kGetHealth:
      return false;
    default:
      return static_cast<uint32_t>(op) < 100;  // callbacks excluded
  }
}

// Lazily-created per-op server metrics: "dfs/op/<name>.calls" and
// "dfs/op/<name>.latency_ns" in the process registry. Keyed by op, not by
// server instance — like the registry itself, the histograms aggregate
// across every server in the process.
metrics::OpMetric& OpMetricFor(Op op) {
  static std::mutex mutex;
  static auto* by_op = new std::map<uint32_t, metrics::OpMetric>();
  std::lock_guard<std::mutex> lock(mutex);
  auto it = by_op->find(static_cast<uint32_t>(op));
  if (it == by_op->end()) {
    it = by_op->emplace(static_cast<uint32_t>(op),
                        metrics::OpMetric(std::string("dfs/op/") +
                                          OpName(op))).first;
  }
  return it->second;
}

}  // namespace

// Converts a Status error into an error frame from inside a handler.
#define RETURN_FRAME_IF_ERROR(expr)     \
  do {                                  \
    ::springfs::Status _st = (expr);    \
    if (!_st.ok()) {                    \
      return StatusFrame(_st);          \
    }                                   \
  } while (0)

// A remote client cache, reachable only through the DFS protocol. The
// server's per-file CoherencyEngine treats it like any cache object.
class RemoteCacheProxy : public FsCacheObject {
 public:
  RemoteCacheProxy(DfsServer* server, std::string client_node,
                   std::string client_service, uint64_t client_channel)
      : server_(server), client_node_(std::move(client_node)),
        client_service_(std::move(client_service)),
        client_channel_(client_channel) {}

  Result<std::vector<BlockData>> FlushBack(Range range) override {
    return Callback(Op::kCbFlushBack, range);
  }
  Result<std::vector<BlockData>> DenyWrites(Range range) override {
    return Callback(Op::kCbDenyWrites, range);
  }
  Result<std::vector<BlockData>> WriteBack(Range range) override {
    // Flush-and-return is the only recall primitive the wire protocol
    // needs; write_back (retain in place) degrades to it safely.
    return Callback(Op::kCbFlushBack, range);
  }
  Status DeleteRange(Range range) override {
    return Callback(Op::kCbFlushBack, range).status();
  }
  Status ZeroFill(Range range) override {
    return Callback(Op::kCbFlushBack, range).status();
  }
  Status Populate(Offset, AccessRights, ByteSpan) override {
    return ErrNotSupported("populate over the DFS protocol");
  }
  Status DestroyCache() override {
    return Callback(Op::kCbFlushBack, Range::All()).status();
  }

  Status InvalidateAttributes() override {
    CbAttrInvalidateRequest body;
    body.client_channel = client_channel_;
    net::Frame request;
    request.type = static_cast<uint32_t>(Op::kCbAttrInvalidate);
    request.payload = body.Encode();
    ASSIGN_OR_RETURN(net::Frame response, server_->SendCallback(
                                              client_node_, client_service_,
                                              request));
    return response.ToStatus();
  }
  Result<AttrUpdate> RecallAttributes() override { return AttrUpdate{}; }

 private:
  Result<std::vector<BlockData>> Callback(Op op, Range range) {
    trace::ScopedSpan span("dfs.callback");
    CbRecallRequest body;
    body.client_channel = client_channel_;
    body.offset = range.offset;
    body.size = range.size;
    net::Frame request;
    request.type = static_cast<uint32_t>(op);
    request.payload = body.Encode();
    ASSIGN_OR_RETURN(net::Frame response, server_->SendCallback(
                                              client_node_, client_service_,
                                              request));
    RETURN_IF_ERROR(response.ToStatus());
    ASSIGN_OR_RETURN(CbRecallResponse resp,
                     CbRecallResponse::Decode(response.payload.span()));
    return resp.blocks;
  }

  DfsServer* server_;
  std::string client_node_;
  std::string client_service_;
  uint64_t client_channel_;
};

// A delegation holder as seen by the per-file deleg_engine. A "recall"
// here is one kCbRecallDeleg round trip; the response doubles as the
// return and may carry attr writes the holder buffered under a write
// delegation. Those are stashed (NOT applied inline — the engine runs
// callbacks under file->mutex, and SetTimes can re-enter the lower
// coherency path which takes the same lock) and applied by the server
// after the locked section.
class DelegationProxy : public FsCacheObject {
 public:
  DelegationProxy(DfsServer* server, std::string client_node,
                  std::string client_service, uint64_t deleg_id)
      : server_(server), client_node_(std::move(client_node)),
        client_service_(std::move(client_service)), deleg_id_(deleg_id) {}

  void set_incarnation(uint64_t incarnation) { incarnation_ = incarnation; }

  std::optional<std::pair<uint64_t, uint64_t>> TakeDirtyTimes() {
    std::lock_guard<std::mutex> lock(mutex_);
    auto times = dirty_times_;
    dirty_times_.reset();
    return times;
  }

  Result<std::vector<BlockData>> FlushBack(Range) override { return Recall(); }
  Result<std::vector<BlockData>> DenyWrites(Range) override {
    return Recall();
  }
  Result<std::vector<BlockData>> WriteBack(Range) override { return Recall(); }
  Status DeleteRange(Range) override { return Recall().status(); }
  Status ZeroFill(Range) override { return Recall().status(); }
  Status Populate(Offset, AccessRights, ByteSpan) override {
    return ErrNotSupported("populate on a delegation");
  }
  Status DestroyCache() override { return Recall().status(); }
  Status InvalidateAttributes() override { return Status::Ok(); }
  Result<AttrUpdate> RecallAttributes() override { return AttrUpdate{}; }

 private:
  Result<std::vector<BlockData>> Recall() {
    trace::ScopedSpan span("dfs.recall_deleg");
    CbRecallDelegRequest body;
    body.deleg_id = deleg_id_;
    body.incarnation = incarnation_;
    net::Frame request;
    request.type = static_cast<uint32_t>(Op::kCbRecallDeleg);
    request.payload = body.Encode();
    ASSIGN_OR_RETURN(net::Frame response, server_->SendCallback(
                                              client_node_, client_service_,
                                              request));
    RETURN_IF_ERROR(response.ToStatus());
    ASSIGN_OR_RETURN(CbRecallDelegResponse resp,
                     CbRecallDelegResponse::Decode(response.payload.span()));
    if (resp.has_times) {
      std::lock_guard<std::mutex> lock(mutex_);
      dirty_times_ = std::make_pair(resp.atime_ns, resp.mtime_ns);
    }
    // A delegation never holds dirty pages — data writes go to the wire —
    // so there is nothing to flush back.
    return std::vector<BlockData>{};
  }

  DfsServer* server_;
  std::string client_node_;
  std::string client_service_;
  uint64_t deleg_id_;
  uint64_t incarnation_ = 0;
  std::mutex mutex_;
  std::optional<std::pair<uint64_t, uint64_t>> dirty_times_;
};

// The server's cache object toward the layer below: callbacks propagate to
// the remote clients (no local data cache to maintain).
class DfsLowerCacheObject : public FsCacheObject, public Servant {
 public:
  DfsLowerCacheObject(sp<Domain> domain, sp<DfsServer> server,
                      sp<DfsServer::ServerFile> file)
      : Servant(std::move(domain)), server_(std::move(server)),
        file_(std::move(file)) {}

  Result<std::vector<BlockData>> FlushBack(Range range) override {
    return Recall(range, AccessRights::kReadWrite);
  }
  Result<std::vector<BlockData>> DenyWrites(Range range) override {
    return Recall(range, AccessRights::kReadOnly);
  }
  Result<std::vector<BlockData>> WriteBack(Range range) override {
    return Recall(range, AccessRights::kReadOnly);
  }
  Status DeleteRange(Range range) override {
    return Recall(range, AccessRights::kReadWrite).status();
  }
  Status ZeroFill(Range range) override {
    return Recall(range, AccessRights::kReadWrite).status();
  }
  Status Populate(Offset, AccessRights, ByteSpan) override {
    return Status::Ok();  // the server caches nothing
  }
  Status DestroyCache() override {
    return InDomain([&]() -> Status {
      std::lock_guard<std::mutex> lock(file_->mutex);
      file_->bound_below = false;
      file_->lower_pager = nullptr;
      file_->lower_fs_pager = nullptr;
      return Status::Ok();
    });
  }

  Status InvalidateAttributes() override {
    return InDomain([&]() -> Status {
      std::lock_guard<std::mutex> lock(file_->mutex);
      return server_->BroadcastAttrInvalidate(*file_, 0);
    });
  }
  Result<AttrUpdate> RecallAttributes() override { return AttrUpdate{}; }

 private:
  Result<std::vector<BlockData>> Recall(Range range, AccessRights access) {
    return InDomain([&]() -> Result<std::vector<BlockData>> {
      trace::ScopedSpan span("dfs.lower_recall");
      server_->NoteLowerFlush();
      // Local conflicts recall delegations too: a local writer must not
      // race a remote holder's zero-round-trip serves.
      RETURN_IF_ERROR(server_->RecallConflicting(file_, 0, access));
      std::lock_guard<std::mutex> lock(file_->mutex);
      // The dirty data recovered from remote caches IS the modified data
      // the layer below is asking for.
      Result<std::vector<BlockData>> recovered =
          file_->engine.Acquire(0, range, access);
      if (recovered.ok()) {
        server_->PruneEvicted(*file_);
      }
      return recovered;
    });
  }

  sp<DfsServer> server_;
  sp<DfsServer::ServerFile> file_;
};

// The local view of an exported file (Figure 7): binds are forwarded to the
// underlying file, data/attr operations delegate directly.
class DfsLocalFile : public File, public Servant {
 public:
  DfsLocalFile(sp<Domain> domain, sp<DfsServer> server, sp<File> under)
      : Servant(std::move(domain)), server_(std::move(server)),
        under_(std::move(under)) {}

  const sp<File>& under() const { return under_; }

  Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                               AccessRights requested_access) override {
    // "When the VMM binds to a locally managed DFS file, DFS reroutes the
    // VMM to the SFS, so that the VMM ends up dealing with SFS directly."
    // The forwarding itself shows up as a span, but DFS never appears in
    // the resulting channel's page-in/page-out traces (Figure 7).
    trace::ScopedSpan span("dfs.bind_forward");
    return under_->Bind(caller, requested_access);
  }
  Result<Offset> GetLength() override { return under_->GetLength(); }
  Status SetLength(Offset length) override { return under_->SetLength(length); }
  Result<size_t> Read(Offset offset, MutableByteSpan out) override {
    return under_->Read(offset, out);
  }
  Result<size_t> Write(Offset offset, ByteSpan data) override {
    return under_->Write(offset, data);
  }
  Result<FileAttributes> Stat() override { return under_->Stat(); }
  Status SetTimes(uint64_t atime_ns, uint64_t mtime_ns) override {
    return under_->SetTimes(atime_ns, mtime_ns);
  }
  Status SyncFile() override { return under_->SyncFile(); }

 private:
  sp<DfsServer> server_;
  sp<File> under_;
};

Result<sp<DfsServer>> DfsServer::Create(const sp<net::Node>& node,
                                        net::Network* network,
                                        const std::string& service,
                                        sp<StackableFs> under, Clock* clock,
                                        const DfsServerOptions& options) {
  net::SetFrameTypeNamer(&OpNamer);
  sp<DfsServer> server(new DfsServer(node, network, service, std::move(under),
                                     clock, options));
  wp<DfsServer> weak = server;
  node->RegisterService(service, [weak](const net::Frame& request) {
    sp<DfsServer> strong = weak.lock();
    if (!strong) {
      return net::Frame::Error(ErrorCode::kDeadObject);
    }
    return strong->Handle(request);
  });
  return server;
}

DfsServer::DfsServer(const sp<net::Node>& node, net::Network* network,
                     std::string service, sp<StackableFs> under, Clock* clock,
                     const DfsServerOptions& options)
    : Servant(node->domain()), node_(node), network_(network),
      service_(std::move(service)), clock_(clock), options_(options),
      boot_epoch_(NextBootEpoch()), boot_time_(clock->Now()),
      under_(std::move(under)) {
  // Handles are unique across instances, not just within one: a restarted
  // server starts its handle space at a fresh boot-epoch prefix, so a
  // client's stale handle can never silently resolve to a *different* file
  // on the new incumbent — it always gets kStale and re-resolves by path.
  // (The striped client relies on this to fence writes per data server.)
  next_handle_ = (boot_epoch_ << 32) + 1;
  metrics::Registry::Global().RegisterProvider(this);
}

DfsServer::~DfsServer() {
  metrics::Registry::Global().UnregisterProvider(this);
  // Leave a tombstone rather than unregistering: clients that still hold
  // the mount get a definite kDeadObject (the object died) instead of
  // kNotFound (no such service), and never hang on a dead server.
  node_->RegisterService(service_, [](const net::Frame&) {
    return net::Frame::Error(ErrorCode::kDeadObject);
  });
}

Result<net::Frame> DfsServer::SendCallback(const std::string& to_node,
                                           const std::string& to_service,
                                           const net::Frame& request) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.callbacks_sent;
  }
  return network_->Call(node_->name(), to_node, to_service, request);
}

void DfsServer::NoteLowerFlush() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.lower_flushes;
}

bool DfsServer::InGracePeriod() const {
  return options_.grace_ns != 0 &&
         clock_->Now() < boot_time_ + options_.grace_ns;
}

Result<sp<DfsServer::ServerFile>> DfsServer::FileForPath(
    const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = handles_by_path_.find(path);
    if (it != handles_by_path_.end()) {
      return files_by_handle_.at(it->second);
    }
  }
  ASSIGN_OR_RETURN(sp<File> under_file,
                   ResolveAs<File>(under_, path, Credentials::System()));
  auto file = std::make_shared<ServerFile>();
  file->path = path;
  file->under = std::move(under_file);
  file->engine.ConfigureLeases(clock_, options_.lease_ns);
  file->deleg_engine.ConfigureLeases(clock_, options_.lease_ns);
  // Conservative eviction for delegations: an unreachable holder may still
  // be serving opens/attrs locally, so it keeps its claim (and conflicting
  // ops fail transiently) until the lease provably lapsed.
  file->deleg_engine.SetEvictUnreachableBeforeExpiry(false);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = handles_by_path_.find(path);
  if (it != handles_by_path_.end()) {
    return files_by_handle_.at(it->second);
  }
  file->handle = next_handle_++;
  files_by_handle_[file->handle] = file;
  handles_by_path_[path] = file->handle;
  return file;
}

Result<sp<DfsServer::ServerFile>> DfsServer::FileForHandle(uint64_t handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_by_handle_.find(handle);
  if (it == files_by_handle_.end()) {
    return ErrStale("unknown DFS handle " + std::to_string(handle));
  }
  return it->second;
}

Status DfsServer::EnsureBoundBelow(const sp<ServerFile>& file) {
  std::lock_guard<std::mutex> bind_lock(bind_mutex_);
  {
    std::lock_guard<std::mutex> lock(file->mutex);
    if (file->bound_below) {
      return Status::Ok();
    }
  }
  binding_file_ = file;
  sp<DfsServer> self = std::dynamic_pointer_cast<DfsServer>(shared_from_this());
  Result<sp<CacheRights>> rights =
      file->under->Bind(self, AccessRights::kReadWrite);
  binding_file_ = nullptr;
  if (!rights.ok()) {
    return rights.status();
  }
  std::lock_guard<std::mutex> lock(file->mutex);
  if (!file->lower_pager) {
    return ErrInvalidArgument("lower layer did not establish a channel");
  }
  file->bound_below = true;
  return Status::Ok();
}

Result<CacheManager::ChannelSetup> DfsServer::EstablishChannel(
    uint64_t pager_key, sp<PagerObject> pager) {
  (void)pager_key;
  sp<ServerFile> file = binding_file_;
  if (!file) {
    return ErrInvalidArgument("unexpected channel establishment");
  }
  sp<DfsServer> self = std::dynamic_pointer_cast<DfsServer>(shared_from_this());
  {
    std::lock_guard<std::mutex> lock(file->mutex);
    file->lower_pager = pager;
    file->lower_fs_pager = narrow<FsPagerObject>(pager);
  }
  ChannelSetup setup;
  setup.cache = std::make_shared<DfsLowerCacheObject>(domain(), self, file);
  setup.rights = std::make_shared<DfsCacheRights>(file->handle);
  return setup;
}

void DfsServer::PruneEvicted(ServerFile& file) {
  for (auto it = file.remote_caches.begin(); it != file.remote_caches.end();) {
    it = file.engine.HasCache(it->first) ? std::next(it)
                                         : file.remote_caches.erase(it);
  }
}

void DfsServer::PruneDelegations(
    ServerFile& file,
    std::vector<std::pair<uint64_t, uint64_t>>* dirty_times) {
  uint64_t now = clock_->Now();
  for (auto it = file.delegations.begin(); it != file.delegations.end();) {
    DelegationInfo& info = it->second;
    bool engine_gone = !file.deleg_engine.HasCache(info.deleg_id);
    bool expired = now >= info.expires_at;
    if (!engine_gone && !expired) {
      ++it;
      continue;
    }
    if (!engine_gone) {
      file.deleg_engine.RemoveCache(info.deleg_id);
    }
    if (auto times = info.proxy->TakeDirtyTimes()) {
      dirty_times->push_back(*times);
    }
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      if (expired) {
        ++stats_.delegations_expired;
      } else {
        ++stats_.delegations_recalled;
      }
    }
    flight::Record(flight::Severity::kInfo, "dfs",
                   expired ? "delegation expired" : "delegation evicted",
                   info.deleg_id, file.handle);
    it = file.delegations.erase(it);
  }
}

Status DfsServer::RecallConflicting(const sp<ServerFile>& file,
                                    uint64_t except_deleg,
                                    AccessRights access) {
  std::vector<std::pair<uint64_t, uint64_t>> dirty_times;
  Status result = Status::Ok();
  {
    std::lock_guard<std::mutex> lock(file->mutex);
    if (file->delegations.empty()) {
      return Status::Ok();
    }
    PruneDelegations(*file, &dirty_times);
    std::vector<uint64_t> conflicts;
    for (const auto& [id, info] : file->delegations) {
      if (id == except_deleg) {
        continue;
      }
      if (access == AccessRights::kReadOnly &&
          info.kind != DelegationKind::kWrite) {
        continue;  // readers coexist with read delegations
      }
      conflicts.push_back(id);
    }
    if (!conflicts.empty()) {
      uint64_t requester =
          file->deleg_engine.HasCache(except_deleg) ? except_deleg : 0;
      Result<std::vector<BlockData>> recalled = file->deleg_engine.Acquire(
          requester, Range{0, kPageSize}, access);
      if (!recalled.ok()) {
        // Conservative mode: the holder is unreachable but its lease has
        // not lapsed — the op fails transiently rather than racing the
        // holder's local serves.
        result = recalled.status();
      } else {
        for (uint64_t id : conflicts) {
          auto it = file->delegations.find(id);
          if (it == file->delegations.end()) {
            continue;  // already pruned by an engine eviction
          }
          if (file->deleg_engine.HasCache(id)) {
            file->deleg_engine.RemoveCache(id);
          }
          if (auto times = it->second.proxy->TakeDirtyTimes()) {
            dirty_times.push_back(*times);
          }
          {
            std::lock_guard<std::mutex> stats_lock(stats_mutex_);
            ++stats_.delegations_recalled;
          }
          flight::Record(flight::Severity::kInfo, "dfs", "delegation recalled",
                         id, file->handle);
          file->delegations.erase(it);
        }
      }
    }
  }
  // Apply buffered attr writes outside the lock: SetTimes can re-enter the
  // lower coherency path, which takes file->mutex again.
  for (const auto& [atime, mtime] : dirty_times) {
    Status st = file->under->SetTimes(atime, mtime);
    if (!st.ok() && result.ok()) {
      result = st;
    }
  }
  return result;
}

Status DfsServer::PushRecovered(ServerFile& file,
                                const std::vector<BlockData>& blocks) {
  for (const BlockData& block : blocks) {
    Buffer page = block.data;
    page.resize(kPageSize);
    RETURN_IF_ERROR(file.lower_pager->Sync(block.offset, page.span()));
  }
  return Status::Ok();
}

Status DfsServer::BroadcastAttrInvalidate(ServerFile& file,
                                          uint64_t except_cache_id) {
  for (const auto& [cache_id, info] : file.remote_caches) {
    if (cache_id == except_cache_id || !info.is_fs_cache) {
      continue;
    }
    CbAttrInvalidateRequest body;
    body.client_channel = info.client_channel;
    net::Frame request;
    request.type = static_cast<uint32_t>(Op::kCbAttrInvalidate);
    request.payload = body.Encode();
    Result<net::Frame> response =
        SendCallback(info.node, info.service, request);
    if (!response.ok() &&
        response.code() != ErrorCode::kConnectionLost) {
      return response.status();
    }
  }
  return Status::Ok();
}

// --- protocol dispatch ---

net::Frame DfsServer::Handle(const net::Frame& request) {
  Op op = static_cast<Op>(request.type);
  // One TimedOp per served frame: counts the call and records dispatch
  // time into the per-op latency histogram ("dfs/op/<name>.latency_ns"),
  // and its span is the server-domain anchor of the caller's tree — we
  // adopt the trace context the client stamped into the frame header, so
  // client dfs.page_in -> net.call -> dfs.serve -> UFS/VMM spans share one
  // trace_id across the wire.
  metrics::TimedOp timed(OpMetricFor(op), "dfs.serve");
  timed.span().AdoptRemote(
      trace::TraceContext{request.trace_id, request.parent_span_id});
  uint64_t start_ns = clock_->Now();
  net::Frame response = HandleFrame(op, request, timed.span());
  NoteSlowOp(op, request, clock_->Now() - start_ns);
  response.epoch = boot_epoch_;
  return response;
}

net::Frame DfsServer::HandleFrame(Op op, const net::Frame& request,
                                  trace::ScopedSpan& span) {
  // Mutating requests carry a client-generated request id: a
  // retransmission (the original response was lost in flight) replays the
  // stored response instead of applying the operation twice. A compound
  // frame is deduplicated as a unit: the stored response replays every
  // sub-op result, so a retransmitted compound never re-executes a
  // mutating sub-op.
  if (request.request_id != 0) {
    std::lock_guard<std::mutex> lock(dedup_mutex_);
    auto it = dedup_.find(request.request_id);
    if (it != dedup_.end()) {
      {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.dedup_hits;
      }
      if (span.active()) {
        span.Annotate("dedup replay request_id=" +
                      std::to_string(request.request_id));
      }
      flight::Record(flight::Severity::kWarn, "dfs", "dedup replay",
                     request.request_id, request.type);
      return it->second;  // caller stamps the boot epoch
    }
  }
  net::Frame response = Dispatch(op, request);
  // kTimedOut responses (grace rejects, acquire timeouts) mean the op did
  // NOT execute; keeping them out of the window lets a retransmission
  // re-execute instead of replaying the transient failure forever.
  if (request.request_id != 0 &&
      response.ToStatus().code() != ErrorCode::kTimedOut) {
    std::lock_guard<std::mutex> lock(dedup_mutex_);
    auto [it, inserted] = dedup_.emplace(request.request_id, response);
    if (inserted) {
      dedup_order_.push_back(request.request_id);
      while (dedup_order_.size() > options_.dedup_window) {
        dedup_.erase(dedup_order_.front());
        dedup_order_.pop_front();
      }
    }
  }
  return response;
}

void DfsServer::NoteSlowOp(Op op, const net::Frame& request,
                           uint64_t elapsed_ns) {
  if (options_.slow_op_threshold_ns == 0 ||
      elapsed_ns < options_.slow_op_threshold_ns ||
      options_.slow_op_ring == 0) {
    return;
  }
  SlowOp slow;
  slow.op = op;
  if (CarriesLeadingHandle(op) && request.payload.size() >= 8) {
    for (int i = 7; i >= 0; --i) {
      slow.handle = (slow.handle << 8) | request.payload.span()[i];
    }
  }
  slow.bytes = request.payload.size();
  slow.elapsed_ns = elapsed_ns;
  slow.trace_id = request.trace_id;
  slow.at_ns = clock_->Now();
  {
    std::lock_guard<std::mutex> lock(slow_mutex_);
    slow_ops_.push_back(slow);
    while (slow_ops_.size() > options_.slow_op_ring) {
      slow_ops_.pop_front();
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.slow_ops;
  }
  char message[52];
  std::snprintf(message, sizeof(message), "slow op %s", OpName(op));
  flight::Record(flight::Severity::kWarn, "dfs_slow", message, elapsed_ns,
                 slow.handle);
}

std::vector<DfsServer::SlowOp> DfsServer::SlowOps() const {
  std::lock_guard<std::mutex> lock(slow_mutex_);
  return {slow_ops_.begin(), slow_ops_.end()};
}

net::Frame DfsServer::Dispatch(Op op, const net::Frame& request,
                               uint64_t except_deleg) {
  if (IsMutating(op) && InGracePeriod()) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.grace_rejects;
    }
    flight::Record(flight::Severity::kWarn, "dfs", "grace reject",
                   static_cast<uint64_t>(op), boot_epoch_);
    return StatusFrame(ErrTimedOut(
        "server in post-boot grace period; retry after it lapses"));
  }
  switch (op) {
    case Op::kLookup:
    case Op::kCreate:
    case Op::kMkdir:
    case Op::kRemove:
    case Op::kReadDir:
      return HandleNameOp(op, request);
    case Op::kOpen:
      return HandleOpen(request);
    case Op::kDelegReturn:
      return HandleDelegReturn(request);
    case Op::kGetStripeMap:
      return HandleGetStripeMap(request);
    case Op::kReportStaleReplica:
      return HandleReportStale(request);
    case Op::kGetStats:
      return HandleGetStats(request);
    case Op::kGetHealth:
      return HandleGetHealth(request);
    case Op::kCompound:
      return HandleCompound(request);
    default:
      return HandleFileOp(op, request, except_deleg);
  }
}

net::Frame DfsServer::HandleNameOp(Op op, const net::Frame& request) {
  Credentials creds = Credentials::System();
  Result<PathRequest> req = PathRequest::Decode(request.payload.span());
  if (!req.ok()) {
    return StatusFrame(req.status());
  }
  const std::string& path = req->path;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.remote_lookups;
  }
  Result<Name> name = Name::Parse(path);
  if (!name.ok()) {
    return StatusFrame(name.status());
  }
  switch (op) {
    case Op::kLookup: {
      Result<sp<Object>> object = under_->Resolve(*name, creds);
      if (!object.ok()) {
        return StatusFrame(object.status());
      }
      LookupResponse body;
      if (narrow<Context>(*object)) {
        body.is_dir = true;
      } else {
        if (!narrow<File>(*object)) {
          return StatusFrame(ErrWrongType("not a file or directory"));
        }
        Result<sp<ServerFile>> file = FileForPath(path);
        if (!file.ok()) {
          return StatusFrame(file.status());
        }
        body.handle = (*file)->handle;
      }
      net::Frame response;
      response.payload = body.Encode();
      return response;
    }
    case Op::kCreate: {
      Result<sp<File>> created = under_->CreateFile(*name, creds);
      if (!created.ok()) {
        return StatusFrame(created.status());
      }
      Result<sp<ServerFile>> file = FileForPath(path);
      if (!file.ok()) {
        return StatusFrame(file.status());
      }
      CreateResponse body;
      body.handle = (*file)->handle;
      net::Frame response;
      response.payload = body.Encode();
      return response;
    }
    case Op::kMkdir:
      return StatusFrame(under_->CreateContext(*name, creds).status());
    case Op::kRemove: {
      Status st = under_->Unbind(*name, creds);
      if (st.ok()) {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = handles_by_path_.find(path);
        if (it != handles_by_path_.end()) {
          files_by_handle_.erase(it->second);
          handles_by_path_.erase(it);
        }
      }
      return StatusFrame(st);
    }
    case Op::kReadDir: {
      Result<sp<Object>> dir_obj = under_->Resolve(*name, creds);
      if (!dir_obj.ok()) {
        return StatusFrame(dir_obj.status());
      }
      sp<Context> dir = narrow<Context>(*dir_obj);
      if (!dir) {
        return StatusFrame(ErrNotADirectory(path));
      }
      Result<std::vector<BindingInfo>> entries = dir->List(creds);
      if (!entries.ok()) {
        return StatusFrame(entries.status());
      }
      ReadDirResponse body;
      body.entries.reserve(entries->size());
      for (const auto& entry : *entries) {
        body.entries.push_back({entry.name, entry.is_context});
      }
      net::Frame response;
      response.payload = body.Encode();
      return response;
    }
    default:
      return StatusFrame(ErrNotSupported("unknown name op"));
  }
}

net::Frame DfsServer::HandleOpen(const net::Frame& request) {
  Result<OpenRequest> req = OpenRequest::Decode(request.payload.span());
  if (!req.ok()) {
    return StatusFrame(req.status());
  }
  Result<sp<ServerFile>> file_result = FileForHandle(req->handle);
  if (!file_result.ok()) {
    return StatusFrame(file_result.status());
  }
  sp<ServerFile> file = *file_result;
  OpenResponse body;
  body.handle = file->handle;
  // Delegations need a live lease clock and a callback address; without
  // either the open succeeds plain.
  bool want = req->want_delegation != DelegationKind::kNone &&
              !req->node.empty() && options_.lease_ns != 0;
  std::vector<std::pair<uint64_t, uint64_t>> dirty_times;
  if (want) {
    std::lock_guard<std::mutex> lock(file->mutex);
    PruneDelegations(*file, &dirty_times);
    // Admission (NFSv4 rules): a read delegation coexists with other read
    // delegations but not a write one; a write delegation must be alone.
    // On conflict the grant is simply denied — the opener still got its
    // handle, and the conflicting holder keeps its zero-trip serves.
    bool write_wanted = req->want_delegation == DelegationKind::kWrite;
    bool conflict = false;
    for (const auto& [id, info] : file->delegations) {
      if (write_wanted || info.kind == DelegationKind::kWrite) {
        conflict = true;
        break;
      }
    }
    if (!conflict) {
      uint64_t deleg_id = NextDelegId();
      auto proxy = std::make_shared<DelegationProxy>(this, req->node,
                                                     req->service, deleg_id);
      uint64_t incarnation = file->deleg_engine.AddCache(deleg_id, proxy);
      proxy->set_incarnation(incarnation);
      Result<std::vector<BlockData>> claimed = file->deleg_engine.Acquire(
          deleg_id, Range{0, kPageSize},
          write_wanted ? AccessRights::kReadWrite : AccessRights::kReadOnly);
      if (claimed.ok()) {
        DelegationInfo info;
        info.deleg_id = deleg_id;
        info.kind = req->want_delegation;
        info.node = req->node;
        info.service = req->service;
        info.incarnation = incarnation;
        // The expiry ships to the client as an ABSOLUTE clock value and is
        // never renewed, so both sides agree on the exact instant local
        // serves must stop (the simulation shares one clock; a real system
        // would subtract a safety margin client-side).
        info.expires_at = clock_->Now() + options_.lease_ns;
        info.proxy = proxy;
        file->delegations[deleg_id] = info;
        body.deleg_id = deleg_id;
        body.granted = req->want_delegation;
        body.incarnation = incarnation;
        body.expires_at = info.expires_at;
        {
          std::lock_guard<std::mutex> stats_lock(stats_mutex_);
          ++stats_.delegations_granted;
        }
        flight::Record(flight::Severity::kInfo, "dfs", "delegation granted",
                       deleg_id, file->handle);
      } else {
        file->deleg_engine.RemoveCache(deleg_id);
      }
    }
  }
  for (const auto& [atime, mtime] : dirty_times) {
    Status st = file->under->SetTimes(atime, mtime);
    if (!st.ok()) {
      return StatusFrame(st);
    }
  }
  net::Frame response;
  response.payload = body.Encode();
  return response;
}

net::Frame DfsServer::HandleDelegReturn(const net::Frame& request) {
  Result<DelegReturnRequest> req =
      DelegReturnRequest::Decode(request.payload.span());
  if (!req.ok()) {
    return StatusFrame(req.status());
  }
  Result<sp<ServerFile>> file_result = FileForHandle(req->handle);
  if (!file_result.ok()) {
    return StatusFrame(file_result.status());
  }
  sp<ServerFile> file = *file_result;
  {
    std::lock_guard<std::mutex> lock(file->mutex);
    auto it = file->delegations.find(req->deleg_id);
    if (it == file->delegations.end() ||
        it->second.incarnation != req->incarnation) {
      // Stale return: the delegation was already recalled, expired, or
      // re-granted under a fresh incarnation. Fence it — the times it
      // carries were already collected by the recall (or are void).
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.deleg_fenced;
      return OkFrame();
    }
    file->deleg_engine.RemoveCache(req->deleg_id);
    file->delegations.erase(it);
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.delegations_returned;
    }
  }
  if (req->has_times) {
    RETURN_FRAME_IF_ERROR(file->under->SetTimes(req->atime_ns, req->mtime_ns));
  }
  return OkFrame();
}

// --- striped metadata role: staleness state, map building, rebuild --------

uint32_t DfsServer::StripeReplicaCount() const {
  size_t width = options_.stripe_targets.size();
  uint32_t r = std::max<uint32_t>(options_.stripe_replicas, 1);
  return static_cast<uint32_t>(std::min<size_t>(r, width));
}

namespace {

// Lane-r stripe object name: the primary lane keeps the bare object name
// (back-compatible with single-lane clusters); higher lanes append a
// suffix.
std::string LaneObjectName(const std::string& object_name, size_t lane) {
  return lane == 0 ? object_name
                   : object_name + "-r" + std::to_string(lane);
}

// Sidecar file on the metadata store holding a file's StripeState. Named
// by the same path hash as the stripe objects so it survives renames of
// nothing (paths are stable here) and never collides with another file's.
std::string StripeStateName(const std::string& path) {
  return "." + StripeObjectName(path) + "-state";
}

}  // namespace

DfsServer::StripeState DfsServer::LoadStripeState(const std::string& path) {
  size_t width = options_.stripe_targets.size();
  {
    std::lock_guard<std::mutex> lock(stripe_mutex_);
    auto it = stripe_states_.find(path);
    if (it != stripe_states_.end()) {
      it->second.stale.resize(width, false);
      return it->second;
    }
  }
  StripeState state;
  state.stale.assign(width, false);
  // Cold (this boot never touched the file): re-derive from the sidecar,
  // if a previous incumbent left one. This is what keeps map versions
  // monotonic — and stale marks durable — across MDS restarts.
  {
    Result<sp<File>> sidecar =
        ResolveAs<File>(under_, StripeStateName(path), Credentials::System());
    if (sidecar.ok()) {
      Result<Offset> len = (*sidecar)->GetLength();
      if (len.ok() && *len > 0) {
        Buffer raw;
        raw.resize(*len);
        Result<size_t> got = (*sidecar)->Read(0, raw.mutable_span());
        if (got.ok()) {
          WireReader r(raw.span().first(*got));
          Result<uint64_t> version = r.U64();
          Result<uint32_t> count = r.U32();
          if (version.ok() && count.ok()) {
            state.version = *version;
            for (uint32_t t = 0; t < *count; ++t) {
              Result<uint32_t> flag = r.U32();
              if (!flag.ok()) {
                break;
              }
              if (t < width) {
                state.stale[t] = *flag != 0;
              }
            }
          }
        }
      }
    }
  }
  std::lock_guard<std::mutex> lock(stripe_mutex_);
  auto [it, inserted] = stripe_states_.emplace(path, state);
  return it->second;
}

void DfsServer::StoreStripeState(const std::string& path,
                                 const StripeState& state) {
  {
    std::lock_guard<std::mutex> lock(stripe_mutex_);
    stripe_states_[path] = state;
  }
  Result<Name> name = Name::Parse(StripeStateName(path));
  if (!name.ok()) {
    return;
  }
  Result<sp<File>> sidecar =
      ResolveAs<File>(under_, name->ToString(), Credentials::System());
  if (!sidecar.ok()) {
    sidecar = under_->CreateFile(*name, Credentials::System());
  }
  if (!sidecar.ok()) {
    flight::Record(flight::Severity::kWarn, "dfs_stripe",
                   "stripe-state sidecar unwritable", state.version);
    return;
  }
  WireWriter w;
  w.U64(state.version);
  w.U32(static_cast<uint32_t>(state.stale.size()));
  for (bool flag : state.stale) {
    w.U32(flag ? 1 : 0);
  }
  // The logical path, so a cold incumbent can walk the store's sidecars
  // and re-derive the full stale set (RunRebuildPass) without waiting for
  // a client to refetch this file's map.
  w.Str(path);
  Buffer wire = w.Take();
  (void)(*sidecar)->Write(0, wire.span());
  (void)(*sidecar)->SetLength(wire.size());
}

std::string DfsServer::ReadSidecarPath(const std::string& sidecar_name) {
  Result<sp<File>> sidecar =
      ResolveAs<File>(under_, sidecar_name, Credentials::System());
  if (!sidecar.ok()) {
    return "";
  }
  Result<Offset> len = (*sidecar)->GetLength();
  if (!len.ok() || *len == 0) {
    return "";
  }
  Buffer raw;
  raw.resize(*len);
  Result<size_t> got = (*sidecar)->Read(0, raw.mutable_span());
  if (!got.ok()) {
    return "";
  }
  WireReader r(raw.span().first(*got));
  Result<uint64_t> version = r.U64();
  Result<uint32_t> count = r.U32();
  if (!version.ok() || !count.ok()) {
    return "";
  }
  for (uint32_t t = 0; t < *count; ++t) {
    if (!r.U32().ok()) {
      return "";
    }
  }
  Result<std::string> path = r.Str();
  return path.ok() ? *path : "";
}

bool DfsServer::MarkReplicaStale(const std::string& path, size_t t) {
  StripeState state = LoadStripeState(path);
  if (t >= state.stale.size() || state.stale[t]) {
    return false;
  }
  size_t fresh = 0;
  for (bool flag : state.stale) {
    fresh += flag ? 0 : 1;
  }
  if (fresh <= 1) {
    // Refusing to mark the last fresh target: a file cannot be served from
    // zero fresh replicas, so the final copy stays authoritative even if a
    // client could not reach it.
    flight::Record(flight::Severity::kWarn, "dfs_stripe",
                   "refused to mark last fresh target", t, state.version);
    return false;
  }
  state.stale[t] = true;
  ++state.version;
  StoreStripeState(path, state);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.stripe_replicas_marked_stale;
  }
  flight::Record(flight::Severity::kWarn, "dfs_stripe",
                 "replica target marked stale", t, state.version);
  return true;
}

// Ensure the stripe object exists on one data server and return its
// current handle. Deliberately uncached: handles are only valid for a data
// server's boot epoch, so re-resolving on every map request means a client
// that refetches the map after a data-server restart gets working handles
// with no extra re-lookup protocol. The lookup -> create -> re-lookup
// ladder is convergent, which is what lets kGetStripeMap stay idempotent
// even though it may create objects.
Result<uint64_t> DfsServer::EnsureStripeObject(
    const DfsServerOptions::StripeTarget& target, const std::string& name) {
  PathRequest object;
  object.path = name;
  net::Frame lookup;
  lookup.type = static_cast<uint32_t>(Op::kLookup);
  lookup.payload = object.Encode();
  ASSIGN_OR_RETURN(
      net::Frame reply,
      network_->Call(node_->name(), target.node, target.service, lookup));
  Status st = reply.ToStatus();
  if (st.code() == ErrorCode::kNotFound) {
    net::Frame create;
    create.type = static_cast<uint32_t>(Op::kCreate);
    create.payload = object.Encode();
    ASSIGN_OR_RETURN(
        net::Frame created,
        network_->Call(node_->name(), target.node, target.service, create));
    Status create_st = created.ToStatus();
    if (create_st.ok()) {
      ASSIGN_OR_RETURN(CreateResponse made,
                       CreateResponse::Decode(created.payload.span()));
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.stripe_objects_created;
      }
      return made.handle;
    }
    if (create_st.code() != ErrorCode::kAlreadyExists) {
      return create_st;
    }
    // Lost-response race: our earlier create landed but its reply did not.
    // Fall through to the re-lookup below.
    ASSIGN_OR_RETURN(
        reply,
        network_->Call(node_->name(), target.node, target.service, lookup));
    st = reply.ToStatus();
  }
  RETURN_IF_ERROR(st);
  ASSIGN_OR_RETURN(LookupResponse found,
                   LookupResponse::Decode(reply.payload.span()));
  return found.handle;
}

Result<StripeMapResponse> DfsServer::BuildStripeMap(const sp<ServerFile>& file) {
  uint32_t replicas = StripeReplicaCount();
  StripeMapResponse body;
  body.stripe_size = options_.stripe_size;
  body.replicas = replicas;
  body.object_name = StripeObjectName(file->path);
  ASSIGN_OR_RETURN(Offset length, file->under->GetLength());
  body.length = length;

  bool marked = false;
  StripeState state = LoadStripeState(file->path);
  for (size_t t = 0; t < options_.stripe_targets.size(); ++t) {
    const DfsServerOptions::StripeTarget& target = options_.stripe_targets[t];
    StripeMapResponse::Target out;
    out.node = target.node;
    out.service = target.service;
    out.stale = state.stale[t];
    // Stale targets still get an ensure attempt: once the server is back
    // up the map carries real handles for the rebuild path, while the
    // stale flag keeps clients away until the rebuild clears it.
    Status ensure = Status::Ok();
    for (size_t lane = 0; lane < replicas && ensure.ok(); ++lane) {
      Result<uint64_t> handle =
          EnsureStripeObject(target, LaneObjectName(body.object_name, lane));
      if (!handle.ok()) {
        ensure = handle.status();
        break;
      }
      out.lane_handles.push_back(*handle);
    }
    if (!ensure.ok()) {
      if (replicas == 1) {
        // Unreplicated cluster: there is no peer to degrade to, so the map
        // request fails exactly as it did before replication existed.
        return ensure;
      }
      out.lane_handles.assign(replicas, 0);
      if (!out.stale && MarkReplicaStale(file->path, t)) {
        marked = true;
        out.stale = true;
      }
    }
    body.targets.push_back(std::move(out));
  }
  if (marked) {
    // Re-read so the served version reflects the marks applied above.
    state = LoadStripeState(file->path);
    for (size_t t = 0; t < body.targets.size(); ++t) {
      body.targets[t].stale = state.stale[t];
    }
  }
  body.map_version = state.version;
  return body;
}

net::Frame DfsServer::HandleGetStripeMap(const net::Frame& request) {
  Result<HandleRequest> req = HandleRequest::Decode(request.payload.span());
  if (!req.ok()) {
    return StatusFrame(req.status());
  }
  if (options_.stripe_targets.empty()) {
    return StatusFrame(
        ErrInvalidArgument("server has no stripe targets (not a metadata "
                           "server); use the single-server path"));
  }
  if (options_.stripe_size == 0 || options_.stripe_size % kPageSize != 0) {
    return StatusFrame(ErrInvalidArgument("stripe_size must be a non-zero "
                                          "page multiple"));
  }
  Result<sp<ServerFile>> file_result = FileForHandle(req->handle);
  if (!file_result.ok()) {
    return StatusFrame(file_result.status());
  }
  Result<StripeMapResponse> body = BuildStripeMap(*file_result);
  if (!body.ok()) {
    return StatusFrame(body.status());
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.stripe_maps_served;
  }
  net::Frame response;
  response.payload = body->Encode();
  return response;
}

net::Frame DfsServer::HandleReportStale(const net::Frame& request) {
  Result<ReportStaleRequest> req =
      ReportStaleRequest::Decode(request.payload.span());
  if (!req.ok()) {
    return StatusFrame(req.status());
  }
  if (options_.stripe_targets.empty()) {
    return StatusFrame(ErrInvalidArgument("not a striped metadata server"));
  }
  Result<sp<ServerFile>> file_result = FileForHandle(req->handle);
  if (!file_result.ok()) {
    return StatusFrame(file_result.status());
  }
  sp<ServerFile> file = *file_result;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.stripe_stale_reports;
  }
  if (req->target < options_.stripe_targets.size() &&
      StripeReplicaCount() > 1) {
    // Version-fenced: the mark is honored only when the reporter's map is
    // at least as new as this server's state. A report stamped with an
    // older version raced a rebuild that already cleared the mark (and
    // bumped the version past the reporter's) — re-marking would wrongly
    // evict the just-rebuilt replica. The stale reporter instead gets the
    // fresh map below and re-plans its writes against it, reaching the
    // revived target directly. (MarkReplicaStale still refuses to strand
    // the last fresh copy.)
    if (req->map_version >= LoadStripeState(file->path).version) {
      (void)MarkReplicaStale(file->path, static_cast<size_t>(req->target));
    }
  }
  Result<StripeMapResponse> body = BuildStripeMap(file);
  if (!body.ok()) {
    return StatusFrame(body.status());
  }
  net::Frame response;
  response.payload = body->Encode();
  return response;
}

net::Frame DfsServer::HandleGetStats(const net::Frame&) {
  GetStatsResponse body;
  body.snapshot = metrics::Registry::Global().Collect();
  // Fold this server's own counters in under "self/": in a simulated
  // multi-server world every server shares the process registry above, so
  // the self section is what distinguishes one scrape target from another.
  CollectStats([&](const std::string& name, uint64_t value) {
    body.snapshot.values["self/" + name] += value;
  });
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.stats_scrapes;
  }
  net::Frame response;
  response.payload = body.Encode();
  return response;
}

net::Frame DfsServer::HandleGetHealth(const net::Frame&) {
  HealthResponse body;
  body.role = options_.stripe_targets.empty()
                  ? HealthResponse::Role::kData
                  : HealthResponse::Role::kMetadata;
  body.boot_epoch = boot_epoch_;
  body.uptime_ns = clock_->Now() - boot_time_;
  if (!options_.stripe_targets.empty()) {
    body.stripe_size = options_.stripe_size;
    body.stripe_width = static_cast<uint32_t>(options_.stripe_targets.size());
    body.stripe_replicas = StripeReplicaCount();
    // Re-derive sidecar staleness first, so a cold incumbent (fresh MDS
    // after a failover, no client traffic yet) reports truthfully. Local
    // store reads only — no wire calls under any lock.
    LoadAllSidecarStates();
    std::lock_guard<std::mutex> lock(stripe_mutex_);
    for (const auto& [path, state] : stripe_states_) {
      HealthResponse::FileHealth file;
      file.path = path;
      file.map_version = state.version;
      for (size_t t = 0; t < state.stale.size(); ++t) {
        if (state.stale[t]) {
          file.stale_targets.push_back(static_cast<uint32_t>(t));
        }
      }
      body.files.push_back(std::move(file));
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    body.rebuilds_completed = stats_.stripe_rebuilds;
    ++stats_.health_scrapes;
  }
  std::vector<sp<ServerFile>> files;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    files.reserve(files_by_handle_.size());
    for (const auto& [handle, file] : files_by_handle_) {
      files.push_back(file);
    }
  }
  for (const sp<ServerFile>& file : files) {
    std::lock_guard<std::mutex> lock(file->mutex);
    body.delegations_active += file->delegations.size();
    body.leases_active += file->remote_caches.size();
  }
  {
    std::lock_guard<std::mutex> lock(dedup_mutex_);
    body.dedup_entries = dedup_.size();
  }
  net::Frame response;
  response.payload = body.Encode();
  return response;
}

void DfsServer::LoadAllSidecarStates() {
  // Walk the metadata store's sidecars: each one records the logical path
  // it belongs to, so a cold incumbent (fresh after an MDS failover, no
  // client traffic yet) re-derives every file's stale set right here
  // instead of waiting for map refetches to repopulate it.
  Result<std::vector<BindingInfo>> entries =
      under_->List(Credentials::System());
  if (!entries.ok()) {
    return;
  }
  constexpr std::string_view kPrefix = ".stripe-";
  constexpr std::string_view kSuffix = "-state";
  for (const BindingInfo& entry : *entries) {
    if (entry.name.size() > kPrefix.size() + kSuffix.size() &&
        entry.name.rfind(kPrefix, 0) == 0 &&
        entry.name.compare(entry.name.size() - kSuffix.size(),
                           kSuffix.size(), kSuffix) == 0) {
      std::string path = ReadSidecarPath(entry.name);
      if (!path.empty()) {
        (void)LoadStripeState(path);  // cache-or-sidecar, idempotent
      }
    }
  }
}

Result<size_t> DfsServer::RunRebuildPass() {
  if (options_.stripe_targets.empty()) {
    return size_t{0};
  }
  LoadAllSidecarStates();
  // Snapshot the paths with stale targets.
  std::vector<std::string> paths;
  {
    std::lock_guard<std::mutex> lock(stripe_mutex_);
    for (const auto& [path, state] : stripe_states_) {
      if (std::any_of(state.stale.begin(), state.stale.end(),
                      [](bool flag) { return flag; })) {
        paths.push_back(path);
      }
    }
  }
  size_t rebuilt = 0;
  for (const std::string& path : paths) {
    StripeState state = LoadStripeState(path);
    std::string object_name = StripeObjectName(path);
    for (size_t t = 0; t < state.stale.size(); ++t) {
      if (!state.stale[t]) {
        continue;
      }
      Status copied = RebuildTarget(object_name, t, state);
      if (!copied.ok()) {
        flight::Record(flight::Severity::kWarn, "dfs_stripe",
                       "rebuild attempt failed", t, state.version);
        continue;  // target still down or no fresh source; next pass
      }
      state.stale[t] = false;
      ++state.version;
      StoreStripeState(path, state);
      ++rebuilt;
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.stripe_rebuilds;
      }
      flight::Record(flight::Severity::kInfo, "dfs_stripe",
                     "stale target rebuilt", t, state.version);
    }
  }
  return rebuilt;
}

Status DfsServer::RebuildTarget(const std::string& object_name, size_t t,
                                const StripeState& state) {
  size_t width = options_.stripe_targets.size();
  uint32_t replicas = StripeReplicaCount();
  const DfsServerOptions::StripeTarget& dest = options_.stripe_targets[t];

  // Typed sync call helper against a data server.
  auto call = [&](const DfsServerOptions::StripeTarget& target, Op op,
                  Buffer body) -> Result<net::Frame> {
    net::Frame frame;
    frame.type = static_cast<uint32_t>(op);
    frame.payload = std::move(body);
    ASSIGN_OR_RETURN(
        net::Frame reply,
        network_->Call(node_->name(), target.node, target.service, frame));
    RETURN_IF_ERROR(reply.ToStatus());
    return reply;
  };

  for (size_t lane = 0; lane < replicas; ++lane) {
    // The lane-`lane` object on target t holds stripes s with
    // (s + lane) % width == t; any fresh lane r' on target
    // (t - lane + r') % width holds the identical stripe set at identical
    // local offsets, so the copy is a plain whole-object transfer.
    size_t base = (t + width - (lane % width)) % width;
    const DfsServerOptions::StripeTarget* src_target = nullptr;
    size_t src_lane = 0;
    for (size_t r = 0; r < replicas; ++r) {
      size_t candidate = (base + r) % width;
      if (candidate == t || state.stale[candidate]) {
        continue;
      }
      src_target = &options_.stripe_targets[candidate];
      src_lane = r;
      break;
    }
    if (!src_target) {
      return ErrTimedOut("no fresh replica to rebuild from");
    }
    ASSIGN_OR_RETURN(
        uint64_t src_handle,
        EnsureStripeObject(*src_target, LaneObjectName(object_name, src_lane)));
    ASSIGN_OR_RETURN(
        uint64_t dst_handle,
        EnsureStripeObject(dest, LaneObjectName(object_name, lane)));

    HandleRequest len_req;
    len_req.handle = src_handle;
    ASSIGN_OR_RETURN(net::Frame len_reply,
                     call(*src_target, Op::kGetLength, len_req.Encode()));
    ASSIGN_OR_RETURN(GetLengthResponse src_len,
                     GetLengthResponse::Decode(len_reply.payload.span()));

    constexpr uint64_t kChunk = 16 * kPageSize;
    for (uint64_t off = 0; off < src_len.length; off += kChunk) {
      uint64_t n = std::min(kChunk, src_len.length - off);
      ReadRequest read;
      read.handle = src_handle;
      read.offset = off;
      read.length = n;
      ASSIGN_OR_RETURN(net::Frame read_reply,
                       call(*src_target, Op::kRead, read.Encode()));
      ASSIGN_OR_RETURN(ReadResponse data,
                       ReadResponse::Decode(read_reply.payload.span()));
      WriteRequest write;
      write.handle = dst_handle;
      write.offset = off;
      write.data = std::move(data.data);
      size_t written = write.data.size();
      ASSIGN_OR_RETURN(net::Frame write_reply,
                       call(dest, Op::kWrite, write.Encode()));
      (void)write_reply;
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.stripe_rebuild_bytes += written;
    }
    // Truncate a dest that outlived the source (writes it absorbed before
    // dying that were since truncated away).
    SetLengthRequest trunc;
    trunc.handle = dst_handle;
    trunc.length = src_len.length;
    ASSIGN_OR_RETURN(net::Frame trunc_reply,
                     call(dest, Op::kSetLength, trunc.Encode()));
    (void)trunc_reply;
  }
  return Status::Ok();
}

net::Frame DfsServer::HandleCompound(const net::Frame& request) {
  Result<CompoundRequest> req =
      CompoundRequest::Decode(request.payload.span());
  if (!req.ok()) {
    return StatusFrame(req.status());
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.compounds;
  }
  CompoundResponse out;
  uint64_t current_handle = 0;
  uint64_t current_deleg = 0;
  for (const CompoundRequest::SubOp& sub : req->ops) {
    Op op = static_cast<Op>(sub.op);
    CompoundResponse::SubResult result;
    result.op = sub.op;
    if (op == Op::kCompound || static_cast<uint32_t>(sub.op) >= 100) {
      result.status = static_cast<int32_t>(ErrorCode::kInvalidArgument);
      result.body = Buffer("op not allowed inside a compound");
      out.results.push_back(std::move(result));
      break;
    }
    // Substitute the current-handle register: a zero handle in the leading
    // 8 bytes of a handle-carrying body means "whatever the last
    // kLookup/kCreate/kOpen produced".
    net::Frame sub_request;
    sub_request.type = sub.op;
    sub_request.payload = sub.body;
    if (CarriesLeadingHandle(op) && sub_request.payload.size() >= 8 &&
        current_handle != 0) {
      uint8_t* raw = sub_request.payload.data();
      bool zero = true;
      for (int i = 0; i < 8; ++i) {
        zero = zero && raw[i] == 0;
      }
      if (zero) {
        for (int i = 0; i < 8; ++i) {
          raw[i] = static_cast<uint8_t>(current_handle >> (8 * i));
        }
      }
    }
    net::Frame sub_response = Dispatch(op, sub_request, current_deleg);
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.compound_sub_ops;
    }
    Status st = sub_response.ToStatus();
    result.status = static_cast<int32_t>(st.code());
    result.body = st.ok() ? sub_response.payload : Buffer(st.message());
    out.results.push_back(std::move(result));
    if (!st.ok()) {
      break;  // stop at the first failing op; later ops are not attempted
    }
    // Track the current handle through the ops that produce one.
    if (op == Op::kLookup) {
      Result<LookupResponse> looked =
          LookupResponse::Decode(sub_response.payload.span());
      if (looked.ok()) {
        current_handle = looked->is_dir ? 0 : looked->handle;
      }
    } else if (op == Op::kCreate) {
      Result<CreateResponse> created =
          CreateResponse::Decode(sub_response.payload.span());
      if (created.ok()) {
        current_handle = created->handle;
      }
    } else if (op == Op::kOpen) {
      Result<OpenResponse> opened =
          OpenResponse::Decode(sub_response.payload.span());
      if (opened.ok()) {
        current_handle = opened->handle;
        // Later sub-ops run under this open's delegation: without the
        // exemption the program's own getattr/read tail would recall the
        // write delegation it just asked for.
        current_deleg = opened->deleg_id;
      }
    }
  }
  net::Frame response;
  response.payload = out.Encode();
  return response;
}

net::Frame DfsServer::HandleFileOp(Op op, const net::Frame& request,
                                   uint64_t except_deleg) {
  switch (op) {
    case Op::kGetAttr: {
      Result<HandleRequest> req = HandleRequest::Decode(request.payload.span());
      if (!req.ok()) {
        return StatusFrame(req.status());
      }
      Result<sp<ServerFile>> file_result = FileForHandle(req->handle);
      if (!file_result.ok()) {
        return StatusFrame(file_result.status());
      }
      sp<ServerFile> file = *file_result;
      // A write-delegation holder may have buffered attr writes — pull
      // them in before serving attributes to anyone else.
      RETURN_FRAME_IF_ERROR(
          RecallConflicting(file, except_deleg, AccessRights::kReadOnly));
      Result<FileAttributes> attrs = file->under->Stat();
      if (!attrs.ok()) {
        return StatusFrame(attrs.status());
      }
      GetAttrResponse body;
      body.attrs = *attrs;
      net::Frame response;
      response.payload = body.Encode();
      return response;
    }
    case Op::kSetTimes: {
      Result<SetTimesRequest> req =
          SetTimesRequest::Decode(request.payload.span());
      if (!req.ok()) {
        return StatusFrame(req.status());
      }
      Result<sp<ServerFile>> file_result = FileForHandle(req->handle);
      if (!file_result.ok()) {
        return StatusFrame(file_result.status());
      }
      sp<ServerFile> file = *file_result;
      RETURN_FRAME_IF_ERROR(
          RecallConflicting(file, except_deleg, AccessRights::kReadWrite));
      Status st = file->under->SetTimes(req->atime_ns, req->mtime_ns);
      if (st.ok()) {
        std::lock_guard<std::mutex> lock(file->mutex);
        st = BroadcastAttrInvalidate(*file, 0);
      }
      return StatusFrame(st);
    }
    case Op::kSetLength: {
      Result<SetLengthRequest> req =
          SetLengthRequest::Decode(request.payload.span());
      if (!req.ok()) {
        return StatusFrame(req.status());
      }
      Result<sp<ServerFile>> file_result = FileForHandle(req->handle);
      if (!file_result.ok()) {
        return StatusFrame(file_result.status());
      }
      sp<ServerFile> file = *file_result;
      RETURN_FRAME_IF_ERROR(
          RecallConflicting(file, except_deleg, AccessRights::kReadWrite));
      Status st = file->under->SetLength(req->length);
      if (st.ok()) {
        std::lock_guard<std::mutex> lock(file->mutex);
        st = BroadcastAttrInvalidate(*file, 0);
      }
      return StatusFrame(st);
    }
    case Op::kGetLength: {
      Result<HandleRequest> req = HandleRequest::Decode(request.payload.span());
      if (!req.ok()) {
        return StatusFrame(req.status());
      }
      Result<sp<ServerFile>> file_result = FileForHandle(req->handle);
      if (!file_result.ok()) {
        return StatusFrame(file_result.status());
      }
      sp<ServerFile> file = *file_result;
      RETURN_FRAME_IF_ERROR(
          RecallConflicting(file, except_deleg, AccessRights::kReadOnly));
      Result<Offset> length = file->under->GetLength();
      if (!length.ok()) {
        return StatusFrame(length.status());
      }
      GetLengthResponse body;
      body.length = *length;
      net::Frame response;
      response.payload = body.Encode();
      return response;
    }
    case Op::kRead: {
      Result<ReadRequest> req = ReadRequest::Decode(request.payload.span());
      if (!req.ok()) {
        return StatusFrame(req.status());
      }
      Result<sp<ServerFile>> file_result = FileForHandle(req->handle);
      if (!file_result.ok()) {
        return StatusFrame(file_result.status());
      }
      sp<ServerFile> file = *file_result;
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.remote_reads;
      }
      RETURN_FRAME_IF_ERROR(
          RecallConflicting(file, except_deleg, AccessRights::kReadOnly));
      RETURN_FRAME_IF_ERROR(EnsureBoundBelow(file));
      Buffer out(req->length);
      {
        std::lock_guard<std::mutex> lock(file->mutex);
        Result<std::vector<BlockData>> recovered = file->engine.Acquire(
            0, Range{req->offset, req->length}, AccessRights::kReadOnly);
        if (!recovered.ok()) {
          return StatusFrame(recovered.status());
        }
        PruneEvicted(*file);
        Status pushed = PushRecovered(*file, *recovered);
        if (!pushed.ok()) {
          return StatusFrame(pushed);
        }
      }
      Result<size_t> n = file->under->Read(req->offset, out.mutable_span());
      if (!n.ok()) {
        return StatusFrame(n.status());
      }
      ReadResponse body;
      body.data = Buffer(out.subspan(0, *n));
      net::Frame response;
      response.payload = body.Encode();
      return response;
    }
    case Op::kWrite: {
      Result<WriteRequest> req = WriteRequest::Decode(request.payload.span());
      if (!req.ok()) {
        return StatusFrame(req.status());
      }
      Result<sp<ServerFile>> file_result = FileForHandle(req->handle);
      if (!file_result.ok()) {
        return StatusFrame(file_result.status());
      }
      sp<ServerFile> file = *file_result;
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.remote_writes;
      }
      // A wire write conflicts with EVERY delegation, including the
      // writer's own (it chose the wire path, so local attr serves must
      // stop being authoritative).
      RETURN_FRAME_IF_ERROR(
          RecallConflicting(file, except_deleg, AccessRights::kReadWrite));
      RETURN_FRAME_IF_ERROR(EnsureBoundBelow(file));
      {
        std::lock_guard<std::mutex> lock(file->mutex);
        Result<std::vector<BlockData>> recovered = file->engine.Acquire(
            0, Range{req->offset, req->data.size()},
            AccessRights::kReadWrite);
        if (!recovered.ok()) {
          return StatusFrame(recovered.status());
        }
        PruneEvicted(*file);
        Status pushed = PushRecovered(*file, *recovered);
        if (!pushed.ok()) {
          return StatusFrame(pushed);
        }
      }
      Result<size_t> n = file->under->Write(req->offset, req->data.span());
      if (!n.ok()) {
        return StatusFrame(n.status());
      }
      {
        std::lock_guard<std::mutex> lock(file->mutex);
        Status st = BroadcastAttrInvalidate(*file, 0);
        if (!st.ok()) {
          return StatusFrame(st);
        }
      }
      WriteResponse body;
      body.written = *n;
      net::Frame response;
      response.payload = body.Encode();
      return response;
    }
    case Op::kSyncFile: {
      Result<HandleRequest> req = HandleRequest::Decode(request.payload.span());
      if (!req.ok()) {
        return StatusFrame(req.status());
      }
      Result<sp<ServerFile>> file_result = FileForHandle(req->handle);
      if (!file_result.ok()) {
        return StatusFrame(file_result.status());
      }
      return StatusFrame((*file_result)->under->SyncFile());
    }

    case Op::kBindCache: {
      Result<BindCacheRequest> req =
          BindCacheRequest::Decode(request.payload.span());
      if (!req.ok()) {
        return StatusFrame(req.status());
      }
      Result<sp<ServerFile>> file_result = FileForHandle(req->handle);
      if (!file_result.ok()) {
        return StatusFrame(file_result.status());
      }
      sp<ServerFile> file = *file_result;
      RETURN_FRAME_IF_ERROR(EnsureBoundBelow(file));
      std::lock_guard<std::mutex> lock(file->mutex);
      uint64_t cache_id = file->next_cache_id++;
      RemoteCacheInfo info;
      info.node = req->node;
      info.service = req->service;
      info.client_channel = req->client_channel;
      info.is_fs_cache = req->is_fs_cache;
      info.incarnation = file->engine.AddCache(
          cache_id, std::make_shared<RemoteCacheProxy>(
                        this, info.node, info.service, info.client_channel));
      file->remote_caches[cache_id] = info;
      BindCacheResponse body;
      body.cache_id = cache_id;
      net::Frame response;
      response.payload = body.Encode();
      return response;
    }
    case Op::kUnbindCache: {
      Result<UnbindCacheRequest> req =
          UnbindCacheRequest::Decode(request.payload.span());
      if (!req.ok()) {
        return StatusFrame(req.status());
      }
      Result<sp<ServerFile>> file_result = FileForHandle(req->handle);
      if (!file_result.ok()) {
        return StatusFrame(file_result.status());
      }
      sp<ServerFile> file = *file_result;
      std::lock_guard<std::mutex> lock(file->mutex);
      file->engine.RemoveCache(req->cache_id);
      file->remote_caches.erase(req->cache_id);
      return OkFrame();
    }
    case Op::kPageIn:
    case Op::kPageInRange: {
      Result<PageInRequest> req = PageInRequest::Decode(request.payload.span());
      if (!req.ok()) {
        return StatusFrame(req.status());
      }
      Result<sp<ServerFile>> file_result = FileForHandle(req->handle);
      if (!file_result.ok()) {
        return StatusFrame(file_result.status());
      }
      sp<ServerFile> file = *file_result;
      bool range_op = op == Op::kPageInRange;
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        if (range_op) {
          ++stats_.remote_range_page_ins;
        } else {
          ++stats_.remote_page_ins;
        }
      }
      if (range_op && (req->offset % kPageSize != 0 || req->size == 0)) {
        return StatusFrame(ErrInvalidArgument("malformed page-in-range"));
      }
      AccessRights access = req->write_access ? AccessRights::kReadWrite
                                              : AccessRights::kReadOnly;
      RETURN_FRAME_IF_ERROR(RecallConflicting(file, except_deleg, access));
      RETURN_FRAME_IF_ERROR(EnsureBoundBelow(file));
      std::lock_guard<std::mutex> lock(file->mutex);
      // Fence page-ins from evicted cache ids: the client must re-register
      // (rebind) before it may fault pages again.
      if (!file->engine.HasCache(req->cache_id)) {
        {
          std::lock_guard<std::mutex> stats_lock(stats_mutex_);
          ++stats_.stale_fenced;
        }
        flight::Record(flight::Severity::kError, "dfs", "stale fence page_in",
                       req->cache_id, file->handle);
        return StatusFrame(ErrStale("page-in from evicted cache id " +
                                    std::to_string(req->cache_id)));
      }
      // Clamp the range at EOF before touching the lower pager: a striped
      // client computes extents from the *logical* length, so a sparse or
      // short stripe object legitimately sees requests at or past its own
      // end. An empty block list tells it to zero-fill.
      if (range_op) {
        Result<Offset> length = file->under->GetLength();
        if (!length.ok()) {
          return StatusFrame(length.status());
        }
        if (req->offset >= *length) {
          PageInRangeResponse body;
          net::Frame response;
          response.payload = body.Encode();
          return response;
        }
        req->size = std::min<uint64_t>(req->size,
                                       PageCeil(*length) - req->offset);
      }
      // One acquire covers the whole request, then one page_in against the
      // layer below — for kPageInRange this is the server-side mirror of
      // the client's fault clustering.
      Result<std::vector<BlockData>> recovered = file->engine.Acquire(
          req->cache_id, Range{req->offset, req->size}, access);
      if (!recovered.ok()) {
        return StatusFrame(recovered.status());
      }
      PruneEvicted(*file);
      Status pushed = PushRecovered(*file, *recovered);
      if (!pushed.ok()) {
        return StatusFrame(pushed);
      }
      Result<Buffer> data =
          file->lower_pager->PageIn(req->offset, req->size, access);
      if (!data.ok()) {
        return StatusFrame(data.status());
      }
      if (!range_op) {
        PageInResponse body;
        body.data = std::move(*data);
        net::Frame response;
        response.payload = body.Encode();
        return response;
      }
      // The lower layer may clamp at EOF; ship whatever whole pages exist
      // as a block list so the client can take the contiguous prefix.
      PageInRangeResponse body;
      Offset usable = PageFloor(data->size());
      if (data->size() % kPageSize != 0) {
        data->resize(PageCeil(data->size()));
        usable = data->size();
      }
      body.blocks.reserve(usable / kPageSize);
      for (Offset off = 0; off < usable; off += kPageSize) {
        body.blocks.push_back(
            BlockData{req->offset + off, Buffer(data->subspan(off, kPageSize))});
      }
      net::Frame response;
      response.payload = body.Encode();
      return response;
    }
    case Op::kPageOut:
    case Op::kWriteOut:
    case Op::kSyncPages: {
      Result<PageOutRequest> req =
          PageOutRequest::Decode(request.payload.span());
      if (!req.ok()) {
        return StatusFrame(req.status());
      }
      if (req->data.size() % kPageSize != 0) {
        return StatusFrame(ErrInvalidArgument("malformed page-out"));
      }
      Result<sp<ServerFile>> file_result = FileForHandle(req->handle);
      if (!file_result.ok()) {
        return StatusFrame(file_result.status());
      }
      sp<ServerFile> file = *file_result;
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.remote_page_outs;
      }
      RETURN_FRAME_IF_ERROR(
          RecallConflicting(file, except_deleg, AccessRights::kReadWrite));
      RETURN_FRAME_IF_ERROR(EnsureBoundBelow(file));
      std::lock_guard<std::mutex> lock(file->mutex);
      // Fence stale page-outs before they touch the layer below: an evicted
      // holder's writer claim was already handed to someone else, so its
      // late write-back would clobber newer data.
      auto rc = file->remote_caches.find(req->cache_id);
      if (rc == file->remote_caches.end() ||
          !file->engine.HasCache(req->cache_id)) {
        {
          std::lock_guard<std::mutex> stats_lock(stats_mutex_);
          ++stats_.stale_fenced;
        }
        flight::Record(flight::Severity::kError, "dfs",
                       "stale fence page_out", req->cache_id, file->handle);
        return StatusFrame(
            ErrStale("page-out from evicted cache id " +
                     std::to_string(req->cache_id)));
      }
      Status st = file->lower_pager->Sync(req->offset, req->data.span());
      if (!st.ok()) {
        return StatusFrame(st);
      }
      if (op == Op::kPageOut) {
        file->engine.ReleaseDropped(req->cache_id,
                                    Range{req->offset, req->data.size()},
                                    rc->second.incarnation);
      } else if (op == Op::kWriteOut) {
        file->engine.ReleaseDowngraded(req->cache_id,
                                       Range{req->offset, req->data.size()},
                                       rc->second.incarnation);
      }
      return OkFrame();
    }
    default:
      return StatusFrame(ErrNotSupported("unknown file op"));
  }
}

// --- local (Figure 7) surface ---

Result<sp<Object>> DfsServer::Resolve(const Name& name,
                                      const Credentials& creds) {
  return InDomain([&]() -> Result<sp<Object>> {
    if (!under_) {
      return ErrInvalidArgument("dfs server not stacked");
    }
    if (name.empty()) {
      return sp<Object>(std::dynamic_pointer_cast<Object>(shared_from_this()));
    }
    ASSIGN_OR_RETURN(sp<Object> object, under_->Resolve(name, creds));
    if (sp<File> under_file = narrow<File>(object)) {
      sp<DfsServer> self =
          std::dynamic_pointer_cast<DfsServer>(shared_from_this());
      return sp<Object>(std::make_shared<DfsLocalFile>(domain(), self,
                                                       under_file));
    }
    return object;  // directories: the underlying context is fine locally
  });
}

Status DfsServer::Bind(const Name& name, sp<Object> object,
                       const Credentials& creds, bool replace) {
  return InDomain([&]() -> Status {
    if (sp<DfsLocalFile> wrapped = narrow<DfsLocalFile>(object)) {
      object = wrapped->under();
    }
    return under_->Bind(name, std::move(object), creds, replace);
  });
}

Status DfsServer::Unbind(const Name& name, const Credentials& creds) {
  return InDomain([&] { return under_->Unbind(name, creds); });
}

Result<std::vector<BindingInfo>> DfsServer::List(const Credentials& creds) {
  return InDomain([&] { return under_->List(creds); });
}

Result<sp<Context>> DfsServer::CreateContext(const Name& name,
                                             const Credentials& creds) {
  return InDomain([&] { return under_->CreateContext(name, creds); });
}

Status DfsServer::StackOn(sp<StackableFs> underlying) {
  return InDomain([&]() -> Status {
    if (under_) {
      return ErrAlreadyExists("dfs server already stacked");
    }
    under_ = std::move(underlying);
    return Status::Ok();
  });
}

Result<sp<File>> DfsServer::CreateFile(const Name& name,
                                       const Credentials& creds) {
  return InDomain([&]() -> Result<sp<File>> {
    ASSIGN_OR_RETURN(sp<File> under_file, under_->CreateFile(name, creds));
    sp<DfsServer> self =
        std::dynamic_pointer_cast<DfsServer>(shared_from_this());
    return sp<File>(std::make_shared<DfsLocalFile>(domain(), self,
                                                   under_file));
  });
}

Result<FsInfo> DfsServer::GetFsInfo() {
  return InDomain([&]() -> Result<FsInfo> {
    ASSIGN_OR_RETURN(FsInfo info, under_->GetFsInfo());
    info.type = "dfs(" + info.type + ")";
    info.stack_depth += 1;
    return info;
  });
}

Status DfsServer::SyncFs() {
  return InDomain([&] { return under_->SyncFs(); });
}

void DfsServer::CollectStats(const metrics::StatsEmitter& emit) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  emit("remote_lookups", stats_.remote_lookups);
  emit("remote_page_ins", stats_.remote_page_ins);
  emit("remote_range_page_ins", stats_.remote_range_page_ins);
  emit("remote_page_outs", stats_.remote_page_outs);
  emit("remote_reads", stats_.remote_reads);
  emit("remote_writes", stats_.remote_writes);
  emit("callbacks_sent", stats_.callbacks_sent);
  emit("lower_flushes", stats_.lower_flushes);
  emit("dedup_hits", stats_.dedup_hits);
  emit("stale_fenced", stats_.stale_fenced);
  emit("compounds", stats_.compounds);
  emit("compound_sub_ops", stats_.compound_sub_ops);
  emit("delegations_granted", stats_.delegations_granted);
  emit("delegations_recalled", stats_.delegations_recalled);
  emit("delegations_returned", stats_.delegations_returned);
  emit("delegations_expired", stats_.delegations_expired);
  emit("deleg_fenced", stats_.deleg_fenced);
  emit("grace_rejects", stats_.grace_rejects);
  emit("stripe_maps_served", stats_.stripe_maps_served);
  emit("stripe_objects_created", stats_.stripe_objects_created);
  emit("stripe_replicas_marked_stale", stats_.stripe_replicas_marked_stale);
  emit("stripe_stale_reports", stats_.stripe_stale_reports);
  emit("stripe_rebuilds", stats_.stripe_rebuilds);
  emit("stripe_rebuild_bytes", stats_.stripe_rebuild_bytes);
  emit("slow_ops", stats_.slow_ops);
  emit("health_scrapes", stats_.health_scrapes);
  emit("stats_scrapes", stats_.stats_scrapes);
}

bool DfsServer::CheckCoherencyInvariants() {
  std::vector<sp<ServerFile>> files;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    files.reserve(files_by_handle_.size());
    for (const auto& [handle, file] : files_by_handle_) {
      files.push_back(file);
    }
  }
  for (const sp<ServerFile>& file : files) {
    std::lock_guard<std::mutex> lock(file->mutex);
    if (!file->engine.CheckInvariants() ||
        !file->deleg_engine.CheckInvariants()) {
      return false;
    }
  }
  return true;
}

CoherencyStats DfsServer::AggregateCoherencyStats() {
  std::vector<sp<ServerFile>> files;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    files.reserve(files_by_handle_.size());
    for (const auto& [handle, file] : files_by_handle_) {
      files.push_back(file);
    }
  }
  CoherencyStats total;
  for (const sp<ServerFile>& file : files) {
    std::lock_guard<std::mutex> lock(file->mutex);
    CoherencyStats s = file->engine.stats();
    total.flush_back_calls += s.flush_back_calls;
    total.deny_write_calls += s.deny_write_calls;
    total.blocks_recovered += s.blocks_recovered;
    total.callback_failures += s.callback_failures;
    total.evictions += s.evictions;
    total.lease_expiries += s.lease_expiries;
    total.lost_dirty_blocks += s.lost_dirty_blocks;
    total.fenced_releases += s.fenced_releases;
  }
  return total;
}

}  // namespace springfs::dfs
