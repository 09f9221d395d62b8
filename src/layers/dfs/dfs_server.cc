#include "src/layers/dfs/dfs_server.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/support/logging.h"

namespace springfs::dfs {
namespace {

// How many mutating responses the dedup window retains per server.
constexpr size_t kDedupWindow = 256;

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

// A remote client cache: a page holder in a file's engine, reachable only
// through the DFS protocol. The server sends the callbacks of an access
// together (DfsServer::RecallRound); the engine never calls a holder
// itself.
class RemoteCacheProxy : public CacheObject {
 public:
  explicit RemoteCacheProxy(const BindCacheRequest& bind)
      : node(bind.node), service(bind.service),
        client_channel(bind.client_channel), is_fs_cache(bind.is_fs_cache) {}

  // The callback that recalls `pages`, demoting them when `deny`.
  net::CallTo Callback(bool deny, Range pages) const {
    return {node, service,
            RequestFrame(deny ? Op::kCbDenyWrites : Op::kCbFlushBack,
                         CbRecallRequest{client_channel, pages.offset,
                                         pages.size})};
  }

  Result<std::vector<BlockData>> FlushBack(Range) override { return Direct(); }
  Result<std::vector<BlockData>> DenyWrites(Range) override {
    return Direct();
  }
  Result<std::vector<BlockData>> WriteBack(Range) override { return Direct(); }
  Status DeleteRange(Range) override { return Direct(); }
  Status ZeroFill(Range) override { return Direct(); }
  Status Populate(Offset, AccessRights, ByteSpan) override { return Direct(); }
  Status DestroyCache() override { return Direct(); }

  const std::string node;
  const std::string service;
  const uint64_t client_channel;
  const bool is_fs_cache;

 private:
  static Status Direct() {
    return ErrNotSupported("a DFS callback goes out only in a round");
  }
};

}  // namespace

// The server's cache object toward the layer below: callbacks propagate to
// the remote clients (no local data cache to maintain). The file owns it
// (through its channel below) and the server owns the file, so it refers
// to both weakly: a callback that finds either gone has nothing to recall.
class DfsLowerCacheObject : public FsCacheObject, public Servant {
 public:
  DfsLowerCacheObject(sp<Domain> domain, wp<DfsServer> server,
                      wp<DfsServer::ServerFile> file)
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
      sp<DfsServer::ServerFile> file = file_.lock();
      if (!file) {
        return Status::Ok();
      }
      std::lock_guard<std::mutex> lock(file->mutex);
      file->bound_below = false;
      file->lower_pager = nullptr;
      file->lower_fs_pager = nullptr;
      return Status::Ok();
    });
  }

  Status InvalidateAttributes() override {
    return InDomain([&]() -> Status {
      sp<DfsServer> server = server_.lock();
      sp<DfsServer::ServerFile> file = file_.lock();
      if (!server || !file) {
        return Status::Ok();
      }
      std::lock_guard<std::mutex> lock(file->mutex);
      return server->BroadcastAttrInvalidate(*file);
    });
  }
  Result<AttrUpdate> RecallAttributes() override { return AttrUpdate{}; }

 private:
  Result<std::vector<BlockData>> Recall(Range range, AccessRights access) {
    return InDomain([&]() -> Result<std::vector<BlockData>> {
      sp<DfsServer> server = server_.lock();
      sp<DfsServer::ServerFile> file = file_.lock();
      if (!server || !file) {
        return std::vector<BlockData>{};
      }
      trace::ScopedSpan span("dfs.lower_recall");
      server->Bump(&DfsServer::Stats::lower_flushes);
      std::lock_guard<std::mutex> lock(file->mutex);
      // A local writer recalls delegations too: it must not race a remote
      // holder's zero-round-trip serves. The dirty data recovered from
      // remote caches IS the modified data the layer below is asking for,
      // and only a successful return can carry it there mid-callback. So
      // the delegations go first, in a round of their own: an unreachable
      // holder fails the recall before any page holder gives a page up. (A
      // kWrite's delegations are gone by now, so its round sends nothing.)
      // The failure goes below as kBusy: a timeout would read as this
      // server being unreachable, and the layer below would evict its
      // claim and grant the write while remote mappers keep their pages.
      if (access == AccessRights::kReadWrite) {
        Status delegs = server->RecallRound(*file, 0, Range{}, access).status;
        if (!delegs.ok()) {
          return ErrBusy("delegation recall: " + delegs.ToString());
        }
      }
      CoherencyEngine::Recovered recovered =
          server->RecallRound(*file, 0, range, access);
      RETURN_IF_ERROR(recovered.status);
      return std::move(recovered.blocks);
    });
  }

  wp<DfsServer> server_;
  wp<DfsServer::ServerFile> file_;
};

// The local view of an exported file (Figure 7): binds are forwarded to the
// underlying file, data/attr operations delegate directly.
class DfsLocalFile : public File, public Servant {
 public:
  DfsLocalFile(sp<Domain> domain, sp<File> under)
      : Servant(std::move(domain)), under_(std::move(under)) {}

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
  sp<File> under_;
};

Result<sp<DfsServer>> DfsServer::Create(const sp<net::Node>& node,
                                        net::Network* network,
                                        const std::string& service,
                                        sp<StackableFs> under, Clock* clock,
                                        const DfsServerOptions& options) {
  net::SetFrameTypeNamer(&OpNamer);
  // Whether this server is a metadata server is decided here, once.
  std::unique_ptr<StripeMetadata> stripes;
  if (!options.stripe_targets.empty()) {
    ASSIGN_OR_RETURN(stripes, StripeMetadata::Create(
                                  network, node->name(), under,
                                  options.stripe_size, options.stripe_targets,
                                  options.stripe_replicas));
  }
  sp<DfsServer> server(new DfsServer(node, network, service, std::move(under),
                                     clock, options, std::move(stripes)));
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
                     const DfsServerOptions& options,
                     std::unique_ptr<StripeMetadata> stripes)
    : Servant(node->domain()), node_(node), network_(network),
      service_(std::move(service)), clock_(clock), options_(options),
      boot_epoch_(NextBootEpoch()), boot_time_(clock->Now()),
      under_(std::move(under)), stripes_(std::move(stripes)) {
  // Handles are unique across instances, not just within one: a restarted
  // server starts its handle space at a fresh boot-epoch prefix, so a
  // client's stale handle can never silently resolve to a *different* file
  // on the new incumbent — it always gets kStale and re-resolves by path.
  // (The striped client relies on this to fence writes per data server.)
  next_handle_ = (boot_epoch_ << 32) + 1;
  metrics::Registry::Global().RegisterProvider(this);
}

DfsServer::~DfsServer() {
  // The service stays registered: its handler holds the server weakly and
  // answers kDeadObject from now on (unless a successor replaced it).
  metrics::Registry::Global().UnregisterProvider(this);
}

std::vector<Result<net::Frame>> DfsServer::SendCallbacks(
    std::span<const net::CallTo> calls) {
  if (calls.empty()) {
    return {};
  }
  Bump(&Stats::callbacks_sent, calls.size());
  Bump(&Stats::callback_rounds);
  return network_->CallAll(node_->name(), calls);
}

void DfsServer::Bump(uint64_t Stats::*field, uint64_t n) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.*field += n;
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

std::vector<sp<DfsServer::ServerFile>> DfsServer::Files() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<sp<ServerFile>> files;
  files.reserve(files_by_handle_.size());
  for (const auto& [handle, file] : files_by_handle_) {
    files.push_back(file);
  }
  return files;
}

Status DfsServer::EnsureBoundBelow(const sp<ServerFile>& file) {
  std::lock_guard<std::mutex> bind_lock(file->bind_mutex);
  {
    std::lock_guard<std::mutex> lock(file->mutex);
    if (file->bound_below) {
      return Status::Ok();
    }
  }
  wp<DfsServer> self = std::dynamic_pointer_cast<DfsServer>(shared_from_this());
  ASSIGN_OR_RETURN(
      sp<OneChannelManager> below,
      BindBelow(*file->under,
                std::make_shared<DfsLowerCacheObject>(domain(), self, file),
                file->handle, "dfs-server"));
  sp<OneChannelManager> old;  // closes out of the file's lock
  std::lock_guard<std::mutex> lock(file->mutex);
  file->lower_pager = below->pager();
  file->lower_fs_pager = narrow<FsPagerObject>(file->lower_pager);
  old = std::exchange(file->below, std::move(below));
  file->bound_below = true;
  return Status::Ok();
}

void DfsServer::DropLapsedDelegations(ServerFile& file) {
  uint64_t now = clock_->Now();
  for (auto it = file.delegations.begin(); it != file.delegations.end();) {
    it = now >= it->second.expires_at ? DropDelegation(file, it, true)
                                      : std::next(it);
  }
}

std::map<uint64_t, DfsServer::Delegation>::iterator DfsServer::DropDelegation(
    ServerFile& file, std::map<uint64_t, Delegation>::iterator it,
    bool expired) {
  Bump(expired ? &Stats::delegations_expired : &Stats::delegations_recalled);
  flight::Record(flight::Severity::kInfo, "dfs",
                 expired ? "delegation expired" : "delegation recalled",
                 it->first, file.handle);
  return file.delegations.erase(it);
}

CoherencyEngine::Recovered DfsServer::RecallRound(ServerFile& file,
                                                  uint64_t requester,
                                                  Range range,
                                                  AccessRights access) {
  Result<std::vector<CoherencyEngine::Recall>> pages =
      file.engine.Conflicts(requester, range, access);
  if (!pages.ok()) {
    return {{}, pages.status()};
  }
  // Every callback goes out at once, delegation recalls first. A lapsed
  // delegation is dropped without a call.
  trace::ScopedSpan span("dfs.callback_round");
  std::vector<net::CallTo> calls;
  if (access == AccessRights::kReadWrite) {
    DropLapsedDelegations(file);
    for (const auto& [deleg_id, deleg] : file.delegations) {
      calls.push_back({deleg.node, deleg.service,
                       RequestFrame(Op::kCbRecallDeleg,
                                    CbRecallDelegRequest{deleg_id})});
    }
  }
  size_t delegs = calls.size();
  for (const CoherencyEngine::Recall& recall : *pages) {
    calls.push_back(static_cast<const RemoteCacheProxy&>(*recall.cache)
                        .Callback(recall.deny, recall.pages));
  }
  std::vector<Result<net::Frame>> responses = SendCallbacks(calls);

  // The answers come back in the order the callbacks went out. An answer
  // drops its delegation, and so does a holder that is gone or whose lease
  // lapsed meanwhile. An unreachable holder still inside its lease keeps
  // its claim and fails the change rather than race its local serves, and
  // the page grant fails with it.
  Status recalled = Status::Ok();
  auto deleg = file.delegations.begin();
  for (size_t i = 0; i < delegs; ++i) {
    Status answer = Reply<Empty>(responses[i]).status();
    if (answer.ok() || answer.code() == ErrorCode::kDeadObject ||
        answer.code() == ErrorCode::kNotFound ||
        clock_->Now() >= deleg->second.expires_at) {
      deleg = DropDelegation(file, deleg, false);
      continue;
    }
    if (recalled.ok()) {
      recalled = answer;
    }
    ++deleg;
  }
  std::vector<Result<std::vector<BlockData>>> answers;
  for (size_t i = delegs; i < responses.size(); ++i) {
    Result<CbRecallResponse> answer = Reply<CbRecallResponse>(responses[i]);
    answers.push_back(answer.ok() ? Result<std::vector<BlockData>>(
                                        std::move(answer->blocks))
                                  : answer.status());
  }
  return file.engine.Grant(requester, range, access, *pages,
                           std::move(answers), std::move(recalled));
}

Status DfsServer::RecallDelegations(ServerFile& file) {
  std::lock_guard<std::mutex> lock(file.mutex);
  return RecallRound(file, 0, Range{}, AccessRights::kReadWrite).status;
}

Status DfsServer::PushRecovered(ServerFile& file,
                                const CoherencyEngine::Recovered& recovered) {
  for (const BlockData& block : recovered.blocks) {
    Buffer page = block.data;
    page.resize(kPageSize);
    RETURN_IF_ERROR(file.lower_pager->Sync(block.offset, page.span()));
  }
  return recovered.status;
}

Status DfsServer::BroadcastAttrInvalidate(ServerFile& file) {
  std::vector<net::CallTo> calls;
  for (const sp<CacheObject>& cache : file.engine.Caches()) {
    const auto& proxy = static_cast<const RemoteCacheProxy&>(*cache);
    if (proxy.is_fs_cache) {
      calls.push_back({proxy.node, proxy.service,
                       RequestFrame(Op::kCbAttrInvalidate,
                                    CbAttrInvalidateRequest{
                                        proxy.client_channel})});
    }
  }
  // Only the transport verdict matters: a client that answers with an
  // error still got the invalidation.
  for (const Result<net::Frame>& response : SendCallbacks(calls)) {
    if (!response.ok() && response.code() != ErrorCode::kConnectionLost) {
      return response.status();
    }
  }
  return Status::Ok();
}

template <class Req, class Handler>
net::Frame DfsServer::ServeFile(const net::Frame& request, Handler&& handler) {
  return Answer<Req>(request, [&](Req& req) {
    using Out = decltype(handler(req, std::declval<sp<ServerFile>&>()));
    Result<sp<ServerFile>> file = FileForHandle(req.handle);
    return file.ok() ? Out(handler(req, *file)) : Out(file.status());
  });
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
      Bump(&Stats::dedup_hits);
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
      while (dedup_order_.size() > kDedupWindow) {
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
      elapsed_ns < options_.slow_op_threshold_ns) {
    return;
  }
  SlowOp slow;
  slow.op = op;
  if (CarriesLeadingHandle(op) && request.payload.size() >= 8) {
    slow.handle = LoadLe<uint64_t>(request.payload.data());
  }
  slow.bytes = request.payload.size();
  slow.elapsed_ns = elapsed_ns;
  slow.trace_id = request.trace_id;
  slow.at_ns = clock_->Now();
  {
    std::lock_guard<std::mutex> lock(slow_mutex_);
    slow_ops_.push_back(slow);
    while (slow_ops_.size() > kSlowOpRing) {
      slow_ops_.pop_front();
    }
  }
  Bump(&Stats::slow_ops);
  char message[52];
  std::snprintf(message, sizeof(message), "slow op %s", OpName(op));
  flight::Record(flight::Severity::kWarn, "dfs_slow", message, elapsed_ns,
                 slow.handle);
}

std::vector<DfsServer::SlowOp> DfsServer::SlowOps() const {
  std::lock_guard<std::mutex> lock(slow_mutex_);
  return {slow_ops_.begin(), slow_ops_.end()};
}

net::Frame DfsServer::Dispatch(Op op, const net::Frame& request) {
  if (IsMutating(op) && InGracePeriod()) {
    Bump(&Stats::grace_rejects);
    flight::Record(flight::Severity::kWarn, "dfs", "grace reject",
                   static_cast<uint64_t>(op), boot_epoch_);
    return ReplyFrame(ErrTimedOut(
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
      return ServeFile<OpenRequest>(request, [&](auto& req, auto& file) {
        return HandleOpen(req, file);
      });
    case Op::kGetStripeMap:
    case Op::kReportStaleReplica:
      // The metadata role's ops; a data server does not resolve the handle.
      if (!stripes_) {
        return ReplyFrame(ErrInvalidArgument(
            "server has no stripe targets (not a metadata server); use the "
            "single-server path"));
      }
      if (op == Op::kGetStripeMap) {
        return ServeFile<HandleRequest>(request, [&](auto&, auto& file) {
          return stripes_->GetMap(file->path, *file->under);
        });
      }
      return ServeFile<ReportStaleRequest>(request, [&](auto& req, auto& file) {
        return stripes_->ReportStale(file->path, *file->under, req);
      });
    case Op::kGetStats:
      return Answer<Empty>(request, [&](Empty&) { return HandleGetStats(); });
    case Op::kGetHealth:
      return Answer<Empty>(request, [&](Empty&) { return HandleGetHealth(); });
    case Op::kCompound:
      return Answer<CompoundRequest>(
          request, [&](auto& req) { return HandleCompound(req); });
    default:
      return HandleFileOp(op, request);
  }
}

net::Frame DfsServer::HandleNameOp(Op op, const net::Frame& request) {
  Credentials creds = Credentials::System();
  Result<PathRequest> req = Decode<PathRequest>(request.payload.span());
  if (!req.ok()) {
    return ReplyFrame(req.status());
  }
  const std::string& path = req->path;
  Bump(&Stats::remote_lookups);
  Result<Name> parsed = Name::Parse(path);
  if (!parsed.ok()) {
    return ReplyFrame(parsed.status());
  }
  const Name& name = *parsed;
  switch (op) {
    case Op::kLookup:
      return ReplyFrame([&]() -> Result<LookupResponse> {
        ASSIGN_OR_RETURN(sp<Object> object, under_->Resolve(name, creds));
        if (narrow<Context>(object)) {
          return LookupResponse{.is_dir = true};
        }
        if (!narrow<File>(object)) {
          return ErrWrongType("not a file or directory");
        }
        ASSIGN_OR_RETURN(sp<ServerFile> file, FileForPath(path));
        return LookupResponse{.handle = file->handle};
      }());
    case Op::kCreate:
      return ReplyFrame([&]() -> Result<CreateResponse> {
        RETURN_IF_ERROR(under_->CreateFile(name, creds).status());
        ASSIGN_OR_RETURN(sp<ServerFile> file, FileForPath(path));
        return CreateResponse{file->handle};
      }());
    case Op::kMkdir:
      return ReplyFrame(under_->CreateContext(name, creds).status());
    case Op::kRemove: {
      // A remove is a change: it recalls the file's delegations first, so
      // no holder goes on serving the removed file from its cache.
      sp<ServerFile> file;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = handles_by_path_.find(path);
        if (it != handles_by_path_.end()) {
          file = files_by_handle_.at(it->second);
        }
      }
      Status st = file ? RecallDelegations(*file) : Status::Ok();
      if (st.ok()) {
        st = under_->Unbind(name, creds);
      }
      if (st.ok()) {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = handles_by_path_.find(path);
        if (it != handles_by_path_.end()) {
          files_by_handle_.erase(it->second);
          handles_by_path_.erase(it);
        }
      }
      return ReplyFrame(st);
    }
    case Op::kReadDir:
      return ReplyFrame([&]() -> Result<ReadDirResponse> {
        ASSIGN_OR_RETURN(sp<Object> dir_obj, under_->Resolve(name, creds));
        sp<Context> dir = narrow<Context>(dir_obj);
        if (!dir) {
          return ErrNotADirectory(path);
        }
        ASSIGN_OR_RETURN(std::vector<BindingInfo> entries, dir->List(creds));
        ReadDirResponse body;
        for (const BindingInfo& entry : entries) {
          body.entries.push_back({entry.name, entry.is_context});
        }
        return body;
      }());
    default:
      return ReplyFrame(ErrNotSupported("unknown name op"));
  }
}

Result<OpenResponse> DfsServer::HandleOpen(const OpenRequest& req,
                                           const sp<ServerFile>& file) {
  OpenResponse body;
  body.handle = file->handle;
  // Delegations need a live lease clock and a callback address; without
  // either, or for any kind but a read delegation, the open succeeds plain.
  if (req.want_delegation != DelegationKind::kRead || req.node.empty() ||
      options_.lease_ns == 0) {
    return body;
  }
  std::lock_guard<std::mutex> lock(file->mutex);
  DropLapsedDelegations(*file);
  // Read delegations always coexist (NFSv4 rules), so a grant needs no
  // admission check. The expiry ships to the client as an ABSOLUTE clock
  // value and is never renewed, so both sides agree on the exact instant
  // local serves must stop (the simulation shares one clock; a real system
  // would subtract a safety margin client-side).
  uint64_t deleg_id = NextDelegId();
  uint64_t expires_at = clock_->Now() + options_.lease_ns;
  file->delegations[deleg_id] = {req.node, req.service, expires_at};
  body.deleg_id = deleg_id;
  body.expires_at = expires_at;
  Bump(&Stats::delegations_granted);
  flight::Record(flight::Severity::kInfo, "dfs", "delegation granted",
                 deleg_id, file->handle);
  return body;
}

GetStatsResponse DfsServer::HandleGetStats() {
  GetStatsResponse body;
  body.snapshot = metrics::Registry::Global().Collect();
  // Fold this server's own counters in under "self/": in a simulated
  // multi-server world every server shares the process registry above, so
  // the self section is what distinguishes one scrape target from another.
  CollectStats([&](const std::string& name, uint64_t value) {
    body.snapshot.values["self/" + name] += value;
  });
  Bump(&Stats::stats_scrapes);
  return body;
}

HealthResponse DfsServer::HandleGetHealth() {
  HealthResponse body;
  body.boot_epoch = boot_epoch_;
  body.uptime_ns = clock_->Now() - boot_time_;
  if (stripes_) {
    stripes_->FillHealth(body);
  }
  Bump(&Stats::health_scrapes);
  for (const sp<ServerFile>& file : Files()) {
    std::lock_guard<std::mutex> lock(file->mutex);
    body.delegations_active += file->delegations.size();
    body.leases_active += file->engine.NumCaches();
  }
  {
    std::lock_guard<std::mutex> lock(dedup_mutex_);
    body.dedup_entries = dedup_.size();
  }
  return body;
}

Result<size_t> DfsServer::RunRebuildPass() {
  return stripes_ ? stripes_->RunRebuildPass() : size_t{0};
}

CompoundResponse DfsServer::HandleCompound(const CompoundRequest& req) {
  Bump(&Stats::compounds);
  CompoundResponse out;
  uint64_t current_handle = 0;
  for (const CompoundRequest::SubOp& sub : req.ops) {
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
        current_handle != 0 &&
        LoadLe<uint64_t>(sub_request.payload.data()) == 0) {
      StoreLe(sub_request.payload.data(), current_handle);
    }
    net::Frame sub_response = Dispatch(op, sub_request);
    Bump(&Stats::compound_sub_ops);
    Status st = sub_response.ToStatus();
    result.status = static_cast<int32_t>(st.code());
    result.body = st.ok() ? sub_response.payload : Buffer(st.message());
    out.results.push_back(std::move(result));
    if (!st.ok()) {
      break;  // stop at the first failing op; later ops are not attempted
    }
    // Track the current handle through the ops that produce one.
    if (op == Op::kLookup) {
      Result<LookupResponse> looked = Reply<LookupResponse>(sub_response);
      if (looked.ok()) {
        current_handle = looked->is_dir ? 0 : looked->handle;
      }
    } else if (op == Op::kCreate) {
      Result<CreateResponse> created = Reply<CreateResponse>(sub_response);
      if (created.ok()) {
        current_handle = created->handle;
      }
    } else if (op == Op::kOpen) {
      Result<OpenResponse> opened = Reply<OpenResponse>(sub_response);
      if (opened.ok()) {
        current_handle = opened->handle;
      }
    }
  }
  return out;
}

net::Frame DfsServer::HandleFileOp(Op op, const net::Frame& request) {
  switch (op) {
    case Op::kGetAttr:
      return ServeFile<HandleRequest>(
          request, [&](auto&, auto& file) -> Result<GetAttrResponse> {
            ASSIGN_OR_RETURN(FileAttributes attrs, file->under->Stat());
            return GetAttrResponse{attrs};
          });
    case Op::kSetTimes:
      return ServeFile<SetTimesRequest>(request, [&](auto& req, auto& file) {
        return SetAttr(file, [&] {
          return file->under->SetTimes(req.atime_ns, req.mtime_ns);
        });
      });
    case Op::kSetLength:
      return ServeFile<SetLengthRequest>(request, [&](auto& req, auto& file) {
        return SetAttr(file,
                       [&] { return file->under->SetLength(req.length); });
      });
    case Op::kGetLength:
      return ServeFile<HandleRequest>(
          request, [&](auto&, auto& file) -> Result<GetLengthResponse> {
            ASSIGN_OR_RETURN(Offset length, file->under->GetLength());
            return GetLengthResponse{length};
          });
    case Op::kRead:
      return ServeFile<ReadRequest>(
          request, [&](auto& req, auto& file) -> Result<ReadResponse> {
            Bump(&Stats::remote_reads);
            RETURN_IF_ERROR(PrepareWholeFileIo(
                file, Range{req.offset, req.length}, AccessRights::kReadOnly));
            Buffer out(req.length);
            ASSIGN_OR_RETURN(size_t n,
                             file->under->Read(req.offset, out.mutable_span()));
            out.resize(n);
            return ReadResponse{std::move(out)};
          });
    case Op::kWrite:
      return ServeFile<WriteRequest>(
          request, [&](auto& req, auto& file) -> Result<WriteResponse> {
            Bump(&Stats::remote_writes);
            // A wire write recalls EVERY delegation, including the
            // writer's own (it chose the wire path, so local attr serves
            // must stop being authoritative).
            RETURN_IF_ERROR(PrepareWholeFileIo(
                file, Range{req.offset, req.data.size()},
                AccessRights::kReadWrite));
            ASSIGN_OR_RETURN(size_t n,
                             file->under->Write(req.offset, req.data.span()));
            std::lock_guard<std::mutex> lock(file->mutex);
            RETURN_IF_ERROR(BroadcastAttrInvalidate(*file));
            return WriteResponse{n};
          });
    case Op::kSyncFile:
      return ServeFile<HandleRequest>(request, [&](auto&, auto& file) {
        return file->under->SyncFile();
      });

    case Op::kBindCache:
      return ServeFile<BindCacheRequest>(
          request, [&](auto& req, auto& file) -> Result<BindCacheResponse> {
            RETURN_IF_ERROR(EnsureBoundBelow(file));
            std::lock_guard<std::mutex> lock(file->mutex);
            uint64_t cache_id = file->next_cache_id++;
            file->engine.AddCache(cache_id,
                                  std::make_shared<RemoteCacheProxy>(req));
            return BindCacheResponse{cache_id};
          });
    case Op::kUnbindCache:
      return ServeFile<UnbindCacheRequest>(request, [&](auto& req, auto& file) {
        std::lock_guard<std::mutex> lock(file->mutex);
        file->engine.RemoveCache(req.cache_id);
        return Status::Ok();
      });
    case Op::kPageIn:
      return ServeFile<PageInRequest>(
          request, [&](auto& req, auto& file) -> Result<PageInResponse> {
            ASSIGN_OR_RETURN(Buffer data, PageInForRemote(op, req, file));
            return PageInResponse{std::move(data)};
          });
    case Op::kPageInRange:
      return ServeFile<PageInRequest>(
          request, [&](auto& req, auto& file) -> Result<PageInRangeResponse> {
            ASSIGN_OR_RETURN(Buffer data, PageInForRemote(op, req, file));
            // The lower layer may clamp at EOF; ship whatever whole pages
            // exist as a block list so the client can take the contiguous
            // prefix.
            data.resize(PageCeil(data.size()));
            PageInRangeResponse body;
            for (Offset off = 0; off < data.size(); off += kPageSize) {
              body.blocks.push_back(BlockData{
                  req.offset + off, Buffer(data.subspan(off, kPageSize))});
            }
            return body;
          });
    case Op::kPageOut:
    case Op::kWriteOut:
    case Op::kSyncPages:
      return Answer<PageOutRequest>(request, [&](auto& req) {
        return PageOutFromRemote(op, req);
      });
    default:
      return ReplyFrame(ErrNotSupported("unknown file op"));
  }
}

Status DfsServer::SetAttr(const sp<ServerFile>& file,
                          const std::function<Status()>& apply) {
  // `apply` runs unlocked: a truncation below recalls this server's pages
  // through DfsLowerCacheObject, which takes file->mutex.
  RETURN_IF_ERROR(RecallDelegations(*file));
  RETURN_IF_ERROR(apply());
  std::lock_guard<std::mutex> lock(file->mutex);
  return BroadcastAttrInvalidate(*file);
}

Status DfsServer::PrepareWholeFileIo(const sp<ServerFile>& file, Range range,
                                     AccessRights access) {
  RETURN_IF_ERROR(EnsureBoundBelow(file));
  std::lock_guard<std::mutex> lock(file->mutex);
  return PushRecovered(*file, RecallRound(*file, 0, range, access));
}

Result<Buffer> DfsServer::PageInForRemote(Op op, PageInRequest& req,
                                          const sp<ServerFile>& file) {
  bool range_op = op == Op::kPageInRange;
  Bump(range_op ? &Stats::remote_range_page_ins : &Stats::remote_page_ins);
  if (range_op && (req.offset % kPageSize != 0 || req.size == 0)) {
    return ErrInvalidArgument("malformed page-in-range");
  }
  AccessRights access =
      req.write_access ? AccessRights::kReadWrite : AccessRights::kReadOnly;
  RETURN_IF_ERROR(EnsureBoundBelow(file));
  std::lock_guard<std::mutex> lock(file->mutex);
  // Fence page-ins from evicted cache ids: the client must re-register
  // (rebind) before it may fault pages again.
  if (!file->engine.HasCache(req.cache_id)) {
    Bump(&Stats::stale_fenced);
    flight::Record(flight::Severity::kError, "dfs", "stale fence page_in",
                   req.cache_id, file->handle);
    return ErrStale("page-in from evicted cache id " +
                    std::to_string(req.cache_id));
  }
  // Clamp the range at EOF before touching the lower pager: a striped
  // client computes extents from the *logical* length, so a sparse or
  // short stripe object legitimately sees requests at or past its own
  // end. No data (an empty block list) tells it to zero-fill.
  bool past_eof = false;
  if (range_op) {
    ASSIGN_OR_RETURN(Offset length, file->under->GetLength());
    past_eof = req.offset >= length;
    req.size = past_eof ? 0
                        : std::min<uint64_t>(req.size,
                                             PageCeil(length) - req.offset);
  }
  // One round covers the whole request (and, for a write, the file's
  // delegations), then one page_in against the layer below — for
  // kPageInRange this is the server-side mirror of the client's fault
  // clustering.
  RETURN_IF_ERROR(PushRecovered(
      *file, RecallRound(*file, req.cache_id, Range{req.offset, req.size},
                         access)));
  if (past_eof) {
    return Buffer();
  }
  return file->lower_pager->PageIn(req.offset, req.size, access);
}

Status DfsServer::PageOutFromRemote(Op op, const PageOutRequest& req) {
  if (req.data.size() % kPageSize != 0) {
    return ErrInvalidArgument("malformed page-out");
  }
  ASSIGN_OR_RETURN(sp<ServerFile> file, FileForHandle(req.handle));
  Bump(&Stats::remote_page_outs);
  RETURN_IF_ERROR(EnsureBoundBelow(file));
  std::lock_guard<std::mutex> lock(file->mutex);
  // Fence stale page-outs before they touch the layer below: an evicted
  // holder's writer claim was already handed to someone else, so its
  // late write-back would clobber newer data.
  if (!file->engine.HasCache(req.cache_id)) {
    Bump(&Stats::stale_fenced);
    flight::Record(flight::Severity::kError, "dfs", "stale fence page_out",
                   req.cache_id, file->handle);
    return ErrStale("page-out from evicted cache id " +
                    std::to_string(req.cache_id));
  }
  // A page-out changes the file, so it recalls the delegations.
  RETURN_IF_ERROR(
      RecallRound(*file, 0, Range{}, AccessRights::kReadWrite).status);
  RETURN_IF_ERROR(file->lower_pager->Sync(req.offset, req.data.span()));
  Range range{req.offset, req.data.size()};
  if (op == Op::kPageOut) {
    file->engine.ReleaseDropped(req.cache_id, range);
  } else if (op == Op::kWriteOut) {
    file->engine.ReleaseDowngraded(req.cache_id, range);
  }
  return Status::Ok();
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
      return sp<Object>(std::make_shared<DfsLocalFile>(domain(), under_file));
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
    return sp<File>(std::make_shared<DfsLocalFile>(domain(), under_file));
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
  emit("callback_rounds", stats_.callback_rounds);
  emit("lower_flushes", stats_.lower_flushes);
  emit("dedup_hits", stats_.dedup_hits);
  emit("stale_fenced", stats_.stale_fenced);
  emit("compounds", stats_.compounds);
  emit("compound_sub_ops", stats_.compound_sub_ops);
  emit("delegations_granted", stats_.delegations_granted);
  emit("delegations_recalled", stats_.delegations_recalled);
  emit("delegations_expired", stats_.delegations_expired);
  emit("grace_rejects", stats_.grace_rejects);
  emit("slow_ops", stats_.slow_ops);
  emit("health_scrapes", stats_.health_scrapes);
  emit("stats_scrapes", stats_.stats_scrapes);
  if (stripes_) {
    stripes_->CollectStats(emit);
  }
}

bool DfsServer::CheckCoherencyInvariants() {
  for (const sp<ServerFile>& file : Files()) {
    std::lock_guard<std::mutex> lock(file->mutex);
    if (!file->engine.CheckInvariants()) {
      return false;
    }
  }
  return true;
}

CoherencyStats DfsServer::AggregateCoherencyStats() {
  CoherencyStats total;
  for (const sp<ServerFile>& file : Files()) {
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
