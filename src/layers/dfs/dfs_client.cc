#include "src/layers/dfs/dfs_client.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "src/naming/views.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/support/logging.h"

namespace springfs::dfs {
namespace {

std::string UniqueCallbackService() {
  static std::atomic<uint64_t> next{1};
  return "dfs-cb-" + std::to_string(next.fetch_add(1));
}

// A recall can arrive for a delegation whose grant response is still in
// flight to us; remember a bounded number of such ids so the grant is
// discarded on arrival instead of installed stale.
constexpr size_t kMaxUnknownRecalls = 64;

// Sub-op `i` of a compound's results, decoded, or its error.
template <class M>
Result<M> SubResult(const CompoundResponse& results, size_t i) {
  if (i >= results.results.size()) {
    return ErrCorrupted("compound sub-op " + std::to_string(i) +
                        " has no result");
  }
  const CompoundResponse::SubResult& sub = results.results[i];
  if (sub.status != 0) {
    return Status(static_cast<ErrorCode>(sub.status), sub.body.ToString());
  }
  return Decode<M>(sub.body.span());
}

}  // namespace

uint64_t NewRequestId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

void RetryState::Backoff(Clock* clock) {
  uint64_t backoff = next_backoff_ns == 0 ? kBackoffBaseNs : next_backoff_ns;
  clock->SleepNs(backoff);
  next_backoff_ns = std::min(backoff * 2, kBackoffMaxNs);
  ++attempt;
}

// Carries pager traffic for one local channel over the DFS protocol.
class RemotePagerObject : public FsPagerObject, public Servant {
 public:
  RemotePagerObject(sp<Domain> domain, sp<DfsClient> client, uint64_t handle,
                    uint64_t local_channel)
      : Servant(std::move(domain)), client_(std::move(client)),
        handle_(handle), local_channel_(local_channel) {}

  Result<Buffer> PageIn(Offset offset, Offset size,
                        AccessRights access) override {
    return InDomain([&]() -> Result<Buffer> {
      trace::ScopedSpan span("dfs.page_in");
      ASSIGN_OR_RETURN(uint64_t cache_id,
                       client_->ServerCacheIdFor(local_channel_));
      PageInRequest body{handle_, cache_id, offset, size,
                         access == AccessRights::kReadWrite};
      if (size <= kPageSize) {
        ASSIGN_OR_RETURN(
            PageInResponse page,
            CheckStale(client_->Invoke<PageInResponse>(Op::kPageIn, body)));
        return std::move(page.data);
      }
      // A fault cluster: one kPageInRange round trip returns the whole
      // block list instead of one kPageIn per page.
      ASSIGN_OR_RETURN(PageInRangeResponse range,
                       CheckStale(client_->Invoke<PageInRangeResponse>(
                           Op::kPageInRange, body)));
      // Reassemble the contiguous prefix starting at `offset`; the server
      // may have clamped the tail at EOF.
      Buffer out;
      for (const BlockData& block : range.blocks) {
        if (block.offset != offset + out.size()) {
          break;  // hole: keep only the contiguous prefix
        }
        out.append(block.data.span());
      }
      if (out.size() == 0) {
        return ErrCorrupted("page_in_range returned no usable blocks");
      }
      return out;
    });
  }
  Status PageOut(Offset offset, ByteSpan data) override {
    return PageWrite(Op::kPageOut, offset, data);
  }
  Status WriteOut(Offset offset, ByteSpan data) override {
    return PageWrite(Op::kWriteOut, offset, data);
  }
  Status Sync(Offset offset, ByteSpan data) override {
    return PageWrite(Op::kSyncPages, offset, data);
  }
  void DoneWithPagerObject() override {
    InDomain([&] { client_->DropChannel(local_channel_); });
  }

  Result<FileAttributes> GetAttributes() override {
    return InDomain([&]() -> Result<FileAttributes> {
      ASSIGN_OR_RETURN(GetAttrResponse attrs,
                       client_->Invoke<GetAttrResponse>(
                           Op::kGetAttr, HandleRequest{handle_}));
      return attrs.attrs;
    });
  }
  Status WriteAttributes(const AttrUpdate& update) override {
    return InDomain([&]() -> Status {
      if (update.size) {
        RETURN_IF_ERROR(client_
                            ->Invoke(Op::kSetLength,
                                     SetLengthRequest{handle_, *update.size})
                            .status());
      }
      if (update.atime_ns || update.mtime_ns) {
        RETURN_IF_ERROR(
            client_
                ->Invoke(Op::kSetTimes,
                         SetTimesRequest{handle_, update.atime_ns.value_or(0),
                                         update.mtime_ns.value_or(0)})
                .status());
      }
      return Status::Ok();
    });
  }

 private:
  Status PageWrite(Op op, Offset offset, ByteSpan data) {
    return InDomain([&]() -> Status {
      trace::ScopedSpan span("dfs.page_out");
      ASSIGN_OR_RETURN(uint64_t cache_id,
                       client_->ServerCacheIdFor(local_channel_));
      return CheckStale(client_->Invoke(op, PageOutRequest{handle_, cache_id,
                                                           offset,
                                                           Buffer(data)}))
          .status();
    });
  }

  // A kStale response means the server evicted this cache or forgot the
  // handle (it restarted): the channel's pages are not trusted anymore.
  // Tear the channel down locally so the next access re-binds afresh.
  template <class M>
  Result<M> CheckStale(Result<M> reply) {
    if (reply.code() == ErrorCode::kStale) {
      client_->InvalidateChannel(local_channel_);
    }
    return reply;
  }

  sp<DfsClient> client_;
  uint64_t handle_;
  uint64_t local_channel_;
};

// A remote file as seen on the client node. Identified durably by path:
// the server's handle space resets across a restart, so a kStale response
// triggers one re-resolution by path and one retry.
//
// A RemoteFile may hold a read delegation (DESIGN.md §13): until the
// server recalls it or its absolute expiry passes, re-opens, Stat/GetLength,
// and reads covered by the prefetched first page are served locally with
// zero round trips. Without a delegation, a compound open primes a one-shot
// close-to-open cache (cto_*) consumed by the first Stat and first covered
// Read.
class RemoteFile : public File, public Servant {
 public:
  RemoteFile(sp<Domain> domain, sp<DfsClient> client, std::string path,
             uint64_t handle)
      : Servant(std::move(domain)), client_(std::move(client)),
        path_(std::move(path)), handle_(handle) {}

  uint64_t handle() const { return handle_.load(); }
  void UpdateHandle(uint64_t handle) { handle_.store(handle); }

  // True while a delegation is valid; lazily drops an expired one.
  bool HasValidDelegation() {
    uint64_t expired = 0;
    {
      std::lock_guard<std::mutex> lock(deleg_mutex_);
      if (!has_deleg_) {
        return false;
      }
      if (client_->clock_->Now() < deleg_.expires_at) {
        return true;
      }
      expired = deleg_.id;
      has_deleg_ = false;
      deleg_ = {};
    }
    client_->ForgetDelegation(expired);
    return false;
  }

  void InstallDelegation(const OpenResponse& open,
                         const Result<GetAttrResponse>& attrs,
                         const Result<ReadResponse>& first_page) {
    std::lock_guard<std::mutex> lock(deleg_mutex_);
    has_deleg_ = true;
    deleg_ = {};
    deleg_.id = open.deleg_id;
    deleg_.expires_at = open.expires_at;
    if (attrs.ok()) {
      deleg_.attrs = attrs->attrs;
      deleg_.attrs_valid = true;
    }
    if (first_page.ok()) {
      deleg_.prefetch = first_page->data;
      deleg_.prefetch_valid = true;
    }
  }

  void InstallPrefetch(const Result<GetAttrResponse>& attrs,
                       const Result<ReadResponse>& first_page) {
    std::lock_guard<std::mutex> lock(deleg_mutex_);
    if (attrs.ok()) {
      cto_attrs_ = attrs->attrs;
      cto_attrs_valid_ = true;
    }
    if (first_page.ok()) {
      cto_prefetch_ = first_page->data;
      cto_prefetch_valid_ = true;
    }
  }

  // Local-only teardown (recall raced, server restarted, caches
  // invalidated).
  void DropDelegation() {
    std::lock_guard<std::mutex> lock(deleg_mutex_);
    has_deleg_ = false;
    deleg_ = {};
    cto_attrs_valid_ = false;
    cto_prefetch_valid_ = false;
  }

  // Serves a kCbRecallDeleg: stop serving locally. A recall of another
  // delegation (ids are never reused), or one that comes after we already
  // dropped the delegation, changes nothing.
  void HandleDelegRecall(uint64_t deleg_id) {
    std::lock_guard<std::mutex> lock(deleg_mutex_);
    if (has_deleg_ && deleg_.id == deleg_id) {
      has_deleg_ = false;
      deleg_ = {};
    }
  }

  Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                               AccessRights) override {
    return InDomain([&]() -> Result<sp<CacheRights>> {
      Result<sp<CacheRights>> rights =
          client_->BindRemote(handle_.load(), caller);
      if (!rights.ok() && rights.code() == ErrorCode::kStale) {
        ASSIGN_OR_RETURN(uint64_t fresh, client_->RebindHandle(path_));
        handle_.store(fresh);
        rights = client_->BindRemote(fresh, caller);
      }
      return rights;
    });
  }

  Result<Offset> GetLength() override {
    return InDomain([&]() -> Result<Offset> {
      if (std::optional<FileAttributes> local = ServeAttrsLocally()) {
        return Offset{local->size};
      }
      ASSIGN_OR_RETURN(GetLengthResponse body,
                       CallFile<GetLengthResponse>(Op::kGetLength,
                                                   HandleRequest{}));
      return Offset{body.length};
    });
  }

  Status SetLength(Offset length) override {
    return InDomain([&]() -> Status {
      InvalidateLocalCaches();
      return CallFile(Op::kSetLength, SetLengthRequest{.length = length})
          .status();
    });
  }

  Result<size_t> Read(Offset offset, MutableByteSpan out) override {
    return InDomain([&]() -> Result<size_t> {
      if (std::optional<size_t> local = ServeReadLocally(offset, out)) {
        return *local;
      }
      ASSIGN_OR_RETURN(
          ReadResponse body,
          CallFile<ReadResponse>(Op::kRead, ReadRequest{.offset = offset,
                                                        .length = out.size()}));
      return body.data.ReadAt(0, out);
    });
  }

  Result<size_t> Write(Offset offset, ByteSpan data) override {
    return InDomain([&]() -> Result<size_t> {
      // A wire write invalidates whatever this client cached locally; the
      // server additionally recalls every delegation on the file
      // (including ours) before applying it.
      InvalidateLocalCaches();
      ASSIGN_OR_RETURN(WriteResponse body,
                       CallFile<WriteResponse>(
                           Op::kWrite, WriteRequest{.offset = offset,
                                                    .data = Buffer(data)}));
      return size_t{body.written};
    });
  }

  Result<FileAttributes> Stat() override {
    return InDomain([&]() -> Result<FileAttributes> {
      if (std::optional<FileAttributes> local = ServeAttrsLocally()) {
        return *local;
      }
      ASSIGN_OR_RETURN(
          GetAttrResponse body,
          CallFile<GetAttrResponse>(Op::kGetAttr, HandleRequest{}));
      // Refresh the delegation's attr cache so the next Stat is local
      // again.
      {
        std::lock_guard<std::mutex> lock(deleg_mutex_);
        if (has_deleg_ && client_->clock_->Now() < deleg_.expires_at) {
          deleg_.attrs = body.attrs;
          deleg_.attrs_valid = true;
        }
      }
      return body.attrs;
    });
  }

  Status SetTimes(uint64_t atime_ns, uint64_t mtime_ns) override {
    return InDomain([&]() -> Status {
      {
        std::lock_guard<std::mutex> lock(deleg_mutex_);
        cto_attrs_valid_ = false;
      }
      return CallFile(Op::kSetTimes, SetTimesRequest{.atime_ns = atime_ns,
                                                     .mtime_ns = mtime_ns})
          .status();
    });
  }

  Status SyncFile() override {
    return InDomain([&]() -> Status {
      return CallFile(Op::kSyncFile, HandleRequest{}).status();
    });
  }

 private:
  struct DelegationState {
    uint64_t id = 0;
    uint64_t expires_at = 0;  // absolute, on the shared mount clock
    bool attrs_valid = false;
    FileAttributes attrs;
    bool prefetch_valid = false;
    Buffer prefetch;  // the file's first page, as of the grant
  };

  // Serves Stat/GetLength from the delegation's attr cache (repeatable
  // while valid) or the close-to-open one-shot (consumed).
  std::optional<FileAttributes> ServeAttrsLocally() {
    uint64_t expired = 0;
    std::optional<FileAttributes> out;
    bool one_shot = false;
    {
      std::lock_guard<std::mutex> lock(deleg_mutex_);
      if (has_deleg_) {
        if (client_->clock_->Now() < deleg_.expires_at) {
          if (deleg_.attrs_valid) {
            out = deleg_.attrs;
          }
        } else {
          expired = deleg_.id;
          has_deleg_ = false;
          deleg_ = {};
        }
      }
      if (!out && cto_attrs_valid_) {
        out = cto_attrs_;
        cto_attrs_valid_ = false;
        one_shot = true;
      }
    }
    if (expired != 0) {
      client_->ForgetDelegation(expired);
    }
    if (out) {
      client_->Bump(one_shot ? &DfsClient::Stats::cto_serves
                             : &DfsClient::Stats::local_attr_serves);
    }
    return out;
  }

  // Serves a read that fits entirely inside the prefetched first page.
  std::optional<size_t> ServeReadLocally(Offset offset, MutableByteSpan out) {
    uint64_t expired = 0;
    std::optional<size_t> served;
    bool one_shot = false;
    {
      std::lock_guard<std::mutex> lock(deleg_mutex_);
      if (has_deleg_) {
        if (client_->clock_->Now() < deleg_.expires_at) {
          if (deleg_.prefetch_valid &&
              offset + out.size() <= deleg_.prefetch.size()) {
            served = deleg_.prefetch.ReadAt(offset, out);
          }
        } else {
          expired = deleg_.id;
          has_deleg_ = false;
          deleg_ = {};
        }
      }
      if (!served && cto_prefetch_valid_ &&
          offset + out.size() <= cto_prefetch_.size()) {
        served = cto_prefetch_.ReadAt(offset, out);
        cto_prefetch_valid_ = false;
        one_shot = true;
      }
    }
    if (expired != 0) {
      client_->ForgetDelegation(expired);
    }
    if (served) {
      client_->Bump(one_shot ? &DfsClient::Stats::cto_serves
                             : &DfsClient::Stats::local_read_serves);
    }
    return served;
  }

  // Before a wire mutation: locally cached attrs/data stop being
  // trustworthy (the delegation itself, if any, is recalled server-side
  // as part of serving the mutation).
  void InvalidateLocalCaches() {
    std::lock_guard<std::mutex> lock(deleg_mutex_);
    deleg_.attrs_valid = false;
    deleg_.prefetch_valid = false;
    cto_attrs_valid_ = false;
    cto_prefetch_valid_ = false;
  }

  // One RPC against this file's handle (`req.handle` is filled in),
  // re-resolved by path once if the server forgot it.
  template <class Resp = Empty, class Req>
  Result<Resp> CallFile(Op op, Req req) {
    return client_->InvokeByPath<Resp>(op, path_, handle_, std::move(req));
  }

  sp<DfsClient> client_;
  std::string path_;
  std::atomic<uint64_t> handle_;

  std::mutex deleg_mutex_;  // never held across a wire call
  bool has_deleg_ = false;
  DelegationState deleg_;
  // Close-to-open one-shot cache (compound open without a delegation).
  bool cto_attrs_valid_ = false;
  FileAttributes cto_attrs_;
  bool cto_prefetch_valid_ = false;
  Buffer cto_prefetch_;
};

sp<DfsClient> DfsClient::Connect(const sp<net::Node>& node,
                                 net::Network* network,
                                 const std::string& server_node,
                                 const std::string& service, Clock* clock,
                                 const DfsClientOptions& options) {
  net::SetFrameTypeNamer(&OpNamer);
  sp<DfsClient> client(
      new DfsClient(node, network, server_node, service, clock, options));
  wp<DfsClient> weak = client;
  node->RegisterService(client->callback_service_,
                        [weak](const net::Frame& request) {
                          sp<DfsClient> strong = weak.lock();
                          if (!strong) {
                            return net::Frame::Error(ErrorCode::kDeadObject);
                          }
                          return strong->HandleCallback(request);
                        });
  return client;
}

Result<sp<DfsClient>> DfsClient::Mount(const sp<net::Node>& node,
                                       net::Network* network,
                                       const std::string& server_node,
                                       const std::string& service,
                                       Clock* clock,
                                       const DfsClientOptions& options) {
  sp<DfsClient> client =
      Connect(node, network, server_node, service, clock, options);
  // Probe the server (also validates the mount point); only the verdict
  // matters, not the listing.
  ASSIGN_OR_RETURN(net::Frame probe,
                   client->Call(RequestFrame(Op::kReadDir, PathRequest{""})));
  RETURN_IF_ERROR(probe.ToStatus());
  return client;
}

DfsClient::DfsClient(const sp<net::Node>& node, net::Network* network,
                     std::string server_node, std::string service,
                     Clock* clock, const DfsClientOptions& options)
    : Servant(node->domain()), node_(node),
      server_node_(std::move(server_node)), service_(std::move(service)),
      callback_service_(UniqueCallbackService()), clock_(clock),
      options_(options),
      channel_(network->OpenChannel(node_->name(), server_node_, service_,
                                    options_.channel)) {
  metrics::Registry::Global().RegisterProvider(this);
}

DfsClient::~DfsClient() {
  metrics::Registry::Global().UnregisterProvider(this);
  node_->UnregisterService(callback_service_);
}

void DfsClient::Bump(uint64_t Stats::*field) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++(stats_.*field);
}

Result<net::Frame> DfsClient::Call(net::Frame request, RetryState* retry) {
  trace::ScopedSpan span("dfs.call");
  RetryState local;
  if (retry == nullptr) {
    retry = &local;
  }
  // Mutating ops carry a request id so the server's dedup window makes the
  // retransmissions below safe (the same id is re-sent on every attempt).
  // Each Call invocation mints a fresh id: a caller re-issuing after kStale
  // is starting a new operation, not retransmitting one.
  if (!IsIdempotent(static_cast<Op>(request.type))) {
    request.request_id = NewRequestId();
  }
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.calls_sent;
    }
    // The channel retransmits lost frames itself (byte-identical, so the
    // server's dedup window absorbs duplicates); this loop only sees a
    // transport failure once the channel gave up.
    Result<net::Frame> response = channel_->Call(request, retry->attempt);
    ErrorCode code;
    if (response.ok()) {
      // A kDeadObject *frame* is the dead server's tombstone: the
      // transport works, the server object is gone. A kTimedOut frame is a
      // live server refusing transiently (post-boot grace period, blocked
      // acquire) — worth the same backoff-and-retry as a transport
      // timeout, and safe because the server does not execute or dedup
      // such ops. Anything else is a final response.
      ErrorCode frame_code = response.value().ToStatus().code();
      if (frame_code != ErrorCode::kDeadObject) {
        NoteServerEpoch(response.value().epoch);
      }
      if (frame_code != ErrorCode::kDeadObject &&
          frame_code != ErrorCode::kTimedOut) {
        if (retry->attempt > 0) {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.retry_successes;
        }
        return response;
      }
      code = frame_code;
    } else {
      code = response.status().code();
    }
    if (code == ErrorCode::kDeadObject) {
      // Whatever we cached came from an object that no longer exists. A
      // replacement server (same node, same service) will answer the next
      // attempt under a fresh epoch.
      InvalidateCaches();
    }
    bool transient = code == ErrorCode::kTimedOut ||
                     code == ErrorCode::kConnectionLost ||
                     code == ErrorCode::kDeadObject;
    if (!transient || retry->attempt >= RetryState::kMaxRetries) {
      if (transient && retry->attempt > 0) {
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.retries_exhausted;
        }
        span.Annotate("retries exhausted");
        flight::Record(flight::Severity::kError, "dfs", "retries exhausted",
                       request.type, retry->attempt);
      }
      return response;
    }
    // Capped exponential backoff, slept on the injected clock. The state
    // lives in `retry` so a caller that re-issues after a kStale rebind
    // keeps the grown backoff instead of restarting at the base value.
    retry->Backoff(clock_);
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.retries;
    }
    // The retransmission itself shows up as a "net.retry:" child; note the
    // cause here on the logical call span.
    if (span.active()) {
      span.Annotate("retry attempt=" + std::to_string(retry->attempt) +
                    " after " + ErrorCodeName(code));
    }
    flight::Record(flight::Severity::kInfo, "dfs", "retrying call",
                   request.type, retry->attempt);
  }
}

Result<Buffer> DfsClient::ReadPipelined(const std::string& path, Offset offset,
                                        Offset size, size_t chunk_bytes) {
  return InDomain([&]() -> Result<Buffer> {
    trace::ScopedSpan span("dfs.read_pipelined");
    if (chunk_bytes == 0) {
      chunk_bytes = kPageSize;
    }
    ASSIGN_OR_RETURN(LookupResponse looked,
                     Invoke<LookupResponse>(Op::kLookup, PathRequest{path}));
    uint64_t handle = looked.handle;
    Buffer out;
    // Submit every chunk; the channel caps the in-flight window at
    // max_inflight and Submit blocks (pumping) while it is full.
    struct Chunk {
      uint64_t tag;
      uint64_t want;
    };
    std::vector<Chunk> inflight;
    for (Offset at = offset; at < offset + size; at += chunk_bytes) {
      uint64_t want = std::min<Offset>(chunk_bytes, offset + size - at);
      Bump(&Stats::calls_sent);
      inflight.push_back({channel_->Submit(RequestFrame(
                              Op::kRead, ReadRequest{handle, at, want})),
                          want});
    }
    Status failure = Status::Ok();
    bool contiguous = true;
    for (const Chunk& chunk : inflight) {
      Result<net::Completion> done = channel_->Wait(chunk.tag);
      if (done.ok() && done->status.ok()) {
        NoteServerEpoch(done->response.epoch);
      }
      Result<ReadResponse> body =
          done.ok() ? Reply<ReadResponse>(*done)
                    : Result<ReadResponse>(done.status());
      if (!body.ok()) {
        if (failure.ok()) {
          failure = body.status();
        }
        contiguous = false;
        continue;
      }
      if (!contiguous) {
        continue;
      }
      out.append(body->data.span());
      if (body->data.size() < chunk.want) {
        contiguous = false;  // short read: EOF, drop the tail
      }
    }
    if (out.size() == 0 && !failure.ok()) {
      return failure;
    }
    return out;
  });
}

void DfsClient::NoteServerEpoch(uint64_t epoch) {
  if (epoch == 0) {
    return;  // not minted by a DfsServer::Handle (e.g. a transport error)
  }
  uint64_t seen = server_epoch_.load();
  for (;;) {
    if (seen >= epoch) {
      return;  // same epoch, or a delayed frame from a dead predecessor
    }
    if (server_epoch_.compare_exchange_weak(seen, epoch)) {
      break;
    }
  }
  if (seen == 0) {
    return;
  }
  // Epoch bump: the server restarted since we last heard from it. Its
  // engine state, handle space, and cache ids are all fresh — everything
  // this client cached is stale.
  Bump(&Stats::server_restarts);
  flight::Record(flight::Severity::kWarn, "dfs", "server epoch bump", seen,
                 epoch);
  InvalidateCaches();
}

void DfsClient::InvalidateCaches() {
  std::vector<PagerChannelTable::Channel> stale;
  // Delegations died with the server (or the eviction that tombstoned it):
  // the new incumbent never heard of them. Drop them locally.
  std::vector<sp<RemoteFile>> holders;
  {
    // The channels leave the table with their ids, so a bind in flight
    // finds its channel gone (BindRemote) instead of keeping an id for it.
    std::lock_guard<std::mutex> lock(mutex_);
    stale = channels_.AllChannels();
    server_cache_ids_.clear();
    for (const auto& ch : stale) {
      channels_.RemoveChannel(ch.local_id);
    }
    for (const auto& [id, weak] : delegations_by_id_) {
      if (sp<RemoteFile> holder = weak.lock()) {
        holders.push_back(std::move(holder));
      }
    }
    delegations_by_id_.clear();
    unknown_recall_ids_.clear();
  }
  for (const sp<RemoteFile>& holder : holders) {
    holder->DropDelegation();
  }
  for (const auto& ch : stale) {
    if (ch.cache) {
      // Local-only teardown: no kUnbindCache RPC — the server that minted
      // these cache ids is gone. Unflushed dirty pages are dropped; the
      // server's copy is authoritative after a restart/eviction.
      (void)ch.cache->DestroyCache();
    }
  }
  if (!stale.empty()) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.channels_invalidated += stale.size();
    }
    flight::Record(flight::Severity::kWarn, "dfs", "channels invalidated",
                   stale.size());
  }
}

void DfsClient::InvalidateChannel(uint64_t local_channel) {
  Result<PagerChannelTable::Channel> channel =
      channels_.GetChannel(local_channel);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    server_cache_ids_.erase(local_channel);
    channels_.RemoveChannel(local_channel);
  }
  if (!channel.ok()) {
    return;
  }
  if (channel->cache) {
    (void)channel->cache->DestroyCache();
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.channels_invalidated;
}

void DfsClient::ForgetDelegation(uint64_t deleg_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  delegations_by_id_.erase(deleg_id);
}

Result<uint64_t> DfsClient::RebindHandle(const std::string& path) {
  ASSIGN_OR_RETURN(LookupResponse looked,
                   Invoke<LookupResponse>(Op::kLookup, PathRequest{path}));
  if (looked.is_dir) {
    return ErrWrongType("'" + path + "' resolves to a directory now");
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.handle_rebinds;
  }
  return looked.handle;
}

net::Frame DfsClient::HandleCallback(const net::Frame& request) {
  trace::ScopedSpan span("dfs.client_callback");
  Bump(&Stats::callbacks_received);
  // Failures answer with the error code alone (no message payload).
  Op op = static_cast<Op>(request.type);
  switch (op) {
    case Op::kCbFlushBack:
    case Op::kCbDenyWrites:
      return Answer<CbRecallRequest>(
          request, [&](auto& req) -> Result<CbRecallResponse> {
            Result<PagerChannelTable::Channel> channel =
                channels_.GetChannel(req.client_channel);
            if (!channel.ok()) {
              // The local cache is already gone; nothing to recall. Still a
              // well-formed (empty) block list — the server decodes it.
              return CbRecallResponse{};
            }
            Range range{req.offset, req.size};
            Result<std::vector<BlockData>> dirty =
                op == Op::kCbFlushBack ? channel->cache->FlushBack(range)
                                       : channel->cache->DenyWrites(range);
            if (!dirty.ok()) {
              return Status(dirty.code());
            }
            return CbRecallResponse{std::move(*dirty)};
          });
    case Op::kCbAttrInvalidate:
      return Answer<CbAttrInvalidateRequest>(request, [&](auto& req) {
        Result<PagerChannelTable::Channel> channel =
            channels_.GetChannel(req.client_channel);
        if (!channel.ok() || !channel->fs_cache) {
          return Status::Ok();
        }
        return Status(channel->fs_cache->InvalidateAttributes().code());
      });
    case Op::kCbRecallDeleg:
      return Answer<CbRecallDelegRequest>(request, [&](auto& req) {
        sp<RemoteFile> holder;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          auto it = delegations_by_id_.find(req.deleg_id);
          if (it != delegations_by_id_.end()) {
            holder = it->second.lock();
            delegations_by_id_.erase(it);
          } else {
            // The grant may still be in flight toward us: remember the id
            // so installing it later discards the delegation instead.
            unknown_recall_ids_.push_back(req.deleg_id);
            while (unknown_recall_ids_.size() > kMaxUnknownRecalls) {
              unknown_recall_ids_.pop_front();
            }
          }
        }
        if (holder) {
          holder->HandleDelegRecall(req.deleg_id);
          Bump(&Stats::deleg_recalls);
          flight::Record(flight::Severity::kInfo, "dfs", "delegation recalled",
                         req.deleg_id);
        }
        return Status::Ok();
      });
    default:
      return net::Frame::Error(ErrorCode::kNotSupported);
  }
}

Result<sp<CacheRights>> DfsClient::BindRemote(uint64_t handle,
                                              const sp<CacheManager>& manager,
                                              uint64_t* local_channel_out) {
  uint64_t pager_key;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = pager_keys_.try_emplace(handle, 0);
    if (inserted) {
      it->second = NewPagerKey();
    }
    pager_key = it->second;
  }
  sp<DfsClient> self = std::dynamic_pointer_cast<DfsClient>(shared_from_this());
  ASSIGN_OR_RETURN(
      sp<CacheRights> rights,
      channels_.Bind(handle, pager_key, manager,
                     [&](uint64_t local_id) -> sp<PagerObject> {
                       return std::make_shared<RemotePagerObject>(
                           domain(), self, handle, local_id);
                     }));
  // Register the channel's cache with the server (once per channel).
  uint64_t local_channel = 0;
  bool is_fs_cache = false;
  for (const auto& ch : channels_.ChannelsForFile(handle)) {
    if (ch.manager == manager) {
      local_channel = ch.local_id;
      is_fs_cache = ch.fs_cache != nullptr;
      break;
    }
  }
  if (local_channel_out != nullptr) {
    *local_channel_out = local_channel;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (server_cache_ids_.count(local_channel)) {
      return rights;
    }
  }
  ASSIGN_OR_RETURN(
      BindCacheResponse bound,
      Invoke<BindCacheResponse>(
          Op::kBindCache, BindCacheRequest{handle, local_channel, is_fs_cache,
                                           node_->name(), callback_service_}));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A restart seen meanwhile (on this very reply too) dropped the channel;
    // an id kept for it would pass page ops whose recalls find no cache.
    if (!channels_.GetChannel(local_channel).ok()) {
      return ErrStale("channel dropped while binding");
    }
    server_cache_ids_[local_channel] = bound.cache_id;
  }
  return rights;
}

Result<uint64_t> DfsClient::ServerCacheIdFor(uint64_t local_channel) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = server_cache_ids_.find(local_channel);
  if (it == server_cache_ids_.end()) {
    return ErrStale("channel not registered with the server");
  }
  return it->second;
}

void DfsClient::DropChannel(uint64_t local_channel) {
  uint64_t server_cache_id = 0;
  uint64_t handle = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = server_cache_ids_.find(local_channel);
    if (it != server_cache_ids_.end()) {
      server_cache_id = it->second;
      server_cache_ids_.erase(it);
    }
  }
  Result<PagerChannelTable::Channel> channel =
      channels_.GetChannel(local_channel);
  if (channel.ok()) {
    handle = channel->file_id;
  }
  channels_.RemoveChannel(local_channel);
  if (server_cache_id != 0) {
    (void)Invoke(Op::kUnbindCache, UnbindCacheRequest{handle, server_cache_id});
  }
}

Result<sp<Object>> DfsClient::ObjectForPath(const Name& name) {
  if (options_.compound) {
    return ObjectForPathCompound(name);
  }
  std::string path = name.ToString();
  ASSIGN_OR_RETURN(LookupResponse looked,
                   Invoke<LookupResponse>(Op::kLookup, PathRequest{path}));
  if (looked.is_dir) {
    return sp<Object>(SubContext<DfsClient>::Of(this, name));
  }
  sp<DfsClient> self = std::dynamic_pointer_cast<DfsClient>(shared_from_this());
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = remote_files_.find(path);
  if (it != remote_files_.end()) {
    // The lookup just returned the authoritative handle — refresh the
    // cached file's copy (it may predate a server restart).
    std::static_pointer_cast<RemoteFile>(it->second)->UpdateHandle(
        looked.handle);
    return sp<Object>(it->second);
  }
  sp<File> file = std::make_shared<RemoteFile>(domain(), self, path,
                                               looked.handle);
  remote_files_[path] = file;
  return sp<Object>(file);
}

Result<sp<Object>> DfsClient::ObjectForPathCompound(const Name& name) {
  std::string path = name.ToString();
  // A held delegation answers the whole open locally: zero round trips.
  sp<RemoteFile> cached;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = remote_files_.find(path);
    if (it != remote_files_.end()) {
      cached = std::static_pointer_cast<RemoteFile>(it->second);
    }
  }
  if (cached && cached->HasValidDelegation()) {
    Bump(&Stats::local_opens);
    return sp<Object>(cached);
  }
  // One frame: lookup -> open (maybe asking for a delegation) -> getattr
  // -> first-page read. The ops after the lookup use the current-handle
  // register (handle 0), so the program needs no round trip in between.
  OpenRequest open_req;
  if (options_.delegations) {
    open_req.want_delegation = DelegationKind::kRead;
    open_req.node = node_->name();
    open_req.service = callback_service_;
  }
  CompoundRequest program{{
      {static_cast<uint32_t>(Op::kLookup), Encode(PathRequest{path})},
      {static_cast<uint32_t>(Op::kOpen), Encode(open_req)},
      {static_cast<uint32_t>(Op::kGetAttr), Encode(HandleRequest{})},
      {static_cast<uint32_t>(Op::kRead),
       Encode(ReadRequest{.length = kPageSize})},
  }};
  Bump(&Stats::compound_opens);
  ASSIGN_OR_RETURN(CompoundResponse results,
                   Invoke<CompoundResponse>(Op::kCompound, program));
  // Sub-op 0, the lookup, gates the whole resolve; the later ops are
  // opportunistic (a failure there just means no prefetch/delegation —
  // e.g. kOpen fails with kStale handle 0 when the path is a directory).
  ASSIGN_OR_RETURN(LookupResponse looked,
                   SubResult<LookupResponse>(results, 0));
  if (looked.is_dir) {
    return sp<Object>(SubContext<DfsClient>::Of(this, name));
  }
  sp<DfsClient> self = std::dynamic_pointer_cast<DfsClient>(shared_from_this());
  sp<RemoteFile> file;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = remote_files_.find(path);
    if (it != remote_files_.end()) {
      file = std::static_pointer_cast<RemoteFile>(it->second);
      file->UpdateHandle(looked.handle);
    } else {
      file = std::make_shared<RemoteFile>(domain(), self, path,
                                          looked.handle);
      remote_files_[path] = file;
    }
  }
  Result<OpenResponse> open = SubResult<OpenResponse>(results, 1);
  Result<GetAttrResponse> attrs = SubResult<GetAttrResponse>(results, 2);
  Result<ReadResponse> first_page = SubResult<ReadResponse>(results, 3);
  if (open.ok() && open->deleg_id != 0) {
    bool revoked = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto hit = std::find(unknown_recall_ids_.begin(),
                           unknown_recall_ids_.end(), open->deleg_id);
      if (hit != unknown_recall_ids_.end()) {
        // The recall overtook the grant: this delegation is already dead.
        unknown_recall_ids_.erase(hit);
        revoked = true;
      } else {
        delegations_by_id_[open->deleg_id] = file;
      }
    }
    if (revoked) {
      Bump(&Stats::deleg_grant_races);
      flight::Record(flight::Severity::kWarn, "dfs", "grant raced by recall",
                     open->deleg_id);
    } else {
      file->InstallDelegation(*open, attrs, first_page);
      Bump(&Stats::delegations_held);
      return sp<Object>(file);
    }
  }
  if (!options_.delegations) {
    // Close-to-open: the attr+data piggybacked on the open serve exactly
    // one Stat and one covered Read, then expire.
    file->InstallPrefetch(attrs, first_page);
  }
  return sp<Object>(file);
}

Result<sp<Object>> DfsClient::Resolve(const Name& name,
                                      const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Result<sp<Object>> {
    if (name.empty()) {
      return sp<Object>(std::dynamic_pointer_cast<Object>(shared_from_this()));
    }
    return ObjectForPath(name);
  });
}

Status DfsClient::Bind(const Name& name, sp<Object> object,
                       const Credentials& creds, bool replace) {
  (void)name;
  (void)object;
  (void)creds;
  (void)replace;
  return ErrNotSupported("binding arbitrary objects over DFS");
}

Status DfsClient::Unbind(const Name& name, const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Status {
    return Invoke(Op::kRemove, PathRequest{name.ToString()}).status();
  });
}

Result<std::vector<BindingInfo>> DfsClient::ListAt(const Name& dir,
                                                   const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Result<std::vector<BindingInfo>> {
    ASSIGN_OR_RETURN(ReadDirResponse body,
                     Invoke<ReadDirResponse>(Op::kReadDir,
                                             PathRequest{dir.ToString()}));
    std::vector<BindingInfo> entries;
    entries.reserve(body.entries.size());
    for (const ReadDirResponse::Entry& entry : body.entries) {
      BindingInfo info;
      info.name = entry.name;
      info.is_context = entry.is_dir;
      entries.push_back(std::move(info));
    }
    return entries;
  });
}

Result<std::vector<BindingInfo>> DfsClient::List(const Credentials& creds) {
  return ListAt(Name(), creds);
}

Result<sp<Context>> DfsClient::CreateContext(const Name& name,
                                             const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Result<sp<Context>> {
    RETURN_IF_ERROR(
        Invoke(Op::kMkdir, PathRequest{name.ToString()}).status());
    return SubContext<DfsClient>::Of(this, name);
  });
}

Result<sp<File>> DfsClient::CreateFile(const Name& name,
                                       const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Result<sp<File>> {
    ASSIGN_OR_RETURN(CreateResponse created,
                     Invoke<CreateResponse>(Op::kCreate,
                                            PathRequest{name.ToString()}));
    sp<DfsClient> self =
        std::dynamic_pointer_cast<DfsClient>(shared_from_this());
    std::string path = name.ToString();
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = remote_files_.find(path);
    if (it != remote_files_.end()) {
      std::static_pointer_cast<RemoteFile>(it->second)->UpdateHandle(
          created.handle);
      return it->second;
    }
    sp<File> file = std::make_shared<RemoteFile>(domain(), self, path,
                                                 created.handle);
    remote_files_[path] = file;
    return file;
  });
}

Result<FsInfo> DfsClient::GetFsInfo() {
  FsInfo info;
  info.type = "dfs-client(" + server_node_ + "/" + service_ + ")";
  info.stack_depth = 1;
  return info;
}

Status DfsClient::SyncFs() {
  // Sync every known remote file.
  std::vector<sp<File>> files;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [handle, file] : remote_files_) {
      files.push_back(file);
    }
  }
  for (const sp<File>& file : files) {
    RETURN_IF_ERROR(file->SyncFile());
  }
  return Status::Ok();
}

void DfsClient::CollectStats(const metrics::StatsEmitter& emit) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  emit("calls_sent", stats_.calls_sent);
  emit("callbacks_received", stats_.callbacks_received);
  emit("retries", stats_.retries);
  emit("retry_successes", stats_.retry_successes);
  emit("retries_exhausted", stats_.retries_exhausted);
  emit("server_restarts", stats_.server_restarts);
  emit("channels_invalidated", stats_.channels_invalidated);
  emit("handle_rebinds", stats_.handle_rebinds);
  emit("compound_opens", stats_.compound_opens);
  emit("local_opens", stats_.local_opens);
  emit("local_attr_serves", stats_.local_attr_serves);
  emit("local_read_serves", stats_.local_read_serves);
  emit("cto_serves", stats_.cto_serves);
  emit("delegations_held", stats_.delegations_held);
  emit("deleg_recalls", stats_.deleg_recalls);
  emit("deleg_grant_races", stats_.deleg_grant_races);
}

}  // namespace springfs::dfs
