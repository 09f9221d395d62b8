#include "src/layers/dfs/dfs_client.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <optional>

#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/support/logging.h"

namespace springfs::dfs {
namespace {

std::string UniqueCallbackService() {
  static std::atomic<uint64_t> next{1};
  return "dfs-cb-" + std::to_string(next.fetch_add(1));
}

// Request ids are process-global (not per client): a server's dedup window
// keys on the id alone, so two mounts must never mint the same one.
uint64_t NewRequestId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

// A recall can arrive for a delegation whose grant response is still in
// flight to us; remember a bounded number of such ids so the grant is
// discarded on arrival instead of installed stale.
constexpr size_t kMaxUnknownRecalls = 64;

}  // namespace

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
      PageInRequest body;
      body.handle = handle_;
      body.cache_id = cache_id;
      body.offset = offset;
      body.size = size;
      body.write_access = access == AccessRights::kReadWrite;
      net::Frame request;
      request.payload = body.Encode();
      if (size <= kPageSize) {
        ASSIGN_OR_RETURN(net::Frame response,
                         client_->Call(Op::kPageIn, request));
        RETURN_IF_ERROR(CheckStale(response.ToStatus()));
        ASSIGN_OR_RETURN(PageInResponse page,
                         PageInResponse::Decode(response.payload.span()));
        return std::move(page.data);
      }
      // A fault cluster: on a pipelined mount the range is split into up
      // to async_depth kPageInRange chunks whose round trips overlap.
      if (client_->channel_ && client_->options_.async_depth > 1) {
        Result<Buffer> out =
            client_->FanoutPageIn(handle_, cache_id, offset, size, access);
        if (!out.ok()) {
          return CheckStale(out.status());
        }
        return out;
      }
      // Sync mount: one kPageInRange round trip returns the whole block
      // list instead of one kPageIn per page.
      ASSIGN_OR_RETURN(net::Frame response,
                       client_->Call(Op::kPageInRange, request));
      RETURN_IF_ERROR(CheckStale(response.ToStatus()));
      ASSIGN_OR_RETURN(PageInRangeResponse range,
                       PageInRangeResponse::Decode(response.payload.span()));
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
      HandleRequest body;
      body.handle = handle_;
      net::Frame request;
      request.payload = body.Encode();
      ASSIGN_OR_RETURN(net::Frame response,
                       client_->Call(Op::kGetAttr, request));
      RETURN_IF_ERROR(response.ToStatus());
      ASSIGN_OR_RETURN(GetAttrResponse attrs,
                       GetAttrResponse::Decode(response.payload.span()));
      return attrs.attrs;
    });
  }
  Status WriteAttributes(const AttrUpdate& update) override {
    return InDomain([&]() -> Status {
      if (update.size) {
        SetLengthRequest body;
        body.handle = handle_;
        body.length = *update.size;
        net::Frame request;
        request.payload = body.Encode();
        ASSIGN_OR_RETURN(net::Frame response,
                         client_->Call(Op::kSetLength, request));
        RETURN_IF_ERROR(response.ToStatus());
      }
      if (update.atime_ns || update.mtime_ns) {
        SetTimesRequest body;
        body.handle = handle_;
        body.atime_ns = update.atime_ns.value_or(0);
        body.mtime_ns = update.mtime_ns.value_or(0);
        net::Frame request;
        request.payload = body.Encode();
        ASSIGN_OR_RETURN(net::Frame response,
                         client_->Call(Op::kSetTimes, request));
        RETURN_IF_ERROR(response.ToStatus());
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
      PageOutRequest body;
      body.handle = handle_;
      body.cache_id = cache_id;
      body.offset = offset;
      body.data = Buffer(data);
      net::Frame request;
      request.payload = body.Encode();
      ASSIGN_OR_RETURN(net::Frame response, client_->Call(op, request));
      return CheckStale(response.ToStatus());
    });
  }

  // A kStale response means the server evicted this cache or forgot the
  // handle (it restarted): the channel's pages are not trusted anymore.
  // Tear the channel down locally so the next access re-binds afresh.
  Status CheckStale(Status st) {
    if (st.code() == ErrorCode::kStale) {
      client_->InvalidateChannel(local_channel_);
    }
    return st;
  }

  sp<DfsClient> client_;
  uint64_t handle_;
  uint64_t local_channel_;
};

// A remote file as seen on the client node. Identified durably by path:
// the server's handle space resets across a restart, so a kStale response
// triggers one re-resolution by path and one retry.
//
// A RemoteFile may hold a delegation (DESIGN.md §13): until the server
// recalls it or its absolute expiry passes, re-opens, Stat/GetLength, and
// reads covered by the prefetched first page are served locally with zero
// round trips; a write delegation additionally buffers SetTimes. Without
// a delegation, a compound open primes a one-shot close-to-open cache
// (cto_*) consumed by the first Stat and first covered Read.
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
                         const std::optional<FileAttributes>& attrs,
                         const std::optional<Buffer>& first_page) {
    std::lock_guard<std::mutex> lock(deleg_mutex_);
    has_deleg_ = true;
    deleg_ = {};
    deleg_.id = open.deleg_id;
    deleg_.incarnation = open.incarnation;
    deleg_.write_access = open.granted == DelegationKind::kWrite;
    deleg_.expires_at = open.expires_at;
    if (attrs) {
      deleg_.attrs = *attrs;
      deleg_.attrs_valid = true;
    }
    if (first_page) {
      deleg_.prefetch = *first_page;
      deleg_.prefetch_valid = true;
    }
  }

  void InstallPrefetch(const std::optional<FileAttributes>& attrs,
                       const std::optional<Buffer>& first_page) {
    std::lock_guard<std::mutex> lock(deleg_mutex_);
    if (attrs) {
      cto_attrs_ = *attrs;
      cto_attrs_valid_ = true;
    }
    if (first_page) {
      cto_prefetch_ = *first_page;
      cto_prefetch_valid_ = true;
    }
  }

  // Local-only teardown (recall raced, server restarted, caches
  // invalidated). Buffered attr writes are dropped — after a restart the
  // server's copy is authoritative, same as unflushed dirty pages.
  void DropDelegation() {
    std::lock_guard<std::mutex> lock(deleg_mutex_);
    has_deleg_ = false;
    deleg_ = {};
    cto_attrs_valid_ = false;
    cto_prefetch_valid_ = false;
  }

  // Serves a kCbRecallDeleg: stop serving locally and hand any buffered
  // attr writes back. A recall minted under a different incarnation (or
  // after we already dropped the delegation) is fenced: respond clean.
  CbRecallDelegResponse HandleDelegRecall(uint64_t deleg_id,
                                          uint64_t incarnation) {
    CbRecallDelegResponse response;
    std::lock_guard<std::mutex> lock(deleg_mutex_);
    if (!has_deleg_ || deleg_.id != deleg_id ||
        deleg_.incarnation != incarnation) {
      return response;
    }
    if (deleg_.attrs_dirty) {
      response.has_times = true;
      response.atime_ns = deleg_.dirty_atime;
      response.mtime_ns = deleg_.dirty_mtime;
    }
    has_deleg_ = false;
    deleg_ = {};
    return response;
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
      ASSIGN_OR_RETURN(net::Frame response,
                       CallFile(Op::kGetLength, [](uint64_t handle) {
                         HandleRequest body;
                         body.handle = handle;
                         return body.Encode();
                       }));
      RETURN_IF_ERROR(response.ToStatus());
      ASSIGN_OR_RETURN(GetLengthResponse body,
                       GetLengthResponse::Decode(response.payload.span()));
      return Offset{body.length};
    });
  }

  Status SetLength(Offset length) override {
    return InDomain([&]() -> Status {
      InvalidateLocalCaches();
      ASSIGN_OR_RETURN(net::Frame response,
                       CallFile(Op::kSetLength, [&](uint64_t handle) {
                         SetLengthRequest body;
                         body.handle = handle;
                         body.length = length;
                         return body.Encode();
                       }));
      return response.ToStatus();
    });
  }

  Result<size_t> Read(Offset offset, MutableByteSpan out) override {
    return InDomain([&]() -> Result<size_t> {
      if (std::optional<size_t> local = ServeReadLocally(offset, out)) {
        return *local;
      }
      ASSIGN_OR_RETURN(net::Frame response,
                       CallFile(Op::kRead, [&](uint64_t handle) {
                         ReadRequest body;
                         body.handle = handle;
                         body.offset = offset;
                         body.length = out.size();
                         return body.Encode();
                       }));
      RETURN_IF_ERROR(response.ToStatus());
      ASSIGN_OR_RETURN(ReadResponse body,
                       ReadResponse::Decode(response.payload.span()));
      return body.data.ReadAt(0, out);
    });
  }

  Result<size_t> Write(Offset offset, ByteSpan data) override {
    return InDomain([&]() -> Result<size_t> {
      // A wire write invalidates whatever this client cached locally; the
      // server additionally recalls every delegation on the file
      // (including ours) before applying it.
      InvalidateLocalCaches();
      ASSIGN_OR_RETURN(net::Frame response,
                       CallFile(Op::kWrite, [&](uint64_t handle) {
                         WriteRequest body;
                         body.handle = handle;
                         body.offset = offset;
                         body.data = Buffer(data);
                         return body.Encode();
                       }));
      RETURN_IF_ERROR(response.ToStatus());
      ASSIGN_OR_RETURN(WriteResponse body,
                       WriteResponse::Decode(response.payload.span()));
      return size_t{body.written};
    });
  }

  Result<FileAttributes> Stat() override {
    return InDomain([&]() -> Result<FileAttributes> {
      if (std::optional<FileAttributes> local = ServeAttrsLocally()) {
        return *local;
      }
      ASSIGN_OR_RETURN(net::Frame response,
                       CallFile(Op::kGetAttr, [](uint64_t handle) {
                         HandleRequest body;
                         body.handle = handle;
                         return body.Encode();
                       }));
      RETURN_IF_ERROR(response.ToStatus());
      ASSIGN_OR_RETURN(GetAttrResponse body,
                       GetAttrResponse::Decode(response.payload.span()));
      // Refresh the delegation's attr cache so the next Stat is local
      // again; buffered times win over what the server returned.
      {
        std::lock_guard<std::mutex> lock(deleg_mutex_);
        if (has_deleg_ && client_->clock_->Now() < deleg_.expires_at) {
          deleg_.attrs = body.attrs;
          if (deleg_.attrs_dirty) {
            deleg_.attrs.atime_ns = deleg_.dirty_atime;
            deleg_.attrs.mtime_ns = deleg_.dirty_mtime;
          }
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
        if (has_deleg_ && deleg_.write_access &&
            client_->clock_->Now() < deleg_.expires_at) {
          // Write delegation: buffer the times locally. They ride the
          // recall response or a voluntary return (SyncFile) back to the
          // server.
          deleg_.attrs_dirty = true;
          deleg_.dirty_atime = atime_ns;
          deleg_.dirty_mtime = mtime_ns;
          if (deleg_.attrs_valid) {
            deleg_.attrs.atime_ns = atime_ns;
            deleg_.attrs.mtime_ns = mtime_ns;
          }
          return Status::Ok();
        }
        cto_attrs_valid_ = false;
      }
      ASSIGN_OR_RETURN(net::Frame response,
                       CallFile(Op::kSetTimes, [&](uint64_t handle) {
                         SetTimesRequest body;
                         body.handle = handle;
                         body.atime_ns = atime_ns;
                         body.mtime_ns = mtime_ns;
                         return body.Encode();
                       }));
      return response.ToStatus();
    });
  }

  Status SyncFile() override {
    return InDomain([&]() -> Status {
      RETURN_IF_ERROR(ReturnDelegationIfDirty());
      ASSIGN_OR_RETURN(net::Frame response,
                       CallFile(Op::kSyncFile, [](uint64_t handle) {
                         HandleRequest body;
                         body.handle = handle;
                         return body.Encode();
                       }));
      return response.ToStatus();
    });
  }

 private:
  struct DelegationState {
    uint64_t id = 0;
    uint64_t incarnation = 0;
    bool write_access = false;
    uint64_t expires_at = 0;  // absolute, on the shared mount clock
    bool attrs_valid = false;
    FileAttributes attrs;
    bool attrs_dirty = false;  // SetTimes buffered under a write delegation
    uint64_t dirty_atime = 0;
    uint64_t dirty_mtime = 0;
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

  // Voluntarily returns a dirty write delegation (kDelegReturn carrying
  // the buffered times) so SyncFile leaves the server's attrs durable.
  Status ReturnDelegationIfDirty() {
    DelegReturnRequest ret;
    bool need_return = false;
    {
      std::lock_guard<std::mutex> lock(deleg_mutex_);
      if (has_deleg_ && deleg_.attrs_dirty &&
          client_->clock_->Now() < deleg_.expires_at) {
        ret.deleg_id = deleg_.id;
        ret.incarnation = deleg_.incarnation;
        ret.has_times = true;
        ret.atime_ns = deleg_.dirty_atime;
        ret.mtime_ns = deleg_.dirty_mtime;
        has_deleg_ = false;
        deleg_ = {};
        need_return = true;
      }
    }
    if (!need_return) {
      return Status::Ok();
    }
    client_->ForgetDelegation(ret.deleg_id);
    ASSIGN_OR_RETURN(net::Frame response,
                     CallFile(Op::kDelegReturn, [&](uint64_t handle) {
                       ret.handle = handle;
                       return ret.Encode();
                     }));
    RETURN_IF_ERROR(response.ToStatus());
    client_->Bump(&DfsClient::Stats::deleg_returns);
    return Status::Ok();
  }

  // One RPC against this file's handle. The payload is re-encoded from the
  // fresh handle if a kStale response forces a re-resolution by path (the
  // server restarted and forgot the handle); the retry then mints a fresh
  // request id for mutating ops — the first attempt definitively did not
  // execute, so this is a new operation, not a retransmission. The
  // RetryState is shared across the rebind so the capped backoff keeps
  // growing and the attempt budget keeps shrinking.
  Result<net::Frame> CallFile(
      Op op, const std::function<Buffer(uint64_t)>& encode) {
    RetryState retry;
    net::Frame request;
    request.payload = encode(handle_.load());
    ASSIGN_OR_RETURN(net::Frame response, client_->Call(op, request, &retry));
    if (response.ToStatus().code() != ErrorCode::kStale) {
      return response;
    }
    ASSIGN_OR_RETURN(uint64_t fresh, client_->RebindHandle(path_));
    handle_.store(fresh);
    request.payload = encode(fresh);
    return client_->Call(op, request, &retry);
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

// Remote directory, identified by path prefix.
class RemoteDirContext : public Context, public Servant {
 public:
  RemoteDirContext(sp<Domain> domain, sp<DfsClient> client, Name prefix)
      : Servant(std::move(domain)), client_(std::move(client)),
        prefix_(std::move(prefix)) {}

  Result<sp<Object>> Resolve(const Name& name,
                             const Credentials& creds) override {
    return client_->Resolve(prefix_.Join(name), creds);
  }
  Status Bind(const Name& name, sp<Object> object, const Credentials& creds,
              bool replace) override {
    return client_->Bind(prefix_.Join(name), std::move(object), creds,
                         replace);
  }
  Status Unbind(const Name& name, const Credentials& creds) override {
    return client_->Unbind(prefix_.Join(name), creds);
  }
  Result<std::vector<BindingInfo>> List(const Credentials& creds) override {
    (void)creds;
    return client_->ListPath(prefix_.ToString());
  }
  Result<sp<Context>> CreateContext(const Name& name,
                                    const Credentials& creds) override {
    return client_->CreateContext(prefix_.Join(name), creds);
  }

 private:
  sp<DfsClient> client_;
  Name prefix_;
};

Result<sp<DfsClient>> DfsClient::Mount(const sp<net::Node>& node,
                                       net::Network* network,
                                       const std::string& server_node,
                                       const std::string& service,
                                       Clock* clock,
                                       const DfsClientOptions& options) {
  net::SetFrameTypeNamer(&OpNamer);
  std::string callback_service = UniqueCallbackService();
  sp<DfsClient> client(new DfsClient(node, network, server_node, service,
                                     callback_service, clock, options));
  wp<DfsClient> weak = client;
  node->RegisterService(callback_service, [weak](const net::Frame& request) {
    sp<DfsClient> strong = weak.lock();
    if (!strong) {
      return net::Frame::Error(ErrorCode::kDeadObject);
    }
    return strong->HandleCallback(request);
  });
  // Probe the server (also validates the mount point).
  ASSIGN_OR_RETURN(net::Frame response, client->CallPath(Op::kReadDir, ""));
  RETURN_IF_ERROR(response.ToStatus());
  return client;
}

DfsClient::DfsClient(const sp<net::Node>& node, net::Network* network,
                     std::string server_node, std::string service,
                     std::string callback_service, Clock* clock,
                     const DfsClientOptions& options)
    : Servant(node->domain()), node_(node), network_(network),
      server_node_(std::move(server_node)), service_(std::move(service)),
      callback_service_(std::move(callback_service)), clock_(clock),
      options_(options) {
  if (options_.pipelined) {
    net::ChannelOptions chan = options_.channel;
    chan.max_inflight = std::max<size_t>(1, options_.async_depth);
    channel_ = network_->OpenChannel(node_->name(), server_node_, service_,
                                     chan);
  }
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

Result<net::Frame> DfsClient::Call(Op op, const net::Frame& request) {
  RetryState retry;
  return Call(op, request, &retry);
}

Result<net::Frame> DfsClient::Transport(const net::Frame& typed,
                                        uint32_t attempt) {
  if (channel_) {
    // Pipelined mount: ride the persistent channel. The channel's own
    // RACK/RTO machinery retransmits lost frames (byte-identical, so the
    // server dedup window absorbs duplicates); this logical loop only sees
    // a failure once the transport gave up.
    uint64_t tag = channel_->Submit(typed, attempt);
    ASSIGN_OR_RETURN(net::Completion done, channel_->Wait(tag));
    RETURN_IF_ERROR(done.status);
    return std::move(done.response);
  }
  return network_->Call(node_->name(), server_node_, service_, typed, attempt);
}

Result<net::Frame> DfsClient::Call(Op op, const net::Frame& request,
                                   RetryState* retry) {
  trace::ScopedSpan span("dfs.call");
  net::Frame typed = request;
  typed.type = static_cast<uint32_t>(op);
  // Mutating ops carry a request id so the server's dedup window makes the
  // retransmissions below safe (the same id is re-sent on every attempt).
  // Each Call invocation mints a fresh id: a caller re-issuing after kStale
  // is starting a new operation, not retransmitting one.
  if (!IsIdempotent(op)) {
    typed.request_id = NewRequestId();
  }
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.calls_sent;
    }
    Result<net::Frame> response = Transport(typed, retry->attempt);
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
    if (!transient || retry->attempt >= options_.max_retries) {
      if (transient && retry->attempt > 0) {
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.retries_exhausted;
        }
        span.Annotate("retries exhausted");
        flight::Record(flight::Severity::kError, "dfs", "retries exhausted",
                       typed.type, retry->attempt);
      }
      return response;
    }
    // Capped exponential backoff, slept on the injected clock. The state
    // lives in `retry` so a caller that re-issues after a kStale rebind
    // keeps the grown backoff instead of restarting at the base value.
    uint64_t backoff = retry->next_backoff_ns == 0 ? options_.backoff_base_ns
                                                   : retry->next_backoff_ns;
    backoff = std::min(backoff, options_.backoff_max_ns);
    clock_->SleepNs(backoff);
    retry->next_backoff_ns = std::min(backoff * 2, options_.backoff_max_ns);
    ++retry->attempt;
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
                   typed.type, retry->attempt);
  }
}

Result<Buffer> DfsClient::FanoutPageIn(uint64_t handle, uint64_t cache_id,
                                       Offset offset, Offset size,
                                       AccessRights access) {
  trace::ScopedSpan span("dfs.page_in_fanout");
  size_t pages = static_cast<size_t>((size + kPageSize - 1) / kPageSize);
  size_t chunks = std::min(options_.async_depth, pages);
  size_t chunk_pages = (pages + chunks - 1) / chunks;
  uint64_t chunk_bytes = uint64_t{chunk_pages} * kPageSize;
  struct Chunk {
    uint64_t tag;
    Offset offset;
  };
  std::vector<Chunk> inflight;
  for (Offset at = offset; at < offset + size; at += chunk_bytes) {
    PageInRequest body;
    body.handle = handle;
    body.cache_id = cache_id;
    body.offset = at;
    body.size = std::min<Offset>(chunk_bytes, offset + size - at);
    body.write_access = access == AccessRights::kReadWrite;
    net::Frame request;
    request.type = static_cast<uint32_t>(Op::kPageInRange);
    request.payload = body.Encode();
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.calls_sent;
    }
    inflight.push_back({channel_->Submit(request), at});
  }
  // Wait for EVERY chunk (leaving one stranded would leak its completion
  // into a later op's WaitAnyOf), then keep the contiguous prefix from
  // `offset`. A kStale on any chunk wins over partial data: the binding
  // this fault runs under is dead, so the pages must not be installed.
  Buffer out;
  Status failure = Status::Ok();
  bool stale = false;
  bool contiguous = true;
  for (const Chunk& chunk : inflight) {
    Result<net::Completion> done = channel_->Wait(chunk.tag);
    Status st = done.ok() ? done->status : done.status();
    net::Frame* response = nullptr;
    if (st.ok()) {
      response = &done->response;
      NoteServerEpoch(response->epoch);
      st = response->ToStatus();
    }
    if (!st.ok()) {
      if (st.code() == ErrorCode::kStale) {
        stale = true;
      }
      if (failure.ok()) {
        failure = st;
      }
      contiguous = false;
      continue;
    }
    if (!contiguous) {
      continue;  // a hole before this chunk: the tail is unusable
    }
    Result<PageInRangeResponse> range =
        PageInRangeResponse::Decode(response->payload.span());
    if (!range.ok()) {
      if (failure.ok()) {
        failure = range.status();
      }
      contiguous = false;
      continue;
    }
    for (const BlockData& block : range->blocks) {
      if (block.offset != offset + out.size()) {
        contiguous = false;  // hole (EOF clamp): keep the prefix
        break;
      }
      out.append(block.data.span());
    }
  }
  if (stale) {
    return failure;
  }
  if (out.size() == 0) {
    if (!failure.ok()) {
      return failure;
    }
    return ErrCorrupted("page_in_range returned no usable blocks");
  }
  return out;
}

Result<Buffer> DfsClient::ReadPipelined(const std::string& path, Offset offset,
                                        Offset size, size_t chunk_bytes) {
  return InDomain([&]() -> Result<Buffer> {
    trace::ScopedSpan span("dfs.read_pipelined");
    if (chunk_bytes == 0) {
      chunk_bytes = kPageSize;
    }
    ASSIGN_OR_RETURN(net::Frame looked_up, CallPath(Op::kLookup, path));
    RETURN_IF_ERROR(looked_up.ToStatus());
    ASSIGN_OR_RETURN(LookupResponse looked,
                     LookupResponse::Decode(looked_up.payload.span()));
    uint64_t handle = looked.handle;
    Buffer out;
    if (!channel_) {
      // Sync mount: the same per-chunk frames, one blocking round trip
      // each — the bench's depth=1 baseline.
      for (Offset at = offset; at < offset + size; at += chunk_bytes) {
        ReadRequest body;
        body.handle = handle;
        body.offset = at;
        body.length = std::min<Offset>(chunk_bytes, offset + size - at);
        net::Frame request;
        request.payload = body.Encode();
        ASSIGN_OR_RETURN(net::Frame response, Call(Op::kRead, request));
        RETURN_IF_ERROR(response.ToStatus());
        ASSIGN_OR_RETURN(ReadResponse chunk,
                         ReadResponse::Decode(response.payload.span()));
        out.append(chunk.data.span());
        if (chunk.data.size() < body.length) {
          break;  // short read: EOF
        }
      }
      return out;
    }
    // Pipelined mount: submit every chunk; the channel caps the in-flight
    // window at async_depth and Submit blocks (pumping) when it is full.
    struct Chunk {
      uint64_t tag;
      uint64_t want;
    };
    std::vector<Chunk> inflight;
    for (Offset at = offset; at < offset + size; at += chunk_bytes) {
      ReadRequest body;
      body.handle = handle;
      body.offset = at;
      body.length = std::min<Offset>(chunk_bytes, offset + size - at);
      net::Frame request;
      request.type = static_cast<uint32_t>(Op::kRead);
      request.payload = body.Encode();
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.calls_sent;
      }
      inflight.push_back({channel_->Submit(request), body.length});
    }
    Status failure = Status::Ok();
    bool contiguous = true;
    for (const Chunk& chunk : inflight) {
      Result<net::Completion> done = channel_->Wait(chunk.tag);
      Status st = done.ok() ? done->status : done.status();
      if (st.ok()) {
        NoteServerEpoch(done->response.epoch);
        st = done->response.ToStatus();
      }
      Result<ReadResponse> body =
          st.ok() ? ReadResponse::Decode(done->response.payload.span())
                  : Result<ReadResponse>(st);
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
  if (seen != 0) {
    // Epoch bump: the server restarted since we last heard from it. Its
    // engine state, handle space, and cache ids are all fresh — everything
    // this client cached is stale.
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.server_restarts;
    }
    flight::Record(flight::Severity::kWarn, "dfs", "server epoch bump", seen,
                   epoch);
    InvalidateCaches();
  }
}

void DfsClient::InvalidateCaches() {
  std::vector<PagerChannelTable::Channel> stale = channels_.AllChannels();
  // Delegations died with the server (or the eviction that tombstoned it):
  // the new incumbent never heard of them. Drop them locally — buffered
  // attr writes are lost, like unflushed dirty pages.
  std::vector<sp<RemoteFile>> holders;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    server_cache_ids_.clear();
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
    channels_.RemoveChannel(ch.local_id);
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
  }
  if (!channel.ok()) {
    return;
  }
  if (channel->cache) {
    (void)channel->cache->DestroyCache();
  }
  channels_.RemoveChannel(local_channel);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.channels_invalidated;
}

void DfsClient::ForgetDelegation(uint64_t deleg_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  delegations_by_id_.erase(deleg_id);
}

Result<uint64_t> DfsClient::RebindHandle(const std::string& path) {
  ASSIGN_OR_RETURN(net::Frame response, CallPath(Op::kLookup, path));
  RETURN_IF_ERROR(response.ToStatus());
  ASSIGN_OR_RETURN(LookupResponse looked,
                   LookupResponse::Decode(response.payload.span()));
  if (looked.is_dir) {
    return ErrWrongType("'" + path + "' resolves to a directory now");
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.handle_rebinds;
  }
  return looked.handle;
}

Result<net::Frame> DfsClient::CallPath(Op op, const std::string& path) {
  PathRequest body;
  body.path = path;
  net::Frame request;
  request.payload = body.Encode();
  return Call(op, request);
}

net::Frame DfsClient::HandleCallback(const net::Frame& request) {
  trace::ScopedSpan span("dfs.client_callback");
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.callbacks_received;
  }
  Op op = static_cast<Op>(request.type);
  switch (op) {
    case Op::kCbFlushBack:
    case Op::kCbDenyWrites: {
      Result<CbRecallRequest> req =
          CbRecallRequest::Decode(request.payload.span());
      if (!req.ok()) {
        return net::Frame::Error(req.status().code());
      }
      Result<PagerChannelTable::Channel> channel =
          channels_.GetChannel(req->client_channel);
      if (!channel.ok()) {
        // The local cache is already gone; nothing to recall. Still a
        // well-formed (empty) block list — the server decodes the body.
        net::Frame response;
        response.payload = CbRecallResponse{}.Encode();
        return response;
      }
      Range range{req->offset, req->size};
      Result<std::vector<BlockData>> dirty =
          op == Op::kCbFlushBack ? channel->cache->FlushBack(range)
                                 : channel->cache->DenyWrites(range);
      if (!dirty.ok()) {
        return net::Frame::Error(dirty.status().code());
      }
      CbRecallResponse body;
      body.blocks = std::move(*dirty);
      net::Frame response;
      response.payload = body.Encode();
      return response;
    }
    case Op::kCbAttrInvalidate: {
      Result<CbAttrInvalidateRequest> req =
          CbAttrInvalidateRequest::Decode(request.payload.span());
      if (!req.ok()) {
        return net::Frame::Error(req.status().code());
      }
      Result<PagerChannelTable::Channel> channel =
          channels_.GetChannel(req->client_channel);
      if (!channel.ok()) {
        return net::Frame{};
      }
      if (channel->fs_cache) {
        Status st = channel->fs_cache->InvalidateAttributes();
        if (!st.ok()) {
          return net::Frame::Error(st.code());
        }
      }
      return net::Frame{};
    }
    case Op::kCbRecallDeleg: {
      Result<CbRecallDelegRequest> req =
          CbRecallDelegRequest::Decode(request.payload.span());
      if (!req.ok()) {
        return net::Frame::Error(req.status().code());
      }
      sp<RemoteFile> holder;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = delegations_by_id_.find(req->deleg_id);
        if (it != delegations_by_id_.end()) {
          holder = it->second.lock();
          delegations_by_id_.erase(it);
        } else {
          // The grant may still be in flight toward us: remember the id so
          // installing it later discards the delegation instead.
          unknown_recall_ids_.push_back(req->deleg_id);
          while (unknown_recall_ids_.size() > kMaxUnknownRecalls) {
            unknown_recall_ids_.pop_front();
          }
        }
      }
      CbRecallDelegResponse body;
      if (holder) {
        body = holder->HandleDelegRecall(req->deleg_id, req->incarnation);
        Bump(&Stats::deleg_recalls);
        flight::Record(flight::Severity::kInfo, "dfs", "delegation recalled",
                       req->deleg_id, req->incarnation);
      }
      net::Frame response;
      response.payload = body.Encode();
      return response;
    }
    default:
      return net::Frame::Error(ErrorCode::kNotSupported);
  }
}

Result<sp<CacheRights>> DfsClient::BindRemote(uint64_t handle,
                                              const sp<CacheManager>& manager) {
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
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (server_cache_ids_.count(local_channel)) {
      return rights;
    }
  }
  BindCacheRequest body;
  body.handle = handle;
  body.client_channel = local_channel;
  body.is_fs_cache = is_fs_cache;
  body.node = node_->name();
  body.service = callback_service_;
  net::Frame request;
  request.payload = body.Encode();
  ASSIGN_OR_RETURN(net::Frame response, Call(Op::kBindCache, request));
  RETURN_IF_ERROR(response.ToStatus());
  ASSIGN_OR_RETURN(BindCacheResponse bound,
                   BindCacheResponse::Decode(response.payload.span()));
  {
    std::lock_guard<std::mutex> lock(mutex_);
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
    UnbindCacheRequest body;
    body.handle = handle;
    body.cache_id = server_cache_id;
    net::Frame request;
    request.payload = body.Encode();
    (void)Call(Op::kUnbindCache, request);
  }
}

Result<sp<Object>> DfsClient::ObjectForPath(const std::string& path) {
  if (options_.compound) {
    return ObjectForPathCompound(path);
  }
  ASSIGN_OR_RETURN(net::Frame response, CallPath(Op::kLookup, path));
  RETURN_IF_ERROR(response.ToStatus());
  ASSIGN_OR_RETURN(LookupResponse looked,
                   LookupResponse::Decode(response.payload.span()));
  sp<DfsClient> self = std::dynamic_pointer_cast<DfsClient>(shared_from_this());
  if (looked.is_dir) {
    ASSIGN_OR_RETURN(Name prefix, Name::Parse(path));
    return sp<Object>(std::make_shared<RemoteDirContext>(domain(), self,
                                                         prefix));
  }
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

Result<sp<Object>> DfsClient::ObjectForPathCompound(const std::string& path) {
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
  DelegationKind want =
      options_.delegations
          ? (options_.write_delegations ? DelegationKind::kWrite
                                        : DelegationKind::kRead)
          : DelegationKind::kNone;
  CompoundRequest program;
  {
    PathRequest sub;
    sub.path = path;
    program.ops.push_back(
        {static_cast<uint32_t>(Op::kLookup), sub.Encode()});
  }
  {
    OpenRequest sub;
    sub.want_delegation = want;
    if (want != DelegationKind::kNone) {
      sub.node = node_->name();
      sub.service = callback_service_;
    }
    program.ops.push_back({static_cast<uint32_t>(Op::kOpen), sub.Encode()});
  }
  {
    HandleRequest sub;
    program.ops.push_back(
        {static_cast<uint32_t>(Op::kGetAttr), sub.Encode()});
  }
  {
    ReadRequest sub;
    sub.offset = 0;
    sub.length = kPageSize;
    program.ops.push_back({static_cast<uint32_t>(Op::kRead), sub.Encode()});
  }
  net::Frame request;
  request.payload = program.Encode();
  Bump(&Stats::compound_opens);
  ASSIGN_OR_RETURN(net::Frame response, Call(Op::kCompound, request));
  RETURN_IF_ERROR(response.ToStatus());
  ASSIGN_OR_RETURN(CompoundResponse results,
                   CompoundResponse::Decode(response.payload.span()));
  if (results.results.empty()) {
    return ErrCorrupted("empty compound response");
  }
  // Sub-op 0, the lookup, gates the whole resolve; the later ops are
  // opportunistic (a failure there just means no prefetch/delegation —
  // e.g. kOpen fails with kStale handle 0 when the path is a directory).
  const CompoundResponse::SubResult& looked_result = results.results[0];
  if (looked_result.status != 0) {
    return Status(static_cast<ErrorCode>(looked_result.status),
                  looked_result.body.ToString());
  }
  ASSIGN_OR_RETURN(LookupResponse looked,
                   LookupResponse::Decode(looked_result.body.span()));
  sp<DfsClient> self = std::dynamic_pointer_cast<DfsClient>(shared_from_this());
  if (looked.is_dir) {
    ASSIGN_OR_RETURN(Name prefix, Name::Parse(path));
    return sp<Object>(std::make_shared<RemoteDirContext>(domain(), self,
                                                         prefix));
  }
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
  std::optional<OpenResponse> open;
  std::optional<FileAttributes> attrs;
  std::optional<Buffer> first_page;
  if (results.results.size() > 1 && results.results[1].status == 0) {
    Result<OpenResponse> sub =
        OpenResponse::Decode(results.results[1].body.span());
    if (sub.ok()) {
      open = *sub;
    }
  }
  if (results.results.size() > 2 && results.results[2].status == 0) {
    Result<GetAttrResponse> sub =
        GetAttrResponse::Decode(results.results[2].body.span());
    if (sub.ok()) {
      attrs = sub->attrs;
    }
  }
  if (results.results.size() > 3 && results.results[3].status == 0) {
    Result<ReadResponse> sub =
        ReadResponse::Decode(results.results[3].body.span());
    if (sub.ok()) {
      first_page = std::move(sub->data);
    }
  }
  if (open && open->deleg_id != 0) {
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
                     open->deleg_id, open->incarnation);
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
    return ObjectForPath(name.ToString());
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
    ASSIGN_OR_RETURN(net::Frame response,
                     CallPath(Op::kRemove, name.ToString()));
    return response.ToStatus();
  });
}

Result<std::vector<BindingInfo>> DfsClient::ListPath(const std::string& path) {
  return InDomain([&]() -> Result<std::vector<BindingInfo>> {
    ASSIGN_OR_RETURN(net::Frame response, CallPath(Op::kReadDir, path));
    RETURN_IF_ERROR(response.ToStatus());
    ASSIGN_OR_RETURN(ReadDirResponse body,
                     ReadDirResponse::Decode(response.payload.span()));
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
  (void)creds;
  return ListPath("");
}

Result<sp<Context>> DfsClient::CreateContext(const Name& name,
                                             const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Result<sp<Context>> {
    ASSIGN_OR_RETURN(net::Frame response,
                     CallPath(Op::kMkdir, name.ToString()));
    RETURN_IF_ERROR(response.ToStatus());
    sp<DfsClient> self =
        std::dynamic_pointer_cast<DfsClient>(shared_from_this());
    return sp<Context>(std::make_shared<RemoteDirContext>(domain(), self,
                                                          name));
  });
}

Result<sp<File>> DfsClient::CreateFile(const Name& name,
                                       const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Result<sp<File>> {
    ASSIGN_OR_RETURN(net::Frame response,
                     CallPath(Op::kCreate, name.ToString()));
    RETURN_IF_ERROR(response.ToStatus());
    ASSIGN_OR_RETURN(CreateResponse created,
                     CreateResponse::Decode(response.payload.span()));
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
  emit("deleg_returns", stats_.deleg_returns);
  emit("deleg_grant_races", stats_.deleg_grant_races);
}

}  // namespace springfs::dfs
