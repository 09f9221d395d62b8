// Typed wire codec for the DFS protocol.
//
// Every DFS operation has a request struct and (where it returns data) a
// response struct. Each struct declares its layout exactly once, as a
// field list in wire order:
//
//   template <class V> void Visit(V&& v) { v(handle, offset, length); }
//
// One generic codec (WireWriter / WireReader) walks that list in both
// directions, so an encoder and its decoder cannot disagree. Typed bodies
// are what make compound operations possible: a compound program is simply
// a sequence of (op, encoded request body) pairs, and its result a
// sequence of (op, status, encoded response body) triples, reusing the
// same per-op structs as single-frame dispatch.
//
// Conventions (every integer little-endian):
//   * u32/u64/i32 integers; bools and enums travel as u32
//   * strings and byte blobs carry a u32 length prefix
//   * vectors and maps carry a u32 element count. Every element takes at
//     least one byte, so a count larger than the bytes left is corrupt and
//     is rejected before anything is allocated
//   * a fixed-size array carries its u32 count, which must match exactly
//   * FileAttributes travel as a u32 byte length (40) and five u64s: kind,
//     size, nlink, atime, mtime
//   * a block list travels as a u32 byte length and (u64 offset, kPageSize
//     bytes) records, each page padded or cut to kPageSize
//   * a body must be consumed exactly: trailing bytes are corrupt
//   * a `handle` of 0 inside a compound body means "the current handle"
//     (the register set by the last kLookup/kCreate/kOpen in the program)
//
// On top of the codec sit the typed call helpers every call site uses:
// RequestFrame builds a request, Reply turns a response into its body or
// its error Status, and Answer serves one request end to end.

#ifndef SPRINGFS_LAYERS_DFS_WIRE_H_
#define SPRINGFS_LAYERS_DFS_WIRE_H_

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/fs/file.h"
#include "src/layers/dfs/protocol.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"

namespace springfs::dfs {

// --- the codec ---

class WireWriter {
 public:
  template <class... F>
  void operator()(const F&... fields) {
    (Put(fields), ...);
  }
  Buffer Take() { return std::move(out_); }

 private:
  template <class T>
  void Put(const T& v);
  void Append(const void* data, size_t n) {
    out_.append(ByteSpan(static_cast<const uint8_t*>(data), n));
  }

  Buffer out_;
};

class WireReader {
 public:
  explicit WireReader(ByteSpan wire) : wire_(wire) {}

  template <class... F>
  void operator()(F&... fields) {
    (Get(fields), ...);
  }
  // OK when every field decoded and no byte is left over.
  Status Finish() const;

 private:
  template <class T>
  void Get(T& v);
  // The next n bytes, or nullptr (and a sticky kCorrupted) when fewer are
  // left.
  const uint8_t* Take(size_t n);
  void Fail(const char* what);
  size_t left() const { return wire_.size() - at_; }

  ByteSpan wire_;
  size_t at_ = 0;
  Status status_;
};

inline constexpr uint32_t kAttrsWireSize = 5 * 8;
inline constexpr size_t kBlockRecordSize = 8 + kPageSize;

template <class T>
void WireWriter::Put(const T& v) {
  if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
    Put(static_cast<uint32_t>(v));
  } else if constexpr (std::is_integral_v<T>) {
    uint8_t raw[sizeof(T)];
    StoreLe(raw, v);
    Append(raw, sizeof(T));
  } else if constexpr (std::is_same_v<T, std::string> ||
                       std::is_same_v<T, Buffer>) {
    Put(static_cast<uint32_t>(v.size()));
    Append(v.data(), v.size());
  } else if constexpr (std::is_same_v<T, FileAttributes>) {
    (*this)(kAttrsWireSize, static_cast<uint64_t>(v.kind), v.size,
            uint64_t{v.nlink}, v.atime_ns, v.mtime_ns);
  } else if constexpr (std::is_same_v<T, std::vector<BlockData>>) {
    Put(static_cast<uint32_t>(v.size() * kBlockRecordSize));
    for (const BlockData& block : v) {
      size_t n = std::min<size_t>(block.data.size(), kPageSize);
      Put(block.offset);
      Append(block.data.data(), n);
      out_.resize(out_.size() + kPageSize - n);  // zero-pads a short page
    }
  } else if constexpr (std::is_same_v<T, metrics::Histogram::Snapshot>) {
    (*this)(v.count, v.sum_ns, v.buckets);
  } else if constexpr (requires { typename T::mapped_type; }) {
    Put(static_cast<uint32_t>(v.size()));
    for (const auto& [key, value] : v) {
      (*this)(key, value);
    }
  } else if constexpr (requires { v.begin(); }) {  // vectors, arrays
    Put(static_cast<uint32_t>(v.size()));
    for (const auto& element : v) {
      Put(element);
    }
  } else {
    const_cast<T&>(v).Visit(*this);  // a nested field list
  }
}

template <class T>
void WireReader::Get(T& v) {
  if (!status_.ok()) {
    return;
  }
  if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
    uint32_t raw = 0;
    Get(raw);
    v = static_cast<T>(raw);
  } else if constexpr (std::is_integral_v<T>) {
    if (const uint8_t* p = Take(sizeof(T))) {
      v = LoadLe<T>(p);
    }
  } else if constexpr (std::is_same_v<T, std::string> ||
                       std::is_same_v<T, Buffer>) {
    uint32_t n = 0;
    Get(n);
    if (const uint8_t* p = Take(n)) {
      v = T(reinterpret_cast<const char*>(p), n);
    }
  } else if constexpr (std::is_same_v<T, FileAttributes>) {
    uint32_t n = 0;
    uint64_t kind = 0;
    uint64_t nlink = 0;
    Get(n);
    if (status_.ok() && n != kAttrsWireSize) {
      Fail("attribute record size");
    }
    (*this)(kind, v.size, nlink, v.atime_ns, v.mtime_ns);
    v.kind = static_cast<FileKind>(kind);
    v.nlink = static_cast<uint32_t>(nlink);
  } else if constexpr (std::is_same_v<T, std::vector<BlockData>>) {
    uint32_t n = 0;
    Get(n);
    if (status_.ok() && (n % kBlockRecordSize != 0 || n > left())) {
      Fail("block list not a whole number of records");
    }
    for (size_t i = 0; status_.ok() && i < n / kBlockRecordSize; ++i) {
      BlockData block;
      Get(block.offset);
      if (const uint8_t* p = Take(kPageSize)) {
        block.data = Buffer(p, kPageSize);
        v.push_back(std::move(block));
      }
    }
  } else if constexpr (std::is_same_v<T, metrics::Histogram::Snapshot>) {
    (*this)(v.count, v.sum_ns, v.buckets);
  } else if constexpr (requires { std::tuple_size<T>::value; }) {
    uint32_t n = 0;
    Get(n);
    if (status_.ok() && n != v.size()) {
      Fail("fixed-size array count mismatch");
    }
    for (auto& element : v) {
      Get(element);
    }
  } else if constexpr (requires { v.begin(); }) {  // vectors, maps
    uint32_t n = 0;
    Get(n);
    if (status_.ok() && n > left()) {
      Fail("element count exceeds body size");
    }
    for (uint32_t i = 0; status_.ok() && i < n; ++i) {
      if constexpr (requires { typename T::mapped_type; }) {
        typename T::key_type key{};
        typename T::mapped_type value{};
        (*this)(key, value);
        v.insert_or_assign(std::move(key), std::move(value));
      } else {
        typename T::value_type element{};
        Get(element);
        v.push_back(std::move(element));
      }
    }
  } else {
    v.Visit(*this);
  }
}

template <class M>
Buffer Encode(const M& msg) {
  WireWriter w;
  const_cast<M&>(msg).Visit(w);  // the writer only reads the fields
  return w.Take();
}

template <class M>
Result<M> Decode(ByteSpan wire) {
  M msg;
  WireReader r(wire);
  msg.Visit(r);
  RETURN_IF_ERROR(r.Finish());
  if constexpr (requires { msg.Validate(); }) {
    RETURN_IF_ERROR(msg.Validate());
  }
  return msg;
}

// --- typed calls ---

// An empty body: telemetry requests and bare acknowledgements.
struct Empty {
  template <class V>
  void Visit(V&&) {}
};

// A request frame for `op` carrying `msg`.
template <class M>
net::Frame RequestFrame(Op op, const M& msg) {
  net::Frame frame;
  frame.type = static_cast<uint32_t>(op);
  frame.payload = Encode(msg);
  return frame;
}

// The decoded body of a response, or the error Status it carries — from
// the transport (a failed call or completion) or from the frame itself.
template <class M>
Result<M> Reply(const net::Frame& response) {
  RETURN_IF_ERROR(response.ToStatus());
  return Decode<M>(response.payload.span());
}
template <class M>
Result<M> Reply(const Result<net::Frame>& response) {
  RETURN_IF_ERROR(response.status());
  return Reply<M>(*response);
}
template <class M>
Result<M> Reply(const net::Completion& done) {
  RETURN_IF_ERROR(done.status);
  return Reply<M>(done.response);
}

// The response frame for a handler's outcome: an error frame carrying the
// status code and message, or an OK frame carrying the encoded body.
net::Frame ReplyFrame(const Status& st);
template <class M>
net::Frame ReplyFrame(const M& msg) {
  net::Frame frame;
  frame.payload = Encode(msg);
  return frame;
}
template <class M>
net::Frame ReplyFrame(const Result<M>& reply) {
  return reply.ok() ? ReplyFrame(*reply) : ReplyFrame(reply.status());
}

// Serves one request: decodes its Req body, runs `handler(req)`, and
// answers with what the handler returns (a Status, a Result<Resp> or a
// Resp).
template <class Req, class Handler>
net::Frame Answer(const net::Frame& request, Handler&& handler) {
  Result<Req> req = Decode<Req>(request.payload.span());
  if (!req.ok()) {
    return ReplyFrame(req.status());
  }
  return ReplyFrame(handler(*req));
}

// --- name-space ops (the path is the whole request) ---

struct PathRequest {  // kLookup, kCreate, kMkdir, kRemove, kReadDir
  std::string path;

  template <class V>
  void Visit(V&& v) { v(path); }
};

struct LookupResponse {
  uint64_t handle = 0;  // 0 for directories (they carry no handle)
  bool is_dir = false;

  template <class V>
  void Visit(V&& v) { v(handle, is_dir); }
};

struct CreateResponse {
  uint64_t handle = 0;

  template <class V>
  void Visit(V&& v) { v(handle); }
};

struct ReadDirResponse {
  struct Entry {
    std::string name;
    bool is_dir = false;

    template <class V>
    void Visit(V&& v) { v(name, is_dir); }
  };
  std::vector<Entry> entries;

  template <class V>
  void Visit(V&& v) { v(entries); }
};

// --- attribute ops ---

struct HandleRequest {  // kGetAttr, kGetLength, kSyncFile, kGetStripeMap
  uint64_t handle = 0;

  template <class V>
  void Visit(V&& v) { v(handle); }
};

struct GetAttrResponse {
  FileAttributes attrs;

  template <class V>
  void Visit(V&& v) { v(attrs); }
};

struct SetTimesRequest {
  uint64_t handle = 0;
  uint64_t atime_ns = 0;
  uint64_t mtime_ns = 0;

  template <class V>
  void Visit(V&& v) { v(handle, atime_ns, mtime_ns); }
};

struct SetLengthRequest {
  uint64_t handle = 0;
  uint64_t length = 0;

  template <class V>
  void Visit(V&& v) { v(handle, length); }
};

struct GetLengthResponse {
  uint64_t length = 0;

  template <class V>
  void Visit(V&& v) { v(length); }
};

// --- whole-file data ops ---

struct ReadRequest {
  uint64_t handle = 0;
  uint64_t offset = 0;
  uint64_t length = 0;

  template <class V>
  void Visit(V&& v) { v(handle, offset, length); }
};

struct ReadResponse {
  Buffer data;

  template <class V>
  void Visit(V&& v) { v(data); }
};

struct WriteRequest {
  uint64_t handle = 0;
  uint64_t offset = 0;
  Buffer data;

  template <class V>
  void Visit(V&& v) { v(handle, offset, data); }
};

struct WriteResponse {
  uint64_t written = 0;

  template <class V>
  void Visit(V&& v) { v(written); }
};

// --- pager-cache channel ---

struct BindCacheRequest {
  uint64_t handle = 0;
  uint64_t client_channel = 0;
  bool is_fs_cache = false;
  std::string node;     // where callbacks go
  std::string service;  // the client's callback service

  template <class V>
  void Visit(V&& v) { v(handle, client_channel, is_fs_cache, node, service); }
};

struct BindCacheResponse {
  uint64_t cache_id = 0;

  template <class V>
  void Visit(V&& v) { v(cache_id); }
};

struct UnbindCacheRequest {
  uint64_t handle = 0;
  uint64_t cache_id = 0;

  template <class V>
  void Visit(V&& v) { v(handle, cache_id); }
};

struct PageInRequest {  // kPageIn and kPageInRange
  uint64_t handle = 0;
  uint64_t cache_id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  bool write_access = false;

  template <class V>
  void Visit(V&& v) { v(handle, cache_id, offset, size, write_access); }
};

struct PageInResponse {  // kPageIn: one contiguous blob
  Buffer data;

  template <class V>
  void Visit(V&& v) { v(data); }
};

struct PageInRangeResponse {  // kPageInRange: a block list (EOF may clamp)
  std::vector<BlockData> blocks;

  template <class V>
  void Visit(V&& v) { v(blocks); }
};

struct PageOutRequest {  // kPageOut, kWriteOut, kSyncPages
  uint64_t handle = 0;
  uint64_t cache_id = 0;
  uint64_t offset = 0;
  Buffer data;

  template <class V>
  void Visit(V&& v) { v(handle, cache_id, offset, data); }
};

// --- open + delegations ---

// Delegations are read claims; an open that asks for any other kind gets
// none. The kind travels as a u32.
enum class DelegationKind : uint32_t {
  kNone = 0,
  kRead = 1,
};

struct OpenRequest {
  uint64_t handle = 0;  // 0 = the compound current handle
  DelegationKind want_delegation = DelegationKind::kNone;
  std::string node;     // recall callbacks go here...
  std::string service;  // ...to this service

  template <class V>
  void Visit(V&& v) { v(handle, want_delegation, node, service); }
};

struct OpenResponse {
  uint64_t handle = 0;
  uint64_t deleg_id = 0;    // 0 = no delegation granted; ids are never reused
  uint64_t expires_at = 0;  // absolute server-clock lease expiry

  template <class V>
  void Visit(V&& v) { v(handle, deleg_id, expires_at); }
};

// --- striping ---

struct StripeMapResponse {  // kGetStripeMap (request side is HandleRequest)
  struct Target {
    std::string node;     // data-server node on the fabric
    std::string service;  // its DFS service name
    // One stripe-object handle per replica lane hosted on this server
    // (size = replicas; lane_handles[0] is the primary lane). Handles are
    // hints: valid for the server boot epoch that issued them; clients get
    // fresh ones with a map refetch after a data-server restart. All
    // zeros when the server was unreachable while the map was built.
    std::vector<uint64_t> lane_handles;
    // True when this target's replicas missed writes (its server was down
    // or a client reported a failed write) and have not been rebuilt yet.
    // Stale replicas are excluded from reads and writes; a background
    // rebuild re-syncs them from a fresh peer and clears the mark under a
    // bumped map_version.
    bool stale = false;

    template <class V>
    void Visit(V&& v) { v(node, service, stale, lane_handles); }
  };

  uint64_t stripe_size = 0;  // bytes per stripe unit (page multiple)
  uint64_t length = 0;       // logical file length (metadata-owned)
  uint64_t map_version = 1;  // bumped on every staleness change; persisted
                             // at the metadata server so it stays monotonic
                             // across MDS restarts. Clients ignore maps
                             // older than the one they hold.
  uint32_t replicas = 1;     // replica lanes per stripe (R)
  std::string object_name;   // durable per-file primary-lane object name on
                             // every data server (stable across restarts);
                             // lane r > 0 appends "-r<r>"
  std::vector<Target> targets;  // rotated-replica order: replica r of
                                // logical stripe s lives on target
                                // (s + r) % targets.size(), in that
                                // target's lane-r object, at the same
                                // local offset as the primary copy

  template <class V>
  void Visit(V&& v) {
    v(stripe_size, length, map_version, replicas, object_name, targets);
  }
};

// Replica placement, the one rule both the client and the metadata server
// follow: replica lane `lane` of the stripes whose primary is target
// `primary` lives on target (primary + lane) % width.
inline size_t ReplicaTarget(size_t primary, size_t lane, size_t width) {
  return (primary + lane) % width;
}
// Its inverse: the primary target whose stripes lane `lane` of `target`
// holds.
inline size_t PrimaryTarget(size_t target, size_t lane, size_t width) {
  return (target + width - lane % width) % width;
}

struct ReportStaleRequest {  // kReportStaleReplica -> StripeMapResponse
  uint64_t handle = 0;       // metadata handle of the striped file
  uint32_t target = 0;       // index of the target that missed a write
  uint64_t map_version = 0;  // the map the reporter acted under; a report
                             // older than the file's state (it raced a
                             // rebuild) marks nothing

  template <class V>
  void Visit(V&& v) { v(handle, target, map_version); }
};

// --- telemetry ---

struct GetStatsResponse {  // kGetStats (request body is Empty)
  // The server process's full metrics registry: every counter plus every
  // latency histogram (count, sum, and all kNumBuckets power-of-two
  // buckets). The serving server also folds its own StatsProvider counters
  // in under a "self/" prefix, so a scrape of several servers sharing one
  // process (the simulated world) still tells them apart. A histogram
  // whose bucket count does not match the registry's compiled-in shape is
  // corrupt.
  metrics::Registry::Snapshot snapshot;

  template <class V>
  void Visit(V&& v) { v(snapshot.values, snapshot.histograms); }
};

struct HealthResponse {  // kGetHealth (request body is Empty)
  enum class Role : uint32_t {
    kData = 0,      // plain data/file server
    kMetadata = 1,  // striped metadata server (has stripe targets)
  };

  // One tracked striped file's replica health, as the metadata server
  // sees it: the durable map version and the indices of stripe targets
  // whose replicas missed writes and have not been rebuilt.
  struct FileHealth {
    std::string path;
    uint64_t map_version = 1;
    std::vector<uint32_t> stale_targets;

    template <class V>
    void Visit(V&& v) { v(path, map_version, stale_targets); }
  };

  Role role = Role::kData;
  uint64_t boot_epoch = 0;
  uint64_t uptime_ns = 0;        // server clock now - boot time
  uint64_t stripe_size = 0;      // 0 on a non-striped server
  uint32_t stripe_width = 0;     // number of data targets (0 = not MDS)
  uint32_t stripe_replicas = 0;  // replica lanes per stripe (0 = not MDS)
  uint64_t rebuilds_completed = 0;  // stale targets re-synced, cumulative
  std::vector<FileHealth> files;    // striped files with tracked state
  uint64_t delegations_active = 0;  // live delegations across all files
  uint64_t leases_active = 0;       // live remote cache bindings (leases)
  uint64_t dedup_entries = 0;       // request-id dedup window occupancy

  template <class V>
  void Visit(V&& v) {
    v(role, boot_epoch, uptime_ns, stripe_size, stripe_width,
      stripe_replicas, rebuilds_completed, files, delegations_active,
      leases_active, dedup_entries);
  }
  Status Validate() const {
    return role <= Role::kMetadata ? Status::Ok()
                                   : ErrCorrupted("unknown health role");
  }
};

// --- compound ---

struct CompoundRequest {
  struct SubOp {
    uint32_t op = 0;  // an Op value
    Buffer body;      // that op's encoded request struct

    template <class V>
    void Visit(V&& v) { v(op, body); }
  };
  std::vector<SubOp> ops;

  template <class V>
  void Visit(V&& v) { v(ops); }
};

struct CompoundResponse {
  struct SubResult {
    uint32_t op = 0;
    int32_t status = 0;  // ErrorCode; 0 = ok
    Buffer body;         // response body when ok, error message when not

    template <class V>
    void Visit(V&& v) { v(op, status, body); }
  };
  // One entry per *attempted* op: every completed op plus, when the
  // pipeline stopped early, the single failing op. Ops after the failure
  // were never attempted and have no entry.
  std::vector<SubResult> results;

  template <class V>
  void Visit(V&& v) { v(results); }
};

// --- server -> client callbacks ---

struct CbRecallRequest {  // kCbFlushBack, kCbDenyWrites
  uint64_t client_channel = 0;
  uint64_t offset = 0;
  uint64_t size = 0;

  template <class V>
  void Visit(V&& v) { v(client_channel, offset, size); }
};

struct CbRecallResponse {
  std::vector<BlockData> blocks;

  template <class V>
  void Visit(V&& v) { v(blocks); }
};

struct CbAttrInvalidateRequest {
  uint64_t client_channel = 0;

  template <class V>
  void Visit(V&& v) { v(client_channel); }
};

struct CbRecallDelegRequest {  // -> Empty
  uint64_t deleg_id = 0;

  template <class V>
  void Visit(V&& v) { v(deleg_id); }
};

}  // namespace springfs::dfs

#endif  // SPRINGFS_LAYERS_DFS_WIRE_H_
