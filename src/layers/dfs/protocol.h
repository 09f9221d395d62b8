// The "private DFS protocol" (paper Figures 7 and 9): the message
// vocabulary spoken between a DFS server and its remote clients. The paper
// models it on AFS-style protocols; ours carries the pager/cache operations
// across the wire so remote VMMs participate in the server's coherency
// protocol exactly as local cache managers do.
//
// Every op carries a typed request/response body in the Frame payload —
// see src/layers/dfs/wire.h for the per-op structs, each declared once as a
// field list, and the one generic codec that encodes and decodes them.

#ifndef SPRINGFS_LAYERS_DFS_PROTOCOL_H_
#define SPRINGFS_LAYERS_DFS_PROTOCOL_H_

#include "src/fs/file.h"
#include "src/net/network.h"

namespace springfs::dfs {

enum class Op : uint32_t {
  // name space (client -> server); body: PathRequest
  kLookup = 1,   // -> LookupResponse
  kCreate = 2,   // -> CreateResponse
  kMkdir = 3,
  kRemove = 4,
  kReadDir = 5,  // -> ReadDirResponse

  // attributes
  kGetAttr = 10,    // HandleRequest -> GetAttrResponse
  kSetTimes = 11,   // SetTimesRequest
  kSetLength = 12,  // SetLengthRequest
  kGetLength = 13,  // HandleRequest -> GetLengthResponse

  // whole-file data path
  kRead = 20,   // ReadRequest -> ReadResponse
  kWrite = 21,  // WriteRequest -> WriteResponse
  kSyncFile = 22,  // HandleRequest

  // pager-cache channel
  kBindCache = 30,    // BindCacheRequest -> BindCacheResponse
  kUnbindCache = 31,  // UnbindCacheRequest
  kPageIn = 32,       // PageInRequest -> PageInResponse
  kPageOut = 33,      // PageOutRequest
  kWriteOut = 34,
  kSyncPages = 35,
  kPageInRange = 36,  // PageInRequest -> PageInRangeResponse.
                      // Batched cousin of kPageIn: one round trip returns a
                      // whole fault cluster, served from the server's own
                      // clustered path. The block-list response (rather than
                      // one contiguous blob) lets the server clamp or
                      // shorten the range at EOF. kPageIn stays for
                      // single-page faults and old clients.

  // open + delegations (client -> server)
  kOpen = 40,  // OpenRequest -> OpenResponse. Opens a looked-up handle and
               // optionally asks for a read delegation (NFSv4-style, built
               // on the holder leases): while the delegation is valid the
               // client serves opens/attrs locally with zero round trips.

  // striping (client -> metadata server)
  kGetStripeMap = 60,  // HandleRequest -> StripeMapResponse. Returns the
                       // file's striping geometry: stripe size, logical
                       // length, the durable per-file object name, and the
                       // ordered list of data-server targets with their
                       // per-server stripe-object handles (one per replica
                       // lane when the cluster is replicated). The metadata
                       // server lazily creates the backing stripe objects
                       // on the data servers the first time the map is
                       // requested. A non-striped server answers
                       // kInvalidArgument, which tells the client to stay
                       // on the single-server path.
  kReportStaleReplica = 61,  // ReportStaleRequest -> StripeMapResponse.
                       // A striped client that completed a write without
                       // one of the file's replica targets (the target was
                       // down or unreachable) reports it: the metadata
                       // server marks the target's replicas stale — they
                       // missed writes and must not serve reads until
                       // rebuilt — bumps the map version, and answers with
                       // the fresh map. Marking is convergent (an
                       // already-stale target is a no-op) and the server
                       // refuses a mark that leaves a stripe with no
                       // fresh replica.

  // telemetry (any client -> any server); requests carry an empty body.
  kGetStats = 70,   // -> GetStatsResponse. Scrapes the server process's
                    // metrics registry: every counter and every 26-bucket
                    // latency histogram, plus the server's own
                    // StatsProvider counters folded in under "self/" so a
                    // multi-server scrape can tell the servers apart even
                    // when they share a process (the simulated world).
  kGetHealth = 71,  // -> HealthResponse. A structured health document:
                    // role, boot epoch, uptime, stripe geometry, per-file
                    // stale-replica sets + map versions, rebuild counters,
                    // live delegation/lease counts, dedup-window occupancy.
                    // This is how harnesses assert degraded/rebuild state
                    // through the wire instead of peeking at server
                    // internals.

  // compound (client -> server): an ordered program of the ops above,
  // executed server-side as a pipeline. Stops at the first failing op and
  // returns per-op status plus results for every completed op.
  kCompound = 50,  // CompoundRequest -> CompoundResponse

  // callbacks (server -> client); body: CbRecallRequest etc.
  kCbFlushBack = 100,   // CbRecallRequest -> CbRecallResponse
  kCbDenyWrites = 101,  // same shape
  kCbAttrInvalidate = 102,   // CbAttrInvalidateRequest
  kCbRecallDeleg = 103,      // CbRecallDelegRequest -> Empty
};

// True for operations that are naturally safe to re-send when the
// transport fails (timeout, dropped connection): pure reads, plus
// kSyncFile (syncing twice is harmless). Mutating operations are NOT on
// this list — the request may have executed even though the response was
// lost, so a blind retry of kCreate could fail on an already-created file
// and a blind retry of kWrite could double-apply it around another
// client's writes. They become retry-safe anyway through a different
// mechanism: the client stamps each mutating request with a unique
// Frame::request_id and the server keeps a bounded dedup window that
// replays the original response to a retransmission (exactly-once within
// one server boot epoch; see DESIGN.md §11).
// kCompound and kOpen are deliberately NOT idempotent: a compound may
// embed mutating sub-ops, and kOpen allocates delegation state — both ride
// the request-id dedup window instead.
inline bool IsIdempotent(Op op) {
  switch (op) {
    case Op::kLookup:
    case Op::kReadDir:
    case Op::kGetAttr:
    case Op::kGetLength:
    case Op::kRead:
    case Op::kPageIn:
    case Op::kPageInRange:
    case Op::kSyncFile:
    // kGetStripeMap mutates only in the create-if-missing sense: the
    // metadata server ensures the per-target stripe objects exist, and an
    // object that already exists is simply reused. Re-sending it converges
    // on the same map, so it is retry-safe without the dedup window.
    // kReportStaleReplica converges the same way: marking an
    // already-stale target changes nothing.
    case Op::kGetStripeMap:
    case Op::kReportStaleReplica:
    // Telemetry ops are pure reads of server state.
    case Op::kGetStats:
    case Op::kGetHealth:
      return true;
    default:
      return false;
  }
}

// Human-readable op names, used for per-op net/calls metrics
// ("net/calls/lookup") and trace spans. Returns "op<N>" for unknown values.
inline const char* OpName(Op op) {
  switch (op) {
    case Op::kLookup: return "lookup";
    case Op::kCreate: return "create";
    case Op::kMkdir: return "mkdir";
    case Op::kRemove: return "remove";
    case Op::kReadDir: return "readdir";
    case Op::kGetAttr: return "getattr";
    case Op::kSetTimes: return "settimes";
    case Op::kSetLength: return "setlength";
    case Op::kGetLength: return "getlength";
    case Op::kRead: return "read";
    case Op::kWrite: return "write";
    case Op::kSyncFile: return "syncfile";
    case Op::kBindCache: return "bindcache";
    case Op::kUnbindCache: return "unbindcache";
    case Op::kPageIn: return "pagein";
    case Op::kPageOut: return "pageout";
    case Op::kWriteOut: return "writeout";
    case Op::kSyncPages: return "syncpages";
    case Op::kPageInRange: return "pageinrange";
    case Op::kOpen: return "open";
    case Op::kGetStripeMap: return "getstripemap";
    case Op::kReportStaleReplica: return "reportstale";
    case Op::kGetStats: return "getstats";
    case Op::kGetHealth: return "gethealth";
    case Op::kCompound: return "compound";
    case Op::kCbFlushBack: return "cb_flushback";
    case Op::kCbDenyWrites: return "cb_denywrites";
    case Op::kCbAttrInvalidate: return "cb_attrinvalidate";
    case Op::kCbRecallDeleg: return "cb_recall_deleg";
  }
  return "op?";
}

// Adapter for net::SetFrameTypeNamer: names DFS frame types for the
// per-op net/calls metrics; nullptr for values outside the Op vocabulary
// so the transport falls back to its generic "type<N>" form.
inline const char* OpNamer(uint32_t type) {
  const char* name = OpName(static_cast<Op>(type));
  return (name[0] == 'o' && name[1] == 'p' && name[2] == '?') ? nullptr
                                                              : name;
}

}  // namespace springfs::dfs

#endif  // SPRINGFS_LAYERS_DFS_PROTOCOL_H_
