// The striped DFS client: the Lustre-direction scale-out data path
// (DESIGN.md §14).
//
// A striped mount talks to TWO kinds of servers. The metadata server (a
// DfsServer configured with stripe_targets) resolves paths, owns
// attributes and the logical file length, and answers kGetStripeMap with
// the file's striping geometry. The data servers are plain DfsServers,
// each over its own backing store and coherency engine; they never see a
// path the user typed — only the durable per-file stripe-object names the
// metadata server ensures on them.
//
// The client is a layer over plain mounts: one DfsClient for the metadata
// server and one per data server, shared by every file. It computes stripe
// ownership from the map (RAID-0: stripe s lives on target s % width, at
// local offset (s / width) * stripe_size) and fans plain reads out as one
// kRead per stripe extent over each data mount's channel, draining all the
// channels together in event-time order (net::WaitAnyOf) and reassembling
// into the caller's buffer. Aggregate sequential-read bandwidth therefore
// scales with stripe width: each data-server link has its own pacing budget,
// and the extents on different servers overlap their round trips — a
// fan-out costs its slowest server's share, not the sum of the servers'
// tails. Writes fan out the same way (kWrite per stripe extent), with the
// logical length pushed to the metadata server off the data path. Byte
// ops register no cache: the data server serves them as its own cache, so
// it never calls this client back for pages it does not hold. Only VMM
// faults on a mapping use the paging protocol: each (target, lane) cache
// binds once through its data server's mount, as any cache binds below,
// and takes that server's recalls there; then one kPageInRange per
// extent, and kPageOut for mapped write-back.
//
// Failure model per stripe: every data server keeps its own boot epoch and
// holder leases, and fences an evicted cache id (it never reuses one). A
// data-server restart or lease eviction surfaces as kStale on that stripe
// only; the client refetches the map — which re-resolves handles on the
// restarted server — rebinds that stripe's cache registration if it holds
// one, and resubmits just the failed extents. Other stripes keep serving
// throughout. A boot-epoch bump seen on any frame from a data server
// drops, as on a plain mount, every lane registration this client holds
// there and the local caches of those files.
//
// Replication (DESIGN.md §15): with R >= 2 replica lanes, replica r of
// stripe s lives on target (s + r) % width in that server's lane-r object,
// at the SAME local offset as the primary copy. Writes fan to every fresh
// replica (per-(extent, target) dedup ids — see StripeRequestIdTable);
// reads go to the first fresh replica and fail over per extent, so a dead
// data server degrades its stripes instead of erroring them. Replicas a
// target missed while down are marked stale at the metadata server (by
// the MDS when the map ensure fails, or by this client reporting a write
// it could not deliver) and excluded until a rebuild re-syncs them under a
// bumped map version; refreshed maps older than the one held are fenced.

#ifndef SPRINGFS_LAYERS_DFS_STRIPED_CLIENT_H_
#define SPRINGFS_LAYERS_DFS_STRIPED_CLIENT_H_

#include <map>
#include <vector>

#include "src/layers/dfs/dfs_client.h"

namespace springfs::dfs {

// The striped data path retries a fan-out under the DFS client's retry
// budget and backoff (RetryState).
struct StripedDfsClientOptions {
  // The channel options of each data server's mount (window, pacing,
  // RACK/RTO).
  net::ChannelOptions data_channel;
};

// One computed stripe extent of a logical request: the unit of fan-out
// (one kRead / kWrite submission, or kPageInRange / kPageOut for mapped
// I/O). Exposed for unit tests of the striping math.
struct StripeExtent {
  size_t target = 0;         // index into the map's target list
  uint64_t logical_offset = 0;
  uint64_t local_offset = 0;  // offset within the target's stripe object
  uint64_t size = 0;
};

// Splits [offset, offset+size) into per-stripe-unit extents for a RAID-0
// layout of `width` targets with `stripe_size`-byte units.
std::vector<StripeExtent> ComputeStripeExtents(uint64_t offset, uint64_t size,
                                               uint64_t stripe_size,
                                               size_t width);

// The number of bytes of a logical `length`-byte file stored on target
// `target` (the stripe object's expected local length). With replication,
// the lane-r object on target t is byte-identical to the lane-0 object on
// target (t - r) % width, so its local length is
// LocalLengthFor((t - r) % width, ...).
uint64_t LocalLengthFor(size_t target, uint64_t length, uint64_t stripe_size,
                        size_t width);

// Mints the per-(extent, target) dedup request ids of one mutating
// fan-out. An id is minted on the first submission of an extent to a
// target and reused for every retransmission to that SAME target, so a
// lost-response retry dedups server-side. Re-targeting the extent to a
// different replica (after a map refresh moved it) mints a fresh id:
// reusing the old target's id on the new server could alias an unrelated
// entry in the new server's dedup window and replay the wrong response.
class StripeRequestIdTable {
 public:
  // The id for (extent, target), minted on first use. `retargeted`, when
  // non-null, reports whether this call minted a fresh id for an extent
  // that already held an id for a different target.
  uint64_t IdFor(size_t extent, size_t target, bool* retargeted = nullptr);

 private:
  std::map<std::pair<size_t, size_t>, uint64_t> ids_;
};

class StripedRemoteFile;
class StripedSession;

// The striped mount. It is the handle its user holds: it owns the table of
// the files it opened (by path), each with its stripe map, metadata handle
// and lane bindings, so a file its user dropped is re-opened from the
// table with no call. The files share the mount's session (the metadata
// and data mounts, the counters) without owning the mount, so a file
// keeps working after the mount is dropped; dropping the mount and every
// file from it destroys the session and the data mounts.
class StripedDfsClient : public Servant, public metrics::StatsProvider {
 public:
  // Mounts the metadata service `service` exported by `server_node` and
  // prepares the striped data path. Data-server mounts are connected
  // lazily, per target at its first fan-out.
  static Result<sp<StripedDfsClient>> Mount(
      const sp<net::Node>& node, net::Network* network,
      const std::string& server_node, const std::string& service,
      Clock* clock = &DefaultClock(),
      const StripedDfsClientOptions& options = {});

  const char* interface_name() const override { return "striped_dfs_client"; }

  // Opens an existing file for striped I/O: resolves the path on the
  // metadata server and fetches its stripe map. Fails with
  // kInvalidArgument when the server is not striped (callers fall back to
  // the plain single-server file from meta()).
  Result<sp<File>> OpenStriped(const std::string& path);

  // Creates the file on the metadata server, then opens it striped.
  Result<sp<File>> CreateStriped(const std::string& path);

  // The inner metadata-path client (naming, attrs, non-striped files).
  const sp<DfsClient>& meta() const { return meta_; }

  // --- StatsProvider ---
  // The session's counters (the session is the one in the registry).
  std::string stats_prefix() const override { return "layer/striped_client"; }
  void CollectStats(const metrics::StatsEmitter& emit) const override;

 private:
  StripedDfsClient(sp<DfsClient> meta, sp<StripedSession> session);

  // Fetches `path`'s stripe map under `handle` and installs the file.
  Result<sp<File>> OpenWithHandle(const std::string& path, uint64_t handle);

  const sp<DfsClient> meta_;
  const sp<StripedSession> session_;

  std::mutex mutex_;
  std::map<std::string, sp<StripedRemoteFile>> files_;  // by path
};

}  // namespace springfs::dfs

#endif  // SPRINGFS_LAYERS_DFS_STRIPED_CLIENT_H_
