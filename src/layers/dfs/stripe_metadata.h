// The metadata role of a striped DFS cluster (DESIGN.md §14, §15): the
// stripe geometry, each file's replica staleness and map version, the
// stripe maps built from them, and the rebuild of stale replicas. A
// DfsServer built with stripe targets holds one; a data server holds none.
//
// The role sees a file only as its path and the file below the server.
// Handles, the page engine and delegations stay the server's. Its state
// lives in one sidecar file per striped file on the metadata store; the
// role reads them once, when it is built, and from then on is their only
// writer. A change to a file's state is durable (the sidecar is synced)
// before the role installs it, so no map or report ever carries a mark or
// a clear that a power failure of the metadata server could lose.

#ifndef SPRINGFS_LAYERS_DFS_STRIPE_METADATA_H_
#define SPRINGFS_LAYERS_DFS_STRIPE_METADATA_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/layers/dfs/wire.h"

namespace springfs::dfs {

// A data server of the cluster, as the metadata server calls it.
struct StripeTarget {
  std::string node;
  std::string service;
};

class StripeMetadata {
 public:
  // Builds the role over the metadata store `store`, calling the data
  // servers from `node`. Refuses a stripe size that is zero or not a page
  // multiple; clamps `replicas` to [1, width].
  static Result<std::unique_ptr<StripeMetadata>> Create(
      net::Network* network, std::string node, sp<StackableFs> store,
      uint64_t stripe_size, std::vector<StripeTarget> targets,
      uint32_t replicas);

  // kGetStripeMap for the file at `path`, stored as `file`. Ensures every
  // target's lane objects; with R >= 2 an unreachable target is marked
  // stale and served with zero handles instead of failing the map.
  Result<StripeMapResponse> GetMap(const std::string& path, File& file);
  // kReportStaleReplica: marks the reported target, unless the reporter's
  // map is older than the file's state, then answers the fresh map.
  Result<StripeMapResponse> ReportStale(const std::string& path, File& file,
                                        const ReportStaleRequest& req);

  // One pass of the rebuild daemon: for every file with stale targets,
  // re-syncs each stale target's lane objects from a fresh peer (the
  // lane-r object on target t is byte-identical to the lane-r' object on
  // target (t - r + r') % width), syncs them, and only then clears the
  // mark under a bumped map version. Returns the number of targets brought
  // back fresh. It assumes the rebuilt files are quiesced (DESIGN.md §15).
  Result<size_t> RunRebuildPass();

  // The stripe part of the health document (DESIGN.md §16).
  void FillHealth(HealthResponse& body) const;
  // The stripe_* counters, under the server's stats prefix.
  void CollectStats(const metrics::StatsEmitter& emit) const;

 private:
  // A file's replica staleness and map version, as its sidecar holds them.
  struct State {
    uint64_t version = 1;
    std::vector<bool> stale;  // by target index
  };

  StripeMetadata(net::Network* network, std::string node,
                 sp<StackableFs> store, uint64_t stripe_size,
                 std::vector<StripeTarget> targets, uint32_t replicas);

  // Reads every sidecar on the store into states_.
  void LoadSidecars();
  // `path`'s state, the default one if it has none; `mutex_` held.
  State& StateLocked(const std::string& path);
  // A copy of `path`'s state.
  State Snapshot(const std::string& path);
  // Applies `change` to `path`'s state; when it reports a change, bumps the
  // version, writes and syncs the sidecar, and installs the result only
  // once that succeeded. Returns the state now served.
  Result<State> Update(const std::string& path,
                       const std::function<bool(State&)>& change);
  // Marks target `t` stale unless it already is, the mark would leave some
  // stripe with no fresh replica, or the file's version is newer than
  // `seen_version`.
  Result<State> MarkStale(const std::string& path, size_t t,
                          uint64_t seen_version);

  template <class Resp = Empty, class Req>
  Result<Resp> CallTarget(const StripeTarget& target, Op op, const Req& req);
  // The lookup -> create -> re-lookup ladder ensuring one stripe object on
  // one data server; returns its current handle.
  Result<uint64_t> EnsureStripeObject(const StripeTarget& target,
                                      const std::string& name);
  Result<StripeMapResponse> BuildMap(const std::string& path, File& file);
  // Re-syncs and syncs every lane object of stale target `t` from a fresh
  // peer.
  Status RebuildTarget(const std::string& object_name, size_t t,
                       const std::vector<bool>& stale);

  net::Network* const network_;
  const std::string node_;
  const sp<StackableFs> store_;
  const uint64_t stripe_size_;
  const std::vector<StripeTarget> targets_;
  const uint32_t replicas_;

  // Per-file state by path. Held across a sidecar write and sync, never
  // across a wire call.
  mutable std::mutex mutex_;
  std::map<std::string, State> states_;

  metrics::Counter maps_served_;
  metrics::Counter objects_created_;
  metrics::Counter replicas_marked_stale_;
  metrics::Counter stale_reports_;
  metrics::Counter rebuilds_;
  metrics::Counter rebuild_bytes_;
};

}  // namespace springfs::dfs

#endif  // SPRINGFS_LAYERS_DFS_STRIPE_METADATA_H_
