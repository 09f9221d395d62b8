// Per-block single-writer/multiple-reader coherency engine (paper §6.2).
//
// "The coherency layer implements a per-block multiple-readers/single-
// writer coherency protocol. Among other things, the implementation keeps
// track of the state of each file block (read-only vs. read-write) and of
// each cache object that holds the block at any point in time. Coherency
// actions are triggered depending on the state and the current request."
//
// One engine instance tracks one file. The engine is used both by the
// coherency layer and by DFS (across remote client caches) — the paper
// notes the authors originally planned this as "a regular C++ library that
// any pager implementation could use" before also making it a layer; this
// repo provides both forms (the library here, the layer in
// src/layers/coherent) and an ablation bench comparing them.
//
// The caller provides the per-file lock; Acquire performs cache-object
// callbacks inline (callees — VMMs, stacked layers — never call back into
// the owning layer from these callbacks, so holding the file lock is safe).
// A caller that sends the callbacks of one action itself (the DFS server,
// which sends every recall of a change as one round of frames) uses
// Acquire's two halves, Conflicts and Grant, holding the lock across both.
//
// Failure model (DESIGN.md §11): callbacks can fail — the holder may be a
// remote cache whose client died or whose link dropped the frame. With
// leases configured (ConfigureLeases), each holder carries a clock-stamped
// lease, renewed whenever the holder is heard from (AddCache, Acquire,
// Release*, a successful callback). A conflicting holder whose callback
// fails with an unreachable-style code (kTimedOut / kConnectionLost /
// kDeadObject / kNotFound) — or whose lease has already expired — is
// EVICTED: removed from every block, its possibly-dirty writer blocks
// marked recovery_needed (the pager serves its last stable copy), and the
// waiter proceeds. Any other callback failure before the lease expires
// fails the action: Acquire calls no holder after it, the holders that did
// answer still give up their claims and hand over their dirty blocks, and
// the requester is granted nothing.
// Stale messages from an evicted holder are fenced: Release* from a
// non-member holder id is a no-op. Callers never reuse a cache id (a
// revived holder registers under a fresh one), so the id alone fences.

#ifndef SPRINGFS_COHERENCY_ENGINE_H_
#define SPRINGFS_COHERENCY_ENGINE_H_

#include <map>
#include <set>
#include <vector>

#include "src/support/clock.h"
#include "src/vmm/interfaces.h"

namespace springfs {

struct CoherencyStats {
  uint64_t flush_back_calls = 0;
  uint64_t deny_write_calls = 0;
  uint64_t blocks_recovered = 0;  // dirty blocks pulled out of demoted caches
  uint64_t callback_failures = 0;  // deny_writes/flush_back returned an error
  uint64_t evictions = 0;          // holders forcibly removed
  uint64_t lease_expiries = 0;     // evictions where the lease had lapsed
  uint64_t lost_dirty_blocks = 0;  // possibly-dirty blocks of evicted holders
  uint64_t fenced_releases = 0;    // Release*/stale frames from non-members
};

class CoherencyEngine {
 public:
  // Enables holder leases. Off by default (lease_ns = 0): local users
  // (mem_file, the coherency layer) share one address space with their
  // caches and never need eviction. DFS configures this per server file.
  void ConfigureLeases(Clock* clock, uint64_t lease_ns);

  // Registers a cache (identified by the pager's channel id for it) and
  // stamps its lease.
  void AddCache(uint64_t cache_id, sp<CacheObject> cache);
  void RemoveCache(uint64_t cache_id);
  bool HasCache(uint64_t cache_id) const;
  size_t NumCaches() const;
  // Every registered cache object (for broadcast actions such as truncation
  // delete_range / zero_fill).
  std::vector<sp<CacheObject>> Caches() const;

  // One callback an action must make before it may grant: a conflicting
  // holder to demote (`deny`: deny_writes) or to flush (flush_back) over the
  // action's page-expanded range.
  struct Recall {
    uint64_t cache_id = 0;
    sp<CacheObject> cache;
    bool deny = false;
    Range pages;
  };

  // What an action got back: the dirty blocks the holders that answered
  // handed over — the most recent content, which the caller must fold into
  // its own store (or push below) before serving data, and also when the
  // action failed — and the action's verdict. A failed action grants the
  // requester nothing.
  struct Recovered {
    std::vector<BlockData> blocks;
    Status status = Status::Ok();

    bool ok() const { return status.ok(); }
  };

  // Grants `requester` the given access to `range`: Conflicts, then each
  // recall's deny_writes/flush_back callback in order up to the first one
  // that fails the action, then Grant on the holders called.
  // `requester` may be 0 for an anonymous reader (e.g. the pager itself
  // serving a direct read): it forces demotion but registers no holder.
  // Renews the requester's lease; evicts unreachable/expired conflicting
  // holders as described above instead of failing forever.
  Recovered Acquire(uint64_t requester, Range range, AccessRights access);

  // Acquire's first half: the holders that conflict with the access,
  // demoted when it reads and flushed when it writes. A holder whose lease
  // has lapsed is evicted instead of listed. kStale when `requester` is not
  // registered (it was evicted and must re-register).
  Result<std::vector<Recall>> Conflicts(uint64_t requester, Range range,
                                        AccessRights access);

  // Acquire's second half: `answers[i]` is the callback answer of
  // `recalls[i]`. An answer renews its holder's lease; a failure evicts an
  // unreachable (or lease-expired) holder and otherwise fails the action. A
  // failed `round` fails it too: callbacks of the same change sent for
  // another engine, or the refusal that ended Acquire's callbacks. A failed
  // action applies only the answering holders' transitions; a granted one
  // also registers the requester.
  Recovered Grant(uint64_t requester, Range range, AccessRights access,
                  const std::vector<Recall>& recalls,
                  std::vector<Result<std::vector<BlockData>>> answers,
                  Status round = Status::Ok());

  // State maintenance when holders act voluntarily. A release from a
  // holder that is no longer registered (evicted, then the stale frame
  // arrives) is fenced off as a no-op.
  // page_out — the holder wrote back and dropped the range.
  void ReleaseDropped(uint64_t holder, Range range);
  // write_out — the holder wrote back and keeps the range read-only.
  void ReleaseDowngraded(uint64_t holder, Range range);

  // Invariant probes for tests.
  bool BlockHasWriter(Offset page_offset) const;
  size_t BlockNumReaders(Offset page_offset) const;
  // True iff the block lost a (possibly dirty) writer to an eviction and
  // has not been rewritten since; the pager's copy is the last stable one.
  bool BlockNeedsRecovery(Offset page_offset) const;
  // True iff for every block: at most one writer, and a writer excludes all
  // other holders.
  bool CheckInvariants() const;

  CoherencyStats stats() const { return stats_; }

 private:
  static constexpr uint64_t kNoWriter = 0;

  struct BlockState {
    uint64_t writer = kNoWriter;
    std::set<uint64_t> readers;  // excludes the writer

    bool Idle() const { return writer == kNoWriter && readers.empty(); }
  };

  struct Holder {
    sp<CacheObject> cache;
    TimeNs lease_expires = 0;  // 0 = leases disabled, never expires
  };

  void RenewLease(Holder& holder);
  bool LeaseExpired(const Holder& holder) const;
  // Classifies a callback failure: evict (true) or propagate (false).
  bool ShouldEvictOnFailure(const Status& status, const Holder& holder) const;
  // Removes the holder from every block; writer blocks become
  // recovery_needed and count as lost dirty.
  void EvictHolder(uint64_t cache_id);

  Clock* clock_ = nullptr;
  uint64_t lease_ns_ = 0;
  std::map<uint64_t, Holder> caches_;
  std::map<Offset, BlockState> blocks_;  // keyed by page-aligned offset
  std::set<Offset> recovery_needed_;     // kept across block-state erasure
  CoherencyStats stats_;
};

}  // namespace springfs

#endif  // SPRINGFS_COHERENCY_ENGINE_H_
