#include "src/coherency/engine.h"

#include <algorithm>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace springfs {
namespace {

// Process-wide eviction counters ("coh/..."): engines are per-file and
// short-lived, so aggregate accounting lives in the global registry.
metrics::Counter& EvictionsCounter() {
  static metrics::Counter& c =
      metrics::Registry::Global().counter("coh/evictions");
  return c;
}
metrics::Counter& LostDirtyCounter() {
  static metrics::Counter& c =
      metrics::Registry::Global().counter("coh/lost_dirty_blocks");
  return c;
}
metrics::Counter& FlushBackFailuresCounter() {
  static metrics::Counter& c =
      metrics::Registry::Global().counter("coh/flush_back_failures");
  return c;
}

// An unreachable holder: the callback transport timed out, the link is
// down, the peer's domain is gone, or its callback service is no longer
// registered (a destroyed client unregisters, so the node answers
// kNotFound). These all mean "the holder cannot be reached", not "the
// holder refused" — safe grounds for eviction.
bool IsUnreachable(ErrorCode code) {
  return code == ErrorCode::kTimedOut || code == ErrorCode::kConnectionLost ||
         code == ErrorCode::kDeadObject || code == ErrorCode::kNotFound;
}

}  // namespace

void CoherencyEngine::ConfigureLeases(Clock* clock, uint64_t lease_ns) {
  clock_ = clock;
  lease_ns_ = lease_ns;
  for (auto& [id, holder] : caches_) {
    RenewLease(holder);
  }
}

void CoherencyEngine::RenewLease(Holder& holder) {
  holder.lease_expires =
      (clock_ != nullptr && lease_ns_ != 0) ? clock_->Now() + lease_ns_ : 0;
}

bool CoherencyEngine::LeaseExpired(const Holder& holder) const {
  return holder.lease_expires != 0 && clock_ != nullptr &&
         clock_->Now() >= holder.lease_expires;
}

void CoherencyEngine::AddCache(uint64_t cache_id, sp<CacheObject> cache) {
  Holder& holder = caches_[cache_id];
  holder.cache = std::move(cache);
  RenewLease(holder);
}

void CoherencyEngine::RemoveCache(uint64_t cache_id) {
  caches_.erase(cache_id);
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    BlockState& state = it->second;
    if (state.writer == cache_id) {
      state.writer = kNoWriter;
    }
    state.readers.erase(cache_id);
    it = state.Idle() ? blocks_.erase(it) : std::next(it);
  }
}

bool CoherencyEngine::HasCache(uint64_t cache_id) const {
  return caches_.count(cache_id) > 0;
}

size_t CoherencyEngine::NumCaches() const { return caches_.size(); }

std::vector<sp<CacheObject>> CoherencyEngine::Caches() const {
  std::vector<sp<CacheObject>> out;
  out.reserve(caches_.size());
  for (const auto& [id, holder] : caches_) {
    out.push_back(holder.cache);
  }
  return out;
}

bool CoherencyEngine::ShouldEvictOnFailure(const Status& status,
                                           const Holder& holder) const {
  return IsUnreachable(status.code()) || LeaseExpired(holder);
}

void CoherencyEngine::EvictHolder(uint64_t cache_id) {
  ++stats_.evictions;
  EvictionsCounter().Increment();
  if (trace::Active()) {
    trace::AnnotateCurrent("coh:evicted holder cache_id=" +
                           std::to_string(cache_id));
  }
  flight::Record(flight::Severity::kWarn, "coh", "holder evicted", cache_id);
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    BlockState& state = it->second;
    if (state.writer == cache_id) {
      // The evicted holder may have dirtied this block and never flushed:
      // the pager's copy is the last stable one. Record the loss.
      state.writer = kNoWriter;
      recovery_needed_.insert(it->first);
      ++stats_.lost_dirty_blocks;
      LostDirtyCounter().Increment();
    }
    state.readers.erase(cache_id);
    it = state.Idle() ? blocks_.erase(it) : std::next(it);
  }
  caches_.erase(cache_id);
}

CoherencyEngine::Recovered CoherencyEngine::Acquire(uint64_t requester,
                                                    Range range,
                                                    AccessRights access) {
  trace::ScopedSpan span("coh.acquire");
  Result<std::vector<Recall>> recalls = Conflicts(requester, range, access);
  if (!recalls.ok()) {
    return Recovered{{}, recalls.status()};
  }
  // Pass 2: one callback per conflicting cache over the whole range, in
  // order. A refusal ends the pass: the holders after it are not called, so
  // they keep their pages, which a caller that cannot store the blocks of a
  // failed action would otherwise lose.
  // The refusal goes to Grant as the round's verdict, so the action fails
  // even if the refusing holder's lease lapses in between.
  std::vector<Result<std::vector<BlockData>>> answers;
  answers.reserve(recalls->size());
  Status refused = Status::Ok();
  for (const Recall& recall : *recalls) {
    trace::ScopedSpan callback(recall.deny ? "coh.deny_writes"
                                           : "coh.flush_back");
    answers.push_back(recall.deny ? recall.cache->DenyWrites(recall.pages)
                                  : recall.cache->FlushBack(recall.pages));
    auto holder = caches_.find(recall.cache_id);
    if (!answers.back().ok() && holder != caches_.end() &&
        !ShouldEvictOnFailure(answers.back().status(), holder->second)) {
      refused = answers.back().status();
      break;
    }
  }
  recalls->resize(answers.size());
  return Grant(requester, range, access, *recalls, std::move(answers),
               std::move(refused));
}

Result<std::vector<CoherencyEngine::Recall>> CoherencyEngine::Conflicts(
    uint64_t requester, Range range, AccessRights access) {
  Range pages = range.PageExpanded();
  Offset begin = pages.offset;
  Offset end = pages.end();

  if (requester != 0) {
    auto self = caches_.find(requester);
    if (self == caches_.end()) {
      // The requester was evicted (or never registered): refusing here keeps
      // ghost holders out of blocks_ and tells the caller to re-register.
      return ErrStale("acquire from unregistered cache " +
                      std::to_string(requester));
    }
    RenewLease(self->second);
  }

  // Pass 1: which other caches conflict anywhere in the range?
  //   read access  -> a foreign writer must be demoted (deny_writes)
  //   write access -> every foreign holder must be flushed (flush_back)
  std::set<uint64_t> conflicting;
  for (auto it = blocks_.lower_bound(begin);
       it != blocks_.end() && it->first < end; ++it) {
    const BlockState& state = it->second;
    if (state.writer != kNoWriter && state.writer != requester) {
      conflicting.insert(state.writer);
    }
    if (access == AccessRights::kReadWrite) {
      for (uint64_t reader : state.readers) {
        if (reader != requester) {
          conflicting.insert(reader);
        }
      }
    }
  }

  // A holder whose lease has already lapsed is evicted without being called
  // (it is presumed dead; calling it would charge a pointless timeout).
  std::vector<Recall> recalls;
  for (uint64_t cache_id : conflicting) {
    auto cache_it = caches_.find(cache_id);
    if (cache_it == caches_.end()) {
      continue;
    }
    if (LeaseExpired(cache_it->second)) {
      ++stats_.lease_expiries;
      flight::Record(flight::Severity::kWarn, "coh", "lease expired",
                     cache_id);
      EvictHolder(cache_id);
      continue;
    }
    recalls.push_back(Recall{cache_id, cache_it->second.cache,
                             access == AccessRights::kReadOnly, pages});
  }
  return recalls;
}

CoherencyEngine::Recovered CoherencyEngine::Grant(
    uint64_t requester, Range range, AccessRights access,
    const std::vector<Recall>& recalls,
    std::vector<Result<std::vector<BlockData>>> answers, Status round) {
  Range pages = range.PageExpanded();
  Offset begin = pages.offset;
  Offset end = pages.end();

  // Pass 2's verdicts. A callback that failed against an unreachable holder
  // evicts it; any other failure fails the action, and that holder keeps its
  // claim.
  Recovered out{{}, std::move(round)};
  std::set<uint64_t> answered;  // holders that gave their claims up
  for (size_t i = 0; i < recalls.size(); ++i) {
    uint64_t cache_id = recalls[i].cache_id;
    Result<std::vector<BlockData>>& answer = answers[i];
    ++(recalls[i].deny ? stats_.deny_write_calls : stats_.flush_back_calls);
    auto cache_it = caches_.find(cache_id);
    if (cache_it == caches_.end()) {
      continue;
    }
    if (!answer.ok()) {
      ++stats_.callback_failures;
      FlushBackFailuresCounter().Increment();
      if (ShouldEvictOnFailure(answer.status(), cache_it->second)) {
        stats_.lease_expiries += LeaseExpired(cache_it->second) ? 1 : 0;
        EvictHolder(cache_id);
      } else if (out.status.ok()) {
        out.status = answer.status();
      }
      continue;
    }
    RenewLease(cache_it->second);
    answered.insert(cache_id);
    stats_.blocks_recovered += answer->size();
    for (BlockData& block : *answer) {
      out.blocks.push_back(std::move(block));
    }
  }

  // Pass 3a: apply the demote/flush transitions to every *existing* block
  // state in the range. Iterating the map keeps this bounded even for
  // whole-object ranges (size = ~0). A granted action moves every foreign
  // holder (each answered or was evicted); a failed one only those that
  // answered.
  bool granted = out.ok();
  auto released = [&](uint64_t id) {
    return granted ? id != requester : answered.count(id) > 0;
  };
  for (auto it = blocks_.lower_bound(begin);
       it != blocks_.end() && it->first < end;) {
    BlockState& state = it->second;
    if (state.writer != kNoWriter && released(state.writer)) {
      if (access == AccessRights::kReadOnly) {
        // Demoted writer becomes a reader (deny_writes keeps data RO).
        state.readers.insert(state.writer);
      }
      state.writer = kNoWriter;
    }
    if (access == AccessRights::kReadWrite) {
      std::erase_if(state.readers, released);
    }
    it = state.Idle() ? blocks_.erase(it) : std::next(it);
  }
  if (!granted) {
    return out;
  }

  // Pass 3b: register the requester's own holdings. Faulting requesters
  // always name a bounded range; anonymous accesses (requester 0) hold
  // nothing, which is what makes whole-object ranges safe.
  if (requester != 0) {
    for (Offset page = begin; page < end && page >= begin; page += kPageSize) {
      BlockState& state = blocks_[page];
      if (access == AccessRights::kReadOnly) {
        if (state.writer != requester) {
          state.readers.insert(requester);
        }
      } else {
        state.readers.erase(requester);
        state.writer = requester;
        // A fresh writer supersedes whatever an evicted predecessor lost.
        recovery_needed_.erase(page);
      }
    }
  }
  return out;
}

void CoherencyEngine::ReleaseDropped(uint64_t holder, Range range) {
  auto self = caches_.find(holder);
  if (self == caches_.end()) {
    // Fence: a stale frame from an evicted holder.
    ++stats_.fenced_releases;
    return;
  }
  RenewLease(self->second);
  Range pages = range.PageExpanded();
  Offset begin = pages.offset;
  Offset end = pages.end();
  for (auto it = blocks_.lower_bound(begin);
       it != blocks_.end() && it->first < end;) {
    BlockState& state = it->second;
    if (state.writer == holder) {
      state.writer = kNoWriter;
    }
    state.readers.erase(holder);
    it = state.Idle() ? blocks_.erase(it) : std::next(it);
  }
}

void CoherencyEngine::ReleaseDowngraded(uint64_t holder, Range range) {
  auto self = caches_.find(holder);
  if (self == caches_.end()) {
    ++stats_.fenced_releases;
    return;
  }
  RenewLease(self->second);
  Range pages = range.PageExpanded();
  Offset begin = pages.offset;
  Offset end = pages.end();
  for (auto it = blocks_.lower_bound(begin);
       it != blocks_.end() && it->first < end; ++it) {
    BlockState& state = it->second;
    if (state.writer == holder) {
      state.writer = kNoWriter;
      state.readers.insert(holder);
    }
  }
}

bool CoherencyEngine::BlockHasWriter(Offset page_offset) const {
  auto it = blocks_.find(PageFloor(page_offset));
  return it != blocks_.end() && it->second.writer != kNoWriter;
}

size_t CoherencyEngine::BlockNumReaders(Offset page_offset) const {
  auto it = blocks_.find(PageFloor(page_offset));
  return it == blocks_.end() ? 0 : it->second.readers.size();
}

bool CoherencyEngine::BlockNeedsRecovery(Offset page_offset) const {
  return recovery_needed_.count(PageFloor(page_offset)) > 0;
}

bool CoherencyEngine::CheckInvariants() const {
  for (const auto& [offset, state] : blocks_) {
    if (state.writer != kNoWriter) {
      // A writer excludes all readers.
      if (!state.readers.empty()) {
        return false;
      }
      if (caches_.count(state.writer) == 0) {
        return false;
      }
    }
    for (uint64_t reader : state.readers) {
      if (caches_.count(reader) == 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace springfs
