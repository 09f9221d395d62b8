#include "src/layers/dfs/stripe_metadata.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "src/obs/flight_recorder.h"

namespace springfs::dfs {
namespace {

// Durable name of a file's per-data-server stripe object, derived from the
// metadata path with XXH64 so it stays stable across metadata- and
// data-server restarts. Every data server holds the object under the same
// name; what differs per server is which stripes of the file it stores.
std::string StripeObjectName(const std::string& path) {
  uint64_t h = Xxh64(
      ByteSpan(reinterpret_cast<const uint8_t*>(path.data()), path.size()));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "stripe-%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// Lane-r stripe object name: the primary lane keeps the bare object name
// (back-compatible with single-lane clusters); higher lanes append a
// suffix.
std::string LaneObjectName(const std::string& object_name, size_t lane) {
  return lane == 0 ? object_name
                   : object_name + "-r" + std::to_string(lane);
}

// Sidecar file on the metadata store holding a file's state. Named by the
// same path hash as the stripe objects, so it never collides with another
// file's.
std::string SidecarName(const std::string& path) {
  return "." + StripeObjectName(path) + "-state";
}

// A sidecar's stored form: the state plus the logical path, so the role
// can walk the store's sidecars and re-derive every file's stale set
// without waiting for a client to refetch the file's map.
struct StripeSidecar {
  uint64_t version = 1;
  std::vector<bool> stale;  // by target index
  std::string path;

  template <class V>
  void Visit(V&& v) { v(version, stale, path); }
};

Result<StripeSidecar> ReadSidecar(const sp<StackableFs>& store,
                                  const std::string& name) {
  ASSIGN_OR_RETURN(sp<File> sidecar,
                   ResolveAs<File>(store, name, Credentials::System()));
  ASSIGN_OR_RETURN(Offset len, sidecar->GetLength());
  Buffer raw(len);
  ASSIGN_OR_RETURN(size_t got, sidecar->Read(0, raw.mutable_span()));
  return Decode<StripeSidecar>(raw.span().first(got));
}

// Writes `sidecar` to its file on `store` and syncs it.
Status WriteSidecar(const sp<StackableFs>& store,
                    const StripeSidecar& sidecar) {
  ASSIGN_OR_RETURN(Name name, Name::Parse(SidecarName(sidecar.path)));
  Result<sp<File>> file =
      ResolveAs<File>(store, name.ToString(), Credentials::System());
  if (!file.ok()) {
    file = store->CreateFile(name, Credentials::System());
  }
  RETURN_IF_ERROR(file.status());
  Buffer wire = Encode(sidecar);
  ASSIGN_OR_RETURN(size_t wrote, (*file)->Write(0, wire.span()));
  if (wrote != wire.size()) {
    return ErrNoSpace("stripe-state sidecar written short");
  }
  RETURN_IF_ERROR((*file)->SetLength(wire.size()));
  return (*file)->SyncFile();
}

}  // namespace

Result<std::unique_ptr<StripeMetadata>> StripeMetadata::Create(
    net::Network* network, std::string node, sp<StackableFs> store,
    uint64_t stripe_size, std::vector<StripeTarget> targets,
    uint32_t replicas) {
  if (stripe_size == 0 || stripe_size % kPageSize != 0) {
    return ErrInvalidArgument("stripe_size must be a non-zero page multiple");
  }
  replicas = static_cast<uint32_t>(
      std::min<size_t>(std::max<uint32_t>(replicas, 1), targets.size()));
  std::unique_ptr<StripeMetadata> role(
      new StripeMetadata(network, std::move(node), std::move(store),
                         stripe_size, std::move(targets), replicas));
  role->LoadSidecars();
  return role;
}

StripeMetadata::StripeMetadata(net::Network* network, std::string node,
                               sp<StackableFs> store, uint64_t stripe_size,
                               std::vector<StripeTarget> targets,
                               uint32_t replicas)
    : network_(network), node_(std::move(node)), store_(std::move(store)),
      stripe_size_(stripe_size), targets_(std::move(targets)),
      replicas_(replicas) {}

void StripeMetadata::LoadSidecars() {
  // Each sidecar records the logical path it belongs to, so a successor
  // after a failover knows every file's stale set before any client
  // traffic: its health document and its first rebuild pass see them.
  Result<std::vector<BindingInfo>> entries =
      store_->List(Credentials::System());
  if (!entries.ok()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const BindingInfo& entry : *entries) {
    if (!entry.name.starts_with(".stripe-") ||
        !entry.name.ends_with("-state")) {
      continue;
    }
    Result<StripeSidecar> sidecar = ReadSidecar(store_, entry.name);
    if (sidecar.ok() && !sidecar->path.empty()) {
      State& state = StateLocked(sidecar->path);
      state.version = sidecar->version;
      for (size_t t = 0;
           t < std::min(state.stale.size(), sidecar->stale.size()); ++t) {
        state.stale[t] = sidecar->stale[t];
      }
    }
  }
}

StripeMetadata::State& StripeMetadata::StateLocked(const std::string& path) {
  auto [it, inserted] = states_.try_emplace(path);
  if (inserted) {
    it->second.stale.resize(targets_.size());
  }
  return it->second;
}

StripeMetadata::State StripeMetadata::Snapshot(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  return StateLocked(path);
}

Result<StripeMetadata::State> StripeMetadata::Update(
    const std::string& path, const std::function<bool(State&)>& change) {
  std::lock_guard<std::mutex> lock(mutex_);
  State next = StateLocked(path);
  if (!change(next)) {
    return next;
  }
  ++next.version;
  // Durable before it is served: a map or a report that carried a mark or
  // a clear a power failure could still lose would let a successor serve
  // a replica that missed writes.
  Status written = WriteSidecar(store_, {next.version, next.stale, path});
  if (!written.ok()) {
    flight::Record(flight::Severity::kWarn, "dfs_stripe",
                   "stripe-state sidecar not durable", next.version);
    return written;
  }
  states_[path] = next;
  return next;
}

Result<StripeMetadata::State> StripeMetadata::MarkStale(
    const std::string& path, size_t t, uint64_t seen_version) {
  bool marked = false;
  auto mark = [&](State& s) {
    if (s.version > seen_version || s.stale[t]) {
      return false;
    }
    // Refuse a mark that would leave some stripe with no fresh replica:
    // a stripe cannot be served from zero fresh copies, so its last copy
    // stays authoritative even if a client could not reach it.
    size_t width = s.stale.size();
    s.stale[t] = true;
    for (size_t p = 0; p < width; ++p) {
      bool fresh = false;
      for (size_t r = 0; r < replicas_ && !fresh; ++r) {
        fresh = !s.stale[ReplicaTarget(p, r, width)];
      }
      if (!fresh) {
        s.stale[t] = false;
        flight::Record(flight::Severity::kWarn, "dfs_stripe",
                       "refused to mark a stripe's last fresh replica", t,
                       s.version);
        return false;
      }
    }
    return marked = true;
  };
  ASSIGN_OR_RETURN(State state, Update(path, mark));
  if (marked) {
    replicas_marked_stale_.Increment();
    flight::Record(flight::Severity::kWarn, "dfs_stripe",
                   "replica target marked stale", t, state.version);
  }
  return state;
}

template <class Resp, class Req>
Result<Resp> StripeMetadata::CallTarget(const StripeTarget& target, Op op,
                                        const Req& req) {
  return Reply<Resp>(network_->Call(node_, target.node, target.service,
                                    RequestFrame(op, req)));
}

// Ensure the stripe object exists on one data server and return its
// current handle. Deliberately uncached: handles are only valid for a data
// server's boot epoch, so re-resolving on every map request means a client
// that refetches the map after a data-server restart gets working handles
// with no extra re-lookup protocol. The lookup -> create -> re-lookup
// ladder is convergent, which is what lets kGetStripeMap stay idempotent
// even though it may create objects.
Result<uint64_t> StripeMetadata::EnsureStripeObject(const StripeTarget& target,
                                                    const std::string& name) {
  PathRequest object{name};
  Result<LookupResponse> found =
      CallTarget<LookupResponse>(target, Op::kLookup, object);
  if (found.code() == ErrorCode::kNotFound) {
    Result<CreateResponse> made =
        CallTarget<CreateResponse>(target, Op::kCreate, object);
    if (made.ok()) {
      objects_created_.Increment();
      return made->handle;
    }
    if (made.code() != ErrorCode::kAlreadyExists) {
      return made.status();
    }
    // Lost-response race: our earlier create landed but its reply did not.
    // Fall through to the re-lookup below.
    found = CallTarget<LookupResponse>(target, Op::kLookup, object);
  }
  RETURN_IF_ERROR(found.status());
  return found->handle;
}

Result<StripeMapResponse> StripeMetadata::BuildMap(const std::string& path,
                                                   File& file) {
  StripeMapResponse body;
  body.stripe_size = stripe_size_;
  body.replicas = replicas_;
  body.object_name = StripeObjectName(path);
  ASSIGN_OR_RETURN(body.length, file.GetLength());

  State state = Snapshot(path);
  for (size_t t = 0; t < targets_.size(); ++t) {
    const StripeTarget& target = targets_[t];
    StripeMapResponse::Target out;
    out.node = target.node;
    out.service = target.service;
    // Stale targets still get an ensure attempt: once the server is back
    // up the map carries real handles for the rebuild path, while the
    // stale flag keeps clients away until the rebuild clears it.
    Status ensure = Status::Ok();
    for (size_t lane = 0; lane < replicas_; ++lane) {
      Result<uint64_t> handle =
          EnsureStripeObject(target, LaneObjectName(body.object_name, lane));
      if (!handle.ok()) {
        ensure = handle.status();
        break;
      }
      out.lane_handles.push_back(*handle);
    }
    if (!ensure.ok()) {
      if (replicas_ == 1) {
        // Unreplicated cluster: there is no peer to degrade to, so the map
        // request fails exactly as it did before replication existed.
        return ensure;
      }
      out.lane_handles.assign(replicas_, 0);
      // A mark that is not durable fails the map.
      ASSIGN_OR_RETURN(state, MarkStale(path, t, UINT64_MAX));
    }
    body.targets.push_back(std::move(out));
  }
  for (size_t t = 0; t < body.targets.size(); ++t) {
    body.targets[t].stale = state.stale[t];
  }
  body.map_version = state.version;
  return body;
}

Result<StripeMapResponse> StripeMetadata::GetMap(const std::string& path,
                                                 File& file) {
  ASSIGN_OR_RETURN(StripeMapResponse body, BuildMap(path, file));
  maps_served_.Increment();
  return body;
}

Result<StripeMapResponse> StripeMetadata::ReportStale(
    const std::string& path, File& file, const ReportStaleRequest& req) {
  stale_reports_.Increment();
  if (req.target < targets_.size() && replicas_ > 1) {
    // Version-fenced: the mark is honored only when the reporter's map is
    // at least as new as this server's state. A report stamped with an
    // older version raced a rebuild that already cleared the mark (and
    // bumped the version past the reporter's) — re-marking would wrongly
    // evict the just-rebuilt replica. The stale reporter instead gets the
    // fresh map below and re-plans its writes against it, reaching the
    // revived target directly. (MarkStale still refuses to strand a
    // stripe's last fresh copy.) A mark that is not durable fails the
    // report.
    RETURN_IF_ERROR(MarkStale(path, req.target, req.map_version).status());
  }
  return BuildMap(path, file);
}

Result<size_t> StripeMetadata::RunRebuildPass() {
  // Snapshot the stale sets.
  std::vector<std::pair<std::string, std::vector<bool>>> files;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [path, state] : states_) {
      if (std::count(state.stale.begin(), state.stale.end(), true) > 0) {
        files.emplace_back(path, state.stale);
      }
    }
  }
  size_t rebuilt = 0;
  for (auto& [path, stale] : files) {
    std::string object_name = StripeObjectName(path);
    for (size_t t = 0; t < stale.size(); ++t) {
      if (!stale[t]) {
        continue;
      }
      auto clear = [&](State& s) {
        s.stale[t] = false;
        return true;
      };
      Status copied = RebuildTarget(object_name, t, stale);
      Result<State> cleared =
          copied.ok() ? Update(path, clear) : Result<State>(copied);
      if (!cleared.ok()) {
        flight::Record(flight::Severity::kWarn, "dfs_stripe",
                       "rebuild attempt failed", t);
        continue;  // target still down, no fresh source, or not durable
      }
      stale[t] = false;
      ++rebuilt;
      rebuilds_.Increment();
      flight::Record(flight::Severity::kInfo, "dfs_stripe",
                     "stale target rebuilt", t, cleared->version);
    }
  }
  return rebuilt;
}

Status StripeMetadata::RebuildTarget(const std::string& object_name, size_t t,
                                     const std::vector<bool>& stale) {
  size_t width = targets_.size();
  const StripeTarget& dest = targets_[t];

  for (size_t lane = 0; lane < replicas_; ++lane) {
    // The lane-`lane` object on target t holds stripes s with
    // (s + lane) % width == t; any fresh lane r' on target
    // (t - lane + r') % width holds the identical stripe set at identical
    // local offsets, so the copy is a plain whole-object transfer.
    size_t base = PrimaryTarget(t, lane, width);
    const StripeTarget* src_target = nullptr;
    size_t src_lane = 0;
    for (size_t r = 0; r < replicas_; ++r) {
      size_t candidate = ReplicaTarget(base, r, width);
      if (candidate == t || stale[candidate]) {
        continue;
      }
      src_target = &targets_[candidate];
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

    ASSIGN_OR_RETURN(GetLengthResponse src_len,
                     CallTarget<GetLengthResponse>(*src_target, Op::kGetLength,
                                                   HandleRequest{src_handle}));

    constexpr uint64_t kChunk = 16 * kPageSize;
    for (uint64_t off = 0; off < src_len.length; off += kChunk) {
      uint64_t n = std::min(kChunk, src_len.length - off);
      ASSIGN_OR_RETURN(
          ReadResponse data,
          CallTarget<ReadResponse>(*src_target, Op::kRead,
                                   ReadRequest{src_handle, off, n}));
      size_t written = data.data.size();
      RETURN_IF_ERROR(CallTarget<WriteResponse>(
                          dest, Op::kWrite,
                          WriteRequest{dst_handle, off, std::move(data.data)})
                          .status());
      rebuild_bytes_.Increment(written);
    }
    // Truncate a dest that outlived the source (writes it absorbed before
    // dying that were since truncated away).
    RETURN_IF_ERROR(
        CallTarget(dest, Op::kSetLength,
                   SetLengthRequest{dst_handle, src_len.length})
            .status());
    // The copy is durable before the mark clears: a power failure of the
    // destination must not bring back the bytes it missed.
    RETURN_IF_ERROR(
        CallTarget(dest, Op::kSyncFile, HandleRequest{dst_handle}).status());
  }
  return Status::Ok();
}

void StripeMetadata::FillHealth(HealthResponse& body) const {
  body.role = HealthResponse::Role::kMetadata;
  body.stripe_size = stripe_size_;
  body.stripe_width = static_cast<uint32_t>(targets_.size());
  body.stripe_replicas = replicas_;
  body.rebuilds_completed = rebuilds_.Value();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [path, state] : states_) {
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

void StripeMetadata::CollectStats(const metrics::StatsEmitter& emit) const {
  emit("stripe_maps_served", maps_served_.Value());
  emit("stripe_objects_created", objects_created_.Value());
  emit("stripe_replicas_marked_stale", replicas_marked_stale_.Value());
  emit("stripe_stale_reports", stale_reports_.Value());
  emit("stripe_rebuilds", rebuilds_.Value());
  emit("stripe_rebuild_bytes", rebuild_bytes_.Value());
}

}  // namespace springfs::dfs
