// The Spring virtual-memory interfaces (paper section 3.3 + Appendices A/B).
//
// The two-way connection between a VMM (or any cache manager) and a data
// provider ("pager") is a pair of objects:
//
//   * the cache manager implements a cache_object, which the pager invokes
//     for coherency actions (flush_back, deny_writes, ...), and
//   * the pager implements a pager_object, which the cache manager invokes
//     to obtain and write out data (page_in, page_out, ...).
//
// A memory object is an abstraction of mappable store; the *file* interface
// inherits from it. Crucially (Table 1) the memory object carries no paging
// operations: the bind() operation connects the caller to the pager behind
// the memory object, returning a cache_rights object. Two equivalent memory
// objects (same underlying file) yield the same cache_rights, which is how
// a VMM shares one copy of cached data between them, and how a stacked file
// system (DFS, Figure 7) can forward bind to the layer below so both layers
// use the very same cached pages.

#ifndef SPRINGFS_VMM_INTERFACES_H_
#define SPRINGFS_VMM_INTERFACES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obj/object.h"
#include "src/support/bytes.h"
#include "src/support/result.h"

namespace springfs {

using Offset = uint64_t;
inline constexpr uint32_t kPageSize = 4096;

inline constexpr Offset PageFloor(Offset offset) {
  return offset & ~Offset{kPageSize - 1};
}
inline constexpr Offset PageCeil(Offset offset) {
  return PageFloor(offset + kPageSize - 1);
}

// A byte range within a memory object. Every coherency-facing operation
// takes a Range instead of a bare (Offset, Offset) pair so that swapped
// offset/size arguments are a type error at the call site, not a data
// corruption at runtime.
struct Range {
  Offset offset = 0;
  Offset size = 0;

  // The whole memory object ([0, ~0)); the conventional argument for
  // whole-file flushes and teardown.
  static constexpr Range All() { return Range{0, ~Offset{0}}; }
  static constexpr Range FromTo(Offset begin, Offset end) {
    return Range{begin, end - begin};
  }

  // One-past-the-end offset, saturating at the top of the offset space so
  // Range::All() and other huge ranges never wrap.
  constexpr Offset end() const {
    Offset e = offset + size;
    return e < offset ? ~Offset{0} : e;
  }
  constexpr bool empty() const { return size == 0; }
  constexpr bool Contains(Offset o) const { return o >= offset && o < end(); }

  // Expands to whole pages: page-floors the start, keeps the (saturating)
  // end. This is the granularity coherency state is kept at.
  constexpr Range PageExpanded() const {
    Offset begin = PageFloor(offset);
    return Range{begin, end() - begin};
  }

  constexpr bool operator==(const Range& other) const {
    return offset == other.offset && size == other.size;
  }
};

enum class AccessRights : uint8_t {
  kReadOnly,
  kReadWrite,
};

// One page-aligned run of data handed between a cache manager and a pager.
struct BlockData {
  Offset offset = 0;  // page-aligned offset within the memory object
  Buffer data;        // kPageSize bytes per page
};

// --- Appendix A: cache objects, implemented by cache managers -------------
//
// "Cache objects are implemented by cache managers and are invoked by
// pagers." The VMM is one cache manager; pagers can also act as cache
// managers to other pagers (section 4.2), which is the basis of coherent
// file-system stacking.
class CacheObject : public virtual Object {
 public:
  const char* interface_name() const override { return "cache_object"; }

  // Removes data from the cache and returns modified blocks to the pager.
  virtual Result<std::vector<BlockData>> FlushBack(Range range) = 0;

  // Downgrades read-write blocks to read-only and returns modified blocks.
  virtual Result<std::vector<BlockData>> DenyWrites(Range range) = 0;

  // Returns modified blocks; data is retained in the cache in the same mode
  // as before the call.
  virtual Result<std::vector<BlockData>> WriteBack(Range range) = 0;

  // Removes data from the cache; no data is returned.
  virtual Status DeleteRange(Range range) = 0;

  // Indicates that a particular range of the cache is zero-filled.
  virtual Status ZeroFill(Range range) = 0;

  // Introduces data into the cache.
  virtual Status Populate(Offset offset, AccessRights access,
                          ByteSpan data) = 0;

  // Tears the cache down (the pager is going away).
  virtual Status DestroyCache() = 0;
};

// --- Appendix B: pager objects, implemented by pagers ---------------------
class PagerObject : public virtual Object {
 public:
  const char* interface_name() const override { return "pager_object"; }

  // Requests `size` bytes at `offset` (both page-aligned) in the given
  // mode. The pager may return more data than asked (read-ahead); the
  // result is at least min(size, whatever exists) rounded to whole pages.
  virtual Result<Buffer> PageIn(Offset offset, Offset size,
                                AccessRights access) = 0;

  // Writes data to the pager; the caller no longer retains it.
  virtual Status PageOut(Offset offset, ByteSpan data) = 0;

  // Writes data to the pager; the caller retains it read-only.
  virtual Status WriteOut(Offset offset, ByteSpan data) = 0;

  // Writes data to the pager; the caller retains it in the same mode.
  virtual Status Sync(Offset offset, ByteSpan data) = 0;

  // Called by the cache manager when it closes its end of the connection.
  virtual void DoneWithPagerObject() = 0;
};

// Identifies a pager-cache channel; returned by bind. Two equivalent memory
// objects mapped at the same cache manager return the *same* cache_rights
// object, letting the manager find existing cached pages.
class CacheRights : public virtual Object {
 public:
  const char* interface_name() const override { return "cache_rights"; }

  // Opaque channel identity, unique within the issuing cache manager.
  virtual uint64_t channel_id() const = 0;
};

// The cache_rights every cache manager and pager in springfs hands out. It
// carries only the channel id; whoever handed it out validates it by
// looking the id up.
class ChannelRights final : public CacheRights {
 public:
  explicit ChannelRights(uint64_t id) : id_(id) {}
  uint64_t channel_id() const override { return id_; }

 private:
  uint64_t id_;
};

class CacheManager;

// --- memory objects --------------------------------------------------------
class MemoryObject : public virtual Object {
 public:
  const char* interface_name() const override { return "memory_object"; }

  // Connects `caller` (a cache manager) to this memory object's pager and
  // returns the cache_rights object identifying the pager-cache channel to
  // use. If no channel exists yet between the pager and `caller`, the pager
  // contacts the caller (CacheManager::EstablishChannel) and the two
  // exchange pager / cache / cache_rights objects.
  virtual Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                                       AccessRights requested_access) = 0;

  virtual Result<Offset> GetLength() = 0;
  virtual Status SetLength(Offset length) = 0;
};

// A cache manager: the VMM, or a file-system layer acting as a cache
// manager for the layer below it. A layer does not implement this itself:
// it binds each file below through a fresh OneChannelManager
// (src/fs/channel_table.h), whose exchange lands on that file's cache
// object, so only the VMM and OneChannelManager implement it.
class CacheManager : public virtual Object {
 public:
  const char* interface_name() const override { return "cache_manager"; }

  struct ChannelSetup {
    sp<CacheObject> cache;
    sp<CacheRights> rights;
  };

  // Invoked by a pager while servicing a bind: creates (or finds) this
  // manager's end of the channel for the pager-side identity `pager_key`,
  // remembering `pager` as the data source. Idempotent per (this,
  // pager_key).
  virtual Result<ChannelSetup> EstablishChannel(uint64_t pager_key,
                                                sp<PagerObject> pager) = 0;

  // Diagnostic identity.
  virtual std::string cache_manager_name() const = 0;
};

}  // namespace springfs

#endif  // SPRINGFS_VMM_INTERFACES_H_
