// Byte-buffer utilities shared by the block device, VMM page cache, and the
// file-system layers. A Buffer is the unit of data movement between pagers
// and cache managers (the `data memory` parameter in the paper's Appendix A/B
// interfaces).

#ifndef SPRINGFS_SUPPORT_BYTES_H_
#define SPRINGFS_SUPPORT_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace springfs {

using ByteSpan = std::span<const uint8_t>;
using MutableByteSpan = std::span<uint8_t>;

// Growable owned byte buffer with zero-fill semantics on resize.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(size_t size) : bytes_(size, 0) {}
  Buffer(const void* data, size_t size)
      : bytes_(static_cast<const uint8_t*>(data),
               static_cast<const uint8_t*>(data) + size) {}
  explicit Buffer(ByteSpan span) : bytes_(span.begin(), span.end()) {}
  explicit Buffer(const std::string& s)
      : Buffer(s.data(), s.size()) {}

  size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  uint8_t* data() { return bytes_.data(); }
  const uint8_t* data() const { return bytes_.data(); }

  ByteSpan span() const { return ByteSpan(bytes_.data(), bytes_.size()); }
  MutableByteSpan mutable_span() {
    return MutableByteSpan(bytes_.data(), bytes_.size());
  }
  ByteSpan subspan(size_t offset, size_t count) const {
    return span().subspan(offset, count);
  }

  void resize(size_t size) { bytes_.resize(size, 0); }
  void reserve(size_t size) { bytes_.reserve(size); }
  void clear() { bytes_.clear(); }

  void append(ByteSpan span) {
    bytes_.insert(bytes_.end(), span.begin(), span.end());
  }
  void append(const Buffer& other) { append(other.span()); }

  // Copies `src` into this buffer at `offset`, growing if needed.
  void WriteAt(size_t offset, ByteSpan src) {
    if (offset + src.size() > bytes_.size()) {
      bytes_.resize(offset + src.size(), 0);
    }
    if (!src.empty()) {  // empty spans have a null data() memcpy rejects
      std::memcpy(bytes_.data() + offset, src.data(), src.size());
    }
  }

  // Copies up to dst.size() bytes starting at `offset`; returns bytes copied
  // (short when offset is near or past the end).
  size_t ReadAt(size_t offset, MutableByteSpan dst) const {
    if (offset >= bytes_.size()) {
      return 0;
    }
    size_t n = std::min(dst.size(), bytes_.size() - offset);
    if (n != 0) {
      std::memcpy(dst.data(), bytes_.data() + offset, n);
    }
    return n;
  }

  std::string ToString() const {
    return std::string(reinterpret_cast<const char*>(bytes_.data()),
                       bytes_.size());
  }

  bool operator==(const Buffer& other) const { return bytes_ == other.bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

// Little-endian load and store of an integer at any address (memcpy, so
// unaligned is safe): the one byte-order codec behind every integer this
// library puts on disk or on the wire. Name T explicitly at call sites
// that pass a wider value; the store keeps its low sizeof(T) bytes.
template <typename T>
T LoadLe(const uint8_t* p) {
  using U = std::make_unsigned_t<T>;
  U v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<U>(static_cast<U>(p[i]) << (8 * i));
    }
  }
  return static_cast<T>(v);
}

template <typename T>
void StoreLe(uint8_t* p, T value) {
  using U = std::make_unsigned_t<T>;
  U v = static_cast<U>(value);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(v));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
}

// CRC-32 (IEEE 802.3 polynomial, reflected). Used for on-disk integrity
// checks in the UFS substrate and for property tests.
uint32_t Crc32(ByteSpan data, uint32_t seed = 0);

// XXH64 (Yann Collet's xxHash, 64-bit variant) of `data`: the one content
// hash in this library. It reads eight bytes at a time through four
// independent lanes, so a 4 KB block costs well under a microsecond, and it
// is non-linear in its input, unlike Crc32. Used for journal payload tags,
// stripe object names and content fingerprints in tests. `data` may start
// at any address.
uint64_t Xxh64(ByteSpan data, uint64_t seed = 0);

// Hex dump helper for diagnostics ("00 11 22 ..", at most max_bytes).
std::string HexDump(ByteSpan data, size_t max_bytes = 64);

}  // namespace springfs

#endif  // SPRINGFS_SUPPORT_BYTES_H_
