#include "src/support/bytes.h"

#include <array>
#include <bit>
#include <cstdio>

namespace springfs {
namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr uint64_t kXxPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kXxPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kXxPrime5 = 0x27D4EB2F165667C5ull;

uint64_t XxRound(uint64_t acc, uint64_t input) {
  acc += input * kXxPrime2;
  return std::rotl(acc, 31) * kXxPrime1;
}

uint64_t XxMergeRound(uint64_t acc, uint64_t lane) {
  acc ^= XxRound(0, lane);
  return acc * kXxPrime1 + kXxPrime4;
}

}  // namespace

uint32_t Crc32(ByteSpan data, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = BuildCrcTable();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (uint8_t byte : data) {
    c = kTable[(c ^ byte) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint64_t Xxh64(ByteSpan data, uint64_t seed) {
  const uint8_t* p = data.data();
  const uint8_t* end = p + data.size();
  uint64_t h = seed + kXxPrime5;
  if (data.size() >= 32) {
    // Four lanes over 32-byte stripes, so the multiplies pipeline.
    uint64_t v1 = seed + kXxPrime1 + kXxPrime2;
    uint64_t v2 = seed + kXxPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kXxPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = XxRound(v1, LoadLe<uint64_t>(p));
      v2 = XxRound(v2, LoadLe<uint64_t>(p + 8));
      v3 = XxRound(v3, LoadLe<uint64_t>(p + 16));
      v4 = XxRound(v4, LoadLe<uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = XxMergeRound(h, v1);
    h = XxMergeRound(h, v2);
    h = XxMergeRound(h, v3);
    h = XxMergeRound(h, v4);
  }
  h += data.size();
  for (; end - p >= 8; p += 8) {
    h ^= XxRound(0, LoadLe<uint64_t>(p));
    h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
  }
  if (end - p >= 4) {
    h ^= LoadLe<uint32_t>(p) * kXxPrime1;
    h = std::rotl(h, 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= *p * kXxPrime5;
    h = std::rotl(h, 11) * kXxPrime1;
  }
  // Avalanche.
  h ^= h >> 33;
  h *= kXxPrime2;
  h ^= h >> 29;
  h *= kXxPrime3;
  h ^= h >> 32;
  return h;
}

std::string HexDump(ByteSpan data, size_t max_bytes) {
  std::string out;
  size_t n = std::min(data.size(), max_bytes);
  char tmp[4];
  for (size_t i = 0; i < n; ++i) {
    std::snprintf(tmp, sizeof(tmp), "%02x", data[i]);
    if (i != 0) {
      out += ' ';
    }
    out += tmp;
  }
  if (n < data.size()) {
    out += " ...";
  }
  return out;
}

}  // namespace springfs
