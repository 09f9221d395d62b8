// Tests for the generic DFS wire codec (src/layers/dfs/wire.h): every
// message type encodes to the exact bytes the per-message encoders it
// replaced produced (golden hex), decodes back equal, and rejects every
// truncation and every count or length prefix raised to 0xFFFFFFFF with
// kCorrupted — without throwing or allocating for the bogus count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "src/layers/dfs/wire.h"

namespace springfs {
namespace {

using namespace dfs;  // the 32 message types

// One instance of every DFS message type, every field set: non-empty
// strings, vectors of two elements, nested vectors non-empty. Block data
// is a whole page, the unit the block-list form carries.
Buffer Bytes(const char* s) { return Buffer(std::string(s)); }

Buffer Page(const char* s) {
  Buffer page(kPageSize);
  page.WriteAt(0, Bytes(s).span());
  return page;
}

template <class Sink>
void ForEachGolden(Sink&& sink) {
  {
    PathRequest m;
    m.path = "dir/file";
    sink("PathRequest", m);
  }
  {
    LookupResponse m;
    m.handle = 0x0102030405060708;
    m.is_dir = true;
    sink("LookupResponse", m);
  }
  {
    CreateResponse m;
    m.handle = 0x1112131415161718;
    sink("CreateResponse", m);
  }
  {
    ReadDirResponse m;
    m.entries = {{"a", true}, {"bc", false}};
    sink("ReadDirResponse", m);
  }
  {
    HandleRequest m;
    m.handle = 0x2122232425262728;
    sink("HandleRequest", m);
  }
  {
    GetAttrResponse m;
    m.attrs.kind = FileKind::kDirectory;
    m.attrs.size = 0x1000;
    m.attrs.nlink = 3;
    m.attrs.atime_ns = 0x31;
    m.attrs.mtime_ns = 0x32;
    sink("GetAttrResponse", m);
  }
  {
    SetTimesRequest m;
    m.handle = 0x41;
    m.atime_ns = 0x42;
    m.mtime_ns = 0x43;
    sink("SetTimesRequest", m);
  }
  {
    SetLengthRequest m;
    m.handle = 0x51;
    m.length = 0x52;
    sink("SetLengthRequest", m);
  }
  {
    GetLengthResponse m;
    m.length = 0x61;
    sink("GetLengthResponse", m);
  }
  {
    ReadRequest m;
    m.handle = 0x71;
    m.offset = 0x72;
    m.length = 0x73;
    sink("ReadRequest", m);
  }
  {
    ReadResponse m;
    m.data = Bytes("payload");
    sink("ReadResponse", m);
  }
  {
    WriteRequest m;
    m.handle = 0x81;
    m.offset = 0x82;
    m.data = Bytes("written");
    sink("WriteRequest", m);
  }
  {
    WriteResponse m;
    m.written = 0x91;
    sink("WriteResponse", m);
  }
  {
    BindCacheRequest m;
    m.handle = 0xa1;
    m.client_channel = 0xa2;
    m.is_fs_cache = true;
    m.node = "client-node";
    m.service = "dfs-cb-7";
    sink("BindCacheRequest", m);
  }
  {
    BindCacheResponse m;
    m.cache_id = 0xb1;
    sink("BindCacheResponse", m);
  }
  {
    UnbindCacheRequest m;
    m.handle = 0xc1;
    m.cache_id = 0xc2;
    sink("UnbindCacheRequest", m);
  }
  {
    PageInRequest m;
    m.handle = 0xd1;
    m.cache_id = 0xd2;
    m.offset = 0x2000;
    m.size = 0x3000;
    m.write_access = true;
    sink("PageInRequest", m);
  }
  {
    PageInResponse m;
    m.data = Bytes("page-in");
    sink("PageInResponse", m);
  }
  {
    PageInRangeResponse m;
    m.blocks = {{0x1000, Page("first")}, {0x2000, Page("second")}};
    sink("PageInRangeResponse", m);
  }
  {
    PageOutRequest m;
    m.handle = 0xe1;
    m.cache_id = 0xe2;
    m.offset = 0x3000;
    m.data = Bytes("page-out");
    sink("PageOutRequest", m);
  }
  {
    OpenRequest m;
    m.handle = 0xf1;
    m.want_delegation = DelegationKind::kRead;
    m.node = "n1";
    m.service = "svc";
    sink("OpenRequest", m);
  }
  {
    OpenResponse m;
    m.handle = 0x101;
    m.deleg_id = 0x102;
    m.expires_at = 0x104;
    sink("OpenResponse", m);
  }
  {
    StripeMapResponse m;
    m.stripe_size = 0x4000;
    m.length = 0x12345;
    m.map_version = 7;
    m.replicas = 2;
    m.object_name = "stripe-00ff";
    StripeMapResponse::Target t0;
    t0.node = "d0";
    t0.service = "dfs-data";
    t0.lane_handles = {0x121, 0x122};
    t0.stale = true;
    StripeMapResponse::Target t1;
    t1.node = "d1";
    t1.service = "dfs-data";
    t1.lane_handles = {0x123, 0x124};
    m.targets = {t0, t1};
    sink("StripeMapResponse", m);
  }
  {
    ReportStaleRequest m;
    m.handle = 0x131;
    m.target = 3;
    m.map_version = 9;
    sink("ReportStaleRequest", m);
  }
  {
    GetStatsResponse m;
    m.snapshot.values = {{"a/b", 1}, {"c", 2}};
    metrics::Histogram::Snapshot h1;
    h1.count = 3;
    h1.sum_ns = 4;
    h1.buckets[0] = 5;
    h1.buckets[metrics::Histogram::kNumBuckets - 1] = 6;
    metrics::Histogram::Snapshot h2;
    h2.count = 7;
    h2.sum_ns = 8;
    h2.buckets[1] = 9;
    m.snapshot.histograms = {{"h1", h1}, {"h2", h2}};
    sink("GetStatsResponse", m);
  }
  {
    HealthResponse m;
    m.role = HealthResponse::Role::kMetadata;
    m.boot_epoch = 0x141;
    m.uptime_ns = 0x142;
    m.stripe_size = 0x4000;
    m.stripe_width = 4;
    m.stripe_replicas = 2;
    m.rebuilds_completed = 0x143;
    m.files = {{"f1", 2, {0, 3}}, {"f2", 5, {1, 2}}};
    m.delegations_active = 0x144;
    m.leases_active = 0x145;
    m.dedup_entries = 0x146;
    sink("HealthResponse", m);
  }
  {
    CompoundRequest m;
    m.ops = {{1, Bytes("lookup-body")}, {10, Bytes("attr")}};
    sink("CompoundRequest", m);
  }
  {
    CompoundResponse m;
    m.results = {{1, 0, Bytes("ok")}, {40, 13, Bytes("stale")}};
    sink("CompoundResponse", m);
  }
  {
    CbRecallRequest m;
    m.client_channel = 0x151;
    m.offset = 0x152;
    m.size = 0x153;
    sink("CbRecallRequest", m);
  }
  {
    CbRecallResponse m;
    m.blocks = {{0x3000, Page("dirty")}, {0x5000, Page("pages")}};
    sink("CbRecallResponse", m);
  }
  {
    CbAttrInvalidateRequest m;
    m.client_channel = 0x161;
    sink("CbAttrInvalidateRequest", m);
  }
  {
    CbRecallDelegRequest m;
    m.deleg_id = 0x171;
    sink("CbRecallDelegRequest", m);
  }
}

// Each instance's encoding under the hand-written per-message encoders
// that preceded the generic codec, captured by encoding the instances
// above with them. Runs of identical bytes are written " xx*N ".
const std::map<std::string, std::string>& Golden() {
  static const auto* golden = new std::map<std::string, std::string>{
    {"PathRequest", "080000006469722f66696c65"},
    {"LookupResponse", "080706050403020101000000"},
    {"CreateResponse", "1817161514131211"},
    {"ReadDirResponse", "0200000001000000610100000002000000626300000000"},
    {"HandleRequest", "2827262524232221"},
    {"GetAttrResponse",
     "280000000100000000000000001000000000000003000000000000003100"
     "0000000000003200000000000000"},
    {"SetTimesRequest", "410000000000000042000000000000004300000000000000"},
    {"SetLengthRequest", "51000000000000005200000000000000"},
    {"GetLengthResponse", "6100000000000000"},
    {"ReadRequest", "710000000000000072000000000000007300000000000000"},
    {"ReadResponse", "070000007061796c6f6164"},
    {"WriteRequest",
     "81000000000000008200000000000000070000007772697474656e"},
    {"WriteResponse", "9100000000000000"},
    {"BindCacheRequest",
     "a100000000000000a200000000000000010000000b000000636c69656e74"
     "2d6e6f6465080000006466732d63622d37"},
    {"BindCacheResponse", "b100000000000000"},
    {"UnbindCacheRequest", "c100000000000000c200000000000000"},
    {"PageInRequest",
     "d100000000000000d2000000000000000020000000000000003000000000"
     "000001000000"},
    {"PageInResponse", "07000000706167652d696e"},
    {"PageInRangeResponse",
     "1020000000100000000000006669727374"
     " 00*4092 "
     "200000000000007365636f6e64"
     " 00*4090 "},
    {"PageOutRequest",
     "e100000000000000e2000000000000000030000000000000080000007061"
     "67652d6f7574"},
    {"OpenRequest", "f10000000000000001000000020000006e3103000000737663"},
    {"OpenResponse",
     "010100000000000002010000000000000401000000000000"},
    {"StripeMapResponse",
     "004000000000000045230100000000000700000000000000020000000b00"
     "00007374726970652d303066660200000002000000643008000000646673"
     "2d6461746101000000020000002101000000000000220100000000000002"
     "0000006431080000006466732d6461746100000000020000002301000000"
     "0000002401000000000000"},
    {"ReportStaleRequest", "3101000000000000030000000900000000000000"},
    {"GetStatsResponse",
     "0200000003000000612f6201000000000000000100000063020000000000"
     "000002000000020000006831030000000000000004000000000000001a00"
     "000005"
     " 00*199 "
     "060000000000000002000000683207000000000000000800000000000000"
     "1a000000000000000000000009"
     " 00*199 "},
    {"HealthResponse",
     "010000004101000000000000420100000000000000400000000000000400"
     "000002000000430100000000000002000000020000006631020000000000"
     "000002000000000000000300000002000000663205000000000000000200"
     "000001000000020000004401000000000000450100000000000046010000"
     "00000000"},
    {"CompoundRequest",
     "02000000010000000b0000006c6f6f6b75702d626f64790a000000040000"
     "0061747472"},
    {"CompoundResponse",
     "020000000100000000000000020000006f6b280000000d00000005000000"
     "7374616c65"},
    {"CbRecallRequest", "510100000000000052010000000000005301000000000000"},
    {"CbRecallResponse",
     "1020000000300000000000006469727479"
     " 00*4092 "
     "500000000000007061676573"
     " 00*4091 "},
    {"CbAttrInvalidateRequest", "6101000000000000"},
    {"CbRecallDelegRequest", "7101000000000000"},
  };
  return *golden;
}

std::string Hex(ByteSpan bytes) {
  std::string out;
  char tmp[3];
  for (uint8_t b : bytes) {
    std::snprintf(tmp, sizeof(tmp), "%02x", b);
    out += tmp;
  }
  return out;
}

Buffer FromHex(const std::string& hex) {
  Buffer out(hex.size() / 2);
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = static_cast<uint8_t>(std::stoi(hex.substr(2 * i, 2),
                                                   nullptr, 16));
  }
  return out;
}

// Expands the " xx*N " runs of a golden string.
std::string ExpandRuns(const std::string& golden) {
  std::string out;
  size_t at = 0;
  while (at < golden.size()) {
    size_t space = golden.find(' ', at);
    std::string token = golden.substr(
        at, space == std::string::npos ? std::string::npos : space - at);
    at = space == std::string::npos ? golden.size() : space + 1;
    size_t star = token.find('*');
    if (star == std::string::npos) {
      out += token;
      continue;
    }
    for (int i = std::stoi(token.substr(star + 1)); i > 0; --i) {
      out += token.substr(0, star);
    }
  }
  return out;
}

// Field-wise equality through the messages' own field lists.
template <class T>
bool FieldsEqual(const T& a, const T& b) {
  if constexpr (std::is_same_v<T, FileAttributes>) {
    return a.kind == b.kind && a.size == b.size && a.nlink == b.nlink &&
           a.atime_ns == b.atime_ns && a.mtime_ns == b.mtime_ns;
  } else if constexpr (std::is_same_v<T, BlockData>) {
    return a.offset == b.offset && a.data == b.data;
  } else if constexpr (requires(T& t) { t.Visit([](auto&...) {}); }) {
    bool equal = false;
    const_cast<T&>(a).Visit([&](auto&... fa) {
      const_cast<T&>(b).Visit(
          [&](auto&... fb) { equal = (FieldsEqual(fa, fb) && ...); });
    });
    return equal;
  } else if constexpr (requires { typename T::value_type::first_type; } ||
                       std::is_same_v<T, std::string>) {
    return a == b;  // maps and strings
  } else if constexpr (requires { a.begin(); }) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(),
                      [](const auto& x, const auto& y) {
                        return FieldsEqual(x, y);
                      });
  } else {
    return a == b;
  }
}

// Records the byte offset of every u32 count or length prefix in a
// message's encoding by walking its field list alongside the encoder.
class PrefixFinder {
 public:
  template <class... F>
  void operator()(F&... fields) {
    (Walk(fields), ...);
  }
  const std::vector<size_t>& offsets() const { return offsets_; }
  size_t end() const { return at_; }

 private:
  template <class T>
  static size_t EncodedSize(const T& v) {
    WireWriter w;
    w(v);
    return w.Take().size();
  }

  template <class T>
  void Walk(T& v) {
    using U = std::remove_const_t<T>;
    if constexpr (std::is_arithmetic_v<U> || std::is_enum_v<U>) {
      at_ += EncodedSize(v);
    } else if constexpr (std::is_same_v<U, metrics::Histogram::Snapshot>) {
      (*this)(v.count, v.sum_ns, v.buckets);
    } else if constexpr (requires { v.Visit(*this); }) {
      v.Visit(*this);
    } else if constexpr (requires { typename U::mapped_type; }) {
      offsets_.push_back(at_);
      at_ += 4;
      for (auto& [key, value] : v) {
        (*this)(key, value);
      }
    } else if constexpr (!std::is_same_v<U, std::string> &&
                         !std::is_same_v<U, std::vector<BlockData>> &&
                         requires { v.begin(); }) {
      offsets_.push_back(at_);
      at_ += 4;
      for (auto& element : v) {
        Walk(element);
      }
    } else {
      // A u32 length, then opaque bytes: strings, blobs, attributes and
      // block lists.
      offsets_.push_back(at_);
      at_ += EncodedSize(v);
    }
  }

  std::vector<size_t> offsets_;
  size_t at_ = 0;
};

TEST(DfsWire, EveryMessageEncodesToItsGoldenBytes) {
  size_t types = 0;
  ForEachGolden([&](const char* name, auto& msg) {
    using M = std::remove_cvref_t<decltype(msg)>;
    ++types;
    auto golden = Golden().find(name);
    ASSERT_NE(golden, Golden().end()) << name;
    std::string want = ExpandRuns(golden->second);
    EXPECT_EQ(Hex(Encode(msg).span()), want) << name;

    Result<M> back = Decode<M>(FromHex(want).span());
    ASSERT_TRUE(back.ok()) << name << ": " << back.status().ToString();
    EXPECT_TRUE(FieldsEqual(*back, msg)) << name;
  });
  EXPECT_EQ(types, 32u);
  EXPECT_EQ(Golden().size(), 32u);
}

TEST(DfsWire, EveryTruncationIsAnError) {
  ForEachGolden([&](const char* name, auto& msg) {
    using M = std::remove_cvref_t<decltype(msg)>;
    Buffer wire = Encode(msg);
    for (size_t cut = 0; cut < wire.size(); ++cut) {
      EXPECT_FALSE(Decode<M>(wire.subspan(0, cut)).ok())
          << name << " cut at " << cut;
    }
    Buffer longer = wire;
    longer.append(Buffer(1).span());
    EXPECT_EQ(Decode<M>(longer.span()).code(), ErrorCode::kCorrupted)
        << name << " with a trailing byte";
  });
}

TEST(DfsWire, EveryCountRaisedToMaxIsCorrupt) {
  const uint8_t kMax[4] = {0xff, 0xff, 0xff, 0xff};
  ForEachGolden([&](const char* name, auto& msg) {
    using M = std::remove_cvref_t<decltype(msg)>;
    Buffer wire = Encode(msg);
    PrefixFinder finder;
    msg.Visit(finder);
    ASSERT_EQ(finder.end(), wire.size()) << name;
    for (size_t at : finder.offsets()) {
      Buffer bad = wire;
      bad.WriteAt(at, ByteSpan(kMax, 4));
      EXPECT_EQ(Decode<M>(bad.span()).code(), ErrorCode::kCorrupted)
          << name << " prefix at " << at;
    }
    // Any other 4-byte window may decode (it overwrote a plain value), but
    // must never throw or fail with anything but kCorrupted.
    for (size_t at = 0; at + 4 <= wire.size(); ++at) {
      Buffer bad = wire;
      bad.WriteAt(at, ByteSpan(kMax, 4));
      Result<M> back = Decode<M>(bad.span());
      EXPECT_TRUE(back.ok() || back.code() == ErrorCode::kCorrupted)
          << name << " window at " << at;
    }
  });
}

}  // namespace
}  // namespace springfs
