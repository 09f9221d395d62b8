// Tests for the cluster telemetry plane (DESIGN.md §16): the typed
// kGetStats/kGetHealth wire bodies (randomized round trips + corruption
// rejection), OpNamer coverage of the full frame vocabulary, remote
// scraping through ClusterStatsClient (fan-out, unreachable servers,
// cluster aggregation), the server-side slow-op ring, and the flight
// recorder's artifact-dump helper.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/layers/dfs/cluster_stats.h"
#include "src/layers/dfs/dfs_client.h"
#include "src/layers/dfs/dfs_server.h"
#include "src/layers/dfs/striped_client.h"
#include "src/layers/sfs/sfs.h"
#include "src/obs/flight_recorder.h"
#include "src/support/rng.h"

namespace springfs {
namespace {

using dfs::ClusterStatsClient;
using dfs::DfsClient;
using dfs::DfsServer;
using dfs::GetStatsResponse;
using dfs::HealthResponse;
using dfs::Op;
using dfs::ServerScrape;
using dfs::StripedDfsClient;

// --- wire round trips ---

metrics::Histogram::Snapshot RandomHistogram(Rng& rng) {
  metrics::Histogram::Snapshot hist;
  hist.count = rng.Next();
  hist.sum_ns = rng.Next();
  for (size_t b = 0; b < metrics::Histogram::kNumBuckets; ++b) {
    // Every bucket nonzero, so the tail buckets are exercised too (a codec
    // that only ships a prefix of the bucket array would pass with sparse
    // histograms).
    hist.buckets[b] = 1 + rng.Next() % 1000;
  }
  return hist;
}

GetStatsResponse RandomStats(Rng& rng) {
  GetStatsResponse stats;
  size_t n_values = rng.Below(8);
  for (size_t i = 0; i < n_values; ++i) {
    stats.snapshot.values["value/" + std::to_string(rng.Next() % 1000)] =
        rng.Next();
  }
  size_t n_hists = rng.Below(4);
  for (size_t i = 0; i < n_hists; ++i) {
    stats.snapshot.histograms["hist/" + std::to_string(i)] =
        RandomHistogram(rng);
  }
  return stats;
}

HealthResponse RandomHealth(Rng& rng) {
  HealthResponse health;
  health.role = rng.Chance(1, 2) ? HealthResponse::Role::kMetadata
                                 : HealthResponse::Role::kData;
  health.boot_epoch = rng.Next();
  health.uptime_ns = rng.Next();
  health.stripe_size = rng.Next();
  health.stripe_width = static_cast<uint32_t>(rng.Below(8));
  health.stripe_replicas = static_cast<uint32_t>(rng.Below(4));
  health.rebuilds_completed = rng.Next();
  size_t n_files = rng.Below(5);
  for (size_t i = 0; i < n_files; ++i) {
    HealthResponse::FileHealth file;
    file.path = "file-" + std::to_string(i);
    file.map_version = rng.Next();
    size_t n_stale = rng.Below(4);
    for (size_t s = 0; s < n_stale; ++s) {
      file.stale_targets.push_back(static_cast<uint32_t>(rng.Below(8)));
    }
    health.files.push_back(std::move(file));
  }
  health.delegations_active = rng.Next();
  health.leases_active = rng.Next();
  health.dedup_entries = rng.Next();
  return health;
}

TEST(TelemetryWire, StatsRoundTripRandomized) {
  Rng rng(41);
  for (int iter = 0; iter < 64; ++iter) {
    GetStatsResponse original = RandomStats(rng);
    Buffer wire = dfs::Encode(original);
    Result<GetStatsResponse> decoded =
        dfs::Decode<GetStatsResponse>(wire.span());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(decoded->snapshot == original.snapshot) << "iter " << iter;
    // Decode-encode is byte-identical: the codec has one canonical form.
    Buffer again = dfs::Encode(*decoded);
    ASSERT_EQ(again.size(), wire.size());
    EXPECT_EQ(std::memcmp(again.data(), wire.data(), wire.size()), 0);
  }
}

TEST(TelemetryWire, HealthRoundTripRandomized) {
  Rng rng(43);
  for (int iter = 0; iter < 64; ++iter) {
    HealthResponse original = RandomHealth(rng);
    Buffer wire = dfs::Encode(original);
    Result<HealthResponse> decoded =
        dfs::Decode<HealthResponse>(wire.span());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->role, original.role);
    EXPECT_EQ(decoded->boot_epoch, original.boot_epoch);
    EXPECT_EQ(decoded->uptime_ns, original.uptime_ns);
    EXPECT_EQ(decoded->stripe_size, original.stripe_size);
    EXPECT_EQ(decoded->stripe_width, original.stripe_width);
    EXPECT_EQ(decoded->stripe_replicas, original.stripe_replicas);
    EXPECT_EQ(decoded->rebuilds_completed, original.rebuilds_completed);
    ASSERT_EQ(decoded->files.size(), original.files.size());
    for (size_t i = 0; i < original.files.size(); ++i) {
      EXPECT_EQ(decoded->files[i].path, original.files[i].path);
      EXPECT_EQ(decoded->files[i].map_version, original.files[i].map_version);
      EXPECT_EQ(decoded->files[i].stale_targets,
                original.files[i].stale_targets);
    }
    EXPECT_EQ(decoded->delegations_active, original.delegations_active);
    EXPECT_EQ(decoded->leases_active, original.leases_active);
    EXPECT_EQ(decoded->dedup_entries, original.dedup_entries);
    Buffer again = dfs::Encode(*decoded);
    ASSERT_EQ(again.size(), wire.size());
    EXPECT_EQ(std::memcmp(again.data(), wire.data(), wire.size()), 0);
  }
}

TEST(TelemetryWire, EveryTruncationRejected) {
  Rng rng(47);
  GetStatsResponse stats = RandomStats(rng);
  stats.snapshot.histograms["hist/forced"] = RandomHistogram(rng);
  Buffer stats_wire = dfs::Encode(stats);
  for (size_t len = 0; len < stats_wire.size(); ++len) {
    EXPECT_FALSE(
        dfs::Decode<GetStatsResponse>(ByteSpan(stats_wire.data(), len)).ok())
        << "stats prefix of " << len << " bytes decoded";
  }
  HealthResponse health = RandomHealth(rng);
  if (health.files.empty()) {
    health.files.push_back({"file-0", 3, {1}});
  }
  Buffer health_wire = dfs::Encode(health);
  for (size_t len = 0; len < health_wire.size(); ++len) {
    EXPECT_FALSE(
        dfs::Decode<HealthResponse>(ByteSpan(health_wire.data(), len)).ok())
        << "health prefix of " << len << " bytes decoded";
  }
}

TEST(TelemetryWire, TrailingBytesRejected) {
  Rng rng(53);
  Buffer stats_wire = dfs::Encode(RandomStats(rng));
  stats_wire.append(ByteSpan(reinterpret_cast<const uint8_t*>("x"), 1));
  EXPECT_FALSE(dfs::Decode<GetStatsResponse>(stats_wire.span()).ok());
  Buffer health_wire = dfs::Encode(RandomHealth(rng));
  health_wire.append(ByteSpan(reinterpret_cast<const uint8_t*>("x"), 1));
  EXPECT_FALSE(dfs::Decode<HealthResponse>(health_wire.span()).ok());
}

TEST(TelemetryWire, OversizedElementCountRejected) {
  // A 4-byte body claiming 2^32-1 elements must fail on the count check,
  // not attempt a 4-billion-iteration loop or a giant reserve.
  uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_FALSE(dfs::Decode<GetStatsResponse>(ByteSpan(huge, 4)).ok());
  EXPECT_FALSE(dfs::Decode<HealthResponse>(ByteSpan(huge, 4)).ok());
}

TEST(TelemetryWire, UnknownHealthRoleRejected) {
  Rng rng(59);
  Buffer wire = dfs::Encode(RandomHealth(rng));
  wire.data()[0] = 7;  // role is the leading LE u32
  EXPECT_FALSE(dfs::Decode<HealthResponse>(wire.span()).ok());
}

TEST(TelemetryWire, HistogramBucketCountMismatchRejected) {
  Rng rng(61);
  GetStatsResponse stats;
  stats.snapshot.histograms["hist/only"] = RandomHistogram(rng);
  Buffer wire = dfs::Encode(stats);
  // Layout: u32 n_values(=0), u32 n_hists(=1), str name, u64 count,
  // u64 sum, u32 bucket_count. Patch the bucket count in place.
  size_t at = 4 + 4 + (4 + std::string("hist/only").size()) + 8 + 8;
  ASSERT_LT(at + 4, wire.size());
  wire.data()[at] = 25;  // one bucket short
  wire.data()[at + 1] = 0;
  wire.data()[at + 2] = 0;
  wire.data()[at + 3] = 0;
  EXPECT_FALSE(dfs::Decode<GetStatsResponse>(wire.span()).ok());
}

// --- op naming ---

TEST(TelemetryNaming, EveryOpNamedNoNumericFallback) {
  const Op kAllOps[] = {
      Op::kLookup,       Op::kCreate,      Op::kMkdir,
      Op::kRemove,       Op::kReadDir,     Op::kGetAttr,
      Op::kSetTimes,     Op::kSetLength,   Op::kGetLength,
      Op::kRead,         Op::kWrite,       Op::kSyncFile,
      Op::kBindCache,    Op::kUnbindCache, Op::kPageIn,
      Op::kPageOut,      Op::kWriteOut,    Op::kSyncPages,
      Op::kPageInRange,  Op::kOpen,        Op::kGetStripeMap,
      Op::kReportStaleReplica,
      Op::kGetStats,     Op::kGetHealth,   Op::kCompound,
      Op::kCbFlushBack,  Op::kCbDenyWrites,
      Op::kCbAttrInvalidate, Op::kCbRecallDeleg,
  };
  net::SetFrameTypeNamer(&dfs::OpNamer);
  for (Op op : kAllOps) {
    uint32_t type = static_cast<uint32_t>(op);
    const char* name = dfs::OpNamer(type);
    ASSERT_NE(name, nullptr) << "op " << type << " has no name";
    // The transport must never fall back to its numeric "type<N>" form
    // for a DFS op: per-op metrics keys and slow-op lines depend on it.
    std::string frame_name = net::FrameTypeName(type);
    EXPECT_EQ(frame_name, name) << "op " << type;
    EXPECT_NE(frame_name.rfind("type", 0), 0u) << "op " << type;
  }
  // Values outside the vocabulary do fall back — OpNamer must decline
  // them rather than mislabel.
  EXPECT_EQ(dfs::OpNamer(9999), nullptr);
  EXPECT_EQ(net::FrameTypeName(9999), "type9999");
}

// --- remote scraping ---

TEST(ClusterScrape, ParseTargets) {
  auto targets = ClusterStatsClient::ParseTargets(
      "mds:dfs-meta,data0,,data1:custom", "dfs-data");
  ASSERT_EQ(targets.size(), 3u);
  EXPECT_EQ(targets[0].first, "mds");
  EXPECT_EQ(targets[0].second, "dfs-meta");
  EXPECT_EQ(targets[1].first, "data0");
  EXPECT_EQ(targets[1].second, "dfs-data");
  EXPECT_EQ(targets[2].first, "data1");
  EXPECT_EQ(targets[2].second, "custom");
  EXPECT_TRUE(ClusterStatsClient::ParseTargets("", "svc").empty());
}

// A width-2, replica-2 striped cluster with a probe node for scraping.
struct TelemetryWorld {
  Credentials sys = Credentials::System();
  FakeClock clock;
  std::unique_ptr<net::Network> network;
  sp<net::Node> client_node, probe_node, mds_node;
  std::vector<sp<net::Node>> data_nodes;
  std::vector<std::unique_ptr<MemBlockDevice>> devices;
  std::vector<Sfs> stores;
  std::vector<sp<DfsServer>> data_servers;
  sp<DfsServer> mds;
  sp<StripedDfsClient> client;
  dfs::DfsServerOptions mds_options;

  TelemetryWorld() {
    network = std::make_unique<net::Network>(&clock, 1000);
    client_node = network->AddNode("client");
    probe_node = network->AddNode("probe");
    mds_node = network->AddNode("mds");
    mds_options.stripe_size = kPageSize;
    mds_options.stripe_replicas = 2;
    for (int k = 0; k < 2; ++k) {
      data_nodes.push_back(network->AddNode("data" + std::to_string(k)));
      devices.push_back(
          std::make_unique<MemBlockDevice>(ufs::kBlockSize, 4096));
      stores.push_back(*CreateSfs(devices.back().get(), SfsOptions{}, &clock));
      data_servers.push_back(*DfsServer::Create(
          data_nodes[k], network.get(), "dfs-data", stores[k].root, &clock));
      mds_options.stripe_targets.push_back(
          {data_nodes[k]->name(), "dfs-data"});
    }
    devices.push_back(std::make_unique<MemBlockDevice>(ufs::kBlockSize, 4096));
    stores.push_back(*CreateSfs(devices.back().get(), SfsOptions{}, &clock));
    mds = *DfsServer::Create(mds_node, network.get(), "dfs-meta",
                             stores.back().root, &clock, mds_options);
    client = *StripedDfsClient::Mount(client_node, network.get(), "mds",
                                      "dfs-meta", &clock);
  }

  ClusterStatsClient MakeScraper() {
    ClusterStatsClient scraper("probe", network.get());
    scraper.AddServer("mds", "dfs-meta");
    scraper.AddServer("data0", "dfs-data");
    scraper.AddServer("data1", "dfs-data");
    return scraper;
  }
};

TEST(ClusterScrape, HealthyClusterEndToEnd) {
  TelemetryWorld world;
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data = Rng(5).RandomBuffer(4 * kPageSize);
  ASSERT_TRUE(file->Write(0, data.span()).ok());

  ClusterStatsClient scraper = world.MakeScraper();
  std::vector<ServerScrape> scrapes = scraper.ScrapeAll();
  ASSERT_EQ(scrapes.size(), 3u);
  for (const ServerScrape& scrape : scrapes) {
    EXPECT_TRUE(scrape.ok()) << scrape.address() << ": "
                             << scrape.stats_status.ToString() << " / "
                             << scrape.health_status.ToString();
  }
  // The MDS advertises its role and stripe geometry; data servers theirs.
  EXPECT_EQ(scrapes[0].health.role, HealthResponse::Role::kMetadata);
  EXPECT_EQ(scrapes[0].health.stripe_width, 2u);
  EXPECT_EQ(scrapes[0].health.stripe_replicas, 2u);
  EXPECT_EQ(scrapes[0].health.stripe_size, kPageSize);
  ASSERT_EQ(scrapes[0].health.files.size(), 1u);
  EXPECT_TRUE(scrapes[0].health.files[0].stale_targets.empty());
  EXPECT_EQ(scrapes[1].health.role, HealthResponse::Role::kData);
  EXPECT_EQ(scrapes[2].health.role, HealthResponse::Role::kData);

  // Per-server disambiguation: every scrape carries that server's own
  // counters under "self/" even though all three share one process
  // registry, and serving data pages shows up only on the data servers.
  for (const ServerScrape& scrape : scrapes) {
    EXPECT_GT(scrape.stats.values.count("self/stats_scrapes"), 0u)
        << scrape.address();
  }
  auto self_value = [](const ServerScrape& scrape, const char* name) {
    auto it = scrape.stats.values.find(name);
    return it == scrape.stats.values.end() ? uint64_t{0} : it->second;
  };
  uint64_t mds_writes = self_value(scrapes[0], "self/remote_writes");
  uint64_t data_writes = self_value(scrapes[1], "self/remote_writes") +
                         self_value(scrapes[2], "self/remote_writes");
  EXPECT_GT(data_writes, mds_writes) << "data path not on the data servers?";

  // The shared registry section carries the per-op latency histograms the
  // servers recorded while serving this test's writes.
  auto hist = scrapes[0].stats.histograms.find("dfs/op/write.latency_ns");
  ASSERT_NE(hist, scrapes[0].stats.histograms.end());
  EXPECT_GT(hist->second.count, 0u);

  // Aggregate: "self/" counters sum across servers into "cluster/".
  metrics::Registry::Snapshot cluster = ClusterStatsClient::Aggregate(scrapes);
  uint64_t summed = 0;
  for (const ServerScrape& scrape : scrapes) {
    summed += self_value(scrape, "self/stats_scrapes");
  }
  auto agg = cluster.values.find("cluster/stats_scrapes");
  ASSERT_NE(agg, cluster.values.end());
  EXPECT_EQ(agg->second, summed);
}

TEST(ClusterScrape, ScrapeCostsOneRoundTripAcrossServers) {
  // Six requests to three servers on 1000 ns links: every server answers
  // as its requests arrive, so the scrape costs one round trip. Waiting on
  // the servers one after another would add a one-way hop per extra one.
  TelemetryWorld world;
  ClusterStatsClient scraper = world.MakeScraper();
  TimeNs before = world.clock.Now();
  std::vector<ServerScrape> scrapes = scraper.ScrapeAll();
  EXPECT_EQ(world.clock.Now() - before, 2000u);
  ASSERT_EQ(scrapes.size(), 3u);
  for (const ServerScrape& scrape : scrapes) {
    EXPECT_TRUE(scrape.ok()) << scrape.address();
  }
}

TEST(ClusterScrape, DegradedTargetVisibleThenCleared) {
  TelemetryWorld world;
  sp<File> file = *world.client->CreateStriped("f");
  Buffer data = Rng(6).RandomBuffer(4 * kPageSize);
  ASSERT_TRUE(file->Write(0, data.span()).ok());

  // Darken data1 and write degraded: the MDS must advertise target 1 as
  // stale to a wire scraper, then advertise nothing after a rebuild.
  world.network->SetPartitioned("data1", true);
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ClusterStatsClient scraper("probe", world.network.get());
  scraper.AddServer("mds", "dfs-meta");
  std::vector<ServerScrape> dark = scraper.ScrapeAll();
  ASSERT_EQ(dark.size(), 1u);
  ASSERT_TRUE(dark[0].ok()) << dark[0].health_status.ToString();
  ASSERT_EQ(dark[0].health.files.size(), 1u);
  EXPECT_EQ(dark[0].health.files[0].stale_targets,
            std::vector<uint32_t>{1});
  uint64_t dark_version = dark[0].health.files[0].map_version;

  world.network->SetPartitioned("data1", false);
  Result<uint64_t> rebuilt = world.mds->RunRebuildPass();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(*rebuilt, 1u);
  std::vector<ServerScrape> healed = scraper.ScrapeAll();
  ASSERT_EQ(healed.size(), 1u);
  ASSERT_TRUE(healed[0].ok());
  ASSERT_EQ(healed[0].health.files.size(), 1u);
  EXPECT_TRUE(healed[0].health.files[0].stale_targets.empty());
  EXPECT_GT(healed[0].health.files[0].map_version, dark_version);
  EXPECT_EQ(healed[0].health.rebuilds_completed, 1u);
}

TEST(ClusterScrape, UnreachableServerReportedNotFatal) {
  TelemetryWorld world;
  world.network->SetPartitioned("data0", true);
  ClusterStatsClient scraper = world.MakeScraper();
  std::vector<ServerScrape> scrapes = scraper.ScrapeAll();
  ASSERT_EQ(scrapes.size(), 3u);
  EXPECT_TRUE(scrapes[0].ok());
  EXPECT_FALSE(scrapes[1].ok()) << "partitioned server scraped?";
  EXPECT_FALSE(scrapes[1].stats_status.ok());
  EXPECT_FALSE(scrapes[1].health_status.ok());
  EXPECT_TRUE(scrapes[2].ok());
  // Aggregation skips the dead server instead of failing.
  metrics::Registry::Snapshot cluster = ClusterStatsClient::Aggregate(scrapes);
  EXPECT_GT(cluster.values.count("cluster/stats_scrapes"), 0u);
  // JSON for the dead server carries the error, not a stats document.
  std::string json = dfs::ScrapeToJson(scrapes[1]);
  EXPECT_NE(json.find("stats_error"), std::string::npos);
}

// --- slow-op ring ---

TEST(SlowOps, ForcedSlowOpLandsInRingAndFlightDump) {
  // Real clock + a 1ns threshold: every dispatched op is "slow". The ring
  // must keep them (bounded) and the flight recorder must carry the WARN.
  flight::Clear();
  Credentials sys = Credentials::System();
  net::Network network(&DefaultClock(), 1000);
  sp<net::Node> server_node = network.AddNode("server");
  sp<net::Node> client_node = network.AddNode("client");
  MemBlockDevice device(ufs::kBlockSize, 4096);
  Sfs sfs = *CreateSfs(&device, SfsOptions{});
  dfs::DfsServerOptions options;
  options.slow_op_threshold_ns = 1;
  sp<DfsServer> server = *DfsServer::Create(
      server_node, &network, "dfs", sfs.root, &DefaultClock(), options);
  sp<DfsClient> client =
      *DfsClient::Mount(client_node, &network, "server", "dfs");

  sp<File> file = *server->CreateFile(*Name::Parse("f"), sys);
  Buffer data = Rng(9).RandomBuffer(kPageSize);
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  sp<File> remote = *ResolveAs<File>(client, "f", sys);
  Buffer out(kPageSize);
  // More slow ops than the ring holds.
  for (size_t i = 0; i <= DfsServer::kSlowOpRing; ++i) {
    ASSERT_TRUE(remote->Read(0, out.mutable_span()).ok());
  }

  std::vector<DfsServer::SlowOp> slow = server->SlowOps();
  EXPECT_EQ(slow.size(), DfsServer::kSlowOpRing) << "ring exceeded its bound";
  EXPECT_GT(metrics::StatValue(*server, "slow_ops"), DfsServer::kSlowOpRing);
  for (const DfsServer::SlowOp& op : slow) {
    EXPECT_GT(op.elapsed_ns, 0u);
  }
  EXPECT_GT(metrics::StatValue(*server, "slow_ops"), 0u);
  EXPECT_NE(flight::Dump().find("slow op"), std::string::npos)
      << "no slow-op WARN in the flight recorder";
}

TEST(SlowOps, ZeroThresholdDisablesRecording) {
  Credentials sys = Credentials::System();
  net::Network network(&DefaultClock(), 1000);
  sp<net::Node> server_node = network.AddNode("server");
  sp<net::Node> client_node = network.AddNode("client");
  MemBlockDevice device(ufs::kBlockSize, 4096);
  Sfs sfs = *CreateSfs(&device, SfsOptions{});
  dfs::DfsServerOptions options;
  options.slow_op_threshold_ns = 0;
  sp<DfsServer> server = *DfsServer::Create(
      server_node, &network, "dfs", sfs.root, &DefaultClock(), options);
  sp<DfsClient> client =
      *DfsClient::Mount(client_node, &network, "server", "dfs");
  Result<sp<File>> remote = ResolveAs<File>(client, "/", sys);
  EXPECT_TRUE(server->SlowOps().empty());
  EXPECT_EQ(metrics::StatValue(*server, "slow_ops"), 0u);
}

// --- flight artifact helper ---

TEST(FlightArtifact, DumpToArtifactWritesCanonicalPath) {
  flight::Record(flight::Severity::kInfo, "test", "artifact probe");
  std::string path = flight::ArtifactDumpPath("telemetry_selftest");
  EXPECT_EQ(path, "flight_dump_telemetry_selftest.txt");
  ASSERT_TRUE(flight::DumpToArtifact("telemetry_selftest", "header line"));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256] = {};
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  ASSERT_GT(n, 0u);
  EXPECT_NE(std::string(buf).find("header line"), std::string::npos);
}

TEST(FlightArtifact, UnwritablePathFailsCleanly) {
  // The error branch the harnesses rely on: a dump that cannot be written
  // reports false (after a stderr note) instead of aborting the run.
  EXPECT_FALSE(
      flight::DumpToFile("/nonexistent-dir/flight.txt", "header"));
  std::string tag = "../../../../../../nonexistent-dir/escape";
  EXPECT_FALSE(flight::DumpToArtifact(tag, "header"));
}

}  // namespace
}  // namespace springfs
