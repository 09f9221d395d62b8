// Striped DFS: aggregate sequential-read bandwidth vs stripe width.
//
// One metadata server resolves the path and hands out the stripe map; W
// data servers (each over its own SFS) serve the bytes. The client's plain
// read fans one kRead per 16KB stripe extent out over per-server channels
// and drains them all together in event-time order (net::WaitAnyOf); it
// registers no cache (no kBindCache — only VMM faults use kPageInRange
// under one). Every client->data-server link carries the same budget —
// 100us one-way latency plus a 150us pacing gap per frame (a Lustre-style
// per-OST wire) — so a width-1 layout serializes every extent behind one
// pacer while width-4 runs four pacers in parallel and the extents' round
// trips overlap across servers: the read ends one round trip after the
// last paced send, on whichever server that is.
// Aggregate bandwidth should scale with width; total net calls should not
// (same extents, just spread out), showing the metadata server is off the
// data path.
//
// Emits BENCH_stripe.json and self-checks that width-4 sequential read
// throughput is >=3x width-1 on the same link budget (exit non-zero on
// violation — CI gates on it).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/layers/dfs/cluster_stats.h"
#include "src/layers/dfs/dfs_server.h"
#include "src/layers/dfs/striped_client.h"
#include "src/layers/sfs/sfs.h"
#include "src/obs/flight_recorder.h"
#include "src/support/rng.h"

using namespace springfs;
using bench::Better;
using bench::Figure;
using bench::Measurement;
using dfs::DfsServer;
using dfs::DfsServerOptions;
using dfs::StripedDfsClient;
using dfs::StripedDfsClientOptions;

namespace {

constexpr uint64_t kLatencyNs = 100'000;       // 100us one-way per link
constexpr uint64_t kPaceGapNs = 150'000;       // per-frame budget per link
constexpr uint64_t kStripeSize = 4 * kPageSize;  // 16KB stripe units

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).take_value();
}

struct RunResult {
  double mbps = 0;
  double wall_us = 0;
  uint64_t net_calls = 0;
  bool identical = false;
};

RunResult RunWidth(bench::BenchReport& report, size_t width) {
  const uint64_t file_bytes = (bench::QuickMode() ? 1 : 4) * 1024 * 1024;
  std::string name = "stripe/width" + std::to_string(width);
  net::Network network(&DefaultClock(), kLatencyNs);
  sp<net::Node> client_node = network.AddNode("client");
  sp<net::Node> mds_node = network.AddNode("mds");

  // One SFS per server: the metadata server owns naming + attributes; each
  // data server owns one stripe-object store.
  std::vector<std::unique_ptr<MemBlockDevice>> devices;
  std::vector<Sfs> stores;
  std::vector<sp<DfsServer>> servers;
  DfsServerOptions mds_options;
  mds_options.stripe_size = kStripeSize;
  mds_options.stripe_replicas = 1;  // the width phases measure raw RAID-0
  for (size_t k = 0; k < width; ++k) {
    std::string node_name = "data" + std::to_string(k);
    sp<net::Node> data_node = network.AddNode(node_name);
    devices.push_back(std::make_unique<MemBlockDevice>(ufs::kBlockSize, 16384));
    stores.push_back(CreateSfs(devices.back().get(), SfsOptions{}).take_value());
    servers.push_back(DfsServer::Create(data_node, &network, "dfs-data",
                                        stores.back().root)
                          .take_value());
    mds_options.stripe_targets.push_back({node_name, "dfs-data"});
  }
  devices.push_back(std::make_unique<MemBlockDevice>(ufs::kBlockSize, 16384));
  stores.push_back(CreateSfs(devices.back().get(), SfsOptions{}).take_value());
  sp<DfsServer> mds =
      DfsServer::Create(mds_node, &network, "dfs-meta", stores.back().root,
                        &DefaultClock(), mds_options)
          .take_value();

  StripedDfsClientOptions options;
  options.data_channel.max_inflight = 512;   // the pacer is the bottleneck
  options.data_channel.pace_gap_ns = kPaceGapNs;
  options.data_channel.pace_burst = 1;
  options.data_channel.rto_ns = 50'000'000;  // no loss injected: stay quiet
  options.data_channel.rto_max_ns = 200'000'000;
  sp<StripedDfsClient> client =
      Must(StripedDfsClient::Mount(client_node, &network, "mds", "dfs-meta",
                                   &DefaultClock(), options),
           "mount");

  sp<File> file = Must(client->CreateStriped("f"), "create striped");
  Rng rng(1);
  Buffer expect = rng.RandomBuffer(file_bytes);
  Must(file->Write(0, expect.span()), "seed write");

  // Setup (mount, map fetch, striped seeding) must not count.
  report.BeginConfig(name);
  uint64_t calls_before = metrics::StatValue(network, "calls");

  RunResult result;
  Buffer got;
  got.resize(file_bytes);
  auto start = std::chrono::steady_clock::now();
  size_t n = Must(file->Read(0, got.mutable_span()), "striped read");
  auto end = std::chrono::steady_clock::now();
  result.wall_us =
      std::chrono::duration<double, std::micro>(end - start).count();
  result.identical =
      n == file_bytes && std::memcmp(got.data(), expect.data(), n) == 0;
  result.net_calls = metrics::StatValue(network, "calls") - calls_before;
  result.mbps = (static_cast<double>(file_bytes) / (1024.0 * 1024.0)) /
                (result.wall_us / 1e6);

  Measurement read;
  read.mean_us = result.wall_us;
  read.iterations = 1;
  report.Add("sequential read", read);
  report.Add("aggregate_mb_per_s", Figure(result.mbps, Better::kHigher));
  report.EndConfig();

  std::printf("%-16s: %10.0f us, %7.1f MB/s, %4llu net calls, bytes %s\n",
              name.c_str(), result.wall_us, result.mbps,
              static_cast<unsigned long long>(result.net_calls),
              result.identical ? "identical" : "MISMATCH");
  return result;
}

// Degraded-mode read: a width-2 cluster at replica factor 2 (every stripe
// mirrored on the other server), with one data server partitioned away.
// Every extent whose primary lane sits on the dead target fails over to
// its mirror inside the same fan-out round — the read must still complete
// byte-identical, and at a reasonable fraction of the healthy rate (all
// traffic now rides one pacer, so ~0.5x is the structural ceiling).
struct DegradedResult {
  double healthy_mbps = 0;
  double degraded_mbps = 0;
  bool identical = false;
  bool stale_visible = false;   // dark target listed by kGetHealth
  bool stale_cleared = false;   // stale sets empty after the rebuild
  uint64_t rebuilt = 0;         // targets resynced by RunRebuildPass
};

DegradedResult RunDegraded(bench::BenchReport& report) {
  const uint64_t file_bytes = (bench::QuickMode() ? 1 : 4) * 1024 * 1024;
  constexpr size_t kWidth = 2;
  net::Network network(&DefaultClock(), kLatencyNs);
  sp<net::Node> client_node = network.AddNode("client");
  sp<net::Node> probe_node = network.AddNode("probe");
  sp<net::Node> mds_node = network.AddNode("mds");
  (void)probe_node;  // the scraper below opens channels by node name

  std::vector<std::unique_ptr<MemBlockDevice>> devices;
  std::vector<Sfs> stores;
  std::vector<sp<DfsServer>> servers;
  DfsServerOptions mds_options;
  mds_options.stripe_size = kStripeSize;
  mds_options.stripe_replicas = 2;
  for (size_t k = 0; k < kWidth; ++k) {
    std::string node_name = "data" + std::to_string(k);
    sp<net::Node> data_node = network.AddNode(node_name);
    devices.push_back(std::make_unique<MemBlockDevice>(ufs::kBlockSize, 16384));
    stores.push_back(CreateSfs(devices.back().get(), SfsOptions{}).take_value());
    servers.push_back(DfsServer::Create(data_node, &network, "dfs-data",
                                        stores.back().root)
                          .take_value());
    mds_options.stripe_targets.push_back({node_name, "dfs-data"});
  }
  devices.push_back(std::make_unique<MemBlockDevice>(ufs::kBlockSize, 16384));
  stores.push_back(CreateSfs(devices.back().get(), SfsOptions{}).take_value());
  sp<DfsServer> mds =
      DfsServer::Create(mds_node, &network, "dfs-meta", stores.back().root,
                        &DefaultClock(), mds_options)
          .take_value();

  StripedDfsClientOptions options;
  options.data_channel.max_inflight = 512;
  options.data_channel.pace_gap_ns = kPaceGapNs;
  options.data_channel.pace_burst = 1;
  options.data_channel.rto_ns = 50'000'000;
  options.data_channel.rto_max_ns = 200'000'000;
  sp<StripedDfsClient> client =
      Must(StripedDfsClient::Mount(client_node, &network, "mds", "dfs-meta",
                                   &DefaultClock(), options),
           "mount degraded");

  sp<File> file = Must(client->CreateStriped("f"), "create replicated");
  Rng rng(2);
  Buffer expect = rng.RandomBuffer(file_bytes);
  Must(file->Write(0, expect.span()), "seed replicated write");

  report.BeginConfig("stripe/degraded");

  DegradedResult result;
  Buffer got;
  got.resize(file_bytes);
  auto measure = [&](const char* what) {
    auto start = std::chrono::steady_clock::now();
    size_t n = Must(file->Read(0, got.mutable_span()), what);
    auto end = std::chrono::steady_clock::now();
    double wall_us =
        std::chrono::duration<double, std::micro>(end - start).count();
    result.identical =
        n == file_bytes && std::memcmp(got.data(), expect.data(), n) == 0;
    return (static_cast<double>(file_bytes) / (1024.0 * 1024.0)) /
           (wall_us / 1e6);
  };

  result.healthy_mbps = measure("healthy replicated read");
  bool healthy_identical = result.identical;
  network.SetPartitioned("data1", true);
  result.degraded_mbps = measure("degraded read");
  result.identical = result.identical && healthy_identical;

  // A degraded WRITE (same bytes, so later reads stay comparable) runs
  // ahead on the surviving replica and makes the client report data1's
  // lanes stale. The staleness must then be visible *through the wire*:
  // a probe node scrapes the MDS's kGetHealth — no server pointers — and
  // must see the darkened target in the stale sets before the rebuild and
  // an empty set after it.
  Must(file->Write(0, expect.span()), "degraded replicated write");
  dfs::ClusterStatsClient scraper("probe", &network);
  scraper.AddServer("mds", "dfs-meta");
  struct StaleView {
    bool ok = false;
    size_t stale = 0;
    bool victim = false;
  };
  auto scrape = [&]() {
    StaleView view;
    std::vector<dfs::ServerScrape> scrapes = scraper.ScrapeAll();
    if (scrapes.size() != 1 || !scrapes[0].health_status.ok()) {
      return view;
    }
    view.ok = true;
    for (const auto& fh : scrapes[0].health.files) {
      view.stale += fh.stale_targets.size();
      for (uint32_t t : fh.stale_targets) {
        view.victim |= t == 1;
      }
    }
    return view;
  };
  StaleView dark = scrape();
  result.stale_visible = dark.ok && dark.victim;
  network.SetPartitioned("data1", false);
  result.rebuilt = Must(mds->RunRebuildPass(), "rebuild pass");
  StaleView healed = scrape();
  result.stale_cleared = healed.ok && healed.stale == 0;

  double ratio = result.degraded_mbps / std::max(result.healthy_mbps, 1e-9);
  report.Add("healthy_mb_per_s", Figure(result.healthy_mbps, Better::kHigher));
  report.Add("degraded_mb_per_s",
             Figure(result.degraded_mbps, Better::kHigher));
  report.Add("degraded_ratio_x", Figure(ratio, Better::kHigher));
  report.EndConfig();

  std::printf("%-16s: %7.1f MB/s healthy, %7.1f MB/s with data1 dark "
              "(%.2fx), bytes %s, failovers %llu, stale %s, rebuilt %llu\n",
              "stripe/degraded", result.healthy_mbps, result.degraded_mbps,
              ratio, result.identical ? "identical" : "MISMATCH",
              static_cast<unsigned long long>(
                  metrics::StatValue(*client, "replica_failovers")),
              result.stale_visible
                  ? (result.stale_cleared ? "seen+cleared" : "seen")
                  : "NOT SEEN",
              static_cast<unsigned long long>(result.rebuilt));
  return result;
}

}  // namespace

int main() {
  bench::BenchReport report("stripe");
  std::printf("Striped DFS sequential read, %s file, 16KB stripes, "
              "%llu us/link latency, %llu us/frame pacing\n",
              bench::QuickMode() ? "1MB" : "4MB",
              static_cast<unsigned long long>(kLatencyNs / 1000),
              static_cast<unsigned long long>(kPaceGapNs / 1000));
  bench::PrintRule(80);
  RunResult w1 = RunWidth(report, 1);
  RunResult w2 = RunWidth(report, 2);
  RunResult w4 = RunWidth(report, 4);
  DegradedResult degraded = RunDegraded(report);
  bench::PrintRule(80);

  double speedup2 = w2.mbps / std::max(w1.mbps, 1e-9);
  double speedup4 = w4.mbps / std::max(w1.mbps, 1e-9);
  report.BeginConfig("stripe/summary");
  report.Add("width2_speedup_x", Figure(speedup2, Better::kHigher));
  report.Add("width4_speedup_x", Figure(speedup4, Better::kHigher));
  report.EndConfig();
  std::printf("aggregate bandwidth: width2 %.2fx, width4 %.2fx over "
              "width1\n", speedup2, speedup4);

  std::string path = report.Write();
  std::printf("wrote %s\n", path.empty() ? "(write failed!)" : path.c_str());

  bool ok = true;
  auto check = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ok = false;
    }
  };
  check(!path.empty(), "BENCH_stripe.json written");
  check(w1.identical && w2.identical && w4.identical,
        "all striped reads byte-identical to the seeded file");
  // 3x leaves room for software time below the structural ~3.9x (16
  // paced sends per server instead of 64), and still fails if the
  // servers' channels are drained one after another instead of together
  // (about 2.5-2.9x).
  check(speedup4 >= 3.0,
        "width-4 sequential read >=3x width-1 on the same link budget");
  // Fan-out spreads the same extents across servers; it must not inflate
  // the wire traffic (metadata stays off the data path).
  check(w4.net_calls <= w1.net_calls + w1.net_calls / 4,
        "width-4 read costs no more net calls than width-1 (+25% slack)");
  check(degraded.identical,
        "degraded replicated reads byte-identical to the seeded file");
  check(degraded.degraded_mbps >=
            0.4 * std::max(degraded.healthy_mbps, 1e-9),
        "degraded read (one replica target down) >=0.4x the healthy rate");
  check(degraded.stale_visible,
        "darkened target listed in the MDS's kGetHealth stale sets");
  check(degraded.rebuilt > 0,
        "rebuild pass resynced at least one stale target");
  check(degraded.stale_cleared,
        "kGetHealth stale sets empty after RunRebuildPass");
  if (!ok) {
    flight::DumpToArtifact("bench_stripe", "bench_stripe self-check failed");
  }
  return ok ? 0 : 1;
}
