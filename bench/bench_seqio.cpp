// Sequential I/O through the full DFS stack: fault clustering end to end.
//
// A client VMM maps a remote file (DFS client -> network -> DFS server ->
// SFS) and reads 256 pages. With read-ahead off every page costs one
// PageIn and one network round trip; with the adaptive cluster window on,
// sequential faults widen (1, 2, 4, ... pages) and ride the batched
// kPageInRange op, so the same read costs a handful of round trips. The
// random-access control shows the window resetting: clustering must not
// penalize non-sequential workloads.
//
// Emits BENCH_seqio.json and self-checks the acceptance ratios (>=5x fewer
// pager calls and >=3x fewer net round trips sequentially, <5% random
// regression, byte-identical reads), exiting non-zero on violation.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/layers/dfs/dfs_client.h"
#include "src/layers/dfs/dfs_server.h"
#include "src/layers/sfs/sfs.h"
#include "src/obs/metrics.h"
#include "src/support/rng.h"
#include "src/vmm/vmm.h"

using namespace springfs;
using bench::Better;
using bench::Figure;
using bench::Measurement;
using dfs::DfsClient;
using dfs::DfsServer;

namespace {

constexpr int kPages = 256;
constexpr uint32_t kReadAheadPages = 32;
constexpr uint64_t kLatencyNs = 100'000;  // 100us one-way

struct RunResult {
  uint64_t pager_calls = 0;      // PageIn calls the client VMM issued
  uint64_t net_calls = 0;        // network round trips during the reads
  uint64_t read_ahead_hits = 0;  // demand hits on prefetched pages
  bool identical = false;        // bytes match the seeded file exactly
  double wall_us = 0;
};

// Per-op wire-call counts accumulated across all phases. The phase
// networks are function-local, so their "calls/<op>" counters must be
// harvested before each network dies; the final self-check matches this
// set against the global per-op latency histograms.
std::map<std::string, uint64_t>& WireOps() {
  static std::map<std::string, uint64_t> ops;
  return ops;
}

void HarvestWireOps(const net::Network& network) {
  network.CollectStats([](const std::string& name, uint64_t value) {
    const std::string prefix = "calls/";
    if (value > 0 && name.rfind(prefix, 0) == 0) {
      WireOps()[name.substr(prefix.size())] += value;
    }
  });
}

RunResult RunWorkload(bench::BenchReport& report, const std::string& name,
                      bool sequential, uint32_t read_ahead) {
  Credentials creds = Credentials::System();
  net::Network network(&DefaultClock(), kLatencyNs);
  sp<net::Node> server_node = network.AddNode("server");
  sp<net::Node> client_node = network.AddNode("client");

  MemBlockDevice device(ufs::kBlockSize, 16384);
  Sfs sfs = CreateSfs(&device, SfsOptions{}).take_value();
  sp<DfsServer> server =
      DfsServer::Create(server_node, &network, "dfs", sfs.root).take_value();
  sp<DfsClient> client =
      DfsClient::Mount(client_node, &network, "server", "dfs").take_value();

  sp<File> file = server->CreateFile(*Name::Parse("f"), creds).take_value();
  Rng rng(1);
  Buffer expect = rng.RandomBuffer(Offset{kPages} * kPageSize);
  file->Write(0, expect.span()).take_value();

  sp<File> remote = ResolveAs<File>(client, "f", creds).take_value();
  VmmOptions options;
  options.read_ahead_pages = read_ahead;
  sp<Vmm> vmm = Vmm::Create(client_node->domain(), "seqio-" + name, options);
  sp<MappedRegion> region =
      vmm->Map(remote, AccessRights::kReadOnly).take_value();

  std::vector<int> order(kPages);
  std::iota(order.begin(), order.end(), 0);
  if (!sequential) {
    std::mt19937 shuffle_rng(1234);
    std::shuffle(order.begin(), order.end(), shuffle_rng);
  }

  // Setup traffic (mount, resolve, bind, seeding the file) must not count.
  report.BeginConfig(name);
  uint64_t calls_before = metrics::StatValue(network, "calls");
  std::map<std::string, uint64_t> vmm_before = metrics::CollectFrom(*vmm);

  RunResult result;
  result.identical = true;
  Buffer out(kPageSize);
  auto start = std::chrono::steady_clock::now();
  for (int p : order) {
    Offset at = Offset{static_cast<uint64_t>(p)} * kPageSize;
    if (!region->Read(at, out.mutable_span()).ok() ||
        std::memcmp(out.data(),
                    expect.data() + static_cast<size_t>(p) * kPageSize,
                    kPageSize) != 0) {
      result.identical = false;
    }
  }
  auto end = std::chrono::steady_clock::now();
  result.wall_us =
      std::chrono::duration<double, std::micro>(end - start).count();

  std::map<std::string, uint64_t> vmm_after = metrics::CollectFrom(*vmm);
  result.pager_calls = vmm_after["faults"] - vmm_before["faults"];
  result.net_calls = metrics::StatValue(network, "calls") - calls_before;
  result.read_ahead_hits =
      vmm_after["read_ahead_hits"] - vmm_before["read_ahead_hits"];
  HarvestWireOps(network);

  Measurement per_page;
  per_page.mean_us = result.wall_us / kPages;
  per_page.iterations = kPages;
  report.Add("4KB page read", per_page);
  report.EndConfig();

  std::printf("%-22s: %8.2f us/page, %4llu pager calls, %4llu net calls, "
              "%4llu read-ahead hits, bytes %s\n",
              name.c_str(), per_page.mean_us,
              static_cast<unsigned long long>(result.pager_calls),
              static_cast<unsigned long long>(result.net_calls),
              static_cast<unsigned long long>(result.read_ahead_hits),
              result.identical ? "identical" : "MISMATCH");
  return result;
}

// Pipelined bulk read at a given channel window (max_inflight), against a
// lossy link: 25% of transmissions on client->server are delayed 2ms, so
// the channel's RACK / RTO machinery (rto_ns = 400us, well under the
// injected delay) has to recover in-window while healthy chunks keep
// streaming. depth=1 is the stop-and-wait baseline; deeper windows overlap
// both the round trips and the recovery stalls.
RunResult RunPipelineDepth(bench::BenchReport& report, size_t depth) {
  const int pages = bench::QuickMode() ? 64 : kPages;
  std::string name = "pipeline/depth" + std::to_string(depth);
  Credentials creds = Credentials::System();
  net::Network network(&DefaultClock(), kLatencyNs);
  sp<net::Node> server_node = network.AddNode("server");
  sp<net::Node> client_node = network.AddNode("client");

  MemBlockDevice device(ufs::kBlockSize, 16384);
  Sfs sfs = CreateSfs(&device, SfsOptions{}).take_value();
  sp<DfsServer> server =
      DfsServer::Create(server_node, &network, "dfs", sfs.root).take_value();

  dfs::DfsClientOptions options;
  options.channel.max_inflight = depth;
  options.channel.rto_ns = 400'000;  // recover well before the 2ms delay
  options.channel.rack_reorder_ns = 100'000;
  options.channel.max_retransmits = 4;
  sp<DfsClient> client =
      DfsClient::Mount(client_node, &network, "server", "dfs",
                       &DefaultClock(), options)
          .take_value();

  sp<File> file = server->CreateFile(*Name::Parse("f"), creds).take_value();
  Rng rng(1);
  Buffer expect = rng.RandomBuffer(Offset{static_cast<uint64_t>(pages)} *
                                   kPageSize);
  file->Write(0, expect.span()).take_value();

  // Setup (mount, seeding) runs on a clean link; the delay plan only
  // applies to the measured reads. Same seed for every depth so each run
  // faces the same fault stream.
  net::FaultPlan plan;
  plan.seed = 7;
  plan.delay_pct = 25;
  plan.delay_ns = 2'000'000;
  network.ArmFaultsOnLink("client", "server", plan);

  report.BeginConfig(name);
  uint64_t calls_before = metrics::StatValue(network, "calls");
  uint64_t recovered_before =
      metrics::StatValue(network, "rack_retransmits") +
      metrics::StatValue(network, "rto_retransmits");

  RunResult result;
  auto start = std::chrono::steady_clock::now();
  Result<Buffer> got = client->ReadPipelined(
      "f", 0, Offset{static_cast<uint64_t>(pages)} * kPageSize, kPageSize);
  auto end = std::chrono::steady_clock::now();
  result.wall_us =
      std::chrono::duration<double, std::micro>(end - start).count();
  result.identical = got.ok() && got->size() == expect.size() &&
                     std::memcmp(got->data(), expect.data(), expect.size()) == 0;
  result.net_calls = metrics::StatValue(network, "calls") - calls_before;
  uint64_t recovered = metrics::StatValue(network, "rack_retransmits") +
                       metrics::StatValue(network, "rto_retransmits") -
                       recovered_before;
  HarvestWireOps(network);

  Measurement per_page;
  per_page.mean_us = result.wall_us / pages;
  per_page.iterations = static_cast<uint64_t>(pages);
  report.Add("4KB page read", per_page);
  report.EndConfig();

  network.DisarmFaults();

  std::printf("%-22s: %8.2f us/page, %4llu net calls, %4llu retransmits, "
              "bytes %s\n",
              name.c_str(), per_page.mean_us,
              static_cast<unsigned long long>(result.net_calls),
              static_cast<unsigned long long>(recovered),
              result.identical ? "identical" : "MISMATCH");
  return result;
}

}  // namespace

int main() {
  bench::BenchReport report("seqio");
  std::printf("Sequential I/O, %d pages through VMM -> DFS client -> "
              "network (%llu us one-way) -> DFS server -> SFS\n",
              kPages, static_cast<unsigned long long>(kLatencyNs / 1000));
  bench::PrintRule(96);

  RunResult seq_off = RunWorkload(report, "seq/read_ahead_off",
                                  /*sequential=*/true, /*read_ahead=*/0);
  RunResult seq_on = RunWorkload(report, "seq/read_ahead_on",
                                 /*sequential=*/true, kReadAheadPages);
  RunResult rand_off = RunWorkload(report, "rand/read_ahead_off",
                                   /*sequential=*/false, /*read_ahead=*/0);
  RunResult rand_on = RunWorkload(report, "rand/read_ahead_on",
                                  /*sequential=*/false, kReadAheadPages);
  bench::PrintRule(96);

  std::printf("Pipelined bulk read on a lossy link (25%% of sends delayed "
              "2ms, rto 400us), channel window sweep\n");
  bench::PrintRule(96);
  RunResult depth1 = RunPipelineDepth(report, 1);
  RunResult depth4 = RunPipelineDepth(report, 4);
  RunResult depth16 = RunPipelineDepth(report, 16);
  bench::PrintRule(96);

  double pager_reduction =
      static_cast<double>(seq_off.pager_calls) /
      static_cast<double>(std::max<uint64_t>(seq_on.pager_calls, 1));
  double net_reduction =
      static_cast<double>(seq_off.net_calls) /
      static_cast<double>(std::max<uint64_t>(seq_on.net_calls, 1));
  double rand_regression =
      static_cast<double>(rand_on.pager_calls) /
      static_cast<double>(std::max<uint64_t>(rand_off.pager_calls, 1));

  double depth4_speedup =
      depth1.wall_us / std::max(depth4.wall_us, 1.0);
  double depth16_speedup =
      depth1.wall_us / std::max(depth16.wall_us, 1.0);

  report.BeginConfig("summary");
  report.Add("pager_call_reduction_x",
             Figure(pager_reduction, Better::kHigher));
  report.Add("net_call_reduction_x", Figure(net_reduction, Better::kHigher));
  report.Add("random_pager_call_ratio",
             Figure(rand_regression, Better::kLower));
  report.Add("pipeline_depth4_speedup_x",
             Figure(depth4_speedup, Better::kHigher));
  report.Add("pipeline_depth16_speedup_x",
             Figure(depth16_speedup, Better::kHigher));
  report.EndConfig();

  std::printf("sequential: %.1fx fewer pager calls, %.1fx fewer net round "
              "trips; random pager-call ratio %.3f\n",
              pager_reduction, net_reduction, rand_regression);
  std::printf("pipelined: depth4 %.1fx, depth16 %.1fx over depth1 on the "
              "lossy link\n",
              depth4_speedup, depth16_speedup);

  std::string path = report.Write();
  std::printf("wrote %s\n", path.empty() ? "(write failed!)" : path.c_str());

  bool ok = true;
  auto check = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ok = false;
    }
  };
  check(!path.empty(), "BENCH_seqio.json written");
  check(seq_off.identical && seq_on.identical && rand_off.identical &&
            rand_on.identical,
        "all reads byte-identical to the seeded file");
  check(pager_reduction >= 5.0,
        "sequential pager calls reduced >=5x by clustering");
  check(net_reduction >= 3.0,
        "sequential net round trips reduced >=3x by kPageInRange");
  check(rand_regression <= 1.05,
        "random-access pager calls regress <5% with clustering on");
  check(seq_on.read_ahead_hits > 0, "prefetched pages served demand hits");
  check(depth1.identical && depth4.identical && depth16.identical,
        "pipelined reads byte-identical to the seeded file");
  check(depth16_speedup >= 2.0,
        "window 16 >=2x throughput over window 1 on the lossy link");

  // Every named op the bench pushed over the wire must have left a
  // non-empty server-side latency histogram — the same per-op telemetry
  // springfs_stat scrapes with kGetStats. Callback frames (cb_*) are
  // served by the client, not a DfsServer, so they carry no histogram.
  metrics::Registry::Snapshot telemetry = metrics::Registry::Global().Collect();
  size_t ops_seen = 0;
  for (const auto& [op, calls] : WireOps()) {
    if (op.rfind("cb_", 0) == 0 || op.rfind("type", 0) == 0) {
      continue;
    }
    ++ops_seen;
    // Retransmits and drops make server-side arrivals differ from client
    // call counts, so assert presence, not an exact tally.
    (void)calls;
    auto hist = telemetry.histograms.find("dfs/op/" + op + ".latency_ns");
    bool populated =
        hist != telemetry.histograms.end() && hist->second.count > 0;
    check(populated,
          ("per-op latency histogram populated for dfs/op/" + op).c_str());
  }
  check(ops_seen > 0, "at least one named op crossed the wire");
  return ok ? 0 : 1;
}
