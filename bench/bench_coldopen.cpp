// Cold open+stat+read through the DFS stack: what the compound frame and
// client delegations buy (DESIGN.md §13).
//
// Each iteration performs the canonical cold-open sequence — resolve a
// path, Stat the file, read its first 4KB page — against a server 100us
// (one-way) across the wire, in three protocol configurations:
//
//   sync       every step is its own round trip: kLookup, kGetAttr, kRead.
//   compound   one kCompound frame carries the whole lookup -> open ->
//              getattr -> read program; the attr and data results prime the
//              close-to-open cache that serves the Stat and Read locally.
//   delegated  the first open granted a read delegation, so re-opens are
//              served entirely from the client: ZERO round trips.
//
// Emits BENCH_coldopen.json and self-checks the acceptance criteria from
// the compound/delegation work (compound needs at most half the net calls
// of sync; a delegated re-open touches the wire zero times; bytes always
// identical), exiting non-zero on violation.
//
// Last, a fourth client changes a file three delegated clients opened. The
// server recalls the three delegations in one callback round, so the
// change costs two round trips (its own and the round's) instead of one
// per holder. The bench exits non-zero unless the change made 3 callbacks
// in 1 round; it prints the change's latency but does not gate on it, and
// adds nothing to BENCH_coldopen.json.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/layers/dfs/dfs_client.h"
#include "src/layers/dfs/dfs_server.h"
#include "src/layers/sfs/sfs.h"
#include "src/support/rng.h"

using namespace springfs;
using bench::Better;
using bench::Figure;
using bench::Measurement;
using dfs::DfsClient;
using dfs::DfsServer;

namespace {

constexpr uint64_t kLatencyNs = 100'000;  // 100us one-way
constexpr uint64_t kIters = 200;

struct RunResult {
  double us_per_open = 0;
  uint64_t net_calls = 0;  // round trips during the measured loop
  uint64_t net_msgs = 0;   // frames on the wire (2 per call)
  uint64_t iters = 0;
  bool identical = false;  // every read byte-identical to the seeded file
};

// One iteration of the cold-open sequence; returns false on any error or
// byte mismatch.
bool OpenStatRead(const sp<DfsClient>& client, const Credentials& creds,
                  const Buffer& expect) {
  Result<sp<File>> file = ResolveAs<File>(client, "f", creds);
  if (!file.ok()) {
    return false;
  }
  Result<FileAttributes> attrs = (*file)->Stat();
  if (!attrs.ok() || attrs->size != expect.size()) {
    return false;
  }
  Buffer out(kPageSize);
  Result<size_t> n = (*file)->Read(0, out.mutable_span());
  return n.ok() && *n == kPageSize &&
         std::memcmp(out.data(), expect.data(), kPageSize) == 0;
}

RunResult RunConfig(bench::BenchReport& report, const std::string& name,
                    const dfs::DfsClientOptions& options,
                    bool warm_first_open) {
  // Not scaled down in quick mode: the whole bench takes about 0.2 s, and
  // a delegated re-open costs about 3 us of pure software, so a handful of
  // iterations would mostly time the cold first one (about 50% high). The
  // checked-in baseline is a full run, and its re-open speedup is a
  // higher-is-better value the gate holds to 25%.
  const uint64_t iters = kIters;
  Credentials creds = Credentials::System();
  net::Network network(&DefaultClock(), kLatencyNs);
  sp<net::Node> server_node = network.AddNode("server");
  sp<net::Node> client_node = network.AddNode("client");

  MemBlockDevice device(ufs::kBlockSize, 4096);
  Sfs sfs = CreateSfs(&device, SfsOptions{}).take_value();
  sp<DfsServer> server =
      DfsServer::Create(server_node, &network, "dfs", sfs.root).take_value();
  sp<DfsClient> client = DfsClient::Mount(client_node, &network, "server",
                                          "dfs", &DefaultClock(), options)
                             .take_value();

  sp<File> file = server->CreateFile(*Name::Parse("f"), creds).take_value();
  Rng rng(1);
  Buffer expect = rng.RandomBuffer(Offset{kPageSize});
  file->Write(0, expect.span()).take_value();

  // The delegated configuration measures RE-opens: the grant itself (one
  // compound round trip) happens before the clock starts.
  if (warm_first_open && !OpenStatRead(client, creds, expect)) {
    return RunResult{};
  }

  report.BeginConfig(name);
  uint64_t calls_before = metrics::StatValue(network, "calls");
  uint64_t msgs_before = metrics::StatValue(network, "messages");

  RunResult result;
  result.iters = iters;
  result.identical = true;
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    if (!OpenStatRead(client, creds, expect)) {
      result.identical = false;
    }
  }
  auto end = std::chrono::steady_clock::now();
  double wall_us =
      std::chrono::duration<double, std::micro>(end - start).count();
  result.us_per_open = wall_us / static_cast<double>(iters);
  result.net_calls = metrics::StatValue(network, "calls") - calls_before;
  result.net_msgs = metrics::StatValue(network, "messages") - msgs_before;

  Measurement per_open;
  per_open.mean_us = result.us_per_open;
  per_open.iterations = iters;
  report.Add("open+stat+read4k", per_open);
  report.EndConfig();

  std::printf("%-18s: %8.2f us/open, %6.2f net calls/open, "
              "%6.2f msgs/open, bytes %s\n",
              name.c_str(), result.us_per_open,
              static_cast<double>(result.net_calls) /
                  static_cast<double>(iters),
              static_cast<double>(result.net_msgs) /
                  static_cast<double>(iters),
              result.identical ? "identical" : "MISMATCH");
  return result;
}

// The change round described at the top. Returns false unless the change
// succeeded with exactly 3 callbacks in 1 round.
bool RunChangeRound() {
  Credentials creds = Credentials::System();
  net::Network network(&DefaultClock(), kLatencyNs);
  sp<net::Node> server_node = network.AddNode("server");
  MemBlockDevice device(ufs::kBlockSize, 4096);
  Sfs sfs = CreateSfs(&device, SfsOptions{}).take_value();
  sp<DfsServer> server =
      DfsServer::Create(server_node, &network, "dfs", sfs.root).take_value();
  Buffer page(kPageSize);
  server->CreateFile(*Name::Parse("f"), creds)
      .take_value()
      ->Write(0, page.span())
      .take_value();

  auto mount = [&](const std::string& node,
                   const dfs::DfsClientOptions& options) {
    return DfsClient::Mount(network.AddNode(node), &network, "server", "dfs",
                            &DefaultClock(), options)
        .take_value();
  };
  dfs::DfsClientOptions delegated;
  delegated.compound = true;
  delegated.delegations = true;
  std::vector<sp<DfsClient>> holders;
  for (int i = 1; i <= 3; ++i) {
    holders.push_back(mount("holder" + std::to_string(i), delegated));
    if (!ResolveAs<File>(holders.back(), "f", creds).ok()) {
      return false;
    }
  }
  sp<File> file =
      ResolveAs<File>(mount("changer", {}), "f", creds).take_value();

  uint64_t callbacks = metrics::StatValue(*server, "callbacks_sent");
  uint64_t rounds = metrics::StatValue(*server, "callback_rounds");
  auto start = std::chrono::steady_clock::now();
  bool wrote = file->Write(0, page.span()).ok();
  auto end = std::chrono::steady_clock::now();
  callbacks = metrics::StatValue(*server, "callbacks_sent") - callbacks;
  rounds = metrics::StatValue(*server, "callback_rounds") - rounds;
  std::printf("change under 3 delegations: %llu callbacks in %llu round(s), "
              "%.1f us (two round trips are %llu us of links)\n",
              static_cast<unsigned long long>(callbacks),
              static_cast<unsigned long long>(rounds),
              std::chrono::duration<double, std::micro>(end - start).count(),
              static_cast<unsigned long long>(4 * kLatencyNs / 1000));
  return wrote && callbacks == 3 && rounds == 1;
}

}  // namespace

int main() {
  bench::BenchReport report("coldopen");
  std::printf("Cold open (resolve + stat + 4KB read), DFS client -> network "
              "(%llu us one-way) -> DFS server -> SFS\n",
              static_cast<unsigned long long>(kLatencyNs / 1000));
  bench::PrintRule(96);

  dfs::DfsClientOptions sync_options;  // positional lookup-per-step protocol
  RunResult sync = RunConfig(report, "sync", sync_options,
                             /*warm_first_open=*/false);

  dfs::DfsClientOptions compound_options;
  compound_options.compound = true;
  RunResult compound = RunConfig(report, "compound", compound_options,
                                 /*warm_first_open=*/false);

  dfs::DfsClientOptions delegated_options;
  delegated_options.compound = true;
  delegated_options.delegations = true;
  RunResult delegated = RunConfig(report, "delegated_reopen",
                                  delegated_options,
                                  /*warm_first_open=*/true);
  bench::PrintRule(96);

  double sync_calls_per_open =
      static_cast<double>(sync.net_calls) /
      static_cast<double>(std::max<uint64_t>(sync.iters, 1));
  double compound_calls_per_open =
      static_cast<double>(compound.net_calls) /
      static_cast<double>(std::max<uint64_t>(compound.iters, 1));
  double open_speedup =
      sync.us_per_open / std::max(compound.us_per_open, 1.0);
  double reopen_speedup =
      sync.us_per_open / std::max(delegated.us_per_open, 1.0);

  report.BeginConfig("summary");
  report.Add("sync_net_calls_per_open",
             Figure(sync_calls_per_open, Better::kLower));
  report.Add("compound_net_calls_per_open",
             Figure(compound_calls_per_open, Better::kLower));
  report.Add("delegated_net_calls_per_open",
             Figure(static_cast<double>(delegated.net_calls), Better::kLower));
  report.Add("compound_open_speedup_x", Figure(open_speedup, Better::kHigher));
  report.Add("delegated_reopen_speedup_x",
             Figure(reopen_speedup, Better::kHigher));
  report.EndConfig();

  std::printf("compound: %.2f -> %.2f net calls/open (%.1fx faster); "
              "delegated re-open: %llu net calls total (%.1fx faster)\n",
              sync_calls_per_open, compound_calls_per_open, open_speedup,
              static_cast<unsigned long long>(delegated.net_calls),
              reopen_speedup);

  std::string path = report.Write();
  std::printf("wrote %s\n", path.empty() ? "(write failed!)" : path.c_str());

  bool ok = true;
  auto check = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ok = false;
    }
  };
  check(!path.empty(), "BENCH_coldopen.json written");
  check(sync.identical && compound.identical && delegated.identical,
        "every open+stat+read byte-identical to the seeded file");
  check(sync_calls_per_open >= 3.0,
        "sync cold open costs >=3 round trips (lookup, getattr, read)");
  check(compound_calls_per_open <= sync_calls_per_open / 2.0,
        "compound needs at most half the net calls of sync");
  check(delegated.net_calls == 0,
        "delegated re-opens touch the wire zero times");
  check(RunChangeRound(),
        "a change recalls 3 delegations with 3 callbacks in 1 round");
  return ok ? 0 : 1;
}
