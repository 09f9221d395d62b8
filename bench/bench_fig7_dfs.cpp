// Figure 7 — DFS stacked on SFS.
//
// Reproduces the figure's three claims as measurements:
//   1. "Local binds to file_DFS are forwarded to the corresponding
//      file_SFS" — local mapped I/O costs the same as direct SFS access and
//      generates zero network messages / zero DFS page traffic.
//   2. Remote access goes through the DFS protocol — per-op cost scales
//      with the simulated network latency.
//   3. Remote and local caches are kept coherent through the P2-C2
//      connection — measured as the callback cost on a ping-pong workload.
//
// Claims 1 and 3 are the exit code: it is non-zero unless local mapped
// reads send no network message and no DFS page-in, the local and direct
// maps share one channel, and the ping-pong sends at least one callback
// per round.

#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "src/layers/dfs/dfs_client.h"
#include "src/layers/dfs/dfs_server.h"
#include "src/layers/sfs/sfs.h"
#include "src/vmm/vmm.h"
#include "src/support/rng.h"

using namespace springfs;
using bench::Measurement;
using bench::TimeOp;
using dfs::DfsClient;
using dfs::DfsServer;

int main() {
  Credentials creds = Credentials::System();
  constexpr uint64_t kLatencyNs = 100'000;  // 100us one-way

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
  file->SetLength(4 * kPageSize);
  Rng rng(1);
  Buffer page = rng.RandomBuffer(kPageSize);
  file->Write(0, page.span()).take_value();

  std::printf("Figure 7: DFS on SFS (one-way network latency %llu us)\n",
              static_cast<unsigned long long>(kLatencyNs / 1000));
  bench::PrintRule(72);

  // 1. Local mapped access: binds forwarded, DFS uninvolved.
  sp<Vmm> local_vmm = Vmm::Create(server_node->domain(), "local-vmm");
  sp<MappedRegion> local_map =
      local_vmm->Map(file, AccessRights::kReadWrite).take_value();
  Buffer out(kPageSize);
  local_map->Read(0, out.mutable_span());  // fault once
  uint64_t msgs_before = metrics::StatValue(network, "messages");
  uint64_t page_ins_before = metrics::StatValue(*server, "remote_page_ins");
  Measurement local_read = TimeOp(
      [&] { local_map->Read(0, out.mutable_span()); }, 10000);
  uint64_t local_msgs = metrics::StatValue(network, "messages") - msgs_before;
  uint64_t local_page_ins =
      metrics::StatValue(*server, "remote_page_ins") - page_ins_before;
  std::printf("local mapped 4KB read : %8.2f us/op, %llu network msgs, "
              "%llu DFS page-ins\n",
              local_read.mean_us, static_cast<unsigned long long>(local_msgs),
              static_cast<unsigned long long>(local_page_ins));

  // Direct SFS access for comparison.
  sp<File> direct = ResolveAs<File>(sfs.root, "f", creds).take_value();
  sp<MappedRegion> direct_map =
      local_vmm->Map(direct, AccessRights::kReadOnly).take_value();
  Measurement direct_read = TimeOp(
      [&] { direct_map->Read(0, out.mutable_span()); }, 10000);
  bool same_channel = local_map->channel_id() == direct_map->channel_id();
  std::printf("direct SFS 4KB read   : %8.2f us/op (same channel: %s)\n",
              direct_read.mean_us, same_channel ? "yes" : "NO!");

  // 2. Remote access pays the protocol.
  sp<File> remote = ResolveAs<File>(client, "f", creds).take_value();
  Measurement remote_read = TimeOp(
      [&] { (void)*remote->Read(0, out.mutable_span()); }, 200);
  Measurement remote_stat = TimeOp([&] { (void)*remote->Stat(); }, 200);
  std::printf("remote 4KB read       : %8.2f us/op (>= 2x latency = %llu us)\n",
              remote_read.mean_us,
              static_cast<unsigned long long>(2 * kLatencyNs / 1000));
  std::printf("remote fstat          : %8.2f us/op\n", remote_stat.mean_us);

  // Remote *mapped* access amortizes: after the fault, reads are local.
  sp<Vmm> remote_vmm = Vmm::Create(client_node->domain(), "remote-vmm");
  sp<MappedRegion> remote_map =
      remote_vmm->Map(remote, AccessRights::kReadOnly).take_value();
  remote_map->Read(0, out.mutable_span());  // fault across the network once
  Measurement remote_mapped = TimeOp(
      [&] { remote_map->Read(0, out.mutable_span()); }, 10000);
  std::printf("remote mapped re-read : %8.2f us/op (served by client VMM)\n",
              remote_mapped.mean_us);

  // 3. Coherency ping-pong: local writer vs remote reader.
  std::map<std::string, uint64_t> before = metrics::CollectFrom(*server);
  uint64_t rounds = 0;
  Measurement pingpong = TimeOp(
      [&] {
        ++rounds;
        (void)*direct->Write(0, page.span());       // local write
        remote_map->Read(0, out.mutable_span());    // remote re-read
      },
      100);
  std::map<std::string, uint64_t> stats = metrics::CollectFrom(*server);
  uint64_t callbacks = stats["callbacks_sent"] - before["callbacks_sent"];
  std::printf("coherent ping-pong    : %8.2f us/round (%llu callbacks, "
              "%llu lower flushes)\n",
              pingpong.mean_us, static_cast<unsigned long long>(callbacks),
              static_cast<unsigned long long>(stats["lower_flushes"] -
                                              before["lower_flushes"]));
  bench::PrintRule(72);
  std::printf("shape: local path unaffected by DFS; remote ops pay 2x "
              "latency; sharing costs\nper-transition callbacks only\n");

  bool ok = true;
  auto check = [&](bool holds, const char* claim) {
    if (!holds) {
      std::printf("FAIL: %s\n", claim);
      ok = false;
    }
  };
  check(local_msgs == 0 && local_page_ins == 0,
        "local mapped reads must send no network message and no DFS page-in");
  check(same_channel, "the local and direct maps must share one channel");
  check(callbacks >= rounds,
        "the ping-pong must send at least one callback per round");
  return ok ? 0 : 1;
}
