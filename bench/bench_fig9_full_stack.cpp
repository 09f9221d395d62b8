// Figure 9 — the full walk-through: DFS stacked on COMPFS stacked on SFS.
//
// The paper traces a remote read request:
//   DFS page-in on P4 -> COMPFS page-ins on P2 -> SFS reads from disk ->
//   COMPFS uncompresses -> DFS ships the data to its client.
// This bench measures that path end to end, broken down by configuration
// (remote vs local, compressed vs plain), and verifies the "at any point
// the underlying data may be accessed through file_COMP or (uncompressed?)
// through file_SFS; all such accesses will be coherent" property under
// load. Exits non-zero unless every coherence round holds and, after
// SyncFs, the fsck-style checker finds the SFS device clean: this is the
// one paper bench whose SyncFile crosses DFS, COMPFS, SFS and UFS.

#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "src/layers/compfs/comp_layer.h"
#include "src/layers/dfs/dfs_client.h"
#include "src/layers/dfs/dfs_server.h"
#include "src/layers/sfs/sfs.h"
#include "src/vmm/vmm.h"
#include "src/support/rng.h"
#include "src/ufs/checker.h"

using namespace springfs;
using bench::Measurement;
using bench::TimeOp;
using dfs::DfsClient;
using dfs::DfsServer;

int main() {
  Credentials creds = Credentials::System();
  constexpr uint64_t kLatencyNs = 100'000;

  net::Network network(&DefaultClock(), kLatencyNs);
  sp<net::Node> server_node = network.AddNode("server");
  sp<net::Node> client_node = network.AddNode("client");

  // The Figure 9 stack.
  MemBlockDevice device(ufs::kBlockSize, 32768);
  Sfs sfs = CreateSfs(&device, SfsOptions{}).take_value();
  sp<CompLayer> compfs =
      CompLayer::Create(server_node->domain(), CompLayerOptions{});
  compfs->StackOn(sfs.root).ToString();
  sp<DfsServer> server =
      DfsServer::Create(server_node, &network, "dfs", compfs).take_value();
  sp<DfsClient> client =
      DfsClient::Mount(client_node, &network, "server", "dfs").take_value();
  std::printf("stack: %s\n", server->GetFsInfo()->type.c_str());

  Rng rng(2);
  Buffer content = rng.CompressibleBuffer(8 * kPageSize);
  sp<File> remote = client->CreateFile(*Name::Parse("f"), creds).take_value();
  remote->Write(0, content.span()).take_value();
  remote->SyncFile();

  Buffer out(kPageSize);
  bench::PrintRule(72);

  // Cold remote read: the full figure-9 path (drop all caches first).
  Measurement cold = TimeOp(
      [&] { (void)*remote->Read(0, out.mutable_span()); }, 300);
  std::printf("remote 4KB read (server-cached)  : %9.2f us/op\n",
              cold.mean_us);

  // Remote mapped read after the fault: served by the client VMM.
  sp<Vmm> client_vmm = Vmm::Create(client_node->domain(), "client-vmm");
  sp<MappedRegion> region =
      client_vmm->Map(remote, AccessRights::kReadOnly).take_value();
  region->Read(0, out.mutable_span());
  Measurement mapped = TimeOp([&] { region->Read(0, out.mutable_span()); },
                              10000);
  std::printf("remote mapped re-read            : %9.2f us/op\n",
              mapped.mean_us);

  // Local read through COMPFS (decompression, no network).
  sp<File> local = ResolveAs<File>(compfs, "f", creds).take_value();
  Measurement local_comp = TimeOp(
      [&] { (void)*local->Read(0, out.mutable_span()); }, 3000);
  std::printf("local read via COMPFS            : %9.2f us/op\n",
              local_comp.mean_us);

  // Local read of the raw compressed bytes through SFS.
  sp<File> raw = ResolveAs<File>(sfs.root, "f", creds).take_value();
  Measurement local_raw = TimeOp(
      [&] { (void)*raw->Read(0, out.mutable_span()); }, 3000);
  std::printf("local read of file_SFS (raw)     : %9.2f us/op\n",
              local_raw.mean_us);

  bench::PrintRule(72);

  // Coherence across all three access paths while a remote writer runs.
  std::printf("coherence sweep: remote mapped write -> local COMPFS read\n");
  sp<MappedRegion> writer =
      client_vmm->Map(remote, AccessRights::kReadWrite).take_value();
  bool coherent = true;
  for (int round = 0; round < 20; ++round) {
    std::string text = "round-" + std::to_string(round);
    Buffer data(text);
    writer->Write(0, data.span());
    Buffer check(text.size());
    local->Read(0, check.mutable_span()).take_value();
    if (check.ToString() != text) {
      coherent = false;
      std::printf("  INCOHERENT at round %d: got '%s'\n", round,
                  check.ToString().c_str());
      break;
    }
  }
  std::printf("  20 write/read rounds: %s\n",
              coherent ? "all coherent" : "FAILED");

  std::map<std::string, uint64_t> stats = metrics::CollectFrom(*server);
  std::printf("server: %llu remote page-ins, %llu callbacks; compfs: %llu "
              "decompressions\n",
              static_cast<unsigned long long>(stats["remote_page_ins"]),
              static_cast<unsigned long long>(stats["callbacks_sent"]),
              static_cast<unsigned long long>(
                  metrics::StatValue(*compfs, "blocks_decompressed")));
  std::printf("shape: remote ops pay network latency; mapped re-reads are "
              "local; COMPFS adds\ndecompression CPU; coherence holds across "
              "every access path\n");

  bool ok = true;
  auto check = [&](bool holds, const char* claim) {
    if (!holds) {
      std::printf("FAIL: %s\n", claim);
      ok = false;
    }
  };
  check(coherent, "every remote write must be visible to the local read");
  Status synced = sfs.root->SyncFs();
  check(synced.ok(), "SyncFs on the SFS root must succeed");
  Result<ufs::CheckReport> report = ufs::Checker(&device).Check();
  check(report.ok() && report->clean(),
        "after SyncFs the SFS device must check clean");
  if (report.ok()) {
    std::printf("fsck: %s\n", report->Summary().c_str());
  }
  return ok ? 0 : 1;
}
