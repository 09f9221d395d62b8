// Section 6.2 — CFS, the attribute-caching interposer for remote files.
//
// Measures the paper's reason for CFS to exist: without it "all file
// operations go to the remote DFS"; with it, attribute reads are cached on
// the client node (invalidated by server callbacks) and data reads come
// from the local VMM. The bench sweeps the network latency and reports
// stat/read costs with and without CFS.
//
// The exit code is non-zero unless, at every latency, CFS observes another
// client's SetLength and its cached Stat/Read send no network message after
// the first access.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/layers/cfs/cfs_layer.h"
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

  std::printf("CFS attribute caching vs. plain remote access (us/op)\n");
  bench::PrintRule(86);
  std::printf("%-14s %12s %12s %12s %12s %10s\n", "latency (us)",
              "stat plain", "stat CFS", "read plain", "read CFS",
              "invals");
  bench::PrintRule(86);

  bool ok = true;
  for (uint64_t latency_us : {20, 100, 500}) {
    net::Network network(&DefaultClock(), latency_us * 1000);
    sp<net::Node> server_node = network.AddNode("server");
    sp<net::Node> client_node = network.AddNode("client");

    MemBlockDevice device(ufs::kBlockSize, 8192);
    Sfs sfs = CreateSfs(&device, SfsOptions{}).take_value();
    sp<DfsServer> server =
        DfsServer::Create(server_node, &network, "dfs", sfs.root)
            .take_value();
    sp<DfsClient> client =
        DfsClient::Mount(client_node, &network, "server", "dfs").take_value();
    sp<Vmm> vmm = Vmm::Create(client_node->domain(), "client-vmm");
    sp<CfsLayer> cfs = CfsLayer::Create(client_node->domain(), client, vmm);

    sp<File> plain = client->CreateFile(*Name::Parse("f"), creds).take_value();
    Rng rng(4);
    Buffer page = rng.RandomBuffer(kPageSize);
    plain->Write(0, page.span()).take_value();
    sp<File> cached = ResolveAs<File>(cfs, "f", creds).take_value();

    Buffer out(kPageSize);
    uint64_t iters = latency_us >= 500 ? 50 : 200;
    auto messages = [&] { return metrics::StatValue(network, "messages"); };
    Measurement stat_plain = TimeOp([&] { (void)*plain->Stat(); }, iters);
    (void)*cached->Stat();  // the first access may go to the wire
    uint64_t before = messages();
    Measurement stat_cfs = TimeOp([&] { (void)*cached->Stat(); }, 10000);
    uint64_t stat_cfs_msgs = messages() - before;
    Measurement read_plain =
        TimeOp([&] { (void)*plain->Read(0, out.mutable_span()); }, iters);
    (void)*cached->Read(0, out.mutable_span());
    before = messages();
    Measurement read_cfs =
        TimeOp([&] { (void)*cached->Read(0, out.mutable_span()); }, 10000);
    uint64_t read_cfs_msgs = messages() - before;

    // Exercise the invalidation path once: another client's change must be
    // observed through CFS.
    sp<File> other = client->CreateFile(*Name::Parse("g"), creds).ok()
                         ? *ResolveAs<File>(client, "f", creds)
                         : *ResolveAs<File>(client, "f", creds);
    other->SetLength(2 * kPageSize).ToString();
    uint64_t observed_size = cached->Stat()->size;
    bool fresh = observed_size == 2 * kPageSize;

    std::printf("%-14llu %12.2f %12.2f %12.2f %12.2f %7llu %s\n",
                static_cast<unsigned long long>(latency_us),
                stat_plain.mean_us, stat_cfs.mean_us, read_plain.mean_us,
                read_cfs.mean_us,
                static_cast<unsigned long long>(
                    metrics::StatValue(*cfs, "attr_invalidations")),
                fresh ? "" : "STALE!");
    if (!fresh) {
      std::printf("FAIL: CFS missed another client's SetLength at %llu us\n",
                  static_cast<unsigned long long>(latency_us));
      ok = false;
    }
    if (stat_cfs_msgs != 0 || read_cfs_msgs != 0) {
      std::printf("FAIL: cached CFS Stat/Read sent %llu/%llu network "
                  "messages at %llu us\n",
                  static_cast<unsigned long long>(stat_cfs_msgs),
                  static_cast<unsigned long long>(read_cfs_msgs),
                  static_cast<unsigned long long>(latency_us));
      ok = false;
    }
  }
  bench::PrintRule(86);
  std::printf("shape: plain remote stat/read scale with 2x latency; CFS "
              "makes them latency-\nindependent after the first touch, while "
              "callbacks keep the cache honest\n");
  return ok ? 0 : 1;
}
