// Figure 3 — implementation vs. administrative decisions: an arbitrary
// composition graph. fs1/fs2 are base file systems on storage devices; fs3
// (a compression layer) stacks on one of them; fs4 (a mirroring layer)
// stacks on TWO of them.
//
//        fs3 (compfs)      fs4 (mirrorfs)
//           |               /        \
//          fs1 (sfs)     fs1 (sfs)  fs2 (sfs)
//
// The bench builds exactly that graph and reports per-layer operation
// costs, the mirror's write fan-out, and read failover cost when fs1's
// device dies. Its exit code checks the mirror's counters: one fan-out
// per fs4 write, no replica write failure, no failover while both
// replicas are healthy, and exactly one failover per read once fs1 is
// dead, with every read returning the written bytes.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "src/blockdev/decorators.h"
#include "src/layers/compfs/comp_layer.h"
#include "src/layers/mirrorfs/mirror_layer.h"
#include "src/layers/sfs/sfs.h"
#include "src/support/rng.h"

using namespace springfs;
using bench::Measurement;
using bench::TimeOp;

int main() {
  Credentials creds = Credentials::System();
  bool ok = true;
  auto check = [&](bool holds, const char* claim) {
    if (!holds) {
      std::printf("FAIL: %s\n", claim);
      ok = false;
    }
  };

  // Two base file systems on two fault-injectable devices.
  FaultyBlockDevice* disks[2];
  std::unique_ptr<BlockDevice> owners[2];
  Sfs fs[2];
  for (int i = 0; i < 2; ++i) {
    disks[i] = new FaultyBlockDevice(
        std::make_unique<MemBlockDevice>(ufs::kBlockSize, 16384));
    owners[i].reset(disks[i]);
    fs[i] = CreateSfs(owners[i].get(), SfsOptions{}).take_value();
  }

  // fs3 = COMPFS on fs1; fs4 = MIRRORFS on fs1 + fs2.
  sp<CompLayer> fs3 = CompLayer::Create(Domain::Create("fs3"));
  fs3->StackOn(fs[0].root).ToString();
  sp<MirrorLayer> fs4 = MirrorLayer::Create(Domain::Create("fs4"));
  fs4->StackOn(fs[0].root).ToString();
  fs4->StackOn(fs[1].root).ToString();
  std::map<std::string, uint64_t> start = metrics::CollectFrom(*fs4);

  std::printf("Figure 3 composition graph\n");
  std::printf("  fs3: %s\n", fs3->GetFsInfo()->type.c_str());
  std::printf("  fs4: %s\n", fs4->GetFsInfo()->type.c_str());
  bench::PrintRule(72);

  Rng rng(5);
  Buffer page = rng.CompressibleBuffer(kPageSize);
  Buffer out(kPageSize);

  // Per-layer 4KB costs.
  struct Row {
    const char* name;
    sp<StackableFs> target;
  };
  Row rows[] = {
      {"fs1 (sfs)", fs[0].root},
      {"fs3 (compfs on fs1)", fs3},
      {"fs4 (mirror fs1+fs2)", fs4},
  };
  uint64_t fs4_writes = 0;
  std::printf("%-24s %14s %14s\n", "layer", "4KB write", "4KB read");
  bench::PrintRule(72);
  for (auto& row : rows) {
    std::string fname = std::string("bench_") + row.name[2];
    sp<File> file =
        row.target->CreateFile(Name::Single(fname), creds).take_value();
    file->Write(0, page.span()).take_value();
    uint64_t writes = 1;
    Measurement write = TimeOp(
        [&] {
          (void)*file->Write(0, page.span());
          ++writes;
        },
        2000);
    Measurement read =
        TimeOp([&] { (void)*file->Read(0, out.mutable_span()); }, 2000);
    std::printf("%-24s %12.2fus %12.2fus\n", row.name, write.mean_us,
                read.mean_us);
    if (row.target == fs4) {
      fs4_writes += writes;
    }
  }
  bench::PrintRule(72);

  // Mirror reads, each checked against the written page.
  bool bytes_ok = true;
  auto read_page = [&](File& file) {
    Result<size_t> n = file.Read(0, out.mutable_span());
    bytes_ok = bytes_ok && n.ok() && *n == kPageSize &&
               std::memcmp(out.data(), page.data(), kPageSize) == 0;
  };

  // Healthy: fs1 serves every read (from its cache).
  sp<File> ha = fs4->CreateFile(*Name::Parse("ha"), creds).take_value();
  ha->Write(0, page.span()).take_value();
  ++fs4_writes;
  check(fs4->SyncFs().ok(), "SyncFs on fs4 must succeed");
  Measurement healthy = TimeOp([&] { read_page(*ha); }, 2000);
  std::map<std::string, uint64_t> healthy_end = metrics::CollectFrom(*fs4);

  // Degraded: fs1's device dies. This file reached each replica through
  // its disk layer, below the cache fs4 reads through, so fs1 never cached
  // it: every read goes to the dead device, then fails over to fs2.
  for (int i = 0; i < 2; ++i) {
    sp<File> replica =
        fs[i].disk->CreateFile(*Name::Parse("cold"), creds).take_value();
    replica->Write(0, page.span()).take_value();
    check(fs[i].disk->SyncFs().ok(), "SyncFs on a replica must succeed");
  }
  sp<File> cold = ResolveAs<File>(fs4, "cold", creds).take_value();
  disks[0]->set_broken(true);
  uint64_t degraded_reads = 0;
  Measurement degraded = TimeOp(
      [&] {
        read_page(*cold);
        ++degraded_reads;
      },
      2000);
  disks[0]->set_broken(false);
  std::map<std::string, uint64_t> end = metrics::CollectFrom(*fs4);

  auto grew = [&](const std::map<std::string, uint64_t>& from,
                  const std::map<std::string, uint64_t>& to,
                  const char* name) { return to.at(name) - from.at(name); };
  uint64_t fanouts = grew(start, end, "write_fanouts");
  uint64_t write_failures = grew(start, end, "replica_write_failures");
  uint64_t healthy_failovers = grew(start, healthy_end, "reads_failover");
  uint64_t degraded_failovers = grew(healthy_end, end, "reads_failover");
  std::printf("mirror read, both replicas healthy : %9.2f us/op\n",
              healthy.mean_us);
  std::printf("mirror read, primary dead (failover): %8.2f us/op\n",
              degraded.mean_us);
  std::printf("mirror: %llu write fan-outs for %llu fs4 writes, %llu "
              "replica write failures\n",
              static_cast<unsigned long long>(fanouts),
              static_cast<unsigned long long>(fs4_writes),
              static_cast<unsigned long long>(write_failures));
  std::printf("mirror: %llu failover reads while healthy, %llu for %llu "
              "reads with fs1 dead\n",
              static_cast<unsigned long long>(healthy_failovers),
              static_cast<unsigned long long>(degraded_failovers),
              static_cast<unsigned long long>(degraded_reads));
  std::printf("shape: composition is free-form; the mirror doubles write "
              "work and survives a\ndead replica with a bounded failover "
              "penalty\n");

  check(fanouts == fs4_writes, "every fs4 write must fan out exactly once");
  check(write_failures == 0, "no replica write may fail");
  check(healthy_failovers == 0,
        "no read may fail over while both replicas are healthy");
  check(degraded_failovers == degraded_reads,
        "every read with fs1 dead must fail over exactly once");
  check(bytes_ok, "every mirror read must return the written bytes");
  return ok ? 0 : 1;
}
