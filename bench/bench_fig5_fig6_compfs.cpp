// Figures 5 and 6 — COMPFS stacked on SFS (paper section 4.2.1).
//
// Reproduces the two design points the figures contrast:
//   Figure 5 (non-coherent): COMPFS accesses file_SFS through the file
//     interface; mappings of file_COMP and file_SFS are NOT coherent.
//   Figure 6 (coherent): COMPFS acts as a cache manager for file_SFS
//     (the C3-P3 connection); all mappings stay coherent.
// Plus the motivation: "save disk space by compressing all data".
//
// Series reported: storage ratio by content type; read/write throughput
// through COMPFS vs. plain SFS; the incremental cost of Figure 6 mode.
//
// The coherence contrast and the savings are the exit code: it is non-zero
// unless, after a direct write to the underlying file, Figure 5 mode
// records no lower-layer invalidation callback and Figure 6 mode at least
// one, and unless zeros and repetitive text store at most 5% of their
// logical size, run-structured data at most 50% and random data, which
// COMPFS stores raw, at most 100%.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/layers/compfs/comp_layer.h"
#include "src/layers/sfs/sfs.h"
#include "src/vmm/vmm.h"
#include "src/support/rng.h"

using namespace springfs;
using bench::Measurement;
using bench::TimeOp;

namespace {

struct Setup {
  std::unique_ptr<MemBlockDevice> device;
  Sfs sfs;
  sp<CompLayer> compfs;
};

Setup MakeSetup(bool coherent) {
  Setup s;
  s.device = std::make_unique<MemBlockDevice>(ufs::kBlockSize, 32768);
  s.sfs = CreateSfs(s.device.get(), SfsOptions{}).take_value();
  CompLayerOptions options;
  options.coherent_lower = coherent;
  s.compfs = CompLayer::Create(Domain::Create("compfs"), options);
  s.compfs->StackOn(s.sfs.root).ToString();
  return s;
}

}  // namespace

int main() {
  Credentials creds = Credentials::System();
  constexpr size_t kFileSize = 32 * kPageSize;

  // --- storage savings by content type ---
  std::printf("COMPFS storage ratios (file size %zu KiB, lz77)\n",
              kFileSize / 1024);
  bench::PrintRule(64);
  std::printf("%-22s %12s %12s %8s\n", "content", "logical B", "stored B",
              "ratio");
  bench::PrintRule(64);
  Rng rng(42);
  struct ContentCase {
    const char* name;
    Buffer data;
    double max_stored_pct;  // the exit code's bound
  };
  std::string text;
  while (text.size() < kFileSize) {
    text += "the quick brown fox jumps over the lazy dog and compresses. ";
  }
  text.resize(kFileSize);
  ContentCase cases[] = {
      {"zeros", Buffer(kFileSize), 5.0},
      {"text (repetitive)", Buffer(text), 5.0},
      {"runs (compressible)", rng.CompressibleBuffer(kFileSize), 50.0},
      {"random (raw)", rng.RandomBuffer(kFileSize), 100.0},
  };
  bool ok = true;
  auto check = [&](bool holds, const char* claim) {
    if (!holds) {
      std::printf("FAIL: %s\n", claim);
      ok = false;
    }
  };
  for (auto& c : cases) {
    Setup s = MakeSetup(/*coherent=*/true);
    sp<File> file = s.compfs->CreateFile(*Name::Parse("f"), creds).take_value();
    file->Write(0, c.data.span()).take_value();
    file->SyncFile();
    uint64_t stored =
        ResolveAs<File>(s.sfs.root, "f", creds).take_value()->Stat()->size;
    double stored_pct = 100.0 * static_cast<double>(stored) /
                        static_cast<double>(c.data.size());
    std::printf("%-22s %12zu %12llu %7.1f%%\n", c.name, c.data.size(),
                static_cast<unsigned long long>(stored), stored_pct);
    check(stored_pct <= c.max_stored_pct,
          "content stored above its bound (5% for zeros and text, 50% "
          "for runs, 100% for random)");
  }
  bench::PrintRule(64);

  // --- operation cost: plain SFS vs COMPFS(fig5) vs COMPFS(fig6) ---
  std::printf("\n4KB operation cost through the stack (cached, us/op)\n");
  bench::PrintRule(78);
  std::printf("%-12s %14s %18s %18s\n", "op", "SFS", "COMPFS (Fig.5)",
              "COMPFS (Fig.6)");
  bench::PrintRule(78);

  Buffer page = rng.CompressibleBuffer(kPageSize);
  auto measure = [&](const sp<StackableFs>& fs) {
    sp<File> file = fs->CreateFile(*Name::Parse("bench"), creds).take_value();
    file->Write(0, page.span()).take_value();
    Measurement read = TimeOp(
        [&] { (void)*file->Read(0, page.mutable_span()); }, 3000);
    Measurement write =
        TimeOp([&] { (void)*file->Write(0, page.span()); }, 3000);
    return std::make_pair(read, write);
  };

  Setup plain_setup = MakeSetup(true);
  auto plain = measure(plain_setup.sfs.root);
  Setup fig5 = MakeSetup(/*coherent=*/false);
  auto comp5 = measure(fig5.compfs);
  Setup fig6 = MakeSetup(/*coherent=*/true);
  auto comp6 = measure(fig6.compfs);

  std::printf("%-12s %12.2fus %16.2fus %16.2fus\n", "4KB read",
              plain.first.mean_us, comp5.first.mean_us, comp6.first.mean_us);
  std::printf("%-12s %12.2fus %16.2fus %16.2fus\n", "4KB write",
              plain.second.mean_us, comp5.second.mean_us,
              comp6.second.mean_us);
  bench::PrintRule(78);
  std::printf("shape: COMPFS adds compression CPU on the write-back path; "
              "Fig.6 coherence costs\nlittle extra because callbacks only "
              "fire on actual sharing\n");

  // --- the coherence difference itself ---
  std::printf("\ncoherence demonstration (direct write to the underlying "
              "file):\n");
  uint64_t invalidations[2] = {};  // by Figure 6 mode
  for (bool coherent : {false, true}) {
    Setup s = MakeSetup(coherent);
    sp<File> file = s.compfs->CreateFile(*Name::Parse("c"), creds).take_value();
    Buffer data = rng.CompressibleBuffer(kPageSize);
    file->Write(0, data.span()).take_value();
    file->SyncFile();
    sp<Vmm> vmm = Vmm::Create(Domain::Create("n"), "vmm");
    sp<MappedRegion> region =
        vmm->Map(file, AccessRights::kReadOnly).take_value();
    Buffer probe(64);
    region->Read(0, probe.mutable_span());
    sp<File> under = ResolveAs<File>(s.sfs.root, "c", creds).take_value();
    Buffer junk(std::string("direct underlying write"));
    under->Write(0, junk.span()).take_value();
    invalidations[coherent] =
        metrics::StatValue(*s.compfs, "lower_invalidations");
    std::printf("  %s: %llu lower-layer invalidation callbacks\n",
                coherent ? "Fig.6 (coherent)    " : "Fig.5 (non-coherent)",
                static_cast<unsigned long long>(invalidations[coherent]));
  }
  check(invalidations[0] == 0,
        "Figure 5 mode must record no lower-layer invalidation callback");
  check(invalidations[1] >= 1,
        "Figure 6 mode must record a lower-layer invalidation callback");
  return ok ? 0 : 1;
}
