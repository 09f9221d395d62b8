// Section 6.4 ablation — "three basic ways of configuring stacked file
// system layers that will provide performance equivalent to non-stacked
// implementations":
//   1. the layers can reside in the same domain;
//   2. data/attribute caching in the top layer eliminates stacking
//      overhead on cache hits;
//   3. a slow bottom device makes higher-layer overheads insignificant.
//
// This bench sweeps stack depth (N pass-through layers on SFS) against
// domain placement (shared vs per-layer domains), caching (top layer
// caches vs write-through), and device speed (RAM vs spinning model), and
// prints 4KB read cost for each cell. The file is synced after its seed
// write, so an uncached read reaches the device instead of UFS's open
// transaction.
//
// The three ways are checked on counts, not timings (the timings are
// printed, not gated), taken around the timed reads after one untimed
// warm-up read; the bench exits 1 unless
//   1. every shared-domain row makes as many door crossings per read as
//      the unstacked (depth 0) row;
//   2. every cache=top row makes no device read and no page-in below the
//      top layer;
//   3. every uncached slow-device row makes at least one device read per
//      read, and its modeled door time (crossings times the door call's
//      cost) is at most 10% of its modeled disk time.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/blockdev/decorators.h"
#include "src/layers/passfs/pass_layer.h"
#include "src/layers/sfs/sfs.h"
#include "src/support/rng.h"

using namespace springfs;
using bench::Measurement;
using bench::TimeOp;

namespace {

struct Config {
  int depth;            // pass-through layers above SFS
  bool shared_domain;   // all layers in one domain?
  bool cache_top;       // top layer caches (others write through)
  bool slow_device;
};

// One configuration's timed reads: their timing, and per read the work
// the checks judge.
struct Row {
  Measurement timing;
  double crossings = 0;       // door crossings
  double device_reads = 0;
  double lower_page_ins = 0;  // the top layer's page-ins from below
  double disk_ns = 0;         // modeled device time
};

Row RunConfig(const Config& config) {
  Credentials creds = Credentials::System();
  std::unique_ptr<BlockDevice> device;
  LatencyBlockDevice* latency = nullptr;
  if (config.slow_device) {
    auto slow = std::make_unique<LatencyBlockDevice>(
        std::make_unique<MemBlockDevice>(ufs::kBlockSize, 8192),
        DiskLatencyModel{});
    latency = slow.get();
    device = std::move(slow);
  } else {
    device = std::make_unique<MemBlockDevice>(ufs::kBlockSize, 8192);
  }
  SfsOptions sfs_options;
  sfs_options.placement = config.shared_domain ? SfsPlacement::kOneDomain
                                               : SfsPlacement::kTwoDomains;
  sfs_options.coherency.cache_data = false;  // caching decided by the top
  sfs_options.coherency.cache_attrs = false;
  Sfs sfs = CreateSfs(device.get(), sfs_options).take_value();

  sp<Domain> shared = sfs.disk_domain;
  sp<StackableFs> top = sfs.root;
  sp<CoherencyLayer> top_layer = sfs.coherency;
  std::vector<sp<PassLayer>> layers;
  for (int i = 0; i < config.depth; ++i) {
    sp<Domain> domain = config.shared_domain
                            ? shared
                            : Domain::Create("pass" + std::to_string(i));
    CoherencyLayerOptions options;
    bool is_top = i == config.depth - 1;
    options.cache_data = config.cache_top && is_top;
    options.cache_attrs = config.cache_top && is_top;
    sp<PassLayer> layer = PassLayer::Create(domain, options);
    layer->StackOn(top).ToString();
    layers.push_back(layer);
    top = layer;
    top_layer = layer;
  }

  sp<File> file = top->CreateFile(*Name::Parse("bench"), creds).take_value();
  Rng rng(6);
  Buffer page = rng.RandomBuffer(kPageSize);
  file->Write(0, page.span()).take_value();
  file->SyncFile().ToString();
  Buffer out(kPageSize);
  (void)*file->Read(0, out.mutable_span());  // untimed warm-up read

  struct Counts {
    double crossings, device_reads, lower_page_ins, disk_ns;
  };
  auto count = [&] {
    metrics::Registry::Snapshot snap = metrics::Registry::Global().Collect();
    return Counts{
        static_cast<double>(snap.values["domain/cross_call.calls"]),
        static_cast<double>(device->stats().reads),
        static_cast<double>(metrics::StatValue(*top_layer, "lower_page_ins")),
        latency != nullptr ? static_cast<double>(latency->total_latency_ns())
                           : 0.0};
  };
  Counts before = count();
  uint64_t reads = 0;
  uint64_t iters = config.slow_device && !config.cache_top ? 100 : 3000;
  Row row;
  row.timing = TimeOp(
      [&] {
        (void)*file->Read(0, out.mutable_span());
        ++reads;
      },
      iters);
  Counts after = count();
  double n = static_cast<double>(reads);
  row.crossings = (after.crossings - before.crossings) / n;
  row.device_reads = (after.device_reads - before.device_reads) / n;
  row.lower_page_ins = (after.lower_page_ins - before.lower_page_ins) / n;
  row.disk_ns = (after.disk_ns - before.disk_ns) / n;
  return row;
}

}  // namespace

int main() {
  // The modeled cost of one door crossing: the default transport's.
  const auto* doors = dynamic_cast<const SpinTransport*>(
      Domain::DefaultTransport());
  if (doors == nullptr) {
    std::printf("FAIL: the default transport models no door cost\n");
    return 1;
  }
  double door_ns = static_cast<double>(doors->cross_call_ns());

  std::printf("Section 6.4 ablation: 4KB read (us/op) vs depth x placement "
              "x caching x device\n");
  bench::PrintRule(86);
  std::printf("%-6s %-9s %-7s | %12s %12s | %12s %9s %9s\n", "depth",
              "domains", "cache", "RAM device", "", "slow disk", "doors/rd",
              "dev rd/rd");
  bench::PrintRule(86);
  struct Done {
    Config config;
    Row row;
  };
  std::vector<Done> done;
  for (int depth : {0, 1, 2, 4}) {
    for (bool shared : {true, false}) {
      if (depth == 0 && !shared) {
        continue;  // no layers to place
      }
      for (bool cache_top : {true, false}) {
        if (depth == 0 && cache_top) {
          continue;  // nothing above SFS to cache
        }
        Config ram{depth, shared, cache_top, /*slow_device=*/false};
        Config slow{depth, shared, cache_top, /*slow_device=*/true};
        Row ram_row = RunConfig(ram);
        Row slow_row = RunConfig(slow);
        std::printf("%-6d %-9s %-7s | %10.2fus %12s | %10.2fus %9.2f %9.2f\n",
                    depth, shared ? "shared" : "per-layer",
                    cache_top ? "top" : "none", ram_row.timing.mean_us, "",
                    slow_row.timing.mean_us, slow_row.crossings,
                    slow_row.device_reads);
        done.push_back({ram, ram_row});
        done.push_back({slow, slow_row});
      }
    }
  }
  bench::PrintRule(86);
  std::printf("paper shape:\n"
              "  * per-layer domains cost ~a door call per layer per miss "
              "(visible on RAM device)\n"
              "  * caching at the top flattens depth entirely (rows with "
              "cache=top)\n"
              "  * the slow-disk column compresses all uncached configs "
              "toward the device time\n");

  bool ok = true;
  auto check = [&](bool holds, const Config& c, const char* claim) {
    if (!holds) {
      std::printf("FAIL: depth %d, %s domains, cache %s, %s device: %s\n",
                  c.depth, c.shared_domain ? "shared" : "per-layer",
                  c.cache_top ? "top" : "none",
                  c.slow_device ? "slow" : "RAM", claim);
      ok = false;
    }
  };
  for (const Done& d : done) {
    const Config& c = d.config;
    if (c.shared_domain) {
      for (const Done& unstacked : done) {
        if (unstacked.config.depth == 0 &&
            unstacked.config.slow_device == c.slow_device) {
          check(d.row.crossings == unstacked.row.crossings, c,
                "a shared domain must cost the unstacked door crossings");
        }
      }
    }
    if (c.cache_top) {
      check(d.row.device_reads == 0 && d.row.lower_page_ins == 0, c,
            "a caching top layer must serve every read itself");
    } else if (c.slow_device) {
      check(d.row.device_reads >= 1, c,
            "an uncached read must reach the device");
      check(d.row.crossings * door_ns <= 0.1 * d.row.disk_ns, c,
            "door time must be at most 10% of disk time");
    }
  }
  return ok ? 0 : 1;
}
