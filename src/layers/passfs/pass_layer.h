// PASSFS: a pass-through (identity-transform) layer.
//
// Useful for three things:
//   * stack-depth ablations (section 6.4 discusses when stacking is free:
//     same domain, caching on top, or a slow bottom device — PASSFS layers
//     of configurable placement let benches sweep depth × placement),
//   * operation tracing/monitoring (a watchdog-flavored use, section 5),
//   * fault injection between layers (exercise error propagation through a
//     stack).

#ifndef SPRINGFS_LAYERS_PASSFS_PASS_LAYER_H_
#define SPRINGFS_LAYERS_PASSFS_PASS_LAYER_H_

#include <atomic>

#include "src/layers/coherent/coherency_layer.h"

namespace springfs {

struct PassLayerCounters {
  uint64_t pages_decoded = 0;
  uint64_t pages_encoded = 0;
};

class PassLayer : public CoherencyLayer {
 public:
  // `transit_delay_ns` is charged on every page crossing the lower
  // boundary, modelling a costlier transformation.
  static sp<PassLayer> Create(sp<Domain> domain,
                              CoherencyLayerOptions options = {},
                              uint64_t transit_delay_ns = 0,
                              Clock* clock = &DefaultClock());

  const char* interface_name() const override { return "pass_layer"; }

  PassLayerCounters counters() const {
    return PassLayerCounters{pages_decoded_.load(), pages_encoded_.load()};
  }

  // When set, every page crossing the lower boundary fails with kIoError —
  // fault injection for error-propagation tests.
  void set_fail_transit(bool fail) { fail_transit_.store(fail); }

 protected:
  Status DecodeFromBelow(uint64_t file_id, Offset page_offset,
                         MutableByteSpan page) override;
  Status EncodeForBelow(uint64_t file_id, Offset page_offset,
                        MutableByteSpan page) override;
  std::string type_name() const override { return "passfs"; }

 private:
  PassLayer(sp<Domain> domain, CoherencyLayerOptions options,
            uint64_t transit_delay_ns, Clock* clock);

  // One page crossing the lower boundary, counted in `pages`.
  Status Transit(std::atomic<uint64_t>& pages);

  uint64_t transit_delay_ns_;
  Clock* transit_clock_;
  std::atomic<uint64_t> pages_decoded_{0};
  std::atomic<uint64_t> pages_encoded_{0};
  std::atomic<bool> fail_transit_{false};
};

}  // namespace springfs

#endif  // SPRINGFS_LAYERS_PASSFS_PASS_LAYER_H_
