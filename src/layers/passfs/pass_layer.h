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

  PassLayerCounters counters() const;

  // When set, every page crossing the lower boundary fails with kIoError —
  // fault injection for error-propagation tests.
  void set_fail_transit(bool fail);

 protected:
  std::string type_name() const override { return "passfs"; }

 private:
  class Transit;  // the boundary transform, shared with the layer's files

  PassLayer(sp<Domain> domain, CoherencyLayerOptions options,
            sp<Transit> transit, Clock* clock);

  const sp<Transit> transit_;
};

}  // namespace springfs

#endif  // SPRINGFS_LAYERS_PASSFS_PASS_LAYER_H_
