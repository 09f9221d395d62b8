#include "src/layers/passfs/pass_layer.h"

namespace springfs {

// Counts each page crossing the lower boundary (and charges its delay),
// changing no byte.
class PassLayer::Transit : public PageTransform {
 public:
  Transit(uint64_t delay_ns, Clock* clock)
      : delay_ns_(delay_ns), clock_(clock) {}

  Status DecodeFromBelow(uint64_t, Offset, MutableByteSpan) override {
    return Cross(pages_decoded);
  }
  Status EncodeForBelow(uint64_t, Offset, MutableByteSpan) override {
    return Cross(pages_encoded);
  }

  std::atomic<uint64_t> pages_decoded{0};
  std::atomic<uint64_t> pages_encoded{0};
  std::atomic<bool> fail{false};

 private:
  // One page crossing the lower boundary, counted in `pages`.
  Status Cross(std::atomic<uint64_t>& pages) {
    if (fail.load()) {
      return ErrIoError("pass layer transit fault (injected)");
    }
    if (delay_ns_ != 0) {
      clock_->SleepNs(delay_ns_);
    }
    pages.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }

  uint64_t delay_ns_;
  Clock* clock_;
};

sp<PassLayer> PassLayer::Create(sp<Domain> domain,
                                CoherencyLayerOptions options,
                                uint64_t transit_delay_ns, Clock* clock) {
  return sp<PassLayer>(
      new PassLayer(std::move(domain), options,
                    std::make_shared<Transit>(transit_delay_ns, clock), clock));
}

PassLayer::PassLayer(sp<Domain> domain, CoherencyLayerOptions options,
                     sp<Transit> transit, Clock* clock)
    : CoherencyLayer(std::move(domain), options, clock, transit),
      transit_(std::move(transit)) {}

PassLayerCounters PassLayer::counters() const {
  return PassLayerCounters{transit_->pages_decoded.load(),
                           transit_->pages_encoded.load()};
}

void PassLayer::set_fail_transit(bool fail) { transit_->fail.store(fail); }

}  // namespace springfs
