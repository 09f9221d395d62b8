#include "src/layers/passfs/pass_layer.h"

namespace springfs {

sp<PassLayer> PassLayer::Create(sp<Domain> domain,
                                CoherencyLayerOptions options,
                                uint64_t transit_delay_ns, Clock* clock) {
  return sp<PassLayer>(
      new PassLayer(std::move(domain), options, transit_delay_ns, clock));
}

PassLayer::PassLayer(sp<Domain> domain, CoherencyLayerOptions options,
                     uint64_t transit_delay_ns, Clock* clock)
    : CoherencyLayer(std::move(domain), options, clock),
      transit_delay_ns_(transit_delay_ns), transit_clock_(clock) {}

Status PassLayer::DecodeFromBelow(uint64_t file_id, Offset page_offset,
                                  MutableByteSpan page) {
  (void)file_id;
  (void)page_offset;
  (void)page;
  return Transit(pages_decoded_);
}

Status PassLayer::EncodeForBelow(uint64_t file_id, Offset page_offset,
                                 MutableByteSpan page) {
  (void)file_id;
  (void)page_offset;
  (void)page;
  return Transit(pages_encoded_);
}

Status PassLayer::Transit(std::atomic<uint64_t>& pages) {
  if (fail_transit_.load()) {
    return ErrIoError("pass layer transit fault (injected)");
  }
  if (transit_delay_ns_ != 0) {
    transit_clock_->SleepNs(transit_delay_ns_);
  }
  pages.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

}  // namespace springfs
