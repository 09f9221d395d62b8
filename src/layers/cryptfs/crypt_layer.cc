#include "src/layers/cryptfs/crypt_layer.h"

namespace springfs {

sp<CryptLayer> CryptLayer::Create(sp<Domain> domain,
                                  const std::string& passphrase,
                                  CoherencyLayerOptions options,
                                  Clock* clock) {
  return sp<CryptLayer>(new CryptLayer(
      std::move(domain), XteaKey::FromPassphrase(passphrase), options, clock));
}

CryptLayer::CryptLayer(sp<Domain> domain, XteaKey key,
                       CoherencyLayerOptions options, Clock* clock)
    : CoherencyLayer(std::move(domain), options, clock), key_(key) {}

void CryptLayer::ApplyKeystream(uint64_t file_id, Offset page_offset,
                                MutableByteSpan page) const {
  // The keystream position is the page's byte offset. file_id is a
  // per-session identity and must NOT key the stream, or remounts would
  // decrypt with the wrong stream; a production design would tweak the key
  // with a stable per-file nonce stored in an extended attribute.
  (void)file_id;
  XteaCtrApply(key_, page_offset, page);
}

Status CryptLayer::DecodeFromBelow(uint64_t file_id, Offset page_offset,
                                   MutableByteSpan page) {
  ApplyKeystream(file_id, page_offset, page);
  return Status::Ok();
}

Status CryptLayer::EncodeForBelow(uint64_t file_id, Offset page_offset,
                                  MutableByteSpan page) {
  ApplyKeystream(file_id, page_offset, page);
  return Status::Ok();
}

}  // namespace springfs
