#include "src/layers/cryptfs/crypt_layer.h"

namespace springfs {
namespace {

// Both directions are the same XOR; the keystream position depends on the
// page so identical plaintext pages encrypt differently.
class Keystream : public PageTransform {
 public:
  explicit Keystream(XteaKey key) : key_(key) {}

  Status DecodeFromBelow(uint64_t file_id, Offset page_offset,
                         MutableByteSpan page) override {
    Apply(file_id, page_offset, page);
    return Status::Ok();
  }
  Status EncodeForBelow(uint64_t file_id, Offset page_offset,
                        MutableByteSpan page) override {
    Apply(file_id, page_offset, page);
    return Status::Ok();
  }

 private:
  void Apply(uint64_t file_id, Offset page_offset, MutableByteSpan page) const {
    // The keystream position is the page's byte offset. file_id is a
    // per-session identity and must NOT key the stream, or remounts would
    // decrypt with the wrong stream; a production design would tweak the
    // key with a stable per-file nonce stored in an extended attribute.
    (void)file_id;
    XteaCtrApply(key_, page_offset, page);
  }

  XteaKey key_;
};

}  // namespace

sp<CryptLayer> CryptLayer::Create(sp<Domain> domain,
                                  const std::string& passphrase,
                                  CoherencyLayerOptions options,
                                  Clock* clock) {
  return sp<CryptLayer>(new CryptLayer(
      std::move(domain), XteaKey::FromPassphrase(passphrase), options, clock));
}

CryptLayer::CryptLayer(sp<Domain> domain, XteaKey key,
                       CoherencyLayerOptions options, Clock* clock)
    : CoherencyLayer(std::move(domain), options, clock,
                     std::make_shared<Keystream>(key)) {}

}  // namespace springfs
