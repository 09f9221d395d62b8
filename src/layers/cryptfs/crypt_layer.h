// CRYPTFS: an encryption layer (one of the paper's motivating extensions,
// section 1: "compression, replication, encryption, distribution, and
// extended file attributes").
//
// The layer is a coherency layer whose lower-boundary transform encrypts
// pages with XTEA in counter mode, keyed by a master passphrase and the
// page's position. Because CTR is an XOR stream, the transform is
// size-preserving and self-inverse, exactly what the CoherencyLayer
// transform hooks require. Clients above see plaintext; the underlying
// file system only ever stores ciphertext — including clients that open
// the *underlying* file directly, which read ciphertext (the paper's
// point that exposing underlying files is an administrative decision).

#ifndef SPRINGFS_LAYERS_CRYPTFS_CRYPT_LAYER_H_
#define SPRINGFS_LAYERS_CRYPTFS_CRYPT_LAYER_H_

#include "src/codec/codec.h"
#include "src/layers/coherent/coherency_layer.h"

namespace springfs {

class CryptLayer : public CoherencyLayer {
 public:
  static sp<CryptLayer> Create(sp<Domain> domain, const std::string& passphrase,
                               CoherencyLayerOptions options = {},
                               Clock* clock = &DefaultClock());

  const char* interface_name() const override { return "crypt_layer"; }

 protected:
  std::string type_name() const override { return "cryptfs"; }

 private:
  CryptLayer(sp<Domain> domain, XteaKey key, CoherencyLayerOptions options,
             Clock* clock);
};

}  // namespace springfs

#endif  // SPRINGFS_LAYERS_CRYPTFS_CRYPT_LAYER_H_
