// FNV-1a over 64-bit values (each Mix folds one whole value: xor, then
// multiply by the FNV prime). Every content hash, digest and fingerprint in
// the tree goes through this one mixer; their values are stored in
// checkpoints and sent on the wire, so it must never change.
#pragma once

#include <cstdint>

namespace hardsnap {

class Fnv1a {
 public:
  void Mix(uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ull;
  }
  uint64_t digest() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

}  // namespace hardsnap
