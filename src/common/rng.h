// Deterministic pseudo-random number generation.
//
// HardSnap analyses must be reproducible: a snapshot restored and re-run
// must behave identically, and CI failures must replay. All randomized
// components (searchers, workload generators, property tests) take an
// explicit Rng seeded by the caller — never a global generator.
//
// Parallel campaigns extend the contract to N workers: every worker owns
// its own Rng seeded with DeriveWorkerSeed(campaign_seed, worker_id), so
// a worker's decision sequence is independent of thread scheduling and
// any finding replays under a single-threaded run with the derived seed.
#pragma once

#include <cstdint>

#include "common/fnv.h"
#include "common/status.h"

namespace hardsnap {

// splitmix64 step: advances `*state` and returns the next output. Used to
// expand one user seed into unrelated generator lanes / worker streams.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Seed for campaign worker `worker_id` derived from the campaign seed.
// Distinct workers get unrelated streams; worker 0 does NOT collapse to
// the plain seed (all workers are treated identically).
inline uint64_t DeriveWorkerSeed(uint64_t seed, uint64_t worker_id) {
  uint64_t x = seed;
  (void)SplitMix64(&x);  // decorrelate from the raw seed
  x ^= SplitMix64(&x) + 0x9e3779b97f4a7c15ull * (worker_id + 1);
  return SplitMix64(&x);
}

// xoshiro256** — small, fast, high-quality; seeded via splitmix64 so that
// consecutive integer seeds give unrelated streams.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) {
    uint64_t x = seed;
    for (auto& lane : s_) lane = SplitMix64(&x);
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0 (bound == 0 would be a modulo
  // by zero — undefined behaviour — so it is a checked invariant).
  uint64_t Below(uint64_t bound) {
    HS_CHECK_MSG(bound > 0, "Rng::Below(0): empty range");
    // Rejection-free Lemire reduction is overkill here; modulo bias is
    // negligible for the bounds we use (<< 2^64).
    return Next() % bound;
  }

  // Uniform in [lo, hi] inclusive. Requires lo <= hi (a reversed range
  // would silently wrap hi - lo + 1 and sample garbage).
  uint64_t Range(uint64_t lo, uint64_t hi) {
    HS_CHECK_MSG(lo <= hi, "Rng::Range: lo > hi");
    const uint64_t span = hi - lo + 1;
    if (span == 0) return Next();  // full 64-bit range: hi-lo+1 wrapped
    return lo + Next() % span;
  }

  // Uniform `width`-bit value.
  uint64_t Bits(unsigned width) {
    return width >= 64 ? Next() : (Next() & ((uint64_t{1} << width) - 1));
  }

  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0) < p;
  }

  // Digest of the generator's current position in its stream (FNV-1a over
  // the xoshiro lanes). Two Rngs with equal digests produce identical
  // futures; campaign checkpoints store this so an exact resume can prove
  // the replayed worker reached the same stream position.
  uint64_t StateDigest() const {
    Fnv1a h;
    for (uint64_t lane : s_) h.Mix(lane);
    return h.digest();
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
};

}  // namespace hardsnap
