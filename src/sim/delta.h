// Chunked copy-on-write snapshot deltas (the hot-path layer under the
// snapshot store).
//
// A HardwareState is viewed as a set of chunk spaces: the flop vector is
// space 0, memory m is space 1+m, and each space is cut into chunks of
// kChunkWords 64-bit words (the last chunk of a space may be short).
// StateShape is that geometry, and the only place it is worked out: the
// Simulator's dirty tracking, the structural sharing of
// snapshot::SnapshotStore and the HSSD wire decoder all walk spaces and
// chunks through it, and StateShape::Check is the one test that a chunk
// fits. A StateDelta carries only the chunks that differ from some base
// state; every consumer validates the whole delta before it writes
// anything, so a rejected delta leaves its target untouched.
//
// kChunkWords trades tracking precision against per-chunk overhead. The
// peripheral corpus here has O(100) flops and small FIFOs, so chunks are
// deliberately small; blksnap-style block trackers use the same scheme at
// disk-page granularity.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace hardsnap::sim {

struct HardwareState;

inline constexpr uint32_t kChunkWords = 4;

// Number of chunks covering `words` words (the last chunk may be short).
inline uint32_t NumChunks(size_t words) {
  return static_cast<uint32_t>((words + kChunkWords - 1) / kChunkWords);
}

// One changed chunk: `space` 0 addresses the flop vector, 1+m memory m.
struct DeltaChunk {
  uint32_t space = 0;
  uint32_t index = 0;             // chunk index within the space
  std::vector<uint64_t> words;    // full chunk payload (tail chunks short)

  bool operator==(const DeltaChunk&) const = default;
};

// The words of chunk space `space` of a state (flops or one memory).
const std::vector<uint64_t>& Space(const HardwareState& st, uint32_t space);
std::vector<uint64_t>& Space(HardwareState& st, uint32_t space);

// The chunk geometry of a state: its flop count and memory depths.
struct StateShape {
  uint32_t num_flops = 0;
  std::vector<uint32_t> mem_depths;

  static StateShape Of(const HardwareState& st);
  // Whether `st` has exactly this flop count and these memory depths.
  bool Matches(const HardwareState& st) const;

  uint32_t num_spaces() const {
    return static_cast<uint32_t>(1 + mem_depths.size());
  }
  size_t SpaceWords(uint32_t space) const {
    return space == 0 ? num_flops : mem_depths[space - 1];
  }
  // Words in chunk `index` of `space`: kChunkWords, less for a short tail.
  size_t ChunkLen(uint32_t space, uint32_t index) const;
  // Position of chunk 0 of `space` when every space's chunks are laid out
  // in order (flop chunks first, then each memory's).
  size_t FirstChunk(uint32_t space) const;
  // kInvalidArgument unless `c` names a space and chunk of this shape and
  // carries exactly ChunkLen words.
  Status Check(const DeltaChunk& c) const;

  bool operator==(const StateShape&) const = default;
};

// The chunks by which a state differs from a base state, plus the shape
// the delta applies to (so mismatched applications fail loudly). Chunks
// are always kChunkWords wide.
struct StateDelta {
  uint64_t base_hash = 0;      // HashState() of the base; 0 = unchecked
  StateShape shape;
  std::vector<DeltaChunk> chunks;

  size_t PayloadWords() const;
  size_t PayloadBytes() const { return PayloadWords() * 8; }
  // Every chunk passes shape.Check.
  Status Check() const;
  // Check(), plus `base` has the delta's shape and, when base_hash is set,
  // that content hash.
  Status CheckBase(const HardwareState& base) const;

  bool operator==(const StateDelta&) const = default;
};

// Content hash of a full state (FNV-1a over flop and memory words).
uint64_t HashState(const HardwareState& state);

// Total 64-bit words in a state (flops + all memory words).
size_t StateWords(const HardwareState& state);

// Shape-only delta: no chunks (applying it to its base is a no-op). Used
// to express "revert to the sync point" to a DeltaSnapshotter target.
StateDelta EmptyDeltaFor(const HardwareState& shape);

// Every chunk of `state` (a delta against an unknown/absent base).
StateDelta FullDelta(const HardwareState& state);

// All chunks of `next` that differ from `base`. Shapes must match; the
// result's base_hash binds it to `base`.
Result<StateDelta> DiffStates(const HardwareState& base,
                              const HardwareState& next);

// Overwrite the delta's chunks in `state` after delta.CheckBase(*state);
// a rejected delta leaves `state` unchanged.
Status ApplyDeltaToState(HardwareState* state, const StateDelta& delta);

// Per-chunk dirty bitmap (one bit per chunk of one space).
class ChunkBitmap {
 public:
  void Resize(size_t words) {
    num_chunks_ = NumChunks(words);
    bits_.assign((num_chunks_ + 63) / 64, 0);
  }
  void MarkWord(size_t word) { Mark(word / kChunkWords); }
  void Mark(size_t chunk) { bits_[chunk >> 6] |= uint64_t{1} << (chunk & 63); }
  bool Test(size_t chunk) const {
    return (bits_[chunk >> 6] >> (chunk & 63)) & 1;
  }
  void ClearAll() { bits_.assign(bits_.size(), 0); }
  void MarkAll() {
    bits_.assign(bits_.size(), ~uint64_t{0});  // stray high bits are ignored
  }
  size_t num_chunks() const { return num_chunks_; }

 private:
  std::vector<uint64_t> bits_;
  size_t num_chunks_ = 0;
};

}  // namespace hardsnap::sim
