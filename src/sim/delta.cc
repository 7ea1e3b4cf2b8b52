#include "sim/delta.h"

#include <algorithm>

#include "common/fnv.h"
#include "sim/simulator.h"

namespace hardsnap::sim {

const std::vector<uint64_t>& Space(const HardwareState& st, uint32_t space) {
  return space == 0 ? st.flops : st.memories[space - 1];
}

std::vector<uint64_t>& Space(HardwareState& st, uint32_t space) {
  return space == 0 ? st.flops : st.memories[space - 1];
}

StateShape StateShape::Of(const HardwareState& st) {
  StateShape shape{static_cast<uint32_t>(st.flops.size()), {}};
  shape.mem_depths.reserve(st.memories.size());
  for (const auto& mem : st.memories)
    shape.mem_depths.push_back(static_cast<uint32_t>(mem.size()));
  return shape;
}

bool StateShape::Matches(const HardwareState& st) const {
  if (st.flops.size() != num_flops || st.memories.size() != mem_depths.size())
    return false;
  for (size_t m = 0; m < mem_depths.size(); ++m)
    if (st.memories[m].size() != mem_depths[m]) return false;
  return true;
}

size_t StateShape::ChunkLen(uint32_t space, uint32_t index) const {
  return std::min<size_t>(kChunkWords,
                          SpaceWords(space) - size_t{index} * kChunkWords);
}

size_t StateShape::FirstChunk(uint32_t space) const {
  size_t first = 0;
  for (uint32_t s = 0; s < space; ++s) first += NumChunks(SpaceWords(s));
  return first;
}

Status StateShape::Check(const DeltaChunk& c) const {
  if (c.space >= num_spaces())
    return InvalidArgument("delta chunk space out of range");
  if (size_t{c.index} * kChunkWords >= SpaceWords(c.space))
    return InvalidArgument("delta chunk index out of range");
  if (c.words.size() != ChunkLen(c.space, c.index))
    return InvalidArgument("delta chunk payload size mismatch");
  return Status::Ok();
}

size_t StateDelta::PayloadWords() const {
  size_t words = 0;
  for (const auto& c : chunks) words += c.words.size();
  return words;
}

Status StateDelta::Check() const {
  for (const auto& c : chunks) HS_RETURN_IF_ERROR(shape.Check(c));
  return Status::Ok();
}

Status StateDelta::CheckBase(const HardwareState& base) const {
  if (!shape.Matches(base))
    return InvalidArgument("delta does not match the base state's shape");
  if (base_hash != 0 && HashState(base) != base_hash)
    return InvalidArgument("delta applied to a state that is not its base");
  return Check();
}

uint64_t HashState(const HardwareState& state) {
  Fnv1a h;
  h.Mix(state.flops.size());
  for (uint64_t w : state.flops) h.Mix(w);
  h.Mix(state.memories.size());
  for (const auto& mem : state.memories) {
    h.Mix(mem.size());
    for (uint64_t w : mem) h.Mix(w);
  }
  return h.digest();
}

size_t StateWords(const HardwareState& state) {
  size_t words = state.flops.size();
  for (const auto& mem : state.memories) words += mem.size();
  return words;
}

StateDelta EmptyDeltaFor(const HardwareState& shape) {
  return {0, StateShape::Of(shape), {}};
}

namespace {

// The chunks of `next` that differ from `*base`; every chunk when `base`
// is null.
StateDelta ChunksOf(const HardwareState& next, const HardwareState* base) {
  StateDelta d = EmptyDeltaFor(next);
  for (uint32_t s = 0; s < d.shape.num_spaces(); ++s) {
    const auto& words = Space(next, s);
    for (uint32_t c = 0; c < NumChunks(words.size()); ++c) {
      const size_t start = size_t{c} * kChunkWords;
      const auto first = words.begin() + start;
      const auto last = first + d.shape.ChunkLen(s, c);
      if (base == nullptr ||
          !std::equal(first, last, Space(*base, s).begin() + start))
        d.chunks.push_back({s, c, {first, last}});
    }
  }
  return d;
}

}  // namespace

StateDelta FullDelta(const HardwareState& state) {
  return ChunksOf(state, nullptr);
}

Result<StateDelta> DiffStates(const HardwareState& base,
                              const HardwareState& next) {
  if (!StateShape::Of(next).Matches(base))
    return InvalidArgument("delta diff: state shapes differ");
  StateDelta d = ChunksOf(next, &base);
  d.base_hash = HashState(base);
  return d;
}

Status ApplyDeltaToState(HardwareState* state, const StateDelta& delta) {
  HS_RETURN_IF_ERROR(delta.CheckBase(*state));
  for (const auto& c : delta.chunks)
    std::copy(c.words.begin(), c.words.end(),
              Space(*state, c.space).begin() + size_t{c.index} * kChunkWords);
  return Status::Ok();
}

}  // namespace hardsnap::sim
