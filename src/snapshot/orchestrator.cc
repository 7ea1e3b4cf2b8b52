#include "snapshot/orchestrator.h"

#include "snapshot/snapshot.h"

namespace hardsnap::snapshot {

TargetOrchestrator::TargetOrchestrator(
    std::vector<bus::HardwareTarget*> targets)
    : targets_(std::move(targets)) {
  HS_CHECK_MSG(!targets_.empty(), "orchestrator needs at least one target");
  last_shipped_.resize(targets_.size());
  last_shipped_hash_.assign(targets_.size(), 0);
  has_shipped_.assign(targets_.size(), false);
}

namespace {

// The destination's side of one ship: verify and decode `blob`, then make
// `mirror` the state it carries (a delta is applied to `mirror` in place).
// A blob that fails to decode leaves `mirror` untouched.
Status ReceiveBlob(const std::vector<uint8_t>& blob, bool is_delta,
                   sim::HardwareState* mirror) {
  if (is_delta) {
    auto delta = DeserializeStateDelta(blob);
    if (!delta.ok()) return delta.status();
    return sim::ApplyDeltaToState(mirror, delta.value());
  }
  auto state = DeserializeState(blob);
  if (!state.ok()) return state.status();
  *mirror = std::move(state).value();
  return Status::Ok();
}

}  // namespace

std::vector<uint8_t> TargetOrchestrator::MaybeCorrupt(
    std::vector<uint8_t> blob) {
  if (migration_.blob_corrupt_rate > 0 && !blob.empty() &&
      fault_rng_.Chance(migration_.blob_corrupt_rate)) {
    ++transfer_stats_.corrupt_blobs;
    const uint64_t bit = fault_rng_.Below(blob.size() * 8);
    blob[bit / 8] ^= static_cast<uint8_t>(uint8_t{1} << (bit % 8));
  }
  return blob;
}

Status TargetOrchestrator::Ship(size_t index, const sim::HardwareState& state,
                                const sim::StateDelta* delta,
                                uint64_t state_hash) {
  Status last = Internal("Ship: no attempt ran");
  for (uint32_t attempt = 0; attempt < migration_.max_ship_attempts;
       ++attempt) {
    if (attempt > 0) ++transfer_stats_.blob_retries;
    const std::vector<uint8_t> blob = MaybeCorrupt(
        delta ? SerializeStateDelta(*delta) : SerializeState(state));
    transfer_stats_.shipped_bytes += blob.size();
    Status received = ReceiveBlob(blob, delta != nullptr,
                                  &last_shipped_[index]);
    if (!received.ok()) {
      // CRC (or structural validation) rejected the received copy: the
      // corrupt blob is quarantined, never restored. The source still
      // holds the intact state — re-serialize and re-send.
      last = received;
      if (IsTransientFailure(last.code())) continue;
      return last;
    }
    Status restored = targets_[index]->RestoreState(last_shipped_[index]);
    if (!restored.ok()) {
      // The destination may hold anything now; drop its delta base.
      InvalidateMirror(index);
      return restored;
    }
    last_shipped_hash_[index] = state_hash;
    has_shipped_[index] = true;
    return Status::Ok();
  }
  return last;
}

Status TargetOrchestrator::MoveTo(size_t index) {
  if (index >= targets_.size()) return OutOfRange("no such target");
  if (index == active_) return Status::Ok();
  if (!targets_[index]->responsive())
    return Unavailable("migration destination target is unresponsive");
  auto state = targets_[active_]->SaveState();
  if (!state.ok()) return state.status();
  const uint64_t state_hash = sim::HashState(state.value());

  ++transfer_stats_.transfers;
  // What a full-state blob would cost, computed from the geometry — no
  // point serializing O(state) bytes just to take their size.
  transfer_stats_.full_bytes += SerializedStateBytes(state.value());
  if (has_shipped_[index] &&
      sim::StateWords(last_shipped_[index]) ==
          sim::StateWords(state.value())) {
    // The mirror says the destination holds the state we last left it
    // with — but the destination may have been driven directly (via
    // target(i) or a hardware reset) since. Probe its live state hash;
    // only ship a delta when it provably still sits on the delta's base.
    auto dest_hash = targets_[index]->StateHash();
    if (dest_hash.ok() && dest_hash.value() == last_shipped_hash_[index]) {
      auto delta = sim::DiffStates(last_shipped_[index], state.value());
      if (delta.ok()) {
        Status shipped =
            Ship(index, state.value(), &delta.value(), state_hash);
        if (shipped.ok()) {
          last_shipped_[active_] = std::move(state).value();
          last_shipped_hash_[active_] = state_hash;
          has_shipped_[active_] = true;
          active_ = index;
          return Status::Ok();
        }
        if (!IsTransientFailure(shipped.code())) return shipped;
        // Every delta copy arrived corrupt: abandon the delta path and
        // fall back to shipping the (intact) full state below.
        ++transfer_stats_.delta_fallbacks;
      }
    }
  }
  HS_RETURN_IF_ERROR(Ship(index, state.value(), nullptr, state_hash));
  last_shipped_[active_] = std::move(state).value();
  last_shipped_hash_[active_] = state_hash;
  has_shipped_[active_] = true;
  active_ = index;
  return Status::Ok();
}

Result<size_t> TargetOrchestrator::FailOver() {
  const size_t dead = active_;
  size_t next = targets_.size();
  for (size_t i = 0; i < targets_.size(); ++i) {
    if (i == dead) continue;
    if (targets_[i]->responsive()) {
      next = i;
      break;
    }
  }
  if (next == targets_.size())
    return Unavailable("failover: no responsive standby target");
  // Re-provision the standby with the nearest intact state we hold for
  // the dead target: the mirror from the last orchestrated transfer. The
  // standby cannot be refreshed from the dead target itself (its link is
  // gone), so work since that transfer is lost — the analysis layer
  // replays it. With no mirror at all, power-on reset and start fresh.
  if (has_shipped_[dead]) {
    HS_RETURN_IF_ERROR(Ship(next, last_shipped_[dead], nullptr,
                            last_shipped_hash_[dead]));
  } else {
    HS_RETURN_IF_ERROR(targets_[next]->ResetHardware());
    InvalidateMirror(next);
  }
  InvalidateMirror(dead);
  ++transfer_stats_.failovers;
  active_ = next;
  return next;
}

void TargetOrchestrator::InvalidateMirror(size_t index) {
  if (index >= targets_.size()) return;
  has_shipped_[index] = false;
  last_shipped_hash_[index] = 0;
}

Result<size_t> TargetOrchestrator::IndexOf(bus::TargetKind kind) const {
  for (size_t i = 0; i < targets_.size(); ++i)
    if (targets_[i]->kind() == kind) return i;
  return NotFound("no target of requested kind");
}

Duration TargetOrchestrator::TotalTime() const {
  Duration total;
  for (const auto* t : targets_) total += t->clock().now();
  return total;
}

}  // namespace hardsnap::snapshot
