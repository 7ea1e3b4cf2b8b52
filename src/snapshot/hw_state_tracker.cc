#include "snapshot/hw_state_tracker.h"

#include <algorithm>

namespace hardsnap::snapshot {

HwStateTracker::HwStateTracker(bus::HardwareTarget* target,
                               bool use_device_slots, bool use_delta_snapshots,
                               uint64_t max_store_bytes)
    : target_(target) {
  if (use_device_slots) {
    slots_ = dynamic_cast<bus::SlotSnapshotter*>(target);
    if (slots_) slot_in_use_.assign(slots_->NumSlots(), false);
  }
  if (use_delta_snapshots)
    delta_ = dynamic_cast<bus::DeltaSnapshotter*>(target);
  store_.SetMaxBytes(max_store_bytes);
}

void HwStateTracker::Rebase(SnapshotId id) {
  if (retained_base_ != kNoSnapshot && retained_base_ != id) {
    (void)store_.Drop(retained_base_);
    retained_base_ = kNoSnapshot;
  }
  live_base_ = id;
}

Status HwStateTracker::Save(HwHandle* handle) {
  // On-fabric SRAM slot (host storage takes over once they run out): the
  // scan into SRAM is non-destructive, so the delta base stays valid.
  if (slots_ && handle->slot < 0) {
    auto free = std::find(slot_in_use_.begin(), slot_in_use_.end(), false);
    if (free != slot_in_use_.end()) {
      *free = true;
      handle->slot = static_cast<int>(free - slot_in_use_.begin());
    }
  }
  if (handle->slot >= 0)
    return slots_->SaveLiveToSlot(static_cast<unsigned>(handle->slot));
  // Delta: ship only the chunks dirtied since the sync point and apply
  // them to the live base in the store.
  if (delta_ && live_base_ != kNoSnapshot) {
    auto d = delta_->SaveStateDelta();
    if (!d.ok()) return d.status();
    Status st;
    if (handle->snapshot == kNoSnapshot) {
      auto id = store_.PutDelta(live_base_, d.value());
      if (id.ok()) handle->snapshot = id.value();
      st = id.status();
    } else {
      st = store_.UpdateDelta(handle->snapshot, live_base_, d.value());
    }
    if (st.ok()) {
      Rebase(handle->snapshot);
      return Status::Ok();
    }
    // The byte cap is a hard limit, not a mismatch to route around.
    if (st.code() == StatusCode::kResourceExhausted) return st;
    // Base/delta mismatch: a full transfer re-establishes coherence.
  }
  auto live = target_->SaveState();
  if (!live.ok()) return live.status();
  if (handle->snapshot == kNoSnapshot) {
    HS_ASSIGN_OR_RETURN(handle->snapshot,
                        store_.Put(live.value()));
  } else {
    HS_RETURN_IF_ERROR(
        store_.Update(handle->snapshot, live.value()));
  }
  Rebase(handle->snapshot);
  return Status::Ok();
}

Result<HwStateTracker::Rung> HwStateTracker::Restore(const HwHandle& handle) {
  if (handle.slot >= 0) {
    // On-fabric load: the live state moves without crossing the host
    // link, so the host-side delta base is gone.
    Rebase(kNoSnapshot);
    HS_RETURN_IF_ERROR(
        slots_->RestoreLiveFromSlot(static_cast<unsigned>(handle.slot)));
    return Rung::kSlot;
  }
  if (handle.snapshot == kNoSnapshot) {
    Rebase(kNoSnapshot);
    HS_RETURN_IF_ERROR(target_->ResetHardware());
    return Rung::kReset;
  }
  if (delta_ && live_base_ != kNoSnapshot) {
    // Write only the chunks by which the handle differs from the sync
    // point; for the sync point itself that is the empty delta, which
    // reverts whatever the hardware dirtied since (O(dirty) on the
    // simulator target).
    auto d = store_.DeltaBetween(live_base_, handle.snapshot);
    if (d.ok() && delta_->RestoreStateDelta(d.value()).ok()) {
      const bool revert = live_base_ == handle.snapshot;
      Rebase(handle.snapshot);
      return revert ? Rung::kRevert : Rung::kDelta;
    }
  }
  auto snap = store_.Get(handle.snapshot);
  if (!snap.ok()) return snap.status();
  HS_RETURN_IF_ERROR(target_->RestoreState(snap.value().state));
  Rebase(handle.snapshot);
  return Rung::kFull;
}

void HwStateTracker::Release(HwHandle* handle) {
  if (handle->snapshot == live_base_ && live_base_ != kNoSnapshot) {
    // Its path is done, but its chunks still describe the target's sync
    // point: retain it for the next sibling delta.
    if (retained_base_ != kNoSnapshot && retained_base_ != live_base_)
      (void)store_.Drop(retained_base_);
    retained_base_ = live_base_;
  } else if (handle->snapshot != kNoSnapshot) {
    (void)store_.Drop(handle->snapshot);
  }
  if (handle->slot >= 0) slot_in_use_[handle->slot] = false;
  *handle = HwHandle{};
}

}  // namespace hardsnap::snapshot
