// The hardware half of HardSnap's S = S_sw ∪ S_hw (paper Sec. IV-B): the
// one snapshot fallback ladder, shared by the symbolic executor's context
// switch (Algorithm 1) and the fuzzer's per-input reset.
//
// Bound to one target, the tracker owns the capability lookup, the SRAM
// slot pool, the host snapshot store and the live base: the snapshot whose
// content equals the target's last sync point, which every delta is
// expressed against. The live base is cleared whenever the live state
// moves without the host seeing it (reset, slot restore); the next
// operation then does a full transfer.
#pragma once

#include <cstdint>
#include <vector>

#include "bus/delta_support.h"
#include "bus/slot_support.h"
#include "bus/target.h"
#include "common/status.h"
#include "snapshot/snapshot.h"

namespace hardsnap::snapshot {

// Where one hardware snapshot lives. An empty handle stands for power-on
// hardware (the paper's initial state has no snapshot); saving into an
// empty handle captures a new, non-shared snapshot.
struct HwHandle {
  SnapshotId snapshot = kNoSnapshot;  // host-side store entry
  int slot = -1;                      // device-resident SRAM slot
};

class HwStateTracker {
 public:
  // The rung that served a restore.
  enum class Rung : uint8_t { kSlot, kReset, kDelta, kRevert, kFull };

  // `target` must outlive the tracker. The slot and delta rungs are used
  // only when enabled here AND the target implements the capability.
  // `max_store_bytes` caps the host store (0 = unlimited).
  HwStateTracker(bus::HardwareTarget* target, bool use_device_slots,
                 bool use_delta_snapshots, uint64_t max_store_bytes = 0);

  // Live hardware -> `handle`: its SRAM slot (allocating one while any is
  // free), else a delta against the live base, else a full transfer.
  Status Save(HwHandle* handle);
  // `handle` -> live hardware: slot; power-on reset for an empty handle;
  // a delta from the live base (kRevert when the handle is the live base,
  // kDelta for a sibling); else a full transfer. Returns the rung that
  // served it.
  Result<Rung> Restore(const HwHandle& handle);
  // Frees the handle's slot and snapshot (a live base is retained instead)
  // and empties it.
  void Release(HwHandle* handle);

  const SnapshotStore& store() const { return store_; }

 private:
  // Moves the live base to `id`, dropping any retained base it leaves
  // behind.
  void Rebase(SnapshotId id);

  bus::HardwareTarget* target_;
  bus::SlotSnapshotter* slots_ = nullptr;
  bus::DeltaSnapshotter* delta_ = nullptr;
  std::vector<bool> slot_in_use_;
  SnapshotStore store_{0};
  SnapshotId live_base_ = kNoSnapshot;
  // A released live base, kept so the next sibling restore can still be
  // a delta (otherwise every BFS leaf wave would pay a full restore).
  // Dropped as soon as the live base moves elsewhere; chunks are
  // refcounted, so retention shares rather than copies.
  SnapshotId retained_base_ = kNoSnapshot;
};

}  // namespace hardsnap::snapshot
