// Optional target capability: on-device snapshot slots.
//
// The paper's FPGA snapshot controller stores snapshots in on-fabric SRAM
// "for performance reasons": a hardware context switch then never crosses
// the host link. Targets that can hold snapshots device-side implement
// this interface; the symbolic executor's snapshot::HwStateTracker
// discovers it and keeps per-state snapshots resident
// (ExecOptions::use_device_slots), falling back to host-side storage when
// slots run out.
#pragma once

#include "common/status.h"

namespace hardsnap::bus {

class SlotSnapshotter {
 public:
  virtual ~SlotSnapshotter() = default;

  // Number of device-resident snapshot slots.
  virtual unsigned NumSlots() const = 0;

  // Capture the live hardware state into `slot` (non-destructive).
  virtual Status SaveLiveToSlot(unsigned slot) = 0;

  // Load `slot` into the live hardware.
  virtual Status RestoreLiveFromSlot(unsigned slot) = 0;
};

}  // namespace hardsnap::bus
