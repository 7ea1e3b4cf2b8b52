// Optional target capability: incremental (delta) snapshots.
//
// A delta-capable target tracks which chunks of its architectural state
// changed since its last *sync point* and can ship / accept just those
// chunks (sim::StateDelta) instead of the full state. The symbolic
// executor and the fuzzer use it through snapshot::HwStateTracker, which
// discovers the capability and falls back to full SaveState/RestoreState
// when it is absent or when no usable base exists.
//
// Sync-point contract (mirrors sim::Simulator's): SaveStateDelta and
// RestoreStateDelta each end at a sync point, and the FULL SaveState /
// RestoreState calls are sync points too — so callers may mix full and
// delta operations freely as long as every delta they pass in is expressed
// against the state of the immediately preceding sync point. Device-slot
// restores and hardware resets move the live state without going through
// this interface; after those, callers must re-establish a base with a
// full operation (implementations invalidate their tracking as needed and
// may degrade SaveStateDelta to a full-payload delta).
#pragma once

#include "common/status.h"
#include "sim/delta.h"

namespace hardsnap::bus {

class DeltaSnapshotter {
 public:
  virtual ~DeltaSnapshotter() = default;

  // Capture the chunks changed since the last sync point as a delta
  // against that point's state; establishes a new sync point. Charges the
  // mechanism's incremental cost (pre-dump of dirty pages, bulk transfer
  // of the payload) to the virtual clock.
  virtual Result<sim::StateDelta> SaveStateDelta() = 0;

  // Restore the state `delta` away from the last sync point (an empty
  // delta reverts to the sync point itself); establishes a new sync point
  // at the restored state.
  virtual Status RestoreStateDelta(const sim::StateDelta& delta) = 0;
};

}  // namespace hardsnap::bus
