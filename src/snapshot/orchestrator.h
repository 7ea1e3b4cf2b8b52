// Target orchestration (paper Sec. III-B): one logical hardware device,
// potentially backed by several physical targets, with live state transfer
// between them at any point of the analysis.
//
// The orchestrator owns the "active target" notion: MMIO and Run() go to
// the active target; MoveTo(other) captures the live state on the current
// target, loads it into the destination, and switches routing. The classic
// use (paper): fast-forward long executions on the FPGA, then move to the
// simulator target when full traces are needed.
#pragma once

#include <memory>
#include <vector>

#include "bus/target.h"
#include "common/rng.h"
#include "common/status.h"
#include "sim/delta.h"

namespace hardsnap::snapshot {

class TargetOrchestrator {
 public:
  // Host-link traffic accounting for migrations (experiment E6): when the
  // destination already holds a previously shipped state, only the delta
  // blob (SerializeStateDelta) crosses the link instead of the full state.
  struct TransferStats {
    uint64_t transfers = 0;
    uint64_t full_bytes = 0;     // what full-state blobs would have cost
    uint64_t shipped_bytes = 0;  // what actually crossed the link
    uint64_t corrupt_blobs = 0;    // injected blob corruptions
    uint64_t blob_retries = 0;     // re-ships after a CRC quarantine
    uint64_t delta_fallbacks = 0;  // delta ships abandoned for a full ship
    uint64_t failovers = 0;        // FailOver() switches completed
  };

  // Deterministic fault injection on the serialized blobs a migration
  // ships (the snapshot-integrity soak). Every corruption is caught by
  // the blob CRC: the corrupt copy is quarantined and the ship retried
  // from the intact source state, up to max_ship_attempts; a delta ship
  // that keeps failing falls back to a full-state ship.
  struct MigrationFaults {
    double blob_corrupt_rate = 0.0;  // per-blob probability of one bit flip
    uint64_t seed = 0x6d696772ull;   // dedicated stream, like bus faults
    uint32_t max_ship_attempts = 3;
  };

  // The orchestrator does not own the targets; they must outlive it.
  // All targets must execute the same SoC design (interchangeable state).
  explicit TargetOrchestrator(std::vector<bus::HardwareTarget*> targets);

  bus::HardwareTarget& active() { return *targets_[active_]; }
  const bus::HardwareTarget& active() const { return *targets_[active_]; }
  size_t active_index() const { return active_; }
  size_t num_targets() const { return targets_.size(); }
  bus::HardwareTarget& target(size_t i) { return *targets_[i]; }

  // Live state migration. No-op if `index` is already active.
  //
  // Repeat migrations ship a delta against the state the destination last
  // held — but only after probing (HardwareTarget::StateHash) that the
  // destination still holds it. A destination driven behind the
  // orchestrator's back (direct target(i) access, a hardware reset) has
  // a diverged base; applying a delta to it would silently produce wrong
  // state, so such migrations fall back to a full-state ship.
  Status MoveTo(size_t index);

  // Forget the state last shipped to `index` (the delta base). Callers
  // that move a target's live state without going through MoveTo — e.g.
  // OrchestratedTarget::ResetHardware — invalidate the mirror so the next
  // migration does not even need the probe to know a full ship is due.
  void InvalidateMirror(size_t index);

  void SetMigrationFaults(const MigrationFaults& faults) {
    migration_ = faults;
    fault_rng_ = Rng(faults.seed);
  }

  // Target failover: abandon the active target (its link has been declared
  // dead by the health monitor) and switch to the first responsive standby,
  // re-provisioning it with the nearest intact state this orchestrator
  // holds for the dead target — the mirror from the last orchestrated
  // transfer — or, with no mirror, a power-on reset (the analysis then
  // re-runs its init path and re-captures fresh snapshots). Returns the
  // new active index; kUnavailable when no standby is responsive.
  Result<size_t> FailOver();

  // Find a target by kind (first match).
  Result<size_t> IndexOf(bus::TargetKind kind) const;

  // Total virtual time across all targets (they represent one device; the
  // device's timeline is the sum of whoever was executing it).
  Duration TotalTime() const;

  const TransferStats& transfer_stats() const { return transfer_stats_; }

 private:
  // One bounded-retry ship of `state` to target `index` — as `delta`
  // against the destination's mirror when non-null, else in full:
  // serialize, run the injector, deserialize (CRC verification), restore,
  // update the destination mirror. Corrupt blobs are quarantined and
  // re-shipped.
  Status Ship(size_t index, const sim::HardwareState& state,
              const sim::StateDelta* delta, uint64_t state_hash);
  std::vector<uint8_t> MaybeCorrupt(std::vector<uint8_t> blob);

  std::vector<bus::HardwareTarget*> targets_;
  size_t active_ = 0;
  // Per target: the architectural state it last held when the orchestrator
  // left it (the base a delta blob can be expressed against), plus its
  // cached content hash (compared against the destination's live hash
  // before a delta ship).
  std::vector<sim::HardwareState> last_shipped_;
  std::vector<uint64_t> last_shipped_hash_;
  std::vector<bool> has_shipped_;
  TransferStats transfer_stats_;
  MigrationFaults migration_;
  Rng fault_rng_{migration_.seed};
};

}  // namespace hardsnap::snapshot
