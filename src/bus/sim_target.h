// SimulatorTarget: the paper's Verilator-style software simulation target.
//
// Full visibility and controllability (Peek/Poke of any signal, VCD
// tracing), reached over a shared-memory channel. Snapshots use the
// CRIU process-checkpoint model: freeze the simulator process, flush
// pending I/O, dump the whole process image to storage. That makes the
// snapshot cost LARGE but essentially independent of the design size —
// the opposite trade-off of the FPGA scan chain, which is exactly the
// comparison experiment E1 reproduces.
#pragma once

#include <memory>

#include "bus/delta_support.h"
#include "bus/soc_target.h"
#include "common/status.h"
#include "rtl/ir.h"

namespace hardsnap::bus {

struct SimulatorTargetOptions {
  // Effective simulated-clock rate of the HDL simulator (virtual hardware
  // cycles per second of virtual time). Real Verilator-class simulators
  // reach a few MHz on peripheral-sized designs.
  double sim_clock_hz = 2e6;

  // CRIU process-checkpoint cost model: freeze + dump of the whole
  // simulator process. Dominated by the resident image, not the design.
  Duration criu_base = Duration::Millis(60);
  double criu_bytes_per_sec = 400e6;   // page dump bandwidth
  uint64_t process_image_bytes = 24ull << 20;  // simulator RSS baseline

  // Incremental checkpoint (CRIU pre-dump of dirty pages): the freeze is
  // short because only soft-dirty pages are walked, and the dump moves
  // only the delta payload.
  Duration criu_incremental_base = Duration::Millis(8);

  ChannelModel channel = SharedMemoryChannel();

  // Framed-transport configuration (fault injection, retry policy,
  // health monitor). Defaults to a clean link, where the framing layer
  // charges exactly the same virtual time as the raw channel.
  LinkConfig link;
};

class SimulatorTarget : public SocTarget, public DeltaSnapshotter {
 public:
  static Result<std::unique_ptr<SimulatorTarget>> Create(
      const rtl::Design& soc_design, SimulatorTargetOptions options = {});

  TargetKind kind() const override { return TargetKind::kSimulator; }
  Status ResetHardware() override;

  Result<sim::HardwareState> SaveState() override;
  Status RestoreState(const sim::HardwareState& state) override;
  Result<uint64_t> StateHash() override;

  // DeltaSnapshotter: incremental CRIU (soft-dirty pre-dump). The
  // simulator's own chunk tracker supplies the dirty set, so capture cost
  // is O(dirty chunks) on the host and the modeled checkpoint moves only
  // the delta payload.
  Result<sim::StateDelta> SaveStateDelta() override;
  Status RestoreStateDelta(const sim::StateDelta& delta) override;

  // Full-visibility extras (unique to this target; the paper's motivation
  // for transferring state FPGA -> simulator to obtain traces).
  sim::Simulator* simulator() { return &engine(); }
  const SimulatorTargetOptions& options() const { return options_; }

  // Modeled duration of one CRIU checkpoint or restore.
  Duration CriuCost() const;
  // Modeled duration of one incremental checkpoint moving `payload_bytes`.
  Duration CriuDeltaCost(size_t payload_bytes) const;

 private:
  SimulatorTarget(sim::Simulator sim, SimulatorTargetOptions options);

  SimulatorTargetOptions options_;
};

}  // namespace hardsnap::bus
