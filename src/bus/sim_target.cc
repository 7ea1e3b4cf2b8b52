#include "bus/sim_target.h"

#include <utility>

namespace hardsnap::bus {

SimulatorTarget::SimulatorTarget(sim::Simulator sim,
                                 SimulatorTargetOptions options)
    : SocTarget("simulator", std::move(sim), options.sim_clock_hz,
                options.channel, options.link),
      options_(options) {}

Result<std::unique_ptr<SimulatorTarget>> SimulatorTarget::Create(
    const rtl::Design& soc_design, SimulatorTargetOptions options) {
  auto sim = sim::Simulator::Create(soc_design);
  if (!sim.ok()) return sim.status();
  auto target = std::unique_ptr<SimulatorTarget>(
      new SimulatorTarget(std::move(sim).value(), options));
  HS_RETURN_IF_ERROR(target->IdleSerialLine());
  return target;
}

Duration SimulatorTarget::CriuCost() const {
  const double seconds = static_cast<double>(options_.process_image_bytes) /
                         options_.criu_bytes_per_sec;
  return options_.criu_base + Duration::Seconds(seconds);
}

Duration SimulatorTarget::CriuDeltaCost(size_t payload_bytes) const {
  const double seconds =
      static_cast<double>(payload_bytes) / options_.criu_bytes_per_sec;
  return options_.criu_incremental_base + Duration::Seconds(seconds);
}

Status SimulatorTarget::ResetHardware() {
  // A reboot of the simulated SoC still runs at simulation speed; charge a
  // couple of cycles (the expensive "reboot" in the naive-and-consistent
  // flow is re-running firmware init, which the VM accounts separately).
  return Bulk(Cycles(2), nullptr, [&] { return engine().Reset(); });
}

Result<sim::HardwareState> SimulatorTarget::SaveState() {
  // CRIU flow: flush pending I/O (bus is idle between transactions by
  // construction), freeze, dump. The returned architectural state is what
  // other targets can consume; the full process image is modeled by cost.
  // The checkpoint command + image hand-off crosses the link as one bulk
  // retry unit with the CRIU duration as its clean cost.
  sim::HardwareState st;
  HS_RETURN_IF_ERROR(Bulk(CriuCost(), &TargetStats::snapshot_time, [&] {
    st = engine().DumpState();
    // A full checkpoint is a sync point for the delta tracker: the
    // caller now holds exactly this state as a base for future deltas.
    engine().MarkSynced();
    return Status::Ok();
  }));
  ++stats_.snapshots_saved;
  stats_.snapshot_bytes_copied += sim::StateWords(st) * 8;
  return st;
}

Status SimulatorTarget::RestoreState(const sim::HardwareState& state) {
  HS_RETURN_IF_ERROR(Bulk(CriuCost(), &TargetStats::snapshot_time, [&] {
    return engine().RestoreState(state);  // sync point
  }));
  ++stats_.snapshots_restored;
  stats_.snapshot_bytes_copied += sim::StateWords(state) * 8;
  return Status::Ok();
}

Result<uint64_t> SimulatorTarget::StateHash() {
  // Device-local integrity probe: the simulator process hashes its own
  // architectural state. No checkpoint happens, so no CRIU cost.
  return sim::HashState(engine().DumpState());
}

Result<sim::StateDelta> SimulatorTarget::SaveStateDelta() {
  // The capture (and its sync point) commits device-side before the image
  // crosses the link; a failed hand-off models "device checkpointed but
  // the host lost the reply". RestoreDelta's base-hash check catches any
  // staleness that results, and callers fall back to a full restore.
  sim::StateDelta delta = engine().CaptureDelta();
  HS_RETURN_IF_ERROR(Bulk(CriuDeltaCost(delta.PayloadBytes()),
                          &TargetStats::snapshot_time,
                          [] { return Status::Ok(); }));
  ++stats_.snapshots_saved;
  stats_.snapshot_bytes_copied += delta.PayloadBytes();
  return delta;
}

Status SimulatorTarget::RestoreStateDelta(const sim::StateDelta& delta) {
  HS_RETURN_IF_ERROR(Bulk(CriuDeltaCost(delta.PayloadBytes()),
                          &TargetStats::snapshot_time,
                          [&] { return engine().RestoreDelta(delta); }));
  ++stats_.snapshots_restored;
  stats_.snapshot_bytes_copied += delta.PayloadBytes();
  return Status::Ok();
}

}  // namespace hardsnap::bus
