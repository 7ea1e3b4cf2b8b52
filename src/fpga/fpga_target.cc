#include "fpga/fpga_target.h"

#include <utility>

namespace hardsnap::fpga {

using sim::HardwareState;

FpgaTarget::FpgaTarget(std::unique_ptr<scanchain::InstrumentedDesign> inst,
                       sim::Simulator fabric, FpgaTargetOptions options)
    : SocTarget("fpga", std::move(fabric), options.fabric_hz, options.channel,
                options.link),
      options_(options),
      inst_(std::move(inst)),
      scan_(&engine(), inst_->map) {
  sram_.resize(options_.sram_slots + 1);  // + the staging buffer
}

Result<std::unique_ptr<FpgaTarget>> FpgaTarget::Create(
    const rtl::Design& soc_design, FpgaTargetOptions options) {
  auto inst = scanchain::InsertScanChain(soc_design, options.scan);
  if (!inst.ok()) return inst.status();
  auto fabric = sim::Simulator::Create(inst.value().design);
  if (!fabric.ok()) return fabric.status();

  auto target = std::unique_ptr<FpgaTarget>(new FpgaTarget(
      std::make_unique<scanchain::InstrumentedDesign>(std::move(inst).value()),
      std::move(fabric).value(), options));
  for (const char* pin : {"scan_enable", "scan_in", "scan_hold"})
    HS_RETURN_IF_ERROR(target->engine().PokeInput(pin, 0));
  HS_RETURN_IF_ERROR(target->IdleSerialLine());
  return target;
}

Status FpgaTarget::ResetHardware() {
  return Bulk(Cycles(2), nullptr, [&] {
    HS_RETURN_IF_ERROR(engine().Reset());
    mirror_valid_ = false;  // live state moved without crossing the link
    return Status::Ok();
  });
}

Duration FpgaTarget::ScanPassCost() const {
  // One full scan pass at fabric speed, plus the controller command
  // exchange over USB3 (start + completion poll).
  return Cycles(scan_.PassCycles()) + options_.channel.CostOf(2);
}

Duration FpgaTarget::BulkTransferCost() const {
  return BulkDeltaCost((inst_->map.total_bits + 7) / 8 +
                       8ull * inst_->map.total_mem_words);  // 64-bit beats
}

Duration FpgaTarget::BulkDeltaCost(size_t payload_bytes) const {
  const double seconds =
      static_cast<double>(payload_bytes) / options_.bulk_bytes_per_sec;
  return Duration::Seconds(seconds) + options_.channel.per_transaction;
}

Duration FpgaTarget::ReadbackCost() const {
  const double seconds = static_cast<double>(options_.fabric_config_bits / 8) /
                         options_.readback_bytes_per_sec;
  return options_.readback_setup + Duration::Seconds(seconds);
}

Status FpgaTarget::SaveLiveToSlot(unsigned slot) {
  if (slot >= NumSlots()) return OutOfRange("no such SRAM slot");
  return ScanToSram(slot);
}

Status FpgaTarget::ScanToSram(unsigned index) {
  // The scan pass itself is on-fabric; what crosses the link is the
  // controller command exchange. The pass (and the SRAM write) only
  // happens if the command actually reaches the device.
  HS_RETURN_IF_ERROR(
      Bulk(ScanPassCost(), &bus::TargetStats::snapshot_time, [&]() -> Status {
        auto state = scan_.Save();
        if (!state.ok()) return state.status();
        sram_[index] =
            std::make_unique<HardwareState>(std::move(state).value());
        return Status::Ok();
      }));
  ++stats_.snapshots_saved;
  return Status::Ok();
}

Status FpgaTarget::RestoreLiveFromSlot(unsigned slot) {
  if (slot >= NumSlots()) return OutOfRange("no such SRAM slot");
  return ScanFromSram(slot);
}

Status FpgaTarget::ScanFromSram(unsigned index) {
  if (!sram_[index]) return FailedPrecondition("SRAM slot is empty");
  HS_RETURN_IF_ERROR(
      Bulk(ScanPassCost(), &bus::TargetStats::snapshot_time, [&]() -> Status {
        HS_RETURN_IF_ERROR(scan_.Restore(*sram_[index]));
        mirror_valid_ = false;  // on-fabric load: host never saw these bits
        return Status::Ok();
      }));
  ++stats_.snapshots_restored;
  return Status::Ok();
}

Result<HardwareState> FpgaTarget::SaveState() {
  // Scan into the staging buffer, then download it over USB3.
  HS_RETURN_IF_ERROR(ScanToSram(staging()));
  const HardwareState& state = *sram_[staging()];
  HS_RETURN_IF_ERROR(Bulk(BulkTransferCost(), &bus::TargetStats::snapshot_time,
                          [] { return Status::Ok(); }));
  stats_.snapshot_bytes_copied += sim::StateWords(state) * 8;
  mirror_ = state;
  mirror_valid_ = true;  // full download is a sync point for the delta path
  return state;
}

Status FpgaTarget::RestoreState(const HardwareState& state) {
  // The staging buffer only takes the new content once the upload
  // survives the link; the scan pass then loads it.
  HS_RETURN_IF_ERROR(
      Bulk(BulkTransferCost(), &bus::TargetStats::snapshot_time, [&] {
        sram_[staging()] = std::make_unique<HardwareState>(state);
        return Status::Ok();
      }));
  stats_.snapshot_bytes_copied += sim::StateWords(state) * 8;
  HS_RETURN_IF_ERROR(ScanFromSram(staging()));
  mirror_ = state;  // full upload is a sync point for the delta path
  mirror_valid_ = true;
  return Status::Ok();
}

Result<uint64_t> FpgaTarget::StateHash() {
  // Device-local integrity probe: the snapshot controller hashes the
  // state bits on-fabric (a non-destructive scan loop), so only the
  // 8-byte digest would cross the link — modeled as free.
  auto state = scan_.Save();
  if (!state.ok()) return state.status();
  return sim::HashState(state.value());
}

Result<sim::StateDelta> FpgaTarget::SaveStateDelta() {
  // The scan chain has no random access: extracting ANY state costs one
  // full pass at fabric speed (E1's linear-in-bits shape). The saving is
  // on the host link — only chunks that differ from the mirror cross it.
  auto state = scan_.Save();
  if (!state.ok()) return state.status();
  sim::StateDelta delta;
  if (mirror_valid_) {
    auto diff = sim::DiffStates(mirror_, state.value());
    if (!diff.ok()) return diff.status();
    delta = std::move(diff).value();
  } else {
    delta = sim::FullDelta(state.value());  // no base: ship everything
  }
  // The mirror (the host's view of the sync point) only advances once the
  // delta payload survives the link — a failed ship must not desync it.
  HS_RETURN_IF_ERROR(Bulk(ScanPassCost() + BulkDeltaCost(delta.PayloadBytes()),
                          &bus::TargetStats::snapshot_time, [&] {
                            mirror_ = std::move(state).value();
                            mirror_valid_ = true;
                            return Status::Ok();
                          }));
  ++stats_.snapshots_saved;
  stats_.snapshot_bytes_copied += delta.PayloadBytes();
  return delta;
}

Status FpgaTarget::RestoreStateDelta(const sim::StateDelta& delta) {
  if (!mirror_valid_)
    return FailedPrecondition(
        "fpga delta restore needs a sync point; do a full transfer first");
  HardwareState next = mirror_;
  HS_RETURN_IF_ERROR(sim::ApplyDeltaToState(&next, delta));
  // Writing the chain is still a full pass; the delta only shrank the
  // host->fabric upload.
  HS_RETURN_IF_ERROR(Bulk(ScanPassCost() + BulkDeltaCost(delta.PayloadBytes()),
                          &bus::TargetStats::snapshot_time, [&]() -> Status {
                            HS_RETURN_IF_ERROR(scan_.Restore(next));
                            mirror_ = std::move(next);
                            return Status::Ok();
                          }));
  ++stats_.snapshots_restored;
  stats_.snapshot_bytes_copied += delta.PayloadBytes();
  return Status::Ok();
}

Result<HardwareState> FpgaTarget::Readback() {
  if (!options_.readback_supported)
    return Unimplemented("this FPGA has no readback capability");
  // Readback captures the fabric flop/BRAM contents; functionally the
  // same bits the scan chain extracts, at full-device cost. The fabric
  // must be quiescent during the dump (the real feature freezes clocks).
  auto state = engine().DumpState();
  ++stats_.snapshots_saved;
  Charge(ReadbackCost(), &bus::TargetStats::snapshot_time);
  return state;
}

}  // namespace hardsnap::fpga
