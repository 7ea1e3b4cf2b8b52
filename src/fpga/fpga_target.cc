#include "fpga/fpga_target.h"

namespace hardsnap::fpga {

using sim::HardwareState;

FpgaTarget::FpgaTarget(std::unique_ptr<scanchain::InstrumentedDesign> inst,
                       FpgaTargetOptions options)
    : options_(options),
      inst_(std::move(inst)),
      link_(options.channel, options.link) {
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
      options));
  target->fabric_ =
      std::make_unique<sim::Simulator>(std::move(fabric).value());
  target->driver_ = std::make_unique<bus::SocBusDriver>(target->fabric_.get());
  target->scan_ = std::make_unique<scanchain::ScanController>(
      target->fabric_.get(), target->inst_->map);
  HS_RETURN_IF_ERROR(target->fabric_->PokeInput("scan_enable", 0));
  HS_RETURN_IF_ERROR(target->fabric_->PokeInput("scan_in", 0));
  HS_RETURN_IF_ERROR(target->fabric_->PokeInput("scan_hold", 0));
  if (target->fabric_->design().FindSignal("uart_rx") != rtl::kInvalidId) {
    HS_RETURN_IF_ERROR(target->fabric_->PokeInput("uart_rx", 1));
  }
  return target;
}

Result<uint32_t> FpgaTarget::Read32(uint32_t addr) {
  // The USB3 round trip goes through the framed link (paying per attempt
  // under faults); the AXI bus cycle on the fabric is charged only once
  // the transaction actually lands.
  Duration link_cost;
  auto v = link_.Read(
      addr, [&] { return driver_->Read32(addr); }, &link_cost);
  clock_.Advance(link_cost);
  stats_.io_time += link_cost;
  SyncLinkStats();
  if (!v.ok()) return v.status();
  ++stats_.mmio_reads;
  const Duration dev = FabricCycles(1);
  clock_.Advance(dev);
  stats_.io_time += dev;
  return v;
}

Status FpgaTarget::Write32(uint32_t addr, uint32_t value) {
  Duration link_cost;
  Status s = link_.Write(
      addr, value, [&] { return driver_->Write32(addr, value); }, &link_cost);
  clock_.Advance(link_cost);
  stats_.io_time += link_cost;
  SyncLinkStats();
  HS_RETURN_IF_ERROR(s);
  ++stats_.mmio_writes;
  const Duration dev = FabricCycles(1);
  clock_.Advance(dev);
  stats_.io_time += dev;
  return Status::Ok();
}

Status FpgaTarget::Run(uint64_t cycles) {
  Duration cost;
  Status s = link_.Bulk(
      FabricCycles(cycles),
      [&] {
        fabric_->Tick(static_cast<unsigned>(cycles));
        return Status::Ok();
      },
      &cost);
  clock_.Advance(cost);
  stats_.run_time += cost;
  SyncLinkStats();
  HS_RETURN_IF_ERROR(s);
  stats_.cycles_run += cycles;
  return Status::Ok();
}

Status FpgaTarget::ResetHardware() {
  Duration cost;
  Status s = link_.Bulk(
      FabricCycles(2),
      [&] {
        HS_RETURN_IF_ERROR(fabric_->Reset());
        mirror_valid_ = false;  // live state moved without crossing the link
        return Status::Ok();
      },
      &cost);
  clock_.Advance(cost);
  SyncLinkStats();
  return s;
}

Duration FpgaTarget::ScanPassCost() const {
  // One full scan pass at fabric speed, plus the controller command
  // exchange over USB3 (start + completion poll).
  return FabricCycles(scan_->PassCycles()) + options_.channel.CostOf(2);
}

Duration FpgaTarget::BulkTransferCost() const {
  const uint64_t bytes =
      (inst_->map.total_bits + 7) / 8 +
      8ull * inst_->map.total_mem_words;  // words stream as 64-bit beats
  const double seconds =
      static_cast<double>(bytes) / options_.bulk_bytes_per_sec;
  return Duration::Seconds(seconds) + options_.channel.per_transaction;
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

Status FpgaTarget::SaveToSlot(unsigned slot) {
  if (slot >= num_slots()) return OutOfRange("no such SRAM slot");
  return ScanToSram(slot);
}

Status FpgaTarget::ScanToSram(unsigned index) {
  // The scan pass itself is on-fabric; what crosses the link is the
  // controller command exchange. The pass (and the SRAM write) only
  // happens if the command actually reaches the device.
  Duration cost;
  Status s = link_.Bulk(
      ScanPassCost(),
      [&]() -> Status {
        auto state = scan_->Save();
        if (!state.ok()) return state.status();
        sram_[index] =
            std::make_unique<HardwareState>(std::move(state).value());
        return Status::Ok();
      },
      &cost);
  clock_.Advance(cost);
  stats_.snapshot_time += cost;
  SyncLinkStats();
  HS_RETURN_IF_ERROR(s);
  ++stats_.snapshots_saved;
  return Status::Ok();
}

Status FpgaTarget::RestoreFromSlot(unsigned slot) {
  if (slot >= num_slots()) return OutOfRange("no such SRAM slot");
  return ScanFromSram(slot);
}

Status FpgaTarget::ScanFromSram(unsigned index) {
  if (!sram_[index]) return FailedPrecondition("SRAM slot is empty");
  Duration cost;
  Status s = link_.Bulk(
      ScanPassCost(),
      [&]() -> Status {
        HS_RETURN_IF_ERROR(scan_->Restore(*sram_[index]));
        mirror_valid_ = false;  // on-fabric load: host never saw these bits
        return Status::Ok();
      },
      &cost);
  clock_.Advance(cost);
  stats_.snapshot_time += cost;
  SyncLinkStats();
  HS_RETURN_IF_ERROR(s);
  ++stats_.snapshots_restored;
  return Status::Ok();
}

Status FpgaTarget::SwapWithSlot(unsigned slot) {
  if (slot >= num_slots()) return OutOfRange("no such SRAM slot");
  if (!sram_[slot]) return FailedPrecondition("SRAM slot is empty");
  Duration cost;
  Status s = link_.Bulk(
      ScanPassCost(),
      [&]() -> Status {
        auto old = scan_->SaveRestore(*sram_[slot]);
        if (!old.ok()) return old.status();
        *sram_[slot] = std::move(old).value();
        mirror_valid_ = false;  // on-fabric swap: host never saw these bits
        return Status::Ok();
      },
      &cost);
  clock_.Advance(cost);
  stats_.snapshot_time += cost;
  SyncLinkStats();
  HS_RETURN_IF_ERROR(s);
  ++stats_.snapshots_saved;
  ++stats_.snapshots_restored;
  return Status::Ok();
}

bool FpgaTarget::SlotOccupied(unsigned slot) const {
  return slot < num_slots() && sram_[slot] != nullptr;
}

Result<HardwareState> FpgaTarget::DownloadSlot(unsigned slot) {
  if (slot >= num_slots()) return OutOfRange("no such SRAM slot");
  return Download(slot);
}

Result<HardwareState> FpgaTarget::Download(unsigned index) {
  if (!sram_[index]) return FailedPrecondition("SRAM slot is empty");
  Duration cost;
  Status s =
      link_.Bulk(BulkTransferCost(), [] { return Status::Ok(); }, &cost);
  clock_.Advance(cost);
  stats_.snapshot_time += cost;
  SyncLinkStats();
  if (!s.ok()) return s;
  stats_.snapshot_bytes_copied += sim::StateWords(*sram_[index]) * 8;
  return *sram_[index];
}

Status FpgaTarget::UploadSlot(unsigned slot, const HardwareState& state) {
  if (slot >= num_slots()) return OutOfRange("no such SRAM slot");
  return Upload(slot, state);
}

Status FpgaTarget::Upload(unsigned index, const HardwareState& state) {
  // The slot only takes the new content once the upload survives the link.
  Duration cost;
  Status s = link_.Bulk(
      BulkTransferCost(),
      [&] {
        sram_[index] = std::make_unique<HardwareState>(state);
        return Status::Ok();
      },
      &cost);
  clock_.Advance(cost);
  stats_.snapshot_time += cost;
  SyncLinkStats();
  HS_RETURN_IF_ERROR(s);
  stats_.snapshot_bytes_copied += sim::StateWords(state) * 8;
  return Status::Ok();
}

Result<HardwareState> FpgaTarget::SaveState() {
  HS_RETURN_IF_ERROR(ScanToSram(staging()));
  auto state = Download(staging());
  if (state.ok()) {
    mirror_ = state.value();
    mirror_valid_ = true;  // full download is a sync point for the delta path
  }
  return state;
}

Status FpgaTarget::RestoreState(const HardwareState& state) {
  HS_RETURN_IF_ERROR(Upload(staging(), state));
  HS_RETURN_IF_ERROR(ScanFromSram(staging()));
  mirror_ = state;  // full upload is a sync point for the delta path
  mirror_valid_ = true;
  return Status::Ok();
}

Result<uint64_t> FpgaTarget::StateHash() {
  // Device-local integrity probe: the snapshot controller hashes the
  // state bits on-fabric (a non-destructive scan loop), so only the
  // 8-byte digest would cross the link — modeled as free.
  auto state = scan_->Save();
  if (!state.ok()) return state.status();
  return sim::HashState(state.value());
}

Result<sim::StateDelta> FpgaTarget::SaveStateDelta() {
  // The scan chain has no random access: extracting ANY state costs one
  // full pass at fabric speed (E1's linear-in-bits shape). The saving is
  // on the host link — only chunks that differ from the mirror cross it.
  auto state = scan_->Save();
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
  Duration cost;
  Status s = link_.Bulk(
      ScanPassCost() + BulkDeltaCost(delta.PayloadBytes()),
      [&] {
        mirror_ = std::move(state).value();
        mirror_valid_ = true;
        return Status::Ok();
      },
      &cost);
  clock_.Advance(cost);
  stats_.snapshot_time += cost;
  SyncLinkStats();
  if (!s.ok()) return s;
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
  Duration cost;
  Status s = link_.Bulk(
      ScanPassCost() + BulkDeltaCost(delta.PayloadBytes()),
      [&]() -> Status {
        HS_RETURN_IF_ERROR(scan_->Restore(next));
        mirror_ = std::move(next);
        return Status::Ok();
      },
      &cost);
  clock_.Advance(cost);
  stats_.snapshot_time += cost;
  SyncLinkStats();
  HS_RETURN_IF_ERROR(s);
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
  auto state = fabric_->DumpState();
  ++stats_.snapshots_saved;
  const Duration cost = ReadbackCost();
  clock_.Advance(cost);
  stats_.snapshot_time += cost;
  return state;
}

}  // namespace hardsnap::fpga
