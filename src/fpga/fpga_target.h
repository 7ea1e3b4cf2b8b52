// FpgaTarget: the paper's FPGA emulation target, modeled faithfully.
//
// Construction runs the real HardSnap toolchain path B (Fig. 3): the SoC
// RTL is instrumented with the scan chain (B.1), then "synthesized" — here,
// compiled into a netlist executed by the cycle-accurate engine, standing
// in for the bitstream (B.2). The crucial property is preserved by
// interface discipline: this class exposes ONLY what a real FPGA exposes —
//   * MMIO through the USB3 debugger (AXI master),
//   * the irq wires,
//   * the snapshot controller IP: scan-chain save/restore to on-fabric
//     SRAM slots, host upload/download of slots,
//   * optional vendor readback (full-fabric configuration dump).
// There is no Peek/Poke of internal signals and no tracing — to get those,
// transfer the state to the simulator target (experiment E6).
//
// Timing model: the fabric runs at `fabric_hz` (default 100 MHz). A scan
// save/restore is PassCycles() fabric cycles plus a USB3 command. Readback
// dumps the WHOLE fabric configuration (size-independent of the design),
// so it is slow regardless of peripheral complexity — matching the paper's
// scan-vs-readback comparison.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bus/channel.h"
#include "bus/delta_support.h"
#include "bus/link.h"
#include "bus/slot_support.h"
#include "bus/soc_driver.h"
#include "bus/target.h"
#include "common/status.h"
#include "rtl/ir.h"
#include "scanchain/scan_controller.h"
#include "scanchain/scan_pass.h"

namespace hardsnap::fpga {

struct FpgaTargetOptions {
  double fabric_hz = 100e6;
  unsigned sram_slots = 32;  // snapshot SRAM capacity (in snapshots)
  bus::ChannelModel channel = bus::Usb3Channel();

  // Host<->fabric bulk transfer bandwidth for snapshot upload/download.
  double bulk_bytes_per_sec = 200e6;

  // Vendor readback: dump of the full fabric configuration.
  bool readback_supported = true;
  uint64_t fabric_config_bits = 80ull << 20;  // whole-device bitstream
  double readback_bytes_per_sec = 100e6;
  Duration readback_setup = Duration::Millis(5);

  scanchain::ScanOptions scan;  // scope restriction, if any

  // Framed-transport configuration for the USB3 debugger link (fault
  // injection, retry policy, health monitor). Clean by default; the
  // framing layer then charges exactly the raw channel costs.
  bus::LinkConfig link;
};

class FpgaTarget : public bus::HardwareTarget,
                   public bus::SlotSnapshotter,
                   public bus::DeltaSnapshotter {
 public:
  // Instruments `soc_design` and loads it onto the emulated fabric.
  static Result<std::unique_ptr<FpgaTarget>> Create(
      const rtl::Design& soc_design, FpgaTargetOptions options = {});

  bus::TargetKind kind() const override { return bus::TargetKind::kFpga; }
  const std::string& name() const override { return name_; }

  Result<uint32_t> Read32(uint32_t addr) override;
  Status Write32(uint32_t addr, uint32_t value) override;
  Status Run(uint64_t cycles) override;
  uint32_t IrqVector() override { return driver_->IrqVector(); }
  Status ResetHardware() override;

  // Full host transfer: scan pass + USB3 bulk download/upload.
  Result<sim::HardwareState> SaveState() override;
  Status RestoreState(const sim::HardwareState& state) override;
  Result<uint64_t> StateHash() override;

  // bus::DeltaSnapshotter: the scan pass itself still reads/writes EVERY
  // state bit (a chain has no random access — E1's linear-in-bits latency
  // shape is a property of the mechanism and is preserved), but the host
  // keeps a mirror of the state at the last sync point, so only the
  // chunks that differ cross the USB3 link. Slot restores and hardware
  // resets bypass the mirror and invalidate it; the next SaveStateDelta
  // then degrades to a full-payload delta and RestoreStateDelta requires
  // a full operation first.
  Result<sim::StateDelta> SaveStateDelta() override;
  Status RestoreStateDelta(const sim::StateDelta& delta) override;

  bool responsive() const override { return link_.alive(); }

  const VirtualClock& clock() const override { return clock_; }
  const bus::TargetStats& stats() const override { return stats_; }

  bus::FramedLink* link() { return &link_; }

  // --- snapshot controller IP (on-fabric, fast path) ---------------------
  // Scan the live state into SRAM slot `slot` (previous content replaced).
  Status SaveToSlot(unsigned slot);
  // Load SRAM slot `slot` into the live registers/memories.
  Status RestoreFromSlot(unsigned slot);
  // Swap: load `slot` while capturing the outgoing state into it — a
  // single scan pass, the cheapest possible hardware context switch.
  Status SwapWithSlot(unsigned slot);
  unsigned num_slots() const { return options_.sram_slots; }
  bool SlotOccupied(unsigned slot) const;

  // bus::SlotSnapshotter (device-resident snapshots for the executor).
  unsigned NumSlots() const override { return options_.sram_slots; }
  Status SaveLiveToSlot(unsigned slot) override { return SaveToSlot(slot); }
  Status RestoreLiveFromSlot(unsigned slot) override {
    return RestoreFromSlot(slot);
  }

  // Download / upload a slot over USB3 (bulk cost).
  Result<sim::HardwareState> DownloadSlot(unsigned slot);
  Status UploadSlot(unsigned slot, const sim::HardwareState& state);

  // --- vendor readback -----------------------------------------------------
  // Full-fabric configuration dump; recovers the architectural state but
  // costs the whole-device readback time regardless of design size.
  Result<sim::HardwareState> Readback();

  // --- introspection metadata (not state access) --------------------------
  const scanchain::ScanChainMap& scan_map() const { return inst_->map; }
  Duration ScanPassCost() const;
  Duration ReadbackCost() const;
  Duration BulkTransferCost() const;
  // Bulk USB3 cost of moving just `payload_bytes` of delta chunks.
  Duration BulkDeltaCost(size_t payload_bytes) const;

 private:
  FpgaTarget(std::unique_ptr<scanchain::InstrumentedDesign> inst,
             FpgaTargetOptions options);

  Duration FabricCycles(uint64_t cycles) const {
    return PeriodOfHz(options_.fabric_hz) * static_cast<int64_t>(cycles);
  }
  void SyncLinkStats() { stats_.link = link_.stats(); }

  std::string name_ = "fpga";
  FpgaTargetOptions options_;
  std::unique_ptr<scanchain::InstrumentedDesign> inst_;
  std::unique_ptr<sim::Simulator> fabric_;  // private: bitstream execution
  std::unique_ptr<bus::SocBusDriver> driver_;
  std::unique_ptr<scanchain::ScanController> scan_;
  bus::FramedLink link_;
  // SRAM slots [0, sram_slots), then one private staging buffer that
  // full host transfers pass through, so SaveState / RestoreState never
  // clobber a slot the executor holds a snapshot in.
  std::vector<std::unique_ptr<sim::HardwareState>> sram_;
  unsigned staging() const { return options_.sram_slots; }
  Status ScanToSram(unsigned index);
  Status ScanFromSram(unsigned index);
  Result<sim::HardwareState> Download(unsigned index);
  Status Upload(unsigned index, const sim::HardwareState& state);
  // Host-side mirror of the architectural state at the last full-transfer
  // sync point (what the delta path diffs against). Invalidated whenever
  // the live state moves without crossing the host link.
  sim::HardwareState mirror_;
  bool mirror_valid_ = false;
  VirtualClock clock_;
  bus::TargetStats stats_;
};

}  // namespace hardsnap::fpga
