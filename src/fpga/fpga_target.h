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
//     SRAM slots, and full or delta transfers to the host,
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
#include <vector>

#include "bus/delta_support.h"
#include "bus/slot_support.h"
#include "bus/soc_target.h"
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

class FpgaTarget : public bus::SocTarget,
                   public bus::SlotSnapshotter,
                   public bus::DeltaSnapshotter {
 public:
  // Instruments `soc_design` and loads it onto the emulated fabric.
  static Result<std::unique_ptr<FpgaTarget>> Create(
      const rtl::Design& soc_design, FpgaTargetOptions options = {});

  bus::TargetKind kind() const override { return bus::TargetKind::kFpga; }
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

  // --- snapshot controller IP (on-fabric, fast path) ---------------------
  // bus::SlotSnapshotter: scan the live state into SRAM slot `slot`
  // (previous content replaced), or load the slot into the live
  // registers/memories. Neither crosses the host link with state bits.
  unsigned NumSlots() const override { return options_.sram_slots; }
  Status SaveLiveToSlot(unsigned slot) override;
  Status RestoreLiveFromSlot(unsigned slot) override;

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
             sim::Simulator fabric, FpgaTargetOptions options);

  // The fabric (the engine executing the bitstream) stays private: the
  // scan controller and the bus driver are the only ways in.
  FpgaTargetOptions options_;
  std::unique_ptr<scanchain::InstrumentedDesign> inst_;
  scanchain::ScanController scan_;
  // SRAM slots [0, sram_slots), then one private staging buffer that
  // full host transfers pass through, so SaveState / RestoreState never
  // clobber a slot the executor holds a snapshot in.
  std::vector<std::unique_ptr<sim::HardwareState>> sram_;
  unsigned staging() const { return options_.sram_slots; }
  Status ScanToSram(unsigned index);
  Status ScanFromSram(unsigned index);
  // Host-side mirror of the architectural state at the last full-transfer
  // sync point (what the delta path diffs against). Invalidated whenever
  // the live state moves without crossing the host link.
  sim::HardwareState mirror_;
  bool mirror_valid_ = false;
};

}  // namespace hardsnap::fpga
