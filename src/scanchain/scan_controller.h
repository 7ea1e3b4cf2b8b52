// Scan-chain controller: drives the serial chain inserted by
// InsertScanChain to save/restore hardware state.
//
// This is the software model of the paper's on-fabric snapshot "IP"
// (Sec. III-C): it owns the scan_enable/scan_in/scan_out pins and the
// per-memory test ports of an *instrumented* design and implements:
//
//   SaveRestore(new) -> old   one full pass: while the new state shifts in
//                             through scan_in, the old state drains out of
//                             scan_out. Cost: total_bits shift cycles +
//                             total_mem_words port cycles.
//   Save() -> state           non-destructive: scan_out is looped back into
//                             scan_in, so after exactly total_bits cycles
//                             the registers hold their original values.
//   Restore(state)            one pass, discarding the outgoing state.
//
// The controller operates on a Simulator executing the instrumented
// netlist. The emulated-FPGA target wraps this controller and charges the
// fabric-clock virtual time; the cycle counts here are therefore exactly
// the paper's scan-chain latency model (linear in state bits).
//
// Proven shortcut. InsertScanChain builds every chained flop as
//   next = Mux(scan_hold, q, Mux(scan_enable, {q[W-2:0], prev}, next))
// and gates every functional memory write off while scan_enable|scan_hold.
// So with scan_enable=1, scan_hold=0 and the port en/wen pins low the
// chained state is exactly a shift register, and with scan_hold=1 it is
// frozen while a port reads or writes one word per cycle: a loopback
// Save() returns the live state and leaves it in place, and SaveRestore()
// is a swap. The constructor proves this on the netlist the simulator
// runs, at a cost of O(chain slots + memory writes): it folds each phase's
// pin values into every chained flop's next-state root and every memory
// write enable, then checks that the shift arm is the predecessor's bit
// (or scan_in), that the hold arm is q, that every functional write enable
// is 0 in both phases, and that each port writes mem[addr] = wdata when
// en & wen. When the proof holds, a pass computes its result directly,
// commits it with Simulator::CommitState (cycle_count() advances by
// PassCycles()) and leaves every pin where the bit-serial pass would.
//
// The pass shifts bit by bit, as the hardware does, when:
//   * the chain is scoped (flops outside it keep clocking during a shift
//     and see shifting garbage, just like on a real part; only chained
//     state is captured/restored);
//   * the netlist fails the proof;
//   * a pass starts with scan_hold or a port's en/wen pin set.
// Either way the modeled cost is PassCycles(), and only the controller's
// pins touch the fabric.
#pragma once

#include <vector>

#include "common/status.h"
#include "scanchain/scan_pass.h"
#include "sim/simulator.h"

namespace hardsnap::scanchain {

class ScanController {
 public:
  // `sim` must execute the instrumented design the map was produced for.
  ScanController(sim::Simulator* sim, const ScanChainMap& map);

  // Cycle cost of one full save/restore pass (registers + memories).
  uint64_t PassCycles() const {
    return map_->total_bits + map_->total_mem_words;
  }

  // Shift `new_state` in while capturing the outgoing state.
  // `new_state` must have the shape of the instrumented design's state.
  Result<sim::HardwareState> SaveRestore(const sim::HardwareState& new_state);

  // Capture the current state without disturbing it (loopback shifting).
  Result<sim::HardwareState> Save();

  // Load `state`, discarding whatever the hardware held.
  Status Restore(const sim::HardwareState& state);

  // Whether the constructor proved the shortcut for this netlist.
  bool shortcut_proven() const { return proven_; }

 private:
  friend class ScanControllerPeer;  // runs the bit-serial oracle in tests

  // One test port's pins, resolved once.
  struct Port {
    rtl::SignalId en, addr, wdata, wen, rdata;
  };

  bool ProveShortcut() const;
  bool PinsIdle() const;
  // One pass: `incoming` shifts in while the old state drains out, or,
  // when null, scan_out loops back into scan_in. `bit_serial` forces the
  // cycle-by-cycle pass even when the shortcut is proven.
  Result<sim::HardwareState> Pass(const sim::HardwareState* incoming,
                                  bool bit_serial);

  sim::Simulator* sim_;
  const ScanChainMap* map_;
  rtl::SignalId scan_enable_;
  rtl::SignalId scan_in_;
  rtl::SignalId scan_out_;
  rtl::SignalId scan_hold_;
  std::vector<Port> ports_;  // parallel to map_->mem_ports
  bool proven_ = false;
};

}  // namespace hardsnap::scanchain
