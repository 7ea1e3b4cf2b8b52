// AXI4-Lite support (paper Sec. III-A: "We provide support for the
// AXI4-Lite bus interface", Sec. IV-A: the remote interface interconnects
// "a simulated memory bus (i.e., AXI, Wishbone)").
//
// Two pieces:
//  * AxiLiteBridgeVerilog() — an RTL bridge module exposing a full
//    AXI4-Lite slave port (5 channels, valid/ready handshakes) and driving
//    the simple synchronous register bus the peripherals speak. Generated
//    as Verilog so it is itself simulated, instrumented and snapshotted
//    like any other hardware (its in-flight transaction state rides the
//    scan chain).
//  * AxiLiteDriver — a C++ bus master performing handshake-accurate
//    transactions against the bridge's pins on a Simulator: address and
//    data phases may be accepted in either order, responses are awaited
//    with valid/ready semantics, and the driver checks BRESP/RRESP.
//
// WrapSocWithAxi() packages a peripheral SoC behind the bridge, giving a
// design whose only ingress is genuine AXI4-Lite.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "periph/periph.h"
#include "sim/simulator.h"

namespace hardsnap::bus {

// The bridge module source ("hs_axil_bridge"). Ports:
//   AXI4-Lite slave: awvalid/awready/awaddr[15:0], wvalid/wready/wdata[31:0],
//                    bvalid/bready/bresp[1:0], arvalid/arready/araddr[15:0],
//                    rvalid/rready/rdata[31:0]/rresp[1:0]
//   register bus master: m_sel/m_wr/m_rd/m_addr[15:0]/m_wdata -> m_rdata
std::string AxiLiteBridgeVerilog();

// A top module "axi_soc" = hs_axil_bridge + the given peripherals' SoC.
std::string WrapSocWithAxi(const std::vector<periph::PeripheralInfo>& p);

// Wishbone B4 classic bridge ("hs_wb_bridge"): cyc/stb/we/adr/dat_w ->
// ack/dat_r, mapped onto the same register bus. WrapSocWithWishbone()
// packages a SoC behind it (top module "wb_soc").
std::string WishboneBridgeVerilog();
std::string WrapSocWithWishbone(const std::vector<periph::PeripheralInfo>& p);

// Handshake-accurate Wishbone classic master.
class WishboneDriver {
 public:
  explicit WishboneDriver(sim::Simulator* sim);
  Status Write32(uint32_t addr, uint32_t value);
  Result<uint32_t> Read32(uint32_t addr);

 private:
  sim::Simulator* sim_;
};

class AxiLiteDriver {
 public:
  // `sim` must execute a design with the bridge's AXI pins at top level.
  explicit AxiLiteDriver(sim::Simulator* sim);

  // One complete AXI4-Lite write transaction (address+data+response).
  Status Write32(uint32_t addr, uint32_t value);

  // One complete read transaction. Checks RRESP == OKAY.
  Result<uint32_t> Read32(uint32_t addr);

  // Cycles consumed by the last transaction (protocol latency).
  unsigned last_latency_cycles() const { return last_latency_; }

 private:
  sim::Simulator* sim_;
  unsigned last_latency_ = 0;
};

}  // namespace hardsnap::bus
