// SocTarget: the in-process core both hardware back-ends share.
//
// SimulatorTarget and FpgaTarget run the same SoC RTL on the same engine
// (sim::Simulator). They differ only in the engine's clock rate, the
// channel model and the snapshot mechanism (CRIU vs scan chain + SRAM;
// see target.h). This class owns everything else: the engine and its
// register-bus driver, the FramedLink that every host<->target operation
// crosses, the virtual clock and the stats. MMIO forwarding and Run are
// implemented here once; snapshot and reset commands go through the one
// Bulk() helper, so every operation charges its link cost to the clock
// and to one stats bucket in the same order, on failure too.
#pragma once

#include <string>

#include "bus/link.h"
#include "bus/soc_driver.h"
#include "bus/target.h"
#include "common/status.h"
#include "sim/simulator.h"

namespace hardsnap::bus {

class SocTarget : public HardwareTarget {
 public:
  SocTarget(const SocTarget&) = delete;
  SocTarget& operator=(const SocTarget&) = delete;

  const std::string& name() const override { return name_; }

  // The link charges the channel round trip (per attempt, if faults force
  // retries); the bus cycle on the engine is charged only once the
  // transaction actually reaches the device.
  Result<uint32_t> Read32(uint32_t addr) override;
  Status Write32(uint32_t addr, uint32_t value) override;
  // The run command crosses the link too (a dead target cannot be told to
  // run), but its clean cost is purely the execution time: command
  // latency hides behind the multi-cycle run.
  Status Run(uint64_t cycles) override;
  uint32_t IrqVector() override { return driver_.IrqVector(); }

  bool responsive() const override { return link_.alive(); }
  const VirtualClock& clock() const override { return clock_; }
  const TargetStats& stats() const override { return stats_; }

  FramedLink* link() { return &link_; }

 protected:
  // `engine` executes the SoC at `clock_hz` cycles per virtual second.
  SocTarget(std::string name, sim::Simulator engine, double clock_hz,
            const ChannelModel& channel, const LinkConfig& link);

  // Idles the serial receive line when the SoC has one.
  Status IdleSerialLine();

  // One bulk command exchange whose clean-link cost is `clean_cost`.
  // `device` runs at most once, when the command reaches the target. The
  // link's cost (retries included) is charged to the clock and to
  // `bucket` (nothing but the clock when null) whether or not it succeeds.
  Status Bulk(Duration clean_cost, Duration TargetStats::*bucket,
              const FramedLink::OpFn& device);
  // Charges `cost` to the clock and `bucket` without crossing the link.
  void Charge(Duration cost, Duration TargetStats::*bucket);

  Duration Cycles(uint64_t n) const {
    return period_ * static_cast<int64_t>(n);
  }
  sim::Simulator& engine() { return engine_; }

  TargetStats stats_;

 private:
  // Charges an MMIO exchange: the link's cost, then one bus cycle and
  // `counter` if the transaction landed.
  Status ChargeMmio(Duration link_cost, const Status& s, uint64_t* counter);

  std::string name_;
  sim::Simulator engine_;
  SocBusDriver driver_;
  Duration period_;
  FramedLink link_;
  VirtualClock clock_;
};

}  // namespace hardsnap::bus
