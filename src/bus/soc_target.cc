#include "bus/soc_target.h"

#include <utility>

namespace hardsnap::bus {

const char* TargetKindName(TargetKind kind) {
  switch (kind) {
    case TargetKind::kSimulator: return "simulator";
    case TargetKind::kFpga: return "fpga";
  }
  return "?";
}

SocTarget::SocTarget(std::string name, sim::Simulator engine, double clock_hz,
                     const ChannelModel& channel, const LinkConfig& link)
    : name_(std::move(name)),
      engine_(std::move(engine)),
      driver_(&engine_),
      period_(PeriodOfHz(clock_hz)),
      link_(channel, link) {}

Status SocTarget::IdleSerialLine() {
  if (engine_.design().FindSignal("uart_rx") == rtl::kInvalidId)
    return Status::Ok();
  return engine_.PokeInput("uart_rx", 1);
}

void SocTarget::Charge(Duration cost, Duration TargetStats::*bucket) {
  clock_.Advance(cost);
  if (bucket) stats_.*bucket += cost;
  stats_.link = link_.stats();
}

Status SocTarget::Bulk(Duration clean_cost, Duration TargetStats::*bucket,
                       const FramedLink::OpFn& device) {
  Duration cost;
  Status s = link_.Bulk(clean_cost, device, &cost);
  Charge(cost, bucket);
  return s;
}

Status SocTarget::ChargeMmio(Duration link_cost, const Status& s,
                             uint64_t* counter) {
  Charge(link_cost, &TargetStats::io_time);
  HS_RETURN_IF_ERROR(s);
  ++*counter;
  Charge(Cycles(1), &TargetStats::io_time);
  return Status::Ok();
}

Result<uint32_t> SocTarget::Read32(uint32_t addr) {
  Duration cost;
  auto v = link_.Read(addr, [&] { return driver_.Read32(addr); }, &cost);
  HS_RETURN_IF_ERROR(ChargeMmio(cost, v.status(), &stats_.mmio_reads));
  return v;
}

Status SocTarget::Write32(uint32_t addr, uint32_t value) {
  Duration cost;
  Status s = link_.Write(
      addr, value, [&] { return driver_.Write32(addr, value); }, &cost);
  return ChargeMmio(cost, s, &stats_.mmio_writes);
}

Status SocTarget::Run(uint64_t cycles) {
  HS_RETURN_IF_ERROR(Bulk(Cycles(cycles), &TargetStats::run_time, [&] {
    engine_.Tick(static_cast<unsigned>(cycles));
    return Status::Ok();
  }));
  stats_.cycles_run += cycles;
  return Status::Ok();
}

}  // namespace hardsnap::bus
