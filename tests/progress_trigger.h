// Campaign-progress triggers for tests that must act mid-campaign (kill a
// server, request a stop). A wall-clock sleep races the campaign: a faster
// build finishes before the sleep ends and the test quietly stops testing
// what it claims to. A Tripwire instead fires at a fixed point of one
// worker's own work, which is deterministic.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "bus/delta_support.h"
#include "bus/target.h"
#include "campaign/campaign.h"
#include "common/logging.h"

namespace hardsnap::progress {

// Runs `action` once, on the `at`-th Run call counted over every target
// that shares this tripwire.
struct Tripwire {
  uint64_t at = 1;
  std::function<void()> action;
  std::atomic<uint64_t> runs{0};
  std::atomic<bool> fired{false};

  void Tick() {
    if (++runs != at) return;
    action();
    fired = true;
  }
};

// Forwards everything to a target with delta snapshots, so a campaign takes
// the same snapshot path through it, and ticks `wire` after each Run.
class TripwireTarget : public bus::HardwareTarget,
                       public bus::DeltaSnapshotter {
 public:
  TripwireTarget(std::unique_ptr<bus::HardwareTarget> inner, Tripwire* wire)
      : inner_(std::move(inner)),
        delta_(dynamic_cast<bus::DeltaSnapshotter*>(inner_.get())),
        wire_(wire) {
    HS_CHECK_MSG(delta_ != nullptr, "wrapped target has no delta snapshots");
  }

  bus::TargetKind kind() const override { return inner_->kind(); }
  const std::string& name() const override { return inner_->name(); }
  Result<uint32_t> Read32(uint32_t addr) override {
    return inner_->Read32(addr);
  }
  Status Write32(uint32_t addr, uint32_t value) override {
    return inner_->Write32(addr, value);
  }
  Status Run(uint64_t cycles) override {
    Status s = inner_->Run(cycles);
    wire_->Tick();
    return s;
  }
  uint32_t IrqVector() override { return inner_->IrqVector(); }
  Status ResetHardware() override { return inner_->ResetHardware(); }
  Result<sim::HardwareState> SaveState() override {
    return inner_->SaveState();
  }
  Status RestoreState(const sim::HardwareState& state) override {
    return inner_->RestoreState(state);
  }
  Result<uint64_t> StateHash() override { return inner_->StateHash(); }
  bool responsive() const override { return inner_->responsive(); }
  const VirtualClock& clock() const override { return inner_->clock(); }
  const bus::TargetStats& stats() const override { return inner_->stats(); }

  Result<sim::StateDelta> SaveStateDelta() override {
    return delta_->SaveStateDelta();
  }
  Status RestoreStateDelta(const sim::StateDelta& delta) override {
    return delta_->RestoreStateDelta(delta);
  }

 private:
  std::unique_ptr<bus::HardwareTarget> inner_;
  bus::DeltaSnapshotter* delta_;
  Tripwire* wire_;
};

// `inner`, with worker 0's targets wrapped so that their Runs tick `wire`.
inline campaign::CampaignTargetFactory WithTripwire(
    campaign::CampaignTargetFactory inner, Tripwire* wire) {
  return [inner = std::move(inner), wire](unsigned worker,
                                          uint64_t incarnation)
             -> Result<std::unique_ptr<bus::HardwareTarget>> {
    auto target = inner(worker, incarnation);
    if (!target.ok() || worker != 0) return target;
    return std::unique_ptr<bus::HardwareTarget>(
        std::make_unique<TripwireTarget>(std::move(target).value(), wire));
  };
}

}  // namespace hardsnap::progress
