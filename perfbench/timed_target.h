// Timing wrapper around a bus::HardwareTarget, used by the traced runs.
//
// Callers discover the optional target capabilities (DeltaSnapshotter,
// SlotSnapshotter, MmioBatcher) with dynamic_cast, so a wrapper that hid
// one would silently switch the workload onto a different snapshot path,
// and one that added a capability would switch it onto a path the real
// target never takes. Wrap() therefore instantiates the wrapper class that
// implements exactly the capabilities of the target it wraps, and checks
// that the result advertises the same set.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bus/batch_support.h"
#include "bus/delta_support.h"
#include "bus/slot_support.h"
#include "bus/target.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

enum CallKind : int { kRun, kMmio, kSnapshot, kReset, kBatch, kNumKinds };

// Host time and calls per call kind for one target, plus the first and
// last call so the caller's self time over that span can be derived.
// Written only by the thread driving the target; read after it is joined.
struct CallMeter {
  std::array<double, kNumKinds> seconds{};
  std::array<uint64_t, kNumKinds> calls{};
  Clock::time_point first{};
  Clock::time_point last{};
  bool any = false;

  double busy() const {
    double s = 0;
    for (double v : seconds) s += v;
    return s;
  }
  uint64_t total_calls() const {
    uint64_t n = 0;
    for (uint64_t v : calls) n += v;
    return n;
  }
  double span() const {
    return any ? std::chrono::duration<double>(last - first).count() : 0.0;
  }
};

// Owns the meters of every wrapper made during one traced rep, so they
// survive the targets (which the campaign or server destroys). Allocation
// is locked; each meter is then written by one thread only.
class MeterRegistry {
 public:
  CallMeter* Add(std::string label) {
    std::lock_guard<std::mutex> lock(mu_);
    meters_.emplace_back(std::move(label), CallMeter{});
    return &meters_.back().second;
  }
  // Call only after every thread that drives a wrapper has been joined.
  std::vector<std::pair<std::string, CallMeter>> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {meters_.begin(), meters_.end()};
  }

 private:
  mutable std::mutex mu_;
  std::deque<std::pair<std::string, CallMeter>> meters_;
};

enum Capability : unsigned { kDeltaCap = 1, kSlotCap = 2, kBatchCap = 4 };

inline unsigned Capabilities(hardsnap::bus::HardwareTarget* t) {
  namespace bus = hardsnap::bus;
  return (dynamic_cast<bus::DeltaSnapshotter*>(t) ? kDeltaCap : 0u) |
         (dynamic_cast<bus::SlotSnapshotter*>(t) ? kSlotCap : 0u) |
         (dynamic_cast<bus::MmioBatcher*>(t) ? kBatchCap : 0u);
}

class TimedTarget : public hardsnap::bus::HardwareTarget {
 public:
  TimedTarget(std::unique_ptr<hardsnap::bus::HardwareTarget> inner,
              CallMeter* meter)
      : inner_(std::move(inner)), meter_(meter) {}

  hardsnap::bus::TargetKind kind() const override { return inner_->kind(); }
  const std::string& name() const override { return inner_->name(); }

  hardsnap::Result<uint32_t> Read32(uint32_t addr) override {
    return Timed(kMmio, [&] { return inner_->Read32(addr); });
  }
  hardsnap::Status Write32(uint32_t addr, uint32_t value) override {
    return Timed(kMmio, [&] { return inner_->Write32(addr, value); });
  }
  hardsnap::Status Run(uint64_t cycles) override {
    return Timed(kRun, [&] { return inner_->Run(cycles); });
  }
  // Side-band wires, read once per VM instruction and free on every
  // target: forwarded untimed so the meter does not dominate the loop.
  uint32_t IrqVector() override { return inner_->IrqVector(); }
  hardsnap::Status ResetHardware() override {
    return Timed(kReset, [&] { return inner_->ResetHardware(); });
  }
  hardsnap::Result<hardsnap::sim::HardwareState> SaveState() override {
    return Timed(kSnapshot, [&] { return inner_->SaveState(); });
  }
  hardsnap::Status RestoreState(
      const hardsnap::sim::HardwareState& state) override {
    return Timed(kSnapshot, [&] { return inner_->RestoreState(state); });
  }
  hardsnap::Result<uint64_t> StateHash() override {
    return Timed(kSnapshot, [&] { return inner_->StateHash(); });
  }
  bool responsive() const override { return inner_->responsive(); }
  const hardsnap::VirtualClock& clock() const override {
    return inner_->clock();
  }
  const hardsnap::bus::TargetStats& stats() const override {
    return inner_->stats();
  }

 protected:
  template <class F>
  auto Timed(CallKind kind, F&& f) -> decltype(f()) {
    const Clock::time_point t0 = Clock::now();
    auto result = f();
    const Clock::time_point t1 = Clock::now();
    if (!meter_->any) {
      meter_->first = t0;
      meter_->any = true;
    }
    meter_->last = t1;
    meter_->seconds[kind] += std::chrono::duration<double>(t1 - t0).count();
    ++meter_->calls[kind];
    return result;
  }
  hardsnap::bus::HardwareTarget* inner() { return inner_.get(); }

 private:
  std::unique_ptr<hardsnap::bus::HardwareTarget> inner_;
  CallMeter* meter_;
};

template <class Base>
class WithDelta : public Base, public hardsnap::bus::DeltaSnapshotter {
 public:
  using Base::Base;
  hardsnap::Result<hardsnap::sim::StateDelta> SaveStateDelta() override {
    return this->Timed(kSnapshot, [&] { return delta_->SaveStateDelta(); });
  }
  hardsnap::Status RestoreStateDelta(
      const hardsnap::sim::StateDelta& delta) override {
    return this->Timed(kSnapshot,
                       [&] { return delta_->RestoreStateDelta(delta); });
  }

 private:
  hardsnap::bus::DeltaSnapshotter* delta_ =
      dynamic_cast<hardsnap::bus::DeltaSnapshotter*>(this->inner());
};

template <class Base>
class WithSlots : public Base, public hardsnap::bus::SlotSnapshotter {
 public:
  using Base::Base;
  unsigned NumSlots() const override { return slots_->NumSlots(); }
  hardsnap::Status SaveLiveToSlot(unsigned slot) override {
    return this->Timed(kSnapshot, [&] { return slots_->SaveLiveToSlot(slot); });
  }
  hardsnap::Status RestoreLiveFromSlot(unsigned slot) override {
    return this->Timed(kSnapshot,
                       [&] { return slots_->RestoreLiveFromSlot(slot); });
  }

 private:
  hardsnap::bus::SlotSnapshotter* slots_ =
      dynamic_cast<hardsnap::bus::SlotSnapshotter*>(this->inner());
};

template <class Base>
class WithBatch : public Base, public hardsnap::bus::MmioBatcher {
 public:
  using Base::Base;
  hardsnap::Result<std::vector<uint32_t>> ExecuteMmio(
      const std::vector<hardsnap::bus::MmioOp>& ops) override {
    return this->Timed(kBatch, [&] { return batch_->ExecuteMmio(ops); });
  }

 private:
  hardsnap::bus::MmioBatcher* batch_ =
      dynamic_cast<hardsnap::bus::MmioBatcher*>(this->inner());
};

// Wraps `inner` in the TimedTarget subclass with exactly its capabilities.
// Only the combinations the workloads produce are built: SimulatorTarget
// (delta), RemoteTarget (delta and batch) and FpgaTarget (delta and
// slots). Any other target fails the check instead of being wrapped with
// a different set.
inline std::unique_ptr<hardsnap::bus::HardwareTarget> Wrap(
    std::unique_ptr<hardsnap::bus::HardwareTarget> inner, CallMeter* meter) {
  const unsigned caps = Capabilities(inner.get());
  std::unique_ptr<hardsnap::bus::HardwareTarget> out;
  using T = TimedTarget;
  switch (caps) {
    case kDeltaCap:
      out = std::make_unique<WithDelta<T>>(std::move(inner), meter);
      break;
    case kDeltaCap | kBatchCap:
      out = std::make_unique<WithBatch<WithDelta<T>>>(std::move(inner), meter);
      break;
    case kDeltaCap | kSlotCap:
      out = std::make_unique<WithSlots<WithDelta<T>>>(std::move(inner), meter);
      break;
    default:
      break;
  }
  HS_CHECK_MSG(out && Capabilities(out.get()) == caps,
               "TimedTarget: no wrapper with exactly this target's "
               "capabilities");
  return out;
}

}  // namespace perfbench
