#include "fuzz/fuzzer.h"

namespace hardsnap::fuzz {

const char* ResetStrategyName(ResetStrategy s) {
  switch (s) {
    case ResetStrategy::kSnapshotReset: return "snapshot";
    case ResetStrategy::kRebootReset: return "reboot";
  }
  return "?";
}

Status ValidateFuzzOptions(const FuzzOptions& options) {
  if (options.input_size == 0)
    return InvalidArgument("fuzz input_size must be >= 1");
  if (options.max_instructions_per_exec == 0)
    return InvalidArgument("fuzz max_instructions_per_exec must be >= 1");
  if (options.cycles_per_instruction == 0)
    return InvalidArgument("fuzz cycles_per_instruction must be >= 1");
  return Status::Ok();
}

Fuzzer::Fuzzer(bus::HardwareTarget* target, const vm::FirmwareImage& image,
               FuzzOptions options)
    : target_(target),
      image_(image),
      options_(options),
      rng_(options.seed),
      cpu_(target, options.cycles_per_instruction),
      hw_(target, /*use_device_slots=*/false, options.use_delta_snapshots) {
  HS_CHECK(cpu_.LoadFirmware(image_).ok());
  corpus_.push_back(std::vector<uint8_t>(options_.input_size, 0));
}

sim::HardwareState Fuzzer::harness_state() const {
  auto snap = hw_.store().Get(harness_.snapshot);
  return snap.ok() ? std::move(snap).value().state : sim::HardwareState{};
}

uint64_t Fuzzer::harness_hash() const {
  return hw_.store().ContentHash(harness_.snapshot).value_or(0);
}

void Fuzzer::ImportCorpus(const std::vector<std::vector<uint8_t>>& inputs) {
  for (const auto& input : inputs)
    if (!input.empty()) corpus_.push_back(input);
}

Status Fuzzer::PrepareSnapshot() {
  HS_RETURN_IF_ERROR(target_->ResetHardware());
  cpu_ = vm::Cpu(target_, options_.cycles_per_instruction);
  HS_RETURN_IF_ERROR(cpu_.LoadFirmware(image_));
  if (options_.init_instructions > 0) {
    auto out = cpu_.Run(options_.init_instructions);
    if (out.status == vm::RunStatus::kHardwareError)
      return Unavailable("target failed during init: " + out.reason);
    if (out.status != vm::RunStatus::kRunning)
      return FailedPrecondition(
          "firmware terminated during init (before the harness point): " +
          out.reason);
  }
  sw_snapshot_ = cpu_.SnapshotSoftware();
  HS_RETURN_IF_ERROR(hw_.Save(&harness_));
  snapshot_ready_ = true;
  return Status::Ok();
}

Status Fuzzer::EnsureSnapshotReady() {
  HS_RETURN_IF_ERROR(ValidateFuzzOptions(options_));
  if (!snapshot_ready_) HS_RETURN_IF_ERROR(PrepareSnapshot());
  return Status::Ok();
}

Status Fuzzer::ResetForNextExec() {
  const Duration before = target_->clock().now();
  if (options_.reset == ResetStrategy::kSnapshotReset) {
    cpu_.RestoreSoftware(sw_snapshot_);
    auto rung = hw_.Restore(harness_);
    if (!rung.ok()) return rung.status();
    if (rung.value() == snapshot::HwStateTracker::Rung::kRevert)
      ++stats_.delta_restores;
    ++stats_.snapshot_restores;
  } else {
    // Full reboot: power-cycle the device, re-run firmware init.
    HS_RETURN_IF_ERROR(target_->ResetHardware());
    reset_clock_.Advance(options_.reboot_cost);
    cpu_ = vm::Cpu(target_, options_.cycles_per_instruction);
    HS_RETURN_IF_ERROR(cpu_.LoadFirmware(image_));
    if (options_.init_instructions > 0) {
      auto out = cpu_.Run(options_.init_instructions);
      if (out.status != vm::RunStatus::kRunning)
        return FailedPrecondition("firmware died during reboot init");
      stats_.total_instructions += options_.init_instructions;
    }
    ++stats_.reboots;
  }
  stats_.reset_overhead += (target_->clock().now() - before) +
                           (reset_clock_.now() - Duration());
  reset_clock_.Reset();
  return Status::Ok();
}

std::vector<uint8_t> Fuzzer::Mutate(const std::vector<uint8_t>& parent) {
  std::vector<uint8_t> input = parent;
  if (input.empty()) input.assign(options_.input_size, 0);
  const unsigned kind = static_cast<unsigned>(rng_.Below(4));
  const size_t pos = rng_.Below(input.size());
  switch (kind) {
    case 0:  // bit flip
      input[pos] ^= static_cast<uint8_t>(1u << rng_.Below(8));
      break;
    case 1:  // random byte
      input[pos] = static_cast<uint8_t>(rng_.Bits(8));
      break;
    case 2: {  // interesting constants
      static const uint8_t kInteresting[] = {0,    1,    0x10, 0x20, 0x40,
                                             0x7f, 0x80, 0xff, 0xfe, 16};
      input[pos] = kInteresting[rng_.Below(sizeof kInteresting)];
      break;
    }
    default: {  // arithmetic nudge
      input[pos] = static_cast<uint8_t>(input[pos] +
                                        static_cast<int>(rng_.Range(1, 8)) -
                                        4);
      break;
    }
  }
  return input;
}

Result<FuzzStats> Fuzzer::Run(uint64_t execs) {
  HS_RETURN_IF_ERROR(ValidateFuzzOptions(options_));
  if (!snapshot_ready_) HS_RETURN_IF_ERROR(PrepareSnapshot());

  for (uint64_t e = 0; e < execs; ++e) {
    HS_RETURN_IF_ERROR(ResetForNextExec());

    const auto& parent = corpus_[rng_.Below(corpus_.size())];
    std::vector<uint8_t> input = Mutate(parent);
    HS_RETURN_IF_ERROR(cpu_.WriteRam(options_.input_addr, input));

    cpu_.ClearCoverageLog();
    const uint64_t icount_before = cpu_.state().icount;
    auto out = cpu_.Run(options_.max_instructions_per_exec);
    if (out.status == vm::RunStatus::kHardwareError) {
      // Infrastructure failure, NOT a finding: the input did nothing
      // wrong, the link to the target died. Surface it so the campaign
      // layer can fail over / re-provision. The interrupted exec is not
      // counted and its partial coverage is not recorded — a fresh
      // Fuzzer with the same seed replays the credited prefix exactly.
      stats_.link = target_->stats().link;
      return Unavailable("target failed mid-execution: " + out.reason);
    }
    stats_.total_instructions += cpu_.state().icount - icount_before;
    ++stats_.execs;

    // Edge coverage: hash consecutive control-flow targets.
    bool new_coverage = false;
    uint32_t prev = 0;
    for (uint32_t pc : cpu_.coverage_log()) {
      const uint64_t edge = (uint64_t{prev} << 32) | pc;
      if (edges_.insert(edge).second) new_coverage = true;
      prev = pc;
    }
    if (new_coverage) corpus_.push_back(input);

    if (out.status == vm::RunStatus::kBug &&
        crash_pcs_.insert(out.fault_pc).second) {
      Crash crash;
      crash.pc = out.fault_pc;
      crash.reason = out.reason;
      crash.input = input;
      crashes_.push_back(std::move(crash));
    }
  }

  stats_.corpus_size = corpus_.size();
  stats_.edges_covered = edges_.size();
  stats_.crashes = crashes_.size();
  stats_.hw_time = target_->clock().now();
  stats_.snapshot_bytes_copied = target_->stats().snapshot_bytes_copied;
  stats_.link = target_->stats().link;
  return stats_;
}

}  // namespace hardsnap::fuzz
