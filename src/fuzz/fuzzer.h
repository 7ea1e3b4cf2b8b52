// Snapshot-based coverage-guided fuzzing.
//
// The paper's motivation (Sec. II, citing Muench et al.): "fuzzing
// embedded systems requires to restart the target under test after each
// fuzzing input to reset a clean state ... restarting the embedded
// systems requires a complete reboot of the device which is extremely
// slow." HardSnap's snapshots remove the reboot: capture SW+HW state once
// after initialization, then restore per input.
//
// This module implements both disciplines over the concrete CPU so their
// cost can be compared (bench_fuzzing):
//   kSnapshotReset — one combined software+hardware snapshot taken at the
//                    harness point; restore per test case (HardSnap).
//   kRebootReset   — power-cycle the hardware and re-execute firmware from
//                    the entry point for every test case (the baseline).
//
// The fuzzer itself is a minimal but real coverage-guided loop: a corpus
// seeded with one input, per-input mutation (bit flips, byte sets,
// interesting constants, length-preserving), new-control-flow-edge
// tracking, and crash de-duplication by faulting pc.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bus/target.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/virtual_clock.h"
#include "snapshot/hw_state_tracker.h"
#include "vm/cpu.h"

namespace hardsnap::fuzz {

enum class ResetStrategy : uint8_t { kSnapshotReset, kRebootReset };
const char* ResetStrategyName(ResetStrategy s);

struct FuzzOptions {
  ResetStrategy reset = ResetStrategy::kSnapshotReset;
  uint64_t seed = 1;
  uint32_t input_addr = 0x10000000;   // where inputs are injected (RAM)
  unsigned input_size = 8;
  uint64_t max_instructions_per_exec = 20000;
  // Instructions to execute from _start before the harness point where
  // the snapshot is taken (inputs must not be read before this point).
  uint64_t init_instructions = 0;     // 0 = snapshot immediately at entry
  // Modeled cost of one device reboot for the baseline strategy.
  Duration reboot_cost = Duration::Millis(250);
  unsigned cycles_per_instruction = 1;
  // Snapshot resets through the target's incremental interface when it
  // has one: the harness snapshot is the sync point, so each reset only
  // rewrites the chunks the execution dirtied (O(dirty), not O(state)).
  bool use_delta_snapshots = true;
};

// Rejects unusable option combinations (an input_size of 0 would make
// every mutation an empty-range draw — previously undefined behaviour in
// Rng::Below). Checked by Fuzzer::Run and by campaign front-ends, so a
// bad config is a reported error, not an abort.
Status ValidateFuzzOptions(const FuzzOptions& options);

struct Crash {
  uint32_t pc = 0;
  std::string reason;
  std::vector<uint8_t> input;
};

struct FuzzStats {
  uint64_t execs = 0;
  uint64_t total_instructions = 0;
  uint64_t corpus_size = 0;
  uint64_t edges_covered = 0;
  uint64_t crashes = 0;            // unique by faulting pc
  uint64_t reboots = 0;
  uint64_t snapshot_restores = 0;
  uint64_t delta_restores = 0;     // resets served by the delta fast path
  // Snapshot payload bytes moved over the target's snapshot path (full
  // restores count the whole state, delta resets only changed chunks).
  uint64_t snapshot_bytes_copied = 0;
  Duration reset_overhead;         // modeled time spent resetting state
  Duration hw_time;                // total modeled hardware time
  // Transport retry/fault counters from the target's framed link. Under
  // fault injection these grow while findings stay identical to a clean
  // run (retries draw from the link's own RNG stream, never this
  // fuzzer's mutation stream).
  bus::LinkStats link;
};

class Fuzzer {
 public:
  // `target` provides the peripherals; `image` is the firmware.
  Fuzzer(bus::HardwareTarget* target, const vm::FirmwareImage& image,
         FuzzOptions options);

  // Run `execs` test cases. Callable repeatedly; corpus persists.
  Result<FuzzStats> Run(uint64_t execs);

  const std::vector<Crash>& crashes() const { return crashes_; }
  const std::vector<std::vector<uint8_t>>& corpus() const { return corpus_; }
  const FuzzStats& stats() const { return stats_; }
  const FuzzOptions& options() const { return options_; }
  // Control-flow edges covered so far (hashed (from, to) pairs). Campaign
  // workers merge these into the global coverage map between batches.
  const std::set<uint64_t>& edges() const { return edges_; }

  // Position digest of the mutation RNG stream (Rng::StateDigest). Equal
  // digests after equal exec counts prove an exact resume replay.
  uint64_t RngDigest() const { return rng_.StateDigest(); }

  // Takes the harness-point snapshot now (validating options) if it has
  // not been taken yet; Run() does this lazily, but persistence wants the
  // harness state before the first batch to detect firmware/SoC drift
  // across a resume.
  Status EnsureSnapshotReady();
  bool snapshot_ready() const { return snapshot_ready_; }
  // Harness-point hardware state and its content hash (valid only once
  // snapshot_ready(); kSnapshotReset strategy).
  sim::HardwareState harness_state() const;
  uint64_t harness_hash() const;

  // Adopt inputs found by other campaign workers as mutation parents.
  // Empty inputs are skipped. NOTE: imports change which parents the local
  // RNG stream selects, so a campaign that cross-pollinates trades the
  // replay-by-seed guarantee for input-level replay (see
  // docs/parallel_campaigns.md).
  void ImportCorpus(const std::vector<std::vector<uint8_t>>& inputs);

 private:
  Status PrepareSnapshot();
  Status ResetForNextExec();
  std::vector<uint8_t> Mutate(const std::vector<uint8_t>& parent);

  bus::HardwareTarget* target_;
  vm::FirmwareImage image_;
  FuzzOptions options_;
  Rng rng_;

  vm::Cpu cpu_;
  bool snapshot_ready_ = false;
  vm::CpuState sw_snapshot_;
  // The harness snapshot is the tracker's live base, so each reset is an
  // empty-delta revert when the target tracks dirty chunks.
  snapshot::HwStateTracker hw_;
  snapshot::HwHandle harness_;

  std::vector<std::vector<uint8_t>> corpus_;
  std::set<uint64_t> edges_;          // hashed (from, to) control-flow edges
  std::set<uint32_t> crash_pcs_;
  std::vector<Crash> crashes_;
  FuzzStats stats_;
  VirtualClock reset_clock_;
};

}  // namespace hardsnap::fuzz
