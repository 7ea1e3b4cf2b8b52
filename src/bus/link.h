// Framed, fault-tolerant host<->target transport (paper Sec. III-B).
//
// channel.h models a link as a pure per-transaction cost — perfect wires.
// Real debugger links (USB3 bridge, JTAG probe) drop frames, flip bits,
// stall, and occasionally go away entirely; a production campaign that
// runs unattended for days must survive all of that. This layer adds:
//
//   * FaultProfile — a deterministic, seeded fault injector: drops,
//     bit-flips (caught by CRC32), latency stalls, and multi-frame link
//     outages. Disabled by default; the injector's Rng stream is derived
//     from its own seed and NEVER shared with analysis streams, so faults
//     do not perturb mutation/search decisions (retry determinism).
//   * Frame — the wire format: kind | seq | addr | value | crc32
//     (17 bytes). CRC32 rejects every single-bit flip; the sequence
//     number makes retransmits idempotent (a re-executed read is
//     replayed from cache, a duplicate write is deduplicated).
//   * RetryPolicy — bounded retries with exponential backoff + jitter
//     and a per-operation virtual-time deadline on the accumulated
//     OVERHEAD (stalls, backoffs). Payload time is excluded: every
//     attempt's budget is `attempts_so_far * clean_cost + deadline`, so
//     an operation that would succeed on a perfect link never breaches
//     and bulk transfers stay retryable however large their payload.
//   * FramedLink — the transactor. Transient transport failures (drop,
//     CRC reject, outage) are retried; permanent errors arrive in a
//     well-formed reply from the device and are returned without retry
//     (see IsTransientFailure in common/status.h). A health monitor
//     counts consecutive failed operations and declares the link dead
//     after LinkConfig::dead_after of them — the orchestrator's failover
//     trigger.
//
// On a clean link the modeled cost of every operation is IDENTICAL to
// the unframed driver (MMIO: one channel transaction; bulk: the caller's
// precomputed cost), so E1/E2/E6 tables are unchanged. What framing adds
// on a clean link is host work (encode + CRC + decode), measured by
// bench_fault_tolerance (E11).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bus/channel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/virtual_clock.h"

namespace hardsnap::bus {

// Deterministic fault injector configuration. All rates are per-frame
// probabilities in [0, 1]; with every rate zero the injector is skipped
// entirely (no Rng draws), keeping the clean path byte-for-byte
// deterministic with pre-fault builds.
struct FaultProfile {
  double drop_rate = 0.0;     // frame vanishes in transit
  double corrupt_rate = 0.0;  // one random bit flips (CRC catches it)
  double stall_rate = 0.0;    // latency spike of `stall` before delivery
  Duration stall = Duration::Micros(500);
  double outage_rate = 0.0;   // link goes down for `outage_frames` frames
  uint32_t outage_frames = 16;
  uint64_t seed = 0x4c494e4bull;  // dedicated stream, never the analysis rng

  bool enabled() const {
    return drop_rate > 0 || corrupt_rate > 0 || stall_rate > 0 ||
           outage_rate > 0;
  }
};

// Bounded-retry policy. Backoff for attempt k (k >= 2) is
//   min(cap, base * factor^(k-2)) * (1 + jitter * U[0,1))
// with U drawn from the link's dedicated Rng stream.
struct RetryPolicy {
  uint32_t max_attempts = 8;
  // Virtual-time overhead (stalls + backoffs) an operation may accumulate
  // before it fails with kDeadlineExceeded. Payload transfers don't count
  // against it: every attempt re-pays the clean transfer cost, so slow
  // bulk operations (snapshot ships) remain retryable and a clean-link
  // operation can never breach.
  Duration deadline = Duration::Millis(4);
  Duration backoff_base = Duration::Micros(1);
  uint32_t backoff_factor = 2;
  Duration backoff_cap = Duration::Millis(1);
  double jitter = 0.5;
};

struct LinkConfig {
  FaultProfile faults;
  RetryPolicy retry;
  // Consecutive failed operations (retries exhausted or deadline blown)
  // after which the health monitor declares the target dead.
  uint32_t dead_after = 3;
};

struct LinkStats {
  uint64_t frames_sent = 0;       // every transmission attempt, both ways
  uint64_t retransmits = 0;       // attempts beyond the first
  uint64_t drops = 0;             // frames lost in transit
  uint64_t corruptions = 0;       // bit-flips injected
  uint64_t crc_rejects = 0;       // corrupt frames caught by CRC32
  uint64_t stalls = 0;            // latency spikes injected
  uint64_t outages = 0;           // link-down episodes entered
  uint64_t dedup_hits = 0;        // retransmits absorbed by seq dedup
  uint64_t deadline_breaches = 0; // operations that blew their deadline
  uint64_t failed_ops = 0;        // operations that gave up entirely

  LinkStats& operator+=(const LinkStats& o);
};

// Wire frame: kind(1) | seq(4) | addr(4) | value(4) | crc32(4) = 17 bytes.
struct Frame {
  enum Kind : uint8_t {
    kRead = 1,
    kWrite = 2,
    kCommand = 3,   // non-MMIO request (scan pass, slot op, bulk header)
    kReplyOk = 4,
    kReplyErr = 5,
  };

  uint8_t kind = 0;
  uint32_t seq = 0;
  uint32_t addr = 0;
  uint32_t value = 0;

  static constexpr size_t kWireBytes = 17;

  std::vector<uint8_t> Encode() const;
  // kDataLoss on a wrong length or a CRC mismatch.
  static Result<Frame> Decode(const std::vector<uint8_t>& bytes);
};

// The transactor. Concrete targets own one and route every host<->target
// operation through it, supplying the device-side behaviour as a
// callback; the link decides whether/when that callback runs (at most
// once per sequence number) and how much virtual time the exchange
// costs, including retries.
class FramedLink {
 public:
  using ReadFn = std::function<Result<uint32_t>()>;
  using OpFn = std::function<Status()>;

  FramedLink(ChannelModel channel, LinkConfig config);

  // One framed 32-bit read / write. Clean cost: channel.per_transaction.
  Result<uint32_t> Read(uint32_t addr, const ReadFn& device, Duration* cost);
  Status Write(uint32_t addr, uint32_t value, const OpFn& device,
               Duration* cost);

  // A non-MMIO command exchange of `transactions` channel round trips
  // (scan passes use 2). Clean cost: channel.CostOf(transactions).
  Status Command(unsigned transactions, const OpFn& device, Duration* cost);

  // A bulk payload transfer whose clean-link cost the caller computed
  // (snapshot blob, slot download, delta chunks). The whole payload is
  // one retry unit: a corrupt/dropped transfer is re-sent in full.
  Status Bulk(Duration clean_cost, const OpFn& device, Duration* cost);

  // Health monitor: false once dead_after consecutive operations failed.
  // A dead link fails every subsequent operation with kUnavailable
  // without touching the device — the failover trigger.
  bool alive() const { return !dead_; }

  // Test hook: hard-kill the link (models the debugger cable going away).
  void Sever() { dead_ = true; }

  const ChannelModel& channel() const { return channel_; }
  const LinkConfig& config() const { return config_; }
  const LinkStats& stats() const { return stats_; }

 private:
  // Shared transact loop. `device` runs at most once; its Status (and the
  // read value via `read_out`) is cached across retransmits.
  Status Transact(Frame request, Duration clean_cost, const OpFn& device,
                  Duration* cost);

  Duration Backoff(uint32_t attempt);
  // Rolls the fault dice for one frame hop. Returns false if the frame
  // was lost (drop / outage / CRC reject) and must be retransmitted.
  bool DeliverFrame(const Frame& frame, Duration* total);

  ChannelModel channel_;
  LinkConfig config_;
  Rng rng_;
  LinkStats stats_;
  uint32_t seq_ = 0;
  uint32_t outage_remaining_ = 0;
  uint32_t consecutive_failures_ = 0;
  bool dead_ = false;
};

}  // namespace hardsnap::bus
