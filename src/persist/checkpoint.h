// HSCP checkpoint container + journal record schema.
//
// A checkpoint is the compacted durable image of a running campaign: the
// per-worker progress frontier (credited execs + RNG stream digest — with
// the pure-function replay contract these two values ARE the fuzzer's
// resume point), the shared corpus (edges, offered inputs, acknowledged
// findings), the refcounted SnapshotStore holding each worker's harness
// snapshot (serialized via the existing HSSS/HSSD wire formats: first
// snapshot full, later ones as deltas against the previous), and — for
// symbolic-execution portfolios — the completed per-worker reports.
//
// Layout (every integer little-endian, container CRC32 trailer):
//
//   u32 magic 'HSCP' | u8 version | u8 kind | u64 fingerprint
//   u32 workers | u64vec worker_done | u64vec worker_rng_digest
//   u64vec edges | offers | findings | store blob | symex reports | crc32
//
// The journal (persist/journal.h) carries incremental records with the
// same field encodings: one Xfer field list per record (common/serde.h)
// serves the checkpoint, the records and their decoding. ApplyRecord
// decodes a whole record, then folds it into a CampaignDurableState
// idempotently, so replaying a journal over a checkpoint that already
// contains some of its records cannot double-count anything.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "campaign/shared_corpus.h"
#include "common/fnv.h"
#include "common/serde.h"
#include "common/status.h"
#include "symex/executor.h"

namespace hardsnap::persist {

inline constexpr uint32_t kCheckpointMagic = 0x48534350;  // "HSCP"
inline constexpr uint8_t kCheckpointFormatVersion = 1;

inline constexpr uint8_t kCampaignKindFuzz = 1;
inline constexpr uint8_t kCampaignKindSymex = 2;

// An input offered to the shared corpus, with the worker that found it.
struct DurableOffer {
  unsigned worker = 0;
  std::vector<uint8_t> input;
};

// In-memory mirror of everything durable. Recovery produces one (last
// valid checkpoint + journal replay); compaction serializes one.
struct CampaignDurableState {
  uint8_t kind = kCampaignKindFuzz;
  uint64_t fingerprint = 0;
  std::vector<uint64_t> worker_done;        // credited execs per worker
  std::vector<uint64_t> worker_rng_digest;  // RNG lane digest at `done`
  std::set<uint64_t> edges;
  std::vector<DurableOffer> offers;
  std::set<std::vector<uint8_t>> seen_inputs;     // offer dedup (derived)
  std::vector<campaign::CampaignFinding> findings;
  std::vector<uint8_t> store_blob;          // serialized SnapshotStore
  std::map<uint32_t, symex::Report> symex_reports;  // completed workers
};

// One acknowledgment-point record: everything worker `worker` learned in
// the batch that ended at `done` credited execs.
struct FuzzBatchAck {
  uint32_t worker = 0;
  uint64_t done = 0;
  uint64_t rng_digest = 0;
  std::vector<uint64_t> fresh_edges;
  std::vector<std::vector<uint8_t>> new_inputs;
  std::vector<campaign::CampaignFinding> new_findings;
};

// --- container serde -------------------------------------------------------

std::vector<uint8_t> SerializeCheckpoint(const CampaignDurableState& state);
Result<CampaignDurableState> DeserializeCheckpoint(
    const std::vector<uint8_t>& bytes);

// --- journal record serde --------------------------------------------------

std::vector<uint8_t> SerializeFuzzAckRecord(const FuzzBatchAck& ack);
std::vector<uint8_t> SerializeSymexReportRecord(uint32_t worker,
                                                const symex::Report& report);

// Folds one journal record into `state`, idempotently: replaying a record
// the state already contains changes nothing. Records for workers outside
// [0, worker_done.size()) are rejected (a valid CRC does not make a
// record meaningful for this campaign).
Status ApplyRecord(const std::vector<uint8_t>& record,
                   CampaignDurableState* state);

// FNV-1a accumulator for campaign option fingerprints: a resume against a
// directory written under different options must fail loudly instead of
// silently mixing two incompatible campaigns.
using Fingerprint = Fnv1a;

}  // namespace hardsnap::persist
