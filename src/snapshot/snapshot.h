// Snapshot store and serialization (paper Sec. III-C, "Snapshotting
// Controller ... in charge of saving/restoring snapshots that are
// identified by a unique identifier").
//
// A Snapshot couples the hardware architectural state with bookkeeping:
// which design it belongs to (shape digest, so restoring into the wrong
// design fails loudly), when it was taken, and an optional label. The
// store hands out monotonically increasing SnapshotIds; id 0 is reserved
// as "no snapshot" (the paper's initial state has "no corresponding
// hardware snapshot").
//
// Internally the store is a content-addressed block store (blksnap-style):
// every state is held only as a vector of refcounted immutable chunks
// (sim::kChunkWords words each), interned by content hash, so sibling
// snapshots that differ in a few chunks share the rest. Full states enter
// through Put/Update and leave through Get, which assembles a copy from the
// chunks; the delta API (PutDelta/UpdateDelta/DeltaBetween) creates and
// extracts snapshots in O(changed chunks). Every ingest goes through one
// install step that enforces the byte cap.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/serde.h"
#include "common/status.h"
#include "rtl/ir.h"
#include "sim/delta.h"
#include "sim/simulator.h"

namespace hardsnap::snapshot {

using SnapshotId = uint64_t;
inline constexpr SnapshotId kNoSnapshot = 0;

// Wire-format version shared by the HSSS (full state), HSSD (delta) and
// HSST (whole-store) containers. Bumped on any layout change; the
// deserializers reject unknown versions with kInvalidArgument instead of
// misparsing a future layout.
inline constexpr uint8_t kStateFormatVersion = 1;

// Stable digest of a design's state shape (flop widths + memory geometry).
// Two designs with the same digest have interchangeable HardwareStates.
uint64_t StateShapeDigest(const rtl::Design& design);

struct Snapshot {
  SnapshotId id = kNoSnapshot;
  uint64_t shape_digest = 0;
  std::string label;
  sim::HardwareState state;
};

// Flat binary encoding (for persistence and for modeling transfer sizes).
std::vector<uint8_t> SerializeState(const sim::HardwareState& state);
Result<sim::HardwareState> DeserializeState(const std::vector<uint8_t>& bytes);

// Exact byte count SerializeState(state) would produce, computed
// arithmetically from the state geometry (magic, length-prefixed flop
// vector, memory count, length-prefixed memory vectors) — so hot paths
// can account "what a full ship would cost" without serializing.
size_t SerializedStateBytes(const sim::HardwareState& state);

// Delta encoding: only the chunks by which a state differs from a base
// the receiver already holds (E6 multi-target transfer ships this instead
// of the full state). Deserialization validates the chunk geometry; apply
// with sim::ApplyDeltaToState against the receiver's copy of the base.
std::vector<uint8_t> SerializeStateDelta(const sim::StateDelta& delta);
Result<sim::StateDelta> DeserializeStateDelta(const std::vector<uint8_t>& bytes);

// Refcounted immutable chunk payload (the store's unit of sharing).
using ChunkPtr = std::shared_ptr<const std::vector<uint64_t>>;

// In-memory snapshot store. Snapshots are immutable once taken (Update /
// UpdateDelta rebind the id to new content, they never mutate chunks that
// another snapshot may share).
//
// Thread safety: every public operation holds an internal mutex, so one
// store may be shared by parallel campaign workers. Get returns a value,
// so what a caller holds never changes under it; but Update/UpdateDelta/
// Drop of the SAME id must not race a reader of that id (the id-to-owner
// discipline is the caller's; each campaign worker owns its own id range).
class SnapshotStore {
 public:
  // Cumulative accounting of chunk ingestion (monotonic; the dedup ratio
  // of a workload is bytes_shared / (bytes_copied + bytes_shared)).
  struct Stats {
    uint64_t chunks_stored = 0;   // chunks that had to be copied in
    uint64_t chunks_shared = 0;   // chunks satisfied by an existing copy
    uint64_t bytes_copied = 0;
    uint64_t bytes_shared = 0;
  };

  explicit SnapshotStore(uint64_t shape_digest) : shape_(shape_digest) {
    snapshots_.reserve(64);
  }

  // Stores `state` under a new id. Fails with kResourceExhausted when a
  // byte cap is set (SetMaxBytes) and the resident chunks would exceed it.
  Result<SnapshotId> Put(const sim::HardwareState& state,
                         std::string label = "");

  // The snapshot, assembled from its chunks. The result is the caller's
  // own copy: later store operations never change it.
  Result<Snapshot> Get(SnapshotId id) const;

  // Replace the state of an existing snapshot (the paper's UpdateState
  // overrides the snapshot associated with S_previous).
  Status Update(SnapshotId id, const sim::HardwareState& state);

  Status Drop(SnapshotId id);

  // --- delta API (O(changed chunks)) -------------------------------------
  // New snapshot whose content is `base`'s content with `delta` applied;
  // unchanged chunks are shared with the base. delta.base_hash, when set,
  // must match the base's content hash.
  Result<SnapshotId> PutDelta(SnapshotId base, const sim::StateDelta& delta,
                              std::string label = "");
  // Rebind `id` to `base`'s content with `delta` applied (the delta-aware
  // UpdateState: the hardware reported how the state moved since `base`).
  Status UpdateDelta(SnapshotId id, SnapshotId base,
                     const sim::StateDelta& delta);
  // The chunks by which `next` differs from `base`, bound to `base` by its
  // content hash. Chunks the two snapshots share structurally are skipped
  // by pointer comparison, so DeltaBetween(id, id) is the empty delta that
  // reverts a target to `id`.
  Result<sim::StateDelta> DeltaBetween(SnapshotId base, SnapshotId next) const;
  // Content hash of a stored snapshot (sim::HashState of its state).
  Result<uint64_t> ContentHash(SnapshotId id) const;

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snapshots_.size();
  }
  uint64_t shape_digest() const { return shape_; }

  // Live snapshot ids, ascending.
  std::vector<SnapshotId> Ids() const;

  // --- whole-store serde (HSST container) --------------------------------
  // Every snapshot with its id and label, first one as a full HSSS blob,
  // later ones as HSSD deltas against their predecessor where shapes
  // allow. Restore replaces this store's entire contents (including
  // shape digest and the id counter) with the serialized image; on any
  // error the store is left empty rather than half-loaded.
  Result<std::vector<uint8_t>> Serialize() const;
  Status Restore(const std::vector<uint8_t>& bytes);

  // --- memory cap --------------------------------------------------------
  // Caps ResidentBytes. An ingest (Put / Update / PutDelta / UpdateDelta)
  // that would exceed it is rolled back and fails with kResourceExhausted
  // instead of OOMing. 0 = unlimited.
  void SetMaxBytes(size_t max_bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    max_bytes_ = max_bytes;
  }
  size_t max_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_bytes_;
  }

  // Total stored architectural bytes as the flat representation would
  // occupy (logical capacity accounting; O(1) running counter).
  size_t TotalBytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_bytes_;
  }
  // Bytes actually resident after structural sharing (walks the store).
  size_t ResidentBytes() const;

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  struct Stored {
    std::string label;
    sim::StateShape shape;
    std::vector<ChunkPtr> chunks;  // in shape.FirstChunk order
    uint64_t content_hash = 0;
    size_t logical_words = 0;
  };

  ChunkPtr Intern(std::vector<uint64_t> words);
  Stored MakeStored(const sim::HardwareState& state, std::string label);
  // The flat state a stored chunk vector describes.
  static sim::HardwareState Assemble(const Stored& s);
  // Applies `delta` to a copy of `base`'s chunk vector; validates
  // geometry and base_hash. On success fills `out`.
  Status ApplyDelta(const Stored& base, const sim::StateDelta& delta,
                    std::string label, Stored* out);
  // Binds `id` (new, or rebound) to `s`; when the resident chunks then
  // exceed the byte cap, restores the previous binding and fails.
  Status InstallLocked(SnapshotId id, Stored s, const char* op);
  // DeltaBetween's body without the lock (Serialize runs under it).
  sim::StateDelta DiffLocked(const Stored& b, const Stored& n) const;
  size_t ResidentBytesLocked() const;
  std::vector<SnapshotId> IdsLocked() const;

  // Serializes all public operations (private helpers run under it).
  mutable std::mutex mu_;
  uint64_t shape_;
  SnapshotId next_id_ = 1;
  std::unordered_map<SnapshotId, Stored> snapshots_;
  // Content-hash interning: hash -> live chunks with that hash (weak, so
  // dropping the last snapshot using a chunk frees it).
  std::unordered_map<uint64_t,
                     std::vector<std::weak_ptr<const std::vector<uint64_t>>>>
      intern_;
  size_t total_bytes_ = 0;
  size_t max_bytes_ = 0;  // 0 = unlimited
  Stats stats_;
};

}  // namespace hardsnap::snapshot
