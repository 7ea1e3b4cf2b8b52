#include "snapshot/snapshot.h"

#include <algorithm>

#include "common/fnv.h"

namespace hardsnap::snapshot {

using sim::kChunkWords;
using sim::NumChunks;

namespace {

// Every blob is sealed in the shared envelope: a bit flipped anywhere in
// transit (lossy link, bad storage) fails as kDataLoss before any field is
// trusted, and a future layout fails as kInvalidArgument.
constexpr Envelope kStateEnvelope{0x48535353, kStateFormatVersion,
                                  "state blob"};  // "HSSS"
constexpr Envelope kDeltaEnvelope{0x48535344, kStateFormatVersion,
                                  "delta blob"};  // "HSSD"
constexpr Envelope kStoreEnvelope{0x48535354, kStateFormatVersion,
                                  "store blob"};  // "HSST"

template <class Io, RecordOf<sim::HardwareState> T>
void Xfer(Io& io, T& st) {
  io.U64s(st.flops);
  io.List(st.memories, 4, [](auto& io, auto& mem) { io.U64s(mem); });
}

template <class Io, RecordOf<sim::StateDelta> T>
void Xfer(Io& io, T& d) {
  io.U64(d.base_hash);
  uint32_t chunk_words = kChunkWords;
  io.U32(chunk_words);
  io.Require(chunk_words == kChunkWords, "delta blob chunk size mismatch");
  io.U32(d.shape.num_flops);
  io.List(d.shape.mem_depths, 4, [](auto& io, auto& depth) { io.U32(depth); });
  io.List(d.chunks, 12, [&](auto& io, auto& c) {
    io.U32(c.space);
    io.U32(c.index);
    io.U64s(c.words);
    // Chunk geometry against the declared shape, so a corrupt blob fails
    // here rather than scribbling on a target later.
    io.Check([&] { return d.shape.Check(c); });
  });
}

// The HSST body: the store's shape digest and id counter, then every
// snapshot in id order, each an HSSS blob or an HSSD delta against the
// entry before it.
struct StoreImage {
  static constexpr uint8_t kFull = 0;
  static constexpr uint8_t kDelta = 1;
  struct Entry {
    SnapshotId id = kNoSnapshot;
    std::string label;
    uint8_t encoding = kFull;
    std::vector<uint8_t> blob;
  };
  uint64_t shape = 0;
  uint64_t next_id = 0;
  std::vector<Entry> entries;
};

template <class Io, RecordOf<StoreImage> T>
void Xfer(Io& io, T& img) {
  io.U64(img.shape);
  io.U64(img.next_id);
  io.List(img.entries, 17, [](auto& io, auto& e) {
    io.U64(e.id);
    io.Str(e.label);
    io.U8In(e.encoding, StoreImage::kFull, StoreImage::kDelta,
            "store blob: unknown snapshot encoding");
    io.Blob(e.blob);
  });
}

}  // namespace

uint64_t StateShapeDigest(const rtl::Design& design) {
  // FNV-1a over the flop widths and memory geometry.
  Fnv1a h;
  h.Mix(design.flops().size());
  for (const auto& ff : design.flops()) h.Mix(design.signal(ff.q).width);
  h.Mix(design.memories().size());
  for (const auto& m : design.memories()) {
    h.Mix(m.width);
    h.Mix(m.depth);
  }
  return h.digest();
}

std::vector<uint8_t> SerializeState(const sim::HardwareState& state) {
  return kStateEnvelope.Seal([&](ByteWriter& w) { Xfer(w, state); });
}

size_t SerializedStateBytes(const sim::HardwareState& state) {
  // magic u32 + version u8 + flop-vector length u32 + memory-count u32 +
  // CRC32 trailer, one length u32 per memory, 8 bytes per word everywhere.
  return 17 + state.memories.size() * 4 + sim::StateWords(state) * 8;
}

Result<sim::HardwareState> DeserializeState(
    const std::vector<uint8_t>& bytes) {
  sim::HardwareState st;
  HS_RETURN_IF_ERROR(
      kStateEnvelope.Open(bytes, [&](ByteReader& r) { Xfer(r, st); }));
  return st;
}

std::vector<uint8_t> SerializeStateDelta(const sim::StateDelta& delta) {
  return kDeltaEnvelope.Seal([&](ByteWriter& w) { Xfer(w, delta); });
}

Result<sim::StateDelta> DeserializeStateDelta(
    const std::vector<uint8_t>& bytes) {
  sim::StateDelta d;
  HS_RETURN_IF_ERROR(
      kDeltaEnvelope.Open(bytes, [&](ByteReader& r) { Xfer(r, d); }));
  return d;
}

namespace {

uint64_t HashChunk(const std::vector<uint64_t>& words) {
  Fnv1a h;
  for (uint64_t w : words) h.Mix(w);
  return h.digest();
}

}  // namespace

ChunkPtr SnapshotStore::Intern(std::vector<uint64_t> words) {
  const uint64_t h = HashChunk(words);
  auto& bucket = intern_[h];
  for (auto it = bucket.begin(); it != bucket.end();) {
    if (ChunkPtr live = it->lock()) {
      if (*live == words) {
        ++stats_.chunks_shared;
        stats_.bytes_shared += words.size() * 8;
        return live;
      }
      ++it;
    } else {
      it = bucket.erase(it);  // last owner dropped; prune the entry
    }
  }
  ++stats_.chunks_stored;
  stats_.bytes_copied += words.size() * 8;
  auto chunk = std::make_shared<const std::vector<uint64_t>>(std::move(words));
  bucket.push_back(chunk);
  return chunk;
}

SnapshotStore::Stored SnapshotStore::MakeStored(const sim::HardwareState& state,
                                                std::string label) {
  sim::StateDelta full = sim::FullDelta(state);
  Stored s{std::move(label), std::move(full.shape), {},
           sim::HashState(state), sim::StateWords(state)};
  s.chunks.reserve(full.chunks.size());
  for (auto& c : full.chunks) s.chunks.push_back(Intern(std::move(c.words)));
  return s;
}

sim::HardwareState SnapshotStore::Assemble(const Stored& s) {
  sim::HardwareState st;
  st.memories.resize(s.shape.mem_depths.size());
  size_t ci = 0;
  for (uint32_t sp = 0; sp < s.shape.num_spaces(); ++sp) {
    auto& words = sim::Space(st, sp);
    words.reserve(s.shape.SpaceWords(sp));
    for (uint32_t c = 0; c < NumChunks(s.shape.SpaceWords(sp)); ++c, ++ci)
      words.insert(words.end(), s.chunks[ci]->begin(), s.chunks[ci]->end());
  }
  return st;
}

Status SnapshotStore::InstallLocked(SnapshotId id, Stored s, const char* op) {
  auto [it, inserted] = snapshots_.try_emplace(id);
  Stored old = std::move(it->second);  // empty for a new id
  total_bytes_ += s.logical_words * 8;
  total_bytes_ -= old.logical_words * 8;
  it->second = std::move(s);
  if (max_bytes_ == 0) return Status::Ok();
  const size_t resident = ResidentBytesLocked();
  if (resident <= max_bytes_) return Status::Ok();
  // Roll back: chunks only the rejected content held drop to refcount zero.
  total_bytes_ += old.logical_words * 8;
  total_bytes_ -= it->second.logical_words * 8;
  if (inserted)
    snapshots_.erase(it);
  else
    it->second = std::move(old);
  return ResourceExhausted(std::string(op) +
                           " would exceed the snapshot store byte cap (" +
                           std::to_string(resident) + " > " +
                           std::to_string(max_bytes_) + " bytes)");
}

Result<SnapshotId> SnapshotStore::Put(const sim::HardwareState& state,
                                      std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  const SnapshotId id = next_id_++;
  HS_RETURN_IF_ERROR(
      InstallLocked(id, MakeStored(state, std::move(label)), "Put"));
  return id;
}

Result<Snapshot> SnapshotStore::Get(SnapshotId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = snapshots_.find(id);
  if (it == snapshots_.end())
    return NotFound("snapshot " + std::to_string(id) + " does not exist");
  return Snapshot{id, shape_, it->second.label, Assemble(it->second)};
}

Status SnapshotStore::Update(SnapshotId id, const sim::HardwareState& state) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = snapshots_.find(id);
  if (it == snapshots_.end())
    return NotFound("snapshot " + std::to_string(id) + " does not exist");
  return InstallLocked(id, MakeStored(state, it->second.label), "Update");
}

Status SnapshotStore::Drop(SnapshotId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = snapshots_.find(id);
  if (it == snapshots_.end())
    return NotFound("snapshot " + std::to_string(id) + " does not exist");
  total_bytes_ -= it->second.logical_words * 8;
  snapshots_.erase(it);
  return Status::Ok();
}

Status SnapshotStore::ApplyDelta(const Stored& base,
                                 const sim::StateDelta& delta,
                                 std::string label, Stored* out) {
  if (delta.shape != base.shape)
    return InvalidArgument("delta shape does not match base snapshot");
  if (delta.base_hash != 0 && delta.base_hash != base.content_hash)
    return InvalidArgument("delta base is not this snapshot's content");
  HS_RETURN_IF_ERROR(delta.Check());

  // Structural sharing: O(chunks) pointer copies, then the changed chunks.
  Stored s{std::move(label), base.shape, base.chunks, 0, base.logical_words};
  for (const auto& c : delta.chunks)
    s.chunks[s.shape.FirstChunk(c.space) + c.index] = Intern(c.words);
  s.content_hash = sim::HashState(Assemble(s));
  *out = std::move(s);
  return Status::Ok();
}

Result<SnapshotId> SnapshotStore::PutDelta(SnapshotId base,
                                           const sim::StateDelta& delta,
                                           std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = snapshots_.find(base);
  if (it == snapshots_.end())
    return NotFound("base snapshot " + std::to_string(base) +
                    " does not exist");
  Stored s;
  HS_RETURN_IF_ERROR(ApplyDelta(it->second, delta, std::move(label), &s));
  const SnapshotId id = next_id_++;  // a rejected delta takes no id
  HS_RETURN_IF_ERROR(InstallLocked(id, std::move(s), "PutDelta"));
  return id;
}

Status SnapshotStore::UpdateDelta(SnapshotId id, SnapshotId base,
                                  const sim::StateDelta& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  auto base_it = snapshots_.find(base);
  if (base_it == snapshots_.end())
    return NotFound("base snapshot " + std::to_string(base) +
                    " does not exist");
  auto it = snapshots_.find(id);
  if (it == snapshots_.end())
    return NotFound("snapshot " + std::to_string(id) + " does not exist");
  Stored s;
  HS_RETURN_IF_ERROR(
      ApplyDelta(base_it->second, delta, it->second.label, &s));
  return InstallLocked(id, std::move(s), "UpdateDelta");
}

Result<sim::StateDelta> SnapshotStore::DeltaBetween(SnapshotId base,
                                                    SnapshotId next) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto bit = snapshots_.find(base);
  if (bit == snapshots_.end())
    return NotFound("base snapshot " + std::to_string(base) +
                    " does not exist");
  auto nit = snapshots_.find(next);
  if (nit == snapshots_.end())
    return NotFound("snapshot " + std::to_string(next) + " does not exist");
  const Stored& b = bit->second;
  const Stored& n = nit->second;
  if (b.shape != n.shape)
    return InvalidArgument("snapshots have different shapes");

  return DiffLocked(b, n);
}

sim::StateDelta SnapshotStore::DiffLocked(const Stored& b,
                                          const Stored& n) const {
  sim::StateDelta d{b.content_hash, n.shape, {}};
  size_t ci = 0;
  for (uint32_t sp = 0; sp < n.shape.num_spaces(); ++sp) {
    for (uint32_t c = 0; c < NumChunks(n.shape.SpaceWords(sp)); ++c, ++ci) {
      if (b.chunks[ci] == n.chunks[ci]) continue;  // structurally shared
      if (*b.chunks[ci] == *n.chunks[ci]) continue;
      d.chunks.push_back({sp, c, *n.chunks[ci]});
    }
  }
  return d;
}

Result<uint64_t> SnapshotStore::ContentHash(SnapshotId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = snapshots_.find(id);
  if (it == snapshots_.end())
    return NotFound("snapshot " + std::to_string(id) + " does not exist");
  return it->second.content_hash;
}

size_t SnapshotStore::ResidentBytesLocked() const {
  size_t bytes = 0;
  std::unordered_map<const void*, bool> seen;
  seen.reserve(snapshots_.size() * 8);
  for (const auto& [id, s] : snapshots_) {
    for (const auto& chunk : s.chunks) {
      if (seen.emplace(chunk.get(), true).second) bytes += chunk->size() * 8;
    }
  }
  return bytes;
}

size_t SnapshotStore::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ResidentBytesLocked();
}

std::vector<SnapshotId> SnapshotStore::Ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  return IdsLocked();
}

std::vector<SnapshotId> SnapshotStore::IdsLocked() const {
  std::vector<SnapshotId> ids;
  ids.reserve(snapshots_.size());
  for (const auto& [id, s] : snapshots_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Result<std::vector<uint8_t>> SnapshotStore::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  StoreImage img{shape_, next_id_, {}};
  const Stored* prev = nullptr;
  for (SnapshotId id : IdsLocked()) {
    const Stored& s = snapshots_.at(id);
    // Delta against the previous snapshot when shapes allow; the first
    // snapshot (and any shape change) ships full. The delta's base_hash
    // chains each snapshot to its predecessor, so a corrupt link fails at
    // Restore instead of silently reconstructing the wrong content.
    if (prev != nullptr && prev->shape == s.shape)
      img.entries.push_back({id, s.label, StoreImage::kDelta,
                             SerializeStateDelta(DiffLocked(*prev, s))});
    else
      img.entries.push_back(
          {id, s.label, StoreImage::kFull, SerializeState(Assemble(s))});
    prev = &s;
  }
  return kStoreEnvelope.Seal([&](ByteWriter& w) { Xfer(w, img); });
}

Status SnapshotStore::Restore(const std::vector<uint8_t>& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  snapshots_.clear();
  intern_.clear();
  total_bytes_ = 0;

  Status st = [&]() -> Status {
    StoreImage img;
    HS_RETURN_IF_ERROR(
        kStoreEnvelope.Open(bytes, [&](ByteReader& r) { Xfer(r, img); }));
    // A store bound to a concrete design (nonzero digest) must not ingest
    // snapshots captured from a different one; digest 0 means "unspecified"
    // and adopts the blob's shape (the persistence layer's stores).
    if (shape_ != 0 && img.shape != 0 && img.shape != shape_)
      return InvalidArgument("store blob: shape digest mismatch");
    shape_ = img.shape;
    sim::HardwareState state;  // the previous entry's, which a delta patches
    SnapshotId max_id = 0;
    for (StoreImage::Entry& e : img.entries) {
      if (e.encoding == StoreImage::kFull) {
        HS_ASSIGN_OR_RETURN(state, DeserializeState(e.blob));
      } else {
        if (&e == &img.entries.front())
          return InvalidArgument("store blob: delta with no predecessor");
        HS_ASSIGN_OR_RETURN(sim::StateDelta delta,
                            DeserializeStateDelta(e.blob));
        HS_RETURN_IF_ERROR(sim::ApplyDeltaToState(&state, delta));
      }
      if (snapshots_.count(e.id))
        return InvalidArgument("store blob: duplicate snapshot id");
      Stored s = MakeStored(state, std::move(e.label));
      total_bytes_ += s.logical_words * 8;
      snapshots_.emplace(e.id, std::move(s));
      max_id = std::max(max_id, e.id);
    }
    if (img.next_id <= max_id && !img.entries.empty())
      return InvalidArgument("store blob: id counter behind live snapshots");
    next_id_ = std::max<SnapshotId>(img.next_id, 1);
    return Status::Ok();
  }();

  if (!st.ok()) {  // never leave a half-loaded store behind
    snapshots_.clear();
    intern_.clear();
    total_bytes_ = 0;
    next_id_ = 1;
  }
  return st;
}

}  // namespace hardsnap::snapshot
