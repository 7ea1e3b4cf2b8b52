#include "snapshot/snapshot.h"

#include <algorithm>

#include "common/crc32.h"
#include "common/fnv.h"

namespace hardsnap::snapshot {

using sim::kChunkWords;
using sim::NumChunks;

namespace {

// End-to-end integrity: every serialized blob carries a trailing CRC32
// over everything before it. Computed once at serialization, verified
// FIRST at deserialization — a bit flipped anywhere in transit (lossy
// link, bad storage) fails as kDataLoss before any field is trusted.
void AppendCrc(ByteWriter* w) {
  w->PutU32(Crc32(w->bytes().data(), w->bytes().size()));
}

Status VerifyCrc(const std::vector<uint8_t>& bytes, const char* what) {
  if (bytes.size() < 4)
    return DataLoss(std::string(what) + ": too short for a CRC trailer");
  const size_t body = bytes.size() - 4;
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) stored |= uint32_t{bytes[body + i]} << (8 * i);
  if (stored != Crc32(bytes.data(), body))
    return DataLoss(std::string(what) + ": CRC mismatch (corrupt blob)");
  return Status::Ok();
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

namespace {

// Shared version-byte check for the HSSS/HSSD/HSST containers.
Status CheckFormatVersion(ByteReader* r, const char* what) {
  auto version = r->GetU8();
  if (!version.ok()) return version.status();
  if (version.value() != kStateFormatVersion)
    return InvalidArgument(std::string(what) + ": unsupported format version " +
                           std::to_string(version.value()) + " (expected " +
                           std::to_string(kStateFormatVersion) + ")");
  return Status::Ok();
}

}  // namespace

std::vector<uint8_t> SerializeState(const sim::HardwareState& state) {
  ByteWriter w;
  w.PutU32(0x48535353);  // "HSSS"
  w.PutU8(kStateFormatVersion);
  w.PutU64Vector(state.flops);
  w.PutU32(static_cast<uint32_t>(state.memories.size()));
  for (const auto& mem : state.memories) w.PutU64Vector(mem);
  AppendCrc(&w);
  return w.Take();
}

size_t SerializedStateBytes(const sim::HardwareState& state) {
  // magic u32 + version u8 + flop-vector length u32 + memory-count u32 +
  // CRC32 trailer, one length u32 per memory, 8 bytes per word everywhere.
  return 17 + state.memories.size() * 4 + sim::StateWords(state) * 8;
}

Result<sim::HardwareState> DeserializeState(
    const std::vector<uint8_t>& bytes) {
  HS_RETURN_IF_ERROR(VerifyCrc(bytes, "state blob"));
  ByteReader r(bytes);
  auto magic = r.GetU32();
  if (!magic.ok()) return magic.status();
  if (magic.value() != 0x48535353)
    return InvalidArgument("not a HardSnap state blob");
  HS_RETURN_IF_ERROR(CheckFormatVersion(&r, "state blob"));
  sim::HardwareState st;
  auto flops = r.GetU64Vector();
  if (!flops.ok()) return flops.status();
  st.flops = std::move(flops).value();
  auto nmem = r.GetU32();
  if (!nmem.ok()) return nmem.status();
  st.memories.reserve(nmem.value());
  for (uint32_t i = 0; i < nmem.value(); ++i) {
    auto mem = r.GetU64Vector();
    if (!mem.ok()) return mem.status();
    st.memories.push_back(std::move(mem).value());
  }
  if (r.remaining() != 4)  // exactly the CRC trailer must remain
    return InvalidArgument("trailing bytes in state blob");
  return st;
}

std::vector<uint8_t> SerializeStateDelta(const sim::StateDelta& delta) {
  ByteWriter w;
  w.PutU32(0x48535344);  // "HSSD"
  w.PutU8(kStateFormatVersion);
  w.PutU64(delta.base_hash);
  w.PutU32(kChunkWords);
  w.PutU32(delta.shape.num_flops);
  w.PutU32(static_cast<uint32_t>(delta.shape.mem_depths.size()));
  for (uint32_t d : delta.shape.mem_depths) w.PutU32(d);
  w.PutU32(static_cast<uint32_t>(delta.chunks.size()));
  for (const auto& c : delta.chunks) {
    w.PutU32(c.space);
    w.PutU32(c.index);
    w.PutU64Vector(c.words);
  }
  AppendCrc(&w);
  return w.Take();
}

Result<sim::StateDelta> DeserializeStateDelta(
    const std::vector<uint8_t>& bytes) {
  HS_RETURN_IF_ERROR(VerifyCrc(bytes, "delta blob"));
  ByteReader r(bytes);
  auto magic = r.GetU32();
  if (!magic.ok()) return magic.status();
  if (magic.value() != 0x48535344)
    return InvalidArgument("not a HardSnap delta blob");
  HS_RETURN_IF_ERROR(CheckFormatVersion(&r, "delta blob"));
  sim::StateDelta d;
  auto base = r.GetU64();
  if (!base.ok()) return base.status();
  d.base_hash = base.value();
  auto cw = r.GetU32();
  if (!cw.ok()) return cw.status();
  if (cw.value() != kChunkWords)
    return InvalidArgument("delta blob chunk size mismatch");
  auto nf = r.GetU32();
  if (!nf.ok()) return nf.status();
  d.shape.num_flops = nf.value();
  auto nmem = r.GetU32();
  if (!nmem.ok()) return nmem.status();
  d.shape.mem_depths.reserve(nmem.value());
  for (uint32_t i = 0; i < nmem.value(); ++i) {
    auto depth = r.GetU32();
    if (!depth.ok()) return depth.status();
    d.shape.mem_depths.push_back(depth.value());
  }
  auto nchunks = r.GetU32();
  if (!nchunks.ok()) return nchunks.status();
  d.chunks.reserve(nchunks.value());
  for (uint32_t i = 0; i < nchunks.value(); ++i) {
    sim::DeltaChunk c;
    auto space = r.GetU32();
    if (!space.ok()) return space.status();
    c.space = space.value();
    auto index = r.GetU32();
    if (!index.ok()) return index.status();
    c.index = index.value();
    auto words = r.GetU64Vector();
    if (!words.ok()) return words.status();
    c.words = std::move(words).value();
    // Validate chunk geometry against the declared shape so a corrupt
    // blob fails here rather than scribbling on a target later.
    HS_RETURN_IF_ERROR(d.shape.Check(c));
    d.chunks.push_back(std::move(c));
  }
  if (r.remaining() != 4)  // exactly the CRC trailer must remain
    return InvalidArgument("trailing bytes in delta blob");
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
  const SnapshotId id = next_id_++;
  Stored s;
  HS_RETURN_IF_ERROR(ApplyDelta(it->second, delta, std::move(label), &s));
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
  std::vector<SnapshotId> ids;
  ids.reserve(snapshots_.size());
  for (const auto& [id, s] : snapshots_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Result<std::vector<uint8_t>> SnapshotStore::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SnapshotId> ids;
  ids.reserve(snapshots_.size());
  for (const auto& [id, s] : snapshots_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  ByteWriter w;
  w.PutU32(0x48535354);  // "HSST"
  w.PutU8(kStateFormatVersion);
  w.PutU64(shape_);
  w.PutU64(next_id_);
  w.PutU32(static_cast<uint32_t>(ids.size()));
  const Stored* prev = nullptr;
  for (SnapshotId id : ids) {
    const Stored& s = snapshots_.at(id);
    w.PutU64(id);
    w.PutString(s.label);
    // Delta against the previous snapshot when shapes allow; the first
    // snapshot (and any shape change) ships full. The delta's base_hash
    // chains each snapshot to its predecessor, so a corrupt link fails at
    // Restore instead of silently reconstructing the wrong content.
    if (prev != nullptr && prev->shape == s.shape) {
      w.PutU8(1);
      std::vector<uint8_t> blob = SerializeStateDelta(DiffLocked(*prev, s));
      w.PutU32(static_cast<uint32_t>(blob.size()));
      w.PutBytes(blob.data(), blob.size());
    } else {
      w.PutU8(0);
      std::vector<uint8_t> blob = SerializeState(Assemble(s));
      w.PutU32(static_cast<uint32_t>(blob.size()));
      w.PutBytes(blob.data(), blob.size());
    }
    prev = &s;
  }
  AppendCrc(&w);
  return w.Take();
}

Status SnapshotStore::Restore(const std::vector<uint8_t>& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  snapshots_.clear();
  intern_.clear();
  total_bytes_ = 0;

  Status st = [&]() -> Status {
    HS_RETURN_IF_ERROR(VerifyCrc(bytes, "store blob"));
  ByteReader r(bytes);
  auto magic = r.GetU32();
  if (!magic.ok()) return magic.status();
  if (magic.value() != 0x48535354)
    return InvalidArgument("not a HardSnap store blob");
  HS_RETURN_IF_ERROR(CheckFormatVersion(&r, "store blob"));
  auto shape = r.GetU64();
  if (!shape.ok()) return shape.status();
  // A store bound to a concrete design (nonzero digest) must not ingest
  // snapshots captured from a different one; digest 0 means "unspecified"
  // and adopts the blob's shape (the persistence layer's stores).
  if (shape_ != 0 && shape.value() != 0 && shape.value() != shape_)
    return InvalidArgument("store blob: shape digest mismatch");
  auto next_id = r.GetU64();
  if (!next_id.ok()) return next_id.status();
  auto count = r.GetU32();
  if (!count.ok()) return count.status();

  shape_ = shape.value();
  sim::HardwareState prev_state;
  bool have_prev = false;
  SnapshotId max_id = 0;
  for (uint32_t i = 0; i < count.value(); ++i) {
    auto id = r.GetU64();
    if (!id.ok()) return id.status();
    auto label = r.GetString();
    if (!label.ok()) return label.status();
    auto encoding = r.GetU8();
    if (!encoding.ok()) return encoding.status();
    auto blob_len = r.GetU32();
    if (!blob_len.ok()) return blob_len.status();
    if (r.remaining() < blob_len.value())
      return OutOfRange("store blob: snapshot payload truncated");
    std::vector<uint8_t> blob(blob_len.value());
    HS_RETURN_IF_ERROR(r.GetBytes(blob.data(), blob.size()));

    sim::HardwareState state;
    if (encoding.value() == 0) {
      HS_ASSIGN_OR_RETURN(state, DeserializeState(blob));
    } else if (encoding.value() == 1) {
      if (!have_prev)
        return InvalidArgument("store blob: delta with no predecessor");
      HS_ASSIGN_OR_RETURN(sim::StateDelta delta, DeserializeStateDelta(blob));
      state = prev_state;
      HS_RETURN_IF_ERROR(sim::ApplyDeltaToState(&state, delta));
    } else {
      return InvalidArgument("store blob: unknown snapshot encoding");
    }

    if (snapshots_.count(id.value()))
      return InvalidArgument("store blob: duplicate snapshot id");
    Stored s = MakeStored(state, std::move(label).value());
    total_bytes_ += s.logical_words * 8;
    snapshots_.emplace(id.value(), std::move(s));
    max_id = std::max(max_id, id.value());
    prev_state = std::move(state);
    have_prev = true;
  }
  if (r.remaining() != 4)
    return InvalidArgument("trailing bytes in store blob");
  if (next_id.value() <= max_id && count.value() > 0)
    return InvalidArgument("store blob: id counter behind live snapshots");
  next_id_ = std::max<SnapshotId>(next_id.value(), 1);
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
