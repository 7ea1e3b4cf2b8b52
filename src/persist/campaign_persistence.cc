#include "persist/campaign_persistence.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "persist/crash_point.h"
#include "persist/fs_util.h"
#include "sim/simulator.h"

namespace hardsnap::persist {

namespace {

constexpr char kCheckpointPrefix[] = "checkpoint-";
constexpr char kCheckpointSuffix[] = ".hscp";

// checkpoint-<seq>.hscp -> seq; false for any other name.
bool ParseCheckpointName(const std::string& name, uint64_t* seq) {
  const std::string prefix = kCheckpointPrefix;
  const std::string suffix = kCheckpointSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
    return false;
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return false;
  uint64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *seq = v;
  return true;
}

std::string CheckpointPath(const std::string& dir, uint64_t seq) {
  return dir + "/" + kCheckpointPrefix + std::to_string(seq) +
         kCheckpointSuffix;
}

// Accumulates the wall time a scope spends into *sink on exit — used to
// meter the durability path (PersistStats::durability_seconds).
class DurabilityTimer {
 public:
  explicit DurabilityTimer(double* sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~DurabilityTimer() {
    *sink_ += std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
  }

 private:
  double* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

Result<std::unique_ptr<CampaignPersistence>> CampaignPersistence::Open(
    const PersistOptions& options, uint8_t kind, uint64_t fingerprint,
    uint32_t workers) {
  if (options.dir.empty())
    return InvalidArgument("persistence directory must not be empty");
  if (workers == 0) return InvalidArgument("campaign needs at least 1 worker");
  HS_RETURN_IF_ERROR(EnsureDir(options.dir));

  std::unique_ptr<CampaignPersistence> p(
      new CampaignPersistence(options, options.dir));

  // Sweep the directory: collect checkpoints, drop stale tmp files (an
  // interrupted atomic write leaves them; they were never acknowledged).
  HS_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(options.dir));
  std::vector<uint64_t> seqs;
  for (const std::string& name : names) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      (void)RemoveFile(options.dir + "/" + name);
      continue;
    }
    uint64_t seq = 0;
    if (ParseCheckpointName(name, &seq)) seqs.push_back(seq);
  }
  std::sort(seqs.rbegin(), seqs.rend());  // newest first

  // Newest checkpoint that deserializes cleanly wins; corrupt ones are
  // quarantined (renamed, never read again) and the next older one tried.
  bool have_checkpoint = false;
  for (uint64_t seq : seqs) {
    const std::string path = CheckpointPath(options.dir, seq);
    HS_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
    Result<CampaignDurableState> state = DeserializeCheckpoint(bytes);
    if (state.ok()) {
      p->state_ = std::move(state).value();
      p->next_checkpoint_seq_ = seq + 1;
      have_checkpoint = true;
      break;
    }
    HS_RETURN_IF_ERROR(RenameFile(path, path + ".quarantined"));
    HS_RETURN_IF_ERROR(SyncDir(options.dir));
    ++p->stats_.quarantined_checkpoints;
  }

  if (have_checkpoint) {
    if (p->state_.kind != kind)
      return InvalidArgument(
          "persistence directory holds a different campaign kind");
    if (p->state_.fingerprint != fingerprint)
      return InvalidArgument(
          "refusing to resume: campaign options changed (fingerprint "
          "mismatch) — resume with the original seed/workers/options");
    if (p->state_.worker_done.size() != workers)
      return InvalidArgument("refusing to resume: worker count changed");
    if (!p->state_.store_blob.empty())
      HS_RETURN_IF_ERROR(p->store_.Restore(p->state_.store_blob));
    p->resumed_ = true;
  } else {
    p->state_.kind = kind;
    p->state_.fingerprint = fingerprint;
    p->state_.worker_done.assign(workers, 0);
    p->state_.worker_rng_digest.assign(workers, 0);
  }

  // Replay the journal over the checkpoint. ApplyRecord is idempotent, so
  // records the checkpoint already absorbed (crash between checkpoint
  // rename and journal reset) fold in as no-ops.
  HS_ASSIGN_OR_RETURN(JournalReplay replay, p->journal_.Replay());
  for (const auto& record : replay.records)
    HS_RETURN_IF_ERROR(ApplyRecord(record, &p->state_));
  p->stats_.recovered_records = replay.records.size();
  p->stats_.truncated_tail_bytes = replay.truncated_bytes;
  if (!replay.records.empty()) p->resumed_ = true;

  if (options.resume_required && !p->resumed_)
    return NotFound("no campaign state to resume in '" + options.dir + "'");
  return p;
}

Status CampaignPersistence::AckFuzzBatch(const FuzzBatchAck& ack) {
  std::lock_guard<std::mutex> lock(mu_);
  DurabilityTimer t(&stats_.durability_seconds);
  const std::vector<uint8_t> record = SerializeFuzzAckRecord(ack);
  // Same fold for live acks and recovery replay: one code path, one
  // semantics (idempotent), no drift between the two.
  HS_RETURN_IF_ERROR(ApplyRecord(record, &state_));
  HS_RETURN_IF_ERROR(journal_.Append(record, options_.sync));
  if (++records_since_checkpoint_ >= options_.checkpoint_every)
    return CheckpointLocked();
  return Status::Ok();
}

Status CampaignPersistence::AckSymexReport(uint32_t worker,
                                           const symex::Report& report) {
  std::lock_guard<std::mutex> lock(mu_);
  DurabilityTimer t(&stats_.durability_seconds);
  const std::vector<uint8_t> record = SerializeSymexReportRecord(worker, report);
  HS_RETURN_IF_ERROR(ApplyRecord(record, &state_));
  HS_RETURN_IF_ERROR(journal_.Append(record, options_.sync));
  if (++records_since_checkpoint_ >= options_.checkpoint_every)
    return CheckpointLocked();
  return Status::Ok();
}

Status CampaignPersistence::RecordHarnessSnapshot(
    const sim::HardwareState& harness, const std::string& label) {
  std::lock_guard<std::mutex> lock(mu_);
  DurabilityTimer t(&stats_.durability_seconds);
  const uint64_t hash = sim::HashState(harness);
  for (snapshot::SnapshotId id : store_.Ids()) {
    auto existing = store_.ContentHash(id);
    if (existing.ok() && existing.value() == hash) return Status::Ok();
  }
  return store_.Put(harness, label).status();
}

bool CampaignPersistence::HarnessHashKnown(uint64_t content_hash) const {
  for (snapshot::SnapshotId id : store_.Ids()) {
    auto existing = store_.ContentHash(id);
    if (existing.ok() && existing.value() == content_hash) return true;
  }
  return false;
}

Status CampaignPersistence::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  DurabilityTimer t(&stats_.durability_seconds);
  return CheckpointLocked();
}

Status CampaignPersistence::CheckpointLocked() {
  MaybeCrash("checkpoint.before");
  HS_ASSIGN_OR_RETURN(state_.store_blob, store_.Serialize());
  const std::vector<uint8_t> bytes = SerializeCheckpoint(state_);
  const std::string path = CheckpointPath(dir_, next_checkpoint_seq_);
  const std::string tmp = path + ".tmp";

  if (ShouldCrashAt("checkpoint.torn_tmp")) {
    // Die with half a tmp file on disk: recovery must ignore and remove
    // it (it was never renamed into place, so it was never acknowledged).
    std::vector<uint8_t> half(bytes.begin(), bytes.begin() + bytes.size() / 2);
    (void)AppendToFile(tmp, half);
    CrashNow();
  }
  if (FileExists(tmp)) HS_RETURN_IF_ERROR(RemoveFile(tmp));
  HS_RETURN_IF_ERROR(AppendToFile(tmp, bytes));
  HS_RETURN_IF_ERROR(SyncFile(tmp));
  MaybeCrash("checkpoint.after_tmp");
  HS_RETURN_IF_ERROR(RenameFile(tmp, path));
  HS_RETURN_IF_ERROR(SyncDir(dir_));
  MaybeCrash("checkpoint.after_rename");
  // The journal's records are absorbed into the durable checkpoint; reset
  // it. A crash before the reset is safe: replay over the new checkpoint
  // is idempotent.
  HS_RETURN_IF_ERROR(journal_.Reset());
  MaybeCrash("checkpoint.after_journal_reset");

  // Retire older checkpoints (best effort — a leftover is re-tried or
  // superseded at the next Open, never read in preference to a newer one).
  auto names = ListDir(dir_);
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      uint64_t seq = 0;
      if (ParseCheckpointName(name, &seq) && seq < next_checkpoint_seq_)
        (void)RemoveFile(dir_ + "/" + name);
    }
  }
  ++next_checkpoint_seq_;
  records_since_checkpoint_ = 0;
  ++stats_.checkpoints_written;
  return Status::Ok();
}

PersistStats CampaignPersistence::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PersistStats s = stats_;
  s.journal_records = journal_.appended_records();
  s.journal_bytes = journal_.appended_bytes();
  return s;
}

}  // namespace hardsnap::persist
