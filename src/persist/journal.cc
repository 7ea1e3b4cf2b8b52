#include "persist/journal.h"

#include "common/crc32.h"
#include "common/serde.h"
#include "persist/crash_point.h"
#include "persist/fs_util.h"

namespace hardsnap::persist {

Result<JournalReplay> Journal::Replay() {
  JournalReplay out;
  if (!FileExists(path_)) return out;
  auto bytes = ReadFileBytes(path_);
  if (!bytes.ok()) return bytes.status();
  const std::vector<uint8_t>& buf = bytes.value();

  size_t pos = 0;
  while (buf.size() - pos >= 8) {
    uint32_t len = 0, crc = 0;
    for (int i = 0; i < 4; ++i) len |= uint32_t{buf[pos + i]} << (8 * i);
    for (int i = 0; i < 4; ++i) crc |= uint32_t{buf[pos + 4 + i]} << (8 * i);
    if (len > kMaxJournalRecordBytes) break;      // garbage length: torn tail
    if (buf.size() - pos - 8 < len) break;        // payload cut short
    const uint8_t* payload = buf.data() + pos + 8;
    if (Crc32(payload, len) != crc) break;        // payload corrupted
    out.records.emplace_back(payload, payload + len);
    pos += 8 + size_t{len};
  }
  out.valid_bytes = pos;
  out.truncated_bytes = buf.size() - pos;
  if (out.truncated_bytes > 0) {
    // Amputate the torn tail so the next append produces a well-formed
    // file. The truncation must be durable before anything is appended
    // after it, or a second crash could resurrect half the old tail.
    HS_RETURN_IF_ERROR(TruncateFile(path_, out.valid_bytes));
    HS_RETURN_IF_ERROR(SyncFile(path_));
  }
  return out;
}

Status Journal::Append(const std::vector<uint8_t>& payload, bool sync) {
  if (payload.size() > kMaxJournalRecordBytes)
    return InvalidArgument("journal record exceeds the frame size limit");
  MaybeCrash("journal.append.before");
  ByteWriter frame;
  frame.U32(static_cast<uint32_t>(payload.size()));
  frame.U32(Crc32(payload.data(), payload.size()));
  frame.Raw(payload.data(), payload.size());
  const std::vector<uint8_t>& bytes = frame.bytes();
  if (ShouldCrashAt("journal.append.torn")) {
    // Simulate a crash mid-write: half the frame reaches the disk. The
    // record was never acknowledged, so recovery must drop it.
    std::vector<uint8_t> half(bytes.begin(),
                              bytes.begin() + bytes.size() / 2);
    (void)AppendToFile(path_, half);
    CrashNow();
  }
  HS_RETURN_IF_ERROR(AppendToFile(path_, bytes));
  MaybeCrash("journal.append.after_write");
  if (sync) HS_RETURN_IF_ERROR(SyncFile(path_));
  MaybeCrash("journal.append.after_sync");
  appended_bytes_ += bytes.size();
  ++appended_records_;
  return Status::Ok();
}

Status Journal::Reset() {
  HS_RETURN_IF_ERROR(TruncateFile(path_, 0));
  return SyncFile(path_);
}

}  // namespace hardsnap::persist
