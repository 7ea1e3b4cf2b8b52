#include "persist/journal.h"

#include "common/crc32.h"
#include "common/serde.h"
#include "persist/crash_point.h"
#include "persist/fs_util.h"

namespace hardsnap::persist {

namespace {

// The frame layout of journal.h, for Append and Replay alike. A frame that
// does not read (a length past the cap or the file, a short read, a CRC
// mismatch) is a torn tail.
template <class Io, RecordOf<std::vector<uint8_t>> T>
void XferFrame(Io& io, T& payload) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  uint32_t crc = Crc32(payload.data(), payload.size());
  io.U32(len);
  io.U32(crc);
  if constexpr (Io::kReading) {
    io.Require(len <= kMaxJournalRecordBytes && len <= io.remaining(),
               "journal frame length");
    if (io.ok()) payload.resize(len);
  }
  io.Raw(payload.data(), len);
  io.Check([&] {
    return Crc32(payload.data(), payload.size()) == crc
               ? Status::Ok()
               : DataLoss("journal frame CRC mismatch");
  });
}

}  // namespace

Result<JournalReplay> Journal::Replay() {
  JournalReplay out;
  if (!FileExists(path_)) return out;
  auto bytes = ReadFileBytes(path_);
  if (!bytes.ok()) return bytes.status();
  const std::vector<uint8_t>& buf = bytes.value();

  ByteReader r(buf);
  while (r.remaining() > 0) {
    std::vector<uint8_t> payload;
    XferFrame(r, payload);
    if (!r.ok()) break;  // the first frame that does not read ends the log
    out.records.push_back(std::move(payload));
    out.valid_bytes = buf.size() - r.remaining();
  }
  out.truncated_bytes = buf.size() - out.valid_bytes;
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
  XferFrame(frame, payload);
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
