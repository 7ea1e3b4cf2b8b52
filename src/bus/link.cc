#include "bus/link.h"

#include <string>

#include "common/serde.h"

namespace hardsnap::bus {

LinkStats& LinkStats::operator+=(const LinkStats& o) {
  frames_sent += o.frames_sent;
  retransmits += o.retransmits;
  drops += o.drops;
  corruptions += o.corruptions;
  crc_rejects += o.crc_rejects;
  stalls += o.stalls;
  outages += o.outages;
  dedup_hits += o.dedup_hits;
  deadline_breaches += o.deadline_breaches;
  failed_ops += o.failed_ops;
  return *this;
}

namespace {

template <class Io, RecordOf<Frame> T>
void Xfer(Io& io, T& f) {
  io.U8(f.kind);
  io.U32(f.seq);
  io.U32(f.addr);
  io.U32(f.value);
}

}  // namespace

std::vector<uint8_t> Frame::Encode() const {
  ByteWriter w;
  Xfer(w, *this);
  w.Crc();
  return w.Take();
}

Result<Frame> Frame::Decode(const std::vector<uint8_t>& bytes) {
  if (bytes.size() != kWireBytes)
    return DataLoss("frame: expected " + std::to_string(kWireBytes) +
                    " bytes, got " + std::to_string(bytes.size()));
  HS_RETURN_IF_ERROR(VerifyCrc(bytes.data(), kWireBytes, "frame"));
  ByteReader r(bytes.data(), kWireBytes - 4);
  Frame f;
  Xfer(r, f);
  HS_RETURN_IF_ERROR(r.Finish("frame"));
  return f;
}

FramedLink::FramedLink(ChannelModel channel, LinkConfig config)
    : channel_(std::move(channel)),
      config_(config),
      rng_(config.faults.seed) {}

Result<uint32_t> FramedLink::Read(uint32_t addr, const ReadFn& device,
                                  Duration* cost) {
  uint32_t value = 0;
  Frame req;
  req.kind = Frame::kRead;
  req.addr = addr;
  Status s = Transact(
      req, channel_.per_transaction,
      [&]() -> Status {
        auto r = device();
        if (!r.ok()) return r.status();
        value = r.value();
        return Status::Ok();
      },
      cost);
  if (!s.ok()) return s;
  return value;
}

Status FramedLink::Write(uint32_t addr, uint32_t value, const OpFn& device,
                         Duration* cost) {
  Frame req;
  req.kind = Frame::kWrite;
  req.addr = addr;
  req.value = value;
  return Transact(req, channel_.per_transaction, device, cost);
}

Status FramedLink::Command(unsigned transactions, const OpFn& device,
                           Duration* cost) {
  Frame req;
  req.kind = Frame::kCommand;
  return Transact(req, channel_.CostOf(transactions ? transactions : 1),
                  device, cost);
}

Status FramedLink::Bulk(Duration clean_cost, const OpFn& device,
                        Duration* cost) {
  Frame req;
  req.kind = Frame::kCommand;
  return Transact(req, clean_cost, device, cost);
}

Duration FramedLink::Backoff(uint32_t attempt) {
  const RetryPolicy& p = config_.retry;
  Duration d = p.backoff_base;
  for (uint32_t i = 2; i < attempt && d < p.backoff_cap; ++i)
    d = d * p.backoff_factor;
  if (d > p.backoff_cap) d = p.backoff_cap;
  if (p.jitter > 0) {
    const double u =
        static_cast<double>(rng_.Next() >> 11) * (1.0 / 9007199254740992.0);
    d += Duration::Picos(static_cast<int64_t>(
        static_cast<double>(d.picos()) * p.jitter * u));
  }
  return d;
}

bool FramedLink::DeliverFrame(const Frame& frame, Duration* total) {
  ++stats_.frames_sent;
  std::vector<uint8_t> bytes = frame.Encode();
  const FaultProfile& f = config_.faults;
  if (outage_remaining_ > 0) {
    --outage_remaining_;
    ++stats_.drops;
    return false;
  }
  if (f.enabled()) {
    if (f.outage_rate > 0 && rng_.Chance(f.outage_rate)) {
      ++stats_.outages;
      ++stats_.drops;
      // This frame is the first casualty of the episode.
      outage_remaining_ = f.outage_frames > 0 ? f.outage_frames - 1 : 0;
      return false;
    }
    if (f.stall_rate > 0 && rng_.Chance(f.stall_rate)) {
      ++stats_.stalls;
      *total += f.stall;
    }
    if (f.drop_rate > 0 && rng_.Chance(f.drop_rate)) {
      ++stats_.drops;
      return false;
    }
    if (f.corrupt_rate > 0 && rng_.Chance(f.corrupt_rate)) {
      ++stats_.corruptions;
      const uint64_t bit = rng_.Below(bytes.size() * 8);
      bytes[bit / 8] ^= static_cast<uint8_t>(uint8_t{1} << (bit % 8));
    }
  }
  auto decoded = Frame::Decode(bytes);
  if (!decoded.ok()) {
    // Receiver's CRC check rejected the frame; to the sender this looks
    // like a lost frame (no ACK) and triggers a retransmit.
    ++stats_.crc_rejects;
    return false;
  }
  return true;
}

Status FramedLink::Transact(Frame request, Duration clean_cost,
                            const OpFn& device, Duration* cost) {
  Duration total;
  const auto finish = [&](Status s) {
    if (cost) *cost = total;
    return s;
  };
  if (dead_)
    return finish(Unavailable("link " + channel_.name + " is down"));
  request.seq = ++seq_;
  bool executed = false;
  Status device_status = Status::Ok();
  Status fail;
  for (uint32_t attempt = 1; attempt <= config_.retry.max_attempts;
       ++attempt) {
    if (attempt > 1) {
      total += Backoff(attempt);
      ++stats_.retransmits;
    }
    total += clean_cost;
    // The deadline bounds the OVERHEAD an operation accumulates — stalls
    // and backoffs — not the payload transfers themselves: a retransmit
    // legitimately re-pays clean_cost (a 60 ms snapshot re-ship is still a
    // 60 ms transfer), so each attempt extends the budget by one payload.
    // A clean-link op therefore never breaches, and a retried bulk op only
    // fails when retries stop being useful (max_attempts) or latency
    // spikes eat the deadline.
    const Duration budget =
        clean_cost * static_cast<int64_t>(attempt) + config_.retry.deadline;
    const bool req_delivered = DeliverFrame(request, &total);
    if (total > budget) {
      ++stats_.deadline_breaches;
      fail = DeadlineExceeded("link " + channel_.name + ": seq " +
                              std::to_string(request.seq) +
                              " blew its deadline (attempt " +
                              std::to_string(attempt) + ")");
      break;
    }
    if (!req_delivered) continue;
    if (!executed) {
      device_status = device();
      executed = true;
    } else {
      // Retransmit of an already-executed request: the device replays its
      // cached reply for this sequence number instead of re-running the
      // operation (idempotency — a duplicated write must not apply twice).
      ++stats_.dedup_hits;
    }
    Frame reply;
    reply.kind = device_status.ok() ? Frame::kReplyOk : Frame::kReplyErr;
    reply.seq = request.seq;
    const bool reply_delivered = DeliverFrame(reply, &total);
    if (total > budget) {
      ++stats_.deadline_breaches;
      fail = DeadlineExceeded("link " + channel_.name + ": seq " +
                              std::to_string(request.seq) +
                              " blew its deadline (attempt " +
                              std::to_string(attempt) + ")");
      break;
    }
    if (!reply_delivered) continue;
    // Reply received. A device error in a well-formed reply is permanent
    // for this request — the link did its job; retrying is pointless.
    consecutive_failures_ = 0;
    return finish(device_status);
  }
  if (fail.ok())
    fail = Unavailable("link " + channel_.name + ": seq " +
                       std::to_string(request.seq) + " failed after " +
                       std::to_string(config_.retry.max_attempts) +
                       " attempts");
  ++stats_.failed_ops;
  if (++consecutive_failures_ >= config_.dead_after) dead_ = true;
  return finish(fail);
}

}  // namespace hardsnap::bus
