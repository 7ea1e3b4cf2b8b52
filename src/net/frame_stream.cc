#include "net/frame_stream.h"

#include <cstring>

#include "common/crc32.h"
#include "common/serde.h"

namespace hardsnap::net {

Status FrameStream::Send(uint8_t kind, uint32_t seq, uint32_t op,
                         const std::vector<uint8_t>& payload) {
  if (payload.size() > kMaxPayloadBytes)
    return InvalidArgument("payload too large to frame: " +
                           std::to_string(payload.size()) + " bytes");

  bus::Frame header;
  header.kind = kind;
  header.seq = seq;
  header.addr = op;
  header.value = static_cast<uint32_t>(payload.size());
  const std::vector<uint8_t> encoded = header.Encode();
  ByteWriter w;
  w.Raw(encoded.data(), encoded.size());
  if (!payload.empty()) {
    w.Raw(payload.data(), payload.size());
    w.U32(Crc32(payload));
  }
  const std::vector<uint8_t>& wire = w.bytes();
  HS_RETURN_IF_ERROR(socket_.SendAll(wire.data(), wire.size()));
  bytes_sent_ += wire.size();
  return Status::Ok();
}

Result<Message> FrameStream::Recv(int header_timeout_ms,
                                  int body_timeout_ms) {
  std::vector<uint8_t> header_bytes(bus::Frame::kWireBytes);
  size_t header_got = 0;
  const Status header_status = socket_.RecvAll(
      header_bytes.data(), header_bytes.size(), header_timeout_ms,
      &header_got);
  if (!header_status.ok()) {
    if (header_status.code() == StatusCode::kDeadlineExceeded &&
        header_got > 0)
      return DataLoss("stream stalled mid-header (" +
                      std::to_string(header_got) + " of " +
                      std::to_string(bus::Frame::kWireBytes) + " bytes)");
    return header_status;
  }
  const int timeout_ms = body_timeout_ms;
  bytes_received_ += header_bytes.size();
  auto header = bus::Frame::Decode(header_bytes);
  if (!header.ok()) return header.status();

  Message msg;
  msg.kind = header.value().kind;
  msg.seq = header.value().seq;
  msg.op = header.value().addr;
  const uint32_t payload_len = header.value().value;
  if (payload_len == 0) return msg;

  // Forged-length guard: reject before allocating anything. The header CRC
  // already passed, so this is a hostile or incompatible peer, not noise.
  if (payload_len > kMaxPayloadBytes)
    return DataLoss("declared payload of " + std::to_string(payload_len) +
                    " bytes exceeds limit of " +
                    std::to_string(kMaxPayloadBytes));

  // From here on the peer committed to a message: a deadline is no longer
  // an idle poll but a stream stalled mid-message — report it as kDataLoss
  // so session loops that treat kDeadlineExceeded as "no traffic yet"
  // close the desynchronized connection instead of spinning.
  const auto stalled = [payload_len](const Status& s) {
    if (s.code() != StatusCode::kDeadlineExceeded) return s;
    return DataLoss("stream stalled mid-message (" +
                    std::to_string(payload_len) + "-byte payload)");
  };
  msg.payload.resize(payload_len);
  HS_RETURN_IF_ERROR(stalled(
      socket_.RecvAll(msg.payload.data(), msg.payload.size(), timeout_ms)));
  uint8_t crc_bytes[4];
  HS_RETURN_IF_ERROR(
      stalled(socket_.RecvAll(crc_bytes, sizeof crc_bytes, timeout_ms)));
  bytes_received_ += payload_len + sizeof crc_bytes;
  uint32_t want = 0;
  ByteReader(crc_bytes, sizeof crc_bytes).U32(want);
  if (Crc32(msg.payload) != want)
    return DataLoss("payload CRC mismatch on " +
                    std::to_string(payload_len) + "-byte message");

  return msg;
}

}  // namespace hardsnap::net
