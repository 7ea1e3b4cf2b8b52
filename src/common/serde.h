// Binary serialization buffers used by the snapshot subsystem.
//
// Snapshots (CRIU-style process images, scan-chain dumps, VM state) are
// flat byte blobs with a small tag/length discipline so that mismatched
// restores fail loudly instead of silently corrupting state.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace hardsnap {

// Append-only byte sink.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
  }
  void PutBytes(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutBytes(s.data(), s.size());
  }
  void PutU64Vector(const std::vector<uint64_t>& v) {
    PutU32(static_cast<uint32_t>(v.size()));
    for (uint64_t x : v) PutU64(x);
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

// Sequential byte source with bounds checking.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& buf) : buf_(buf) {}

  Result<uint8_t> GetU8() {
    if (pos_ + 1 > buf_.size()) return Truncated("u8").status();
    return buf_[pos_++];
  }
  Result<uint32_t> GetU32() {
    if (pos_ + 4 > buf_.size()) return Truncated("u32").status();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t{buf_[pos_++]} << (8 * i);
    return v;
  }
  Result<uint64_t> GetU64() {
    if (pos_ + 8 > buf_.size()) return Truncated("u64").status();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t{buf_[pos_++]} << (8 * i);
    return v;
  }
  Result<std::string> GetString() {
    auto n = GetU32();
    if (!n.ok()) return n.status();
    if (pos_ + n.value() > buf_.size()) return Truncated("string body").status();
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_),
                  n.value());
    pos_ += n.value();
    return s;
  }
  Result<std::vector<uint64_t>> GetU64Vector() {
    auto n = GetU32();
    if (!n.ok()) return n.status();
    // Validate the declared element count against the bytes actually
    // present BEFORE reserving: a corrupt blob advertising 2^32-1 elements
    // must fail as truncated, not OOM the host trying to allocate 32 GB.
    if (remaining() < size_t{n.value()} * 8)
      return Truncated("u64 vector body").status();
    std::vector<uint64_t> v;
    v.reserve(n.value());
    for (uint32_t i = 0; i < n.value(); ++i) {
      auto x = GetU64();
      if (!x.ok()) return x.status();
      v.push_back(x.value());
    }
    return v;
  }
  Status GetBytes(void* out, size_t n) {
    if (pos_ + n > buf_.size()) return Truncated("bytes").status();
    if (n != 0) std::memcpy(out, buf_.data() + pos_, n);  // out may be null
    pos_ += n;
    return Status::Ok();
  }

  bool AtEnd() const { return pos_ == buf_.size(); }
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  Result<uint64_t> Truncated(const char* what) {
    return Status{StatusCode::kOutOfRange,
                  std::string("snapshot truncated while reading ") + what};
  }

  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

}  // namespace hardsnap
