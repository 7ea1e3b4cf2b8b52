// Binary serialization for every snapshot, checkpoint, journal and RPC
// format.
//
// Each record lists its fields once, in one template
//
//   template <class Io, RecordOf<Rec> T> void Xfer(Io& io, T& rec);
//
// that ByteWriter runs with T = const Rec and ByteReader with T = Rec, so the
// two directions cannot drift apart: the writer and the reader share their
// method names. The reader is sticky. Its first error is kept and every later
// read is a no-op, so a field list needs no per-field error handling and the
// caller checks the status once, at the end. Decode-only validation (enum
// ranges, magic numbers, geometry) sits next to the field it checks, through
// Require and Check, which do nothing on the writer side.
//
// Integers are little-endian. A variable-length field is a u32 count and its
// elements. The reader checks the count against the bytes actually present
// BEFORE it allocates, so a forged length fails as malformed instead of
// asking the host for gigabytes.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "common/crc32.h"
#include "common/status.h"

namespace hardsnap {

// `T` is `Rec` when reading and `const Rec` when writing.
template <class T, class Rec>
concept RecordOf = std::same_as<std::remove_const_t<T>, Rec>;

// Append-only byte sink.
class ByteWriter {
 public:
  static constexpr bool kReading = false;

  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
  }
  // `n` bytes with no length prefix.
  void Raw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Blob(const std::vector<uint8_t>& v) {
    U32(static_cast<uint32_t>(v.size()));
    Raw(v.data(), v.size());
  }
  void U64s(const std::vector<uint64_t>& v) {
    List(v, 8, [](ByteWriter& w, uint64_t x) { w.U64(x); });
  }
  // Any container (vector, set, map): the count, then `item(*this, element)`
  // per element. `min_item_bytes` is the reader's forged-count bound.
  template <class C, class Fn>
  void List(const C& items, size_t /*min_item_bytes*/, Fn&& item) {
    U32(static_cast<uint32_t>(items.size()));
    for (const auto& x : items) item(*this, x);
  }
  // An enum or small code as one byte (the reader checks [lo, hi]).
  template <class E>
  void U8In(const E& v, uint8_t /*lo*/, uint8_t /*hi*/, const char*) {
    U8(static_cast<uint8_t>(v));
  }

  // Decode-only validation: nothing to check on the way out.
  void Require(bool, const char*) {}
  template <class Fn>
  void Check(Fn&&) {}

  // The CRC32 of everything written so far, as a u32 trailer.
  void Crc() { U32(Crc32(buf_.data(), buf_.size())); }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

// Sequential, bounds-checked, sticky byte source over borrowed bytes.
class ByteReader {
 public:
  static constexpr bool kReading = true;

  // A read past the end fails with kOutOfRange. `overlong` is the code for
  // a declared count that exceeds the bytes present: kOutOfRange (a
  // truncated blob) unless the format calls a forged count malformed.
  ByteReader(const uint8_t* data, size_t size,
             StatusCode overlong = StatusCode::kOutOfRange)
      : data_(data), size_(size), overlong_(overlong) {}
  explicit ByteReader(const std::vector<uint8_t>& buf,
                      StatusCode overlong = StatusCode::kOutOfRange)
      : ByteReader(buf.data(), buf.size(), overlong) {}
  // The reader borrows its bytes: a temporary would die under it.
  explicit ByteReader(std::vector<uint8_t>&&, StatusCode = {}) = delete;

  void U8(uint8_t& v) {
    if (const uint8_t* p = Take(1, "u8")) v = p[0];
  }
  void U32(uint32_t& v) {
    if (const uint8_t* p = Take(4, "u32")) {
      v = 0;
      for (int i = 0; i < 4; ++i) v |= uint32_t{p[i]} << (8 * i);
    }
  }
  void U64(uint64_t& v) {
    if (const uint8_t* p = Take(8, "u64")) {
      v = 0;
      for (int i = 0; i < 8; ++i) v |= uint64_t{p[i]} << (8 * i);
    }
  }
  void Raw(void* out, size_t n) {
    const uint8_t* p = Take(n, "bytes");
    if (p != nullptr && n != 0) std::memcpy(out, p, n);  // out may be null
  }
  void Str(std::string& s) {
    const uint32_t n = Count(1, "string");
    if (const uint8_t* p = Take(n, "string body"))
      s.assign(reinterpret_cast<const char*>(p), n);
  }
  void Blob(std::vector<uint8_t>& v) {
    const uint32_t n = Count(1, "blob");
    if (!ok()) return;
    v.resize(n);
    Raw(v.data(), n);
  }
  void U64s(std::vector<uint64_t>& v) {
    List(v, 8, [](ByteReader& r, uint64_t& x) { r.U64(x); });
  }
  template <class C, class Fn>
  void List(C& items, size_t min_item_bytes, Fn&& item) {
    const uint32_t n = Count(min_item_bytes, "list");
    if constexpr (requires { items.reserve(n); }) items.reserve(n);
    for (uint32_t i = 0; i < n && ok(); ++i) {
      typename ElementOf<C>::type x{};
      item(*this, x);
      if (ok()) items.insert(items.end(), std::move(x));
    }
  }
  template <class E>
  void U8In(E& v, uint8_t lo, uint8_t hi, const char* what) {
    uint8_t b = 0;
    U8(b);
    if (!ok()) return;
    if (b < lo || b > hi)
      Fail(InvalidArgument(std::string(what) + " " + std::to_string(b)));
    else
      v = static_cast<E>(b);
  }

  // Decode-only validation: fails the read with kInvalidArgument(`what`)
  // unless `cond`, or with the error `check()` returns.
  void Require(bool cond, const char* what) {
    if (!cond) Fail(InvalidArgument(what));
  }
  template <class Fn>
  void Check(Fn&& check) {
    if (ok()) Fail(check());
  }
  // Keeps the first error; an OK status changes nothing.
  void Fail(Status s) {
    if (status_.ok()) status_ = std::move(s);
  }

  // The reader's status, with unread bytes an error (kInvalidArgument):
  // every format ends exactly where its last field does.
  Status Finish(const char* what) {
    if (ok() && remaining() != 0)
      Fail(InvalidArgument(std::string(what) + ": " +
                           std::to_string(remaining()) + " trailing bytes"));
    return status_;
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  template <class C>
  struct ElementOf {
    using type = typename C::value_type;
  };
  template <class K, class V, class... R>
  struct ElementOf<std::map<K, V, R...>> {
    using type = std::pair<K, V>;
  };

  // The next `n` bytes; null once the reader failed (now or before), and
  // possibly for n == 0.
  const uint8_t* Take(size_t n, const char* what) {
    if (!ok()) return nullptr;
    if (n > remaining()) {
      Fail(OutOfRange(std::string("truncated while reading ") + what));
      return nullptr;
    }
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  // A u32 count of items of at least `min_item_bytes` each, checked against
  // the bytes present; 0 once the reader failed.
  uint32_t Count(size_t min_item_bytes, const char* what) {
    uint32_t n = 0;
    U32(n);
    if (ok() && size_t{n} * min_item_bytes > remaining())
      Fail(Status{overlong_, std::string(what) + " declares " +
                                 std::to_string(n) + " items, " +
                                 std::to_string(remaining()) +
                                 " bytes present"});
    return ok() ? n : 0;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  StatusCode overlong_;
  Status status_;
};

// Checks the u32 CRC32 trailer over the `n - 4` bytes before it: kDataLoss
// when `n` is too short to hold one or the bytes do not match it.
inline Status VerifyCrc(const uint8_t* data, size_t n, const char* what) {
  if (n < 4)
    return DataLoss(std::string(what) + ": too short for a CRC trailer");
  uint32_t stored = 0;
  ByteReader(data + n - 4, 4).U32(stored);
  if (stored != Crc32(data, n - 4))
    return DataLoss(std::string(what) + ": CRC mismatch (corrupt blob)");
  return Status::Ok();
}

// The container envelope of the HSSS, HSSD, HSST and HSCP formats:
//
//   u32 magic | u8 version | body | u32 CRC32 of everything before it
struct Envelope {
  uint32_t magic;
  uint8_t version;
  const char* what;  // names the format in errors ("state blob", ...)

  // Magic, version, `body(writer)`, then the CRC trailer.
  template <class Fn>
  std::vector<uint8_t> Seal(Fn&& body) const {
    ByteWriter w;
    w.U32(magic);
    w.U8(version);
    body(w);
    w.Crc();
    return w.Take();
  }

  // Verifies the CRC trailer (kDataLoss) before trusting any field, then the
  // magic and version (kInvalidArgument), then runs `body(reader)` over
  // exactly the bytes up to the trailer.
  template <class Fn>
  Status Open(const std::vector<uint8_t>& bytes, Fn&& body) const {
    HS_RETURN_IF_ERROR(VerifyCrc(bytes.data(), bytes.size(), what));
    ByteReader r(bytes.data(), bytes.size() - 4);
    uint32_t m = 0;
    uint8_t v = 0;
    r.U32(m);
    if (r.ok() && m != magic)
      r.Fail(InvalidArgument(std::string("not a HardSnap ") + what));
    r.U8(v);
    if (r.ok() && v != version)
      r.Fail(InvalidArgument(std::string(what) +
                             ": unsupported format version " +
                             std::to_string(v) + " (expected " +
                             std::to_string(version) + ")"));
    body(r);
    return r.Finish(what);
  }
};

}  // namespace hardsnap
