#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/bitops.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/virtual_clock.h"

namespace hardsnap {
namespace {

TEST(BitopsTest, LowMask) {
  EXPECT_EQ(LowMask(0), 0u);
  EXPECT_EQ(LowMask(1), 1u);
  EXPECT_EQ(LowMask(8), 0xffu);
  EXPECT_EQ(LowMask(32), 0xffffffffu);
  EXPECT_EQ(LowMask(64), ~uint64_t{0});
}

TEST(BitopsTest, TruncBits) {
  EXPECT_EQ(TruncBits(0x1ff, 8), 0xffu);
  EXPECT_EQ(TruncBits(0x100, 8), 0u);
  EXPECT_EQ(TruncBits(~uint64_t{0}, 64), ~uint64_t{0});
}

TEST(BitopsTest, SignExtend) {
  EXPECT_EQ(SignExtend(0xff, 8), -1);
  EXPECT_EQ(SignExtend(0x7f, 8), 127);
  EXPECT_EQ(SignExtend(0x80, 8), -128);
  EXPECT_EQ(SignExtend(1, 1), -1);
  EXPECT_EQ(SignExtend(0, 1), 0);
}

TEST(BitopsTest, ExtractBits) {
  EXPECT_EQ(ExtractBits(0xabcd, 15, 8), 0xabu);
  EXPECT_EQ(ExtractBits(0xabcd, 7, 0), 0xcdu);
  EXPECT_EQ(ExtractBits(0xabcd, 3, 0), 0xdu);
  EXPECT_EQ(ExtractBits(0x8, 3, 3), 1u);
}

TEST(BitopsTest, BitsFor) {
  EXPECT_EQ(BitsFor(1), 1u);
  EXPECT_EQ(BitsFor(2), 1u);
  EXPECT_EQ(BitsFor(3), 2u);
  EXPECT_EQ(BitsFor(256), 8u);
  EXPECT_EQ(BitsFor(257), 9u);
}

TEST(BitopsTest, XorReduce) {
  EXPECT_EQ(XorReduce(0b1011, 4), 1u);
  EXPECT_EQ(XorReduce(0b1010, 4), 0u);
  EXPECT_EQ(XorReduce(0xff00, 8), 0u);  // only low 8 bits considered
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("missing widget");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing widget");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = InvalidArgument("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.Next() == b.Next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, BitsStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(rng.Bits(8), 0xffu);
    EXPECT_LE(rng.Bits(1), 1u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.Range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// Regression: Below(0) used to compute Next() % 0 (UB); now it aborts
// with a diagnostic instead of returning garbage.
TEST(RngDeathTest, BelowZeroAborts) {
  Rng rng(1);
  EXPECT_DEATH(rng.Below(0), "empty range");
}

// Regression: Range(lo, hi) with hi < lo used to wrap the span and draw
// from an unrelated range.
TEST(RngDeathTest, RangeInvertedBoundsAbort) {
  Rng rng(1);
  EXPECT_DEATH(rng.Range(5, 3), "hi");
}

TEST(RngTest, RangeFullSpanCoversExtremes) {
  // lo=0, hi=UINT64_MAX makes span wrap to 0 — must mean "any value",
  // not a modulo-zero draw.
  Rng rng(11);
  for (int i = 0; i < 100; ++i)
    (void)rng.Range(0, ~uint64_t{0});
  uint64_t v = rng.Range(7, 7);
  EXPECT_EQ(v, 7u);  // degenerate range is a constant
}

TEST(RngTest, WorkerSeedsAreDistinctStreams) {
  // Campaign workers derive their seed from (campaign seed, worker id);
  // streams must differ from each other AND from the undecorated seed
  // (worker 0 is not the single-threaded stream).
  const uint64_t seed = 2026;
  std::set<uint64_t> seeds{seed};
  for (uint64_t w = 0; w < 16; ++w)
    EXPECT_TRUE(seeds.insert(DeriveWorkerSeed(seed, w)).second)
        << "collision at worker " << w;
  EXPECT_NE(DeriveWorkerSeed(seed, 0), DeriveWorkerSeed(seed + 1, 0));

  Rng a(DeriveWorkerSeed(seed, 0)), b(DeriveWorkerSeed(seed, 1));
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.Next() == b.Next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(DurationTest, Conversions) {
  EXPECT_EQ(Duration::Nanos(5).picos(), 5000);
  EXPECT_EQ(Duration::Micros(1).nanos(), 1000.0);
  EXPECT_EQ(Duration::Millis(2).micros(), 2000.0);
  EXPECT_DOUBLE_EQ(Duration::Seconds(1.5).millis(), 1500.0);
}

TEST(DurationTest, Arithmetic) {
  Duration d = Duration::Nanos(10) + Duration::Nanos(5);
  EXPECT_EQ(d.picos(), 15000);
  d += Duration::Nanos(1);
  EXPECT_EQ(d.picos(), 16000);
  EXPECT_EQ((Duration::Nanos(10) * 3).picos(), 30000);
  EXPECT_LT(Duration::Nanos(1), Duration::Micros(1));
}

TEST(DurationTest, ToStringPicksUnit) {
  EXPECT_EQ(Duration::Picos(500).ToString(), "500 ps");
  EXPECT_EQ(Duration::Nanos(12).ToString(), "12.00 ns");
  EXPECT_EQ(Duration::Micros(3).ToString(), "3.00 us");
  EXPECT_EQ(Duration::Millis(7).ToString(), "7.00 ms");
}

TEST(VirtualClockTest, Accumulates) {
  VirtualClock clk;
  EXPECT_EQ(clk.now().picos(), 0);
  clk.Advance(Duration::Nanos(10));
  clk.Advance(Duration::Nanos(5));
  EXPECT_EQ(clk.now().picos(), 15000);
  clk.Reset();
  EXPECT_EQ(clk.now().picos(), 0);
}

TEST(VirtualClockTest, PeriodOfHz) {
  EXPECT_EQ(PeriodOfHz(100e6).picos(), 10000);   // 100 MHz -> 10 ns
  EXPECT_EQ(PeriodOfHz(1e9).picos(), 1000);      // 1 GHz -> 1 ns
}

TEST(SerdeTest, RoundTripScalars) {
  ByteWriter w;
  w.U8(0xab);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefull);
  w.Str("hello");
  ByteReader r(w.bytes());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string s;
  r.U8(u8);
  r.U32(u32);
  r.U64(u64);
  r.Str(s);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerdeTest, RoundTripVector) {
  ByteWriter w;
  std::vector<uint64_t> v = {1, 2, 3, ~uint64_t{0}};
  w.U64s(v);
  ByteReader r(w.bytes());
  std::vector<uint64_t> back;
  r.U64s(back);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(back, v);
}

TEST(SerdeTest, TruncatedReadFails) {
  ByteWriter w;
  w.U8(1);
  ByteReader r(w.bytes());
  uint32_t v = 0;
  r.U32(v);
  EXPECT_TRUE(r.status().code() == StatusCode::kOutOfRange);
}

TEST(SerdeTest, TruncatedStringBodyFails) {
  ByteWriter w;
  w.U32(100);  // claims 100 bytes, none present
  ByteReader r(w.bytes());
  std::string s;
  r.Str(s);
  EXPECT_FALSE(r.ok());
}

// The first error sticks: later reads are no-ops that keep it.
TEST(SerdeTest, ReaderKeepsItsFirstError) {
  ByteWriter w;
  w.U8(7);
  ByteReader r(w.bytes());
  uint64_t big = 5;
  r.U64(big);  // too short: fails, leaves `big` alone
  uint8_t small = 0;
  r.U8(small);  // a no-op now, even though one byte is there
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(big, 5u);
  EXPECT_EQ(small, 0);
  EXPECT_EQ(r.remaining(), 1u);
  r.Require(false, "ignored: the first error stays");
  EXPECT_EQ(r.Finish("record").code(), StatusCode::kOutOfRange);
}

TEST(SerdeTest, FinishRejectsTrailingBytes) {
  ByteWriter w;
  w.U32(1);
  w.U8(0);
  ByteReader r(w.bytes());
  uint32_t v = 0;
  r.U32(v);
  EXPECT_EQ(r.Finish("record").code(), StatusCode::kInvalidArgument);
}

// One field list, run by both directions.
struct Pair {
  uint32_t a = 0;
  std::map<std::string, uint64_t> names;
};

template <class Io, RecordOf<Pair> T>
void Xfer(Io& io, T& p) {
  io.U32(p.a);
  io.Require(p.a != 0, "a must be nonzero");
  io.List(p.names, 12, [](auto& io, auto& kv) {
    io.Str(kv.first);
    io.U64(kv.second);
  });
}

TEST(SerdeTest, XferRoundTripsAndValidatesOnlyOnRead) {
  Pair p{3, {{"x", 1}, {"yy", 2}}};
  ByteWriter w;
  Xfer(w, std::as_const(p));
  Pair back;
  ByteReader r(w.bytes());
  Xfer(r, back);
  ASSERT_TRUE(r.Finish("pair").ok());
  EXPECT_EQ(back.a, 3u);
  EXPECT_EQ(back.names, p.names);

  const Pair empty;
  ByteWriter zero;  // the writer does not validate; the reader does
  Xfer(zero, empty);
  Pair rejected;
  ByteReader rz(zero.bytes());
  Xfer(rz, rejected);
  EXPECT_EQ(rz.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerdeTest, EnvelopeChecksCrcBeforeMagicAndVersion) {
  const Envelope env{0x54534554, 1, "test blob"};
  auto bytes = env.Seal([](ByteWriter& w) { w.U32(42); });
  uint32_t v = 0;
  ASSERT_TRUE(env.Open(bytes, [&](ByteReader& r) { r.U32(v); }).ok());
  EXPECT_EQ(v, 42u);
  auto body = [](ByteReader& r) {
    uint32_t x = 0;
    r.U32(x);
  };
  auto corrupt = bytes;
  corrupt[0] ^= 1;  // the magic, but the CRC catches it first
  EXPECT_EQ(env.Open(corrupt, body).code(), StatusCode::kDataLoss);
  const Envelope next{0x54534554, 2, "test blob"};
  EXPECT_EQ(next.Open(bytes, body).code(), StatusCode::kInvalidArgument);
  const Envelope other{0x4f544852, 1, "other blob"};
  EXPECT_EQ(other.Open(bytes, body).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(env.Open({1, 2}, body).code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace hardsnap
