// Unit tests for src/support: Result/Status, Buffer, the little-endian
// codec, CRC, XXH64, RNG, clocks.

#include <gtest/gtest.h>

#include <cstring>

#include "src/support/bytes.h"
#include "src/support/clock.h"
#include "src/support/result.h"
#include "src/support/rng.h"

namespace springfs {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = ErrNotFound("no binding 'x'");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kNotFound);
  EXPECT_EQ(st.message(), "no binding 'x'");
  EXPECT_EQ(st.ToString(), "kNotFound: no binding 'x'");
}

TEST(StatusTest, EveryErrorCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kDeadObject); ++c) {
    EXPECT_STRNE(ErrorCodeName(static_cast<ErrorCode>(c)), "kUnknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ErrNoSpace("full");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kNoSpace);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = r.take_value();
  EXPECT_EQ(*v, 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return ErrInvalidArgument("odd");
  }
  return x / 2;
}

Result<int> Quarter(int x) {
  ASSIGN_OR_RETURN(int h, Half(x));
  ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);

  Result<int> bad = Quarter(6);  // 6/2=3 is odd
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kInvalidArgument);
}

Status FailIf(bool fail) {
  if (fail) {
    return ErrBusy();
  }
  return Status::Ok();
}

Status Chain(bool fail) {
  RETURN_IF_ERROR(FailIf(false));
  RETURN_IF_ERROR(FailIf(fail));
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Chain(false).ok());
  EXPECT_EQ(Chain(true).code(), ErrorCode::kBusy);
}

TEST(BufferTest, ResizeZeroFills) {
  Buffer buf;
  buf.resize(8);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(buf.data()[i], 0);
  }
}

TEST(BufferTest, WriteAtGrows) {
  Buffer buf(4);
  uint8_t payload[] = {1, 2, 3};
  buf.WriteAt(6, ByteSpan(payload, 3));
  EXPECT_EQ(buf.size(), 9u);
  EXPECT_EQ(buf.data()[5], 0);
  EXPECT_EQ(buf.data()[6], 1);
  EXPECT_EQ(buf.data()[8], 3);
}

TEST(BufferTest, ReadAtShortAtEnd) {
  Buffer buf("hello");
  uint8_t out[10] = {0};
  size_t n = buf.ReadAt(3, MutableByteSpan(out, 10));
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(out[0], 'l');
  EXPECT_EQ(out[1], 'o');
  EXPECT_EQ(buf.ReadAt(5, MutableByteSpan(out, 10)), 0u);
  EXPECT_EQ(buf.ReadAt(100, MutableByteSpan(out, 10)), 0u);
}

TEST(BufferTest, RoundTripString) {
  Buffer buf(std::string("spring"));
  EXPECT_EQ(buf.ToString(), "spring");
}

TEST(CrcTest, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 per the IEEE 802.3 check value.
  const char* digits = "123456789";
  uint32_t crc = Crc32(ByteSpan(reinterpret_cast<const uint8_t*>(digits), 9));
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(CrcTest, DetectsSingleBitFlip) {
  Rng rng(1);
  Buffer buf = rng.RandomBuffer(512);
  uint32_t before = Crc32(buf.span());
  buf.data()[100] ^= 0x01;
  EXPECT_NE(before, Crc32(buf.span()));
}

TEST(LittleEndianTest, KnownAnswers) {
  uint8_t raw[9] = {};
  StoreLe<uint64_t>(raw, 0x0102030405060708);
  const uint8_t want64[8] = {0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(std::memcmp(raw, want64, 8), 0);
  EXPECT_EQ(LoadLe<uint64_t>(want64), 0x0102030405060708u);

  StoreLe<uint32_t>(raw + 1, 0xA1B2C3D4);  // unaligned
  const uint8_t want32[4] = {0xD4, 0xC3, 0xB2, 0xA1};
  EXPECT_EQ(std::memcmp(raw + 1, want32, 4), 0);
  EXPECT_EQ(LoadLe<uint32_t>(raw + 1), 0xA1B2C3D4u);

  StoreLe<uint16_t>(raw, 0x1234);
  EXPECT_EQ(raw[0], 0x34);
  EXPECT_EQ(raw[1], 0x12);
  EXPECT_EQ(LoadLe<uint16_t>(raw), 0x1234);

  StoreLe<int32_t>(raw, -2);
  const uint8_t want_neg[4] = {0xFE, 0xFF, 0xFF, 0xFF};
  EXPECT_EQ(std::memcmp(raw, want_neg, 4), 0);
  EXPECT_EQ(LoadLe<int32_t>(raw), -2);

  // An explicit narrower T stores only the value's low bytes.
  std::memset(raw, 0xEE, sizeof(raw));
  uint64_t wide = 0x1122334455667788;
  StoreLe<uint32_t>(raw, wide);
  const uint8_t want_low[5] = {0x88, 0x77, 0x66, 0x55, 0xEE};
  EXPECT_EQ(std::memcmp(raw, want_low, 5), 0);
}

uint64_t Xxh64Of(const std::string& s, uint64_t seed = 0) {
  return Xxh64(Buffer(s).span(), seed);
}

TEST(Xxh64Test, PublishedVectors) {
  EXPECT_EQ(Xxh64Of(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(Xxh64Of("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(Xxh64Of("abc"), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(Xxh64Of("asdf"), 0x415872f599cea71eull);
  // 63 bytes: one 32-byte stripe, then three 8-byte, one 4-byte and three
  // 1-byte tail steps.
  EXPECT_EQ(Xxh64Of("Call me Ishmael. Some years ago--never mind how long "
                    "precisely-"),
            0x02a2e85470d6fd96ull);
}

TEST(Xxh64Test, JournalSizedBlock) {
  Buffer block(4096);
  for (size_t i = 0; i < block.size(); ++i) {
    block.data()[i] = static_cast<uint8_t>((i * 131 + 7) & 0xff);
  }
  EXPECT_EQ(Xxh64(block.span()), 0xcf05adf75aca30cfull);
}

TEST(Xxh64Test, UnalignedSpanHashesLikeAlignedCopy) {
  Rng rng(3);
  Buffer aligned = rng.RandomBuffer(1000);
  Buffer shifted(aligned.size() + 1);
  shifted.WriteAt(1, aligned.span());
  ByteSpan odd = shifted.subspan(1, aligned.size());
  ASSERT_EQ(reinterpret_cast<uintptr_t>(odd.data()) % 2, 1u);
  EXPECT_EQ(Xxh64(odd), Xxh64(aligned.span()));
}

TEST(Xxh64Test, SeedChangesResult) {
  EXPECT_NE(Xxh64Of("abc", 1), Xxh64Of("abc"));
  EXPECT_NE(Xxh64Of("", 1), Xxh64Of(""));
}

TEST(HexDumpTest, TruncatesAndFormats) {
  uint8_t data[] = {0x00, 0xff, 0x10};
  EXPECT_EQ(HexDump(ByteSpan(data, 3)), "00 ff 10");
  EXPECT_EQ(HexDump(ByteSpan(data, 3), 2), "00 ff ...");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(10), 10u);
    uint64_t v = rng.Range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, FillCoversWholeSpan) {
  Rng rng(9);
  Buffer buf(37);
  rng.Fill(buf.mutable_span());
  // With 37 random bytes the chance they are all zero is negligible.
  bool any_nonzero = false;
  for (size_t i = 0; i < buf.size(); ++i) {
    any_nonzero |= buf.data()[i] != 0;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(RngTest, CompressibleBufferHasRuns) {
  Rng rng(11);
  Buffer buf = rng.CompressibleBuffer(4096);
  ASSERT_EQ(buf.size(), 4096u);
  size_t repeats = 0;
  for (size_t i = 1; i < buf.size(); ++i) {
    repeats += buf.data()[i] == buf.data()[i - 1] ? 1 : 0;
  }
  // Runs average ~32 bytes, so the vast majority of adjacent pairs repeat.
  EXPECT_GT(repeats, buf.size() / 2);
}

TEST(FakeClockTest, AdvancesWithoutBlocking) {
  FakeClock clock(100);
  EXPECT_EQ(clock.Now(), 100u);
  clock.SleepNs(50);
  EXPECT_EQ(clock.Now(), 150u);
  clock.Advance(7);
  EXPECT_EQ(clock.Now(), 157u);
}

TEST(RealClockTest, SleepIsAtLeastRequested) {
  RealClock clock;
  TimeNs start = clock.Now();
  clock.SleepNs(100'000);  // 100us
  EXPECT_GE(clock.Now() - start, 100'000u);
}

TEST(RealClockTest, ShortSpinSleepIsAccurate) {
  RealClock clock;
  TimeNs start = clock.Now();
  clock.SleepNs(5'000);  // 5us -> spin path
  TimeNs elapsed = clock.Now() - start;
  EXPECT_GE(elapsed, 5'000u);
}

}  // namespace
}  // namespace springfs
