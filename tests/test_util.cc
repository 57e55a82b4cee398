/** Unit tests for util: bit ops, CRC-32, stats, tables, CSV, images. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/bit_ops.h"
#include "util/crc32.h"
#include "util/csv.h"
#include "util/image.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace u = inc::util;

TEST(BitOps, LowMask)
{
    EXPECT_EQ(u::lowMask(0), 0u);
    EXPECT_EQ(u::lowMask(1), 1u);
    EXPECT_EQ(u::lowMask(8), 0xFFu);
    EXPECT_EQ(u::lowMask(16), 0xFFFFu);
    EXPECT_EQ(u::lowMask(64), ~0ULL);
}

TEST(BitOps, HighMask)
{
    EXPECT_EQ(u::highMask(8, 8), 0xFFu);
    EXPECT_EQ(u::highMask(4, 8), 0xF0u);
    EXPECT_EQ(u::highMask(1, 8), 0x80u);
    EXPECT_EQ(u::highMask(0, 8), 0x00u);
}

TEST(BitOps, TruncateLow)
{
    EXPECT_EQ(u::truncateLow(0xFF, 4, 8), 0xF0u);
    EXPECT_EQ(u::truncateLow(0xAB, 8, 8), 0xABu);
    EXPECT_EQ(u::truncateLow(0xAB, 1, 8), 0x80u);
}

TEST(BitOps, SignExtend)
{
    EXPECT_EQ(u::signExtend(0x80, 8), -128);
    EXPECT_EQ(u::signExtend(0x7F, 8), 127);
    EXPECT_EQ(u::signExtend(0xFFFF, 16), -1);
    EXPECT_EQ(u::signExtend(0x0001, 16), 1);
}

TEST(BitOps, ClampU8)
{
    EXPECT_EQ(u::clampU8(-5), 0);
    EXPECT_EQ(u::clampU8(300), 255);
    EXPECT_EQ(u::clampU8(42), 42);
}

TEST(RunningStats, Basic)
{
    u::RunningStats s;
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0})
        s.add(v);
    EXPECT_EQ(s.count(), 5u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_NEAR(s.variance(), 2.5, 1e-12);
    EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(RunningStats, EmptyIsZero)
{
    u::RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(Histogram, BinsAndClamping)
{
    u::Histogram h(0.0, 10.0, 5);
    h.add(-1.0); // clamps to bin 0
    h.add(0.5);
    h.add(9.9);
    h.add(100.0); // clamps to last bin
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(4), 2u);
    EXPECT_DOUBLE_EQ(h.edge(1), 2.0);
}

TEST(Percentile, Interpolation)
{
    std::vector<double> v{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(u::percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(u::percentile(v, 100), 5.0);
    EXPECT_DOUBLE_EQ(u::percentile(v, 50), 3.0);
    EXPECT_DOUBLE_EQ(u::percentile(v, 25), 2.0);
}

TEST(Table, RendersAlignedCells)
{
    u::Table t("demo");
    t.setHeader({"a", "long_header"});
    t.addRow({"1", "2"});
    const std::string s = t.render();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("long_header"), std::string::npos);
    EXPECT_NE(s.find("| 1"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(u::Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(u::Table::integer(1234567), "1,234,567");
    EXPECT_EQ(u::Table::integer(-42), "-42");
    EXPECT_EQ(u::Table::integer(0), "0");
}

TEST(Csv, RoundTrip)
{
    u::CsvWriter w;
    w.setHeader({"x", "y"});
    w.addRow({"1", "hello, world"});
    w.addRow({"2", "quote\"inside"});
    const auto rows = u::parseCsv(w.render());
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0][0], "x");
    EXPECT_EQ(rows[1][1], "hello, world");
    EXPECT_EQ(rows[2][1], "quote\"inside");
}

TEST(Image, BasicsAndClampedAccess)
{
    u::Image img(4, 3, 7);
    EXPECT_EQ(img.width(), 4);
    EXPECT_EQ(img.height(), 3);
    EXPECT_EQ(img.at(0, 0), 7);
    img.set(1, 2, 200);
    EXPECT_EQ(img.at(1, 2), 200);
    EXPECT_EQ(img.atClamped(-5, 2), img.at(0, 2));
    EXPECT_EQ(img.atClamped(100, 100), img.at(3, 2));
}

TEST(Image, PgmRoundTrip)
{
    u::SceneGenerator gen(16, 16, u::SceneKind::scene, 5);
    const u::Image img = gen.frame(0);
    const std::string path = ::testing::TempDir() + "/inc_test.pgm";
    ASSERT_TRUE(u::writePgm(img, path));
    const u::Image back = u::readPgm(path);
    EXPECT_EQ(img, back);
}

TEST(SceneGenerator, DeterministicAndCorrelated)
{
    u::SceneGenerator gen(32, 32, u::SceneKind::scene, 42);
    const u::Image a = gen.frame(3);
    const u::Image b = gen.frame(3);
    EXPECT_EQ(a, b);

    // Consecutive frames correlate far more than distant ones.
    auto diff = [](const u::Image &x, const u::Image &y) {
        double d = 0;
        for (int i = 0; i < x.pixels(); ++i)
            d += std::abs(static_cast<int>(x.data()[i]) -
                          static_cast<int>(y.data()[i]));
        return d / x.pixels();
    };
    const u::Image next = gen.frame(4);
    const u::Image far = gen.frame(60);
    EXPECT_LT(diff(a, next), diff(a, far) + 1e-9);
}

TEST(SceneGenerator, AllKindsProduceDistinctContent)
{
    for (u::SceneKind kind :
         {u::SceneKind::gradient, u::SceneKind::checker,
          u::SceneKind::blobs, u::SceneKind::texture,
          u::SceneKind::scene}) {
        u::SceneGenerator gen(16, 16, kind, 7);
        const u::Image img = gen.frame(0);
        double mean = 0;
        for (auto v : img.data())
            mean += v;
        mean /= img.pixels();
        EXPECT_GT(mean, 1.0);
        EXPECT_LT(mean, 254.0);
    }
}

TEST(Crc32, KnownAnswer)
{
    const char *check = "123456789";
    EXPECT_EQ(u::crc32(check, std::strlen(check)), 0xCBF43926u);
    EXPECT_EQ(u::detail::crc32Portable(0, check, std::strlen(check)),
              0xCBF43926u);
    EXPECT_EQ(u::crc32(check, 0), 0u);
}

TEST(Crc32, ChainingEqualsOneShot)
{
    std::vector<std::uint8_t> buf(5000);
    u::Rng rng(3);
    for (std::uint8_t &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    const std::uint32_t whole = u::crc32(buf.data(), buf.size());
    // Split points on both sides of the 64-byte and 16-byte thresholds
    // of the folding path.
    for (std::size_t split : {0, 1, 15, 16, 63, 64, 65, 100, 4096, 4999,
                              5000}) {
        const std::uint32_t head = u::crc32(buf.data(), split);
        EXPECT_EQ(u::crc32(head, buf.data() + split, buf.size() - split),
                  whole)
            << "split at " << split;
    }
}

TEST(Crc32, DispatchedPathEqualsPortable)
{
    // Lengths 0..70000 (past the 64 KiB image size) at misalignments
    // 0..63 with a fresh seed each. Short lengths, where the split into
    // folded prefix and slicing-by-8 tail changes most, are checked at
    // every misalignment; above 4 KiB the folding loop only repeats, so
    // a stride of 61 (coprime to 64) still reaches every length mod 64.
    constexpr std::size_t kMaxLen = 70000;
    constexpr std::size_t kMisalign = 64;
    std::vector<std::uint8_t> buf(kMaxLen + kMisalign);
    u::Rng rng(11);
    for (std::uint8_t &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    int mismatches = 0;
    auto check = [&](std::size_t len, std::size_t off) {
        const auto seed = static_cast<std::uint32_t>(rng.next());
        const std::uint8_t *p = buf.data() + off;
        if (u::crc32(seed, p, len) !=
                u::detail::crc32Portable(seed, p, len) &&
            ++mismatches <= 10) {
            ADD_FAILURE() << "length " << len << " misalignment " << off
                          << " seed " << seed;
        }
    };
    for (std::size_t len = 0; len <= 1024; ++len) {
        for (std::size_t off = 0; off < kMisalign; ++off)
            check(len, off);
    }
    for (std::size_t len = 1025; len <= 4096; ++len)
        check(len, len % kMisalign);
    for (std::size_t len = 4097; len <= kMaxLen; len += 61)
        check(len, len % kMisalign);
    for (std::size_t len : {65535, 65536, 65537, 69999, 70000}) {
        for (std::size_t off = 0; off < kMisalign; ++off)
            check(len, off);
    }
    EXPECT_EQ(mismatches, 0);
}
