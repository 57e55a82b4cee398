/** Unit tests for util: bit ops, CRC-32, stats, tables, CSV, images. */

#include <gtest/gtest.h>

#include <cmath>
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

namespace
{

/** Smooth value noise exactly as util/image.cc computes it. */
double
referenceValueNoise(std::uint64_t seed, double x, double y)
{
    auto lattice = [seed](int ix, int iy) {
        std::uint64_t h = seed;
        h ^= static_cast<std::uint64_t>(ix) * 0x9e3779b97f4a7c15ULL;
        h ^= static_cast<std::uint64_t>(iy) * 0xc2b2ae3d27d4eb4fULL;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        return static_cast<double>(h >> 11) * 0x1.0p-53;
    };
    const int ix = static_cast<int>(std::floor(x));
    const int iy = static_cast<int>(std::floor(y));
    const double fx = x - ix;
    const double fy = y - iy;
    auto fade = [](double t) { return t * t * (3.0 - 2.0 * t); };
    const double ux = fade(fx);
    const double uy = fade(fy);
    const double a = lattice(ix, iy);
    const double b = lattice(ix + 1, iy);
    const double c = lattice(ix, iy + 1);
    const double d = lattice(ix + 1, iy + 1);
    const double top = a + (b - a) * ux;
    const double bot = c + (d - c) * ux;
    return top + (bot - top) * uy;
}

/**
 * SceneGenerator::frame with every per-frame invariant (blob centres,
 * blob sigma, the scene blob and edge column) evaluated per pixel: the
 * loop as it was before those were hoisted out of it.
 */
u::Image
referenceFrame(int width, int height, u::SceneKind kind,
               std::uint64_t seed, int frame_index)
{
    u::Image img(width, height);
    const double drift = 0.35 * frame_index;
    const double w = width;
    const double h = height;
    u::Rng noise_rng(seed ^ (0xABCDULL + static_cast<std::uint64_t>(
                                             frame_index) * 0x9e3779b9ULL));
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            double v = 0.0;
            const double fx = (x + drift) / w;
            const double fy = (y + 0.5 * drift) / h;
            switch (kind) {
              case u::SceneKind::gradient:
                v = 0.5 * fx + 0.5 * fy;
                break;
              case u::SceneKind::checker: {
                const int cx = static_cast<int>((x + drift) / 8.0);
                const int cy = static_cast<int>(y / 8.0);
                v = ((cx + cy) & 1) ? 0.85 : 0.15;
                break;
              }
              case u::SceneKind::blobs: {
                v = 0.15;
                for (int b = 0; b < 3; ++b) {
                    const double bx =
                        w * (0.25 + 0.22 * b) + 3.0 * std::sin(
                            drift * 0.2 + b);
                    const double by =
                        h * (0.3 + 0.18 * b) + 2.0 * std::cos(
                            drift * 0.15 + 2 * b);
                    const double r2 = (x - bx) * (x - bx) +
                                      (y - by) * (y - by);
                    const double sigma = 0.018 * w * h / 4.0 + 8.0;
                    v += 0.6 * std::exp(-r2 / sigma);
                }
                break;
              }
              case u::SceneKind::texture:
                v = 0.5 * referenceValueNoise(seed, (x + drift) / 5.0,
                                              y / 5.0) +
                    0.3 * referenceValueNoise(seed + 7, (x + drift) / 11.0,
                                              y / 11.0) +
                    0.2 * referenceValueNoise(seed + 13,
                                              (x + drift) / 23.0,
                                              y / 23.0);
                break;
              case u::SceneKind::scene: {
                v = 0.25 + 0.3 * fx + 0.15 * fy;
                const double bx = w * 0.55 + 4.0 * std::sin(drift * 0.1);
                const double by = h * 0.45;
                const double r2 = (x - bx) * (x - bx) + (y - by) * (y - by);
                if (r2 < 0.03 * w * h)
                    v += 0.4;
                if (x > static_cast<int>(w * 0.75 + drift) % width)
                    v -= 0.2;
                v += 0.08 * (referenceValueNoise(seed, (x + drift) / 6.0,
                                                 y / 6.0) -
                             0.5);
                break;
              }
            }
            if (kind == u::SceneKind::texture ||
                kind == u::SceneKind::scene ||
                kind == u::SceneKind::blobs) {
                v += 0.01 * noise_rng.nextGaussian();
            }
            img.set(x, y,
                    u::clampU8(static_cast<std::int64_t>(
                        std::lround(v * 255.0))));
        }
    }
    return img;
}

} // namespace

TEST(SceneGenerator, HoistedLoopIsBitIdenticalToPerPixelReference)
{
    struct Size
    {
        int w, h;
    };
    for (const u::SceneKind kind :
         {u::SceneKind::gradient, u::SceneKind::checker,
          u::SceneKind::blobs, u::SceneKind::texture,
          u::SceneKind::scene}) {
        for (const Size size : {Size{1, 1}, Size{5, 7}, Size{32, 32},
                                Size{64, 48}}) {
            for (const std::uint64_t seed : {0ULL, 1ULL, 2017ULL}) {
                const u::SceneGenerator gen(size.w, size.h, kind, seed);
                for (const int f : {0, 1, 17, 250, 1000}) {
                    const u::Image want =
                        referenceFrame(size.w, size.h, kind, seed, f);
                    const u::Image got = gen.frame(f);
                    ASSERT_EQ(got.data().size(), want.data().size());
                    EXPECT_EQ(std::memcmp(got.data().data(),
                                          want.data().data(),
                                          want.data().size()),
                              0)
                        << "kind " << static_cast<int>(kind) << " "
                        << size.w << "x" << size.h << " seed " << seed
                        << " frame " << f;
                }
            }
        }
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
