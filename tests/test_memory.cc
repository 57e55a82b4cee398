/**
 * Versioned data memory: AC truncation, lane-private versions,
 * higher-bits write-through arbitration, assemble merge modes, and
 * outage decay with Fig. 22-style counters.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "arena/arena.h"
#include "arena/backend.h"
#include "nvm/nvm_array.h"
#include "nvp/memory.h"
#include "util/bit_ops.h"

using namespace inc::nvp;
using inc::nvm::RetentionPolicy;

namespace
{

DataMemory
makeMem()
{
    DataMemory mem(inc::util::Rng(9), 4096);
    mem.addAcRegion({0, 256, RetentionPolicy::linear});
    mem.addVersionedRegion(1024, 256);
    return mem;
}

} // namespace

TEST(DataMemory, PlainLoadStore)
{
    DataMemory mem(inc::util::Rng(1), 1024);
    mem.store8(0, 100, 0xAB, 8, false);
    EXPECT_EQ(mem.load8(0, 100, 8, false), 0xAB);
    EXPECT_EQ(mem.hostRead8(100), 0xAB);
}

TEST(DataMemory, AcTruncationOnLoadAndStore)
{
    DataMemory mem = makeMem();
    mem.hostWrite8(10, 0xFF);
    // 4-bit memory: low 4 bits truncated inside the AC region.
    EXPECT_EQ(mem.load8(0, 10, 4, true), 0xF0);
    // Full precision or approximation off: exact.
    EXPECT_EQ(mem.load8(0, 10, 8, true), 0xFF);
    EXPECT_EQ(mem.load8(0, 10, 4, false), 0xFF);
    // Outside the AC region: exact regardless.
    mem.hostWrite8(300, 0xFF);
    EXPECT_EQ(mem.load8(0, 300, 4, true), 0xFF);
    // Stores truncate too.
    mem.store8(0, 11, 0xFF, 3, true);
    EXPECT_EQ(mem.hostRead8(11), 0xE0);
}

TEST(DataMemory, VersionedLanePrivacy)
{
    DataMemory mem = makeMem();
    mem.store8(0, 1024, 50, 8, false);
    mem.store8(2, 1024, 60, 4, false);
    // Lane 2 sees its own copy; lane 1 falls back to main.
    EXPECT_EQ(mem.load8(2, 1024, 8, false), 60);
    EXPECT_EQ(mem.load8(1, 1024, 8, false), 50);
    EXPECT_EQ(mem.load8(0, 1024, 8, false), 50);
}

TEST(DataMemory, HigherBitsWriteThroughArbitration)
{
    DataMemory mem = makeMem();
    // Main written at precision 8; a 4-bit lane write must not clobber.
    mem.store8(0, 1030, 200, 8, false);
    mem.store8(1, 1030, 10, 4, false);
    EXPECT_EQ(mem.hostRead8(1030), 200);
    EXPECT_EQ(mem.precisionAt(1030), 8);
    // An unwritten address accepts any precision.
    mem.store8(1, 1031, 77, 3, false);
    EXPECT_EQ(mem.hostRead8(1031), 77);
    EXPECT_EQ(mem.precisionAt(1031), 3);
    // A higher-precision lane write upgrades it.
    mem.store8(2, 1031, 88, 6, false);
    EXPECT_EQ(mem.hostRead8(1031), 88);
    EXPECT_EQ(mem.precisionAt(1031), 6);
}

TEST(DataMemory, ResetVersionedRange)
{
    DataMemory mem = makeMem();
    mem.store8(0, 1040, 123, 8, false);
    mem.store8(1, 1040, 45, 5, false);
    mem.resetVersionedRange(1040, 1);
    EXPECT_EQ(mem.hostRead8(1040), 0);
    EXPECT_EQ(mem.precisionAt(1040), 0);
    EXPECT_EQ(mem.load8(1, 1040, 8, false), 0);
}

TEST(DataMemory, ClearLaneVersions)
{
    DataMemory mem = makeMem();
    mem.store8(0, 1050, 10, 8, false);
    mem.store8(3, 1050, 99, 2, false);
    EXPECT_EQ(mem.load8(3, 1050, 8, false), 99);
    mem.clearLaneVersions(3);
    EXPECT_EQ(mem.load8(3, 1050, 8, false), 10);
}

namespace
{

/** load8 of every byte of [start, start+len) as lane @p lane sees it. */
std::vector<std::uint8_t>
laneView(DataMemory &mem, int lane, std::uint32_t start, std::uint32_t len)
{
    std::vector<std::uint8_t> view;
    for (std::uint32_t a = start; a < start + len; ++a)
        view.push_back(mem.load8(lane, a, 8, false));
    return view;
}

} // namespace

TEST(DataMemory, LaneClearMatchesFullScanReference)
{
    // Two versioned regions, one write-through and one lane-private;
    // lanes 1-3 store into scattered cells of both.
    DataMemory mem(inc::util::Rng(9), 4096);
    mem.addVersionedRegion(1024, 256);
    mem.addVersionedRegion(2048, 512, /*write_through=*/false);
    const std::array<std::pair<std::uint32_t, std::uint32_t>, 2> regions{
        {{1024, 256}, {2048, 512}}};

    // Reference: each lane's last private value per address.
    std::array<std::map<std::uint32_t, std::uint8_t>, 4> written;
    inc::util::Rng rng(5);
    for (int n = 0; n < 400; ++n) {
        const int lane = 1 + static_cast<int>(rng.nextBounded(3));
        const auto &[start, len] = regions[rng.nextBounded(2)];
        const auto addr =
            start + static_cast<std::uint32_t>(rng.nextBounded(len));
        const auto value = static_cast<std::uint8_t>(rng.next());
        const int bits = 1 + static_cast<int>(rng.nextBounded(8));
        mem.store8(lane, addr, value, bits, false);
        written[static_cast<size_t>(lane)][addr] = value;
    }
    ASSERT_FALSE(written[2].empty());

    const auto main_before = mem.snapshot(0, 4096);
    mem.clearLaneVersions(2);
    EXPECT_EQ(mem.snapshot(0, 4096), main_before);
    written[2].clear();

    // The full-scan reference: a lane reads its own last store where it
    // has one and main everywhere else.
    const auto expectReference = [&] {
        for (const auto &[start, len] : regions) {
            for (int lane = 1; lane < 4; ++lane) {
                const auto &mine = written[static_cast<size_t>(lane)];
                for (std::uint32_t a = start; a < start + len; ++a) {
                    const auto it = mine.find(a);
                    const std::uint8_t want =
                        it != mine.end() ? it->second : mem.hostRead8(a);
                    ASSERT_EQ(mem.load8(lane, a, 8, false), want)
                        << "lane " << lane << " addr " << a;
                }
            }
        }
    };
    expectReference();

    // A second clear of the same lane finds nothing left to clear.
    std::vector<std::vector<std::uint8_t>> views;
    for (const auto &[start, len] : regions) {
        for (int lane = 0; lane < 4; ++lane)
            views.push_back(laneView(mem, lane, start, len));
    }
    mem.clearLaneVersions(2);
    std::size_t v = 0;
    for (const auto &[start, len] : regions) {
        for (int lane = 0; lane < 4; ++lane)
            EXPECT_EQ(laneView(mem, lane, start, len), views[v++]);
    }
    expectReference();

    // The cleared lane writes again: its new stores are tracked anew.
    mem.store8(2, 1300, 0x5A, 8, false);
    mem.store8(2, 2049, 0xA5, 8, false);
    EXPECT_EQ(mem.load8(2, 2049, 8, false), 0xA5);
    mem.clearLaneVersions(2);
    EXPECT_EQ(mem.load8(2, 2049, 8, false), mem.hostRead8(2049));
    EXPECT_EQ(mem.load8(2, 1300, 8, false), mem.hostRead8(1300));
}

TEST(DataMemory, ReopenedArenaMemoryClearsPersistedLaneVersions)
{
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() /
         ("inc-memory-test-" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    {
        auto store = inc::arena::Arena::open(dir);
        inc::arena::ArenaBackend backend(store.get());
        DataMemory mem(inc::util::Rng(9), 4096, &backend);
        mem.addVersionedRegion(1024, 256, /*write_through=*/false);
        mem.store8(2, 1100, 77, 4, false);
        mem.store8(2, 1270, 78, 4, false);
        mem.store8(1, 1100, 11, 4, false);
    }
    {
        // A new owner of the same blocks: the written bits come back
        // with the cells, though this object never saw them stored.
        auto store = inc::arena::Arena::open(dir);
        inc::arena::ArenaBackend backend(store.get());
        DataMemory mem(inc::util::Rng(9), 4096, &backend);
        mem.addVersionedRegion(1024, 256, /*write_through=*/false);
        ASSERT_EQ(mem.load8(2, 1100, 8, false), 77);
        ASSERT_EQ(mem.load8(2, 1270, 8, false), 78);
        mem.clearLaneVersions(2);
        EXPECT_EQ(mem.load8(2, 1100, 8, false), mem.hostRead8(1100));
        EXPECT_EQ(mem.load8(2, 1270, 8, false), mem.hostRead8(1270));
        EXPECT_EQ(mem.load8(1, 1100, 8, false), 11);
    }
    fs::remove_all(dir);
}

TEST(DataMemory, AssembleHigherBits)
{
    DataMemory mem = makeMem();
    mem.store8(0, 1060, 10, 3, false);  // main at precision 3
    // Lane 1 writes at precision 2 into its version only (arbitration
    // keeps main), lane 2 at precision 7 (write-through updates main).
    mem.store8(1, 1060, 20, 2, false);
    mem.store8(2, 1060, 30, 7, false);
    EXPECT_EQ(mem.hostRead8(1060), 30);
    // Reset main precision by re-storing low to exercise the FSM merge.
    mem.store8(0, 1061, 5, 2, false);
    mem.store8(1, 1061, 40, 6, false);
    // Undo the write-through to simulate a later main overwrite at low
    // precision, then merge: version 1 should win again.
    mem.store8(0, 1061, 7, 1, false);
    const auto processed = mem.assemble(1061, 1, inc::isa::AssembleMode::
                                                     higherbits);
    EXPECT_EQ(processed, 1u);
    EXPECT_EQ(mem.hostRead8(1061), 40);
    EXPECT_EQ(mem.precisionAt(1061), 6);
}

TEST(DataMemory, AssembleSumMaxMin)
{
    DataMemory mem = makeMem();
    mem.store8(0, 1070, 100, 8, false);
    mem.store8(1, 1070, 200, 1, false); // stays in version 1
    EXPECT_EQ(mem.assemble(1070, 1, inc::isa::AssembleMode::sum), 1u);
    EXPECT_EQ(mem.hostRead8(1070), 255); // saturating sum

    mem.store8(0, 1071, 50, 8, false);
    mem.store8(1, 1071, 20, 1, false);
    mem.assemble(1071, 1, inc::isa::AssembleMode::min);
    EXPECT_EQ(mem.hostRead8(1071), 20);

    mem.store8(0, 1072, 50, 8, false);
    mem.store8(1, 1072, 90, 1, false);
    mem.assemble(1072, 1, inc::isa::AssembleMode::max);
    EXPECT_EQ(mem.hostRead8(1072), 90);
}

TEST(DataMemory, AssembleClearsVersionsAndSkipsOutsideRegions)
{
    DataMemory mem = makeMem();
    mem.store8(1, 1080, 33, 2, false);
    EXPECT_EQ(mem.assemble(1080, 1, inc::isa::AssembleMode::max), 1u);
    // Version cleared: lane 1 now reads main.
    EXPECT_EQ(mem.load8(1, 1080, 8, false), mem.hostRead8(1080));
    // Non-versioned range processes zero bytes.
    EXPECT_EQ(mem.assemble(0, 16, inc::isa::AssembleMode::max), 0u);
}

TEST(DataMemory, OutageDecayCountsAndCorrupts)
{
    DataMemory mem = makeMem();
    for (std::uint32_t a = 0; a < 256; ++a)
        mem.hostWrite8(a, 0xFF);
    // 500 x 0.1 ms outage: linear policy bits 1-2 expire.
    mem.applyOutageDecay(500.0);
    const auto &f = mem.failures();
    EXPECT_EQ(f.violations[0], 1u); // one event per (outage, bit)
    EXPECT_EQ(f.violations[1], 1u);
    EXPECT_EQ(f.violations[2], 0u);
    EXPECT_GT(f.flips[0] + f.flips[1], 50u); // many bytes flipped
    int corrupted = 0;
    for (std::uint32_t a = 0; a < 256; ++a) {
        EXPECT_EQ(mem.hostRead8(a) & 0xFC, 0xFC);
        if (mem.hostRead8(a) != 0xFF)
            ++corrupted;
    }
    EXPECT_GT(corrupted, 100);
    // Short outage: nothing expires.
    DataMemory mem2 = makeMem();
    mem2.applyOutageDecay(0.05);
    EXPECT_EQ(mem2.failures().totalViolations(), 0u);
}

namespace
{

/**
 * The bytewise decay loop DataMemory::applyOutageDecay ran before it
 * went word-wide, kept as the reference: same draws, same counters,
 * same dirty marks (one per changed byte, 4-byte words).
 */
struct ReferenceDecay
{
    std::vector<std::uint8_t> bytes;
    inc::util::Rng rng;
    inc::nvm::RetentionFailureCounts failures;
    std::vector<std::uint64_t> dirty;

    void apply(const std::vector<AcRegion> &regions, double duration)
    {
        for (const AcRegion &region : regions) {
            if (region.policy == RetentionPolicy::full)
                continue;
            const int cutoff =
                inc::nvm::NvmArray::expiredCutoff(region.policy, duration);
            if (cutoff == 0)
                continue;
            for (int b = 1; b <= cutoff; ++b)
                ++failures.violations[static_cast<size_t>(b - 1)];
            const auto mask = static_cast<std::uint8_t>(
                inc::util::lowMask(static_cast<unsigned>(cutoff)));
            for (std::uint32_t addr = region.start;
                 addr < region.start + region.length; ++addr) {
                const std::uint8_t old = bytes[addr];
                const auto rnd = static_cast<std::uint8_t>(rng.next());
                const std::uint8_t neu = static_cast<std::uint8_t>(
                    (old & ~mask) | (rnd & mask));
                const std::uint8_t diff = old ^ neu;
                if (diff) {
                    for (int b = 1; b <= cutoff; ++b) {
                        if (inc::util::bit(diff,
                                           static_cast<unsigned>(b - 1)))
                            ++failures.flips[static_cast<size_t>(b - 1)];
                    }
                    const std::uint32_t w =
                        addr / DataMemory::kDirtyWordBytes;
                    dirty[w >> 6] |= std::uint64_t{1} << (w & 63);
                    bytes[addr] = neu;
                }
            }
        }
    }
};

} // namespace

TEST(DataMemory, WordWideDecayMatchesBytewiseReference)
{
    constexpr std::uint32_t kSize = 1024;
    const RetentionPolicy policies[] = {
        RetentionPolicy::full, RetentionPolicy::linear,
        RetentionPolicy::log, RetentionPolicy::parabola};
    // Region lengths below 8, around and between multiples of 8.
    const std::uint32_t lengths[] = {0,  1,  2,  3,  5,  7,  8,
                                     9,  15, 16, 17, 31, 64, 133};
    std::uint64_t seed = 1;
    for (const RetentionPolicy policy : policies) {
        // Outage lengths just past and well past each bit's retention,
        // plus one that expires nothing.
        std::vector<double> durations = {
            0.5 * inc::nvm::retentionTenthMs(policy, 1)};
        for (int b = 1; b <= 8; ++b) {
            const double r = inc::nvm::retentionTenthMs(policy, b);
            durations.push_back(r * 1.0001);
            durations.push_back(r * 1.5);
        }
        std::set<int> cutoffs;
        for (const double duration : durations) {
            cutoffs.insert(
                inc::nvm::NvmArray::expiredCutoff(policy, duration));
            for (std::uint32_t offset = 0; offset < 8; ++offset) {
                for (const std::uint32_t length : lengths) {
                    ++seed;
                    DataMemory mem(inc::util::Rng(seed), kSize);
                    mem.enableDirtyTracking();
                    std::vector<std::uint8_t> init(kSize);
                    inc::util::Rng fill(seed * 7919);
                    for (std::uint8_t &b : init)
                        b = static_cast<std::uint8_t>(fill.next());
                    mem.hostWriteBlock(0, init);
                    mem.clearDirty();
                    // Two regions, decayed in declaration order: the
                    // case under test and a fixed 8-aligned one after.
                    const std::vector<AcRegion> regions = {
                        {64 + offset, length, policy},
                        {512, 21, RetentionPolicy::linear}};
                    for (const AcRegion &r : regions)
                        mem.addAcRegion(r);

                    ReferenceDecay ref{init, inc::util::Rng(seed), {},
                                       mem.dirtyBits()};
                    mem.applyOutageDecay(duration);
                    ref.apply(regions, duration);

                    SCOPED_TRACE(testing::Message()
                                 << "policy " << static_cast<int>(policy)
                                 << " duration " << duration << " offset "
                                 << offset << " length " << length);
                    ASSERT_EQ(mem.snapshot(0, kSize), ref.bytes);
                    ASSERT_EQ(mem.failures().flips, ref.failures.flips);
                    ASSERT_EQ(mem.failures().violations,
                              ref.failures.violations);
                    ASSERT_EQ(mem.dirtyBits(), ref.dirty);

                    // The draw stream continues where the reference's
                    // does: a 3-byte region with every bit expired
                    // takes the low bytes of the next three draws.
                    mem.clearRegions();
                    mem.addAcRegion({900, 3, RetentionPolicy::linear});
                    mem.applyOutageDecay(
                        2.0 * inc::nvm::retentionTenthMs(
                                  RetentionPolicy::linear, 8));
                    for (std::uint32_t i = 0; i < 3; ++i) {
                        ASSERT_EQ(mem.hostRead8(900 + i),
                                  static_cast<std::uint8_t>(ref.rng.next()));
                    }
                }
            }
        }
        if (policy != RetentionPolicy::full) {
            for (int c = 1; c <= 8; ++c) {
                EXPECT_TRUE(cutoffs.count(c))
                    << "no outage length reaches cutoff " << c;
            }
        }
    }
}

TEST(DataMemory, SnapshotAndCoverage)
{
    DataMemory mem = makeMem();
    mem.store8(0, 1024, 1, 8, false);
    mem.store8(0, 1025, 2, 4, false);
    const auto snap = mem.snapshot(1024, 4);
    EXPECT_EQ(snap[0], 1);
    EXPECT_EQ(snap[1], 2);
    EXPECT_DOUBLE_EQ(mem.coverage(1024, 4), 0.5);
}
