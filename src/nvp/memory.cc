#include "nvp/memory.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#include "arena/backend.h"
#include "util/bit_ops.h"
#include "util/logging.h"

namespace inc::nvp
{

DataMemory::DataMemory(util::Rng rng, std::size_t size,
                       arena::PersistenceBackend *backend,
                       std::string name_prefix)
    : size_(size), backend_(backend),
      name_prefix_(std::move(name_prefix)), rng_(rng)
{
    if (backend_) {
        main_ = backend_->acquire(name_prefix_ + ".main", size_);
        main_prec_ = backend_->acquire(name_prefix_ + ".prec", size_);
    } else {
        own_main_.assign(size_, 0);
        own_prec_.assign(size_, 0);
        main_ = own_main_.data();
        main_prec_ = own_prec_.data();
    }
}

void
DataMemory::checkAddr(std::uint32_t addr) const
{
    if (addr >= size_)
        util::panic("data memory address out of range: %u", addr);
}

void
DataMemory::addAcRegion(const AcRegion &region)
{
    if (region.start + region.length > size_)
        util::fatal("AC region [%u, %u) out of memory bounds",
                    region.start, region.start + region.length);
    ac_regions_.push_back(region);
}

void
DataMemory::addVersionedRegion(std::uint32_t start, std::uint32_t length,
                               bool write_through)
{
    if (start + length > size_)
        util::fatal("versioned region [%u, %u) out of memory bounds",
                    start, start + length);
    VersionedRegion region;
    region.start = start;
    region.length = length;
    region.write_through = write_through;
    if (backend_) {
        char name[64];
        std::snprintf(name, sizeof name, "%s.ver%zu",
                      name_prefix_.c_str(), versioned_.size());
        region.block_name = name;
        region.cells = reinterpret_cast<VersionedRegion::Cell *>(
            backend_->acquire(region.block_name,
                              length *
                                  sizeof(VersionedRegion::Cell)));
    } else {
        region.own_cells.resize(length);
        region.cells = region.own_cells.data();
    }
    // Backend cells may come back with written bits a previous owner
    // set, so the first clear of each lane scans the whole region;
    // fresh heap cells hold none.
    region.written_lo.fill(backend_ ? 0 : length);
    region.written_hi.fill(backend_ ? length : 0);
    versioned_.push_back(std::move(region));
}

void
DataMemory::clearRegions()
{
    if (backend_) {
        for (const VersionedRegion &r : versioned_)
            backend_->release(r.block_name);
    }
    ac_regions_.clear();
    versioned_.clear();
}

nvm::RetentionPolicy
DataMemory::policyAt(std::uint32_t addr) const
{
    for (const AcRegion &r : ac_regions_) {
        if (r.contains(addr))
            return r.policy;
    }
    return nvm::RetentionPolicy::full;
}

bool
DataMemory::isAc(std::uint32_t addr) const
{
    for (const AcRegion &r : ac_regions_) {
        if (r.contains(addr))
            return true;
    }
    return false;
}

DataMemory::VersionedRegion *
DataMemory::findVersioned(std::uint32_t addr)
{
    for (VersionedRegion &r : versioned_) {
        if (addr >= r.start && addr < r.start + r.length)
            return &r;
    }
    return nullptr;
}

const DataMemory::VersionedRegion *
DataMemory::findVersioned(std::uint32_t addr) const
{
    for (const VersionedRegion &r : versioned_) {
        if (addr >= r.start && addr < r.start + r.length)
            return &r;
    }
    return nullptr;
}

namespace
{

std::uint8_t
truncateToBits(std::uint8_t value, int bits)
{
    return static_cast<std::uint8_t>(
        util::truncateLow(value, static_cast<unsigned>(bits), 8));
}

} // namespace

std::uint8_t
DataMemory::load8(int lane, std::uint32_t addr, int bits, bool approx_mem)
{
    checkAddr(addr);
    INC_OBS_COUNT(obs_, loads);
    std::uint8_t value = main_[addr];
    if (lane > 0) {
        if (const VersionedRegion *r = findVersioned(addr)) {
            const auto &cell = r->cells[addr - r->start];
            if (cell.written & (1u << lane))
                value = cell.value[static_cast<size_t>(lane)];
        }
    }
    if (approx_mem && bits < 8 && isAc(addr)) {
        INC_OBS_COUNT(obs_, ac_truncated_loads);
        value = truncateToBits(value, bits);
    }
    return value;
}

void
DataMemory::store8(int lane, std::uint32_t addr, std::uint8_t value,
                   int bits, bool approx_mem)
{
    checkAddr(addr);
    INC_OBS_COUNT(obs_, stores);
    if (approx_mem && bits < 8 && isAc(addr)) {
        INC_OBS_COUNT(obs_, ac_truncated_stores);
        value = truncateToBits(value, bits);
    }

    VersionedRegion *r = findVersioned(addr);
    if (!r || lane == 0) {
        markDirty(addr);
        main_[addr] = value;
        main_prec_[addr] = static_cast<std::uint8_t>(bits);
        return;
    }
    const std::uint32_t off = addr - r->start;
    auto &cell = r->cells[off];
    cell.value[static_cast<size_t>(lane)] = value;
    cell.prec[static_cast<size_t>(lane)] = static_cast<std::uint8_t>(bits);
    cell.written |= static_cast<std::uint8_t>(1u << lane);
    std::uint32_t &lo = r->written_lo[static_cast<size_t>(lane)];
    std::uint32_t &hi = r->written_hi[static_cast<size_t>(lane)];
    lo = std::min(lo, off);
    hi = std::max(hi, off + 1);
    // Higher-bits write-through arbitration into the main version —
    // output regions only; lane-private scratch never disturbs lane 0.
    if (r->write_through) {
        if (bits >= main_prec_[addr]) {
            INC_OBS_COUNT(obs_, wt_commits);
            markDirty(addr);
            main_[addr] = value;
            main_prec_[addr] = static_cast<std::uint8_t>(bits);
        } else {
            INC_OBS_COUNT(obs_, wt_rejects);
        }
    }
}

void
DataMemory::resetVersionedRange(std::uint32_t start, std::uint32_t len)
{
    INC_OBS_ADD(obs_, version_resets, len);
    markDirtyRange(start, len);
    for (std::uint32_t addr = start; addr < start + len; ++addr) {
        checkAddr(addr);
        main_[addr] = 0;
        main_prec_[addr] = 0;
        if (VersionedRegion *r = findVersioned(addr))
            r->cells[addr - r->start] = VersionedRegion::Cell{};
    }
}

void
DataMemory::clearLaneVersions(int lane)
{
    if (lane <= 0 || lane >= kMaxVersions)
        util::panic("clearLaneVersions: bad lane %d", lane);
    INC_OBS_COUNT(obs_, lane_clears);
    const auto mask = static_cast<std::uint8_t>(~(1u << lane));
    for (VersionedRegion &r : versioned_) {
        std::uint32_t &lo = r.written_lo[static_cast<size_t>(lane)];
        std::uint32_t &hi = r.written_hi[static_cast<size_t>(lane)];
        for (std::uint32_t i = lo; i < hi; ++i)
            r.cells[i].written &= mask;
        lo = r.length;
        hi = 0;
    }
}

std::uint32_t
DataMemory::assemble(std::uint32_t start, std::uint32_t len,
                     isa::AssembleMode mode)
{
    std::uint32_t processed = 0;
    for (std::uint32_t addr = start; addr < start + len; ++addr) {
        checkAddr(addr);
        VersionedRegion *r = findVersioned(addr);
        if (!r)
            continue;
        auto &cell = r->cells[addr - r->start];
        ++processed;
        int value = main_[addr];
        int prec = main_prec_[addr];
        for (int lane = 1; lane < kMaxVersions; ++lane) {
            if (!(cell.written & (1u << lane)))
                continue;
            const int lv = cell.value[static_cast<size_t>(lane)];
            const int lp = cell.prec[static_cast<size_t>(lane)];
            switch (mode) {
              case isa::AssembleMode::higherbits:
                if (lp > prec) {
                    value = lv;
                    prec = lp;
                }
                break;
              case isa::AssembleMode::sum: {
                // Delta-merge: a lane's previously merged contribution
                // is replaced, not re-added, so assembling the same
                // lane values twice (recompute passes, re-adopted
                // frames) leaves main unchanged.
                const int before =
                    (cell.merged & (1u << lane))
                        ? cell.merged_value[static_cast<size_t>(lane)]
                        : 0;
                value = std::clamp(value + lv - before, 0, 255);
                cell.merged_value[static_cast<size_t>(lane)] =
                    static_cast<std::uint8_t>(lv);
                cell.merged |= static_cast<std::uint8_t>(1u << lane);
                prec = std::max(prec, lp);
                break;
              }
              case isa::AssembleMode::max:
                value = std::max(value, lv);
                prec = std::max(prec, lp);
                break;
              case isa::AssembleMode::min:
                value = std::min(value, lv);
                prec = std::max(prec, lp);
                break;
            }
        }
        cell.written = 0;
        markDirty(addr);
        main_[addr] = static_cast<std::uint8_t>(value);
        main_prec_[addr] = static_cast<std::uint8_t>(prec);
    }
    INC_OBS_ADD(obs_, assemble_bytes, processed);
    return processed;
}

int
DataMemory::precisionAt(std::uint32_t addr) const
{
    checkAddr(addr);
    return main_prec_[addr];
}

namespace
{

/** One set bit in every byte lane: bit plane 0 of an 8-byte word. */
constexpr std::uint64_t kByteLsbs = 0x0101010101010101ULL;

/** Little-endian 8-byte load/store: byte i of memory is bits
 *  [8i, 8i+8) of the word on any host. */
std::uint64_t
load64le(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

void
store64le(std::uint8_t *p, std::uint64_t v)
{
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    std::memcpy(p, &v, sizeof v);
}

/** popcount(word & (kByteLsbs << plane)): the plane's bits, shifted to
 *  the byte LSBs and summed into the top byte by one multiply (at most
 *  8, so no lane carries). */
std::uint64_t
planeCount(std::uint64_t word, int plane)
{
    return (((word >> plane) & kByteLsbs) * kByteLsbs) >> 56;
}

} // namespace

void
DataMemory::applyOutageDecay(double duration_tenth_ms)
{
    INC_OBS_COUNT(obs_, decay_passes);
    // Local copies: byte stores into main_ may alias any member, which
    // would pin the generator state and counters to memory.
    util::Rng rng = rng_;
    std::array<std::uint64_t, 8> flips{};
    for (const AcRegion &region : ac_regions_) {
        if (region.policy == nvm::RetentionPolicy::full)
            continue;
        const int cutoff =
            nvm::NvmArray::expiredCutoff(region.policy, duration_tenth_ms);
        if (cutoff == 0)
            continue;
        // One violation event per (outage, bit index) — Fig. 22 counts.
        for (int b = 1; b <= cutoff; ++b)
            ++failures_.violations[static_cast<size_t>(b - 1)];

        // Each byte's expired low bits take the low bits of one fresh
        // draw, in address order (pinned digests depend on that
        // stream). Eight bytes per step: the draws' low bytes form one
        // word, so the flip mask and the per-bit flip counts are word
        // operations; the tail goes bytewise.
        const auto mask =
            static_cast<std::uint8_t>(util::lowMask(
                static_cast<unsigned>(cutoff)));
        const std::uint64_t word_mask = kByteLsbs * mask;
        const std::uint32_t end = region.start + region.length;
        std::uint32_t addr = region.start;
        for (; end - addr >= 8; addr += 8) {
            std::uint64_t rnd = 0;
#pragma GCC unroll 8
            for (int i = 0; i < 8; ++i)
                rnd |= (rng.next() & 0xFFu) << (8 * i);
            const std::uint64_t old = load64le(main_ + addr);
            const std::uint64_t diff = (old ^ rnd) & word_mask;
            if (!diff)
                continue;
            for (int b = 0; b < cutoff; ++b)
                flips[static_cast<size_t>(b)] += planeCount(diff, b);
            store64le(main_ + addr, old ^ diff);
            if (!dirty_.empty()) {
                for (std::uint32_t i = 0; i < 8; ++i) {
                    if ((diff >> (8 * i)) & 0xFFu)
                        markDirty(addr + i);
                }
            }
        }
        for (; addr < end; ++addr) {
            const std::uint8_t old = main_[addr];
            const auto rnd = static_cast<std::uint8_t>(rng.next());
            const std::uint8_t neu =
                static_cast<std::uint8_t>((old & ~mask) | (rnd & mask));
            const std::uint8_t diff = old ^ neu;
            if (diff) {
                for (int b = 1; b <= cutoff; ++b) {
                    if (util::bit(diff, static_cast<unsigned>(b - 1)))
                        ++flips[static_cast<size_t>(b - 1)];
                }
                markDirty(addr);
                main_[addr] = neu;
            }
        }
    }
    rng_ = rng;
    for (std::size_t b = 0; b < flips.size(); ++b)
        failures_.flips[b] += flips[b];
}

void
DataMemory::enableDirtyTracking()
{
    if (!dirty_.empty())
        return;
    const std::size_t words = (size_ + kDirtyWordBytes - 1) / kDirtyWordBytes;
    dirty_.assign((words + 63) / 64, 0);
}

void
DataMemory::clearDirty()
{
    std::fill(dirty_.begin(), dirty_.end(), 0);
}

std::uint64_t
DataMemory::dirtyWordCount() const
{
    std::uint64_t n = 0;
    for (std::uint64_t word : dirty_)
        n += static_cast<std::uint64_t>(util::popcount64(word));
    return n;
}

std::uint8_t
DataMemory::hostRead8(std::uint32_t addr) const
{
    checkAddr(addr);
    return main_[addr];
}

void
DataMemory::hostWrite8(std::uint32_t addr, std::uint8_t value)
{
    checkAddr(addr);
    markDirty(addr);
    main_[addr] = value;
}

void
DataMemory::hostWriteBlock(std::uint32_t addr,
                           const std::vector<std::uint8_t> &data)
{
    if (addr + data.size() > size_)
        util::panic("hostWriteBlock out of range");
    markDirtyRange(addr, data.size());
    std::copy(data.begin(), data.end(), main_ + addr);
}

std::vector<std::uint8_t>
DataMemory::snapshot(std::uint32_t start, std::uint32_t len) const
{
    if (start + len > size_)
        util::panic("snapshot out of range");
    return std::vector<std::uint8_t>(main_ + start, main_ + start + len);
}

std::vector<std::uint8_t>
DataMemory::precisionMask(std::uint32_t start, std::uint32_t len) const
{
    if (start + len > size_)
        util::panic("precisionMask range out of bounds");
    std::vector<std::uint8_t> mask(len, 0);
    for (std::uint32_t i = 0; i < len; ++i)
        mask[i] = main_prec_[start + i] > 0 ? 1 : 0;
    return mask;
}

double
DataMemory::coverage(std::uint32_t start, std::uint32_t len) const
{
    if (len == 0)
        return 1.0;
    if (start + len > size_)
        util::panic("coverage range out of bounds");
    std::uint32_t written = 0;
    for (std::uint32_t addr = start; addr < start + len; ++addr) {
        if (main_prec_[addr] > 0)
            ++written;
    }
    return static_cast<double>(written) / static_cast<double>(len);
}

} // namespace inc::nvp
