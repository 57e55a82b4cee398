/**
 * @file
 * The NVP's nonvolatile data memory (paper Sec. 4, "Data memory").
 *
 * Three layers of behaviour on top of a flat 64 KiB byte array:
 *
 *  - AC regions: address ranges declared approximable by the
 *    incidental(src, minbits, maxbits, policy) pragma. Loads/stores of
 *    AC data are truncated to the active bitwidth when memory
 *    approximation is enabled, and the region's retention-shaping policy
 *    determines both the (discounted) write energy and which low-order
 *    bits settle randomly across a power outage (applyOutageDecay).
 *
 *  - Versioned regions: ranges extended from 8 to 32 bits (4 versions)
 *    with 3 bits of precision metadata per version, supporting
 *    incidental SIMD lanes and recompute-and-combine. Lane 0 reads and
 *    writes the main version; lanes 1-3 read their own version
 *    (falling back to main when never written) and write through with
 *    higher-bits arbitration: a write updates the main version iff its
 *    precision is >= the main version's current precision tag.
 *
 *  - The assemble instruction's merge FSM: combine versions into main
 *    over a range with one of the Table 1 modes.
 */

#ifndef INC_NVP_MEMORY_H
#define INC_NVP_MEMORY_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/isa.h"
#include "nvm/nvm_array.h"
#include "nvm/retention_policy.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace inc::arena
{
class PersistenceBackend;
}

namespace inc::nvp
{

/** An approximable memory range and its backup retention policy. */
struct AcRegion
{
    std::uint32_t start = 0;
    std::uint32_t length = 0;
    nvm::RetentionPolicy policy = nvm::RetentionPolicy::full;

    bool contains(std::uint32_t addr) const
    {
        return addr >= start && addr < start + length;
    }
};

/** The NVP data memory. */
class DataMemory
{
  public:
    /** Number of SIMD versions per word (paper: 8 -> 32 bits). */
    static constexpr int kMaxVersions = 4;

    /**
     * @param backend  where the byte arrays live. nullptr (the default)
     *     keeps them on the heap, bit-compatible with the pre-arena
     *     behaviour; an arena::PersistenceBackend places them in named
     *     blocks ("<prefix>.main", "<prefix>.prec", "<prefix>.verN")
     *     whose contents survive process death. Not owned; must outlive
     *     this object.
     */
    explicit DataMemory(util::Rng rng,
                        std::size_t size = isa::kDataMemBytes,
                        arena::PersistenceBackend *backend = nullptr,
                        std::string name_prefix = "mem");

    // Storage is pointer-based (heap vectors or backend blocks), so
    // copying would alias or dangle; moving keeps the underlying
    // buffers and stays valid.
    DataMemory(const DataMemory &) = delete;
    DataMemory &operator=(const DataMemory &) = delete;
    DataMemory(DataMemory &&) = default;
    DataMemory &operator=(DataMemory &&) = default;

    std::size_t size() const { return size_; }

    // ---- configuration -------------------------------------------------

    /** Declare an approximable region with a retention policy. */
    void addAcRegion(const AcRegion &region);

    /**
     * Declare a versioned (SIMD / RAC) region.
     *
     * @param write_through  when true (output regions), lane writes pass
     *     into the main version under higher-bits arbitration; when
     *     false (lane-private scratch), lane writes stay in their own
     *     version and never disturb lane 0's data.
     */
    void addVersionedRegion(std::uint32_t start, std::uint32_t length,
                            bool write_through = true);

    /** Remove all region declarations (memory contents kept). */
    void clearRegions();

    /** Policy of the AC region containing @p addr (full if none). */
    nvm::RetentionPolicy policyAt(std::uint32_t addr) const;

    /** True if @p addr lies in a declared AC region. */
    bool isAc(std::uint32_t addr) const;

    // ---- lane accesses -------------------------------------------------

    /**
     * Load one byte for @p lane. @p bits is the lane's active bitwidth;
     * when @p approx_mem is true and the address is in an AC region the
     * low (8-bits) bits are truncated (paper Sec. 8.1 memory model).
     */
    std::uint8_t load8(int lane, std::uint32_t addr, int bits,
                       bool approx_mem);

    /**
     * Store one byte from @p lane with precision tag @p bits. AC-region
     * truncation as for load8; versioned regions apply higher-bits
     * write-through arbitration into the main version.
     */
    void store8(int lane, std::uint32_t addr, std::uint8_t value, int bits,
                bool approx_mem);

    // ---- versioned-region management ------------------------------------

    /**
     * Reset versioned bytes in [start, start+len): main value and all
     * versions zeroed, precision tags cleared. Called when an output ring
     * slot is first claimed by a new frame.
     */
    void resetVersionedRange(std::uint32_t start, std::uint32_t len);

    /** Forget lane @p lane's private version data everywhere (retire).
     *  Touches only the cells the lane wrote since its last clear. */
    void clearLaneVersions(int lane);

    /**
     * Merge versions 1..3 into main over [start, start+len) with
     * @p mode; clears merged version slots. Returns bytes processed by
     * the FSM (for cycle/energy accounting).
     */
    std::uint32_t assemble(std::uint32_t start, std::uint32_t len,
                           isa::AssembleMode mode);

    /** Precision tag of the main version at @p addr (0 outside
     *  versioned regions or when never written). */
    int precisionAt(std::uint32_t addr) const;

    // ---- power-failure behaviour ----------------------------------------

    /**
     * Apply retention decay across an outage of @p duration_tenth_ms:
     * every AC-region byte's expired low bits settle randomly. Violation
     * events are counted once per (region policy, bit index) and flips
     * per byte-bit (paper Fig. 22).
     */
    void applyOutageDecay(double duration_tenth_ms);

    const nvm::RetentionFailureCounts &failures() const
    {
        return failures_;
    }
    void resetFailures() { failures_.reset(); }

    // ---- host (sensor DMA / harness) access ------------------------------

    std::uint8_t hostRead8(std::uint32_t addr) const;
    void hostWrite8(std::uint32_t addr, std::uint8_t value);
    void hostWriteBlock(std::uint32_t addr,
                        const std::vector<std::uint8_t> &data);

    /** Snapshot main-version bytes of [start, start+len). */
    std::vector<std::uint8_t> snapshot(std::uint32_t start,
                                       std::uint32_t len) const;

    /** Per-byte coverage: fraction of [start,start+len) with prec > 0. */
    double coverage(std::uint32_t start, std::uint32_t len) const;

    /** Per-byte written mask (1 where precision > 0). */
    std::vector<std::uint8_t> precisionMask(std::uint32_t start,
                                            std::uint32_t len) const;

    /** Attach (or detach with nullptr) hot-path event counters; purely
     *  observational. */
    void setObsCounters(obs::MemCounters *counters) { obs_ = counters; }

    // ---- dirty-word tracking (Freezer backup strategy) -------------------

    /** Dirty-tracking granularity: one bit per 4-byte word. */
    static constexpr std::uint32_t kDirtyWordBytes = 4;

    /**
     * Start marking words whose main-version bytes are written. Off by
     * default — the bitmap is empty and every write path pays only one
     * predictable branch. Tracking covers ALL main_ mutations (lane
     * stores, write-through commits, assemble merges, versioned resets,
     * outage decay, host/DMA writes), so a consumer that copies exactly
     * the marked words after each clearDirty() interval can never miss
     * a changed byte (the property tests/test_dirty_bitmap.cc proves).
     * Over-reporting is allowed: a bit covers its whole 4-byte word and
     * is set even when a write stores the value already present.
     */
    void enableDirtyTracking();
    bool dirtyTrackingEnabled() const { return !dirty_.empty(); }

    /** Clear every dirty bit (start of a new tracking interval). */
    void clearDirty();

    /** Number of words currently marked dirty. */
    std::uint64_t dirtyWordCount() const;

    /** Raw bitmap, bit w = word [w*4, w*4+4) dirty. Empty when tracking
     *  is disabled. */
    const std::vector<std::uint64_t> &dirtyBits() const { return dirty_; }

    /** Main-version byte array (strategies copy checkpoint images from
     *  here). Valid for size() bytes. */
    const std::uint8_t *mainData() const { return main_; }

  private:
    struct VersionedRegion
    {
        std::uint32_t start = 0;
        std::uint32_t length = 0;
        bool write_through = true;
        // Lane-private values and precision tags for lanes 1..3 plus the
        // main version's precision tag. written bit i => lane i has a
        // private copy.
        struct Cell
        {
            std::array<std::uint8_t, kMaxVersions> value{};
            std::array<std::uint8_t, kMaxVersions> prec{};
            std::uint8_t written = 0;
            // Per-lane contribution already folded into main by a
            // sum-mode assemble. Re-merging replaces the contribution
            // instead of re-adding it, so recompute passes that
            // re-produce an identical frame are idempotent.
            std::array<std::uint8_t, kMaxVersions> merged_value{};
            std::uint8_t merged = 0;
        };
        // Cell is all-bytes, zero-initialized == default-constructed, so
        // a zero-filled backend block *is* a fresh cell array and a
        // persisted one resumes exactly where the killed process left it.
        Cell *cells = nullptr;
        std::vector<Cell> own_cells; ///< heap-mode storage
        std::string block_name;      ///< backend-mode block
        // Per lane, a cell range [lo, hi) holding every set written bit
        // of that lane (empty when lo >= hi): store8 widens it and
        // clearLaneVersions walks only it. Heap-side, never persisted.
        std::array<std::uint32_t, kMaxVersions> written_lo{};
        std::array<std::uint32_t, kMaxVersions> written_hi{};
    };

    VersionedRegion *findVersioned(std::uint32_t addr);
    const VersionedRegion *findVersioned(std::uint32_t addr) const;
    void checkAddr(std::uint32_t addr) const;

    void markDirty(std::uint32_t addr)
    {
        if (dirty_.empty())
            return;
        const std::uint32_t w = addr / kDirtyWordBytes;
        dirty_[w >> 6] |= std::uint64_t{1} << (w & 63);
    }

    void markDirtyRange(std::uint32_t addr, std::size_t len)
    {
        if (dirty_.empty() || len == 0)
            return;
        const std::uint32_t first = addr / kDirtyWordBytes;
        const std::uint32_t last =
            (addr + static_cast<std::uint32_t>(len) - 1) / kDirtyWordBytes;
        for (std::uint32_t w = first; w <= last; ++w)
            dirty_[w >> 6] |= std::uint64_t{1} << (w & 63);
    }

    std::size_t size_ = 0;
    std::uint8_t *main_ = nullptr;      ///< size_ bytes
    std::uint8_t *main_prec_ = nullptr; ///< size_ precision tags
    std::vector<std::uint8_t> own_main_; ///< heap-mode storage
    std::vector<std::uint8_t> own_prec_;
    arena::PersistenceBackend *backend_ = nullptr;
    std::string name_prefix_;
    std::vector<AcRegion> ac_regions_;
    std::vector<VersionedRegion> versioned_;
    util::Rng rng_;
    nvm::RetentionFailureCounts failures_;
    obs::MemCounters *obs_ = nullptr;
    /** One bit per 4-byte main_ word; empty = tracking disabled. Heap
     *  only (never persisted): a warm restart re-syncs conservatively
     *  by treating every word as dirty. */
    std::vector<std::uint64_t> dirty_;
};

} // namespace inc::nvp

#endif // INC_NVP_MEMORY_H
