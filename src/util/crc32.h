/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
 * guarding checkpoint ImageStore images (src/sim) and the persistence
 * arena's log records and commit markers (src/arena).
 *
 * Two implementations compute the same value. On x86 hosts whose CPU
 * has PCLMULQDQ (checked once at run time), the 16-byte-multiple prefix
 * of any buffer of at least 64 bytes is folded with carry-less
 * multiplies; everything else — the remaining tail, short buffers and
 * hosts without the instruction — goes through the portable
 * slicing-by-8 loop. No build option or environment variable selects a
 * path: the result is bit-identical either way.
 */

#ifndef INC_UTIL_CRC32_H
#define INC_UTIL_CRC32_H

#include <cstddef>
#include <cstdint>

namespace inc::util
{

/**
 * Incremental CRC-32: feed @p crc the previous return value (or 0 for
 * the first chunk). The final value is already inverted — callers
 * never xor with 0xFFFFFFFF themselves.
 */
std::uint32_t crc32(std::uint32_t crc, const void *data,
                    std::size_t length);

/** One-shot convenience over a single buffer. */
inline std::uint32_t
crc32(const void *data, std::size_t length)
{
    return crc32(0, data, length);
}

namespace detail
{

/**
 * The slicing-by-8 path alone, same contract as crc32(). Exposed so the
 * tests can check the dispatched path against it; not a switch.
 */
std::uint32_t crc32Portable(std::uint32_t crc, const void *data,
                            std::size_t length);

} // namespace detail

} // namespace inc::util

#endif // INC_UTIL_CRC32_H
