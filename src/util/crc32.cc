#include "util/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define INC_CRC32_CLMUL 1
#else
#define INC_CRC32_CLMUL 0
#endif

namespace inc::util
{

namespace
{

/**
 * Slicing-by-8 tables: table[0] is the classic bytewise table;
 * table[k][b] is the CRC of byte b followed by k zero bytes. Eight
 * bytes are then folded per step instead of one — same polynomial,
 * bit-identical results, ~8x the bytewise throughput. This is the
 * portable path: the tail of every buffer, buffers under 64 bytes, and
 * whole buffers on hosts without PCLMULQDQ.
 */
constexpr std::array<std::array<std::uint32_t, 256>, 8>
makeTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        tables[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = tables[0][i];
        for (std::size_t k = 1; k < 8; ++k) {
            c = tables[0][c & 0xFFu] ^ (c >> 8);
            tables[k][i] = c;
        }
    }
    return tables;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kTables =
    makeTables();

/** Advance the raw (pre-inverted) CRC state @p c over @p length bytes. */
std::uint32_t
slicingBy8(std::uint32_t c, const unsigned char *bytes, std::size_t length)
{
    while (length >= 8) {
        std::uint32_t lo;
        std::uint32_t hi;
        std::memcpy(&lo, bytes, sizeof lo);
        std::memcpy(&hi, bytes + 4, sizeof hi);
        c ^= lo;
        c = kTables[7][c & 0xFFu] ^ kTables[6][(c >> 8) & 0xFFu] ^
            kTables[5][(c >> 16) & 0xFFu] ^ kTables[4][c >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
        bytes += 8;
        length -= 8;
    }
    for (std::size_t i = 0; i < length; ++i)
        c = kTables[0][(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
    return c;
}

#if INC_CRC32_CLMUL

#define INC_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

INC_CLMUL_TARGET inline __m128i
load(const unsigned char *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** x * (k_hi, k_lo): the low half times k_lo xor the high half times
 *  k_hi, i.e. x carried forward by the fold distance of k. */
INC_CLMUL_TARGET inline __m128i
fold(__m128i x, __m128i k)
{
    return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                         _mm_clmulepi64_si128(x, k, 0x11));
}

/**
 * Advance the raw CRC state @p c over @p length bytes by carry-less
 * multiply folding: four 128-bit lanes fold 64 bytes per step, collapse
 * to one lane, fold the remaining 16-byte blocks, then reduce 128 -> 64
 * -> 32 bits with a Barrett step. The constants are x^k mod P(x) for
 * the reflected polynomial, from Gopal et al., "Fast CRC Computation
 * for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009),
 * as used by zlib and Chromium. Requires length >= 64 and a multiple
 * of 16. The state is pre-inverted on both sides, exactly like
 * slicingBy8(), so the two paths chain freely.
 */
INC_CLMUL_TARGET std::uint32_t
foldClmul(std::uint32_t c, const unsigned char *buf, std::size_t length)
{
    // k1/k2 fold by 512 bits, k3/k4 by 128, k5 by 64 (low 64 -> 32).
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
    // P(x) reflected (with the x^32 term) and mu = x^64 / P(x).
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_xor_si128(load(buf),
                               _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x2 = load(buf + 16);
    __m128i x3 = load(buf + 32);
    __m128i x4 = load(buf + 48);
    buf += 64;
    length -= 64;

    while (length >= 64) {
        x1 = _mm_xor_si128(fold(x1, k1k2), load(buf));
        x2 = _mm_xor_si128(fold(x2, k1k2), load(buf + 16));
        x3 = _mm_xor_si128(fold(x3, k1k2), load(buf + 32));
        x4 = _mm_xor_si128(fold(x4, k1k2), load(buf + 48));
        buf += 64;
        length -= 64;
    }

    x1 = _mm_xor_si128(fold(x1, k3k4), x2);
    x1 = _mm_xor_si128(fold(x1, k3k4), x3);
    x1 = _mm_xor_si128(fold(x1, k3k4), x4);
    while (length >= 16) {
        x1 = _mm_xor_si128(fold(x1, k3k4), load(buf));
        buf += 16;
        length -= 16;
    }

    // 128 -> 64 bits.
    __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
    t = _mm_srli_si128(x1, 4);
    x1 = _mm_and_si128(x1, low32);
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5k0, 0x00), t);

    // Barrett reduction 64 -> 32 bits.
    t = _mm_and_si128(x1, low32);
    t = _mm_clmulepi64_si128(t, poly, 0x10);
    t = _mm_and_si128(t, low32);
    t = _mm_clmulepi64_si128(t, poly, 0x00);
    x1 = _mm_xor_si128(x1, t);
    return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

/** CPU check, made once per process. */
bool
haveClmul()
{
    static const bool have = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return have;
}

#endif // INC_CRC32_CLMUL

} // namespace

std::uint32_t
crc32(std::uint32_t crc, const void *data, std::size_t length)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint32_t c = crc ^ 0xFFFFFFFFu;
#if INC_CRC32_CLMUL
    // The checkpoint image CRC on every commit: one 64 KiB image takes
    // about 3.5 us here against about 40 us through slicing-by-8
    // (perfbench util.crc32_us_per_image, 4-vCPU KVM Xeon guest).
    if (length >= 64 && haveClmul()) {
        const std::size_t folded = length & ~std::size_t{15};
        c = foldClmul(c, bytes, folded);
        bytes += folded;
        length -= folded;
    }
#endif
    return slicingBy8(c, bytes, length) ^ 0xFFFFFFFFu;
}

namespace detail
{

std::uint32_t
crc32Portable(std::uint32_t crc, const void *data, std::size_t length)
{
    return slicingBy8(crc ^ 0xFFFFFFFFu,
                      static_cast<const unsigned char *>(data), length) ^
           0xFFFFFFFFu;
}

} // namespace detail

} // namespace inc::util
