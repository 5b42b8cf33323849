#include "util/crc32.h"

#include <bit>
#include <cstring>

namespace tpf::util {

namespace {

/// Lookup tables for the reflected polynomial 0xEDB88320, built once on
/// first use. t[0] is the byte-at-a-time table; t[k] advances a byte that
/// sits k bytes further ahead, so eight bytes fold in one step
/// (slicing-by-8). A checkpoint load checksums every payload byte, so the
/// checksum rate bounds the restart's read rate.
struct Crc32Tables {
    std::uint32_t t[8][256];
    Crc32Tables() {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (int k = 1; k < 8; ++k)
            for (std::uint32_t i = 0; i < 256; ++i)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
};

} // namespace

std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed) {
    static const Crc32Tables tables;
    const auto& t = tables.t;
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    if constexpr (std::endian::native == std::endian::little) {
        for (; bytes >= 8; bytes -= 8, p += 8) {
            std::uint32_t lo, hi;
            std::memcpy(&lo, p, 4);
            std::memcpy(&hi, p + 4, 4);
            lo ^= c;
            c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
                t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
                t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
                t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
        }
    }
    for (; bytes > 0; --bytes, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace tpf::util
