#pragma once
/// \file crc32.h
/// CRC-32 (IEEE 802.3 / zlib polynomial 0xEDB88320), slicing-by-8. Used by
/// the checkpoint format to give every stored field a checksum, so a flipped
/// bit on disk is detected at load time and reported with the offending
/// field's name instead of silently perturbing a multi-day run.

#include <cstddef>
#include <cstdint>

namespace tpf::util {

/// CRC-32 of \p bytes. \p seed allows incremental computation: feed the
/// previous result to continue a running checksum over multiple buffers.
std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed = 0);

} // namespace tpf::util
