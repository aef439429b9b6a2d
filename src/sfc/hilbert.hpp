// Peano-Hilbert space-filling curve in 3D.
//
// "In 3D the Peano-Hilbert SFC is generally preferred" (paper Sec. V) for
// its unit-step locality: successive cells on the curve are face neighbors,
// which makes contiguous curve segments geometrically compact partitions.
// Implementation follows Skilling's transpose-based algorithm (AIP Conf.
// Proc. 707, 2004), generalized over dimension.
#pragma once

#include <cstdint>

namespace columbia::sfc {

/// Hilbert key of a 3D point with `bits`-bit coordinates (bits <= 21).
std::uint64_t hilbert3(std::uint32_t x, std::uint32_t y, std::uint32_t z,
                       int bits);

/// Inverse transform.
void hilbert3_decode(std::uint64_t key, int bits, std::uint32_t& x,
                     std::uint32_t& y, std::uint32_t& z);

}  // namespace columbia::sfc
