// Morton (Z-order) space-filling curve encoding in 3D.
//
// Cart3D orders adaptively refined Cartesian cells along an SFC computed by
// "one-time inspection of the cell's coordinates" (paper Sec. V, Fig. 10);
// the Morton key of a cell is the bit-interleave of its integer coordinates
// at the finest level. The mesher defaults to Peano-Hilbert (see
// hilbert.hpp) for its better locality.
#pragma once

#include <cstdint>

#include "support/assert.hpp"

namespace columbia::sfc {

/// Spreads the low 21 bits of x so there are two zero bits between each.
constexpr std::uint64_t spread3(std::uint32_t x) {
  std::uint64_t v = x & 0x1fffff;
  v = (v | (v << 32)) & 0x1f00000000ffffull;
  v = (v | (v << 16)) & 0x1f0000ff0000ffull;
  v = (v | (v << 8)) & 0x100f00f00f00f00full;
  v = (v | (v << 4)) & 0x10c30c30c30c30c3ull;
  v = (v | (v << 2)) & 0x1249249249249249ull;
  return v;
}

/// 3D Morton key for 21-bit coordinates.
constexpr std::uint64_t morton3(std::uint32_t x, std::uint32_t y,
                                std::uint32_t z) {
  return spread3(x) | (spread3(y) << 1) | (spread3(z) << 2);
}

/// Compacts every third bit (inverse of spread3).
constexpr std::uint32_t compact3(std::uint64_t v) {
  v &= 0x1249249249249249ull;
  v = (v | (v >> 2)) & 0x10c30c30c30c30c3ull;
  v = (v | (v >> 4)) & 0x100f00f00f00f00full;
  v = (v | (v >> 8)) & 0x1f0000ff0000ffull;
  v = (v | (v >> 16)) & 0x1f00000000ffffull;
  v = (v | (v >> 32)) & 0x1fffffull;
  return std::uint32_t(v);
}

struct Coord3 {
  std::uint32_t x, y, z;
};

constexpr Coord3 morton3_decode(std::uint64_t key) {
  return {compact3(key), compact3(key >> 1), compact3(key >> 2)};
}

}  // namespace columbia::sfc
