#include <gtest/gtest.h>

#include <array>
#include <cstdlib>

#include "sfc/hilbert.hpp"
#include "sfc/morton.hpp"
#include "sfc/sfc_partition.hpp"
#include "support/random.hpp"

namespace columbia::sfc {
namespace {

TEST(Morton, RoundTrip3D) {
  Xoshiro256 rng(2);
  for (int i = 0; i < 1000; ++i) {
    const auto x = std::uint32_t(rng.next()) & 0x1fffff;
    const auto y = std::uint32_t(rng.next()) & 0x1fffff;
    const auto z = std::uint32_t(rng.next()) & 0x1fffff;
    const auto [dx, dy, dz] = morton3_decode(morton3(x, y, z));
    EXPECT_EQ(dx, x);
    EXPECT_EQ(dy, y);
    EXPECT_EQ(dz, z);
  }
}

TEST(Morton, PreservesOctantOrder) {
  // The high bits select octants: points in octant 0 sort before octant 7.
  EXPECT_LT(morton3(0, 0, 0), morton3(1 << 20, 1 << 20, 1 << 20));
}

TEST(Hilbert, RoundTrip3D) {
  Xoshiro256 rng(4);
  for (int bits : {3, 7, 16}) {
    const std::uint32_t mask = (1u << bits) - 1;
    for (int i = 0; i < 300; ++i) {
      const auto x = std::uint32_t(rng.next()) & mask;
      const auto y = std::uint32_t(rng.next()) & mask;
      const auto z = std::uint32_t(rng.next()) & mask;
      std::uint32_t dx, dy, dz;
      hilbert3_decode(hilbert3(x, y, z, bits), bits, dx, dy, dz);
      EXPECT_EQ(dx, x);
      EXPECT_EQ(dy, y);
      EXPECT_EQ(dz, z);
    }
  }
}

TEST(Hilbert, IsABijectionOnSmallGrid) {
  std::vector<bool> seen(512, false);
  for (std::uint32_t x = 0; x < 8; ++x)
    for (std::uint32_t y = 0; y < 8; ++y)
      for (std::uint32_t z = 0; z < 8; ++z) {
        const auto k = hilbert3(x, y, z, 3);
        ASSERT_LT(k, 512u);
        EXPECT_FALSE(seen[k]);
        seen[k] = true;
      }
}

TEST(Hilbert, UnitStepsIn3D) {
  const int bits = 3;
  std::uint32_t px, py, pz;
  hilbert3_decode(0, bits, px, py, pz);
  for (std::uint64_t k = 1; k < (1u << (3 * bits)); ++k) {
    std::uint32_t x, y, z;
    hilbert3_decode(k, bits, x, y, z);
    const int d = std::abs(int(x) - int(px)) + std::abs(int(y) - int(py)) +
                  std::abs(int(z) - int(pz));
    EXPECT_EQ(d, 1) << "jump at k=" << k;
    px = x;
    py = y;
    pz = z;
  }
}

TEST(SfcPartition, SortOrderSorts) {
  std::vector<std::uint64_t> keys{5, 1, 3, 2, 4};
  const auto order = sort_order(keys);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_LT(keys[std::size_t(order[i - 1])], keys[std::size_t(order[i])]);
}

TEST(SfcPartition, UnweightedEqualSegments) {
  std::vector<std::uint64_t> keys(100);
  for (std::size_t i = 0; i < 100; ++i) keys[i] = i;
  const auto part = partition_weighted(keys, {}, 4);
  std::vector<int> count(4, 0);
  for (index_t p : part) ++count[std::size_t(p)];
  for (int c : count) EXPECT_EQ(c, 25);
  // Segments are contiguous along the curve.
  for (std::size_t i = 1; i < 100; ++i) EXPECT_GE(part[i], part[i - 1]);
}

TEST(SfcPartition, WeightsShiftBoundaries) {
  // First 10 items carry almost all the weight (cut cells at 2.1x would be
  // a mild version of this): they should spread across parts.
  std::vector<std::uint64_t> keys(40);
  std::vector<real_t> w(40, 0.01);
  for (std::size_t i = 0; i < 40; ++i) keys[i] = i;
  for (std::size_t i = 0; i < 10; ++i) w[i] = 10.0;
  const auto part = partition_weighted(keys, w, 5);
  EXPECT_LT(balance_factor(part, w, 5), 1.5);
  // The heavy prefix cannot all land in part 0.
  EXPECT_GT(part[9], 0);
}

TEST(SfcPartition, BalanceFactorPerfect) {
  std::vector<index_t> part{0, 0, 1, 1};
  std::vector<real_t> w{1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(balance_factor(part, w, 2), 1.0);
}

TEST(SfcPartition, MorePartsThanItems) {
  std::vector<std::uint64_t> keys{1, 2};
  const auto part = partition_weighted(keys, {}, 8);
  for (index_t p : part) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 8);
  }
}

TEST(SfcPartition, HilbertSegmentsAreCompact3D) {
  // Partition a 16^3 grid of cells along the Hilbert curve into 8 parts;
  // each part must stay within an octant-sized box on every axis
  // (locality), which a slab split (16x16x2) does not (paper: SFC
  // partitions track an idealized cubic partitioner).
  const int n = 16;
  std::vector<std::uint64_t> keys;
  std::vector<std::array<int, 3>> coords;
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x) {
        keys.push_back(hilbert3(std::uint32_t(x), std::uint32_t(y),
                                std::uint32_t(z), 4));
        coords.push_back({x, y, z});
      }
  const auto part = partition_weighted(keys, {}, 8);
  for (index_t p = 0; p < 8; ++p) {
    std::array<int, 3> lo{n, n, n}, hi{-1, -1, -1};
    for (std::size_t i = 0; i < coords.size(); ++i) {
      if (part[i] != p) continue;
      for (int a = 0; a < 3; ++a) {
        lo[a] = std::min(lo[a], coords[i][a]);
        hi[a] = std::max(hi[a], coords[i][a]);
      }
    }
    // Hilbert eighths of a 16^3 grid are 8^3 octants.
    for (int a = 0; a < 3; ++a)
      EXPECT_LE(hi[a] - lo[a] + 1, 8) << "part " << p << " axis " << a;
  }
}

}  // namespace
}  // namespace columbia::sfc
