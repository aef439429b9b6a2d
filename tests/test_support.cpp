#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "support/edge_index.hpp"
#include "support/flat_lists.hpp"
#include "support/random.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace columbia {
namespace {

TEST(Random, SplitMix64Deterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Random, XoshiroUniformRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Random, XoshiroUniformIntervalRange) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Random, BelowStaysBelow) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Random, XoshiroRoughlyUniformMean) {
  Xoshiro256 rng(3);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Random, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Table, FormatsAligned) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  // Header rule present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NO_THROW(t.to_string());
}

TEST(Table, NumFormatsDigits) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Timer, MeasuresNonNegative) {
  WallTimer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(EdgeIndex, NumbersEdgesInFirstSeenOrderAcrossGrowth) {
  // A 40x40 grid's edges offered twice, each time in both orientations,
  // into a table sized for 8: it grows many times and must keep every id.
  EdgeIndex idx(40 * 40, 8);
  std::vector<std::pair<index_t, index_t>> first_seen;
  auto offer = [&](index_t a, index_t b) {
    const auto [id, inserted] = idx.insert(a, b);
    if (inserted) {
      EXPECT_EQ(id, index_t(first_seen.size()));
      first_seen.emplace_back(std::min(a, b), std::max(a, b));
    }
    ASSERT_LT(std::size_t(id), first_seen.size());
    EXPECT_EQ(first_seen[std::size_t(id)],
              std::make_pair(std::min(a, b), std::max(a, b)));
  };
  for (int pass = 0; pass < 2; ++pass)
    for (index_t j = 0; j < 40; ++j)
      for (index_t i = 0; i < 40; ++i) {
        const index_t v = j * 40 + i;
        if (i + 1 < 40) pass == 0 ? offer(v, v + 1) : offer(v + 1, v);
        if (j + 1 < 40) pass == 0 ? offer(v + 40, v) : offer(v, v + 40);
      }
  EXPECT_EQ(idx.size(), 2 * 40 * 39);
  EXPECT_EQ(first_seen.size(), std::size_t(2 * 40 * 39));
}

TEST(FlatLists, EdgeIncidenceKeepsEdgeOrder) {
  const std::vector<std::pair<index_t, index_t>> edges{
      {0, 2}, {1, 2}, {0, 3}, {2, 3}, {1, 3}};
  const auto inc = edge_incidence(5, edges);
  ASSERT_EQ(inc.size(), 5u);
  using List = std::vector<index_t>;
  const std::vector<List> want{{0, 2}, {1, 4}, {0, 1, 3}, {2, 3, 4}, {}};
  for (std::size_t v = 0; v < want.size(); ++v) {
    const List got(inc[v].begin(), inc[v].end());
    EXPECT_EQ(got, want[v]) << "node " << v;
  }
}

}  // namespace
}  // namespace columbia
