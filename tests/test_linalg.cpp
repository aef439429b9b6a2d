#include <gtest/gtest.h>

#include "linalg/block.hpp"
#include "linalg/block_tridiag.hpp"
#include "support/random.hpp"

namespace columbia::linalg {
namespace {

template <int N>
BlockMat<N> random_diag_dominant(Xoshiro256& rng) {
  BlockMat<N> m;
  for (int i = 0; i < N; ++i) {
    real_t row = 0;
    for (int j = 0; j < N; ++j) {
      m(i, j) = rng.uniform(-1, 1);
      row += std::abs(m(i, j));
    }
    m(i, i) += row + 1.0;  // strict diagonal dominance
  }
  return m;
}

TEST(Block, IdentitySolve) {
  const auto I = BlockMat<6>::identity();
  BlockLU<6> lu;
  ASSERT_TRUE(lu.factor(I));
  BlockVec<6> b;
  for (int i = 0; i < 6; ++i) b[i] = i + 1;
  const auto x = lu.solve(b);
  for (int i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(x[i], b[i]);
}

TEST(Block, LUSolveResidual) {
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const auto m = random_diag_dominant<6>(rng);
    BlockVec<6> b;
    for (int i = 0; i < 6; ++i) b[i] = rng.uniform(-5, 5);
    BlockLU<6> lu;
    ASSERT_TRUE(lu.factor(m));
    const auto x = lu.solve(b);
    const auto r = m * x - b;
    EXPECT_LT(r.norm2(), 1e-10);
  }
}

TEST(Block, SingularDetected) {
  BlockMat<3> m;  // all zeros
  BlockLU<3> lu;
  EXPECT_FALSE(lu.factor(m));
}

TEST(Block, PivotingHandlesZeroDiagonal) {
  BlockMat<2> m;
  m(0, 0) = 0;
  m(0, 1) = 1;
  m(1, 0) = 1;
  m(1, 1) = 0;
  BlockLU<2> lu;
  ASSERT_TRUE(lu.factor(m));
  BlockVec<2> b;
  b[0] = 3;
  b[1] = 5;
  const auto x = lu.solve(b);
  EXPECT_NEAR(x[0], 5, 1e-14);
  EXPECT_NEAR(x[1], 3, 1e-14);
}

TEST(Block, MatrixSolveInverts) {
  Xoshiro256 rng(5);
  const auto m = random_diag_dominant<4>(rng);
  BlockLU<4> lu;
  ASSERT_TRUE(lu.factor(m));
  const auto inv = lu.solve(BlockMat<4>::identity());
  const auto prod = m * inv;
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-10);
}

TEST(Block, MatVecMatchesManual) {
  BlockMat<2> m;
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  BlockVec<2> v;
  v[0] = 5;
  v[1] = 6;
  const auto r = m * v;
  EXPECT_DOUBLE_EQ(r[0], 17);
  EXPECT_DOUBLE_EQ(r[1], 39);
}

TEST(Block, ArithmeticOperators) {
  auto a = BlockMat<3>::diagonal(2.0);
  auto b = BlockMat<3>::diagonal(3.0);
  const auto s = a + b;
  EXPECT_DOUBLE_EQ(s(1, 1), 5.0);
  const auto d = b - a;
  EXPECT_DOUBLE_EQ(d(2, 2), 1.0);
  const auto p = a * b;
  EXPECT_DOUBLE_EQ(p(0, 0), 6.0);
  EXPECT_DOUBLE_EQ((2.0 * a)(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 2.0);
}

template <int N>
void check_tridiag_roundtrip(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<BlockMat<N>> lower(n), diag(n), upper(n);
  std::vector<BlockVec<N>> x_true(n), rhs(n);
  for (std::size_t i = 0; i < n; ++i) {
    diag[i] = random_diag_dominant<N>(rng);
    diag[i] += BlockMat<N>::diagonal(4.0 * N);  // keep system well-posed
    for (int c = 0; c < N; ++c) {
      for (int r = 0; r < N; ++r) {
        if (i > 0) lower[i](r, c) = rng.uniform(-0.3, 0.3);
        if (i + 1 < n) upper[i](r, c) = rng.uniform(-0.3, 0.3);
      }
      x_true[i][c] = rng.uniform(-2, 2);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    BlockVec<N> b = diag[i] * x_true[i];
    if (i > 0) b += lower[i] * x_true[i - 1];
    if (i + 1 < n) b += upper[i] * x_true[i + 1];
    rhs[i] = b;
  }
  ASSERT_TRUE(solve_block_tridiag<N>(lower, diag, upper, rhs));
  for (std::size_t i = 0; i < n; ++i)
    for (int c = 0; c < N; ++c) EXPECT_NEAR(rhs[i][c], x_true[i][c], 1e-8);
}

TEST(BlockTridiag, SolvesSize1) { check_tridiag_roundtrip<6>(1, 2); }
TEST(BlockTridiag, SolvesSize2) { check_tridiag_roundtrip<6>(2, 3); }
TEST(BlockTridiag, SolvesLong6) { check_tridiag_roundtrip<6>(40, 4); }
TEST(BlockTridiag, SolvesLong5) { check_tridiag_roundtrip<5>(64, 5); }
TEST(BlockTridiag, EmptySystemOk) {
  std::vector<BlockMat<6>> l, d, u;
  std::vector<BlockVec<6>> r;
  EXPECT_TRUE(solve_block_tridiag<6>(l, d, u, r));
}

TEST(FactorStatus, ReportsFailingPivotColumn) {
  // A matrix whose third column becomes unpivotable: rows 2 and 3 of the
  // identity zeroed leaves no nonzero pivot candidate in column 2.
  BlockMat<4> m = BlockMat<4>::identity();
  m(2, 2) = 0;
  m(3, 3) = 0;
  BlockLU<4> lu;
  const FactorStatus st = lu.factor_status(m);
  EXPECT_FALSE(st.ok);
  EXPECT_FALSE(bool(st));
  EXPECT_EQ(st.pivot_col, 2);
  EXPECT_EQ(st.pivot_mag, 0.0);
  // The boolean wrapper agrees.
  EXPECT_FALSE(lu.factor(m));
}

TEST(FactorStatus, OkOnWellConditionedBlock) {
  BlockLU<3> lu;
  const FactorStatus st = lu.factor_status(BlockMat<3>::diagonal(2.0));
  EXPECT_TRUE(st.ok);
  EXPECT_EQ(st.pivot_col, -1);
}

TEST(TridiagStatus, ReportsSingularRowAndColumn) {
  // Decoupled 1x1-ish blocks: a zero diagonal block at row 2 must be
  // named in the status, not folded into a bare false.
  const std::size_t n = 4;
  std::vector<BlockMat<2>> lower(n), diag(n), upper(n);
  std::vector<BlockVec<2>> rhs(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = BlockMat<2>::diagonal(3.0);
  diag[2] = BlockMat<2>{};  // singular pivot block
  const TridiagStatus st =
      solve_block_tridiag_status<2>(lower, diag, upper, rhs);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.row, 2u);
  EXPECT_EQ(st.factor.pivot_col, 0);
}

TEST(TridiagStatus, OkRoundTripsThroughBooleanWrapper) {
  const std::size_t n = 3;
  std::vector<BlockMat<2>> lower(n), diag(n), upper(n);
  std::vector<BlockVec<2>> rhs(n);
  for (std::size_t i = 0; i < n; ++i) {
    diag[i] = BlockMat<2>::diagonal(2.0);
    rhs[i][0] = real_t(i);
    rhs[i][1] = 1.0;
  }
  EXPECT_TRUE(solve_block_tridiag<2>(lower, diag, upper, rhs));
  EXPECT_DOUBLE_EQ(rhs[1][0], 0.5);
}

TEST(BlockVec, NormAndOps) {
  BlockVec<3> v;
  v[0] = 3;
  v[1] = 4;
  v[2] = 0;
  EXPECT_DOUBLE_EQ(v.norm2(), 5.0);
  auto w = 2.0 * v;
  EXPECT_DOUBLE_EQ(w[1], 8.0);
  w -= v;
  EXPECT_DOUBLE_EQ(w[0], 3.0);
}

}  // namespace
}  // namespace columbia::linalg
