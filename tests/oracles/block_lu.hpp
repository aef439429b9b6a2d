// Scalar dense block solves: the oracle of the lane kernels in
// linalg/lanes.hpp.
//
// NSU3D's point- and line-implicit smoothers invert a 5x5 mean-flow block
// and an SA scalar at every point (paper Sec. III); production runs them
// four systems at a time in linalg::LaneLU, each lane performing exactly
// the operation sequence below. These forms stay as written, branches and
// early returns included, so the tests compare the lanes with an
// independent statement of the algorithm.
#pragma once

#include <array>
#include <cmath>
#include <utility>

#include "linalg/block.hpp"
#include "support/types.hpp"

namespace columbia::linalg {

/// r -= m * x without materializing the product: each row's dot product
/// accumulates in the same ascending-j order operator* uses, then is
/// subtracted once — bit-identical to `r -= m * x`, one pass, no temp.
template <int N>
inline void msub(BlockVec<N>& r, const BlockMat<N>& m, const BlockVec<N>& x) {
  for (int i = 0; i < N; ++i) {
    real_t s = 0;
    for (int j = 0; j < N; ++j) s += m(i, j) * x[j];
    r[i] -= s;
  }
}

/// r -= x * y without materializing the product. The row accumulator
/// receives each element's terms in the same ascending-k order the
/// operator* loops produce, so the subtracted values are bit-identical;
/// the inner j-loops run unit-stride over the row-major storage.
template <int N>
inline void msub(BlockMat<N>& r, const BlockMat<N>& x, const BlockMat<N>& y) {
  for (int i = 0; i < N; ++i) {
    std::array<real_t, N> acc{};
    for (int k = 0; k < N; ++k) {
      const real_t xi = x(i, k);
      for (int j = 0; j < N; ++j)
        acc[std::size_t(j)] += xi * y(k, j);
    }
    for (int j = 0; j < N; ++j) r(i, j) -= acc[std::size_t(j)];
  }
}

/// Structured outcome of a block factorization. When a pivot is singular
/// to working precision, records WHICH column failed and how small the
/// best available pivot was, so callers can report the offending
/// point/equation instead of a bare boolean.
struct FactorStatus {
  bool ok = true;
  int pivot_col = -1;      ///< column of the failing pivot (-1 when ok)
  real_t pivot_mag = 0;    ///< |best pivot| found in that column

  explicit operator bool() const { return ok; }

  static FactorStatus singular(int col, real_t mag) {
    return FactorStatus{false, col, mag};
  }
};

/// LU factorization with partial pivoting, stored compactly.
///
/// Factor once per nonlinear iteration, then apply to many right-hand
/// sides — exactly the access pattern of the block-Jacobi smoother.
template <int N>
class BlockLU {
 public:
  BlockLU() = default;

  /// Factors `m`. When a pivot falls below `tiny` (singular to working
  /// precision) the status reports the failing column and pivot size and
  /// the factorization must not be used.
  FactorStatus factor_status(const BlockMat<N>& m, real_t tiny = 1e-300) {
    lu_ = m;
    for (int i = 0; i < N; ++i) piv_[std::size_t(i)] = i;
    for (int col = 0; col < N; ++col) {
      int p = col;
      real_t best = std::abs(lu_(col, col));
      for (int r = col + 1; r < N; ++r) {
        const real_t v = std::abs(lu_(r, col));
        if (v > best) {
          best = v;
          p = r;
        }
      }
      if (best < tiny) return FactorStatus::singular(col, best);
      if (p != col) {
        for (int c = 0; c < N; ++c) std::swap(lu_(p, c), lu_(col, c));
        std::swap(piv_[std::size_t(p)], piv_[std::size_t(col)]);
      }
      const real_t inv = 1.0 / lu_(col, col);
      for (int r = col + 1; r < N; ++r) {
        const real_t f = lu_(r, col) * inv;
        lu_(r, col) = f;
        for (int c = col + 1; c < N; ++c) lu_(r, c) -= f * lu_(col, c);
      }
    }
    return FactorStatus{};
  }

  /// Boolean convenience wrapper around factor_status.
  bool factor(const BlockMat<N>& m, real_t tiny = 1e-300) {
    return factor_status(m, tiny).ok;
  }

  /// Solves L U x = P b.
  BlockVec<N> solve(const BlockVec<N>& b) const {
    BlockVec<N> x;
    for (int i = 0; i < N; ++i) x[i] = b[piv_[std::size_t(i)]];
    for (int i = 1; i < N; ++i) {
      real_t s = x[i];
      for (int j = 0; j < i; ++j) s -= lu_(i, j) * x[j];
      x[i] = s;
    }
    for (int i = N - 1; i >= 0; --i) {
      real_t s = x[i];
      for (int j = i + 1; j < N; ++j) s -= lu_(i, j) * x[j];
      x[i] = s / lu_(i, i);
    }
    return x;
  }

  /// Solves for a matrix right-hand side: X = A^{-1} B. All columns are
  /// advanced together row-wise, so the inner loops are unit-stride over
  /// the row-major storage; per element this applies the identical
  /// ascending-j update chain (and the same final division) a column-by-
  /// column solve would, so the result is bit-identical to N vector
  /// solves.
  BlockMat<N> solve(const BlockMat<N>& b) const {
    BlockMat<N> x;
    for (int i = 0; i < N; ++i)
      for (int c = 0; c < N; ++c) x(i, c) = b(piv_[std::size_t(i)], c);
    for (int i = 1; i < N; ++i)
      for (int j = 0; j < i; ++j) {
        const real_t f = lu_(i, j);
        for (int c = 0; c < N; ++c) x(i, c) -= f * x(j, c);
      }
    for (int i = N - 1; i >= 0; --i) {
      for (int j = i + 1; j < N; ++j) {
        const real_t f = lu_(i, j);
        for (int c = 0; c < N; ++c) x(i, c) -= f * x(j, c);
      }
      const real_t d = lu_(i, i);
      for (int c = 0; c < N; ++c) x(i, c) /= d;
    }
    return x;
  }

 private:
  BlockMat<N> lu_;
  std::array<int, N> piv_{};
};

}  // namespace columbia::linalg
