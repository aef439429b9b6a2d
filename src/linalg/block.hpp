// Fixed-size dense blocks used by the implicit solvers.
//
// NSU3D stores six unknowns per grid point (density, momentum x3, energy,
// turbulence working variable); its point-implicit and line-implicit
// schemes invert a 5x5 mean-flow block and an uncoupled SA scalar (N = 1)
// at every point (paper Sec. III). Cart3D carries five unknowns per cell.
// Every size instantiates the same templates.
#pragma once

#include <array>
#include <cmath>

#include "support/assert.hpp"
#include "support/types.hpp"

namespace columbia::linalg {

/// Dense fixed-size column vector.
template <int N>
struct BlockVec {
  std::array<real_t, N> v{};

  real_t& operator[](int i) { return v[std::size_t(i)]; }
  real_t operator[](int i) const { return v[std::size_t(i)]; }

  BlockVec& operator+=(const BlockVec& o) {
    for (int i = 0; i < N; ++i) v[std::size_t(i)] += o[i];
    return *this;
  }
  BlockVec& operator-=(const BlockVec& o) {
    for (int i = 0; i < N; ++i) v[std::size_t(i)] -= o[i];
    return *this;
  }
  BlockVec& operator*=(real_t s) {
    for (int i = 0; i < N; ++i) v[std::size_t(i)] *= s;
    return *this;
  }

  friend BlockVec operator+(BlockVec a, const BlockVec& b) { return a += b; }
  friend BlockVec operator-(BlockVec a, const BlockVec& b) { return a -= b; }
  friend BlockVec operator*(real_t s, BlockVec a) { return a *= s; }

  real_t norm2() const {
    real_t s = 0;
    for (int i = 0; i < N; ++i) s += v[std::size_t(i)] * v[std::size_t(i)];
    return std::sqrt(s);
  }
};

/// Dense fixed-size row-major matrix with in-place LU (partial pivoting).
template <int N>
struct BlockMat {
  std::array<real_t, std::size_t(N) * N> a{};

  real_t& operator()(int r, int c) { return a[std::size_t(r) * N + c]; }
  real_t operator()(int r, int c) const { return a[std::size_t(r) * N + c]; }

  static BlockMat identity() {
    BlockMat m;
    for (int i = 0; i < N; ++i) m(i, i) = 1.0;
    return m;
  }

  static BlockMat diagonal(real_t d) {
    BlockMat m;
    for (int i = 0; i < N; ++i) m(i, i) = d;
    return m;
  }

  BlockMat& operator+=(const BlockMat& o) {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] += o.a[i];
    return *this;
  }
  BlockMat& operator-=(const BlockMat& o) {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] -= o.a[i];
    return *this;
  }
  BlockMat& operator*=(real_t s) {
    for (auto& x : a) x *= s;
    return *this;
  }
  friend BlockMat operator+(BlockMat x, const BlockMat& y) { return x += y; }
  friend BlockMat operator-(BlockMat x, const BlockMat& y) { return x -= y; }
  friend BlockMat operator*(real_t s, BlockMat x) { return x *= s; }

  friend BlockMat operator*(const BlockMat& x, const BlockMat& y) {
    BlockMat r;
    for (int i = 0; i < N; ++i)
      for (int k = 0; k < N; ++k) {
        const real_t xi = x(i, k);
        for (int j = 0; j < N; ++j) r(i, j) += xi * y(k, j);
      }
    return r;
  }

  friend BlockVec<N> operator*(const BlockMat& m, const BlockVec<N>& x) {
    BlockVec<N> r;
    for (int i = 0; i < N; ++i) {
      real_t s = 0;
      for (int j = 0; j < N; ++j) s += m(i, j) * x[j];
      r[i] = s;
    }
    return r;
  }

  real_t max_abs() const {
    real_t m = 0;
    for (real_t x : a) m = std::max(m, std::abs(x));
    return m;
  }
};

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
