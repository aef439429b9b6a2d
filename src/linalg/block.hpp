// Fixed-size dense blocks used by the implicit solvers.
//
// NSU3D stores six unknowns per grid point (density, momentum x3, energy,
// turbulence working variable); its point-implicit and line-implicit
// schemes invert a 5x5 mean-flow block and an uncoupled SA scalar (N = 1)
// at every point (paper Sec. III). The smoother keeps each point's 5x5
// block here and solves four points or lines at a time with the lane
// kernels of lanes.hpp; the scalar solves they reproduce are the tests'
// oracles (tests/oracles/block_lu.hpp, block_tridiag.hpp).
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

/// Dense fixed-size row-major matrix.
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

}  // namespace columbia::linalg
