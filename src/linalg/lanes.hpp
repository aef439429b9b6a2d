// Four-lane forms of the dense block kernels, for batched solves.
//
// NSU3D's line solver, like the paper's, sorts its lines by length and
// solves lines of one length side by side, so the block-tridiagonal
// eliminations vectorize across lines (paper Sec. III). Each lane of a
// Lanes value carries one independent system, and every kernel here
// performs, lane by lane, exactly the operation sequence of its scalar
// counterpart in block.hpp / block_tridiag.hpp (BlockLU<N>, msub,
// solve_block_tridiag_status), which stay as the reference. IEEE
// arithmetic on GCC vector types is elementwise, so each lane's result is
// the scalar kernel's bit for bit, provided nothing contracts a*b+c into a
// fused multiply-add: code using these kernels is compiled with
// -ffp-contract=off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "support/types.hpp"

#define COLUMBIA_LANE_INLINE [[gnu::always_inline]] inline

namespace columbia::linalg {

/// Systems per batch.
inline constexpr int kLanes = 4;

/// Four real_t lanes in two 128-bit GCC vectors, the width baseline x86-64
/// executes natively (without AVX, GCC lowers 256-bit vector compares and
/// selects to scalar branches). Arithmetic, comparisons and selects act
/// lane by lane.
struct Lanes {
  using V = real_t __attribute__((vector_size(2 * sizeof(real_t))));
  using M = std::int64_t __attribute__((vector_size(2 * sizeof(std::int64_t))));
  static constexpr int kHalves = 2;
  static constexpr int kPer = kLanes / kHalves;
  V h[kHalves];

  /// Mask: all bits set in a lane where a comparison holds.
  struct Mask {
    M h[kHalves];
    COLUMBIA_LANE_INLINE friend Mask operator|(Mask a, Mask b) {
      for (int k = 0; k < kHalves; ++k) a.h[k] |= b.h[k];
      return a;
    }
    COLUMBIA_LANE_INLINE friend Mask operator&(Mask a, Mask b) {
      for (int k = 0; k < kHalves; ++k) a.h[k] &= b.h[k];
      return a;
    }
    COLUMBIA_LANE_INLINE friend Mask operator~(Mask a) {
      for (int k = 0; k < kHalves; ++k) a.h[k] = ~a.h[k];
      return a;
    }
    COLUMBIA_LANE_INLINE bool lane(int l) const {
      return h[l / kPer][l % kPer] != 0;
    }
    COLUMBIA_LANE_INLINE bool any() const {
      const M o = h[0] | h[1];
      for (int l = 0; l < kPer; ++l)
        if (o[l] != 0) return true;
      return false;
    }
    COLUMBIA_LANE_INLINE bool all() const {
      const M a = h[0] & h[1];
      for (int l = 0; l < kPer; ++l)
        if (a[l] == 0) return false;
      return true;
    }
    /// The mask with lane l set exactly when bit l of `bits` is.
    COLUMBIA_LANE_INLINE static Mask from_bits(unsigned bits) {
      Mask m;
      for (int l = 0; l < kLanes; ++l)
        m.h[l / kPer][l % kPer] = (bits >> l) & 1u ? -1 : 0;
      return m;
    }
  };

  COLUMBIA_LANE_INLINE static Lanes splat(real_t x) {
    Lanes r;
    for (int k = 0; k < kHalves; ++k)
      for (int l = 0; l < kPer; ++l) r.h[k][l] = x;
    return r;
  }
  COLUMBIA_LANE_INLINE static Lanes zero() { return splat(0.0); }
  /// Lanes 0..3 set to x0..x3.
  COLUMBIA_LANE_INLINE static Lanes of(real_t x0, real_t x1, real_t x2,
                                       real_t x3) {
    return {{V{x0, x1}, V{x2, x3}}};
  }
  COLUMBIA_LANE_INLINE real_t lane(int l) const {
    return h[l / kPer][l % kPer];
  }

#define COLUMBIA_LANE_BINARY(op)                                            \
  COLUMBIA_LANE_INLINE friend Lanes operator op(Lanes a, const Lanes& b) {  \
    for (int k = 0; k < kHalves; ++k) a.h[k] = a.h[k] op b.h[k];            \
    return a;                                                               \
  }                                                                         \
  COLUMBIA_LANE_INLINE friend Lanes operator op(Lanes a, real_t s) {        \
    for (int k = 0; k < kHalves; ++k) a.h[k] = a.h[k] op s;                 \
    return a;                                                               \
  }                                                                         \
  COLUMBIA_LANE_INLINE friend Lanes operator op(real_t s, Lanes a) {        \
    for (int k = 0; k < kHalves; ++k) a.h[k] = s op a.h[k];                 \
    return a;                                                               \
  }                                                                         \
  COLUMBIA_LANE_INLINE Lanes& operator op##=(const Lanes& b) {              \
    for (int k = 0; k < kHalves; ++k) h[k] = h[k] op b.h[k];                \
    return *this;                                                           \
  }
  COLUMBIA_LANE_BINARY(+)
  COLUMBIA_LANE_BINARY(-)
  COLUMBIA_LANE_BINARY(*)
  COLUMBIA_LANE_BINARY(/)
#undef COLUMBIA_LANE_BINARY

#define COLUMBIA_LANE_COMPARE(op)                                           \
  COLUMBIA_LANE_INLINE friend Mask operator op(const Lanes& a,              \
                                               const Lanes& b) {            \
    Mask m;                                                                 \
    for (int k = 0; k < kHalves; ++k) m.h[k] = a.h[k] op b.h[k];            \
    return m;                                                               \
  }                                                                         \
  COLUMBIA_LANE_INLINE friend Mask operator op(const Lanes& a, real_t s) {  \
    Mask m;                                                                 \
    for (int k = 0; k < kHalves; ++k) m.h[k] = a.h[k] op s;                 \
    return m;                                                               \
  }
  COLUMBIA_LANE_COMPARE(>)
  COLUMBIA_LANE_COMPARE(<)
  COLUMBIA_LANE_COMPARE(<=)
  COLUMBIA_LANE_COMPARE(==)
#undef COLUMBIA_LANE_COMPARE

  /// Lane by lane `m ? a : b`.
  COLUMBIA_LANE_INLINE friend Lanes select(const Mask& m, Lanes a,
                                           const Lanes& b) {
    for (int k = 0; k < kHalves; ++k) a.h[k] = m.h[k] ? a.h[k] : b.h[k];
    return a;
  }
  /// std::abs lane by lane: the sign bit cleared.
  COLUMBIA_LANE_INLINE friend Lanes abs(Lanes a) {
    for (int k = 0; k < kHalves; ++k)
      a.h[k] = (V)((M)a.h[k] & std::numeric_limits<std::int64_t>::max());
    return a;
  }
};

/// N-vector of lanes (BlockVec<N> per lane).
template <int N>
struct LaneVec {
  Lanes v[N];
  COLUMBIA_LANE_INLINE Lanes& operator[](int i) { return v[i]; }
  COLUMBIA_LANE_INLINE const Lanes& operator[](int i) const { return v[i]; }
};

/// Row-major NxN matrix of lanes (BlockMat<N> per lane).
template <int N>
struct LaneMat {
  Lanes a[N][N];
  COLUMBIA_LANE_INLINE Lanes& operator()(int r, int c) { return a[r][c]; }
  COLUMBIA_LANE_INLINE const Lanes& operator()(int r, int c) const {
    return a[r][c];
  }
};

/// msub(BlockVec&, BlockMat, BlockVec) lane by lane: r -= m * x, each row's
/// dot product accumulated from zero in ascending j.
template <int N>
COLUMBIA_LANE_INLINE void msub(LaneVec<N>& r, const LaneMat<N>& m,
                               const LaneVec<N>& x) {
  for (int i = 0; i < N; ++i) {
    Lanes s = Lanes::zero();
    for (int j = 0; j < N; ++j) s += m(i, j) * x[j];
    r[i] -= s;
  }
}

/// msub(BlockMat&, BlockMat, BlockMat) lane by lane: r -= x * y.
template <int N>
COLUMBIA_LANE_INLINE void msub(LaneMat<N>& r, const LaneMat<N>& x,
                               const LaneMat<N>& y) {
  for (int i = 0; i < N; ++i) {
    Lanes acc[N];
    for (int j = 0; j < N; ++j) acc[j] = Lanes::zero();
    for (int k = 0; k < N; ++k) {
      const Lanes xi = x(i, k);
      for (int j = 0; j < N; ++j) acc[j] += xi * y(k, j);
    }
    for (int j = 0; j < N; ++j) r(i, j) -= acc[j];
  }
}

/// kLanes independent BlockLU<N>: lane l factors and solves exactly as
/// BlockLU<N> does on lane l's block, partial pivoting included.
template <int N>
class LaneLU {
 public:
  using Mask = Lanes::Mask;

  /// BlockLU<N>::factor_status lane by lane. The pivot search is a strict
  /// `>` per lane (the first maximum wins), row swaps are selects, and a
  /// lane whose best pivot falls below `tiny` is flagged in the returned
  /// mask (a NaN pivot is not singular, as in the scalar test). A flagged
  /// lane keeps computing on its unusable factors; the caller discards it.
  COLUMBIA_LANE_INLINE Mask factor(const LaneMat<N>& m,
                                   real_t tiny = 1e-300) {
    lu_ = m;
    // Row indices per lane, held exactly as small reals so the pivot
    // bookkeeping uses the same compares and selects as the values.
    Lanes piv[N];
    for (int i = 0; i < N; ++i) piv[i] = Lanes::splat(i);
    Mask singular = Mask::from_bits(0);
    permuted_ = false;
    for (int col = 0; col < N; ++col) {
      Lanes p = Lanes::splat(col);
      Lanes best = abs(lu_(col, col));
      for (int r = col + 1; r < N; ++r) {
        const Lanes v = abs(lu_(r, col));
        const Mask gt = v > best;
        best = select(gt, v, best);
        p = select(gt, Lanes::splat(r), p);
      }
      singular = singular | (best < tiny);
      if ((~(p == real_t(col))).any()) {
        permuted_ = true;
        for (int r = col + 1; r < N; ++r) {
          const Mask m_r = p == real_t(r);
          for (int c = 0; c < N; ++c) {
            const Lanes top = lu_(col, c), low = lu_(r, c);
            lu_(col, c) = select(m_r, low, top);
            lu_(r, c) = select(m_r, top, low);
          }
          const Lanes pc = piv[col], pr = piv[r];
          piv[col] = select(m_r, pr, pc);
          piv[r] = select(m_r, pc, pr);
        }
      }
      const Lanes inv = 1.0 / lu_(col, col);
      for (int r = col + 1; r < N; ++r) {
        const Lanes f = lu_(r, col) * inv;
        lu_(r, col) = f;
        for (int c = col + 1; c < N; ++c) lu_(r, c) -= f * lu_(col, c);
      }
    }
    if (permuted_)
      for (int i = 0; i < N; ++i)
        for (int l = 0; l < kLanes; ++l)
          piv_[i][l] = std::uint8_t(piv[i].lane(l));
    return singular;
  }

  /// BlockLU<N>::solve(BlockVec) lane by lane: L U x = P b.
  COLUMBIA_LANE_INLINE LaneVec<N> solve(const LaneVec<N>& b) const {
    LaneVec<N> x;
    for (int i = 0; i < N; ++i) x[i] = permuted_ ? gather(b.v, i) : b[i];
    for (int i = 1; i < N; ++i) {
      Lanes s = x[i];
      for (int j = 0; j < i; ++j) s -= lu_(i, j) * x[j];
      x[i] = s;
    }
    for (int i = N - 1; i >= 0; --i) {
      Lanes s = x[i];
      for (int j = i + 1; j < N; ++j) s -= lu_(i, j) * x[j];
      x[i] = s / lu_(i, i);
    }
    return x;
  }

  /// BlockLU<N>::solve(BlockMat) lane by lane: X = A^{-1} B, all columns
  /// advanced row-wise with the per-element chain of a vector solve.
  COLUMBIA_LANE_INLINE LaneMat<N> solve(const LaneMat<N>& b) const {
    LaneMat<N> x;
    for (int c = 0; c < N; ++c) {
      Lanes col[N];
      for (int i = 0; i < N; ++i) col[i] = b(i, c);
      for (int i = 0; i < N; ++i) x(i, c) = permuted_ ? gather(col, i) : col[i];
    }
    for (int i = 1; i < N; ++i)
      for (int j = 0; j < i; ++j) {
        const Lanes f = lu_(i, j);
        for (int c = 0; c < N; ++c) x(i, c) -= f * x(j, c);
      }
    for (int i = N - 1; i >= 0; --i) {
      for (int j = i + 1; j < N; ++j) {
        const Lanes f = lu_(i, j);
        for (int c = 0; c < N; ++c) x(i, c) -= f * x(j, c);
      }
      const Lanes d = lu_(i, i);
      for (int c = 0; c < N; ++c) x(i, c) = x(i, c) / d;
    }
    return x;
  }

 private:
  /// Lane by lane v[piv[i]]: a chain of selects over the candidate rows.
  COLUMBIA_LANE_INLINE Lanes gather(const Lanes* v, int i) const {
    unsigned bits[N] = {};
    for (int l = 0; l < kLanes; ++l) bits[piv_[i][l]] |= 1u << l;
    Lanes x = v[0];
    for (int k = 1; k < N; ++k)
      if (bits[k] != 0) x = select(Mask::from_bits(bits[k]), v[k], x);
    return x;
  }

  LaneMat<N> lu_;
  std::uint8_t piv_[N][kLanes];  // BlockLU's piv_, per lane; set if permuted_
  bool permuted_ = false;        // some lane swapped rows
};

/// One row of a batched block-tridiagonal elimination: what back
/// substitution reads of it.
template <int N>
struct LaneTridiagRow {
  LaneLU<N> lu;      // factors of the eliminated diagonal block
  LaneMat<N> upper;  // the row's upper block
  LaneVec<N> rhs;    // eliminated right-hand side, then the solution
};

/// Row i >= 1 of solve_block_tridiag_status's forward elimination, lane by
/// lane: with row i-1 in `prev`, eliminates `lower` (row i's lower block)
/// from `diag` and `row.rhs`, then factors `diag` into `row.lu`. Returns
/// the lanes whose pivot was singular.
template <int N>
COLUMBIA_LANE_INLINE Lanes::Mask tridiag_eliminate(
    const LaneTridiagRow<N>& prev, const LaneMat<N>& lower, LaneMat<N>& diag,
    LaneTridiagRow<N>& row) {
  const LaneMat<N> m = prev.lu.solve(prev.upper);
  msub(diag, lower, m);
  const LaneVec<N> r = prev.lu.solve(prev.rhs);
  msub(row.rhs, lower, r);
  return row.lu.factor(diag);
}

/// solve_block_tridiag_status's back substitution over rows [0, n), lane
/// by lane; `row(i)` is row i's LaneTridiagRow. Leaves the solution in each
/// row's rhs.
template <int N, class RowAt>
COLUMBIA_LANE_INLINE void tridiag_back_substitute(RowAt&& row, std::size_t n) {
  LaneTridiagRow<N>& last = row(n - 1);
  last.rhs = last.lu.solve(last.rhs);
  for (std::size_t i = n - 1; i-- > 0;) {
    LaneTridiagRow<N>& ri = row(i);
    LaneVec<N> r = ri.rhs;
    msub(r, ri.upper, row(i + 1).rhs);
    ri.rhs = ri.lu.solve(r);
  }
}

}  // namespace columbia::linalg

#undef COLUMBIA_LANE_INLINE
