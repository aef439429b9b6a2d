// Block-tridiagonal LU solver (Thomas algorithm with dense blocks): the
// scalar oracle of the batched elimination in linalg/lanes.hpp.
//
// The line-implicit smoother in NSU3D groups the tightly coupled points of
// each boundary-layer line and solves the discrete equations implicitly
// along the line with a block-tridiagonal LU decomposition (paper Sec. III,
// Fig. 5). The algorithm is inherently sequential along a line, which is
// why partitioning must never split a line across processors. Production
// solves four lines of one length side by side (tridiag_eliminate and
// tridiag_back_substitute), each lane performing this solve's operations.
#pragma once

#include <vector>

#include "linalg/block.hpp"
#include "oracles/block_lu.hpp"
#include "support/assert.hpp"

namespace columbia::linalg {

/// Structured outcome of a block-tridiagonal solve: when a pivot block is
/// singular, records the line row whose eliminated diagonal failed plus
/// the FactorStatus detail, so the caller can name the offending point.
struct TridiagStatus {
  FactorStatus factor{};
  std::size_t row = 0;  ///< line index of the singular diagonal block

  bool ok() const { return factor.ok; }
  explicit operator bool() const { return factor.ok; }
};

/// Solves the block-tridiagonal system
///   lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i]
/// for i = 0..n-1 (lower[0] and upper[n-1] ignored), in place in `rhs`.
///
/// On a singular pivot block the status identifies the failing row and
/// column; `rhs` is then undefined. `lu` is caller-owned factorization
/// scratch (resized to the line length), so a sweep that keeps it across
/// lines allocates nothing once it has grown.
template <int N>
TridiagStatus solve_block_tridiag_status(std::vector<BlockMat<N>>& lower,
                                         std::vector<BlockMat<N>>& diag,
                                         std::vector<BlockMat<N>>& upper,
                                         std::vector<BlockVec<N>>& rhs,
                                         std::vector<BlockLU<N>>& lu) {
  const std::size_t n = diag.size();
  COLUMBIA_REQUIRE(lower.size() == n && upper.size() == n && rhs.size() == n);
  if (n == 0) return TridiagStatus{};

  // Forward elimination: diag[i] <- diag[i] - lower[i] D^{-1}_{i-1} upper[i-1]
  lu.resize(n);
  FactorStatus fs = lu[0].factor_status(diag[0]);
  if (!fs) return TridiagStatus{fs, 0};
  for (std::size_t i = 1; i < n; ++i) {
    // G = lower[i] * inv(diag[i-1]) computed via transpose-free column solves:
    // we need lower[i] * D^{-1}, i.e. solve D^T y = lower[i]^T per row. It is
    // simpler and equally stable to compute M = D^{-1} upper[i-1] and
    // subtract lower[i] * M.
    const BlockMat<N> m = lu[i - 1].solve(upper[i - 1]);
    msub(diag[i], lower[i], m);
    const BlockVec<N> r = lu[i - 1].solve(rhs[i - 1]);
    msub(rhs[i], lower[i], r);
    fs = lu[i].factor_status(diag[i]);
    if (!fs) return TridiagStatus{fs, i};
  }

  // Back substitution.
  rhs[n - 1] = lu[n - 1].solve(rhs[n - 1]);
  for (std::size_t i = n - 1; i-- > 0;) {
    BlockVec<N> r = rhs[i];
    msub(r, upper[i], rhs[i + 1]);
    rhs[i] = lu[i].solve(r);
  }
  return TridiagStatus{};
}

/// solve_block_tridiag_status with its own factorization scratch.
template <int N>
TridiagStatus solve_block_tridiag_status(std::vector<BlockMat<N>>& lower,
                                         std::vector<BlockMat<N>>& diag,
                                         std::vector<BlockMat<N>>& upper,
                                         std::vector<BlockVec<N>>& rhs) {
  std::vector<BlockLU<N>> lu;
  return solve_block_tridiag_status<N>(lower, diag, upper, rhs, lu);
}

/// Boolean convenience wrapper around solve_block_tridiag_status.
template <int N>
bool solve_block_tridiag(std::vector<BlockMat<N>>& lower,
                         std::vector<BlockMat<N>>& diag,
                         std::vector<BlockMat<N>>& upper,
                         std::vector<BlockVec<N>>& rhs) {
  return solve_block_tridiag_status<N>(lower, diag, upper, rhs).ok();
}

}  // namespace columbia::linalg
