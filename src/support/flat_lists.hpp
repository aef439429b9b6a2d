// Variable-length lists stored back to back.
//
// One offsets array and one item array instead of a vector per list: no
// heap block per node or per line, and a walk over all lists reads memory
// in order. `lists[i]` is a span over list i, so a range-for over it reads
// exactly like one over a nested vector.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "support/types.hpp"

namespace columbia {

template <class T>
struct FlatLists {
  /// List i is items[offsets[i], offsets[i + 1]).
  std::vector<std::size_t> offsets{0};
  std::vector<T> items;

  std::size_t size() const { return offsets.size() - 1; }
  std::span<const T> operator[](std::size_t i) const {
    return {items.data() + offsets[i], items.data() + offsets[i + 1]};
  }
};

/// Per-node incidence of an edge list: list v holds the id of every edge
/// touching v, in edge order. The side v is on is edges[e].first == v.
inline FlatLists<index_t> edge_incidence(
    index_t num_nodes, std::span<const std::pair<index_t, index_t>> edges) {
  FlatLists<index_t> inc;
  inc.offsets.assign(std::size_t(num_nodes) + 1, 0);
  for (const auto& [a, b] : edges) {
    ++inc.offsets[std::size_t(a) + 1];
    ++inc.offsets[std::size_t(b) + 1];
  }
  for (std::size_t v = 0; v < std::size_t(num_nodes); ++v)
    inc.offsets[v + 1] += inc.offsets[v];
  inc.items.resize(inc.offsets.back());
  std::vector<std::size_t> fill(inc.offsets.begin(), inc.offsets.end() - 1);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [a, b] = edges[e];
    inc.items[fill[std::size_t(a)]++] = index_t(e);
    inc.items[fill[std::size_t(b)]++] = index_t(e);
  }
  return inc;
}

}  // namespace columbia
