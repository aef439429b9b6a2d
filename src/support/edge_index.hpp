// First-seen numbering of undirected edges.
//
// An open-addressing hash table keyed by the (min, max) endpoint pair, with
// linear probing. Ids are handed out in the order edges are first offered,
// so a walk over elements (or over fine edges) numbers the edges exactly as
// the walk meets them.
//
// The slot of an edge is a run of slots owned by its lower endpoint, the
// run's offset picked by the upper endpoint's low bits: a walk that moves
// through the mesh meets nearby node numbers, so its probes stay in a few
// cache lines instead of landing anywhere in a table of megabytes. The
// table doubles the runs before it is three quarters full; growing keeps
// every id.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/types.hpp"

namespace columbia {

class EdgeIndex {
 public:
  /// For endpoints in [0, num_nodes), sized so about `expected` edges fit
  /// before the first growth.
  EdgeIndex(index_t num_nodes, std::size_t expected)
      : nodes_(std::bit_ceil(std::size_t(std::max<index_t>(num_nodes, 1)))) {
    const std::size_t per_node = 2 * expected / nodes_ + 1;
    rehash(std::bit_ceil(std::max<std::size_t>(per_node, 2)));
  }

  /// The id of edge {a, b}, and whether this call numbered it (its id is
  /// then the previous size()).
  std::pair<index_t, bool> insert(index_t a, index_t b) {
    const std::uint64_t key = make_key(a, b);
    std::size_t s = slot_of(key);
    while (slots_[s].key != kEmpty) {
      if (slots_[s].key == key) return {slots_[s].id, false};
      s = (s + 1) & mask_;
    }
    if (4 * (std::size_t(size_) + 1) > 3 * slots_.size()) {
      rehash(2 * run_);
      s = slot_of(key);
      while (slots_[s].key != kEmpty) s = (s + 1) & mask_;
    }
    slots_[s] = {key, size_};
    return {size_++, true};
  }

  index_t size() const { return size_; }

  /// Grows now, if needed, so that inserts up to `edges` edges in all
  /// will not grow the table.
  void reserve(std::size_t edges) {
    std::size_t run = run_;
    while (4 * edges > 3 * nodes_ * run) run *= 2;
    if (run != run_) rehash(run);
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t(0);
  struct Slot {
    std::uint64_t key = kEmpty;
    index_t id = kInvalidIndex;
  };

  static std::uint64_t make_key(index_t a, index_t b) {
    const index_t lo = std::min(a, b), hi = std::max(a, b);
    return (std::uint64_t(std::uint32_t(lo)) << 32) | std::uint32_t(hi);
  }
  std::size_t slot_of(std::uint64_t key) const {
    const std::size_t lo = std::size_t(key >> 32), hi = std::size_t(key & 0xffffffffu);
    return (lo * run_ + (hi & (run_ - 1))) & mask_;
  }
  void rehash(std::size_t run) {
    run_ = run;
    std::vector<Slot> old(nodes_ * run_);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const Slot& o : old) {
      if (o.key == kEmpty) continue;
      std::size_t s = slot_of(o.key);
      while (slots_[s].key != kEmpty) s = (s + 1) & mask_;
      slots_[s] = o;
    }
  }

  std::size_t nodes_;  // endpoint range, rounded up to a power of two
  std::size_t run_ = 0;  // slots per lower endpoint, a power of two
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  index_t size_ = 0;
};

}  // namespace columbia
