// Specification oracle for halo exchanges, shared by every suite that
// drives core::ExchangePlan.
//
// A request list fully specifies an exchange:
//   - values: every delivered ghost equals its owner's value (expected);
//   - traffic: with partition p living on rank p / tpp, the fault-free
//     schedule sends one message per ordered (sender rank, receiver rank)
//     pair that carries at least one request, framed as
//     [count | crc32 | payload] (expected_traffic).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/halo.hpp"
#include "support/random.hpp"

namespace columbia::halo_oracle {

struct Scenario {
  core::PartitionData data;
  core::RequestLists requests;
};

/// Random partition data plus random requests. Owners are drawn uniformly,
/// so some requests name their own partition and some repeat an item.
inline Scenario make_scenario(index_t nparts, index_t items_per_part,
                              index_t requests_per_part, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Scenario s;
  s.data.resize(std::size_t(nparts));
  for (auto& d : s.data) {
    d.resize(std::size_t(items_per_part));
    for (auto& v : d) v = rng.uniform(-10, 10);
  }
  s.requests.resize(std::size_t(nparts));
  for (index_t p = 0; p < nparts; ++p) {
    for (index_t k = 0; k < requests_per_part; ++k) {
      core::HaloRequest r;
      r.from_partition = index_t(rng.below(std::uint64_t(nparts)));
      r.item = index_t(rng.below(std::uint64_t(items_per_part)));
      s.requests[std::size_t(p)].push_back(r);
    }
  }
  return s;
}

/// Delivered values by direct lookup, parallel to each request list.
inline core::PartitionData expected(const Scenario& s) {
  core::PartitionData out(s.data.size(), std::vector<real_t>{});
  for (std::size_t p = 0; p < s.data.size(); ++p)
    for (const core::HaloRequest& r : s.requests[p])
      out[p].push_back(
          s.data[std::size_t(r.from_partition)][std::size_t(r.item)]);
  return out;
}

/// Wire cost of one fault-free exchange.
struct Traffic {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;  // framed: payload plus the count and crc words
};

/// Closed-form traffic for `tpp` partitions per rank (1 = thread-to-thread).
/// Cross-rank requests are grouped by ordered (sender rank, receiver rank),
/// duplicates included; each group of n requests is one message of n + 2
/// words.
inline Traffic expected_traffic(const core::RequestLists& requests,
                                index_t tpp) {
  std::map<std::pair<index_t, index_t>, std::uint64_t> groups;
  for (std::size_t q = 0; q < requests.size(); ++q)
    for (const core::HaloRequest& r : requests[q]) {
      const index_t sender = r.from_partition / tpp;
      const index_t receiver = index_t(q) / tpp;
      if (sender != receiver) ++groups[{sender, receiver}];
    }
  Traffic t;
  for (const auto& [pair, n] : groups) {
    t.messages += 1;
    t.bytes += (n + 2) * sizeof(real_t);
  }
  return t;
}

}  // namespace columbia::halo_oracle
