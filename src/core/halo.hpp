// Halo-exchange request vocabulary shared by the solver layers.
//
// A P-way decomposition describes its communication needs as request
// lists: for each partition, the ordered list of (owner partition, item)
// pairs it wants fetched every exchange. core::ExchangePlan turns them into
// a persistent schedule.
#pragma once

#include <vector>

#include "support/types.hpp"

namespace columbia::core {

/// One item a partition needs from another partition.
struct HaloRequest {
  index_t from_partition;
  index_t item;  // index into the owner partition's data array
};

/// Inputs: per-partition owned data and per-partition request lists.
/// Output: fetched values, parallel to each partition's request list.
using PartitionData = std::vector<std::vector<real_t>>;
using RequestLists = std::vector<std::vector<HaloRequest>>;

}  // namespace columbia::core
