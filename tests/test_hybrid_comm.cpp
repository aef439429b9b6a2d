// The two hybrid halo strategies of Fig. 7 (thread-to-thread, and
// master-thread with fewer, larger messages), run through
// core::ExchangePlan and checked against the specification of
// tests/halo_oracle.hpp.
#include <gtest/gtest.h>

#include "core/exchange_plan.hpp"
#include "halo_oracle.hpp"

namespace columbia::core {
namespace {

using halo_oracle::expected;
using halo_oracle::expected_traffic;
using halo_oracle::make_scenario;
using halo_oracle::Scenario;

TEST(HybridComm, ThreadToThreadMatchesDirect) {
  const Scenario s = make_scenario(8, 20, 15, 1);
  ExchangePlan plan(s.requests);
  EXPECT_EQ(plan.exchange(s.data), expected(s));
}

TEST(HybridComm, MasterThreadMatchesDirect) {
  const Scenario s = make_scenario(8, 20, 15, 2);
  for (int tpp : {1, 2, 4, 8}) {
    ExchangePlan plan(s.requests, {ExchangeStrategy::MasterThread, tpp});
    EXPECT_EQ(plan.exchange(s.data), expected(s))
        << tpp << " threads per process";
  }
}

TEST(HybridComm, BothStrategiesAgree) {
  const Scenario s = make_scenario(12, 30, 25, 3);
  ExchangePlan t2t(s.requests);
  ExchangePlan master(s.requests, {ExchangeStrategy::MasterThread, 3});
  const PartitionData a = t2t.exchange(s.data);
  EXPECT_EQ(a, master.exchange(s.data));
  EXPECT_EQ(a, expected(s));
}

TEST(HybridComm, MasterThreadSendsFewerLargerMessages) {
  // The paper's rationale for the master-thread strategy (Fig. 7b):
  // "a smaller number of larger messages being issued by the MPI
  // routines". The plans' wire counts must equal the closed form.
  const Scenario s = make_scenario(16, 50, 40, 4);

  ExchangePlan flat(s.requests);
  flat.exchange(s.data);
  const halo_oracle::Traffic t_flat = expected_traffic(s.requests, 1);
  EXPECT_EQ(flat.stats().messages, t_flat.messages);
  EXPECT_EQ(flat.stats().bytes, t_flat.bytes);

  ExchangePlan packed(s.requests, {ExchangeStrategy::MasterThread, 4});
  packed.exchange(s.data);
  const halo_oracle::Traffic t_packed = expected_traffic(s.requests, 4);
  EXPECT_EQ(packed.stats().messages, t_packed.messages);
  EXPECT_EQ(packed.stats().bytes, t_packed.bytes);

  EXPECT_LT(t_packed.messages, t_flat.messages);
  EXPECT_GT(t_packed.bytes / t_packed.messages,
            t_flat.bytes / t_flat.messages);
}

TEST(HybridComm, IntraProcessRequestsNeedNoMessages) {
  // All requests stay within each process: zero traffic.
  Scenario s = make_scenario(8, 10, 0, 5);
  for (index_t p = 0; p < 8; ++p)
    for (index_t k = 0; k < 5; ++k)
      s.requests[std::size_t(p)].push_back({p ^ 1, k});  // partner partition
  // Two partitions per process: pairs (0,1),(2,3),... share a process.
  ExchangePlan plan(s.requests, {ExchangeStrategy::MasterThread, 2});
  EXPECT_EQ(plan.exchange(s.data), expected(s));
  EXPECT_EQ(expected_traffic(s.requests, 2).messages, 0u);
  EXPECT_EQ(plan.stats().messages, 0u);
  EXPECT_EQ(plan.messages_per_exchange(), 0u);
}

TEST(HybridComm, SinglePartitionDegenerate) {
  Scenario s = make_scenario(1, 5, 3, 6);
  for (auto& reqs : s.requests)
    for (auto& r : reqs) r.from_partition = 0;
  EXPECT_EQ(expected_traffic(s.requests, 1).messages, 0u);
  for (const ExchangePlanOptions& opt :
       {ExchangePlanOptions{ExchangeStrategy::ThreadToThread},
        ExchangePlanOptions{ExchangeStrategy::MasterThread, 1}}) {
    ExchangePlan plan(s.requests, opt);
    EXPECT_EQ(plan.exchange(s.data), expected(s));
    EXPECT_EQ(plan.stats().messages, 0u);
  }
}

}  // namespace
}  // namespace columbia::core
