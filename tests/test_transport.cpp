// Fault-tolerant multi-process transport: the wire codec, the COLUMBIA_FAULTS
// transport-seam kinds, bit-identical halo delivery over every backend
// (in-process mailboxes, shared-memory rings, TCP sockets — driven through
// the single-process loopback harness), timeout/retransmit/peer-loss
// behavior, and the fork-based ProcessGroup launcher with its heartbeat
// failure detector and relaunch recovery.
//
// Fork discipline: the ProcessGroup tests must not touch the global smp
// thread pool before forking (children inherit memory, not threads), so
// everything here works on raw PartitionData scenarios, never solvers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/exchange_plan.hpp"
#include "core/transport.hpp"
#include "halo_oracle.hpp"
#include "obs/comm_report.hpp"
#include "obs/obs.hpp"
#include "resil/faults.hpp"
#include "smp/process_group.hpp"
#include "smp/shm_transport.hpp"
#include "smp/tcp_transport.hpp"

namespace columbia {
namespace {

struct InjectorGuard {
  explicit InjectorGuard(const std::string& spec) {
    resil::FaultInjector::global().configure(resil::parse_fault_spec(spec));
  }
  ~InjectorGuard() { resil::FaultInjector::global().reset(); }
};

struct ObsGuard {
  ~ObsGuard() {
    obs::set_enabled(false);
    obs::reset_trace();
    resil::FaultInjector::global().reset();
  }
};

using halo_oracle::expected;
using halo_oracle::make_scenario;
using halo_oracle::Scenario;

/// Fast wire options for tests: tight deadlines so injected drops resolve
/// in milliseconds, generous attempt budget so they still always resolve.
core::WireOptions test_wire() {
  core::WireOptions w;
  w.deadline_ms = 50;
  w.max_attempts = 8;
  w.backoff_base_ms = 1;
  w.backoff_max_ms = 4;
  w.loopback_self = true;
  return w;
}

// --- Wire codec ------------------------------------------------------------

TEST(WireCodec, RoundTripsHeaderAndFrame) {
  const std::vector<real_t> frame = {3.0, 12345.0, 1.5, -2.25, 1e-300};
  std::vector<std::uint8_t> wire;
  core::encode_wire({0x1122334455667788ull, 42,
                     std::uint16_t(core::WireType::Data), 3},
                    frame, wire);
  EXPECT_EQ(wire.size(), core::kWireHeaderBytes + frame.size() * sizeof(real_t));
  core::WireHeader h;
  std::vector<real_t> back;
  ASSERT_TRUE(core::decode_wire(wire, h, back));
  EXPECT_EQ(h.seq, 0x1122334455667788ull);
  EXPECT_EQ(h.channel, 42u);
  EXPECT_EQ(h.type, std::uint16_t(core::WireType::Data));
  EXPECT_EQ(h.attempt, 3u);
  EXPECT_EQ(back, frame);
}

TEST(WireCodec, RejectsShortAndRaggedDatagrams) {
  std::vector<std::uint8_t> wire;
  core::encode_wire({7, 0, std::uint16_t(core::WireType::Ack), 0}, {}, wire);
  core::WireHeader h;
  std::vector<real_t> frame;
  ASSERT_TRUE(core::decode_wire(wire, h, frame));
  EXPECT_TRUE(frame.empty());
  // Shorter than a header: reject.
  EXPECT_FALSE(core::decode_wire(
      std::span<const std::uint8_t>(wire.data(), core::kWireHeaderBytes - 1),
      h, frame));
  // Body not a whole number of real_t words: reject without crashing.
  wire.push_back(0xab);
  EXPECT_FALSE(core::decode_wire(wire, h, frame));
}

// --- COLUMBIA_FAULTS transport kinds ---------------------------------------

TEST(TransportFaults, GrammarParsesTransportKinds) {
  const resil::FaultSpec spec = resil::parse_fault_spec(
      "seed=9,msg_delay=0.5@25,msg_drop=0.25@3,conn_reset=0.125,peer_hang=1@1");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.rate[std::size_t(resil::FaultKind::MsgDelay)], 0.5);
  // msg_delay's @ suffix is the latency parameter, not a budget cap.
  EXPECT_EQ(spec.param[std::size_t(resil::FaultKind::MsgDelay)], 25u);
  EXPECT_EQ(spec.max_count[std::size_t(resil::FaultKind::MsgDelay)],
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(spec.rate[std::size_t(resil::FaultKind::MsgDrop)], 0.25);
  EXPECT_EQ(spec.max_count[std::size_t(resil::FaultKind::MsgDrop)], 3u);
  EXPECT_EQ(spec.rate[std::size_t(resil::FaultKind::ConnReset)], 0.125);
  EXPECT_EQ(spec.rate[std::size_t(resil::FaultKind::PeerHang)], 1.0);
  EXPECT_EQ(spec.max_count[std::size_t(resil::FaultKind::PeerHang)], 1u);
}

TEST(TransportFaults, ParseErrorsNameTheFullGrammar) {
  const auto expect_grammar = [](const std::string& spec) {
    try {
      resil::parse_fault_spec(spec);
      FAIL() << "expected invalid_argument for: " << spec;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("COLUMBIA_FAULTS grammar"), std::string::npos)
          << what;
      // Every kind is listed so the user can fix the typo from the message.
      for (int k = 0; k < resil::kNumFaultKinds; ++k)
        EXPECT_NE(what.find(resil::fault_kind_name(resil::FaultKind(k))),
                  std::string::npos)
            << what;
    }
  };
  expect_grammar("seed=1,msg_dorp=0.5");     // unknown kind
  expect_grammar("seed=1,msg_drop");         // not key=value
  expect_grammar("seed=1,msg_drop=1.5");     // rate outside [0,1]
  expect_grammar("seed=1,msg_drop=banana");  // bad number
}

// --- Loopback bit-identity on every backend --------------------------------

/// Runs the same schedule once without a transport and once with the given
/// endpoint in loopback mode; the delivered values must be bit-identical,
/// fault injection on or off.
void expect_loopback_identity(core::Transport& t, const std::string& faults) {
  const Scenario s = make_scenario(6, 18, 14, 21);
  const core::PartitionData want = expected(s);
  for (const core::ExchangeStrategy strat :
       {core::ExchangeStrategy::ThreadToThread,
        core::ExchangeStrategy::MasterThread}) {
    const int tpp = strat == core::ExchangeStrategy::MasterThread ? 2 : 1;
    core::ExchangePlanOptions opt;
    opt.strategy = strat;
    opt.threads_per_process = tpp;
    opt.transport = &t;
    opt.wire = test_wire();
    core::ExchangePlan plan(s.requests, opt);
    if (!faults.empty()) {
      InjectorGuard inj(faults);
      for (int round = 0; round < 3; ++round)
        EXPECT_EQ(plan.exchange(s.data), want) << "faulted, strat " << int(strat);
      EXPECT_GT(plan.stats().retransmits, 0u) << "fault spec never fired";
    } else {
      for (int round = 0; round < 3; ++round)
        EXPECT_EQ(plan.exchange(s.data), want) << "clean, strat " << int(strat);
      EXPECT_EQ(plan.stats().retransmits, 0u);
    }
  }
}

TEST(LoopbackTransport, LocalBackendDeliversBitIdentical) {
  core::LocalGroup group(1);
  auto t = group.endpoint(0);
  expect_loopback_identity(*t, "");
  expect_loopback_identity(*t, "seed=13,halo_corrupt=0.3,msg_drop=0.2");
}

TEST(LoopbackTransport, ShmBackendDeliversBitIdentical) {
  smp::ShmGroup group(1);
  auto t = group.endpoint(0);
  EXPECT_EQ(t->backend(), core::TransportBackend::Shm);
  expect_loopback_identity(*t, "");
  expect_loopback_identity(*t, "seed=13,halo_corrupt=0.3,msg_drop=0.2");
}

TEST(LoopbackTransport, TcpBackendDeliversBitIdentical) {
  smp::TcpGroup group(1);
  auto t = group.endpoint(0);
  EXPECT_EQ(t->backend(), core::TransportBackend::Tcp);
  expect_loopback_identity(*t, "");
  expect_loopback_identity(*t, "seed=13,halo_corrupt=0.3,msg_drop=0.2");
}

// Regression: two concurrent member threads in ONE process must agree on
// the per-round wire sequence. When exchange() drew it from the injector's
// process-global counter, each member claimed a different value, peers
// discarded each other's frames as stale, and the group deadlocked until
// the failure detector fired.
TEST(LoopbackTransport, ThreadMembersShareWireSequence) {
  const Scenario s = make_scenario(6, 18, 14, 21);
  const core::PartitionData want = expected(s);
  core::LocalGroup group(2);
  std::vector<int> codes(2, -1);
  std::vector<std::thread> members;
  for (int r = 0; r < 2; ++r)
    members.emplace_back([&, r] {
      try {
        auto t = group.endpoint(r);
        core::ExchangePlanOptions opt;
        opt.transport = t.get();
        opt.wire.deadline_ms = 200;
        core::ExchangePlan plan(s.requests, opt);
        for (int round = 0; round < 3; ++round)
          if (plan.exchange(s.data) != want) {
            codes[std::size_t(r)] = 2;
            return;
          }
        codes[std::size_t(r)] = 0;
      } catch (const std::exception&) {
        codes[std::size_t(r)] = 70;
      }
    });
  for (auto& th : members) th.join();
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[1], 0);
}

TEST(LoopbackTransport, ConnResetIsAbsorbedByReconnect) {
  smp::TcpGroup group(1);
  auto t = group.endpoint(0);
  expect_loopback_identity(*t, "seed=29,conn_reset=0.15");
  EXPECT_GT(t->counters().reconnects() + t->counters().timeouts(), 0u);
}

// --- The retransmit ledger over a real wire (test_comm_obs discipline) -----

std::uint64_t retransmit_spans(const std::vector<obs::PhaseEvent>& events) {
  std::uint64_t n = 0;
  for (const obs::PhaseEvent& e : events)
    if (e.phase == 'B' && e.name == "halo.xchg.retransmit") ++n;
  return n;
}

/// Every wire retransmission must show up identically in four ledgers: the
/// halo.xchg.retransmit span stream, the plan's ExchangeStats, the
/// resil.halo.retransmits counter, and the transport's own
/// resil.transport.retransmit counter — over genuine TCP bytes.
TEST(RetransmitAccounting, TcpWireSpansMatchStatsAndCounters) {
  const Scenario s = make_scenario(8, 20, 15, 11);
  const core::PartitionData want = expected(s);
  ObsGuard guard;
  resil::FaultInjector::global().configure(
      resil::parse_fault_spec("seed=13,halo_corrupt=0.3,msg_drop=0.3"));
  obs::reset_trace();
  obs::set_enabled(true);
  const std::uint64_t c0 = obs::counter("resil.halo.retransmits").value();
  const std::uint64_t t0 = obs::counter("resil.transport.retransmit").value();
  smp::TcpGroup group(1);
  auto t = group.endpoint(0);
  core::ExchangePlanOptions opt;
  opt.level = 2;
  opt.transport = t.get();
  opt.wire = test_wire();
  core::ExchangePlan plan(s.requests, opt);
  for (int round = 0; round < 3; ++round)
    EXPECT_EQ(plan.exchange(s.data), want);
  obs::set_enabled(false);
  const std::uint64_t counted =
      obs::counter("resil.halo.retransmits").value() - c0;
  const std::uint64_t transported =
      obs::counter("resil.transport.retransmit").value() - t0;
  const std::vector<obs::PhaseEvent> events = obs::phase_events_since();
  EXPECT_GT(plan.stats().retransmits, 0u) << "fault spec never fired";
  EXPECT_EQ(retransmit_spans(events), plan.stats().retransmits);
  EXPECT_EQ(counted, plan.stats().retransmits);
  EXPECT_EQ(transported, plan.stats().retransmits);
  EXPECT_EQ(t->counters().retransmits(), plan.stats().retransmits);
  const obs::CommReport cr = obs::build_comm_report(events);
  EXPECT_EQ(cr.retransmits, plan.stats().retransmits);
}

// --- Failure detection -----------------------------------------------------

TEST(FailureDetection, SilentPeerSurfacesAsTransportError) {
  // Two members, but member 1 never runs: every cross-member channel must
  // end in a typed TransportError after the bounded retransmit schedule —
  // never a hang.
  const Scenario s = make_scenario(4, 8, 6, 5);
  core::LocalGroup group(2);
  auto t = group.endpoint(0);
  core::ExchangePlanOptions opt;
  opt.transport = t.get();
  opt.wire.deadline_ms = 5;
  opt.wire.max_attempts = 2;
  opt.wire.backoff_base_ms = 1;
  opt.wire.backoff_max_ms = 2;
  core::ExchangePlan plan(s.requests, opt);
  try {
    plan.exchange(s.data);
    FAIL() << "expected TransportError";
  } catch (const core::TransportError& e) {
    EXPECT_EQ(e.peer(), 1);
    EXPECT_EQ(int(e.kind()), int(core::TransportError::Kind::PeerLost));
  }
  EXPECT_EQ(t->counters().peer_lost(), 1u);
  EXPECT_GT(t->counters().timeouts(), 0u);
}

TEST(FailureDetection, InjectedPeerHangThrowsOnLocalBackend) {
  const Scenario s = make_scenario(4, 8, 6, 5);
  core::LocalGroup group(1);
  auto t = group.endpoint(0);
  bool hook_fired = false;
  t->set_hang_hook([&] { hook_fired = true; });
  core::ExchangePlanOptions opt;
  opt.transport = t.get();
  opt.wire = test_wire();
  core::ExchangePlan plan(s.requests, opt);
  InjectorGuard inj("seed=3,peer_hang=1@1");
  EXPECT_THROW(plan.exchange(s.data), core::TransportError);
  EXPECT_TRUE(hook_fired);
  EXPECT_EQ(t->counters().peer_lost(), 1u);
}

// --- ProcessGroup: forked ranks, heartbeats, recovery ----------------------

/// Child body: the full replicated exchange protocol over the group wire,
/// verified against the expected values inside the child. Any mismatch or
/// exception turns into a nonzero exit the parent sees.
smp::ProcessGroup::Body exchange_body(int rounds) {
  return [rounds](int rank, core::Transport& t) {
    (void)rank;
    const Scenario s = make_scenario(6, 18, 14, 21);
    const core::PartitionData want = expected(s);
    core::ExchangePlanOptions opt;
    opt.transport = &t;
    opt.wire.deadline_ms = 200;
    opt.wire.max_attempts = 8;
    core::ExchangePlan plan(s.requests, opt);
    for (int round = 0; round < rounds; ++round)
      if (plan.exchange(s.data) != want) return 2;
    // Exit grace: a member leaving the instant its schedule completes can
    // strand a peer whose final Ack a conn_reset destroyed.
    plan.drain();
    return 0;
  };
}

TEST(ProcessGroup, ShmRanksExchangeBitIdentical) {
  smp::ProcessGroupOptions opts;
  opts.ranks = 3;
  opts.backend = smp::GroupBackend::Shm;
  opts.heartbeat_ms = 10;
  opts.stall_ms = 2000;
  opts.wall_timeout_ms = 60000;
  const smp::GroupResult res =
      smp::ProcessGroup::run(opts, exchange_body(4));
  EXPECT_TRUE(res.ok) << "first failing exit: " << res.first_failure_exit();
  EXPECT_FALSE(res.hung);
  for (const smp::MemberReport& m : res.members) {
    EXPECT_TRUE(m.exited);
    EXPECT_EQ(m.exit_code, 0);
    EXPECT_GT(m.heartbeats, 0u);
  }
}

TEST(ProcessGroup, TcpRanksExchangeBitIdentical) {
  smp::ProcessGroupOptions opts;
  opts.ranks = 2;
  opts.backend = smp::GroupBackend::Tcp;
  opts.heartbeat_ms = 10;
  opts.stall_ms = 2000;
  opts.wall_timeout_ms = 60000;
  const smp::GroupResult res =
      smp::ProcessGroup::run(opts, exchange_body(4));
  EXPECT_TRUE(res.ok) << "first failing exit: " << res.first_failure_exit();
  EXPECT_FALSE(res.hung);
  EXPECT_GT(res.total.heartbeats(), 0u);
}

TEST(ProcessGroup, InjectedDropsAreAbsorbedAcrossProcesses) {
  InjectorGuard inj("seed=13,msg_drop=0.2,halo_corrupt=0.2");  // inherited
  smp::ProcessGroupOptions opts;
  opts.ranks = 2;
  opts.backend = smp::GroupBackend::Shm;
  opts.heartbeat_ms = 10;
  opts.stall_ms = 3000;
  opts.wall_timeout_ms = 60000;
  const smp::GroupResult res =
      smp::ProcessGroup::run(opts, exchange_body(3));
  EXPECT_TRUE(res.ok) << "first failing exit: " << res.first_failure_exit();
  // Somebody retransmitted (children mirror counters into the control
  // block, so the parent can see it even though they are processes).
  EXPECT_GT(res.total.retransmits() + res.total.timeouts(), 0u);
}

TEST(ProcessGroup, ConnResetsAreSurvivedAcrossTcpProcesses) {
  // Injected resets tear the shared bidirectional link down with frames
  // in flight, in both directions, repeatedly. The ranks must reconnect,
  // retransmit, and finish with the exact expected halo — in particular
  // an Ack destroyed by a reset must not let the peer's run-ahead Data be
  // acknowledged-and-discarded by await_ack (the deadlock this test
  // pins down).
  InjectorGuard inj("seed=29,conn_reset=0.3");  // inherited by children
  smp::ProcessGroupOptions opts;
  opts.ranks = 2;
  opts.backend = smp::GroupBackend::Tcp;
  opts.heartbeat_ms = 10;
  opts.stall_ms = 5000;
  opts.wall_timeout_ms = 120000;
  const smp::GroupResult res = smp::ProcessGroup::run(opts, exchange_body(4));
  EXPECT_TRUE(res.ok) << "first failing exit: " << res.first_failure_exit();
  EXPECT_FALSE(res.hung);
  EXPECT_GT(res.total.reconnects(), 0u);
  EXPECT_GT(res.total.retransmits(), 0u);
}

TEST(ProcessGroup, DeadRankIsRelaunchedAndRecovers) {
  // Round 1: rank 1 dies with a nonzero exit before touching the wire
  // (flagged through the filesystem so round 2 behaves). The recovery
  // driver relaunches the group, which then completes cleanly.
  const std::string flag =
      "test_transport_deadrank_" + std::to_string(::getpid()) + ".flag";
  std::remove(flag.c_str());
  smp::ProcessGroupOptions opts;
  opts.ranks = 2;
  opts.backend = smp::GroupBackend::Shm;
  opts.heartbeat_ms = 10;
  opts.stall_ms = 1000;
  opts.wall_timeout_ms = 60000;
  const auto body = [flag](int rank, core::Transport& t) {
    if (rank == 1) {
      if (FILE* f = std::fopen(flag.c_str(), "r"); f != nullptr) {
        std::fclose(f);
      } else {
        f = std::fopen(flag.c_str(), "w");
        if (f != nullptr) std::fclose(f);
        return 9;  // first life: die before serving peers
      }
    }
    return exchange_body(2)(rank, t);
  };
  int relaunches = 0;
  const smp::GroupResult res =
      smp::ProcessGroup::run_recovering(opts, body, 2, &relaunches);
  std::remove(flag.c_str());
  EXPECT_TRUE(res.ok) << "first failing exit: " << res.first_failure_exit();
  EXPECT_EQ(relaunches, 1);
}

TEST(ProcessGroup, HungRankIsDetectedKilledAndRecovered) {
  // peer_hang at rate 1: every rank goes silent at its first wire
  // operation — heartbeats included. The watchdog must declare the group
  // hung (not wait forever), kill it, strip peer_hang, and relaunch into
  // a clean run.
  InjectorGuard inj("seed=3,peer_hang=1@1");
  smp::ProcessGroupOptions opts;
  opts.ranks = 2;
  opts.backend = smp::GroupBackend::Shm;
  opts.heartbeat_ms = 10;
  opts.stall_ms = 400;
  opts.wall_timeout_ms = 60000;
  int relaunches = 0;
  const smp::GroupResult res =
      smp::ProcessGroup::run_recovering(opts, exchange_body(2), 2,
                                        &relaunches);
  EXPECT_TRUE(res.ok) << "first failing exit: " << res.first_failure_exit();
  EXPECT_EQ(relaunches, 1);
  EXPECT_GT(res.total.heartbeats(), 0u);
}

}  // namespace
}  // namespace columbia
