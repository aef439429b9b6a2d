// Deterministic fault injection for testing recovery paths.
//
// Every injection decision is a pure function of (seed, fault kind, site):
// a site is a stable integer identifying one opportunity (a halo message
// attempt, a solver cycle, a database case), so the set of injected faults
// is reproducible from the seed alone — thread interleavings cannot change
// it. That makes every recovery path exercisable in CI: corrupt or drop a
// halo payload in core::ExchangePlan, poison a solver's state mid-cycle,
// throw from a database case worker, all on demand.
//
// Spec grammar (COLUMBIA_FAULTS environment variable, mirroring
// COLUMBIA_TRACE, or parse_fault_spec + FaultInjector::configure):
//
//   seed=<u64>[,<kind>=<rate>[@<max>]]...
//   kinds: halo_corrupt | halo_drop | state_nan | case_throw
//        | msg_delay | msg_drop | conn_reset | peer_hang
//
// `rate` is the per-opportunity probability in [0, 1]; `@max` optionally
// caps the total injections of that kind (the cap is exact under
// sequential opportunities; under concurrent ones the *selected* sites are
// still deterministic but which of them land within the cap can race).
// Example: COLUMBIA_FAULTS="seed=42,state_nan=0.25@1,halo_corrupt=0.1".
//
// The msg_* / conn_reset / peer_hang kinds fire at the multi-process
// transport seam (core::ExchangePlan over a core::Transport backend):
//   msg_delay  holds a frame for a fixed latency before the send — here
//              alone, `@<ms>` sets that latency in milliseconds (default
//              10) instead of an injection cap;
//   msg_drop   swallows the frame on the wire (the receiver times out and
//              the sender retransmits);
//   conn_reset tears down the peer connection mid-message (the transport
//              reconnects and retransmits);
//   peer_hang  stops the selected rank responding entirely, heartbeats
//              included — the site is the group rank, so which ranks hang
//              is reproducible; the launcher's failure detector must kill
//              the group and resume from the last durable checkpoint.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/types.hpp"

namespace columbia::resil {

enum class FaultKind : int {
  HaloCorrupt = 0,
  HaloDrop,
  StateNaN,
  CaseThrow,
  // Transport-seam kinds (multi-process wire layer).
  MsgDelay,
  MsgDrop,
  ConnReset,
  PeerHang,
};
inline constexpr int kNumFaultKinds = 8;

const char* fault_kind_name(FaultKind k);

struct FaultSpec {
  std::uint64_t seed = 0;
  std::array<double, kNumFaultKinds> rate{};
  std::array<std::uint64_t, kNumFaultKinds> max_count{};
  /// Per-kind shape parameter. Only msg_delay uses one today: the injected
  /// latency in milliseconds, set by that kind's `@` suffix.
  std::array<std::uint64_t, kNumFaultKinds> param{};

  FaultSpec() {
    max_count.fill(std::numeric_limits<std::uint64_t>::max());
    param[std::size_t(FaultKind::MsgDelay)] = 10;
  }

  bool any() const {
    for (double r : rate)
      if (r > 0) return true;
    return false;
  }
};

/// One-paragraph rendering of the full COLUMBIA_FAULTS grammar — embedded
/// in every parse error and printed by the examples' --faults-help.
const std::string& fault_grammar_help();

/// Parses the COLUMBIA_FAULTS grammar above. Throws std::invalid_argument
/// on malformed input (unknown kind, rate outside [0, 1], bad number); the
/// exception message names the offending token AND the full grammar.
FaultSpec parse_fault_spec(const std::string& spec);

/// Inverse of parse_fault_spec: the spec back in grammar form, suitable
/// for provenance stamps (telemetry shard headers record the fault mix a
/// run was launched under). Disarmed specs render as "" ; parsing the
/// rendered string reproduces the spec.
std::string render_fault_spec(const FaultSpec& spec);

/// Thrown by injected case-worker crashes (FaultKind::CaseThrow).
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(FaultKind kind, std::uint64_t site);
  FaultKind kind() const { return kind_; }
  std::uint64_t site() const { return site_; }

 private:
  FaultKind kind_;
  std::uint64_t site_;
};

class FaultInjector {
 public:
  /// Process-wide injector, configured once from COLUMBIA_FAULTS on first
  /// use (unset or empty => disarmed).
  static FaultInjector& global();

  FaultInjector() = default;

  void configure(const FaultSpec& spec);
  /// Disarms and zeroes the per-kind injection counters.
  void reset();
  const FaultSpec& spec() const { return spec_; }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Deterministic decision for one opportunity. True means the caller
  /// must apply the fault now; the per-kind counter (and the obs counter
  /// resil.fault.<kind>, when observability is on) is bumped.
  bool should_inject(FaultKind k, std::uint64_t site);

  /// Throws InjectedFault when should_inject fires — the one-line hook for
  /// case workers.
  void maybe_throw(FaultKind k, std::uint64_t site);

  /// Total injections of `k` so far.
  std::uint64_t injected(FaultKind k) const {
    return fired_[std::size_t(k)].load(std::memory_order_relaxed);
  }

  /// Monotone sequence number for halo exchanges; combined with
  /// sender/receiver/attempt into per-message sites (halo_site).
  std::uint64_t next_exchange_seq() {
    return exchange_seq_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  FaultSpec spec_;
  std::atomic<bool> armed_{false};
  std::array<std::atomic<std::uint64_t>, kNumFaultKinds> fired_{};
  std::atomic<std::uint64_t> exchange_seq_{0};
};

/// Stable 64-bit mix of the fields identifying one halo message attempt.
std::uint64_t halo_site(std::uint64_t exchange_seq, std::uint64_t sender,
                        std::uint64_t receiver, std::uint64_t attempt);

/// Deterministic hash used to pick *where* a fault lands (which payload
/// word, which node) once should_inject has fired.
std::uint64_t site_hash(std::uint64_t seed, std::uint64_t site);

// --- Checksummed halo frames -----------------------------------------------
//
// Wire layout: [payload_count, crc32(payload), payload...]. The count and
// checksum let the receiver detect truncation (a dropped payload) and
// corruption; the sender retransmits until a clean frame goes out, so the
// delivered values are always exactly the originals.

/// Wraps a payload in a checksummed frame, rewriting `frame` in place: no
/// allocation once its capacity covers payload.size() + 2. Persistent-buffer
/// exchanges (core::ExchangePlan) re-frame into the same vector every
/// attempt, so steady-state retransmits stay allocation-free.
void frame_payload_into(std::span<const real_t> payload,
                        std::vector<real_t>& frame);

/// Validates `frame`; on success fills `payload` and returns true. False
/// on length or checksum mismatch (payload then unspecified).
bool unframe_payload(std::span<const real_t> frame,
                     std::vector<real_t>& payload);

/// In-transit corruption: flips one payload word (chosen by the site hash)
/// after the checksum was computed. No-op on empty payloads.
void corrupt_frame(std::vector<real_t>& frame, std::uint64_t site);

/// In-transit drop: truncates the payload so the receiver sees a frame
/// shorter than its declared count.
void drop_frame(std::vector<real_t>& frame);

}  // namespace columbia::resil
