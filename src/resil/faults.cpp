#include "resil/faults.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/obs.hpp"
#include "resil/crc32.hpp"
#include "support/random.hpp"

namespace columbia::resil {

namespace {

/// Distinct salt per fault kind so the same site draws independently for
/// each kind.
constexpr std::array<std::uint64_t, kNumFaultKinds> kKindSalt = {
    0x9e3779b97f4a7c15ull, 0xc2b2ae3d27d4eb4full, 0x165667b19e3779f9ull,
    0x27d4eb2f165667c5ull, 0x85ebca6b27d4eb4full, 0xc2b2ae3585ebca77ull,
    0xff51afd7ed558ccdull, 0xc4ceb9fe1a85ec53ull};

double parse_number(const std::string& tok) {
  std::size_t pos = 0;
  const double v = std::stod(tok, &pos);
  if (pos != tok.size()) throw std::invalid_argument("trailing characters");
  return v;
}

void bump_obs(FaultKind k) {
  switch (k) {
    case FaultKind::HaloCorrupt: OBS_COUNT("resil.fault.halo_corrupt", 1); break;
    case FaultKind::HaloDrop: OBS_COUNT("resil.fault.halo_drop", 1); break;
    case FaultKind::StateNaN: OBS_COUNT("resil.fault.state_nan", 1); break;
    case FaultKind::CaseThrow: OBS_COUNT("resil.fault.case_throw", 1); break;
    case FaultKind::MsgDelay: OBS_COUNT("resil.fault.msg_delay", 1); break;
    case FaultKind::MsgDrop: OBS_COUNT("resil.fault.msg_drop", 1); break;
    case FaultKind::ConnReset: OBS_COUNT("resil.fault.conn_reset", 1); break;
    case FaultKind::PeerHang: OBS_COUNT("resil.fault.peer_hang", 1); break;
  }
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::HaloCorrupt: return "halo_corrupt";
    case FaultKind::HaloDrop: return "halo_drop";
    case FaultKind::StateNaN: return "state_nan";
    case FaultKind::CaseThrow: return "case_throw";
    case FaultKind::MsgDelay: return "msg_delay";
    case FaultKind::MsgDrop: return "msg_drop";
    case FaultKind::ConnReset: return "conn_reset";
    case FaultKind::PeerHang: return "peer_hang";
  }
  return "?";
}

const std::string& fault_grammar_help() {
  static const std::string help = [] {
    std::string s =
        "COLUMBIA_FAULTS grammar: seed=<u64>[,<kind>=<rate>[@<max>]]...\n"
        "  kinds:";
    for (int k = 0; k < kNumFaultKinds; ++k) {
      s += k == 0 ? " " : " | ";
      s += fault_kind_name(FaultKind(k));
    }
    s +=
        "\n"
        "  <rate> is the per-opportunity probability in [0, 1]; @<max> caps\n"
        "  the total injections of that kind. Exception: msg_delay's @ suffix\n"
        "  is the injected latency in milliseconds (default 10).\n"
        "  example: seed=42,state_nan=0.25@1,msg_drop=0.1,peer_hang=1@1";
    return s;
  }();
  return help;
}

namespace {
/// Distinguishes our own diagnostics from std::stod's bare
/// invalid_argument inside parse_fault_spec's catch blocks.
struct ParseFail : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};
}  // namespace

FaultSpec parse_fault_spec(const std::string& spec) {
  // Every rejection names the offending token AND restates the whole
  // grammar: a typo'd COLUMBIA_FAULTS is usually fixed from the error
  // message alone, without digging up this file.
  const auto fail = [](const std::string& detail) {
    throw ParseFail("COLUMBIA_FAULTS: " + detail + "\n" +
                    fault_grammar_help());
  };
  FaultSpec out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string tok = spec.substr(start, end - start);
    start = end + 1;
    if (tok.empty()) {
      if (end == spec.size()) break;
      continue;
    }
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos)
      fail("token '" + tok + "' is not key=value");
    const std::string key = tok.substr(0, eq);
    std::string val = tok.substr(eq + 1);
    try {
      if (key == "seed") {
        out.seed = std::stoull(val);
        continue;
      }
      int kind = -1;
      for (int k = 0; k < kNumFaultKinds; ++k)
        if (key == fault_kind_name(FaultKind(k))) kind = k;
      if (kind < 0) fail("unknown fault kind '" + key + "' in '" + tok + "'");
      std::uint64_t at_value = 0;
      bool has_at = false;
      const std::size_t at = val.find('@');
      if (at != std::string::npos) {
        at_value = std::stoull(val.substr(at + 1));
        has_at = true;
        val = val.substr(0, at);
      }
      const double rate = parse_number(val);
      if (!(rate >= 0.0 && rate <= 1.0))
        fail("rate outside [0, 1] in '" + tok + "'");
      out.rate[std::size_t(kind)] = rate;
      if (has_at) {
        // msg_delay's @ suffix parameterizes the fault (latency in ms)
        // rather than capping it; every other kind's @ is the budget cap.
        if (FaultKind(kind) == FaultKind::MsgDelay)
          out.param[std::size_t(kind)] = at_value;
        else
          out.max_count[std::size_t(kind)] = at_value;
      }
    } catch (const ParseFail&) {
      throw;
    } catch (const std::exception&) {
      fail("bad value in '" + tok + "'");
    }
  }
  return out;
}

std::string render_fault_spec(const FaultSpec& spec) {
  if (!spec.any()) return "";
  std::string out = "seed=" + std::to_string(spec.seed);
  char buf[64];
  for (int k = 0; k < kNumFaultKinds; ++k) {
    const double rate = spec.rate[std::size_t(k)];
    if (rate <= 0) continue;
    std::snprintf(buf, sizeof(buf), "%.10g", rate);
    out += ',';
    out += fault_kind_name(FaultKind(k));
    out += '=';
    out += buf;
    if (FaultKind(k) == FaultKind::MsgDelay) {
      // The @ suffix is the delay latency for this kind; render it when it
      // differs from the parser's default so the string round-trips.
      if (spec.param[std::size_t(k)] != 10) {
        out += '@';
        out += std::to_string(spec.param[std::size_t(k)]);
      }
    } else if (spec.max_count[std::size_t(k)] !=
               std::numeric_limits<std::uint64_t>::max()) {
      out += '@';
      out += std::to_string(spec.max_count[std::size_t(k)]);
    }
  }
  return out;
}

InjectedFault::InjectedFault(FaultKind kind, std::uint64_t site)
    : std::runtime_error(std::string("injected fault: ") +
                         fault_kind_name(kind) + " at site " +
                         std::to_string(site)),
      kind_(kind),
      site_(site) {}

FaultInjector& FaultInjector::global() {
  static FaultInjector* inj = [] {
    auto* p = new FaultInjector;
    if (const char* s = std::getenv("COLUMBIA_FAULTS"); s != nullptr && *s)
      p->configure(parse_fault_spec(s));
    return p;
  }();
  return *inj;
}

void FaultInjector::configure(const FaultSpec& spec) {
  spec_ = spec;
  for (auto& f : fired_) f.store(0, std::memory_order_relaxed);
  armed_.store(spec.any(), std::memory_order_relaxed);
}

void FaultInjector::reset() {
  spec_ = FaultSpec{};
  for (auto& f : fired_) f.store(0, std::memory_order_relaxed);
  exchange_seq_.store(0, std::memory_order_relaxed);
  armed_.store(false, std::memory_order_relaxed);
}

bool FaultInjector::should_inject(FaultKind k, std::uint64_t site) {
  if (!armed_.load(std::memory_order_relaxed)) return false;
  const std::size_t ki = std::size_t(k);
  const double rate = spec_.rate[ki];
  if (rate <= 0) return false;
  // Pure (seed, kind, site) decision: interleavings cannot change the set.
  SplitMix64 gen(spec_.seed ^ kKindSalt[ki] ^
                 (site * 0x2545f4914f6cdd1dull + 0x9e3779b97f4a7c15ull));
  const double u = double(gen.next() >> 11) * 0x1.0p-53;
  if (u >= rate) return false;
  // Budget cap: claim a slot; a full budget suppresses the injection.
  auto& fired = fired_[ki];
  std::uint64_t cur = fired.load(std::memory_order_relaxed);
  while (cur < spec_.max_count[ki]) {
    if (fired.compare_exchange_weak(cur, cur + 1,
                                    std::memory_order_relaxed)) {
      bump_obs(k);
      return true;
    }
  }
  return false;
}

void FaultInjector::maybe_throw(FaultKind k, std::uint64_t site) {
  if (should_inject(k, site)) throw InjectedFault(k, site);
}

std::uint64_t halo_site(std::uint64_t exchange_seq, std::uint64_t sender,
                        std::uint64_t receiver, std::uint64_t attempt) {
  SplitMix64 gen(exchange_seq * 0x100000001b3ull + sender * 0x10001ull +
                 receiver * 0x101ull + attempt);
  return gen.next();
}

std::uint64_t site_hash(std::uint64_t seed, std::uint64_t site) {
  SplitMix64 gen(seed * 0xff51afd7ed558ccdull ^ site);
  return gen.next();
}

void frame_payload_into(std::span<const real_t> payload,
                        std::vector<real_t>& frame) {
  frame.resize(payload.size() + 2);
  frame[0] = real_t(payload.size());
  frame[1] =
      real_t(crc32(payload.data(), payload.size() * sizeof(real_t)));
  std::copy(payload.begin(), payload.end(), frame.begin() + 2);
}

bool unframe_payload(std::span<const real_t> frame,
                     std::vector<real_t>& payload) {
  if (frame.size() < 2) return false;
  const real_t declared = frame[0];
  if (!(declared >= 0) || declared != std::floor(declared)) return false;
  const std::size_t n = std::size_t(declared);
  if (frame.size() != n + 2) return false;
  const auto stored = std::uint32_t(frame[1]);
  const std::uint32_t computed =
      crc32(frame.data() + 2, n * sizeof(real_t));
  if (stored != computed) return false;
  payload.assign(frame.begin() + 2, frame.end());
  return true;
}

void corrupt_frame(std::vector<real_t>& frame, std::uint64_t site) {
  if (frame.size() <= 2) return;
  const std::size_t n = frame.size() - 2;
  const std::size_t k = 2 + std::size_t(site_hash(0x5eedull, site) % n);
  // Flip a mantissa bit so the checksum no longer matches (and the value
  // would be silently wrong without it).
  std::uint64_t bits;
  std::memcpy(&bits, &frame[k], sizeof(bits));
  bits ^= 1ull << 21;
  std::memcpy(&frame[k], &bits, sizeof(bits));
}

void drop_frame(std::vector<real_t>& frame) {
  if (frame.size() > 2) frame.resize(2);
}

}  // namespace columbia::resil
