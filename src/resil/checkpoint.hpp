// Versioned, CRC32-checksummed binary snapshots of solver state.
//
// A checkpoint captures everything a multigrid solver needs to resume a
// steady-state solve bit-identically: the fine-grid solution vector
// (including the SA working variable for NSU3D), the cycle count, and the
// residual history so far. Coarse-level state is rebuilt by the next cycle
// (FAS restriction overwrites it before use), so the fine grid alone
// determines every subsequent residual exactly — restarting from cycle k
// reproduces the uninterrupted history bit for bit.
//
// Wire format (little-endian host layout, as mesh::io):
//   magic "COLCKPT1" | u32 version | payload | u32 crc32(payload)
//   payload = u32 solver_len | solver bytes | u64 cycle | u64 stride
//           | u64 nhist | nhist f64 | u64 nstate | nstate f64
// Readers reject bad magic, unknown versions, truncation, and checksum
// mismatch with a typed CheckpointError (a std::runtime_error), so restore
// paths can tell WHY a snapshot was unusable without string-matching.
// Files are written through support::durable_write_file (staged, fsynced,
// renamed, directory-synced): recovery is only as trustworthy as the last
// checkpoint's durability.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace columbia::resil {

/// Why a checkpoint could not be read. Every reader failure carries one:
///   BadMagic    not a checkpoint file (or the header itself was mangled)
///   BadVersion  a real checkpoint from an incompatible format revision
///   Truncated   ends mid-payload — an interrupted or torn write
///   CrcMismatch right length, wrong bytes — silent corruption
///   Malformed   internally inconsistent fields (implausible sizes)
class CheckpointError : public std::runtime_error {
 public:
  enum class Kind { BadMagic, BadVersion, Truncated, CrcMismatch, Malformed };
  CheckpointError(Kind kind, const std::string& what)
      : std::runtime_error("columbia checkpoint: " + what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

const char* checkpoint_error_kind_name(CheckpointError::Kind k);

struct Checkpoint {
  std::string solver;            // "nsu3d" | "cart3d" | ...
  std::uint64_t cycle = 0;       // cycles completed when taken
  std::uint64_t state_stride = 0;  // components per node/cell
  std::vector<double> history;   // residual norms incl. the initial entry
  std::vector<double> state;     // flattened fine-grid solution
};

/// Writes `c` to the stream; returns bytes written.
std::size_t write_checkpoint(std::ostream& out, const Checkpoint& c);

/// Reads a checkpoint written by write_checkpoint. Throws CheckpointError
/// on bad magic/version, truncation, or CRC mismatch — and never returns
/// partial state: the Checkpoint is only handed back once fully validated.
Checkpoint read_checkpoint(std::istream& in);

/// Durable write via support::durable_write_file (staged, fsynced,
/// renamed): a crash mid-write never clobbers the previous good
/// checkpoint, and a published checkpoint survives power loss. False on
/// I/O failure.
bool write_checkpoint_file(const std::string& path, const Checkpoint& c);

/// Loads `path` if it exists and validates; std::nullopt when the file is
/// absent or unreadable/corrupt (a corrupt checkpoint is a recoverable
/// condition: the caller starts fresh instead of crashing). A rejected
/// existing file prints one stderr line naming the path and the error
/// kind; a missing file is silent.
std::optional<Checkpoint> try_read_checkpoint_file(const std::string& path);

}  // namespace columbia::resil
