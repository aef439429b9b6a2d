#include "resil/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "resil/crc32.hpp"
#include "support/durable.hpp"

namespace columbia::resil {

namespace {

constexpr char kMagic[8] = {'C', 'O', 'L', 'C', 'K', 'P', 'T', '1'};
constexpr std::uint32_t kVersion = 1;

/// Accumulates the payload CRC alongside the raw writes so the trailing
/// checksum covers exactly the bytes between version and crc.
class CrcWriter {
 public:
  explicit CrcWriter(std::ostream& out) : out_(out) {}

  template <typename T>
  void put(const T& v) {
    out_.write(reinterpret_cast<const char*>(&v), sizeof(T));
    crc_ = crc32(&v, sizeof(T), crc_);
    bytes_ += sizeof(T);
  }
  void put_bytes(const void* p, std::size_t n) {
    out_.write(static_cast<const char*>(p), std::streamsize(n));
    crc_ = crc32(p, n, crc_);
    bytes_ += n;
  }

  std::uint32_t crc() const { return crc_; }
  std::size_t bytes() const { return bytes_; }

 private:
  std::ostream& out_;
  std::uint32_t crc_ = 0;
  std::size_t bytes_ = 0;
};

class CrcReader {
 public:
  explicit CrcReader(std::istream& in) : in_(in) {}

  template <typename T>
  T get() {
    T v;
    get_bytes(&v, sizeof(T));
    return v;
  }
  void get_bytes(void* p, std::size_t n) {
    in_.read(static_cast<char*>(p), std::streamsize(n));
    if (!in_)
      throw CheckpointError(CheckpointError::Kind::Truncated, "truncated");
    crc_ = crc32(p, n, crc_);
  }

  std::uint32_t crc() const { return crc_; }

 private:
  std::istream& in_;
  std::uint32_t crc_ = 0;
};

}  // namespace

const char* checkpoint_error_kind_name(CheckpointError::Kind k) {
  switch (k) {
    case CheckpointError::Kind::BadMagic: return "bad_magic";
    case CheckpointError::Kind::BadVersion: return "bad_version";
    case CheckpointError::Kind::Truncated: return "truncated";
    case CheckpointError::Kind::CrcMismatch: return "crc_mismatch";
    case CheckpointError::Kind::Malformed: return "malformed";
  }
  return "?";
}

std::size_t write_checkpoint(std::ostream& out, const Checkpoint& c) {
  out.write(kMagic, sizeof(kMagic));
  const std::uint32_t version = kVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));

  CrcWriter w(out);
  w.put<std::uint32_t>(std::uint32_t(c.solver.size()));
  w.put_bytes(c.solver.data(), c.solver.size());
  w.put<std::uint64_t>(c.cycle);
  w.put<std::uint64_t>(c.state_stride);
  w.put<std::uint64_t>(std::uint64_t(c.history.size()));
  w.put_bytes(c.history.data(), c.history.size() * sizeof(double));
  w.put<std::uint64_t>(std::uint64_t(c.state.size()));
  w.put_bytes(c.state.data(), c.state.size() * sizeof(double));

  const std::uint32_t crc = w.crc();
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return sizeof(kMagic) + sizeof(version) + w.bytes() + sizeof(crc);
}

Checkpoint read_checkpoint(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw CheckpointError(CheckpointError::Kind::BadMagic, "bad magic");
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in)
    throw CheckpointError(CheckpointError::Kind::Truncated, "truncated");
  if (version != kVersion)
    throw CheckpointError(
        CheckpointError::Kind::BadVersion,
        "unsupported version " + std::to_string(version) + " (reader is " +
            std::to_string(kVersion) + ")");

  CrcReader r(in);
  Checkpoint c;
  const auto solver_len = r.get<std::uint32_t>();
  if (solver_len > 64)
    throw CheckpointError(CheckpointError::Kind::Malformed,
                          "implausible solver tag");
  c.solver.resize(solver_len);
  r.get_bytes(c.solver.data(), solver_len);
  c.cycle = r.get<std::uint64_t>();
  c.state_stride = r.get<std::uint64_t>();
  const auto nhist = r.get<std::uint64_t>();
  c.history.resize(nhist);
  r.get_bytes(c.history.data(), nhist * sizeof(double));
  const auto nstate = r.get<std::uint64_t>();
  c.state.resize(nstate);
  r.get_bytes(c.state.data(), nstate * sizeof(double));

  const std::uint32_t computed = r.crc();
  std::uint32_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (!in)
    throw CheckpointError(CheckpointError::Kind::Truncated, "truncated");
  if (stored != computed)
    throw CheckpointError(CheckpointError::Kind::CrcMismatch, "CRC mismatch");
  return c;
}

bool write_checkpoint_file(const std::string& path, const Checkpoint& c) {
  // Serialize in memory, publish through the durable-write discipline
  // (staged + fsync + rename + directory sync): the checkpoint a recovery
  // depends on must actually be on disk, not in a page cache a crash can
  // eat.
  std::ostringstream buf(std::ios::binary);
  write_checkpoint(buf, c);
  if (!buf) return false;
  return support::durable_write_file(path, buf.str());
}

std::optional<Checkpoint> try_read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  try {
    return read_checkpoint(in);
  } catch (const CheckpointError& e) {
    // The caller restarts from cycle 0: say why.
    std::fprintf(stderr, "checkpoint: ignoring %s: %s\n", path.c_str(),
                 checkpoint_error_kind_name(e.kind()));
    return std::nullopt;
  }
}

}  // namespace columbia::resil
