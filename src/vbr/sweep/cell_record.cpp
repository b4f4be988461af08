#include "vbr/sweep/cell_record.hpp"

#include <istream>
#include <ostream>

#include "vbr/common/error.hpp"
#include "vbr/common/serialize.hpp"

namespace vbr::sweep {

namespace {

/// Bounds for untrusted diagnostic strings.
constexpr std::uint64_t kMaxMessage = 4096;
constexpr std::uint64_t kMaxStderrTail = 8192;

}  // namespace

const char* failure_kind_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::kCrash: return "crash";
    case FailureKind::kHang: return "hang";
    case FailureKind::kOom: return "oom";
    case FailureKind::kError: return "error";
  }
  return "unknown";
}

void write_cell_record(std::ostream& out, const CellRecord& record) {
  io::write_u64(out, record.cell_index);
  io::write_u8(out, static_cast<std::uint8_t>(record.status));
  if (record.status == CellStatus::kDone) {
    write_cell_result(out, record.result);
  } else {
    const CellFailure& f = record.failure;
    io::write_u32(out, static_cast<std::uint32_t>(f.kind));
    io::write_u32(out, static_cast<std::uint32_t>(f.exit_code));
    io::write_u32(out, static_cast<std::uint32_t>(f.term_signal));
    io::write_u64(out, f.attempts);
    io::write_u64(out, f.max_rss_kib);
    io::write_f64(out, f.wall_seconds);
    io::write_string(out, f.message);
    io::write_string(out, f.stderr_tail);
  }
}

CellRecord read_cell_record(std::istream& in, std::uint64_t total_cells,
                            const std::string& name) {
  const char* what = name.c_str();
  CellRecord record;
  record.cell_index = io::read_u64(in, what);
  if (record.cell_index >= total_cells) {
    throw IoError(name + ": sweep cell index out of range");
  }
  const std::uint8_t status = io::read_u8(in, what);
  if (status == static_cast<std::uint8_t>(CellStatus::kDone)) {
    record.status = CellStatus::kDone;
    record.result = read_cell_result(in, what);
  } else if (status == static_cast<std::uint8_t>(CellStatus::kQuarantined)) {
    record.status = CellStatus::kQuarantined;
    CellFailure& f = record.failure;
    const std::uint32_t kind = io::read_u32(in, what);
    if (kind < static_cast<std::uint32_t>(FailureKind::kCrash) ||
        kind > static_cast<std::uint32_t>(FailureKind::kError)) {
      throw IoError(name + ": sweep failure kind out of range");
    }
    f.kind = static_cast<FailureKind>(kind);
    f.exit_code = static_cast<std::int32_t>(io::read_u32(in, what));
    f.term_signal = static_cast<std::int32_t>(io::read_u32(in, what));
    f.attempts = io::read_u64(in, what);
    f.max_rss_kib = io::read_u64(in, what);
    f.wall_seconds = io::read_f64(in, what);
    f.message = io::read_string(in, kMaxMessage, what);
    f.stderr_tail = io::read_string(in, kMaxStderrTail, what);
  } else {
    throw IoError(name + ": sweep cell status out of range");
  }
  return record;
}

}  // namespace vbr::sweep
