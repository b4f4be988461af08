// The settled-cell record: the unit every sweep checkpoint, shard merge and
// report is built from.
//
// A CellRecord is what the supervisor knows about one cell once it stops
// trying: either the cell's deterministic CellResult or, after the retry
// budget is spent, a CellFailure post-mortem. write_cell_record /
// read_cell_record give it one wire layout, which the VBRSWPL1 result log
// (result_log.hpp) frames once per settled cell:
//
//   u64  cell_index
//   u8   status (1 = done, 2 = quarantined)
//   done:        CellResult (8 raw f64 bit patterns)
//   quarantined: u32 kind, u32 exit_code, u32 term_signal, u64 attempts,
//                u64 max_rss_kib, f64 wall_seconds,
//                length-prefixed message (<= 4096 B),
//                length-prefixed stderr tail (<= 8192 B)
//
// read_cell_record trusts nothing: an out-of-range index, status or failure
// kind, or an oversized diagnostic string throws vbr::IoError.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "vbr/sweep/cell_eval.hpp"

namespace vbr::sweep {

/// Hard bound on any sweep's cell count: far above the 10^6-cell target,
/// low enough that a forged count cannot drive a pathological allocation.
/// Shared by the result log and the shard planner.
inline constexpr std::uint64_t kMaxSweepCells = std::uint64_t{1} << 24;

/// Terminal state of a settled cell.
enum class CellStatus : std::uint8_t {
  kDone = 1,         ///< evaluated; `result` is valid
  kQuarantined = 2,  ///< exhausted the retry budget; `failure` is valid
};

/// Why a worker attempt (or the whole cell) failed.
enum class FailureKind : std::uint32_t {
  kCrash = 1,  ///< nonzero exit or fatal signal
  kHang = 2,   ///< watchdog deadline or CPU ceiling (SIGXCPU)
  kOom = 3,    ///< memory ceiling (bad_alloc under RLIMIT_AS, or kernel kill)
  kError = 4,  ///< worker reported a structured vbr::Error (deterministic poison)
};

const char* failure_kind_name(FailureKind kind);

/// Post-mortem of a quarantined cell: what the last attempt looked like.
/// Diagnostics (rusage, wall time, stderr) are inherently nondeterministic
/// and are excluded from the sweep's determinism witness.
struct CellFailure {
  FailureKind kind = FailureKind::kCrash;
  std::int32_t exit_code = 0;    ///< valid when the worker exited
  std::int32_t term_signal = 0;  ///< valid when the worker was signaled
  std::uint64_t attempts = 0;    ///< total attempts spent on the cell
  std::uint64_t max_rss_kib = 0; ///< last attempt's peak RSS (rusage)
  double wall_seconds = 0.0;     ///< last attempt's wall time
  std::string message;           ///< worker-reported error, when structured
  std::string stderr_tail;       ///< last bytes of the worker's stderr
};

/// One settled cell.
struct CellRecord {
  std::uint64_t cell_index = 0;
  CellStatus status = CellStatus::kDone;
  CellResult result;   ///< valid when status == kDone
  CellFailure failure; ///< valid when status == kQuarantined
};

/// Serialize / parse one settled-cell record body (index + status + result
/// or failure). read_cell_record validates the index against total_cells,
/// the status and failure-kind enums, and the bounded diagnostic strings,
/// throwing vbr::IoError on any violation.
void write_cell_record(std::ostream& out, const CellRecord& record);
CellRecord read_cell_record(std::istream& in, std::uint64_t total_cells,
                            const std::string& name);

}  // namespace vbr::sweep
