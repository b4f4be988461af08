// One sweep cell = one §5 queueing experiment, evaluated to a fixed-size
// result record.
//
// evaluate_cell() is a pure function of the CellSpec: it synthesizes the
// cell's multi-source traffic from the spec's split-derived seed (paper
// Star Wars marginals, the spec's Hurst), sizes the channel from the
// realized aggregate mean rate and the spec's utilization, sizes the buffer
// from the buffer-delay budget, and runs the requested queue model. Running
// it twice — in-process, in a forked worker, or on a retry after a crash —
// produces bit-identical CellResult bytes; the supervisor's determinism
// guarantees are built entirely on this property.
//
// The serialized form is raw little-endian f64 bit patterns (vbr::io), so
// the result log round-trips results at 0 ulp and the sweep soak can compare
// merged results byte-for-byte.
#pragma once

#include <iosfwd>
#include <string>

#include "vbr/sweep/sweep_plan.hpp"

namespace vbr::sweep {

/// Result of one evaluated cell. Queue-specific fields are zero when they
/// do not apply (overflow_probability / required_capacity_bps are fBm-only).
/// Every field is deterministic — no wall-clock or rusage diagnostics here;
/// those live in the settled record's CellFailure (cell_record.hpp).
struct CellResult {
  double mean_rate_bps = 0.0;       ///< realized aggregate mean arrival rate
  double capacity_bps = 0.0;        ///< total service rate (mean / utilization)
  double buffer_bytes = 0.0;        ///< buffer sized from the delay budget
  double loss_rate = 0.0;           ///< overall loss (fluid/cell) or P(Q>b) (fBm)
  double mean_queue_bytes = 0.0;    ///< fluid only
  double max_queue_bytes = 0.0;     ///< fluid only
  double overflow_probability = 0.0;   ///< fBm only
  double required_capacity_bps = 0.0;  ///< fBm only, at epsilon = 1e-6

  bool operator==(const CellResult& other) const = default;
};

/// Evaluate one cell. Throws vbr::NumericalError / vbr::InvalidArgument on a
/// poisoned spec (the quarantine path); returns finite fields otherwise.
CellResult evaluate_cell(const CellSpec& spec);

/// Fixed-width serialization (8 f64 fields, vbr::io bit patterns).
void write_cell_result(std::ostream& out, const CellResult& result);
CellResult read_cell_result(std::istream& in, const char* what);

/// The serialized byte size of one CellResult.
inline constexpr std::size_t kCellResultBytes = 8 * sizeof(double);

}  // namespace vbr::sweep
