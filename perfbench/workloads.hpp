// The benchmark's three workloads. Each fills `report` with the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run)
// and records every operation and correctness check it makes.
#pragma once

#include "bench_util.hpp"
#include "vbr/model/vbr_source.hpp"

namespace perfbench {

/// The paper's Star Wars operating point (Gamma/Pareto marginal) at `hurst`.
inline vbr::model::VbrModelParams star_wars_params(double hurst) {
  vbr::model::VbrModelParams params;
  params.marginal.mu_gamma = 27791.0;
  params.marginal.sigma_gamma = 6254.0;
  params.marginal.tail_slope = 12.0;
  params.hurst = hurst;
  return params;
}

/// Hosking fleet, full variant, fluid-queue feed, 2 threads, no
/// checkpoints in the timed phase.
void run_serve_steady(const Options& options, Report& report, Tracer& tracer);

/// Larger governed one-thread Hosking fleet with churn, small-block rounds
/// and a durable checkpoint every few rounds, then resumes.
void run_serve_checkpoint(const Options& options, Report& report, Tracer& tracer);

/// Fork-isolated single-pool run_sweep over a fluid x cell x fBm queue grid
/// with Davies-Harte generation.
void run_sweep_qc(const Options& options, Report& report, Tracer& tracer);

}  // namespace perfbench
