// Streaming Hosking: the paper's exact Durbin-Levinson recursion with the
// predictor capped at a configurable horizon m, so one endless fARIMA
// stream costs O(m) memory instead of the batch generator's O(n).
//
// For k < m the draw is arithmetically identical to model::HoskingGenerator
// (same Kahan-compensated sums, same invariance checks, same Rng draw
// order), which is what makes the full-state equivalence test bit-exact.
// From k >= m the predictor freezes at order m: the stream becomes an AR(m)
// process whose first m autocorrelations equal the fARIMA values exactly
// (Yule-Walker) and whose innovation variance carries the documented
// truncation bias ~ v_inf d^2 / m (streaming_source.hpp header note).
//
// The order-1..m coefficient table and innovation variances depend only on
// (H, variance, m), so all streams of one service share a single immutable
// table through a process-wide cache — per-stream state is just the
// m-sample ring, the Rng, and a position counter.
//
// Generation is one group kernel: up to kMaxStreamGroup streams that share
// a predictor order advance together, each through its own Kahan chain with
// the taps in the same order j = 1..order, followed by one normal draw per
// stream in stream order. Every stream therefore performs exactly the
// operations it would alone, so batching never changes a bit; it only lets
// the independent latency-bound chains overlap. next_block is the
// one-stream case of the same kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "vbr/common/rng.hpp"
#include "vbr/model/hosking.hpp"
#include "vbr/service/streaming_source.hpp"

namespace vbr::service {

/// Immutable shared Durbin-Levinson state for one (H, variance, horizon).
struct HoskingCoeffTable {
  /// phi[k-1] holds the order-k predictor coefficients phi_{k,1..k}.
  std::vector<std::vector<double>> phi;
  /// v[k] is the innovation variance after step k, k = 0..horizon.
  std::vector<double> v;
};

class StreamingHosking final : public StreamingSource {
 public:
  /// Consumes one split() from `parent` (the hosking_farima convention).
  /// Throws vbr::InvalidArgument for H outside (0, 1), variance <= 0, or
  /// horizon == 0.
  StreamingHosking(const model::HoskingOptions& options, std::size_t horizon, Rng& parent);

  using StreamingSource::next_block;
  void next_block(std::size_t n, std::vector<double>& out) override;
  /// The predictor order of the next draw, min(position, horizon): streams
  /// of one configuration with equal keys share every order until they
  /// advance apart.
  std::uint64_t batch_key() const override;
  void next_group(std::span<StreamingSource* const> group, std::size_t n,
                  std::span<std::vector<double>* const> outs) override;
  std::uint64_t position() const override { return position_; }
  const char* kind() const override { return "hosking-stream"; }
  void save(std::ostream& out) const override;
  void restore(std::istream& in) override;

  std::size_t horizon() const { return horizon_; }
  /// Innovation variance of the *next* draw (equals the batch generator's
  /// innovation_variance() while position <= horizon).
  double innovation_variance() const;

  /// Process-wide coefficient-table cache introspection (mirrors the
  /// Davies-Harte / Paxson cache helpers; caching never changes output).
  static std::size_t coeff_cache_size();
  static void coeff_cache_clear();

 private:
  model::HoskingOptions options_;
  std::size_t horizon_;
  std::shared_ptr<const HoskingCoeffTable> coeffs_;
  Rng rng_;
  std::vector<double> ring_;  ///< last min(position, horizon) samples
  std::uint64_t position_ = 0;

  /// The group kernel for G streams of one configuration and one
  /// batch_key(): appends n samples of group[q] at dst[q][0..n).
  template <std::size_t G>
  static void advance_group(StreamingHosking* const* group, std::size_t n, double* const* dst);
};

}  // namespace vbr::service
