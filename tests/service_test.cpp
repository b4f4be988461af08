// Tests for the streaming traffic service (src/vbr/service): the streaming
// source contracts — bit-equality of incremental Hosking to the batch
// recursion at full horizon, LRD fidelity of the truncated/blockwise forms
// under the repo's own estimators, block-size and thread-count invariance —
// plus the TrafficService lifecycle and the VBRSRVC1 checkpoint envelope
// (0-ulp round-trips, SIGKILL-style resume equality, hostile inputs).
#include "vbr/service/traffic_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "vbr/common/checksum.hpp"
#include "vbr/common/error.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/model/fgn_acf.hpp"
#include "vbr/model/hosking.hpp"
#include "vbr/model/vbr_source.hpp"
#include "vbr/net/fluid_queue.hpp"
#include "vbr/run/fault_injection.hpp"
#include "vbr/service/governor.hpp"
#include "vbr/service/service_checkpoint.hpp"
#include "vbr/service/streaming_hosking.hpp"
#include "vbr/service/streaming_source.hpp"
#include "vbr/service/streaming_vbr.hpp"
#include "vbr/stats/lrd_fidelity.hpp"

namespace vbr::service {
namespace {

model::VbrModelParams paper_params() {
  model::VbrModelParams params;
  params.hurst = 0.8;
  params.marginal.mu_gamma = 27791.0;
  params.marginal.sigma_gamma = 6254.0;
  params.marginal.tail_slope = 12.0;
  return params;
}

std::vector<double> drain(StreamingSource& source, std::size_t n, std::size_t block) {
  std::vector<double> out;
  while (out.size() < n) source.next_block(std::min(block, n - out.size()), out);
  return out;
}

/// Bitwise equality — the contract is 0 ulp, not approximate.
void expect_bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t ba = 0;
    std::uint64_t bb = 0;
    std::memcpy(&ba, &a[i], sizeof ba);
    std::memcpy(&bb, &b[i], sizeof bb);
    ASSERT_EQ(ba, bb) << "sample " << i;
  }
}

// ---------------------------------------------------------------------------
// Streaming core contracts.

TEST(StreamingHoskingTest, BitEqualsBatchRecursionAtFullHorizon) {
  // With horizon >= n no coefficient is ever truncated, so the incremental
  // form must reproduce hosking_farima exactly: same split()-derived Rng,
  // same Durbin-Levinson arithmetic, same draws.
  constexpr std::size_t kFrames = 512;
  const model::HoskingOptions options{.hurst = 0.8, .variance = 1.0};
  Rng batch_rng(7);
  const auto batch = model::hosking_farima(kFrames, options, batch_rng);
  for (const std::size_t block : {std::size_t{1}, std::size_t{64}, std::size_t{512}}) {
    Rng parent(7);
    StreamingHosking streaming(options, kFrames, parent);
    expect_bit_equal(drain(streaming, kFrames, block), batch);
  }
}

TEST(StreamingHoskingTest, TruncatedHorizonKeepsLrdFidelity) {
  // The documented truncation-bias bound: at horizon m the innovation
  // variance error is ~ v_inf * d^2 / m (< 0.4% at m = 64 for H < 0.95), so
  // the default horizon must pass the same fidelity gates as the exact zoo
  // generators (tolerances from generator_zoo_test).
  constexpr std::size_t kFrames = 65536;
  const double target = 0.8;
  Rng parent(1994);
  StreamingTuning tuning;  // hosking_horizon = 64
  auto source = make_streaming_core(model::GeneratorBackend::kHosking, target, 1.0,
                                    tuning, parent);
  const auto x = drain(*source, kFrames, 4096);
  stats::LrdFidelityOptions options;
  options.spectral_model = stats::SpectralModel::kFarima;
  const auto acf = model::farima_acf(target, options.acf_lags);
  const auto report = stats::judge_lrd_fidelity(x, target, acf, options);
  EXPECT_NEAR(report.whittle_hurst, target, 0.04);
  EXPECT_LE(report.acf_rms_error, 0.15);
  EXPECT_LE(report.gaussian_ks, 0.02);
  EXPECT_GT(report.sample_variance, 0.75);
  EXPECT_LT(report.sample_variance, 1.25);
}

TEST(StreamingPaxsonTest, BlockwiseStitchingKeepsLrdFidelity) {
  // Blockwise synthesis with the equal-power crossfade must stay within the
  // zoo's documented fGn tolerances; this is the stats/lrd_fidelity
  // validation the stitching design is accountable to.
  constexpr std::size_t kFrames = 65536;
  const double target = 0.8;
  Rng parent(1994);
  StreamingTuning tuning;  // window 4096, overlap 512
  auto source = make_streaming_core(model::GeneratorBackend::kPaxson, target, 1.0,
                                    tuning, parent);
  const auto x = drain(*source, kFrames, 4096);
  stats::LrdFidelityOptions options;
  options.spectral_model = stats::SpectralModel::kFgn;
  const auto acf = model::fgn_acf(target, options.acf_lags);
  const auto report = stats::judge_lrd_fidelity(x, target, acf, options);
  EXPECT_NEAR(report.whittle_hurst, target, 0.04);
  EXPECT_LE(report.acf_rms_error, 0.15);
  EXPECT_LE(report.gaussian_ks, 0.02);
  EXPECT_GT(report.sample_variance, 0.75);
  EXPECT_LT(report.sample_variance, 1.25);
}

TEST(StreamingOnOffTest, NaturallyStreamingSourceKeepsLrdFidelity) {
  // The on/off superposition is Gaussian only by CLT and its VT/Whittle
  // reads carry the same slack the zoo documents for the batch form.
  constexpr std::size_t kFrames = 65536;
  const double target = 0.8;
  Rng parent(1994);
  StreamingTuning tuning;
  auto source = make_streaming_core(model::GeneratorBackend::kAggregatedOnOff, target, 1.0,
                                    tuning, parent);
  const auto x = drain(*source, kFrames, 4096);
  stats::LrdFidelityOptions options;
  options.spectral_model = stats::SpectralModel::kFgn;
  const auto acf = model::fgn_acf(target, options.acf_lags);
  const auto report = stats::judge_lrd_fidelity(x, target, acf, options);
  EXPECT_NEAR(report.whittle_hurst, target, 0.05);
  EXPECT_LE(report.gaussian_ks, 0.03);
  EXPECT_GT(report.sample_variance, 0.75);
  EXPECT_LT(report.sample_variance, 1.25);
}

TEST(StreamingSourceTest, BlockSizeNeverChangesTheSequence) {
  // next_block(n) in any partition must emit the one sequence the seed
  // determines — the service's block parameter is a scheduling knob, not a
  // modeling one.
  const StreamingTuning tuning;
  for (const auto backend :
       {model::GeneratorBackend::kHosking, model::GeneratorBackend::kPaxson,
        model::GeneratorBackend::kAggregatedOnOff}) {
    Rng reference_parent(33);
    auto reference = make_streaming_core(backend, 0.8, 1.0, tuning, reference_parent);
    const auto expected = drain(*reference, 4096, 4096);
    for (const std::size_t block : {std::size_t{1}, std::size_t{64}, std::size_t{4096}}) {
      Rng parent(33);
      auto source = make_streaming_core(backend, 0.8, 1.0, tuning, parent);
      expect_bit_equal(drain(*source, 4096, block), expected);
      EXPECT_EQ(source->position(), 4096u);
    }
  }
}

TEST(StreamingVbrTest, FullAndGaussianVariantsBitEqualBatchModelAtFullHorizon) {
  // End-to-end bit-equality: streaming hosking at horizon >= n, wrapped by
  // the marginal transform, must match VbrVideoSourceModel::generate for
  // the same backend — the streaming service is the batch model, served.
  constexpr std::size_t kFrames = 256;
  const auto params = paper_params();
  const model::VbrVideoSourceModel batch_model(params);
  StreamingTuning tuning;
  tuning.hosking_horizon = kFrames;
  for (const auto variant :
       {model::ModelVariant::kFull, model::ModelVariant::kGaussianFarima,
        model::ModelVariant::kIidGammaPareto}) {
    Rng batch_rng(11);
    const auto batch =
        batch_model.generate(kFrames, batch_rng, variant, model::GeneratorBackend::kHosking);
    Rng parent(11);
    auto streaming = make_streaming_source(params, variant,
                                           model::GeneratorBackend::kHosking, tuning, parent);
    expect_bit_equal(drain(*streaming, kFrames, 64), batch);
  }
}

TEST(StreamingSourceTest, SaveRestoreRoundTripsAtZeroUlpMidNormalPair) {
  // Cut at an odd position (137) so the Rng's cached Box-Muller normal is
  // in flight, and in the middle of a Paxson window: the restored source
  // must continue bit-for-bit, not re-synthesize.
  const auto params = paper_params();
  const StreamingTuning tuning;
  for (const auto backend :
       {model::GeneratorBackend::kHosking, model::GeneratorBackend::kPaxson,
        model::GeneratorBackend::kAggregatedOnOff}) {
    for (const auto variant :
         {model::ModelVariant::kFull, model::ModelVariant::kGaussianFarima,
          model::ModelVariant::kIidGammaPareto}) {
      Rng parent(91);
      auto original = make_streaming_source(params, variant, backend, tuning, parent);
      (void)drain(*original, 137, 137);
      std::ostringstream state(std::ios::binary);
      original->save(state);
      const auto tail = drain(*original, 300, 77);

      Rng fresh_parent(91);
      auto restored = make_streaming_source(params, variant, backend, tuning, fresh_parent);
      std::istringstream in(state.str(), std::ios::binary);
      restored->restore(in);
      EXPECT_EQ(restored->position(), 137u);
      expect_bit_equal(drain(*restored, 300, 77), tail);
    }
  }
}

TEST(StreamingSourceTest, RestoreRejectsMismatchedConfigUnchanged) {
  const auto params = paper_params();
  const StreamingTuning tuning;
  Rng parent(5);
  auto source = make_streaming_source(params, model::ModelVariant::kGaussianFarima,
                                      model::GeneratorBackend::kHosking, tuning, parent);
  (void)drain(*source, 64, 64);
  std::ostringstream state(std::ios::binary);
  source->save(state);

  auto other_params = params;
  other_params.hurst = 0.7;
  Rng other_parent(5);
  auto other = make_streaming_source(other_params, model::ModelVariant::kGaussianFarima,
                                     model::GeneratorBackend::kHosking, tuning, other_parent);
  std::istringstream in(state.str(), std::ios::binary);
  EXPECT_THROW(other->restore(in), IoError);
  EXPECT_EQ(other->position(), 0u);  // rejected before any state was committed
}

TEST(StreamingSourceTest, FactoryRejectsInvalidConfigurations) {
  const StreamingTuning tuning;
  Rng parent(1);
  EXPECT_THROW(make_streaming_core(model::GeneratorBackend::kDaviesHarte, 0.8, 1.0, tuning,
                                   parent),
               InvalidArgument);
  EXPECT_THROW(make_streaming_core(model::GeneratorBackend::kHosking, 1.2, 1.0, tuning, parent),
               Error);
  StreamingTuning bad_window = tuning;
  bad_window.paxson_window = 1000;  // not a power of two
  EXPECT_THROW(make_streaming_core(model::GeneratorBackend::kPaxson, 0.8, 1.0, bad_window,
                                   parent),
               Error);
  StreamingTuning bad_overlap = tuning;
  bad_overlap.paxson_overlap = bad_overlap.paxson_window;  // > window / 2
  EXPECT_THROW(make_streaming_core(model::GeneratorBackend::kPaxson, 0.8, 1.0, bad_overlap,
                                   parent),
               Error);
  StreamingTuning bad_horizon = tuning;
  bad_horizon.hosking_horizon = 0;
  EXPECT_THROW(make_streaming_core(model::GeneratorBackend::kHosking, 0.8, 1.0, bad_horizon,
                                   parent),
               Error);
}

TEST(StreamingHoskingTest, GroupKernelBitEqualsPerStreamNextBlock) {
  // The group kernel must emit, for every member, exactly what the member's
  // own next_block would: in warm-up, across the horizon, past it at mixed
  // positions, and for members restored with a cached normal in flight.
  const model::HoskingOptions options{.hurst = 0.8, .variance = 1.0};
  for (const std::size_t horizon :
       {std::size_t{1}, std::size_t{2}, std::size_t{5}, std::size_t{64}}) {
    for (std::size_t g = 1; g <= kMaxStreamGroup; ++g) {
      std::vector<std::unique_ptr<StreamingHosking>> alone;
      std::vector<std::unique_ptr<StreamingHosking>> grouped;
      for (std::size_t q = 0; q < g; ++q) {
        Rng a(100 + q);
        Rng b(100 + q);
        alone.push_back(std::make_unique<StreamingHosking>(options, horizon, a));
        grouped.push_back(std::make_unique<StreamingHosking>(options, horizon, b));
      }
      const auto advance_both = [&](std::size_t n, const char* phase) {
        std::vector<StreamingSource*> members;
        std::vector<std::vector<double>> outs(g, std::vector<double>{-1.0});
        std::vector<std::vector<double>*> out_ptrs;
        for (std::size_t q = 0; q < g; ++q) {
          members.push_back(grouped[q].get());
          out_ptrs.push_back(&outs[q]);
        }
        members.front()->next_group(members, n, out_ptrs);
        for (std::size_t q = 0; q < g; ++q) {
          std::vector<double> expected{-1.0};  // the group appends, like next_block
          alone[q]->next_block(n, expected);
          SCOPED_TRACE(::testing::Message() << "horizon " << horizon << " group " << g
                                            << " member " << q << " " << phase);
          expect_bit_equal(outs[q], expected);
          EXPECT_EQ(grouped[q]->position(), alone[q]->position());
        }
      };
      advance_both(1, "first draw");
      advance_both(horizon + 2, "across the horizon");
      // Spread the members past the horizon: positions differ, orders agree.
      for (std::size_t q = 0; q < g; ++q) {
        (void)alone[q]->next_block(q + 1);
        (void)grouped[q]->next_block(q + 1);
      }
      // Rebuild every grouped member from a checkpoint; positions of both
      // parities leave some with a cached normal pending.
      for (std::size_t q = 0; q < g; ++q) {
        std::ostringstream state(std::ios::binary);
        grouped[q]->save(state);
        Rng other(999);
        grouped[q] = std::make_unique<StreamingHosking>(options, horizon, other);
        std::istringstream in(state.str(), std::ios::binary);
        grouped[q]->restore(in);
      }
      advance_both(13, "past the horizon at mixed positions");
    }
  }
}

TEST(StreamingSourceTest, SharedCoefficientTablesAreCachedPerConfiguration) {
  StreamingHosking::coeff_cache_clear();
  const model::HoskingOptions options{.hurst = 0.8, .variance = 1.0};
  Rng parent(3);
  StreamingHosking a(options, 64, parent);
  StreamingHosking b(options, 64, parent);
  EXPECT_EQ(StreamingHosking::coeff_cache_size(), 1u);  // shared, not per-stream
  StreamingHosking c(options, 128, parent);
  EXPECT_EQ(StreamingHosking::coeff_cache_size(), 2u);  // horizon is part of the key
}

// ---------------------------------------------------------------------------
// TrafficService.

ServiceConfig small_service_config() {
  ServiceConfig config;
  config.num_streams = 8;
  config.seed = 1994;
  config.params = paper_params();
  config.variant = model::ModelVariant::kGaussianFarima;
  config.backend = model::GeneratorBackend::kHosking;
  return config;
}

TEST(TrafficServiceTest, ResultsHashInvariantToThreadCount) {
  std::uint64_t reference = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    auto config = small_service_config();
    config.threads = threads;
    TrafficService service(config);
    for (int r = 0; r < 8; ++r) service.advance_round(32);
    if (threads == 1) {
      reference = service.results_hash();
    } else {
      EXPECT_EQ(service.results_hash(), reference) << "threads = " << threads;
    }
  }
}

TEST(TrafficServiceTest, ResultsHashInvariantToBlockSize) {
  std::uint64_t reference = 0;
  bool first = true;
  for (const std::size_t block : {std::size_t{1}, std::size_t{16}, std::size_t{128}}) {
    TrafficService service(small_service_config());
    for (std::size_t served = 0; served < 128; served += block) service.advance_round(block);
    EXPECT_EQ(service.total_samples(), 128u * 8u);
    if (first) {
      reference = service.results_hash();
      first = false;
    } else {
      EXPECT_EQ(service.results_hash(), reference) << "block = " << block;
    }
  }
}

TEST(TrafficServiceTest, ResultsHashInvariantToPauseScheduling) {
  // The hash depends only on what each stream emitted, never on how rounds
  // interleaved the work: a run that pauses stream 2 mid-way and lets it
  // catch up alone afterwards must land on the uninterrupted run's hash.
  TrafficService plain(small_service_config());
  for (int r = 0; r < 8; ++r) plain.advance_round(16);

  TrafficService staggered(small_service_config());
  for (int r = 0; r < 4; ++r) staggered.advance_round(16);
  staggered.pause(2);
  for (int r = 0; r < 4; ++r) staggered.advance_round(16);
  // Catch-up: only stream 2 active for the rounds it missed.
  for (std::size_t i = 0; i < 8; ++i) {
    if (i != 2) staggered.pause(i);
  }
  staggered.resume(2);
  for (int r = 0; r < 4; ++r) staggered.advance_round(16);
  EXPECT_EQ(staggered.results_hash(), plain.results_hash());
  EXPECT_EQ(staggered.stream_position(2), plain.stream_position(2));
}

TEST(TrafficServiceTest, LifecycleContractsRejectInvalidTransitions) {
  TrafficService service(small_service_config());
  service.advance_round(8);
  EXPECT_THROW(service.pause(99), Error);          // out of range
  EXPECT_THROW(service.resume(0), Error);          // active, not paused
  service.pause(0);
  EXPECT_THROW(service.pause(0), Error);           // already paused
  service.resume(0);
  service.retire(3);
  EXPECT_THROW(service.retire(3), Error);          // already retired
  EXPECT_THROW(service.resume(3), Error);          // retired is terminal
  EXPECT_THROW(service.stream_position(3), Error); // no state left to read
  EXPECT_EQ(service.active_streams(), 7u);
  service.advance_round(8);  // the fleet keeps serving around the hole
  EXPECT_EQ(service.status(3), StreamStatus::kRetired);
}

TEST(TrafficServiceTest, CheckpointRoundTripReproducesTheRunBitForBit) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "vbr_service_test.ckpt";
  auto config = small_service_config();
  config.queue_capacity_bytes_per_sec = 8.0e6;
  config.queue_buffer_bytes = 4.0e6;

  TrafficService interrupted(config);
  for (int r = 0; r < 3; ++r) interrupted.advance_round(32);
  save_service_checkpoint(path, interrupted);

  TrafficService resumed(config);
  load_service_checkpoint(path, resumed);
  EXPECT_EQ(resumed.rounds(), 3u);
  EXPECT_EQ(resumed.results_hash(), interrupted.results_hash());

  TrafficService uninterrupted(config);
  for (int r = 0; r < 8; ++r) uninterrupted.advance_round(32);
  for (int r = 0; r < 5; ++r) resumed.advance_round(32);
  EXPECT_EQ(resumed.results_hash(), uninterrupted.results_hash());
  EXPECT_EQ(resumed.total_samples(), uninterrupted.total_samples());
  // 0-ulp state carriers: Kahan totals and the queue continue identically.
  EXPECT_EQ(resumed.total_bytes(), uninterrupted.total_bytes());
  ASSERT_NE(resumed.queue(), nullptr);
  EXPECT_EQ(resumed.queue()->lost_bytes(), uninterrupted.queue()->lost_bytes());
  EXPECT_EQ(resumed.queue()->max_queue_bytes(), uninterrupted.queue()->max_queue_bytes());
  fs::remove(path);
}

TEST(TrafficServiceTest, CheckpointRestoresRetiredAndPausedStatuses) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "vbr_service_status.ckpt";
  TrafficService service(small_service_config());
  service.advance_round(16);
  service.pause(1);
  service.retire(5);
  service.advance_round(16);
  save_service_checkpoint(path, service);

  TrafficService resumed(small_service_config());
  resumed.retire(2);  // the checkpoint says stream 2 is live: it must come back
  load_service_checkpoint(path, resumed);
  EXPECT_EQ(resumed.status(1), StreamStatus::kPaused);
  EXPECT_EQ(resumed.status(2), StreamStatus::kActive);
  EXPECT_EQ(resumed.status(5), StreamStatus::kRetired);
  resumed.advance_round(16);
  service.advance_round(16);
  EXPECT_EQ(resumed.results_hash(), service.results_hash());
  fs::remove(path);
}

TEST(TrafficServiceTest, RestoreRebuildsStreamsThisServiceRetired) {
  // Half of the resuming fleet was retired here but is live in the
  // checkpoint; every such stream is rebuilt from its own split() of the
  // master seed and the run continues as if never interrupted.
  auto config = small_service_config();
  config.num_streams = 2500;
  TrafficService saved(config);
  for (int r = 0; r < 2; ++r) saved.advance_round(8);
  std::ostringstream state(std::ios::binary);
  saved.save_state(state);

  TrafficService resumed(config);
  for (std::size_t i = 1; i < config.num_streams; i += 2) resumed.retire(i);
  std::istringstream in(state.str(), std::ios::binary);
  resumed.restore_state(in);
  EXPECT_EQ(resumed.active_streams(), config.num_streams);
  for (int r = 0; r < 2; ++r) resumed.advance_round(8);

  TrafficService uninterrupted(config);
  for (int r = 0; r < 4; ++r) uninterrupted.advance_round(8);
  EXPECT_EQ(resumed.results_hash(), uninterrupted.results_hash());
  EXPECT_EQ(resumed.total_bytes(), uninterrupted.total_bytes());
}

TEST(TrafficServiceTest, CheckpointRejectsHostileFiles) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "vbr_service_hostile.ckpt";
  TrafficService service(small_service_config());
  service.advance_round(16);
  save_service_checkpoint(path, service);

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  const auto write_and_expect_reject = [&](const std::string& corrupt) {
    const fs::path bad = fs::temp_directory_path() / "vbr_service_hostile_bad.ckpt";
    std::ofstream out(bad, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    out.close();
    TrafficService victim(small_service_config());
    EXPECT_THROW(load_service_checkpoint(bad, victim), IoError);
    fs::remove(bad);
  };

  // Truncations at the envelope header, mid-payload, and one-byte-short.
  for (const std::size_t cut : {std::size_t{4}, bytes.size() / 2, bytes.size() - 1}) {
    write_and_expect_reject(bytes.substr(0, cut));
  }
  // Single bit flips anywhere must trip the CRC (or the magic check).
  for (const std::size_t pos : {std::size_t{0}, std::size_t{9}, bytes.size() / 2}) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    write_and_expect_reject(corrupt);
  }
  // A valid envelope for a different config must be rejected by the
  // fingerprint, not half-applied.
  auto other_config = small_service_config();
  other_config.seed = 4242;
  TrafficService other(other_config);
  EXPECT_THROW(load_service_checkpoint(path, other), IoError);
  EXPECT_EQ(other.rounds(), 0u);
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Golden hashes at test scale. The invariance tests above compare a run
// with itself, so a generation kernel that is consistently wrong would pass
// them; these constants were recorded from the one-stream-at-a-time
// recursion and pin what any faster kernel must reproduce bit for bit.

ServiceConfig golden_config(std::size_t threads) {
  ServiceConfig config;
  config.num_streams = 4099;  // four full 1,024-stream chunks plus a 3-stream tail
  config.seed = 1994;
  config.params = paper_params();
  config.variant = model::ModelVariant::kFull;
  config.backend = model::GeneratorBackend::kHosking;
  config.tuning.hosking_horizon = 64;
  config.threads = threads;
  // Fluid-queue feed served at exactly the fleet's mean rate, so the queue
  // fills and the per-frame aggregate fold is pinned too (through the
  // queue's high-water mark).
  config.queue_capacity_bytes_per_sec = config.params.marginal.mu_gamma *
                                        static_cast<double>(config.num_streams) /
                                        config.frame_seconds;
  config.queue_buffer_bytes = 0.020 * config.queue_capacity_bytes_per_sec;
  return config;
}

std::uint64_t f64_bits(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

TEST(TrafficServiceTest, GoldenHashAtTestScale) {
  constexpr std::size_t kBlock = 7;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    TrafficService service(golden_config(threads));
    const std::size_t n = service.config().num_streams;
    for (int r = 0; r < 4; ++r) service.advance_round(kBlock);  // warm-up, position 28
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 11 == 3) {
        service.retire(i);
      } else if (i % 5 == 1) {
        service.pause(i);
      }
    }
    for (int r = 0; r < 3; ++r) service.advance_round(kBlock);  // active streams at 49
    // Half of the paused streams come back at position 28 while the rest of
    // the fleet is at 49: one chunk then mixes predictor orders, and both
    // cohorts cross the horizon (64) in different rounds.
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 10 == 1 && service.status(i) == StreamStatus::kPaused) service.resume(i);
    }
    for (int r = 0; r < 9; ++r) service.advance_round(kBlock);
    EXPECT_EQ(service.total_samples(), 388591u) << "threads " << threads;
    EXPECT_EQ(service.results_hash(), 0x8c40b8c6a4a6dc75ull) << "threads " << threads;
    EXPECT_EQ(f64_bits(service.total_bytes()), 0x420427f2acac1015ull) << "threads " << threads;
    ASSERT_NE(service.queue(), nullptr);
    EXPECT_EQ(f64_bits(service.queue()->max_queue_bytes()), 0x4155e768501a5b3full)
        << "threads " << threads;
  }
}

TEST(TrafficServiceTest, GoldenHashAtTestScaleUnderTheGovernor) {
  // Governed rounds with a seeded fault schedule and a shed/recover cycle:
  // one absorbed transient fault (retried bit-identically), one transient
  // that exhausts its retries, and one permanent fault.
  TrafficService service(golden_config(4));
  GovernorConfig gov_config;
  gov_config.policy.max_attempts = 2;
  gov_config.stream_faults = {
      {17, 30, run::FaultKind::kTransient, 1},
      {2050, 60, run::FaultKind::kPermanent, 1},
      {4098, 45, run::FaultKind::kTransient, 3},
  };
  gov_config.pressure_schedule = {{35, 1}, {70, 0}};
  OverloadGovernor governor(service, gov_config);
  for (int r = 0; r < 14; ++r) governor.advance_round(7);
  EXPECT_EQ(governor.quarantined_streams(), 2u);
  EXPECT_EQ(governor.transient_retries(), 2u);
  EXPECT_EQ(service.total_samples(), 365806u);
  EXPECT_EQ(service.results_hash(), 0xa06e2cf8f3466b60ull);
  EXPECT_EQ(f64_bits(service.total_bytes()), 0x4202fc36c62eae40ull);
}

TEST(FluidQueueStateTest, SaveRestoreRoundTripsAtZeroUlp) {
  net::FluidQueue queue(8.0e6, 4.0e6);
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    queue.offer(std::max(0.0, 6.0e6 + 4.0e6 * rng.normal()), 1.0 / 24.0);
  }
  std::ostringstream state(std::ios::binary);
  queue.save(state);

  net::FluidQueue restored(8.0e6, 4.0e6);
  std::istringstream in(state.str(), std::ios::binary);
  restored.restore(in);
  EXPECT_EQ(restored.queue_bytes(), queue.queue_bytes());
  EXPECT_EQ(restored.lost_bytes(), queue.lost_bytes());
  EXPECT_EQ(restored.arrived_bytes(), queue.arrived_bytes());
  EXPECT_EQ(restored.max_queue_bytes(), queue.max_queue_bytes());
  // Both continue identically from the restored state.
  net::FluidQueue copy = queue;
  for (int i = 0; i < 100; ++i) {
    restored.offer(7.0e6, 1.0 / 24.0);
    copy.offer(7.0e6, 1.0 / 24.0);
  }
  EXPECT_EQ(restored.lost_bytes(), copy.lost_bytes());
  EXPECT_EQ(restored.queue_bytes(), copy.queue_bytes());

  net::FluidQueue mismatched(9.0e6, 4.0e6);
  std::istringstream again(state.str(), std::ios::binary);
  EXPECT_THROW(mismatched.restore(again), IoError);
}

}  // namespace
}  // namespace vbr::service
