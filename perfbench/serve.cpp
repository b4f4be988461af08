// The two serving workloads: serve_steady (generation and the stream-order
// fold) and serve_checkpoint (durable checkpoints and resume under the
// overload governor).
//
// Both run closed loops from this one process: the next round starts when
// the previous one returns. Set-up builds the fleet and warms every
// Hosking ring to its full horizon, so the timed rounds run the full-length
// predictor dot product; it is repeated kSetups times and the median
// reported, and only the last fleet is kept.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "vbr/common/atomic_file.hpp"
#include "vbr/common/checksum.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/run/envelope.hpp"
#include "vbr/service/governor.hpp"
#include "vbr/service/service_checkpoint.hpp"
#include "vbr/service/traffic_service.hpp"
#include "vbr/stream/moments.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace svc = vbr::service;

/// A job is one second of 24 fps video delivered to every active stream.
constexpr std::size_t kJobSamples = 24;
constexpr std::size_t kSetups = 5;
constexpr std::size_t kResumes = 11;
constexpr std::size_t kSaves = 9;
constexpr std::size_t kLayerResumes = 3;
/// The tail is the p90 of at least 100 rounds, so 10 rounds lie beyond it.
constexpr double kTailPercentile = 90.0;
constexpr std::size_t kMinRounds = 100;
struct ServeShape {
  std::size_t streams = 0;
  /// Worker threads: at most two of the four cores of a shared machine.
  std::size_t threads = 0;
  std::size_t block = 0;         ///< samples per stream per timed round
  std::size_t warmup_block = 0;  ///< block used to fill the rings
  std::size_t save_every = 0;    ///< rounds per durable save; 0 = no saves
  bool governed = false;
};

svc::ServiceConfig make_config(std::uint64_t seed, const ServeShape& shape) {
  svc::ServiceConfig config;
  config.num_streams = shape.streams;
  config.seed = seed;
  config.threads = shape.threads;
  config.variant = vbr::model::ModelVariant::kFull;
  config.backend = vbr::model::GeneratorBackend::kHosking;
  config.params = star_wars_params(0.8);
  // Fluid-queue feed: the fleet's mean rate at 90% utilization, 20 ms buffer.
  const double mean_rate = config.params.marginal.mu_gamma *
                           static_cast<double>(shape.streams) / config.frame_seconds;
  config.queue_capacity_bytes_per_sec = mean_rate / 0.9;
  config.queue_buffer_bytes = 0.020 * config.queue_capacity_bytes_per_sec;
  return config;
}

svc::GovernorConfig make_governor_config(const svc::ServiceConfig& config) {
  svc::GovernorConfig governor;
  // Twice the modelled fleet cost: admitted, but admission is priced.
  governor.budget.memory_bytes = 2 * svc::stream_state_bytes(config.backend, config.tuning) *
                                 config.num_streams;
  return governor;
}

/// The service plus its governor when the workload is governed.
struct Fleet {
  std::unique_ptr<svc::TrafficService> service;
  std::unique_ptr<svc::OverloadGovernor> governor;

  /// Drop the governor before the service it points at.
  void reset() {
    governor.reset();
    service.reset();
  }
  void advance(std::size_t block) {
    if (governor) {
      governor->advance_round(block);
    } else {
      service->advance_round(block);
    }
  }
  double round_work(std::size_t block) const {
    return static_cast<double>(service->active_streams() * block);
  }
};

Fleet build_fleet(const svc::ServiceConfig& config, const svc::GovernorConfig* governor,
                  Tracer& tracer) {
  Fleet fleet;
  {
    auto span = tracer.span("service.build", static_cast<double>(config.num_streams));
    fleet.service = std::make_unique<svc::TrafficService>(config);
    if (governor != nullptr) {
      fleet.governor = std::make_unique<svc::OverloadGovernor>(*fleet.service, *governor);
    }
  }
  return fleet;
}

/// Churn: a seeded 1/32 of the streams is retired and another 1/32 paused.
void apply_churn(Fleet& fleet, std::uint64_t seed) {
  vbr::Rng churn(seed ^ 0xC4u);
  for (std::size_t i = 0; i < fleet.service->config().num_streams; ++i) {
    const double u = churn.uniform();
    if (u < 1.0 / 32.0) {
      fleet.service->retire(i);
    } else if (u < 2.0 / 32.0) {
      fleet.service->pause(i);
    }
  }
}

/// Advance until every ring holds hosking_horizon samples.
void warm_up(Fleet& fleet, std::size_t block, Tracer& tracer) {
  const std::size_t horizon = fleet.service->config().tuning.hosking_horizon;
  const std::size_t samples = (horizon + block - 1) / block * block;
  auto span = tracer.span("service.warmup", fleet.round_work(samples));
  for (std::size_t done = 0; done < samples; done += block) fleet.advance(block);
}

/// Set-up, repeated kSetups times; returns the last fleet and reports the
/// median set-up time. `rss_kib_per_stream` receives the resident-memory
/// growth of the first set-up divided by the fleet size.
Fleet set_up(const Options& options, const ServeShape& shape, Report& report, Tracer& tracer,
             double* rss_kib_per_stream) {
  const svc::ServiceConfig config = make_config(options.seed, shape);
  const svc::GovernorConfig governor = make_governor_config(config);
  std::vector<double> setup_s;
  Fleet fleet;
  for (std::size_t k = 0; k < kSetups; ++k) {
    fleet.reset();
    const double rss_before = proc_status_kib("VmRSS");
    const auto start = Clock::now();
    if (shape.governed) {
      svc::AdmissionDecision decision;
      {
        auto span = tracer.span("service.admit");
        decision = svc::admit_fleet(config, governor.budget);
      }
      report.check(decision.admitted(), "fleet admitted under the memory budget");
    }
    fleet = build_fleet(config, shape.governed ? &governor : nullptr, tracer);
    if (shape.governed) apply_churn(fleet, options.seed);
    warm_up(fleet, shape.warmup_block, tracer);
    setup_s.push_back(seconds_since(start));
    report.op();
    if (k == 0 && rss_kib_per_stream != nullptr) {
      *rss_kib_per_stream =
          (proc_status_kib("VmRSS") - rss_before) / static_cast<double>(shape.streams);
    }
  }
  if (!tracer.enabled()) {
    report.metric("setup_s", median(setup_s), "s",
                  "median of " + std::to_string(kSetups) + " builds + ring warm-ups");
  }
  return fleet;
}

/// Checkpoint through the public one-call API.
void save(Fleet& fleet, const std::filesystem::path& path, Tracer& tracer) {
  auto span = tracer.span("checkpoint.save");
  svc::save_service_checkpoint(path.string(), *fleet.service, fleet.governor.get());
}

/// The checkpoint payload: service state, governor flag, governor state.
void serialize(const Fleet& fleet, std::ostream& payload) {
  fleet.service->save_state(payload);
  payload.put(fleet.governor ? 1 : 0);
  if (fleet.governor) fleet.governor->save_state(payload);
}

/// The same checkpoint, stage by stage, so each layer gets its own span:
/// serialize (service), seal with CRC (run), write + fsync (common).
void save_by_layer(Fleet& fleet, const std::filesystem::path& path, Tracer& tracer) {
  auto parent = tracer.span("checkpoint.save");
  std::ostringstream payload(std::ios::binary);
  {
    auto span = tracer.span("service.save_state");
    serialize(fleet, payload);
  }
  std::string sealed;
  {
    auto span = tracer.span("run.seal");
    sealed = vbr::run::seal_envelope(svc::service_checkpoint_envelope(), payload.str());
  }
  {
    auto span = tracer.span("common.write_atomic", static_cast<double>(sealed.size()));
    vbr::write_file_atomic(path, sealed, /*durable=*/true);
  }
}

/// Resume through the public one-call API: fresh service (and governor),
/// then load.
Fleet resume(const svc::ServiceConfig& config, bool governed, const std::filesystem::path& path,
             Tracer& tracer) {
  auto parent = tracer.span("checkpoint.resume");
  const svc::GovernorConfig governor = make_governor_config(config);
  Fleet fleet = build_fleet(config, governed ? &governor : nullptr, tracer);
  svc::load_service_checkpoint(path.string(), *fleet.service, fleet.governor.get());
  return fleet;
}

/// The inverse of save_by_layer: open the envelope (run), then restore the
/// service and governor state (service).
Fleet resume_by_layer(const svc::ServiceConfig& config, bool governed,
                      const std::filesystem::path& path, Tracer& tracer) {
  auto parent = tracer.span("checkpoint.resume");
  const svc::GovernorConfig governor = make_governor_config(config);
  Fleet fleet = build_fleet(config, governed ? &governor : nullptr, tracer);
  std::string body;
  {
    auto span = tracer.span("run.open");
    std::ifstream in(path, std::ios::binary);
    body = vbr::run::open_envelope(in, svc::service_checkpoint_envelope(), path.string());
  }
  {
    auto span = tracer.span("service.restore_state");
    std::istringstream in(body, std::ios::binary);
    fleet.service->restore_state(in);
    const int has_governor = in.get();
    if (has_governor == 1 && fleet.governor) fleet.governor->restore_state(in);
  }
  return fleet;
}

struct Timed {
  std::vector<double> round_ms;
  std::vector<double> save_ms;
  std::vector<double> job_s;
  double wall_s = 0.0;
  /// Traced run only: wall time of the traced and of the untraced cycles.
  double traced_s = 0.0;
  double untraced_s = 0.0;
  std::uint64_t samples = 0;
  std::size_t rounds = 0;
};

/// The closed-loop timed phase. It runs until `seconds` have passed and at
/// least kMinRounds rounds are done, and stops only at a boundary that
/// closes both a job and a checkpoint cycle, so the checkpoint on disk
/// matches the live fleet afterwards. With tracing on, whole cycles
/// alternate between traced (checkpoints saved stage by stage) and
/// untraced, and an even number of cycles runs, so both halves see the
/// same host conditions and their difference is the tracing overhead.
Timed timed_phase(Fleet& fleet, const ServeShape& shape, const std::filesystem::path& checkpoint,
                  double seconds, Report& report, Tracer& tracer) {
  const std::size_t rounds_per_job = kJobSamples / shape.block;
  const std::size_t cycle =
      shape.save_every == 0 ? rounds_per_job : std::lcm(rounds_per_job, shape.save_every);
  Tracer quiet(false, "");
  // A one-thread fleet takes its rounds on each allowed core in turn (see
  // CpuPin). A wider fleet is left unpinned: its workers inherit the
  // caller's CPU set.
  const std::vector<int> cpus = shape.threads == 1 ? allowed_cpus() : std::vector<int>{-1};
  Timed timed;
  const std::uint64_t samples_before = fleet.service->total_samples();
  double job_s = 0.0;
  const auto start = Clock::now();
  for (;;) {
    const std::size_t cycle_index = timed.rounds / cycle;
    if (timed.rounds % cycle == 0 && seconds_since(start) >= seconds &&
        timed.rounds >= kMinRounds && (!tracer.enabled() || cycle_index % 2 == 0)) {
      break;
    }
    const bool traced = tracer.enabled() && cycle_index % 2 == 1;
    Tracer& spans = traced ? tracer : quiet;
    const CpuPin pin(cpus[timed.rounds % cpus.size()]);
    const auto round_start = Clock::now();
    {
      auto span = spans.span("serve.round");
      {
        auto advance = spans.span("service.advance_round", fleet.round_work(shape.block));
        fleet.advance(shape.block);
      }
      if (shape.save_every != 0 && (timed.rounds + 1) % shape.save_every == 0) {
        const auto save_start = Clock::now();
        if (traced) {
          save_by_layer(fleet, checkpoint, spans);
        } else {
          save(fleet, checkpoint, spans);
        }
        timed.save_ms.push_back(seconds_since(save_start) * 1e3);
        report.op();
      }
    }
    const double round_s = seconds_since(round_start);
    timed.round_ms.push_back(round_s * 1e3);
    (traced ? timed.traced_s : timed.untraced_s) += round_s;
    job_s += round_s;
    ++timed.rounds;
    report.op();
    if (timed.rounds % rounds_per_job == 0) {
      timed.job_s.push_back(job_s);
      job_s = 0.0;
    }
  }
  timed.wall_s = seconds_since(start);
  timed.samples = fleet.service->total_samples() - samples_before;
  return timed;
}

/// Runs the timed phase and reports its metrics: round, job and throughput
/// metrics untraced; round time, counts and tracing overhead traced.
Timed run_timed(const Options& options, Fleet& fleet, const ServeShape& shape,
                const std::filesystem::path& checkpoint, Report& report, Tracer& tracer) {
  Timed timed = timed_phase(fleet, shape, checkpoint, options.seconds, report, tracer);
  if (!tracer.enabled()) {
    report.metric("samples_per_s", static_cast<double>(timed.samples) / timed.wall_s, "1/s",
                  "samples delivered per wall second over " + std::to_string(timed.rounds) +
                      " rounds");
    timing_metrics(report, "round_p50_ms", "round_tail_ms", timed.round_ms, kTailPercentile);
    report.metric("job_s", median(timed.job_s), "s",
                  "median time to deliver 24 samples to every active stream, " +
                      std::to_string(timed.job_s.size()) + " jobs");
    return timed;
  }
  trace_overhead_metric(report, timed.untraced_s, timed.traced_s);
  report.metric("service.samples", static_cast<double>(timed.samples), "count");
  report.metric("service.rounds", static_cast<double>(timed.rounds), "count");
  report.metric("service.round_ms", median(tracer.self_ms("service.advance_round")), "ms");
  return timed;
}

void setup_layer_metrics(Report& report, Tracer& tracer, double rss_kib_per_stream) {
  report.metric("service.build_s", median(tracer.self_ms("service.build")) / 1e3, "s");
  report.metric("service.warmup_s", median(tracer.self_ms("service.warmup")) / 1e3, "s");
  report.metric("service.state_kib_per_stream", rss_kib_per_stream, "KiB",
                "VmRSS growth of the first build + warm-up per stream");
}

/// The stream-order fold primitives, each timed on a buffer the size of
/// one round.
void fold_probes(std::size_t samples, std::uint64_t seed, Report& report, Tracer& tracer) {
  std::vector<double> buffer(samples);
  vbr::Rng rng(seed);
  for (double& v : buffer) v = 20000.0 + 15000.0 * rng.uniform();
  const auto work = static_cast<double>(samples);
  std::vector<std::uint64_t> digests;
  bool totals_agree = true;
  for (int rep = 0; rep < 9; ++rep) {
    {
      auto span = tracer.span("common.fnv1a", work);
      vbr::Fnv1a hash;
      hash.update(std::span<const double>(buffer));
      digests.push_back(hash.digest());
    }
    vbr::stream::StreamingMoments moments;
    {
      auto span = tracer.span("stream.moments", work);
      moments.push(buffer);
    }
    vbr::KahanSum sum;
    {
      auto span = tracer.span("common.kahan", work);
      for (const double v : buffer) sum.add(v);
    }
    totals_agree = totals_agree && std::abs(moments.total() - sum.value()) <= 1e-9 * sum.value();
  }
  report.check(std::all_of(digests.begin(), digests.end(),
                           [&](std::uint64_t d) { return d == digests.front(); }),
               "the FNV-1a digest of the round buffer repeats");
  report.check(totals_agree, "StreamingMoments total agrees with the Kahan sum to 1e-9");
  report.metric("common.fnv1a_ns_per_sample", median(tracer.ns_per_work("common.fnv1a")), "ns");
  report.metric("stream.moments_ns_per_sample", median(tracer.ns_per_work("stream.moments")),
                "ns");
  report.metric("common.kahan_ns_per_sample", median(tracer.ns_per_work("common.kahan")), "ns");
}

/// The head and serial-fraction probes. Two more warmed fleets of the same
/// size, one with the `gaussian` variant and one with a single thread, run
/// rounds interleaved with the main fleet's, so all three see the same host
/// conditions. Reports the head's cost per sample and the Amdahl serial
/// fraction at two threads.
void variant_probes(Fleet& fleet, const ServeShape& shape, Report& report, Tracer& tracer) {
  const svc::ServiceConfig& config = fleet.service->config();
  svc::ServiceConfig gaussian_config = config;
  gaussian_config.variant = vbr::model::ModelVariant::kGaussianFarima;
  svc::ServiceConfig one_thread_config = config;
  one_thread_config.threads = 1;
  Tracer quiet(false, "");
  Fleet gaussian = build_fleet(gaussian_config, nullptr, quiet);
  Fleet one_thread = build_fleet(one_thread_config, nullptr, quiet);
  warm_up(gaussian, shape.warmup_block, quiet);
  warm_up(one_thread, shape.warmup_block, quiet);
  const std::pair<const char*, Fleet*> fleets[] = {
      {"probe.full", &fleet}, {"probe.gaussian", &gaussian}, {"probe.1thread", &one_thread}};
  for (int r = 0; r < 15; ++r) {
    for (const auto& [name, probed] : fleets) {
      auto span = tracer.span(name, probed->round_work(shape.block));
      probed->advance(shape.block);
      report.op();
    }
  }
  const double full_ms = median(tracer.self_ms("probe.full"));
  const double gaussian_ms = median(tracer.self_ms("probe.gaussian"));
  const double one_thread_ms = median(tracer.self_ms("probe.1thread"));
  report.metric("service.head_ns_per_sample",
                (full_ms - gaussian_ms) * 1e6 / fleet.round_work(shape.block), "ns",
                "full minus gaussian variant round time per sample");
  // Amdahl at two threads: T2 / T1 = s + (1 - s) / 2.
  report.metric("service.serial_fraction", 2.0 * full_ms / one_thread_ms - 1.0, "ratio",
                "from 1-thread and 2-thread round times");
}

/// Stream i is the i-th split() whatever the fleet size, so a 1-thread
/// sub-fleet of the first streams, advanced with a different block size,
/// must reproduce their digests.
bool sub_fleet_matches(const svc::ServiceConfig& config, const svc::TrafficService& live,
                       Tracer& tracer) {
  auto span = tracer.span("check.sub_fleet");
  svc::ServiceConfig sub = config;
  sub.num_streams = std::min<std::size_t>(1024, config.num_streams);
  sub.threads = 1;
  svc::TrafficService service(sub);
  const std::uint64_t target = live.stream_position(0);
  for (std::uint64_t position = 0; position < target;) {
    const std::uint64_t block = std::min<std::uint64_t>(5, target - position);
    service.advance_round(block);
    position += block;
  }
  for (std::size_t i = 0; i < sub.num_streams; ++i) {
    if (service.stream_digest(i) != live.stream_digest(i)) return false;
  }
  return true;
}

double checkpoint_mib(const std::filesystem::path& path) {
  return static_cast<double>(std::filesystem::file_size(path)) / kMiB;
}

}  // namespace

void run_serve_steady(const Options& options, Report& report, Tracer& tracer) {
  const ServeShape shape{options.tiny ? 1024u : 32768u, 2, 8, 8, 0, false};
  const svc::ServiceConfig config = make_config(options.seed, shape);
  const std::filesystem::path checkpoint = options.scratch / "steady.ckpt";
  double rss_kib_per_stream = 0.0;
  Fleet fleet = set_up(options, shape, report, tracer, &rss_kib_per_stream);
  run_timed(options, fleet, shape, checkpoint, report, tracer);

  // After the timed phase: durable checkpoints of the fleet, then resumes.
  // Both are single-threaded, so each takes the allowed cores in turn.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<double> save_ms;
  for (std::size_t k = 0; k < kSaves; ++k) {
    const CpuPin pin(cpus[k % cpus.size()]);
    const auto start = Clock::now();
    save(fleet, checkpoint, tracer);
    save_ms.push_back(seconds_since(start) * 1e3);
    report.op();
  }
  std::vector<double> resume_s;
  for (std::size_t k = 0; k < kResumes; ++k) {
    const CpuPin pin(cpus[k % cpus.size()]);
    const auto start = Clock::now();
    Fleet restored = resume(config, false, checkpoint, tracer);
    resume_s.push_back(seconds_since(start));
    report.check(restored.service->results_hash() == fleet.service->results_hash(),
                 "resumed results_hash equals the live one");
  }
  report.check(sub_fleet_matches(config, *fleet.service, tracer),
               "1-thread block-5 sub-fleet reproduces the first streams' digests");

  if (!tracer.enabled()) {
    report.metric("checkpoint_save_ms", median(save_ms), "ms",
                  "median of " + std::to_string(kSaves) + " durable saves after the timed phase");
    report.metric("checkpoint_mib", checkpoint_mib(checkpoint), "MiB");
    report.metric("resume_s", median(resume_s), "s",
                  "median of " + std::to_string(kResumes) + " build + load");
    return;
  }
  setup_layer_metrics(report, tracer, rss_kib_per_stream);
  fold_probes(shape.streams * shape.block, options.seed, report, tracer);
  variant_probes(fleet, shape, report, tracer);
}

void run_serve_checkpoint(const Options& options, Report& report, Tracer& tracer) {
  // One thread: at block 2 a chunk of streams is under a millisecond of
  // work, so a second thread would time thread start-up and wake-up more
  // than checkpoints.
  const ServeShape shape{options.tiny ? 2048u : 65536u, 1, 2, 16, 4, true};
  const svc::ServiceConfig config = make_config(options.seed, shape);
  const std::filesystem::path checkpoint = options.scratch / "governed.ckpt";
  const std::filesystem::path layered = options.scratch / "governed-by-layer.ckpt";
  double rss_kib_per_stream = 0.0;
  Fleet fleet = set_up(options, shape, report, tracer, &rss_kib_per_stream);
  const Timed timed =
      run_timed(options, fleet, shape, tracer.enabled() ? layered : checkpoint, report, tracer);
  // Traced, the timed saves went stage by stage to their own file; the
  // resume check always loads a checkpoint written by the public API.
  if (tracer.enabled()) save(fleet, checkpoint, tracer);
  const std::uint64_t saved_hash = fleet.service->results_hash();

  std::vector<double> resume_s;
  Fleet restored;
  const std::vector<int> cpus = allowed_cpus();
  for (std::size_t k = 0; k < kResumes; ++k) {
    restored.reset();
    const CpuPin pin(cpus[k % cpus.size()]);
    const auto start = Clock::now();
    restored = resume(config, true, checkpoint, tracer);
    resume_s.push_back(seconds_since(start));
    report.op();
  }
  report.check(restored.service->results_hash() == saved_hash,
               "resumed results_hash equals the live one");
  fleet.advance(shape.block);
  restored.advance(shape.block);
  report.check(restored.service->results_hash() == fleet.service->results_hash(),
               "results_hash still matches after one more round on both");
  report.check(fleet.governor->quarantined_streams() == 0, "no stream quarantined");

  if (!tracer.enabled()) {
    report.metric("checkpoint_save_ms", median(timed.save_ms), "ms",
                  "median of " + std::to_string(timed.save_ms.size()) +
                      " durable saves in the timed phase");
    report.metric("checkpoint_mib", checkpoint_mib(checkpoint), "MiB");
    report.metric("resume_s", median(resume_s), "s",
                  "median of " + std::to_string(kResumes) + " build + governor + load");
    return;
  }
  // Per-layer resume: open the stage-by-stage checkpoint, then restore.
  for (std::size_t k = 0; k < kLayerResumes; ++k) {
    restored.reset();
    restored = resume_by_layer(config, true, layered, tracer);
    report.check(restored.service->results_hash() == saved_hash,
                 "stage-by-stage resume reproduces the saved results_hash");
  }
  setup_layer_metrics(report, tracer, rss_kib_per_stream);
  fold_probes(fleet.service->active_streams() * shape.block, options.seed, report, tracer);
  std::ostringstream payload(std::ios::binary);
  serialize(fleet, payload);
  report.metric("service.payload_mib", static_cast<double>(payload.tellp()) / kMiB, "MiB");
  report.metric("service.save_state_ms", median(tracer.self_ms("service.save_state")), "ms");
  report.metric("run.seal_ms", median(tracer.self_ms("run.seal")), "ms");
  report.metric("common.write_atomic_ms", median(tracer.self_ms("common.write_atomic")), "ms");
  report.metric("run.open_ms", median(tracer.self_ms("run.open")), "ms");
  report.metric("service.restore_state_ms", median(tracer.self_ms("service.restore_state")),
                "ms");
  report.metric("service.quarantined_streams",
                static_cast<double>(fleet.governor->quarantined_streams()), "count");
  report.metric("service.retries", static_cast<double>(fleet.governor->transient_retries()),
                "count");
}

}  // namespace perfbench
