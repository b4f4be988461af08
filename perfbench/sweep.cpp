// The sweep_qc workload: the paper's Section 5 queue-capacity evaluation
// as a fork-isolated, single-pool run_sweep over a fluid x cell x fBm grid,
// with Davies-Harte generation in every cell. Each cell runs in one
// single-threaded worker process, so this is also the one-thread baseline.
//
// A job is one whole grid, from the grid to a complete, verified result;
// jobs run back to back in a closed loop. A round is one settled cell, timed
// between consecutive on_cell_settled callbacks.
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>
#include <vector>

#include "vbr/common/fft.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/engine/engine.hpp"
#include "vbr/net/cell_queue.hpp"
#include "vbr/net/fbm_queue.hpp"
#include "vbr/net/fluid_queue.hpp"
#include "vbr/sweep/cell_eval.hpp"
#include "vbr/sweep/result_log.hpp"
#include "vbr/sweep/supervisor.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace sw = vbr::sweep;

constexpr std::size_t kSetups = 5;
constexpr std::size_t kResumes = 7;
/// Saves timed after each job, so the samples spread over the whole run,
/// and the pause between them, so one gap meets more of the host's changes.
constexpr std::size_t kSavesPerJob = 8;
constexpr auto kSavePause = std::chrono::milliseconds(25);
/// Jobs' worth of settled cells appended in one timed save. One job's 36
/// appends take about 0.1 ms, too short to time steadily on a shared host.
constexpr std::size_t kJobsPerSave = 32;
/// The tail is the p90 of at least 100 settled cells.
constexpr double kTailPercentile = 90.0;
constexpr std::size_t kMinCells = 100;
/// Cells a simulated crash loses from the end of the result log.
constexpr std::uint64_t kLostCells = 3;
constexpr double kDtSeconds = 1.0 / 24.0;

sw::SweepGrid make_grid(const Options& options) {
  sw::SweepGrid grid;
  grid.queues = {sw::QueueKind::kFluid, sw::QueueKind::kCell, sw::QueueKind::kFbm};
  grid.hursts = {0.7, 0.9};
  grid.utilizations = {0.9};
  grid.buffer_ms = {20.0};
  grid.sources = {2, 4};
  if (!options.tiny) {
    grid.hursts = {0.7, 0.8, 0.9};
    grid.utilizations = {0.8, 0.9};
    grid.sources = {4, 16};
  }
  grid.frames_per_source = options.tiny ? 512 : 8192;
  grid.seed = options.seed;
  return grid;
}

/// The spec a worker evaluates: the grid point plus its derived seed.
sw::CellSpec cell_spec(const sw::SweepGrid& grid, const std::vector<std::uint64_t>& seeds,
                       std::size_t index) {
  sw::CellSpec spec = sw::cell_at(grid, index);
  spec.seed = seeds[index];
  return spec;
}

/// Synthesized frames in one job: sources x frames summed over the cells.
double job_samples(const sw::SweepGrid& grid) {
  double samples = 0.0;
  for (std::size_t i = 0; i < sw::cell_count(grid); ++i) {
    samples += static_cast<double>(sw::cell_at(grid, i).num_sources * grid.frames_per_source);
  }
  return samples;
}

struct Job {
  sw::SweepReport result;
  double wall_s = 0.0;
  /// Settle-to-settle wall time per cell, indexed by cell.
  std::vector<double> settle_ms;
  std::uintmax_t log_bytes = 0;
};

Job run_job(const sw::SweepGrid& grid, const std::filesystem::path& log, bool resume,
            Tracer& tracer) {
  Job job;
  job.settle_ms.assign(sw::cell_count(grid), 0.0);
  sw::SweepOptions options;
  options.grid = grid;
  options.log_path = log;
  options.resume = resume;
  auto last = Clock::now();
  options.on_cell_settled = [&](const sw::CellRecord& record) {
    const auto now = Clock::now();
    job.settle_ms[record.cell_index] =
        std::chrono::duration<double, std::milli>(now - last).count();
    last = now;
  };
  const auto start = Clock::now();
  last = start;
  {
    auto span = tracer.span("sweep.run_sweep");
    job.result = sw::run_sweep(options);
  }
  job.wall_s = seconds_since(start);
  job.log_bytes = std::filesystem::file_size(log);
  return job;
}

sw::ResultLogScan scan(const std::filesystem::path& log, Tracer& tracer) {
  auto span = tracer.span("sweep.scan_result_log");
  std::ifstream in(log, std::ios::binary);
  return sw::scan_result_log(in, log.string(), nullptr);
}

/// The invariants every finished job must meet; returns the scan of its log.
sw::ResultLogScan verify_job(const Job& job, const std::filesystem::path& log, Report& report,
                             Tracer& tracer) {
  const sw::SweepReport& r = job.result;
  report.check(r.completed == r.total_cells && r.quarantined == 0,
               "every cell completed, none quarantined");
  report.check(std::all_of(r.records.begin(), r.records.end(),
                           [](const sw::CellRecord& c) {
                             return c.result.loss_rate >= 0.0 && c.result.loss_rate <= 1.0;
                           }),
               "every loss is in [0,1]");
  sw::ResultLogScan settled = scan(log, tracer);
  report.check(sw::results_hash(settled.records) == r.results_hash,
               "scan_result_log on the final log reproduces results_hash");
  return settled;
}

/// One checkpoint save: kJobsPerSave jobs' settled cells appended to an open
/// result log through the sweep's log writer, unsynced like the jobs' own
/// appends. Repeated records are byte-identical duplicates, which a scan
/// collapses. The jobs are shared out over `cpus`, one share pinned to each,
/// so one save averages every core; moving between cores and creating the
/// log are outside the timing. Returns the save's time in ms.
double save_log(const sw::ResultLogScan& settled, const std::filesystem::path& path,
                const std::vector<int>& cpus, Tracer& tracer) {
  auto writer = sw::ResultLogWriter::create(path, settled.header, /*durable=*/false);
  double ms = 0.0;
  for (std::size_t c = 0; c < cpus.size(); ++c) {
    const std::size_t jobs =
        kJobsPerSave * (c + 1) / cpus.size() - kJobsPerSave * c / cpus.size();
    const CpuPin pin(cpus[c]);
    const auto start = Clock::now();
    {
      auto span = tracer.span("sweep.log_append",
                              static_cast<double>(jobs * settled.records.size()));
      for (std::size_t job = 0; job < jobs; ++job) {
        for (const sw::CellRecord& record : settled.records) writer.append(record);
      }
    }
    ms += seconds_since(start) * 1e3;
  }
  writer.close();
  return ms;
}

/// Set-up: validate the grid, derive the cell seeds, and run a warm-up
/// sweep of one cell per queue kind through the same fork-isolated
/// supervisor. The warm-up runs in workers too, so the parent's
/// Davies-Harte eigenvalue cache stays as cold as a real supervisor's.
void set_up(const sw::SweepGrid& grid, const std::filesystem::path& log, Report& report,
            Tracer& tracer) {
  sw::SweepGrid warm = grid;
  warm.hursts.resize(1);
  warm.utilizations.resize(1);
  warm.buffer_ms.resize(1);
  warm.sources.resize(1);
  std::vector<double> setup_s;
  for (std::size_t k = 0; k < kSetups; ++k) {
    const auto start = Clock::now();
    grid.validate();
    report.check(sw::derive_cell_seeds(grid).size() == sw::cell_count(grid),
                 "one derived seed per cell");
    std::filesystem::remove(log);
    const Job job = run_job(warm, log, false, tracer);
    setup_s.push_back(seconds_since(start));
    report.check(job.result.completed == job.result.total_cells, "warm-up sweep completed");
  }
  std::filesystem::remove(log);
  if (!tracer.enabled()) {
    report.metric("setup_s", median(setup_s), "s",
                  "median of " + std::to_string(kSetups) +
                      " grid validations + one-cell-per-queue warm-up sweeps");
  }
}

/// Runs jobs back to back until `seconds` have passed and at least
/// kMinCells cells have settled; between jobs, outside their timing,
/// kSavesPerJob checkpoint saves of the job's log go to `replay` and their
/// times to `save_ms`. With tracing on, jobs alternate between untraced and
/// traced and an even number runs; `traced_s` and `untraced_s` receive the
/// two halves' wall time.
std::vector<Job> timed_jobs(const sw::SweepGrid& grid, const std::filesystem::path& log,
                            const std::filesystem::path& replay, double seconds,
                            Report& report, Tracer& tracer, double& traced_s,
                            double& untraced_s, std::vector<double>& save_ms) {
  Tracer quiet(false, "");
  const std::vector<int> cpus = allowed_cpus();
  std::vector<Job> jobs;
  const auto start = Clock::now();
  while (seconds_since(start) < seconds || jobs.size() * sw::cell_count(grid) < kMinCells ||
         (tracer.enabled() && jobs.size() % 2 == 1)) {
    const bool traced = tracer.enabled() && jobs.size() % 2 == 1;
    std::filesystem::remove(log);
    jobs.push_back(run_job(grid, log, false, traced ? tracer : quiet));
    (traced ? traced_s : untraced_s) += jobs.back().wall_s;
    for (std::size_t c = 0; c < jobs.back().result.total_cells; ++c) report.op();
    const sw::ResultLogScan settled = verify_job(jobs.back(), log, report, tracer);
    for (std::size_t k = 0; k < kSavesPerJob; ++k) {
      std::this_thread::sleep_for(kSavePause);
      save_ms.push_back(save_log(settled, replay, cpus, traced ? tracer : quiet));
      report.op();
    }
    report.check(sw::results_hash(scan(replay, tracer).records) == jobs.back().result.results_hash,
                 "the saved log, duplicates collapsed, reproduces results_hash");
  }
  return jobs;
}

/// Per-layer probes at the grid's largest cell shape: generation, the FFT
/// pair at the Davies-Harte embedding length, and each queue model.
void layer_probes(const sw::SweepGrid& grid, Report& report, Tracer& tracer) {
  vbr::engine::GenerationPlan plan;
  plan.num_sources = *std::max_element(grid.sources.begin(), grid.sources.end());
  plan.frames_per_source = grid.frames_per_source;
  plan.seed = grid.seed;
  plan.params = star_wars_params(0.8);
  plan.threads = 1;
  std::vector<double> aggregate;
  for (int rep = 0; rep < 5; ++rep) {
    auto span = tracer.span("engine.generate_sources");
    aggregate = vbr::engine::generate_sources(plan).aggregate();
  }
  const std::size_t embedding = vbr::next_power_of_two(2 * grid.frames_per_source);
  vbr::Rng rng(grid.seed);
  std::vector<std::complex<double>> signal(embedding);
  for (auto& z : signal) z = {rng.uniform() - 0.5, rng.uniform() - 0.5};
  for (int rep = 0; rep < 9; ++rep) {
    std::vector<std::complex<double>> data = signal;
    auto span = tracer.span("common.fft");
    vbr::fft(data);
    vbr::ifft(data);
  }
  const double mean = std::accumulate(aggregate.begin(), aggregate.end(), 0.0) /
                      static_cast<double>(aggregate.size());
  const double capacity = mean / kDtSeconds / 0.9;
  const double buffer = 0.020 * capacity;
  double fluid_loss = -1.0;
  for (int rep = 0; rep < 5; ++rep) {
    auto span = tracer.span("net.run_fluid_queue");
    fluid_loss = vbr::net::run_fluid_queue(aggregate, kDtSeconds, capacity, buffer).loss_rate();
  }
  double cell_loss = -1.0;
  for (int rep = 0; rep < 3; ++rep) {
    vbr::Rng spacing(grid.seed);
    auto span = tracer.span("net.run_cell_queue");
    cell_loss = vbr::net::run_cell_queue(aggregate, kDtSeconds, capacity, buffer,
                                         vbr::net::CellSpacing::kUniform, spacing)
                    .loss_rate();
  }
  vbr::net::FbmTrafficParams fbm;
  for (int rep = 0; rep < 9; ++rep) {
    auto span = tracer.span("net.fit_fbm_traffic");
    fbm = vbr::net::fit_fbm_traffic(aggregate, 0.8);
  }
  report.check(fluid_loss >= 0.0 && fluid_loss <= 1.0 && cell_loss >= 0.0 && cell_loss <= 1.0,
               "probe fluid and cell losses are in [0,1]");
  report.check(std::abs(fbm.mean_bytes - mean) <= 1e-9 * mean,
               "fitted fBm mean equals the aggregate mean");
  report.metric("engine.generate_ms", median(tracer.self_ms("engine.generate_sources")), "ms");
  report.metric("common.fft_ms", median(tracer.self_ms("common.fft")), "ms",
                "one forward + one inverse FFT of length " + std::to_string(embedding));
  report.metric("net.fluid_queue_ms", median(tracer.self_ms("net.run_fluid_queue")), "ms");
  report.metric("net.cell_queue_ms", median(tracer.self_ms("net.run_cell_queue")), "ms");
  report.metric("net.fbm_fit_ms", median(tracer.self_ms("net.fit_fbm_traffic")), "ms");
}

}  // namespace

void run_sweep_qc(const Options& options, Report& report, Tracer& tracer) {
  const sw::SweepGrid grid = make_grid(options);
  const std::size_t cells = sw::cell_count(grid);
  const std::vector<std::uint64_t> seeds = sw::derive_cell_seeds(grid);
  const std::filesystem::path log = options.scratch / "sweep.log";
  const std::filesystem::path replay = options.scratch / "replay.log";
  set_up(grid, options.scratch / "warm-up.log", report, tracer);

  double traced_s = 0.0;
  double untraced_s = 0.0;
  std::vector<double> save_ms;
  const std::vector<Job> jobs = timed_jobs(grid, log, replay, options.seconds, report, tracer,
                                           traced_s, untraced_s, save_ms);
  if (!tracer.enabled()) {
    std::vector<double> settle_ms;
    std::vector<double> job_s;
    for (const Job& job : jobs) {
      settle_ms.insert(settle_ms.end(), job.settle_ms.begin(), job.settle_ms.end());
      job_s.push_back(job.wall_s);
    }
    report.metric("samples_per_s",
                  job_samples(grid) * static_cast<double>(jobs.size()) / untraced_s, "1/s",
                  "synthesized frames per job-second over " + std::to_string(jobs.size()) +
                      " jobs");
    timing_metrics(report, "round_p50_ms", "round_tail_ms", settle_ms, kTailPercentile);
    report.metric("job_s", median(job_s), "s",
                  "median of " + std::to_string(jobs.size()) + " jobs of " +
                      std::to_string(cells) + " cells");
  } else {
    trace_overhead_metric(report, untraced_s, traced_s);
  }
  const Job& last = jobs.back();

  // Resume after a crash that lost the last kLostCells settled records:
  // the log is cut back by that many records' worth of bytes. A cut inside
  // a record leaves a torn tail, which recovery truncates; either way the
  // lost cells are re-run and the results must not change. The resume's
  // one worker at a time inherits the supervisor's CPU set, so each resume
  // takes the allowed cores in turn.
  const std::uintmax_t header = sw::kLogHeaderSealedBytes;
  const std::uintmax_t per_cell = (last.log_bytes - header) / cells;
  const std::filesystem::path crashed = options.scratch / "crashed.log";
  std::vector<double> resume_s;
  const std::vector<int> cpus = allowed_cpus();
  for (std::size_t k = 0; k < kResumes; ++k) {
    const CpuPin pin(cpus[k % cpus.size()]);
    std::filesystem::copy_file(log, crashed, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(crashed, last.log_bytes - kLostCells * per_cell);
    const Job resumed = run_job(grid, crashed, true, tracer);
    resume_s.push_back(resumed.wall_s);
    report.check(resumed.result.results_hash == last.result.results_hash &&
                     resumed.result.resumed_cells < cells &&
                     resumed.result.resumed_cells + kLostCells + 1 >= cells,
                 "resume after a lost log tail reproduces results_hash");
  }

  // In-process evaluation reproduces the logged record: one cell per queue
  // kind here, every cell in the traced run below. It runs after the
  // resumes, whose workers would otherwise inherit the eigenvalues it caches.
  const std::size_t per_queue = cells / grid.queues.size();
  for (std::size_t q = 0; q < grid.queues.size() && !tracer.enabled(); ++q) {
    const std::size_t cell = q * per_queue;
    report.check(sw::evaluate_cell(cell_spec(grid, seeds, cell)) ==
                     last.result.records[cell].result,
                 "in-process evaluate_cell equals the logged record of cell " +
                     std::to_string(cell));
  }

  if (!tracer.enabled()) {
    report.metric("checkpoint_save_ms", median(save_ms), "ms",
                  "median of " + std::to_string(save_ms.size()) + " saves of " +
                      std::to_string(kJobsPerSave) + " jobs' settled cells (" +
                      std::to_string(kJobsPerSave * cells) + " appends) to a result log");
    report.metric("checkpoint_mib", static_cast<double>(last.log_bytes) / kMiB, "MiB");
    report.metric("resume_s", median(resume_s), "s",
                  "median of " + std::to_string(kResumes) +
                      " resumes that re-run the last 3 cells");
    return;
  }

  // In-process evaluation of every cell, for the per-cell isolation cost.
  std::vector<double> eval_ms(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    const auto start = Clock::now();
    auto span = tracer.span("sweep.evaluate_cell");
    report.check(sw::evaluate_cell(cell_spec(grid, seeds, c)) == last.result.records[c].result,
                 "in-process evaluate_cell equals the logged record");
    eval_ms[c] = seconds_since(start) * 1e3;
  }
  double overhead_ms = 0.0;
  std::size_t attempts = 0;
  std::size_t retried = 0;
  std::size_t quarantined = 0;
  std::size_t completed = 0;
  for (const Job& job : jobs) {
    for (std::size_t c = 0; c < cells; ++c) overhead_ms += job.settle_ms[c] - eval_ms[c];
    attempts += job.result.total_cells + job.result.retried_attempts;
    retried += job.result.retried_attempts;
    quarantined += job.result.quarantined;
    completed += job.result.completed;
  }
  const double settled_cells = static_cast<double>(cells * jobs.size());
  report.metric("sweep.cell_eval_ms", std::accumulate(eval_ms.begin(), eval_ms.end(), 0.0) /
                                          static_cast<double>(cells),
                "ms", "mean in-process evaluate_cell time per cell");
  report.metric("sweep.isolation_overhead_ms", overhead_ms / settled_cells, "ms",
                "mean supervisor settle interval minus in-process evaluation, per cell");
  report.metric("sweep.attempts", static_cast<double>(attempts), "count");
  report.metric("sweep.retried_attempts", static_cast<double>(retried), "count");
  report.metric("sweep.quarantined_cells", static_cast<double>(quarantined), "count");
  report.metric("sweep.useful_ratio",
                static_cast<double>(completed) / static_cast<double>(attempts), "ratio");
  report.metric("sweep.log_bytes_per_cell", static_cast<double>(last.log_bytes) /
                                                static_cast<double>(cells),
                "B");
  layer_probes(grid, report, tracer);
}

}  // namespace perfbench
