#include "vbr/service/traffic_service.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "vbr/common/error.hpp"
#include "vbr/common/serialize.hpp"
#include "vbr/engine/thread_pool.hpp"
#include "vbr/model/fgn_generator.hpp"

namespace vbr::service {
namespace {

/// Streams generated per scratch cycle: large enough to amortize dispatch,
/// small enough that the scratch pool (kChunkStreams * block doubles) stays
/// a rounding error next to a million stream states.
constexpr std::size_t kChunkStreams = 1024;

}  // namespace

TrafficService::TrafficService(const ServiceConfig& config) : config_(config) {
  VBR_ENSURE(config.num_streams >= 1, "service needs at least one stream");
  VBR_ENSURE(config.frame_seconds > 0.0, "frame interval must be positive");
  VBR_ENSURE(config.queue_capacity_bytes_per_sec >= 0.0,
             "queue capacity must be non-negative");
  if (config.queue_capacity_bytes_per_sec > 0.0) {
    VBR_ENSURE(config.queue_buffer_bytes > 0.0,
               "a queue feed needs a positive buffer");
    queue_ = std::make_unique<net::FluidQueue>(config.queue_capacity_bytes_per_sec,
                                               config.queue_buffer_bytes);
  }

  // The engine's determinism guarantee: derive every per-stream Rng from
  // the master seed by split(), in stream order, before building anything.
  Rng master(config.seed);
  std::vector<Rng> stream_rngs;
  stream_rngs.reserve(config.num_streams);
  for (std::size_t i = 0; i < config.num_streams; ++i) stream_rngs.push_back(master.split());

  streams_.reserve(config.num_streams);
  for (std::size_t i = 0; i < config.num_streams; ++i) {
    streams_.push_back(make_streaming_source(config.params, config.variant, config.backend,
                                             config.tuning, stream_rngs[i]));
  }
  status_.assign(config.num_streams, StreamStatus::kActive);
  stream_hash_.assign(config.num_streams, Fnv1a::kOffsetBasis);
}

std::uint64_t TrafficService::results_hash() const {
  Fnv1a combined;
  for (const std::uint64_t digest : stream_hash_) combined.update(&digest, sizeof digest);
  return combined.digest();
}

std::uint64_t TrafficService::stream_digest(std::size_t stream) const {
  VBR_ENSURE(stream < stream_hash_.size(), "stream index out of range");
  return stream_hash_[stream];
}

void TrafficService::plan_chunk(std::size_t base, std::size_t count, std::size_t block,
                                const StreamGovernor* governor) {
  tasks_.clear();
  // Run-length grouping: consecutive unguarded active streams share a group
  // while their batch key holds and the group has room. Paused, retired and
  // guarded streams do not close the open group.
  constexpr std::size_t kNoGroup = ~std::size_t{0};
  std::size_t open = kNoGroup;  // index in tasks_ of the group still filling
  std::uint64_t open_key = StreamingSource::kUnbatched;
  for (std::size_t i = 0; i < count; ++i) {
    scratch_[i].clear();
    quarantine_pending_[i] = 0;
    const std::size_t stream = base + i;
    if (status_[stream] != StreamStatus::kActive) continue;
    const StreamingSource& source = *streams_[stream];
    if (governor != nullptr && governor->guarded(stream, source.position(), block)) {
      StreamTask& single = tasks_.emplace_back();
      single.members[0] = static_cast<std::uint32_t>(i);
      single.size = 1;
      single.guarded = true;
      continue;
    }
    const std::uint64_t key = source.batch_key();
    if (open == kNoGroup || key == StreamingSource::kUnbatched || key != open_key ||
        tasks_[open].size == kMaxStreamGroup) {
      open = tasks_.size();
      open_key = key;
      tasks_.emplace_back();
    }
    StreamTask& group = tasks_[open];
    group.members[group.size++] = static_cast<std::uint32_t>(i);
  }
}

void TrafficService::run_task(const StreamTask& task, std::size_t base, std::size_t block,
                              StreamGovernor* governor) {
  std::array<std::size_t, kMaxStreamGroup> ids{};
  std::array<StreamingSource*, kMaxStreamGroup> sources{};
  std::array<std::vector<double>*, kMaxStreamGroup> outs{};
  for (std::size_t q = 0; q < task.size; ++q) {
    ids[q] = base + task.members[q];
    sources[q] = streams_[ids[q]].get();
    outs[q] = &scratch_[task.members[q]];
  }
  const std::span<StreamingSource* const> group(sources.data(), task.size);
  const std::span<std::vector<double>* const> group_outs(outs.data(), task.size);
  bool ok = true;
  if (task.guarded) {
    ok = governor->generate(ids[0], *sources[0], block, *outs[0]);
  } else if (governor != nullptr) {
    ok = governor->generate_group({ids.data(), task.size}, group, block, group_outs);
  } else {
    group.front()->next_group(group, block, group_outs);
  }
  for (std::size_t q = 0; q < task.size; ++q) {
    quarantine_pending_[task.members[q]] = ok ? 0 : 1;
    if (outs[q]->empty()) continue;
    Fnv1a h(stream_hash_[ids[q]]);
    h.update(std::span<const double>(*outs[q]));
    stream_hash_[ids[q]] = h.digest();
  }
}

void TrafficService::advance_round(std::size_t block, StreamGovernor* governor) {
  VBR_ENSURE(block >= 1, "round block must be at least 1");
  const std::size_t n = streams_.size();
  const std::size_t threads =
      std::min(engine::resolve_thread_count(config_.threads), kChunkStreams);

  aggregate_.assign(block, KahanSum{});
  scratch_.resize(std::min(n, kChunkStreams));
  quarantine_pending_.assign(scratch_.size(), 0);

  for (std::size_t base = 0; base < n; base += kChunkStreams) {
    const std::size_t count = std::min(kChunkStreams, n - base);
    plan_chunk(base, count, block, governor);
    // Parallel generation: a task writes only its members' scratch buffers,
    // quarantine bytes and digests; scheduling decides who computes each
    // task, never what is computed. The governor hooks catch every stream
    // exception internally, so nothing escapes the worker.
    engine::parallel_for_index(tasks_.size(), std::min(threads, tasks_.size()),
                               [&](std::size_t t) { run_task(tasks_[t], base, block, governor); });
    // Sequential fold in stream order: sink, totals, aggregate. This is the
    // only place round results are combined across streams, so thread count
    // can never reorder the reduction.
    for (std::size_t i = 0; i < count; ++i) {
      if (quarantine_pending_[i] != 0) status_[base + i] = StreamStatus::kQuarantined;
      const std::vector<double>& buf = scratch_[i];
      if (buf.empty()) continue;
      const std::span<const double> samples(buf);
      moments_.push(samples);
      for (std::size_t j = 0; j < samples.size(); ++j) {
        total_bytes_.add(samples[j]);
        aggregate_[j].add(samples[j]);
      }
      total_samples_ += samples.size();
    }
  }

  if (queue_) {
    for (std::size_t j = 0; j < block; ++j) {
      queue_->offer(aggregate_[j].value(), config_.frame_seconds);
    }
  }
  ++rounds_;
}

void TrafficService::pause(std::size_t stream) {
  VBR_ENSURE(stream < status_.size(), "stream index out of range");
  VBR_ENSURE(status_[stream] == StreamStatus::kActive, "only an active stream can pause");
  status_[stream] = StreamStatus::kPaused;
}

void TrafficService::resume(std::size_t stream) {
  VBR_ENSURE(stream < status_.size(), "stream index out of range");
  VBR_ENSURE(status_[stream] == StreamStatus::kPaused, "only a paused stream can resume");
  status_[stream] = StreamStatus::kActive;
}

void TrafficService::retire(std::size_t stream) {
  VBR_ENSURE(stream < status_.size(), "stream index out of range");
  VBR_ENSURE(status_[stream] != StreamStatus::kRetired, "stream already retired");
  status_[stream] = StreamStatus::kRetired;
  streams_[stream].reset();  // reclaim the per-stream state immediately
}

StreamStatus TrafficService::status(std::size_t stream) const {
  VBR_ENSURE(stream < status_.size(), "stream index out of range");
  return status_[stream];
}

std::uint64_t TrafficService::stream_position(std::size_t stream) const {
  VBR_ENSURE(stream < status_.size(), "stream index out of range");
  VBR_ENSURE(status_[stream] != StreamStatus::kRetired, "retired streams have no position");
  return streams_[stream]->position();
}

std::size_t TrafficService::active_streams() const {
  std::size_t active = 0;
  for (const StreamStatus s : status_) active += (s == StreamStatus::kActive) ? 1 : 0;
  return active;
}

void TrafficService::save_state(std::ostream& out) const {
  io::write_string(out, "service");
  // Config fingerprint: everything that shapes the sample sequence or the
  // feed state. `threads` is deliberately absent — it never affects output.
  io::write_u64(out, config_.num_streams);
  io::write_u64(out, config_.seed);
  io::write_u8(out, static_cast<std::uint8_t>(config_.variant));
  io::write_string(out, model::generator_backend_name(config_.backend));
  io::write_f64(out, config_.params.marginal.mu_gamma);
  io::write_f64(out, config_.params.marginal.sigma_gamma);
  io::write_f64(out, config_.params.marginal.tail_slope);
  io::write_f64(out, config_.params.hurst);
  io::write_u64(out, config_.tuning.hosking_horizon);
  io::write_u64(out, config_.tuning.paxson_window);
  io::write_u64(out, config_.tuning.paxson_overlap);
  io::write_f64(out, config_.tuning.onoff_mean_active_sessions);
  io::write_f64(out, config_.tuning.onoff_min_session_frames);
  io::write_f64(out, config_.frame_seconds);
  io::write_f64(out, config_.queue_capacity_bytes_per_sec);
  io::write_f64(out, config_.queue_buffer_bytes);

  io::write_u64(out, rounds_);
  io::write_u64(out, total_samples_);
  io::write_f64(out, total_bytes_.value());
  io::write_f64(out, total_bytes_.compensation());
  io::write_u8(out, queue_ ? 1 : 0);
  if (queue_) queue_->save(out);
  moments_.save(out);
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    io::write_u8(out, static_cast<std::uint8_t>(status_[i]));
    io::write_u64(out, stream_hash_[i]);
    if (status_[i] != StreamStatus::kRetired) streams_[i]->save(out);
  }
}

void TrafficService::restore_state(std::istream& in) {
  io::read_tag(in, "service", "TrafficService::restore");
  const std::uint64_t num_streams = io::read_u64(in, "TrafficService::restore");
  const std::uint64_t seed = io::read_u64(in, "TrafficService::restore");
  const std::uint8_t variant = io::read_u8(in, "TrafficService::restore");
  const std::string backend = io::read_string(in, 64, "TrafficService::restore");
  const double mu = io::read_f64(in, "TrafficService::restore");
  const double sigma = io::read_f64(in, "TrafficService::restore");
  const double tail = io::read_f64(in, "TrafficService::restore");
  const double hurst = io::read_f64(in, "TrafficService::restore");
  const std::uint64_t horizon = io::read_u64(in, "TrafficService::restore");
  const std::uint64_t window = io::read_u64(in, "TrafficService::restore");
  const std::uint64_t overlap = io::read_u64(in, "TrafficService::restore");
  const double onoff_mean = io::read_f64(in, "TrafficService::restore");
  const double onoff_min = io::read_f64(in, "TrafficService::restore");
  const double frame_seconds = io::read_f64(in, "TrafficService::restore");
  const double queue_capacity = io::read_f64(in, "TrafficService::restore");
  const double queue_buffer = io::read_f64(in, "TrafficService::restore");
  if (num_streams != config_.num_streams || seed != config_.seed ||
      variant != static_cast<std::uint8_t>(config_.variant) ||
      backend != model::generator_backend_name(config_.backend) ||
      mu != config_.params.marginal.mu_gamma || sigma != config_.params.marginal.sigma_gamma ||
      tail != config_.params.marginal.tail_slope || hurst != config_.params.hurst ||
      horizon != config_.tuning.hosking_horizon || window != config_.tuning.paxson_window ||
      overlap != config_.tuning.paxson_overlap ||
      onoff_mean != config_.tuning.onoff_mean_active_sessions ||
      onoff_min != config_.tuning.onoff_min_session_frames ||
      frame_seconds != config_.frame_seconds ||
      queue_capacity != config_.queue_capacity_bytes_per_sec ||
      queue_buffer != config_.queue_buffer_bytes) {
    throw IoError("TrafficService::restore: checkpoint belongs to a different config");
  }

  const std::uint64_t rounds = io::read_u64(in, "TrafficService::restore");
  const std::uint64_t total_samples = io::read_u64(in, "TrafficService::restore");
  const double bytes_sum = io::read_f64(in, "TrafficService::restore");
  const double bytes_comp = io::read_f64(in, "TrafficService::restore");
  const std::uint8_t has_queue = io::read_u8(in, "TrafficService::restore");
  if (has_queue > 1 || (has_queue == 1) != (queue_ != nullptr)) {
    throw IoError("TrafficService::restore: queue presence mismatch");
  }
  if (queue_) queue_->restore(in);
  moments_.restore(in);
  // Streams this service retired but the checkpoint holds live are rebuilt
  // in construction order; one pass of the master Rng serves them all.
  Rng master(config_.seed);
  std::size_t derived = 0;  // streams whose split() the master has consumed
  for (std::size_t i = 0; i < config_.num_streams; ++i) {
    const std::uint8_t status = io::read_u8(in, "TrafficService::restore");
    if (status > static_cast<std::uint8_t>(StreamStatus::kQuarantined)) {
      throw IoError("TrafficService::restore: corrupt stream status");
    }
    const std::uint64_t stream_hash = io::read_u64(in, "TrafficService::restore");
    const auto s = static_cast<StreamStatus>(status);
    if (s == StreamStatus::kRetired) {
      streams_[i].reset();
    } else {
      if (!streams_[i]) {
        Rng stream_rng;
        while (derived <= i) {
          stream_rng = master.split();
          ++derived;
        }
        streams_[i] = make_streaming_source(config_.params, config_.variant, config_.backend,
                                            config_.tuning, stream_rng);
      }
      streams_[i]->restore(in);
    }
    status_[i] = s;
    stream_hash_[i] = stream_hash;
  }
  rounds_ = rounds;
  total_samples_ = total_samples;
  total_bytes_ = KahanSum::from_parts(bytes_sum, bytes_comp);
}

}  // namespace vbr::service
