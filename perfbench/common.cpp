#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <numbers>

#include "obs/metrics.hpp"

namespace perfbench {

namespace {

/// Smooth seeded perturbation standing in for the field's evolution between
/// timesteps: two travelling modes at 2% of the field's range.
mesh::Field evolve(const sim::Dataset& ds, Rng& rng, double range) {
  const auto bounds = ds.mesh.bounds();
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  const double sx = kTwoPi / std::max(1e-12, bounds.hi.x - bounds.lo.x);
  const double sy = kTwoPi / std::max(1e-12, bounds.hi.y - bounds.lo.y);
  const double kx = 1.0 + 3.0 * rng.uniform(), ky = 1.0 + 3.0 * rng.uniform();
  const double px = kTwoPi * rng.uniform(), py = kTwoPi * rng.uniform();
  const double amp = 0.02 * range;
  mesh::Field out(ds.values.size());
  for (mesh::VertexId v = 0; v < ds.mesh.vertex_count(); ++v) {
    const auto p = ds.mesh.vertex(v);
    out[v] = ds.values[v] + amp * std::sin(kx * sx * p.x + px) *
                                std::cos(ky * sy * p.y + py);
  }
  return out;
}

}  // namespace

std::vector<MeshCase> make_meshes(std::uint64_t seed, std::size_t timesteps,
                                  const std::vector<std::string>& which) {
  auto wanted = [&](const char* name) {
    return which.empty() ||
           std::find(which.begin(), which.end(), name) != which.end();
  };
  std::vector<MeshCase> out;
  if (wanted("xgc1")) {
    sim::XgcOptions o;
    o.seed = derive_seed(seed, 1);
    out.push_back({sim::make_xgc_dataset(o), {}, 0.0});
  }
  if (wanted("genasis")) {
    sim::GenasisOptions o;
    o.seed = derive_seed(seed, 2);
    out.push_back({sim::make_genasis_dataset(o), {}, 0.0});
  }
  if (wanted("cfd")) {
    sim::CfdOptions o;
    o.seed = derive_seed(seed, 3);
    out.push_back({sim::make_cfd_dataset(o), {}, 0.0});
  }
  for (std::size_t m = 0; m < out.size(); ++m) {
    auto& mc = out[m];
    const auto [lo, hi] =
        std::minmax_element(mc.dataset.values.begin(), mc.dataset.values.end());
    const double range = std::max(1e-12, *hi - *lo);
    mc.error_bound = kRelativeErrorBound * range;
    Rng rng(derive_seed(seed, 100 + m));
    mc.steps.push_back(mc.dataset.values);
    while (mc.steps.size() < timesteps) {
      mc.steps.push_back(evolve(mc.dataset, rng, range));
    }
  }
  return out;
}

std::vector<storage::TierSpec> two_tier_specs(std::size_t fast_capacity) {
  auto slow = storage::lustre_spec(64ull << 30);
  slow.read_bandwidth = 2e6;
  slow.write_bandwidth = 4e6;
  slow.read_latency = 2e-3;
  slow.write_latency = 2e-3;
  return {storage::tmpfs_spec(fast_capacity), slow};
}

WriteRequest write_request(const MeshCase& mc, const mesh::Field& values,
                           const std::string& path) {
  WriteRequest w;
  w.path = path;
  w.var = mc.dataset.variable;
  w.mesh = &mc.dataset.mesh;
  w.values = &values;
  w.config.levels = kLevels;
  w.config.codec = kCodec;
  w.config.error_bound = mc.error_bound;
  w.config.delta_chunks = kDeltaChunks;
  return w;
}

void WriteLog::record(const Status& status, double raw, double wall,
                      double io_sim) {
  if (!status.ok()) {
    ++failed;
    return;
  }
  ++writes;
  raw_bytes += raw;
  wall_seconds += wall;
  io_sim_seconds += io_sim;
  round_raw_ += raw;
  round_wall_ += wall;
}

void WriteLog::end_round() {
  if (round_wall_ > 0.0) {
    round_mb_s.push_back(round_raw_ / (1024.0 * 1024.0) / round_wall_);
  }
  round_raw_ = round_wall_ = 0.0;
}

void WriteLog::emit(Result& result) const {
  const double n = std::max<double>(1.0, static_cast<double>(writes));
  result.add("write_mb_s", median(round_mb_s), "MiB/s");
  result.add("write_io_sim_s", io_sim_seconds / n, "s");
  result.add("stored_ratio", raw_bytes > 0.0 ? stored_bytes / raw_bytes : 0.0,
             "ratio");
  std::cout << "writes: " << writes << " ok, " << failed << " failed, "
            << raw_bytes / (1024.0 * 1024.0) << " MiB raw in " << wall_seconds
            << " s over " << round_mb_s.size()
            << " rounds; stored bytes count products, geometry, metadata and "
               "replicas\n";
}

void QueryLog::end_round(double wall_seconds) {
  if (cpu.size() > round_start_ && wall_seconds > 0.0) {
    round_cpu_.push_back(
        mean(std::vector<double>(cpu.begin() + static_cast<std::ptrdiff_t>(round_start_),
                                 cpu.end())));
    round_goodput_.push_back(static_cast<double>(good - round_good_) / wall_seconds);
  }
  round_start_ = cpu.size();
  round_good_ = good;
}

void QueryLog::emit(Result& result, double window_seconds) const {
  const Quantile p50 = quantile(latency, 0.5);
  const Quantile p90 = quantile(latency, 0.9);
  result.add("query_s_p50", p50.value, "s");
  result.add("query_s_p90", p90.value, "s");
  result.add("query_io_sim_s_mean", mean(io_sim), "s");
  result.add("query_cpu_s_mean", median(round_cpu_), "s");
  result.add("goodput_qps",
             window_seconds > 0.0 ? static_cast<double>(good) / window_seconds
                                  : median(round_goodput_),
             "1/s");
  result.add("admitted_frac",
             submissions > 0 ? static_cast<double>(submissions - shed) /
                                   static_cast<double>(submissions)
                             : 0.0,
             "ratio");
  result.add("on_target_frac",
             attempted > 0 ? static_cast<double>(on_target) /
                                 static_cast<double>(attempted)
                           : 0.0,
             "ratio");
  std::cout << "queries: " << attempted << " attempted, " << failed
            << " failed, " << on_target << " on target, " << good
            << " good; " << submissions << " submissions, " << shed
            << " shed; latency p50 over " << p50.samples << " samples, p90 over "
            << p90.samples << " samples ("
            << p90.samples - static_cast<std::size_t>(0.9 * p90.samples)
            << " beyond p90); " << round_cpu_.size() << " rounds\n";
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"mesh.decimate_s", "s"},
      {"mesh.locate_miss_frac", "ratio"},
      {"core.mapping_s", "s"},
      {"core.estimate_s", "s"},
      {"core.restore_s", "s"},
      {"core.levels_read", "count"},
      {"compress.encode_s", "s"},
      {"compress.ratio", "ratio"},
      {"compress.decode_s", "s"},
      {"adios.commit_s", "s"},
      {"storage.write_sim_s", "s"},
      {"storage.read_sim_s", "s"},
      {"storage.tmpfs.read_bytes", "bytes"},
      {"storage.tmpfs.reads", "count"},
      {"storage.lustre.read_bytes", "bytes"},
      {"storage.lustre.reads", "count"},
      {"storage.fast_read_frac", "ratio"},
      {"io.overlap_ratio", "ratio"},
      {"reader.prefetch_hit_ratio", "ratio"},
      {"cache.hit_ratio", "ratio"},
      {"cache.evictions", "count"},
      {"cache.single_flight_waits", "count"},
      {"fabric.remote_frac", "ratio"},
      {"fabric.evictions", "count"},
      {"tiering.promotions", "count"},
      {"tiering.demotions", "count"},
      {"serve.queue_s_p90", "s"},
      {"serve.queue_depth_max", "count"},
      {"serve.plan_hit_ratio", "ratio"},
      {"analytics.raster_s", "s"},
      {"analytics.blob_s", "s"},
      {"pool.task_wait_s_p90", "s"},
      {"trace.overhead_frac", "ratio"},
      {"trace.coverage", "ratio"},
      {"loadgen.lag_s_p90", "s"},
      {"loadgen.backlog_slope", "1/s"},
  };
  return names;
}

void finish_per_layer(Result& result) {
  std::vector<Metric> ordered;
  std::string absent;
  for (const auto& [name, unit] : per_layer_metrics()) {
    auto it = std::find_if(result.metrics.begin(), result.metrics.end(),
                           [&](const Metric& m) { return m.name == name; });
    if (it != result.metrics.end()) {
      ordered.push_back({name, it->value, unit});
    } else {
      ordered.push_back({name, 0.0, unit});
      absent += " " + name;
    }
  }
  result.metrics = std::move(ordered);
  if (!absent.empty()) {
    std::cout << "not exercised by this workload (reported as 0):" << absent
              << "\n";
  }
}

double since(Tracer::Clock::time_point start) {
  return std::chrono::duration<double>(Tracer::Clock::now() - start).count();
}

double Replays::per_op(const std::string& layer) const {
  const auto self = traced_.self_seconds();
  const auto it = self.find(layer);
  return it == self.end() || ops_ == 0 ? 0.0
                                       : it->second / static_cast<double>(ops_);
}

void Replays::emit(Result& result, const char* ops_name) const {
  const auto self = traced_.self_seconds();
  const double op_total = traced_.total_seconds("op");
  double layered = 0.0;
  std::cout << "traced replays: " << ops_ << " " << ops_name << ", "
            << traced_.span_count() << " spans; self time per operation:";
  for (const auto& [layer, secs] : self) {
    if (layer != "op") layered += secs;
    std::cout << " " << layer << "=" << secs / static_cast<double>(ops_);
  }
  std::cout << "\n";
  result.add("trace.overhead_frac",
             plain_wall_ > 0.0 ? (op_total - plain_wall_) / plain_wall_ : 0.0,
             "ratio");
  result.add("trace.coverage", op_total > 0.0 ? layered / op_total : 0.0, "ratio");
}

LibraryCounters LibraryCounters::read() {
  auto& r = obs::MetricsRegistry::global();
  auto count = [&](const char* name) {
    return static_cast<double>(r.counter(name).value());
  };
  LibraryCounters c;
  c.tmpfs_reads = count("storage.tmpfs.reads");
  c.tmpfs_bytes = count("storage.tmpfs.read_bytes");
  c.lustre_reads = count("storage.lustre.reads");
  c.lustre_bytes = count("storage.lustre.read_bytes");
  c.read_sim_s = (r.histogram("storage.tmpfs.read_us").sum() +
                  r.histogram("storage.lustre.read_us").sum()) * 1e-6;
  c.prefetch_hits = count("reader.prefetch_hits");
  c.prefetch_misses = count("reader.prefetch_misses");
  return c;
}

void LibraryCounters::emit_since(const LibraryCounters& before, double queries,
                                 Result& result) const {
  const double n = std::max(1.0, queries);
  const double fast = tmpfs_bytes - before.tmpfs_bytes;
  const double slow = lustre_bytes - before.lustre_bytes;
  const double hits = prefetch_hits - before.prefetch_hits;
  const double prefetches = hits + prefetch_misses - before.prefetch_misses;
  result.add("storage.read_sim_s", (read_sim_s - before.read_sim_s) / n, "s");
  result.add("storage.tmpfs.read_bytes", fast / n, "bytes");
  result.add("storage.tmpfs.reads", (tmpfs_reads - before.tmpfs_reads) / n, "count");
  result.add("storage.lustre.read_bytes", slow / n, "bytes");
  result.add("storage.lustre.reads", (lustre_reads - before.lustre_reads) / n,
             "count");
  result.add("storage.fast_read_frac", fast + slow > 0.0 ? fast / (fast + slow) : 0.0,
             "ratio");
  result.add("reader.prefetch_hit_ratio", prefetches > 0.0 ? hits / prefetches : 0.0,
             "ratio");
  result.add("pool.task_wait_s_p90", pool_wait_p90(), "s");
}

double pool_wait_p90() {
  return obs::MetricsRegistry::global().histogram("pool.task_wait_us").quantile(0.9) *
         1e-6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t stored_bytes(const storage::StorageHierarchy& h) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < h.tier_count(); ++i) total += h.tier_usage(i).first;
  return total;
}

}  // namespace perfbench
