#pragma once
// Shared workload plumbing: command-line arguments, the seeded datasets, the
// storage envelope, and the refactoring configuration every workload uses.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "harness.hpp"
#include "sim/datasets.hpp"
#include "storage/hierarchy.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace canopus;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// One of the paper's three meshes with T seeded timesteps of its field.
struct MeshCase {
  sim::Dataset dataset;            // mesh + timestep-0 field
  std::vector<mesh::Field> steps;  // T fields over the same mesh
  double error_bound = 0.0;        // per-product codec bound
  std::size_t raw_bytes() const { return dataset.values.size() * sizeof(double); }
};

/// Accuracy levels, codec and chunking of every refactored variable.
inline constexpr std::size_t kLevels = 4;
inline constexpr std::uint32_t kDeltaChunks = 8;
inline constexpr const char* kCodec = "zfp";
/// Codec bound as a share of each field's value range.
inline constexpr double kRelativeErrorBound = 1e-4;

/// The three paper meshes (XGC1 annulus, GenASiS disk, CFD body cutout) at
/// paper size, each with `timesteps` fields; mesh jitter, numbering and
/// timestep perturbations all derive from `seed`. `which` filters by name
/// (empty = all three).
std::vector<MeshCase> make_meshes(std::uint64_t seed, std::size_t timesteps,
                                  const std::vector<std::string>& which = {});

/// Contended two-tier hierarchy: a DRAM-class tmpfs tier of `fast_capacity`
/// bytes over a production PFS stream under contention (2 MB/s, 2 ms per
/// operation), the envelope the figure benches use.
std::vector<storage::TierSpec> two_tier_specs(std::size_t fast_capacity);

/// The write request every workload issues for (mesh, values).
WriteRequest write_request(const MeshCase& mc, const mesh::Field& values,
                           const std::string& path);

/// Runs `setup` `repeats` times, keeping the last result, and returns the
/// median setup wall time in seconds. Setting up more than once makes the
/// reported set-up time a median rather than one sample.
template <typename T>
double repeated_setup(std::size_t repeats, const std::function<T()>& setup,
                      T* out) {
  std::vector<double> times;
  for (std::size_t i = 0; i < repeats; ++i) {
    const auto start = Tracer::Clock::now();
    *out = setup();
    times.push_back(
        std::chrono::duration<double>(Tracer::Clock::now() - start).count());
  }
  return median(times);
}

/// Writes of one workload: the inputs of write_mb_s, write_io_sim_s and
/// stored_ratio. Writes are grouped into rounds (one timestep of every mesh
/// the workload writes); write_mb_s is the median of the per-round
/// throughputs, so one preempted round does not move it.
struct WriteLog {
  std::size_t writes = 0;
  std::size_t failed = 0;
  double raw_bytes = 0.0;     // field bytes refactored
  double wall_seconds = 0.0;  // summed wall time of the writes
  double io_sim_seconds = 0.0;
  double stored_bytes = 0.0;  // every byte the writes placed on tiers
  std::vector<double> round_mb_s;

  void record(const Status& status, double raw, double wall, double io_sim);
  /// Closes the current round (the writes recorded since the last call).
  void end_round();
  /// Adds write_mb_s, write_io_sim_s (simulated tier seconds per write) and
  /// stored_ratio.
  void emit(Result& result) const;

 private:
  double round_raw_ = 0.0;
  double round_wall_ = 0.0;
};

/// Queries of one workload: the inputs of every query-side metric.
struct QueryLog {
  std::vector<double> latency;  // retrieval clock (+ analysis, + open-loop wait)
  std::vector<double> io_sim;   // simulated tier I/O
  std::vector<double> cpu;      // wall decompress + restore + analysis
  std::uint64_t attempted = 0;  // queries
  std::uint64_t failed = 0;     // unusable status (a shed query is resubmitted)
  std::uint64_t on_target = 0;  // answered at the requested accuracy
  std::uint64_t good = 0;       // on target and within the deadline
  std::uint64_t submissions = 0;  // admission attempts, resubmissions included
  std::uint64_t shed = 0;         // admission attempts refused (kOverloaded)

  /// Closes a round of queries that took `wall_seconds`. query_cpu_s_mean
  /// is the median of the per-round means, so a short slow spell on the host
  /// moves one round, not the figure.
  void end_round(double wall_seconds);
  /// Adds query_s_p50/p90, query_io_sim_s_mean, query_cpu_s_mean,
  /// goodput_qps, admitted_frac, on_target_frac, and prints the sample
  /// counts. goodput_qps is good queries per `window_seconds` of an open
  /// loop, or with `window_seconds` 0 (a closed loop) the median over rounds
  /// of good queries per second of query time.
  void emit(Result& result, double window_seconds) const;

 private:
  std::vector<double> round_cpu_;      // per-round mean cpu
  std::vector<double> round_goodput_;  // per-round good per second
  std::size_t round_start_ = 0;        // first cpu sample of the open round
  std::uint64_t round_good_ = 0;       // good count when the round opened
};

/// Names and units of every per-layer metric, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Completes a traced result: keeps only per-layer metrics, in the listed
/// order, and reports those the workload does not exercise as 0 (listing
/// them on stdout).
void finish_per_layer(Result& result);

/// Seconds since `start` on the steady clock.
double since(Tracer::Clock::time_point start);

/// The traced run's replays: each operation's layer calls run twice on the
/// same inputs, once with spans and once without, alternating which side
/// goes first so drift does not land on one of them.
class Replays {
 public:
  /// `replay(tracer, traced)` makes one operation's layer calls.
  template <typename F>
  void run(F&& replay) {
    auto plain = [&] {
      const auto start = Tracer::Clock::now();
      replay(plain_, false);
      plain_wall_ += since(start);
    };
    auto traced = [&] {
      traced_.begin_op();
      Tracer::Span op(traced_, "op");
      replay(traced_, true);
    };
    if (ops_ % 2 == 0) {
      plain();
      traced();
    } else {
      traced();
      plain();
    }
    ++ops_;
  }

  std::size_t ops() const { return ops_; }
  /// Self seconds of `layer` per replayed operation.
  double per_op(const std::string& layer) const;
  /// Adds trace.overhead_frac (traced over untraced replay time, minus 1)
  /// and trace.coverage (summed layer self time over replayed operation
  /// time), and prints the per-layer self time of an operation; `ops_name`
  /// names the operations ("writes", "queries").
  void emit(Result& result, const char* ops_name) const;

 private:
  Tracer traced_{true};
  Tracer plain_{false};
  double plain_wall_ = 0.0;
  std::size_t ops_ = 0;
};

/// Library counters (obs::MetricsRegistry) a traced run reads around its
/// window.
struct LibraryCounters {
  double tmpfs_reads = 0.0, tmpfs_bytes = 0.0;
  double lustre_reads = 0.0, lustre_bytes = 0.0;
  double read_sim_s = 0.0;  // serial sum of simulated tier reads
  double prefetch_hits = 0.0, prefetch_misses = 0.0;

  static LibraryCounters read();
  /// Adds the storage.* read rows, reader.prefetch_hit_ratio and
  /// pool.task_wait_s_p90 for `queries` queries between `before` and this.
  void emit_since(const LibraryCounters& before, double queries,
                  Result& result) const;
};

/// p90 of the library's pool task wait, seconds (obs must be enabled).
double pool_wait_p90();

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// The total bytes resident on every tier of `h`.
std::size_t stored_bytes(const storage::StorageHierarchy& h);

Result run_ingest(const Args& args);
Result run_explore(const Args& args);
Result run_serve(const Args& args);

}  // namespace perfbench
