#pragma once
// Pure helpers of the benchmark harness: seeded randomness, arrival
// schedules, quantiles with their sample counts, the correctness gates, the
// open-loop backlog check, and the one-line JSON result. Nothing here touches
// the canopus libraries, so perfbench_selftest can check it in isolation.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a small, fully specified generator, so a seed names the same
/// inputs on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, n); n must be > 0.
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from a run seed and a stream label.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// A quantile and the number of samples it was taken from.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank quantile (q in [0, 1]) of `xs`; {0, 0} when empty.
Quantile quantile(std::vector<double> xs, double q);
double median(std::vector<double> xs);
double mean(const std::vector<double>& xs);

/// Zipf(s) over items 0..n-1, item 0 the most popular.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(Rng& rng) const;
  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Stratified class sequence of length `total`: every block of
/// sum(counts) entries holds exactly counts[k] copies of class k, shuffled
/// by the seed. Keeps a run's mix identical across seeds while the order
/// changes.
std::vector<std::size_t> seeded_deck(std::uint64_t seed,
                                     const std::vector<std::size_t>& counts,
                                     std::size_t total);

/// One scheduled open-loop arrival.
struct Arrival {
  double due = 0.0;     // seconds after the window opens
  bool burst = false;   // part of a flash-crowd burst
};

/// Open-loop schedule for [0, duration): a fixed rate with seeded jitter
/// (arrival i is due at (i + u_i) / rate, u_i uniform in [0, 1), so every
/// seed gets exactly rate x duration of them), plus `burst_size` arrivals
/// sharing one due time every `burst_period` seconds (burst_period <= 0
/// disables bursts). Sorted by due time; the same arguments give the same
/// schedule.
std::vector<Arrival> arrival_schedule(std::uint64_t seed, double rate,
                                      double duration, double burst_period,
                                      std::size_t burst_size);

// --- Correctness gates. ----------------------------------------------------

/// max |a[i] - b[i]|; +infinity when sizes differ or any difference is NaN.
double max_abs_error(std::span<const double> a, std::span<const double> b);

/// The accuracy contract of a full-accuracy restore: every value within
/// levels x error_bound of the original. `worst` (optional) receives the
/// largest error seen.
bool within_error_bound(std::span<const double> restored,
                        std::span<const double> original, std::size_t levels,
                        double error_bound, double* worst = nullptr);

/// Byte-for-byte equality (so -0.0 != 0.0 and NaN payloads must match).
bool bitwise_equal(std::span<const double> a, std::span<const double> b);

/// FNV-1a over the bytes of `values`: the fingerprint served answers are
/// kept as until they are checked against reference reads.
std::uint64_t fingerprint(std::span<const double> values);

// --- Open-loop hygiene. ----------------------------------------------------

/// Least-squares slope of depth over time (queries per second); 0 with
/// fewer than two distinct times.
double backlog_slope(const std::vector<double>& times,
                     const std::vector<double>& depths);

/// True when the queue depth grows over the steady-state window: the samples
/// after `warmup` seconds rise by more than `tolerance` queries across the
/// window (slope x window length).
bool backlog_growing(const std::vector<double>& times,
                     const std::vector<double>& depths, double warmup,
                     double tolerance);

// --- Result emission. ------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  /// A metric already added; throws std::invalid_argument when absent.
  const Metric& metric(const std::string& name) const;
};

/// The one-line JSON object the benchmark prints last:
/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
/// Throws std::invalid_argument for a non-finite value or a duplicate name.
std::string to_json(const Result& result);

}  // namespace perfbench
