#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n)) % n;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed ^ (stream * 0xd1342543de82ef95ull));
  return rng.next();
}

Quantile quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return {};
  std::sort(xs.begin(), xs.end());
  const auto n = xs.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(n)));
  return {xs[std::min(n - 1, rank == 0 ? 0 : rank - 1)], n};
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

Zipf::Zipf(std::size_t n, double s) {
  if (n == 0) throw std::invalid_argument("Zipf needs at least one item");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

std::size_t Zipf::sample(Rng& rng) const {
  const double u = rng.uniform();
  return static_cast<std::size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

std::vector<std::size_t> seeded_deck(std::uint64_t seed,
                                     const std::vector<std::size_t>& counts,
                                     std::size_t total) {
  std::vector<std::size_t> block;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    block.insert(block.end(), counts[k], k);
  }
  if (block.empty()) throw std::invalid_argument("seeded_deck: empty mix");
  Rng rng(seed);
  std::vector<std::size_t> out;
  out.reserve(total + block.size());
  while (out.size() < total) {
    // Fisher-Yates per block.
    for (std::size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng.below(i)]);
    }
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(total);
  return out;
}

std::vector<Arrival> arrival_schedule(std::uint64_t seed, double rate,
                                      double duration, double burst_period,
                                      std::size_t burst_size) {
  if (!(rate > 0.0) || !(duration > 0.0)) {
    throw std::invalid_argument("arrival_schedule: rate and duration must be > 0");
  }
  std::vector<Arrival> out;
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(rate * duration);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({(static_cast<double>(i) + rng.uniform()) / rate, false});
  }
  if (burst_period > 0.0) {
    for (double t = burst_period; t < duration; t += burst_period) {
      for (std::size_t i = 0; i < burst_size; ++i) out.push_back({t, true});
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    return a.due < b.due;
  });
  return out;
}

double max_abs_error(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(a[i] - b[i]);
    if (!(d <= worst)) {
      if (std::isnan(d)) return std::numeric_limits<double>::infinity();
      worst = d;
    }
  }
  return worst;
}

bool within_error_bound(std::span<const double> restored,
                        std::span<const double> original, std::size_t levels,
                        double error_bound, double* worst) {
  const double err = max_abs_error(restored, original);
  if (worst != nullptr) *worst = err;
  return err <= static_cast<double>(levels) * error_bound;
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

std::uint64_t fingerprint(std::span<const double> values) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  }
  return h ^ values.size();
}

double backlog_slope(const std::vector<double>& times,
                     const std::vector<double>& depths) {
  const std::size_t n = std::min(times.size(), depths.size());
  if (n < 2) return 0.0;
  double mt = 0.0, md = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mt += times[i];
    md += depths[i];
  }
  mt /= static_cast<double>(n);
  md /= static_cast<double>(n);
  double cov = 0.0, var = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cov += (times[i] - mt) * (depths[i] - md);
    var += (times[i] - mt) * (times[i] - mt);
  }
  return var > 0.0 ? cov / var : 0.0;
}

bool backlog_growing(const std::vector<double>& times,
                     const std::vector<double>& depths, double warmup,
                     double tolerance) {
  std::vector<double> t, d;
  for (std::size_t i = 0; i < std::min(times.size(), depths.size()); ++i) {
    if (times[i] >= warmup) {
      t.push_back(times[i]);
      d.push_back(depths[i]);
    }
  }
  if (t.size() < 2) return false;
  const double window = t.back() - t.front();
  return backlog_slope(t, d) * window > tolerance;
}

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

const Metric& Result::metric(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return m;
  }
  throw std::invalid_argument("no metric named " + name);
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string to_json(const Result& result) {
  std::set<std::string> seen;
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (!seen.insert(m.name).second) {
      throw std::invalid_argument("duplicate metric " + m.name);
    }
    if (i > 0) out += ", ";
    out += quoted(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
