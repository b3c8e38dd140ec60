// Tests of the harness's own helpers (no canopus code involved). Build the
// benchmark package and run `ctest` (or ./perfbench_selftest) in its build
// directory; exits non-zero on any failed check.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("  FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);   \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void quantile_reports_value_and_sample_count() {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // unsorted input
  const Quantile p50 = quantile(xs, 0.5);
  const Quantile p90 = quantile(xs, 0.9);
  CHECK(p50.value == 50.0 && p50.samples == 100);
  CHECK(p90.value == 90.0 && p90.samples == 100);
  CHECK(quantile(xs, 1.0).value == 100.0);
  CHECK(quantile(xs, 0.0).value == 1.0);
  CHECK(quantile({}, 0.9).samples == 0);
  CHECK(quantile({7.0}, 0.9).value == 7.0);
  CHECK(median({3.0, 1.0, 2.0, 10.0}) == 2.5);
  CHECK(mean({1.0, 2.0, 6.0}) == 3.0);
}

void rng_and_zipf_are_deterministic() {
  Rng a(42), b(42), c(43);
  bool same = true, differs = false;
  for (int i = 0; i < 100; ++i) {
    const auto x = a.next();
    same = same && x == b.next();
    differs = differs || x != c.next();
  }
  CHECK(same);
  CHECK(differs);
  CHECK(derive_seed(1, 2) == derive_seed(1, 2));
  CHECK(derive_seed(1, 2) != derive_seed(1, 3));

  const Zipf zipf(5, 1.2);
  Rng r1(9), r2(9);
  std::vector<std::size_t> counts(5, 0);
  for (int i = 0; i < 20000; ++i) {
    const auto k = zipf.sample(r1);
    CHECK(k == zipf.sample(r2));
    CHECK(k < 5);
    ++counts[k];
  }
  // Popularity falls with rank, close to the Zipf(1.2) weights.
  for (std::size_t k = 1; k < 5; ++k) CHECK(counts[k] < counts[k - 1]);
  double norm = 0.0;
  for (int k = 1; k <= 5; ++k) norm += 1.0 / std::pow(k, 1.2);
  CHECK(std::fabs(counts[0] / 20000.0 - 1.0 / norm) < 0.02);
  CHECK(throws([] { Zipf(0, 1.0); }));
}

void deck_keeps_the_mix_in_every_block() {
  const std::vector<std::size_t> mix = {2, 3, 5};
  const auto a = seeded_deck(5, mix, 95);
  CHECK(a == seeded_deck(5, mix, 95));
  CHECK(a != seeded_deck(6, mix, 95));
  CHECK(a.size() == 95);
  for (std::size_t block = 0; block + 10 <= a.size(); block += 10) {
    std::vector<std::size_t> counts(3, 0);
    for (std::size_t i = block; i < block + 10; ++i) ++counts[a[i]];
    CHECK(counts[0] == 2 && counts[1] == 3 && counts[2] == 5);
  }
  CHECK(throws([] { seeded_deck(1, {}, 10); }));
}

void schedule_is_seeded_sorted_and_at_rate() {
  const auto a = arrival_schedule(3, 50.0, 20.0, 2.5, 4);
  CHECK(a.size() == arrival_schedule(3, 50.0, 20.0, 2.5, 4).size());
  bool same = true;
  const auto b = arrival_schedule(3, 50.0, 20.0, 2.5, 4);
  for (std::size_t i = 0; i < a.size(); ++i) same = same && a[i].due == b[i].due;
  CHECK(same);
  const auto c = arrival_schedule(4, 50.0, 20.0, 2.5, 4);
  CHECK(c.front().due != a.front().due);
  std::size_t bursts = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    CHECK(a[i].due >= 0.0 && a[i].due < 20.0);
    if (i > 0) CHECK(a[i - 1].due <= a[i].due);
    if (a[i].burst) ++bursts;
  }
  CHECK(bursts == 7 * 4);  // bursts at 2.5, 5, ..., 17.5
  CHECK(a.size() - bursts == 1000);  // exactly rate x duration
  std::size_t first_second = 0;
  for (const auto& x : a) first_second += !x.burst && x.due < 1.0;
  CHECK(first_second == 50);
  CHECK(throws([] { arrival_schedule(1, 0.0, 1.0, 0.0, 0); }));
}

void error_bound_gate_catches_a_corrupted_restore() {
  std::vector<double> original(1000), restored(1000);
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = std::sin(0.01 * static_cast<double>(i));
    restored[i] = original[i] + ((i % 2) ? 3.9e-4 : -3.9e-4);  // within 4 x 1e-4
  }
  double worst = 0.0;
  CHECK(within_error_bound(restored, original, 4, 1e-4, &worst));
  CHECK(std::fabs(worst - 3.9e-4) < 1e-12);
  auto corrupted = restored;
  corrupted[517] += 1e-3;
  CHECK(!within_error_bound(corrupted, original, 4, 1e-4));
  corrupted = restored;
  corrupted[3] = std::numeric_limits<double>::quiet_NaN();
  CHECK(!within_error_bound(corrupted, original, 4, 1e-4));
  corrupted = restored;
  corrupted.pop_back();
  CHECK(!within_error_bound(corrupted, original, 4, 1e-4));
}

void identity_gate_catches_a_corrupted_answer() {
  const std::vector<double> answer = {1.0, -2.5, 0.0, 3.25};
  auto same = answer;
  CHECK(bitwise_equal(answer, same));
  CHECK(fingerprint(answer) == fingerprint(same));
  auto flipped = answer;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &flipped[1], sizeof bits);
  bits ^= 1;  // one ulp
  std::memcpy(&flipped[1], &bits, sizeof bits);
  CHECK(!bitwise_equal(answer, flipped));
  CHECK(fingerprint(answer) != fingerprint(flipped));
  auto negzero = answer;
  negzero[2] = -0.0;  // numerically equal, not bitwise
  CHECK(!bitwise_equal(answer, negzero));
  CHECK(fingerprint(answer) != fingerprint(negzero));
  CHECK(fingerprint(std::vector<double>{}) != fingerprint(std::vector<double>{0.0}));
}

void backlog_check_flags_growth_only() {
  std::vector<double> t, flat, growing;
  for (int i = 0; i < 100; ++i) {
    t.push_back(0.1 * i);
    flat.push_back(i % 3);                 // bounded oscillation
    growing.push_back(0.8 * i);            // +8 per second
  }
  CHECK(!backlog_growing(t, flat, 1.0, 4.0));
  CHECK(backlog_growing(t, growing, 1.0, 4.0));
  CHECK(std::fabs(backlog_slope(t, growing) - 8.0) < 1e-9);
  CHECK(backlog_slope({1.0}, {5.0}) == 0.0);
}

void result_json_is_one_valid_line() {
  Result r;
  r.correct = true;
  r.attempted = 12;
  r.failed = 1;
  r.add("latency_ms", 1.25, "ms");
  r.add("setup_s", 0.5, "s");
  const std::string json = to_json(r);
  CHECK(json ==
        "{\"correct\": true, \"attempted\": 12, \"failed\": 1, \"metrics\": "
        "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": "
        "{\"value\": 0.5, \"unit\": \"s\"}}}");
  CHECK(json.find('\n') == std::string::npos);
  CHECK(r.metric("setup_s").value == 0.5);
  CHECK(throws([&] { (void)r.metric("missing"); }));
  // Every digit is kept.
  Result precise;
  precise.add("x", 0.1 + 0.2, "s");
  CHECK(to_json(precise).find("0.30000000000000004") != std::string::npos);
  Result bad;
  bad.add("x", std::numeric_limits<double>::infinity(), "s");
  CHECK(throws([&] { to_json(bad); }));
  Result dup;
  dup.add("x", 1, "s");
  dup.add("x", 2, "s");
  CHECK(throws([&] { to_json(dup); }));
}

void tracer_self_time_excludes_children() {
  using Clock = Tracer::Clock;
  const auto t0 = Clock::now();
  auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  // op [0,100) > a [10,50) > b [20,30); op > c [60,90)
  const std::vector<Tracer::Record> recs = {
      {"op", at(0), at(100), Tracer::kNoParent, 1},
      {"a", at(10), at(50), 0, 1},
      {"b", at(20), at(30), 1, 1},
      {"c", at(60), at(90), 0, 1},
  };
  const auto self = self_seconds(recs);
  CHECK(std::fabs(self.at("op") - 0.030) < 1e-9);
  CHECK(std::fabs(self.at("a") - 0.030) < 1e-9);
  CHECK(std::fabs(self.at("b") - 0.010) < 1e-9);
  CHECK(std::fabs(self.at("c") - 0.030) < 1e-9);

  Tracer on(true), off(false);
  {
    Tracer::Span outer(on, "outer");
    Tracer::Span inner(on, "inner");
    Tracer::Span ignored(off, "outer");
  }
  CHECK(on.span_count() == 2);
  CHECK(off.span_count() == 0);
  CHECK(on.records()[1].parent == 0);
  CHECK(on.total_seconds("outer") >= on.total_seconds("inner"));
}

}  // namespace

int main() {
  const std::vector<std::pair<const char*, void (*)()>> tests = {
      {"quantile_reports_value_and_sample_count", quantile_reports_value_and_sample_count},
      {"rng_and_zipf_are_deterministic", rng_and_zipf_are_deterministic},
      {"deck_keeps_the_mix_in_every_block", deck_keeps_the_mix_in_every_block},
      {"schedule_is_seeded_sorted_and_at_rate", schedule_is_seeded_sorted_and_at_rate},
      {"error_bound_gate_catches_a_corrupted_restore",
       error_bound_gate_catches_a_corrupted_restore},
      {"identity_gate_catches_a_corrupted_answer", identity_gate_catches_a_corrupted_answer},
      {"backlog_check_flags_growth_only", backlog_check_flags_growth_only},
      {"result_json_is_one_valid_line", result_json_is_one_valid_line},
      {"tracer_self_time_excludes_children", tracer_self_time_excludes_children},
  };
  for (const auto& [name, fn] : tests) {
    const int before = g_failures;
    fn();
    std::printf("%s %s\n", g_failures == before ? "ok  " : "FAIL", name);
  }
  std::printf("%d failed checks\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
