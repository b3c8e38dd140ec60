// `serve`: mixed open loop. Queries arrive on a seeded schedule (a fixed
// rate with seeded jitter plus a small flash-crowd burst every second) through
// the pipeline's QueryScheduler, served from a 2-node fabric whose fast tiers
// are too small for every product. One non-burst query in four is a
// high-priority preview whose retrieval budget admits no refinement step, so
// the elastic floor answers it with the base; the rest ask for full accuracy
// under a budget above the slowest full read. Halfway through, the hot set
// shifts to other timesteps, which sit on the contended tier until the tier
// advisor's next tick promotes them. Beside the readers, one writer thread
// ingests a new timestep every second (staging write + fabric import). This
// is the only workload that runs serve, fabric and tiering, and the only one
// where writes and reads contend.
//
// The advisor is ticked by the load generator every quarter of the window of
// schedule time instead of by its wall-clock thread, so when placement
// changes follows the query sequence and the run repeats: the new hot set is
// promoted at the tick three quarters through.
//
// Open-loop hygiene: every query is timed from when it was due (so a stall
// delays later queries too), generator lateness is recorded, a refused
// submission is resubmitted after a short backoff (its latency still counts
// from the original due time), and the queue depth sampled at each
// submission is checked for growth over the steady-state window.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <stop_token>
#include <thread>

#include "adios/bp.hpp"
#include "fabric/fabric.hpp"
#include "serve/query_scheduler.hpp"
#include "tiering/tier_advisor.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSteps = 6;            // pre-written timesteps
constexpr std::size_t kHotSet = 3;           // timesteps per hot set
constexpr double kRate = 80.0;               // scheduled arrivals per second
constexpr double kBurstPeriod = 1.0;         // seconds between bursts
constexpr std::size_t kBurstSize = 6;        // arrivals per burst
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kQueueLimit = 3;
constexpr std::size_t kThreads = 1;          // session pool
constexpr std::size_t kNodes = 2;
constexpr double kWriteCadence = 1.0;        // seconds between ingests
constexpr double kRetryBackoff = 0.02;       // seconds before resubmitting
constexpr double kPreviewDeadline = 1e-5;    // below any base retrieval
constexpr int kPreviewPriority = 8;
constexpr double kDeadlineMargin = 4.0;      // x one full read's compute
constexpr double kZipfExponent = 1.2;
constexpr std::size_t kWarmupQueries = 30;

struct ServeState {
  std::vector<MeshCase> meshes;  // XGC1 only
  std::unique_ptr<storage::StorageHierarchy> staging;
  std::unique_ptr<Pipeline> staging_pipeline;
  std::unique_ptr<fabric::Fabric> fabric;
  std::unique_ptr<Pipeline> pipeline;  // declared after fabric: destroyed first
  std::vector<std::string> paths;
  std::vector<std::unique_ptr<core::GeometryCache>> geometry;
  double full_deadline = 0.0;
  double worst_io = 0.0;  // every product of every container, slow tier
  std::size_t fast_capacity = 0;
  std::size_t cache_budget = 0;
};

std::vector<storage::TierSpec> staging_specs() {
  auto spec = storage::tmpfs_spec(16ull << 30);
  spec.name = "staging";  // keeps staging traffic out of the node tier counters
  return {spec};
}

std::unique_ptr<ServeState> set_up(const Args& args) {
  auto s = std::make_unique<ServeState>();
  s->meshes = make_meshes(args.seed, kSteps, {"xgc1"});
  const MeshCase& mc = s->meshes.front();
  s->staging = std::make_unique<storage::StorageHierarchy>(staging_specs());
  s->staging_pipeline =
      std::make_unique<Pipeline>(*s->staging, Options{}.with_threads(1));
  for (std::size_t t = 0; t < kSteps; ++t) {
    s->paths.push_back("serve/t" + std::to_string(t) + ".bp");
    const Status st =
        s->staging_pipeline->write(write_request(mc, mc.steps[t], s->paths.back()));
    if (!st.ok()) throw std::runtime_error("setup write failed: " + st.to_string());
    s->geometry.push_back(std::make_unique<core::GeometryCache>(
        core::GeometryCache::load(*s->staging, s->paths.back(), mc.dataset.variable)));
  }
  // Fast tiers hold a quarter of one node's share of the products.
  s->fast_capacity = stored_bytes(*s->staging) / (4 * kNodes);
  fabric::FabricOptions fo;
  fo.nodes = kNodes;
  fo.eviction_high = 0.9;
  fo.eviction_low = 0.7;
  fo.eviction_interval_seconds = 0.25;
  s->fabric = std::make_unique<fabric::Fabric>(fo, two_tier_specs(s->fast_capacity));
  // Each node cache is as large as the compressed products: blobs fit, but
  // not blobs and decoded chunk arrays together.
  std::size_t products = 0;
  const storage::TierSpec slow = two_tier_specs(0).back();
  for (const auto& path : s->paths) {
    const adios::BpReader reader(*s->staging, path);
    for (const auto& b : reader.inq_var(mc.dataset.variable).blocks) {
      if (b.kind == adios::BlockKind::kBase || b.kind == adios::BlockKind::kDelta) {
        products += b.stored_bytes;
        // Worst case: every block on the contended tier, read one by one.
        s->worst_io += slow.read_latency +
                       static_cast<double>(b.stored_bytes) / slow.read_bandwidth;
      }
    }
  }
  s->cache_budget = products;
  s->fabric->attach_node_caches(cache::CacheConfig{s->cache_budget, 8, false});
  for (const auto& path : s->paths) s->fabric->import_container(*s->staging, path);

  Options options;
  options.parallel.threads = kThreads;
  serve::ServeConfig sc;
  sc.workers = kWorkers;
  sc.queue_limit = kQueueLimit;
  options.serve = sc;
  tiering::TieringConfig tc;
  tc.enabled = false;  // ticked by the load generator
  tc.half_life_seconds = 1.0;
  tc.promote_threshold = 2.0;
  tc.demote_threshold = 0.5;
  tc.reserve = 0.1;
  options.tiering = tc;
  s->pipeline = std::make_unique<Pipeline>(s->fabric->node(0), options);
  const Status attached = s->pipeline->attach_fabric(s->fabric.get());
  if (!attached.ok()) throw std::runtime_error("attach_fabric: " + attached.to_string());
  for (const auto& path : s->paths) s->pipeline->tier_advisor().register_container(path);

  // Generous budget: the slowest possible full read (every block of a
  // container on the contended tier) plus a multiple of one read's compute.
  ReadRequest probe;
  probe.path = s->paths.front();
  probe.var = mc.dataset.variable;
  probe.geometry = s->geometry.front().get();
  ReadResult out;
  const Status st = s->staging_pipeline->read(probe, &out);
  if (!st.ok()) throw std::runtime_error("probe read failed: " + st.to_string());
  s->full_deadline = s->worst_io / static_cast<double>(kSteps) +
                     kDeadlineMargin * out.timings.total();

  // Warm-up: a closed loop over the first hot set, so the timed window
  // starts with the caches filled and the hot set promoted.
  for (std::size_t i = 0; i < kWarmupQueries; ++i) {
    serve::QueryRequest req;
    req.path = s->paths[i % kHotSet];
    req.var = mc.dataset.variable;
    req.geometry = s->geometry[i % kHotSet].get();
    req.deadline_seconds = s->full_deadline;
    serve::QueryResult r;
    const Status ws = s->pipeline->submit_query(req, &r);
    if (!ws.usable()) throw std::runtime_error("warm-up query failed: " + ws.to_string());
  }
  s->pipeline->tier_advisor().tick();
  return s;
}

/// The node caches' counters, summed.
cache::BlockCache::Stats cache_stats(fabric::Fabric& fabric) {
  cache::BlockCache::Stats sum;
  for (std::size_t i = 0; i < fabric.node_count(); ++i) {
    if (auto* c = fabric.node_cache(i)) {
      const auto st = c->stats();
      sum.hits += st.hits;
      sum.misses += st.misses;
      sum.evictions += st.evictions;
      sum.single_flight_waits += st.single_flight_waits;
    }
  }
  return sum;
}

struct Planned {
  double due = 0.0;       // seconds after the window opened
  std::size_t container = 0;
  bool preview = false;
};

struct InFlight {
  Planned plan;
  double submitted = 0.0;  // seconds after the window opened
  std::future<serve::QueryOutcome> future;
};

struct Answer {
  std::size_t container = 0;
  std::uint32_t level = 0;
  std::uint64_t fingerprint = 0;
};

}  // namespace

Result run_serve(const Args& args) {
  std::unique_ptr<ServeState> state;
  const double setup_s = repeated_setup<std::unique_ptr<ServeState>>(
      3, [&] { return set_up(args); }, &state);
  ServeState& s = *state;
  const MeshCase& mc = s.meshes.front();
  auto& scheduler = s.pipeline->query_scheduler();

  // The schedule: jittered fixed rate + bursts; about one non-burst arrival
  // in four (seeded order) is a preview; the timestep is Zipf-skewed over the
  // first hot set in the first half of the window and over the second after.
  std::vector<Planned> plan;
  {
    const auto arrivals = arrival_schedule(derive_seed(args.seed, 20), kRate,
                                           args.seconds, kBurstPeriod, kBurstSize);
    const auto preview = seeded_deck(derive_seed(args.seed, 21), {3, 1}, arrivals.size());
    Rng rng(derive_seed(args.seed, 22));
    const Zipf zipf(kHotSet, kZipfExponent);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const std::size_t hot = arrivals[i].due < args.seconds / 2 ? 0 : kHotSet;
      plan.push_back({arrivals[i].due, hot + zipf.sample(rng),
                      !arrivals[i].burst && preview[i] == 1});
    }
  }
  std::cout << "mesh " << mc.dataset.name << ": " << mc.dataset.mesh.vertex_count()
            << " vertices, " << kSteps << " timesteps pre-written, hot set of "
            << kHotSet << " shifting at " << args.seconds / 2 << " s\n"
            << "config: " << kNodes << "-node fabric, fast tier " << s.fast_capacity
            << " B per node (a quarter of a node's share), node cache "
            << s.cache_budget << " B (the compressed products), advisor ticked every "
            << args.seconds / 4 << " s, "
            << kWorkers << " serve workers, queue limit " << kQueueLimit
            << ", session pool threads " << kThreads
            << ", 1 generator thread, 1 writer thread (a timestep every "
            << kWriteCadence << " s, between bursts)\n"
            << "load: " << kRate << " q/s jittered + " << kBurstSize
            << " every " << kBurstPeriod << " s = " << plan.size()
            << " arrivals; previews (1 in 4, priority " << kPreviewPriority
            << ") budget " << kPreviewDeadline << " s, full-accuracy budget "
            << s.full_deadline << " s on the retrieval clock; shed retry after "
            << kRetryBackoff << " s\n";

  if (args.trace) {
    obs::ObservabilityOptions o;
    o.enabled = true;
    obs::install(o);
  }
  const LibraryCounters counters_before = LibraryCounters::read();
  const auto cache_before = cache_stats(*s.fabric);
  const auto fab_before = s.fabric->stats();
  const auto tiering_before = s.pipeline->tiering_report();

  // --- Writer thread: a new timestep every kWriteCadence seconds, half a
  // period out of phase with the bursts so the two do not always collide. ---
  WriteLog writes;
  const double staged_before = static_cast<double>(stored_bytes(*s.staging));
  std::mutex writer_mu;
  std::condition_variable_any writer_cv;
  std::string writer_error;
  const auto window = Tracer::Clock::now();
  // A jthread: leaving this scope early (an exception) stops and joins it.
  std::jthread writer([&](std::stop_token stop) {
    try {
      for (std::size_t k = 1;; ++k) {
        const auto due = window + std::chrono::duration<double>(
                                      kWriteCadence * (static_cast<double>(k) - 0.5));
        {
          std::unique_lock lock(writer_mu);
          writer_cv.wait_until(lock, stop, due, [] { return false; });
        }
        if (stop.stop_requested()) return;
        const std::string path = "serve/new" + std::to_string(k) + ".bp";
        const auto start = Tracer::Clock::now();
        WriteResult wres;
        const Status st = s.staging_pipeline->write(
            write_request(mc, mc.steps[k % kSteps], path), &wres);
        writes.record(st, static_cast<double>(mc.raw_bytes()), since(start),
                      st.ok() ? wres.report.phases.get("io") : 0.0);
        writes.end_round();
        if (st.ok()) {
          s.fabric->import_container(*s.staging, path);
          s.pipeline->tier_advisor().register_container(path);
        }
      }
    } catch (const std::exception& e) {
      std::scoped_lock lock(writer_mu);
      writer_error = e.what();
    }
  });

  // --- Generator: submit on schedule, collect completions. ------------------
  QueryLog queries;
  std::vector<Answer> answers;
  std::vector<double> lag, queue_wait, depth_t, depth_v;
  std::uint64_t plan_hits = 0, full_checked = 0;
  double levels_read = 0.0;
  bool gate_ok = true;
  std::vector<InFlight> inflight;
  using Retry = std::pair<double, Planned>;  // (resubmit at, query)
  auto later = [](const Retry& a, const Retry& b) { return a.first > b.first; };
  std::priority_queue<Retry, std::vector<Retry>, decltype(later)> retries(later);

  // Rounds are the window's seconds, by due time (a resubmitted query may
  // land in a later round).
  std::size_t round = 0;
  auto collect = [&](InFlight& f) {
    const serve::QueryOutcome outcome = f.future.get();
    if (outcome.status.code == StatusCode::kOverloaded) {
      ++queries.shed;
      retries.push({since(window) + kRetryBackoff, f.plan});
      return;
    }
    for (; round < static_cast<std::size_t>(f.plan.due); ++round) {
      queries.end_round(1.0);
    }
    ++queries.attempted;
    if (!outcome.status.usable()) {
      ++queries.failed;
      return;
    }
    const auto& r = outcome.result;
    const double latency =
        (f.submitted - f.plan.due) + r.queue_seconds + r.timings.total();
    queries.latency.push_back(latency);
    queries.io_sim.push_back(r.timings.io_seconds);
    queries.cpu.push_back(r.timings.decompress_seconds + r.timings.restore_seconds);
    queue_wait.push_back(r.queue_seconds);
    levels_read += static_cast<double>(kLevels - 1 - r.achieved_level);
    if (r.planned_level == r.achieved_level) ++plan_hits;
    if (r.achieved_level <= r.target_level) {
      ++queries.on_target;
      if (r.timings.total() <= r.deadline_seconds) ++queries.good;
    }
    answers.push_back({f.plan.container, r.achieved_level, fingerprint(r.values)});
    if (r.achieved_level == 0 && f.plan.container < kSteps) {
      ++full_checked;
      double worst = 0.0;
      if (!within_error_bound(r.values, mc.steps[f.plan.container], kLevels,
                              mc.error_bound, &worst)) {
        gate_ok = false;
        std::cout << "FAIL: served " << s.paths[f.plan.container]
                  << " at full accuracy with error " << worst << "\n";
      }
    }
  };
  auto submit = [&](const Planned& p, double scheduled) {
    serve::QueryRequest req;
    req.path = s.paths[p.container];
    req.var = mc.dataset.variable;
    req.geometry = s.geometry[p.container].get();
    req.target_level = 0;
    req.priority = p.preview ? kPreviewPriority : 0;
    req.deadline_seconds = p.preview ? kPreviewDeadline : s.full_deadline;
    const double now = since(window);
    lag.push_back(now - scheduled);
    depth_t.push_back(now);
    depth_v.push_back(static_cast<double>(scheduler.queue_depth()));
    ++queries.submissions;
    inflight.push_back({p, now, scheduler.submit(std::move(req))});
  };
  auto reap = [&](bool wait) {
    for (std::size_t i = 0; i < inflight.size();) {
      if (wait || inflight[i].future.wait_for(std::chrono::seconds(0)) ==
                      std::future_status::ready) {
        collect(inflight[i]);
        inflight[i] = std::move(inflight.back());
        inflight.pop_back();
      } else {
        ++i;
      }
    }
  };

  std::size_t next = 0;
  const double tick_period = args.seconds / 4;
  double next_tick = tick_period;
  while (next < plan.size() || !retries.empty() || !inflight.empty()) {
    const double due_arrival = next < plan.size() ? plan[next].due : 1e300;
    const double due_retry = retries.empty() ? 1e300 : retries.top().first;
    const double due = std::min(due_arrival, due_retry);
    if (due == 1e300) {
      reap(true);
      continue;
    }
    // Sleep in short steps so completions are reaped (and sheds retried)
    // while waiting for the next due time.
    while (since(window) < due) {
      reap(false);
      const double left = due - since(window);
      if (left > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::min(left, 0.002)));
      }
    }
    while (next_tick <= due) {
      s.pipeline->tier_advisor().tick();
      next_tick += tick_period;
    }
    if (due_retry <= due_arrival) {
      const Planned p = retries.top().second;
      retries.pop();
      submit(p, due_retry);
    } else {
      submit(plan[next], plan[next].due);
      ++next;
    }
    reap(false);
  }
  queries.end_round(1.0);
  const double window_s = since(window);
  writer.request_stop();
  writer.join();
  if (!writer_error.empty()) throw std::runtime_error("writer: " + writer_error);
  writes.stored_bytes = static_cast<double>(stored_bytes(*s.staging)) - staged_before;

  // --- Gate: every answer bitwise-identical to an unscheduled read. ---------
  std::map<std::pair<std::size_t, std::uint32_t>, std::uint64_t> reference;
  for (const auto& a : answers) {
    auto [it, fresh] = reference.try_emplace({a.container, a.level}, 0);
    if (fresh) {
      ReadRequest req;
      req.path = s.paths[a.container];
      req.var = mc.dataset.variable;
      req.target_level = a.level;
      req.geometry = s.geometry[a.container].get();
      ReadResult out;
      const Status st = s.staging_pipeline->read(req, &out);
      if (!st.ok() || out.level != a.level) {
        throw std::runtime_error("reference read failed: " + st.to_string());
      }
      it->second = fingerprint(out.values);
    }
    if (it->second != a.fingerprint) {
      gate_ok = false;
      std::cout << "FAIL: served answer for " << s.paths[a.container] << " at level "
                << a.level << " differs from the unscheduled read\n";
    }
  }
  const double warmup = 0.1 * args.seconds;
  const bool growing =
      backlog_growing(depth_t, depth_v, warmup, static_cast<double>(kQueueLimit) / 2);
  const Quantile lag90 = quantile(lag, 0.9);
  std::cout << "gate: " << answers.size() << " answers checked against "
            << reference.size() << " unscheduled reads, " << full_checked
            << " full-accuracy answers against the error bound\n"
            << "loadgen: lag p90 " << lag90.value << " s over " << lag90.samples
            << " submissions; backlog "
            << (growing ? "GROWING over the steady-state window"
                        : "steady over the steady-state window")
            << " (slope " << backlog_slope(depth_t, depth_v) << " q/s)\n";

  Result result;
  result.correct = gate_ok;
  result.attempted = queries.attempted + writes.writes + writes.failed;
  result.failed = queries.failed + writes.failed;
  if (!args.trace) {
    result.add("setup_s", setup_s, "s");
    writes.emit(result);
    queries.emit(result, window_s);
    return result;
  }

  const double n = std::max(1.0, static_cast<double>(queries.latency.size()));
  const auto cache = cache_stats(*s.fabric);
  const auto fab = s.fabric->stats();
  const auto tiering = s.pipeline->tiering_report();
  result.add("core.levels_read", levels_read / n, "count");
  LibraryCounters::read().emit_since(counters_before, n, result);
  const double lookups =
      static_cast<double>(cache.hits + cache.misses - cache_before.hits -
                          cache_before.misses);
  result.add("cache.hit_ratio",
             lookups > 0.0 ? static_cast<double>(cache.hits - cache_before.hits) / lookups
                           : 0.0,
             "ratio");
  result.add("cache.evictions",
             static_cast<double>(cache.evictions - cache_before.evictions), "count");
  result.add("cache.single_flight_waits",
             static_cast<double>(cache.single_flight_waits -
                                 cache_before.single_flight_waits),
             "count");
  const double remote = static_cast<double>(fab.remote_reads - fab_before.remote_reads);
  const double resolved =
      remote + static_cast<double>(fab.local_hits - fab_before.local_hits);
  result.add("fabric.remote_frac", resolved > 0.0 ? remote / resolved : 0.0, "ratio");
  result.add("fabric.evictions",
             static_cast<double>(fab.evictions - fab_before.evictions), "count");
  result.add("tiering.promotions",
             static_cast<double>(tiering.promotions - tiering_before.promotions),
             "count");
  result.add("tiering.demotions",
             static_cast<double>(tiering.demotions - tiering_before.demotions), "count");
  result.add("serve.queue_s_p90", quantile(queue_wait, 0.9).value, "s");
  result.add("serve.queue_depth_max",
             static_cast<double>(scheduler.stats().max_queue_depth), "count");
  result.add("serve.plan_hit_ratio", static_cast<double>(plan_hits) / n, "ratio");
  result.add("loadgen.lag_s_p90", lag90.value, "s");
  result.add("loadgen.backlog_slope", backlog_slope(depth_t, depth_v), "1/s");
  return result;
}

}  // namespace perfbench
