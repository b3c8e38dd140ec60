// `explore`: read only, one closed-loop client. Every timestep of every
// paper mesh is written during setup; the client then issues a seeded mix of
// analysis queries (base only, next level, RMSE-terminated, region of
// interest, full accuracy with blob detection) over the containers, the
// timestep Zipf-skewed. The block cache budget is smaller than the
// compressed working set, deltas are chunked and fetched through an IoRing
// of depth > 1, and the deltas sit on the contended PFS tier: the run goes
// storage-read -> io -> cache -> compress-decode -> core-restore ->
// analytics. Its write-side figures come from the setup writes.
//
// The traced run replays each query's read path layer by layer against an
// uncached copy of the containers (the public calls ProgressiveReader makes:
// fetch, decode, Morton un-permute, restore, then the analytics), traced and
// untraced, and reads the library's storage, cache, reader and pool counters
// across the facade queries.

#include <algorithm>
#include <future>
#include <iostream>
#include <memory>
#include <optional>

#include "adios/bp.hpp"
#include "analytics/blob.hpp"
#include "analytics/raster.hpp"
#include "core/delta.hpp"
#include "core/geometry_cache.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTimesteps = 4;
constexpr std::size_t kThreads = 2;
constexpr double kZipfExponent = 1.2;
constexpr std::uint32_t kIoDepth = 4;
constexpr std::size_t kRasterPx = 192;

enum Kind : std::size_t { kBaseOnly, kNextLevel, kRmse, kRoi, kFullBlobs, kKinds };
const char* kKindNames[kKinds] = {"base-only", "next-level", "rmse-threshold",
                                  "roi", "full+blobs"};
/// Queries of each kind per mesh in every block of the query deck. Full
/// reads of the largest mesh are 15% of the queries, so query_s_p90 falls
/// inside that class rather than on the edge between two classes.
const std::vector<std::size_t> kKindMix = {2, 3, 3, 3, 9};

struct Container {
  std::size_t mesh = 0;
  std::size_t step = 0;
  std::string path;
  core::GeometryCache geometry;
};

struct ExploreState {
  std::vector<MeshCase> meshes;
  std::unique_ptr<storage::StorageHierarchy> tiers;
  std::unique_ptr<Pipeline> pipeline;
  std::vector<Container> containers;  // mesh-major: mesh * kTimesteps + step
  std::size_t working_set = 0;  // compressed base + delta bytes
  std::size_t cache_budget = 0;
  // Traced run only: the same containers in an uncached hierarchy.
  std::unique_ptr<storage::StorageHierarchy> replay_tiers;
  std::vector<core::GeometryCache> replay_geometry;
};

std::unique_ptr<ExploreState> set_up(const Args& args, WriteLog& writes) {
  auto s = std::make_unique<ExploreState>();
  s->meshes = make_meshes(args.seed, kTimesteps);
  // Staging pass: size the working set, then build the measured pipeline
  // with a cache budget below it.
  s->tiers = std::make_unique<storage::StorageHierarchy>(two_tier_specs(16ull << 30));
  {
    Pipeline writer(*s->tiers, Options{}.with_threads(kThreads));
    for (std::size_t m = 0; m < s->meshes.size(); ++m) {
      const auto& mc = s->meshes[m];
      for (std::size_t t = 0; t < kTimesteps; ++t) {
        const std::string path =
            "explore/" + mc.dataset.name + "/t" + std::to_string(t) + ".bp";
        WriteResult wres;
        const auto start = Tracer::Clock::now();
        const Status st = writer.write(write_request(mc, mc.steps[t], path), &wres);
        writes.record(st, static_cast<double>(mc.raw_bytes()), since(start),
                      wres.report.phases.get("io"));
        if (!st.ok()) throw std::runtime_error("setup write failed: " + st.to_string());
        s->containers.push_back({m, t, path, {}});
        const adios::BpReader reader(*s->tiers, path);
        for (const auto& b : reader.inq_var(mc.dataset.variable).blocks) {
          if (b.kind == adios::BlockKind::kBase || b.kind == adios::BlockKind::kDelta) {
            s->working_set += b.stored_bytes;
          }
        }
      }
    }
  }
  writes.end_round();
  writes.stored_bytes += static_cast<double>(stored_bytes(*s->tiers));
  for (auto& c : s->containers) {
    c.geometry = core::GeometryCache::load(*s->tiers, c.path,
                                           s->meshes[c.mesh].dataset.variable);
  }
  s->cache_budget = s->working_set / 3;
  Options options;
  options.parallel.threads = kThreads;
  options.cache = cache::CacheConfig{s->cache_budget, 8, false};
  options.io.depth = kIoDepth;
  options.io.batch = 4;
  s->pipeline = std::make_unique<Pipeline>(*s->tiers, options);

  if (args.trace) {
    s->replay_tiers =
        std::make_unique<storage::StorageHierarchy>(two_tier_specs(16ull << 30));
    Pipeline writer(*s->replay_tiers, Options{}.with_threads(kThreads));
    for (const auto& c : s->containers) {
      const auto& mc = s->meshes[c.mesh];
      if (!writer.write(write_request(mc, mc.steps[c.step], c.path)).ok()) {
        throw std::runtime_error("replay setup write failed");
      }
      s->replay_geometry.push_back(
          core::GeometryCache::load(*s->replay_tiers, c.path, mc.dataset.variable));
    }
  }
  return s;
}

analytics::BlobParams blob_params() {
  analytics::BlobParams p;
  p.min_threshold = 10;
  p.max_threshold = 200;
  p.threshold_step = 10;
  p.min_area = 100;
  return p;
}

/// Rasterize + blob detection (spans when `tr` is given); returns the wall
/// seconds both took.
double analyze(Tracer* tr, const MeshCase& mc, const mesh::TriMesh& m,
               const mesh::Field& values) {
  const auto start = Tracer::Clock::now();
  const auto bounds = mc.dataset.mesh.bounds();
  const auto [lo, hi] =
      std::minmax_element(mc.dataset.values.begin(), mc.dataset.values.end());
  std::vector<std::uint8_t> img;
  {
    std::optional<Tracer::Span> s;
    if (tr) s.emplace(*tr, "analytics.raster");
    const auto raster =
        analytics::rasterize(m, values, kRasterPx, kRasterPx, bounds, *lo);
    img = analytics::to_gray8(raster, *lo, *hi);
  }
  std::optional<Tracer::Span> s;
  if (tr) s.emplace(*tr, "analytics.blob");
  analytics::detect_blobs(img, kRasterPx, kRasterPx, blob_params());
  return since(start);
}

struct QueryPlan {
  Kind kind = kBaseOnly;
  std::size_t container = 0;
  mesh::Aabb roi;
};

struct QueryOut {
  Status status;
  std::uint32_t level = 0;
  core::RetrievalTimings timings;
  double analysis_s = 0.0;
  bool on_target = false;
};

/// One query through the facade. Full-accuracy answers are checked against
/// the written field (levels x error bound); `gate_ok` turns false on a
/// violation.
QueryOut run_query(ExploreState& s, const QueryPlan& q, bool& gate_ok) {
  const Container& c = s.containers[q.container];
  const MeshCase& mc = s.meshes[c.mesh];
  ReadRequest req;
  req.path = c.path;
  req.var = mc.dataset.variable;
  req.geometry = &c.geometry;
  const auto base = static_cast<std::uint32_t>(kLevels - 1);
  QueryOut out;
  ReadResult r;
  switch (q.kind) {
    case kBaseOnly:
      req.target_level = base;
      out.status = s.pipeline->read(req, &r);
      out.on_target = out.status.ok() && r.level == base;
      break;
    case kNextLevel: {
      std::unique_ptr<ReadSession> session;
      out.status = s.pipeline->open_session(req, &session);
      if (out.status.ok()) out.status = session->refine();
      if (session) {
        r.level = session->level();
        r.timings = session->timings();
      }
      out.on_target = out.status.ok() && r.level == base - 1;
      break;
    }
    case kRmse: {
      const auto [lo, hi] =
          std::minmax_element(mc.dataset.values.begin(), mc.dataset.values.end());
      req.rmse_threshold = 2e-3 * (*hi - *lo);
      out.status = s.pipeline->read(req, &r);
      out.on_target = out.status.ok();
      break;
    }
    case kRoi:
      req.roi = q.roi;
      out.status = s.pipeline->read(req, &r);
      out.on_target = out.status.ok() && r.level == base - 1;
      break;
    case kFullBlobs:
      req.target_level = 0;
      out.status = s.pipeline->read(req, &r);
      out.on_target = out.status.ok() && r.level == 0;
      if (out.status.usable()) {
        out.analysis_s = analyze(nullptr, mc, r.mesh, r.values);
        double worst = 0.0;
        if (r.level == 0 &&
            !within_error_bound(r.values, mc.steps[c.step], kLevels,
                                mc.error_bound, &worst)) {
          gate_ok = false;
          std::cout << "FAIL: " << c.path << " full-accuracy error " << worst
                    << " > " << kLevels << " x " << mc.error_bound << "\n";
        }
      }
      break;
    case kKinds:
      break;
  }
  out.level = r.level;
  out.timings = r.timings;
  return out;
}

/// The read path of one answered query, call by call, against the uncached
/// replay hierarchy: base fetch + decode, then per level the chunk fetches,
/// decodes, Morton un-permute and restore, then the analytics.
void replay_query(Tracer& tr, util::ThreadPool& pool, ExploreState& s,
                  const QueryPlan& q, std::uint32_t achieved) {
  const Container& c = s.containers[q.container];
  const MeshCase& mc = s.meshes[c.mesh];
  const auto& geo = s.replay_geometry[q.container];
  const std::string& var = mc.dataset.variable;
  std::optional<adios::BpReader> reader;
  {
    Tracer::Span sp(tr, "adios.open");
    reader.emplace(*s.replay_tiers, c.path);
  }
  auto level = static_cast<std::uint32_t>(kLevels - 1);
  adios::BpReader::RawChunk raw;
  {
    Tracer::Span sp(tr, "storage.read");
    raw = reader->fetch_chunk(var, adios::BlockKind::kBase, level, 0);
  }
  mesh::Field values;
  {
    Tracer::Span sp(tr, "compress.decode");
    values = adios::BpReader::decode_chunk(raw.record, raw.payload);
  }
  while (level > achieved) {
    const std::uint32_t next = level - 1;
    std::vector<std::uint32_t> chunks;
    std::vector<adios::BpReader::RawChunk> fetched;
    {
      Tracer::Span sp(tr, "storage.read");
      if (q.kind == kRoi) {
        const auto bytes =
            reader->read_opaque(var, adios::BlockKind::kChunkIndex, next);
        util::ByteReader in(bytes);
        chunks = core::ChunkIndex::deserialize(in).intersecting(q.roi);
      } else {
        for (std::uint32_t k = 0; k < kDeltaChunks; ++k) chunks.push_back(k);
      }
      for (std::uint32_t k : chunks) {
        fetched.push_back(reader->fetch_chunk(var, adios::BlockKind::kDelta, next, k));
      }
    }
    mesh::Field stored(geo.meshes[next].vertex_count(), 0.0);
    {
      Tracer::Span sp(tr, "compress.decode");
      std::vector<std::future<std::vector<double>>> decoded;
      for (const auto& f : fetched) {
        decoded.push_back(pool.submit(
            [&f] { return adios::BpReader::decode_chunk(f.record, f.payload); }));
      }
      // Chunk k holds its contiguous range of the Morton order; a chunk an
      // ROI read skips leaves zeros, i.e. the estimate alone.
      for (std::size_t k = 0; k < fetched.size(); ++k) {
        const auto part = decoded[k].get();
        const std::size_t start = stored.size() * chunks[k] / kDeltaChunks;
        std::copy(part.begin(), part.end(),
                  stored.begin() + static_cast<std::ptrdiff_t>(start));
      }
    }
    mesh::Field delta(stored.size());
    {
      Tracer::Span sp(tr, "core.order");
      const auto& order = geo.order(next);
      for (std::size_t p = 0; p < order.size(); ++p) delta[order[p]] = stored[p];
    }
    {
      Tracer::Span sp(tr, "core.restore");
      values = core::restore_level(geo.meshes[level], values, delta,
                                   geo.mappings[next],
                                   core::EstimateMode::kUniformThirds, &pool);
    }
    level = next;
  }
  if (q.kind == kFullBlobs) analyze(&tr, mc, geo.meshes[level], values);
}

}  // namespace

Result run_explore(const Args& args) {
  std::unique_ptr<ExploreState> state;
  WriteLog writes;  // the setup writes of every setup repeat
  const double setup_s = repeated_setup<std::unique_ptr<ExploreState>>(
      3, [&] { return set_up(args, writes); }, &state);
  ExploreState& s = *state;
  for (const auto& mc : s.meshes) {
    std::cout << "mesh " << mc.dataset.name << ": "
              << mc.dataset.mesh.vertex_count() << " vertices, T=" << kTimesteps
              << " timesteps written during setup\n";
  }
  std::cout << "config: " << kLevels << " levels, codec " << kCodec << ", "
            << kDeltaChunks << " delta chunks, io ring depth " << kIoDepth
            << ", session pool threads " << kThreads
            << ", one closed-loop client; block cache budget " << s.cache_budget
            << " B against a compressed working set of " << s.working_set
            << " B; timestep Zipf s=" << kZipfExponent
            << "; queries per mesh in every deck block:";
  for (std::size_t k = 0; k < kKinds; ++k) {
    std::cout << " " << kKindNames[k] << "=" << kKindMix[k];
  }
  std::cout << "\n";

  Rng rng(derive_seed(args.seed, 7));
  const Zipf zipf(kTimesteps, kZipfExponent);
  const std::size_t budget = 100000;  // upper bound on queries in a window
  // One deck over (kind, mesh) pairs keeps the class mix exact in every
  // block, whatever the seed.
  std::vector<std::size_t> mix;
  for (std::size_t k = 0; k < kKinds; ++k) {
    for (std::size_t m = 0; m < s.meshes.size(); ++m) mix.push_back(kKindMix[k]);
  }
  const auto deck = seeded_deck(derive_seed(args.seed, 8), mix, budget);

  // Traced run: the library counters record only while the facade answers.
  std::optional<Replays> replays;
  std::optional<util::ThreadPool> replay_pool;
  if (args.trace) {
    replays.emplace();
    replay_pool.emplace(kThreads);
    obs::ObservabilityOptions o;
    o.enabled = true;
    obs::install(o);
    obs::set_enabled(false);
  }
  const auto cache_before = s.pipeline->block_cache()->stats();
  const LibraryCounters before = LibraryCounters::read();

  QueryLog queries;
  bool gate_ok = true;
  // Rounds of one window second each; query_wall is the facade time of the
  // open round.
  double query_wall = 0.0, levels_read = 0.0, io_total = 0.0;
  const auto window = Tracer::Clock::now();
  double next_round = 1.0;
  for (std::size_t i = 0; i < budget && since(window) < args.seconds; ++i) {
    if (since(window) >= next_round) {
      queries.end_round(query_wall);
      query_wall = 0.0;
      next_round += 1.0;
    }
    QueryPlan q;
    q.kind = static_cast<Kind>(deck[i] / s.meshes.size());
    const std::size_t m = deck[i] % s.meshes.size();
    q.container = m * kTimesteps + zipf.sample(rng);
    if (q.kind == kRoi) {
      const auto b = s.meshes[m].dataset.mesh.bounds();
      const double w = 0.25 * (b.hi.x - b.lo.x), h = 0.25 * (b.hi.y - b.lo.y);
      q.roi.lo = {b.lo.x + rng.uniform() * (b.hi.x - b.lo.x - w),
                  b.lo.y + rng.uniform() * (b.hi.y - b.lo.y - h)};
      q.roi.hi = {q.roi.lo.x + w, q.roi.lo.y + h};
    }
    if (args.trace) obs::set_enabled(true);
    const auto start = Tracer::Clock::now();
    const QueryOut out = run_query(s, q, gate_ok);
    query_wall += since(start);
    if (args.trace) obs::set_enabled(false);
    ++queries.attempted;
    ++queries.submissions;
    if (!out.status.usable()) {
      ++queries.failed;
      continue;
    }
    const auto& t = out.timings;
    queries.latency.push_back(t.total() + out.analysis_s);
    queries.io_sim.push_back(t.io_seconds);
    queries.cpu.push_back(t.decompress_seconds + t.restore_seconds + out.analysis_s);
    if (out.on_target) {
      ++queries.on_target;
      ++queries.good;
    }
    levels_read += static_cast<double>(kLevels - 1 - out.level);
    io_total += t.io_seconds;
    if (replays) {
      replays->run([&](Tracer& tr, bool) {
        replay_query(tr, *replay_pool, s, q, out.level);
      });
    }
  }

  queries.end_round(query_wall);

  Result result;
  result.correct = gate_ok;
  result.attempted = queries.attempted;
  result.failed = queries.failed;
  if (!args.trace) {
    result.add("setup_s", setup_s, "s");
    writes.emit(result);
    queries.emit(result, 0.0);
    return result;
  }

  const double n = std::max(1.0, static_cast<double>(replays->ops()));
  const LibraryCounters after = LibraryCounters::read();
  const auto cache = s.pipeline->block_cache()->stats();
  const double hits = static_cast<double>(cache.hits - cache_before.hits);
  const double lookups = hits + static_cast<double>(cache.misses - cache_before.misses);
  const double serial_sim = after.read_sim_s - before.read_sim_s;
  result.add("core.restore_s", replays->per_op("core.restore"), "s");
  result.add("core.levels_read", levels_read / n, "count");
  result.add("compress.decode_s", replays->per_op("compress.decode"), "s");
  after.emit_since(before, n, result);
  result.add("io.overlap_ratio", serial_sim > 0.0 ? io_total / serial_sim : 0.0, "ratio");
  result.add("cache.hit_ratio", lookups > 0.0 ? hits / lookups : 0.0, "ratio");
  result.add("cache.evictions",
             static_cast<double>(cache.evictions - cache_before.evictions), "count");
  result.add("cache.single_flight_waits",
             static_cast<double>(cache.single_flight_waits -
                                 cache_before.single_flight_waits),
             "count");
  result.add("analytics.raster_s", replays->per_op("analytics.raster"), "s");
  result.add("analytics.blob_s", replays->per_op("analytics.blob"), "s");
  replays->emit(result, "queries");
  return result;
}

}  // namespace perfbench
