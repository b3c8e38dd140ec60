// `ingest`: write only. Round after round, one timestep of each paper mesh
// (XGC1 annulus, GenASiS disk, CFD body cutout) goes through
// Pipeline::write(mesh, values): mesh -> core -> compress -> adios ->
// storage-write, with point location in the mapping as the dominant cost.
// The annulus inner rim and the CFD body cutout are the boundaries where the
// locator misses and falls back. Nothing is read inside the timed window;
// every write is read back after it, and those reads give this workload's
// query-side figures.
//
// The traced run replays each write layer by layer (the public calls
// Pipeline::write makes, in its order) with spans around every call, next to
// the same replay untraced, and reads the library's own pool counters while
// the facade writes.

#include <future>
#include <iostream>
#include <optional>

#include "adios/bp.hpp"
#include "compress/codec.hpp"
#include "core/delta.hpp"
#include "core/geometry_cache.hpp"
#include "mesh/cascade.hpp"
#include "mesh/point_locator.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTimesteps = 4;
constexpr std::size_t kThreads = 2;
/// Set-up (dataset generation) takes well under a second, so it is repeated
/// more often than elsewhere for a steady median.
constexpr std::size_t kSetupRepeats = 7;
/// Read-back passes over every written container; each pass is one round
/// of the query-side figures.
constexpr std::size_t kReadBackPasses = 5;

struct Written {
  std::size_t mesh = 0;
  std::size_t step = 0;
  std::string path;
};

/// Tier the write path asks for (the paper's Fig. 1 layout: base on the
/// fastest tier, deltas lower), when it has room.
std::optional<std::uint32_t> tier_hint(const storage::StorageHierarchy& h,
                                       std::uint32_t level, std::size_t nbytes) {
  const std::size_t want =
      std::min(h.tier_count() - 1, kLevels - 1 - static_cast<std::size_t>(level));
  if (h.tier(want).fits(nbytes)) return static_cast<std::uint32_t>(want);
  return std::nullopt;
}

struct ReplayCounts {
  double storage_sim = 0.0;
  double encoded_raw = 0.0;
  double encoded_bytes = 0.0;
};

/// One write, layer call by layer call, in the order Pipeline::write makes
/// them (decimate; base encode + commit; per delta level coarse to fine:
/// mapping, estimate, Morton order, encode, commit; geometry; close).
void replay_write(Tracer& tr, util::ThreadPool& pool,
                  storage::StorageHierarchy& h, const MeshCase& mc,
                  const mesh::Field& values, const std::string& path,
                  ReplayCounts& counts) {
  const std::string& var = mc.dataset.variable;
  const double eb = mc.error_bound;
  const auto codec = compress::make_codec(kCodec);

  mesh::Cascade cascade;
  {
    Tracer::Span s(tr, "mesh.decimate");
    mesh::CascadeOptions copt;
    copt.levels = kLevels;
    cascade = mesh::build_cascade(mc.dataset.mesh, values, copt);
  }
  std::optional<adios::BpWriter> writer;
  {
    Tracer::Span s(tr, "adios.commit");
    writer.emplace(h, path);
    writer->set_attribute("levels", std::to_string(kLevels));
    writer->set_attribute("codec", kCodec);
    writer->set_attribute("estimate",
                          core::to_string(core::EstimateMode::kUniformThirds));
    writer->set_attribute("error_bound", std::to_string(eb));
  }
  const auto base_level = static_cast<std::uint32_t>(kLevels - 1);
  {
    const auto& base = cascade.levels.back();
    util::Bytes payload;
    {
      Tracer::Span s(tr, "compress.encode");
      payload = codec->encode(base.values, eb);
    }
    Tracer::Span s(tr, "adios.commit");
    const auto t = writer->write_precompressed(
        var, adios::BlockKind::kBase, base_level, payload, kCodec, eb,
        base.values.size(),
        tier_hint(h, base_level, base.values.size() * sizeof(double)));
    counts.storage_sim += t.io_sim_seconds;
    counts.encoded_raw += static_cast<double>(base.values.size() * sizeof(double));
    counts.encoded_bytes += static_cast<double>(payload.size());
  }
  for (std::size_t l = kLevels - 1; l-- > 0;) {
    const auto& fine = cascade.levels[l];
    const auto& coarse = cascade.levels[l + 1];
    const auto level = static_cast<std::uint32_t>(l);
    core::VertexMapping mapping;
    mesh::Field delta;
    {
      Tracer::Span s(tr, "core.mapping");
      mapping = core::build_mapping(fine.mesh, coarse.mesh, &pool);
    }
    {
      Tracer::Span s(tr, "core.estimate");
      delta = core::compute_delta(coarse.mesh, coarse.values, fine.values,
                                  mapping, core::EstimateMode::kUniformThirds,
                                  &pool);
    }
    mesh::Field ordered(delta.size());
    core::ChunkIndex index;
    {
      Tracer::Span s(tr, "core.order");
      const auto order = core::cached_spatial_order(fine.mesh);
      for (std::size_t pos = 0; pos < order->size(); ++pos) {
        ordered[pos] = delta[(*order)[pos]];
      }
      for (std::uint32_t c = 0; c < kDeltaChunks; ++c) {
        core::ChunkIndex::Range r;
        r.start = ordered.size() * c / kDeltaChunks;
        r.count = ordered.size() * (c + 1) / kDeltaChunks - r.start;
        r.bbox.lo = r.bbox.hi = fine.mesh.vertex((*order)[r.start]);
        for (std::size_t pos = r.start; pos < r.start + r.count; ++pos) {
          r.bbox.expand(fine.mesh.vertex((*order)[pos]));
        }
        index.chunks.push_back(r);
      }
    }
    std::vector<util::Bytes> chunks(kDeltaChunks);
    {
      Tracer::Span s(tr, "compress.encode");
      std::vector<std::future<util::Bytes>> encoded;
      for (const auto& r : index.chunks) {
        encoded.push_back(pool.submit([&ordered, &r, eb] {
          return compress::make_codec(kCodec)->encode(
              std::span<const double>(ordered).subspan(r.start, r.count), eb);
        }));
      }
      for (std::uint32_t c = 0; c < kDeltaChunks; ++c) chunks[c] = encoded[c].get();
    }
    util::ByteWriter index_bytes, map_bytes;
    {
      Tracer::Span s(tr, "core.serialize");
      index.serialize(index_bytes);
      mapping.serialize(map_bytes);
    }
    Tracer::Span s(tr, "adios.commit");
    const auto hint = tier_hint(h, level, delta.size() * sizeof(double));
    for (std::uint32_t c = 0; c < kDeltaChunks; ++c) {
      const auto t = writer->write_precompressed_chunk(
          var, adios::BlockKind::kDelta, level, c, kDeltaChunks, chunks[c],
          kCodec, eb, index.chunks[c].count, hint);
      counts.storage_sim += t.io_sim_seconds;
      counts.encoded_bytes += static_cast<double>(chunks[c].size());
    }
    counts.encoded_raw += static_cast<double>(delta.size() * sizeof(double));
    counts.storage_sim += writer->write_opaque(var, adios::BlockKind::kChunkIndex,
                                               level, index_bytes.view(), hint)
                              .io_sim_seconds;
    counts.storage_sim += writer->write_opaque(var, adios::BlockKind::kMapping,
                                               level, map_bytes.view(), hint)
                              .io_sim_seconds;
  }
  for (std::size_t l = 0; l < kLevels; ++l) {
    util::ByteWriter mesh_bytes;
    {
      Tracer::Span s(tr, "core.serialize");
      cascade.levels[l].mesh.serialize(mesh_bytes);
    }
    Tracer::Span s(tr, "adios.commit");
    const auto level = static_cast<std::uint32_t>(l);
    counts.storage_sim +=
        writer->write_opaque(var, adios::BlockKind::kMesh, level,
                             mesh_bytes.view(),
                             tier_hint(h, level, mesh_bytes.size()))
            .io_sim_seconds;
  }
  Tracer::Span s(tr, "adios.commit");
  writer->close();
}

/// Share of fine vertices, over every level pair of every mesh, that
/// PointLocator::try_locate cannot place in the coarse level (the points
/// that take the locator's nearest-triangle fallback).
double locate_miss_frac(const std::vector<MeshCase>& meshes) {
  std::size_t misses = 0, total = 0;
  for (const auto& mc : meshes) {
    mesh::CascadeOptions copt;
    copt.levels = kLevels;
    const auto cascade = mesh::build_cascade(mc.dataset.mesh, mc.dataset.values, copt);
    for (std::size_t l = 0; l + 1 < kLevels; ++l) {
      const mesh::PointLocator locator(cascade.levels[l + 1].mesh);
      const auto& fine = cascade.levels[l].mesh;
      for (mesh::VertexId v = 0; v < fine.vertex_count(); ++v) {
        if (!locator.try_locate(fine.vertex(v))) ++misses;
      }
      total += fine.vertex_count();
    }
  }
  return total > 0 ? static_cast<double>(misses) / static_cast<double>(total) : 0.0;
}

/// The read-back gate: every written container restored to full accuracy
/// within levels x error bound of its input, kReadBackPasses times. The
/// reads are also this workload's queries.
bool read_back(Pipeline& pipeline, const std::vector<MeshCase>& meshes,
               const std::vector<Written>& written, QueryLog& queries) {
  bool ok = true;
  auto round = Tracer::Clock::now();
  for (std::size_t i = 0; i < kReadBackPasses * written.size(); ++i) {
    if (i > 0 && i % written.size() == 0) {
      queries.end_round(since(round));
      round = Tracer::Clock::now();
    }
    const Written& w = written[i % written.size()];
    const auto& mc = meshes[w.mesh];
    ReadRequest req;
    req.path = w.path;
    req.var = mc.dataset.variable;
    ReadResult out;
    ++queries.attempted;
    ++queries.submissions;
    const Status st = pipeline.read(req, &out);
    if (!st.usable()) {
      ++queries.failed;
      ok = false;
      std::cout << "FAIL: read-back of " << w.path << ": " << st.to_string() << "\n";
      continue;
    }
    const auto& t = out.timings;
    queries.latency.push_back(t.total());
    queries.io_sim.push_back(t.io_seconds);
    queries.cpu.push_back(t.decompress_seconds + t.restore_seconds);
    if (out.level == 0) {
      ++queries.on_target;
      ++queries.good;
    }
    double worst = 0.0;
    if (out.level != 0 || !within_error_bound(out.values, mc.steps[w.step], kLevels,
                                              mc.error_bound, &worst)) {
      ok = false;
      std::cout << "FAIL: " << w.path << " restored at level " << out.level
                << " with max error " << worst << " > " << kLevels << " x "
                << mc.error_bound << "\n";
    }
  }
  queries.end_round(since(round));
  return ok;
}

}  // namespace

Result run_ingest(const Args& args) {
  std::vector<MeshCase> meshes;
  const double setup_s = repeated_setup<std::vector<MeshCase>>(
      kSetupRepeats, [&] { return make_meshes(args.seed, kTimesteps); }, &meshes);
  for (const auto& mc : meshes) {
    std::cout << "mesh " << mc.dataset.name << ": "
              << mc.dataset.mesh.vertex_count() << " vertices, "
              << mc.dataset.mesh.triangle_count() << " triangles, T="
              << mc.steps.size() << " timesteps, error bound " << mc.error_bound
              << "\n";
  }
  std::cout << "config: " << kLevels << " levels, codec " << kCodec << ", "
            << kDeltaChunks << " delta chunks, pool threads " << kThreads
            << ", one writer (the harness thread)\n";

  storage::StorageHierarchy tiers(two_tier_specs(16ull << 30));
  Pipeline pipeline(tiers, Options{}.with_threads(kThreads));

  Result result;
  WriteLog writes;
  std::vector<Written> written;

  // Traced run: the replays write into hierarchies of their own, and the
  // library counters record only while the facade writes.
  std::optional<Replays> replays;
  std::optional<util::ThreadPool> replay_pool;
  std::optional<storage::StorageHierarchy> traced_tiers, plain_tiers;
  ReplayCounts counts, plain_counts;
  if (args.trace) {
    replays.emplace();
    replay_pool.emplace(kThreads);
    traced_tiers.emplace(two_tier_specs(16ull << 30));
    plain_tiers.emplace(two_tier_specs(16ull << 30));
    obs::ObservabilityOptions o;
    o.enabled = true;
    obs::install(o);
    obs::set_enabled(false);
  }

  const auto window = Tracer::Clock::now();
  for (std::size_t round = 0; since(window) < args.seconds; ++round) {
    for (std::size_t m = 0; m < meshes.size(); ++m) {
      const auto& mc = meshes[m];
      const std::size_t step = round % kTimesteps;
      const std::string path =
          "ingest/" + mc.dataset.name + "/r" + std::to_string(round) + ".bp";
      WriteResult wres;
      if (args.trace) obs::set_enabled(true);
      const auto start = Tracer::Clock::now();
      const Status st =
          pipeline.write(write_request(mc, mc.steps[step], path), &wres);
      const double wall = since(start);
      if (args.trace) obs::set_enabled(false);
      writes.record(st, static_cast<double>(mc.raw_bytes()), wall,
                    wres.report.phases.get("io"));
      if (st.ok()) written.push_back({m, step, path});
      if (replays) {
        replays->run([&](Tracer& tr, bool traced) {
          replay_write(tr, *replay_pool, traced ? *traced_tiers : *plain_tiers, mc,
                       mc.steps[step], path, traced ? counts : plain_counts);
        });
      }
    }
    writes.end_round();
  }
  writes.stored_bytes = static_cast<double>(stored_bytes(tiers));

  QueryLog queries;
  result.correct = read_back(pipeline, meshes, written, queries);
  result.attempted = writes.writes + writes.failed + queries.attempted;
  result.failed = writes.failed + queries.failed;

  if (!args.trace) {
    result.add("setup_s", setup_s, "s");
    writes.emit(result);
    queries.emit(result, 0.0);
    return result;
  }

  const double n = std::max(1.0, static_cast<double>(replays->ops()));
  result.add("mesh.decimate_s", replays->per_op("mesh.decimate"), "s");
  result.add("mesh.locate_miss_frac", locate_miss_frac(meshes), "ratio");
  result.add("core.mapping_s", replays->per_op("core.mapping"), "s");
  result.add("core.estimate_s", replays->per_op("core.estimate"), "s");
  result.add("compress.encode_s", replays->per_op("compress.encode"), "s");
  result.add("compress.ratio",
             counts.encoded_bytes > 0.0 ? counts.encoded_raw / counts.encoded_bytes
                                        : 0.0,
             "ratio");
  result.add("adios.commit_s", replays->per_op("adios.commit"), "s");
  result.add("storage.write_sim_s", counts.storage_sim / n, "s");
  result.add("pool.task_wait_s_p90", pool_wait_p90(), "s");
  replays->emit(result, "writes");
  return result;
}

}  // namespace perfbench
