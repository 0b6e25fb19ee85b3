// The one-shot workloads: serial full-pipeline calls over fixed data.
//
//   oneshot_if       SkyDiver::Run, no index (SFS, SigGen-IF, greedy MH),
//                    anti-correlated n = 6e4, d = 6.
//   oneshot_ib_disk  SkyDiver::RunOnDisk over a page file (disk BBS, disk
//                    SigGen-IB, greedy MH), anti-correlated n = 3e4, d = 8,
//                    pread backend, 20% frame cache, no prefetch, cache
//                    dropped before every call.
//
// The untraced run times the public entry point. The traced run composes
// the same operation from the layers' public functions with a span around
// each call, and checks that it returns what the entry point returns.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "datagen/generators.h"
#include "diversify/dispersion.h"
#include "engine/planner.h"
#include "kernels/dominance_kernel.h"
#include "kernels/tile_view.h"
#include "minhash/minhash.h"
#include "minhash/siggen.h"
#include "rtree/disk_rtree.h"
#include "rtree/rtree.h"
#include "skydiver/skydiver.h"
#include "skyline/skyline.h"

namespace skybench {
namespace {

using namespace skydiver;

void Require(bool holds, const std::string& identity) {
  if (!holds) throw std::runtime_error("counter identity failed: " + identity);
}

// The per-layer metrics of the layers each one-shot does not run.
const std::vector<std::string> kIdleIf = {
    "rtree.bulkload_ms", "rtree.write_ms", "rtree.open_ms", "rtree.page_reads",
    "rtree.page_faults", "rtree.hit_rate", "skyline.bbs_ms", "minhash.siggen_ib_ms",
    "minhash.ib_dominance_checks", "lsh.build_ms", "lsh.memory_bytes",
    "serve.query_overhead_us", "serve.result_hit_ratio", "serve.snapshot_build_ms",
    "serve.snapshot_misses", "serve.failed_queries"};
const std::vector<std::string> kIdleIbDisk = {
    "skyline.sfs_ms", "kernels.sweep_ms", "kernels.tiles_swept", "minhash.siggen_if_ms",
    "minhash.fold_ms", "lsh.build_ms", "lsh.memory_bytes", "serve.query_overhead_us",
    "serve.result_hit_ratio", "serve.snapshot_build_ms", "serve.snapshot_misses",
    "serve.failed_queries"};

SkyDiverConfig PipelineConfig() {
  SkyDiverConfig config;
  config.k = 10;
  config.signature_size = 100;
  return config;  // serial, simd kernel, MinHash selection, seed 42
}

/// One set-up: the generated data and, on the disk workload, the tree
/// bulk-loaded, written to a page file and opened again.
struct Setup {
  std::optional<DataSet> data;
  std::optional<DiskRTree> disk;
  double datagen_s = 0.0;
  double bulkload_s = 0.0;
  double write_s = 0.0;
  double open_s = 0.0;

  double seconds() const { return datagen_s + bulkload_s + write_s + open_s; }
};

std::unique_ptr<Setup> BuildSetup(const Args& args, bool disk, const std::string& page_file) {
  const RowId n = disk ? (args.smoke ? 3000 : 30000) : (args.smoke ? 4000 : 60000);
  const Dim d = disk ? (args.smoke ? 5 : 8) : (args.smoke ? 4 : 6);
  auto s = std::make_unique<Setup>();
  double t = WallSeconds();
  s->data.emplace(GenerateAnticorrelated(n, d, args.seed));
  s->datagen_s = WallSeconds() - t;
  if (disk) {
    t = WallSeconds();
    RTree tree = Must(RTree::BulkLoad(*s->data), "bulk load");
    s->bulkload_s = WallSeconds() - t;
    t = WallSeconds();
    Must(DiskRTree::Write(tree, page_file), "page-file write");
    s->write_s = WallSeconds() - t;
    t = WallSeconds();
    DiskTreeOptions options;
    options.cache_fraction = 0.2;
    options.backend = DiskBackend::kPread;
    s->disk.emplace(Must(DiskRTree::Open(page_file, options), "page-file open"));
    s->open_s = WallSeconds() - t;
  }
  return s;
}

/// The public entry point: one full pipeline call (cold frame cache on
/// the disk workload).
Result<SkyDiverReport> RunPipeline(const Setup& s, const SkyDiverConfig& config) {
  if (s.disk) {
    s.disk->DropCache();
    return SkyDiver::RunOnDisk(*s.data, config, *s.disk);
  }
  return SkyDiver::Run(*s.data, config);
}

uint64_t ReportDigest(const SkyDiverReport& report) {
  return Digest(report.skyline, report.selected_rows);
}

uint64_t ReportFaults(const SkyDiverReport& report) {
  return report.skyline_phase.io.page_faults + report.fingerprint_phase.io.page_faults;
}

/// The same operation composed from the layers' public functions.
struct Composed {
  std::vector<RowId> skyline;
  std::vector<RowId> selected_rows;
  std::vector<uint64_t> scores;
  DomKernel kernel = DomKernel::kScalar;
  uint64_t skyline_checks = 0;
  uint64_t siggen_checks = 0;
  uint64_t distance_evaluations = 0;
  IoStats io;  // tree traffic (disk) or charged sequential scans (IF)

  uint64_t digest() const { return Digest(skyline, selected_rows); }
  uint64_t dominated_pairs() const {
    uint64_t sum = 0;
    for (uint64_t s : scores) sum += s;
    return sum;
  }
};

Composed Compose(const Setup& s, const SkyDiverConfig& config, Trace* trace, uint64_t op) {
  const DataSet& data = *s.data;
  PlanResources resources;
  if (s.disk) resources.disk_tree = &*s.disk;
  Composed out;
  Timed(trace, "engine.plan", op, [&] {
    out.kernel = Must(Planner::Resolve(config, resources), "plan").kernel;
  });
  if (s.disk) Timed(trace, "rtree.drop_cache", op, [&] { s.disk->DropCache(); });
  const IoStats before = s.disk ? s.disk->io_stats() : IoStats{};
  SkylineResult sky;
  if (s.disk) {
    Timed(trace, "skyline.bbs", op,
          [&] { sky = Must(SkylineBBS(data, *s.disk, out.kernel), "disk BBS"); });
  } else {
    Timed(trace, "skyline.sfs", op, [&] { sky = SkylineSFS(data, out.kernel); });
  }
  out.skyline = std::move(sky.rows);
  out.skyline_checks = sky.dominance_checks;

  std::optional<MinHashFamily> family;
  Timed(trace, "minhash.family", op, [&] {
    family.emplace(MinHashFamily::Create(config.signature_size, data.size(), config.seed));
  });
  SigGenResult sig;
  if (s.disk) {
    Timed(trace, "minhash.siggen_ib", op, [&] {
      sig = Must(SigGenIB(data, out.skyline, *family, *s.disk), "disk SigGen-IB");
    });
    out.io = s.disk->io_stats();
    out.io.page_reads -= before.page_reads;
    out.io.page_faults -= before.page_faults;
  } else {
    Timed(trace, "minhash.siggen_if", op, [&] {
      sig = Must(SigGenIF(data, out.skyline, *family, out.kernel), "SigGen-IF");
    });
    // SFS and SigGen-IF each charge one sequential scan of the data file.
    out.io.page_reads = 2 * sig.io.page_reads;
    out.io.page_faults = 2 * sig.io.page_faults;
  }
  out.siggen_checks = sig.dominance_checks;

  DispersionResult selection;
  Timed(trace, "diversify.select", op, [&] {
    const SignatureMatrix& signatures = sig.signatures;
    auto distance = [&](size_t a, size_t b) { return signatures.EstimatedDistance(a, b); };
    selection = Must(SelectDiverseSet(out.skyline.size(), config.k, distance,
                                      sig.domination_scores),
                     "selection");
  });
  out.distance_evaluations = selection.distance_evaluations;
  for (size_t idx : selection.selected) out.selected_rows.push_back(out.skyline[idx]);
  out.scores = std::move(sig.domination_scores);
  return out;
}

/// SigGen-IF's exhaustive sweep without the signature fold: every
/// non-skyline row through FilterDominators against each tile of the
/// frozen skyline TileSet.
struct Sweep {
  uint64_t pairs = 0;  // popcount total of the dominator masks
  uint64_t tiles = 0;  // tile sweeps issued
};

Sweep SweepReplay(const DataSet& data, const std::vector<RowId>& skyline, DomKernel kernel) {
  const DominanceKernel batch(EffectiveKernel(kernel, skyline.size()));
  TileSet tiles(data.dims());
  for (size_t j = 0; j < skyline.size(); ++j) {
    tiles.Append(static_cast<RowId>(j), data.row(skyline[j]));
  }
  tiles.Freeze();
  std::vector<bool> is_skyline(data.size(), false);
  for (RowId r : skyline) is_skyline[r] = true;
  Sweep out;
  for (RowId r = 0; r < data.size(); ++r) {
    if (is_skyline[r]) continue;
    const auto point = data.row(r);
    for (const Tile& tile : tiles.tiles()) {
      out.pairs += static_cast<uint64_t>(std::popcount(batch.FilterDominators(point, tile.view())));
      ++out.tiles;
    }
  }
  return out;
}

std::string PageFilePath(const Args& args) {
  return args.workdir + "/oneshot_ib_disk-" + std::to_string(args.seed) + "-" +
         std::to_string(getpid()) + ".pages";
}

/// Runs the set-up kSetupRepeats times (each rep replaces the last) and
/// keeps the last one with the per-rep timings. A rep ends with the warm-up
/// operation: the composed layer calls, whose outputs are the reference
/// every checked operation is compared with.
struct SetupRuns {
  std::unique_ptr<Setup> setup;
  Composed ref;
  std::vector<double> total_s, datagen_s, bulkload_s, write_s, open_s;
};

SetupRuns RepeatSetup(const Args& args, bool disk, const std::string& page_file) {
  SetupRuns runs;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    runs.setup.reset();  // release the previous data, tree and file first
    runs.setup = BuildSetup(args, disk, page_file);
    const double warm_start = WallSeconds();
    runs.ref = Compose(*runs.setup, PipelineConfig(), nullptr, 0);
    const double warmup_s = WallSeconds() - warm_start;
    runs.total_s.push_back(runs.setup->seconds() + warmup_s);
    runs.datagen_s.push_back(runs.setup->datagen_s);
    runs.bulkload_s.push_back(runs.setup->bulkload_s);
    runs.write_s.push_back(runs.setup->write_s);
    runs.open_s.push_back(runs.setup->open_s);
  }
  return runs;
}

Outcome Untraced(const Args& args, bool disk, const SetupRuns& runs) {
  const Setup& s = *runs.setup;
  const SkyDiverConfig config = PipelineConfig();
  Outcome out;

  const Composed& ref = runs.ref;
  if (!IsSkyline(*s.data, ref.skyline)) out.Fail("reference skyline fails IsSkyline");
  const uint64_t ref_faults = ref.io.page_faults;

  std::vector<double> latency_s, cpu_s;
  const double start = WallSeconds();
  const double deadline = start + args.seconds;
  while (latency_s.size() < 5 || WallSeconds() < deadline) {
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = WallSeconds();
    auto report = RunPipeline(s, config);
    latency_s.push_back(WallSeconds() - t0);
    cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    ++out.attempted;
    const bool ok = report.ok() && ReportDigest(report.value()) == ref.digest() &&
                    ReportFaults(report.value()) == ref_faults;
    if (!ok) ++out.failed;
  }
  const double loop_s = WallSeconds() - start;
  if (out.failed != 0) out.Fail(std::to_string(out.failed) + " operations failed their check");

  out.Set("latency_ms", Median(latency_s) * 1e3, "ms");
  out.Set("latency_p99_ms", Percentile(latency_s, 99) * 1e3, "ms");
  out.Set("cpu_ms", Median(cpu_s) * 1e3, "ms");
  out.Set("qps", static_cast<double>(out.attempted) / loop_s, "1/s");
  out.Set("ok_ratio",
          static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted),
          "ratio");
  out.Set("peak_rss_mb", PeakRssMb(), "MiB");
  out.Set("setup_s", Median(runs.total_s), "s");
  std::fprintf(stderr,
               "skybench: %s n=%u d=%u m=%zu ops=%" PRIu64 " faults/op=%" PRIu64
               " io_charged_ms/op=%.0f\n",
               args.workload.c_str(), s.data->size(), s.data->dims(), ref.skyline.size(),
               out.attempted, ref_faults, kChargePerFaultMs * static_cast<double>(ref_faults));
  LogSetups(runs.total_s);
  return out;
}

Outcome Traced(const Args& args, bool disk, const SetupRuns& runs) {
  const Setup& s = *runs.setup;
  const DataSet& data = *s.data;
  const SkyDiverConfig config = PipelineConfig();
  Outcome out;

  // Identities that need the other Phase-1 generator run once on the same
  // data: IF and IB must find the same domination scores.
  const Composed& ref = runs.ref;
  const auto family = MinHashFamily::Create(config.signature_size, data.size(), config.seed);
  std::vector<uint64_t> other_scores;
  if (disk) {
    other_scores = Must(SigGenIF(data, ref.skyline, family, ref.kernel), "SigGen-IF").domination_scores;
  } else {
    const RTree tree = Must(RTree::BulkLoad(data), "bulk load");
    other_scores = Must(SigGenIB(data, ref.skyline, family, tree), "SigGen-IB").domination_scores;
  }
  Require(other_scores == ref.scores, "IF domination scores == IB domination scores");
  Require(SweepReplay(data, ref.skyline, ref.kernel).pairs == ref.dominated_pairs(),
          "sweep popcount total == dominated pairs");

  Trace trace;
  std::vector<double> untraced_s, traced_s, glue_s, plan_s, skyline_s, siggen_s,
      select_s, sweep_s;
  uint64_t op = 0, tiles_swept = 0;
  const double deadline = WallSeconds() + args.seconds;
  while (op < 2 || WallSeconds() < deadline) {
    ++op;
    const double t0 = WallSeconds();
    auto report = RunPipeline(s, config);
    untraced_s.push_back(WallSeconds() - t0);
    if (!report.ok()) throw std::runtime_error("pipeline: " + report.status().ToString());

    int root = 0;
    Composed composed;
    {
      Trace::Scope span(trace, "op", op);
      root = span.id();
      composed = Compose(s, config, &trace, op);
    }
    ++out.attempted;
    if (composed.digest() != ReportDigest(report.value()) || composed.digest() != ref.digest()) {
      ++out.failed;
      out.Fail("composed layer calls differ from the entry point's output");
    }
    const Trace::Span& root_span = trace.span(root);
    traced_s.push_back(root_span.seconds());
    glue_s.push_back(trace.SelfSeconds(root));
    plan_s.push_back(trace.SelfSecondsIn(root, "engine.plan"));
    skyline_s.push_back(trace.SelfSecondsIn(root, disk ? "skyline.bbs" : "skyline.sfs"));
    siggen_s.push_back(trace.SelfSecondsIn(root, disk ? "minhash.siggen_ib" : "minhash.siggen_if"));
    select_s.push_back(trace.SelfSecondsIn(root, "diversify.select"));

    Require(composed.io.page_faults <= composed.io.page_reads, "page_faults <= page_reads");
    Require(composed.io.page_faults == ref.io.page_faults,
            "one-shot fault counts identical across runs");
    if (!disk) {
      const size_t m = composed.skyline.size();
      Require(composed.siggen_checks == (uint64_t{data.size()} - m) * m,
              "IF dominance checks == (n - m) * m");
      Sweep sweep;
      sweep_s.push_back(Timed(&trace, "kernels.sweep", op, [&] {
        sweep = SweepReplay(data, composed.skyline, composed.kernel);
      }));
      tiles_swept = sweep.tiles;
      Require(sweep.pairs == composed.dominated_pairs(),
              "sweep popcount total == dominated pairs");
    }
  }
  const double coverage = CheckSpanCoverage(trace, 0.0);
  if (!args.trace_out.empty() && !trace.WriteJsonLines(args.trace_out)) {
    throw std::runtime_error("cannot write " + args.trace_out);
  }

  const size_t m = ref.skyline.size();
  out.Set("datagen.generate_ms", Median(runs.datagen_s) * 1e3, "ms");
  if (disk) {
    out.Set("rtree.bulkload_ms", Median(runs.bulkload_s) * 1e3, "ms");
    out.Set("rtree.write_ms", Median(runs.write_s) * 1e3, "ms");
    out.Set("rtree.open_ms", Median(runs.open_s) * 1e3, "ms");
    out.Set("rtree.page_reads", static_cast<double>(ref.io.page_reads), "count");
    out.Set("rtree.page_faults", static_cast<double>(ref.io.page_faults), "count");
    out.Set("rtree.hit_rate", ref.io.HitRate(), "ratio");
    out.Set("skyline.bbs_ms", Median(skyline_s) * 1e3, "ms");
    out.Set("minhash.siggen_ib_ms", Median(siggen_s) * 1e3, "ms");
    out.Set("minhash.ib_dominance_checks", static_cast<double>(ref.siggen_checks), "count");
  } else {
    out.Set("skyline.sfs_ms", Median(skyline_s) * 1e3, "ms");
    out.Set("kernels.sweep_ms", Median(sweep_s) * 1e3, "ms");
    out.Set("kernels.tiles_swept", static_cast<double>(tiles_swept), "count");
    out.Set("minhash.siggen_if_ms", Median(siggen_s) * 1e3, "ms");
    out.Set("minhash.fold_ms", (Median(siggen_s) - Median(sweep_s)) * 1e3, "ms");
  }
  out.Set("skyline.dominance_checks", static_cast<double>(ref.skyline_checks), "count");
  out.Set("skyline.rows_out", static_cast<double>(m), "count");
  out.Set("minhash.dominated_pairs", static_cast<double>(ref.dominated_pairs()), "count");
  out.Set("minhash.slot_updates",
          static_cast<double>(ref.dominated_pairs() * config.signature_size), "count");
  out.Set("diversify.select_ms", Median(select_s) * 1e3, "ms");
  out.Set("diversify.distance_evaluations", static_cast<double>(ref.distance_evaluations),
          "count");
  out.Set("engine.plan_us", Median(plan_s) * 1e6, "us");
  out.Set("engine.glue_ms", Median(glue_s) * 1e3, "ms");
  out.Set("io.charged_faults", static_cast<double>(ref.io.page_faults), "count");
  out.Set("trace.overhead_pct", (Median(traced_s) / Median(untraced_s) - 1.0) * 100.0, "%");
  out.Set("trace.span_coverage_pct", coverage * 100.0, "%");
  out.idle = disk ? kIdleIbDisk : kIdleIf;
  return out;
}

}  // namespace

Outcome RunOneshot(const Args& args, bool disk) {
  struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() { std::remove(path.c_str()); }
  };
  const RemoveOnExit page_file{PageFilePath(args)};
  // Declared after page_file, so the tree's file is closed before removal.
  const SetupRuns runs = RepeatSetup(args, disk, page_file.path);
  return args.trace ? Traced(args, disk, runs) : Untraced(args, disk, runs);
}

}  // namespace skybench
