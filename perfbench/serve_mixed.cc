// serve_mixed: a data-backed SkyServer over anti-correlated n = 1e5, d = 4
// data with an in-memory aggregate R*-tree and the default caches, driven
// by two closed-loop clients replaying a seeded schedule. The identity
// skyline holds about 1,170 points, so its signature matrix (t = 100) stays
// inside a 2 MiB L2. Query cost follows the skyline size m, and the seed
// moves m far less on this data (interquartile range 7% of the median over
// twenty seeds) than on independent data (11% at d = 5, 21% at d = 4).
//
//   * 49 of every 50 slots are identity selections drawn with Zipf skew
//     from 1953 specs (MinHash or LSH, k in 2..64, LSH ξ and B varied),
//     more than the 256-entry result cache holds, so hits and misses mix.
//     The specs' popularity order is fixed: the seed picks the data, the
//     draws and the boxes, not which specs (and so which k and backends)
//     head the Zipf distribution.
//   * 1 slot in every 50 (its position in the block drawn from the seed)
//     carries a fresh constraint box: a snapshot miss that runs
//     box-clipped BBS and SigGen-IB over the in-memory tree. One box in
//     four is narrow; most of those fail today (k > m, or an empty box).
//
// The untraced run measures the two clients; afterwards every result is
// compared with a serial SkySnapshot::Select of the same spec. The traced
// run is one client that wraps each SkyServer::Query in a span and replays
// every computed answer through the layers (planner, shaped snapshot
// build as BBS + SigGen-IB, LSH build, greedy selection).

#include <algorithm>
#include <atomic>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "datagen/generators.h"
#include "diversify/dispersion.h"
#include "engine/planner.h"
#include "engine/snapshot.h"
#include "lsh/lsh.h"
#include "minhash/siggen.h"
#include "rtree/rtree.h"
#include "serve/serve.h"
#include "skyline/skyline.h"

namespace skybench {
namespace {

using namespace skydiver;

constexpr size_t kBlock = 50;        // one box query per block of slots
constexpr size_t kClients = 2;
constexpr double kZipfExponent = 0.6;
constexpr uint64_t kPopularitySeed = 0x5ca1ab1e;  // the same in every run
// The most popular specs, answered in set-up so the result cache starts
// near its steady state (and the hit ratio does not drift with run length):
// as many as the default result cache holds.
constexpr size_t kFillSpecs = ServeOptions{}.result_cache_capacity;

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The seeded query schedule: slot i's spec is a pure function of
/// (seed, i), so any slot can be regenerated for checking.
class Schedule {
 public:
  Schedule(uint64_t seed, Dim dims) : seed_(seed), dims_(dims) {
    for (size_t k = 2; k <= 64; ++k) {
      QuerySpec mh;
      mh.mode = SelectMode::kMinHash;
      mh.k = k;
      specs_.push_back(mh);
      for (double xi : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6}) {
        for (size_t buckets : {10, 15, 20, 30, 40}) {
          QuerySpec lsh;
          lsh.mode = SelectMode::kLsh;
          lsh.k = k;
          lsh.lsh_threshold = xi;
          lsh.lsh_buckets = buckets;
          specs_.push_back(lsh);
        }
      }
    }
    Rng rng(kPopularitySeed);
    for (size_t i = specs_.size(); i > 1; --i) {  // fixed popularity order
      std::swap(specs_[i - 1], specs_[rng.NextBounded(i)]);
    }
    double total = 0.0;
    for (size_t rank = 1; rank <= specs_.size(); ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  /// The spec of popularity rank `rank` (0 = most popular).
  const QuerySpec& Popular(size_t rank) const { return specs_[rank]; }

  bool IsBox(uint64_t slot) const {
    return slot % kBlock == Mix(seed_ ^ Mix(slot / kBlock)) % kBlock;
  }

  QuerySpec At(uint64_t slot) const {
    Rng rng(Mix(seed_ * 0x2545f4914f6cdd1dULL + slot));
    if (!IsBox(slot)) {
      const double u = rng.NextDouble();
      const size_t rank = static_cast<size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      return specs_[std::min(rank, specs_.size() - 1)];
    }
    QuerySpec spec = specs_[rng.NextBounded(specs_.size())];
    spec.query.lo.assign(dims_, 0.0);
    spec.query.hi.assign(dims_, 1.0);
    // Every dimension constrained. A regular box (three in four) keeps
    // about 2% of the rows and sits in the middle of the space, so its
    // rebuild costs about the same wherever the seed puts it. A narrow box
    // keeps under a hundred rows: most hold fewer skyline points than k, or
    // none at all.
    const bool narrow = rng.NextBounded(4) == 0;
    for (Dim d = 0; d < dims_; ++d) {
      const double width = narrow ? rng.NextDouble(0.12, 0.2) : rng.NextDouble(0.36, 0.4);
      const double lo = rng.NextDouble(0.15, 0.45);
      spec.query.lo[d] = lo;
      spec.query.hi[d] = lo + width;
    }
    return spec;
  }

 private:
  uint64_t seed_;
  Dim dims_;
  std::vector<QuerySpec> specs_;
  std::vector<double> cdf_;
};

/// One server set-up: data, in-memory tree, and the data-backed server
/// (whose creation builds the identity snapshot through BBS and SigGen-IB).
struct Setup {
  std::optional<DataSet> data;
  std::optional<RTree> tree;
  std::unique_ptr<SkyServer> server;
  double datagen_s = 0.0;
  double bulkload_s = 0.0;
  double create_s = 0.0;
};

SkyDiverConfig ServerConfig() { return SkyDiverConfig{}; }  // t=100, serial, seed 42

std::unique_ptr<Setup> BuildSetup(const Args& args) {
  auto s = std::make_unique<Setup>();
  double t = WallSeconds();
  s->data.emplace(GenerateAnticorrelated(args.smoke ? 5000 : 100000, 4, args.seed));
  s->datagen_s = WallSeconds() - t;
  t = WallSeconds();
  s->tree.emplace(Must(RTree::BulkLoad(*s->data), "bulk load"));
  s->bulkload_s = WallSeconds() - t;
  t = WallSeconds();
  PlanResources resources;
  resources.tree = &*s->tree;
  s->server = Must(SkyServer::Create(*s->data, ServerConfig(), resources), "server");
  s->create_s = WallSeconds() - t;
  return s;
}

/// One answered slot.
struct Record {
  uint64_t slot = 0;
  double latency_s = 0.0;
  Status status;
  std::shared_ptr<const QueryResult> result;
};

bool SameResult(const QueryResult& a, const QueryResult& b) {
  return a.selected == b.selected && a.rows == b.rows &&
         std::bit_cast<uint64_t>(a.objective) == std::bit_cast<uint64_t>(b.objective) &&
         a.lsh_memory_bytes == b.lsh_memory_bytes;
}

/// The serial answer for `spec`: SkySnapshot::Select on the identity
/// snapshot, or on a freshly built shaped snapshot.
Result<QueryResult> SerialAnswer(const Setup& s, const QuerySpec& spec) {
  const QuerySpec q = spec.Normalized();
  std::shared_ptr<const SkySnapshot> snapshot = s.server->snapshot();
  if (!q.query.identity()) {
    auto normalized = NormalizeQuery(q.query, s.data->dims());
    if (!normalized.ok()) return normalized.status();
    SkyDiverConfig config = ServerConfig();
    config.query = std::move(normalized).value();
    PlanResources resources;
    resources.tree = &*s.tree;
    auto built = SkySnapshot::Build(*s.data, config, resources);
    if (!built.ok()) return built.status();
    snapshot = std::move(built).value();
  }
  QueryContext ctx(Runtime::Create(0), CostModel{}, BandingSeed(snapshot->seed(), q));
  return snapshot->Select(q, ctx);
}

using SpecKey = std::tuple<std::string, int, size_t, double, size_t>;

SpecKey KeyOf(const QuerySpec& spec) {
  const QuerySpec q = spec.Normalized();
  return {QueryKey(q.query), static_cast<int>(q.mode), q.k, q.lsh_threshold, q.lsh_buckets};
}

/// The warm-up: the kFillSpecs most popular specs, answered serially, the
/// most popular last (so most recently used).
void FillCaches(Setup& s, const Schedule& schedule) {
  for (size_t rank = kFillSpecs; rank-- > 0;) {
    if (!s.server->Query(schedule.Popular(rank)).ok()) {
      throw std::runtime_error("warm-up query failed");
    }
  }
}

struct SetupRuns {
  std::unique_ptr<Setup> setup;
  std::vector<double> total_s, datagen_s, bulkload_s, create_s, warmup_s;
};

/// Runs the set-up kSetupRepeats times (each rep replaces the last) and
/// keeps the last one with the per-rep timings. A rep ends with the
/// warm-up: the caches filled from the head of the schedule.
SetupRuns RepeatSetup(const Args& args) {
  SetupRuns runs;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    runs.setup.reset();
    runs.setup = BuildSetup(args);
    Setup& s = *runs.setup;
    const double warm_start = WallSeconds();
    FillCaches(s, Schedule(args.seed, s.data->dims()));
    const double warmup_s = WallSeconds() - warm_start;
    runs.total_s.push_back(s.datagen_s + s.bulkload_s + s.create_s + warmup_s);
    runs.datagen_s.push_back(s.datagen_s);
    runs.bulkload_s.push_back(s.bulkload_s);
    runs.create_s.push_back(s.create_s);
    runs.warmup_s.push_back(warmup_s);
  }
  return runs;
}

size_t MinQueries(const Args& args) { return args.smoke ? 200 : 1000; }

/// Serial answers for `specs`, computed on up to four threads.
std::vector<std::optional<Result<QueryResult>>> SerialAnswers(
    const Setup& s, const std::vector<QuerySpec>& specs) {
  std::vector<std::optional<Result<QueryResult>>> answers(specs.size());
  std::atomic<size_t> next{0};
  const size_t threads = std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::jthread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < specs.size(); i = next.fetch_add(1)) {
        answers[i].emplace(SerialAnswer(s, specs[i]));
      }
    });
  }
  workers.clear();  // joins
  return answers;
}

Outcome Untraced(const Args& args, SetupRuns& runs) {
  Setup& s = *runs.setup;
  const Schedule schedule(args.seed, s.data->dims());
  Outcome out;

  std::atomic<uint64_t> next_slot{0};
  std::atomic<uint64_t> completed{0};
  std::vector<std::vector<Record>> per_client(kClients);
  const double cpu0 = ProcessCpuSeconds();
  const double start = WallSeconds();
  const double deadline = start + args.seconds;
  {
    std::vector<std::jthread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        while (WallSeconds() < deadline || completed.load() < MinQueries(args)) {
          Record record;
          record.slot = next_slot.fetch_add(1);
          const QuerySpec spec = schedule.At(record.slot);
          const double t0 = WallSeconds();
          auto result = s.server->Query(spec);
          record.latency_s = WallSeconds() - t0;
          if (result.ok()) {
            record.result = std::move(result).value();
          } else {
            record.status = result.status();
          }
          per_client[c].push_back(std::move(record));
          completed.fetch_add(1);
        }
      });
    }
  }
  const double loop_s = WallSeconds() - start;
  const double loop_cpu_s = ProcessCpuSeconds() - cpu0;
  const double peak_rss_mb = PeakRssMb();  // before the checks' snapshot builds

  // Every answer against the serial path, one reference per distinct spec.
  std::map<SpecKey, size_t> index;
  std::vector<QuerySpec> distinct;
  for (const auto& records : per_client) {
    for (const Record& record : records) {
      const QuerySpec spec = schedule.At(record.slot);
      if (index.emplace(KeyOf(spec), distinct.size()).second) distinct.push_back(spec);
    }
  }
  const auto reference = SerialAnswers(s, distinct);
  std::vector<double> latency_s;
  uint64_t errors = 0, mismatches = 0, ok = 0;
  for (const auto& records : per_client) {
    for (const Record& record : records) {
      ++out.attempted;
      latency_s.push_back(record.latency_s);
      const Result<QueryResult>& expected =
          *reference[index.at(KeyOf(schedule.At(record.slot)))];
      bool agrees;
      if (record.result != nullptr) {
        agrees = expected.ok() && SameResult(*record.result, expected.value());
      } else {
        ++errors;
        agrees = !expected.ok() && expected.status() == record.status;
      }
      if (!agrees) ++mismatches;
      if (agrees && record.result != nullptr) ++ok;
    }
  }
  // An answer that differs from the serial path is a wrong result; an error
  // the serial path also raises (k > m, an empty box) is a failed query.
  out.failed = mismatches;
  if (mismatches != 0) out.Fail(std::to_string(mismatches) + " answers differ from serial");
  const ServeStats stats = s.server->stats();

  out.Set("latency_ms", Median(latency_s) * 1e3, "ms");
  out.Set("latency_p99_ms", Percentile(latency_s, 99) * 1e3, "ms");
  out.Set("cpu_ms", loop_cpu_s * 1e3 / static_cast<double>(out.attempted), "ms");
  out.Set("qps", static_cast<double>(out.attempted) / loop_s, "1/s");
  out.Set("ok_ratio", static_cast<double>(ok) / static_cast<double>(out.attempted), "ratio");
  out.Set("peak_rss_mb", peak_rss_mb, "MiB");
  out.Set("setup_s", Median(runs.total_s), "s");
  std::fprintf(stderr,
               "skybench: serve_mixed m=%zu queries=%" PRIu64 " errors=%" PRIu64
               " result_hits=%" PRIu64 " snapshot_misses=%" PRIu64
               " setup medians: datagen=%.3fs bulkload=%.3fs create=%.3fs warmup=%.3fs\n",
               s.server->snapshot()->skyline().size(), out.attempted, errors,
               stats.result_hits, stats.snapshot_misses, Median(runs.datagen_s),
               Median(runs.bulkload_s), Median(runs.create_s), Median(runs.warmup_s));
  LogSetups(runs.total_s);
  return out;
}

/// Per-layer samples the traced replays collect.
struct LayerSamples {
  std::vector<double> plan_s, build_s, bbs_s, ib_s, lsh_s, select_s;
  std::vector<double> sky_checks, rows_out, ib_checks, reads, faults, lsh_bytes, evals;
};

/// A computed answer rebuilt from the layers' public functions: the
/// planner, the shaped snapshot's Phase 1 (box-clipped BBS, SigGen-IB),
/// the LSH build and the greedy selection.
struct Replay {
  bool answerable = false;  // false: empty box or k > m, the server must refuse
  std::vector<RowId> rows;
  double objective = 0.0;
  // The intermediate products, kept so that freeing them happens after the
  // operation's span closes.
  std::vector<RowId> shaped_skyline;
  SigGenResult shaped;
  std::optional<LshIndex> index;
};

Replay ReplayLayers(const Setup& s, const QuerySpec& q, uint64_t slot, Trace& trace,
                    LayerSamples& samples) {
  const DataSet& data = *s.data;
  const RTree& tree = *s.tree;
  const SkyDiverConfig config = ServerConfig();
  const SkySnapshot& identity = *s.server->snapshot();

  SelectPlan plan;
  samples.plan_s.push_back(Timed(&trace, "engine.plan", slot, [&] {
    plan = Must(Planner::ResolveSelect(q, config.signature_size), "select plan");
  }));

  Replay replay;
  std::vector<RowId>& shaped_skyline = replay.shaped_skyline;
  SigGenResult& shaped = replay.shaped;
  const std::vector<RowId>* skyline = &identity.skyline();
  const std::vector<uint64_t>* scores = &identity.domination_scores();
  const SignatureMatrix* signatures = &identity.signatures();
  if (!q.query.identity()) {
    const IoStats before = tree.io_stats();
    samples.build_s.push_back(Timed(&trace, "serve.snapshot_build", slot, [&] {
      const DataView view(data, Must(NormalizeQuery(q.query, data.dims()), "box"));
      const DomKernel kernel = SimdAvailable() ? DomKernel::kSimd : DomKernel::kTiled;
      SkylineResult sky;
      samples.bbs_s.push_back(Timed(&trace, "skyline.bbs", slot, [&] {
        sky = Must(SkylineBBS(view, tree, kernel), "BBS");
      }));
      samples.sky_checks.push_back(static_cast<double>(sky.dominance_checks));
      samples.rows_out.push_back(static_cast<double>(sky.rows.size()));
      shaped_skyline = std::move(sky.rows);
      if (shaped_skyline.empty()) return;
      std::optional<MinHashFamily> family;
      Timed(&trace, "minhash.family", slot, [&] {
        family.emplace(MinHashFamily::Create(config.signature_size, data.size(), config.seed));
      });
      samples.ib_s.push_back(Timed(&trace, "minhash.siggen_ib", slot, [&] {
        shaped = Must(SigGenIB(data, shaped_skyline, *family, tree), "SigGen-IB");
      }));
      samples.ib_checks.push_back(static_cast<double>(shaped.dominance_checks));
    }));
    const IoStats after = tree.io_stats();
    samples.reads.push_back(static_cast<double>(after.page_reads - before.page_reads));
    samples.faults.push_back(static_cast<double>(after.page_faults - before.page_faults));
    skyline = &shaped_skyline;
    scores = &shaped.domination_scores;
    signatures = &shaped.signatures;
  }

  const size_t m = skyline->size();
  if (m == 0 || q.k > m) return replay;
  replay.answerable = true;
  std::optional<LshIndex>& index = replay.index;
  if (plan.backend == SelectBackend::kLsh) {
    samples.lsh_s.push_back(Timed(&trace, "lsh.build", slot, [&] {
      index.emplace(Must(LshIndex::Build(*signatures, plan.lsh, BandingSeed(config.seed, q)),
                         "LSH build"));
    }));
  }
  DispersionResult selection;
  samples.select_s.push_back(Timed(&trace, "diversify.select", slot, [&] {
    DistanceFn distance = [&](size_t a, size_t b) { return signatures->EstimatedDistance(a, b); };
    if (index) distance = [&](size_t a, size_t b) { return index->Distance(a, b); };
    selection = Must(SelectDiverseSet(m, q.k, distance, *scores), "selection");
  }));
  samples.evals.push_back(static_cast<double>(selection.distance_evaluations));
  for (size_t idx : selection.selected) replay.rows.push_back((*skyline)[idx]);
  replay.objective = selection.min_pairwise;
  return replay;
}

Outcome Traced(const Args& args, SetupRuns& runs) {
  Setup& s = *runs.setup;
  const Schedule schedule(args.seed, s.data->dims());
  Outcome out;

  std::map<SpecKey, std::vector<RowId>> answered;  // rows of every replayed answer
  const ServeStats stats0 = s.server->stats();

  Trace trace;
  LayerSamples samples;
  for (auto* v : {&samples.plan_s, &samples.select_s, &samples.lsh_s, &samples.evals}) {
    v->reserve(1 << 16);  // no reallocation inside a timed operation
  }
  std::vector<double> hit_query_s, glue_s, op_s;
  uint64_t failed_queries = 0;
  const double deadline = WallSeconds() + args.seconds;
  for (uint64_t slot = 0; slot < MinQueries(args) || WallSeconds() < deadline; ++slot) {
    const QuerySpec spec = schedule.At(slot);
    const QuerySpec q = spec.Normalized();
    const uint64_t hits_before = s.server->stats().result_hits;
    Result<std::shared_ptr<const QueryResult>> answer = Status::Internal("unset");
    std::optional<Replay> replay;  // empty on a result-cache hit
    int root = 0;
    double query_s = 0.0;
    {
      Trace::Scope op_span(trace, "op", slot);
      root = op_span.id();
      query_s = Timed(&trace, "serve.query", slot, [&] { answer = s.server->Query(spec); });
      if (s.server->stats().result_hits == hits_before) {
        replay = ReplayLayers(s, q, slot, trace, samples);
      }
    }
    ++out.attempted;
    if (!answer.ok()) ++failed_queries;
    bool agrees = false;
    if (!replay) {
      hit_query_s.push_back(query_s);
      // A spec first answered while filling the caches was not replayed;
      // its reference comes from the serial path.
      auto it = answered.find(KeyOf(spec));
      if (it == answered.end()) {
        const Result<QueryResult> expected = SerialAnswer(s, spec);
        if (expected.ok()) it = answered.emplace(KeyOf(spec), expected.value().rows).first;
      }
      agrees = answer.ok() && it != answered.end() && it->second == answer.value()->rows;
    } else if (!replay->answerable) {
      agrees = !answer.ok();
    } else {
      if (replay->index) {
        samples.lsh_bytes.push_back(static_cast<double>(replay->index->MemoryBytes()));
      }
      agrees = answer.ok() && answer.value()->rows == replay->rows &&
               std::bit_cast<uint64_t>(answer.value()->objective) ==
                   std::bit_cast<uint64_t>(replay->objective);
      answered[KeyOf(spec)] = replay->rows;
    }
    if (!agrees) {
      ++out.failed;
      out.Fail("slot " + std::to_string(slot) + ": server answer differs from the layers'");
    }
    const Trace::Span& root_span = trace.span(root);
    op_s.push_back(root_span.seconds());
    glue_s.push_back(trace.SelfSeconds(root));
  }
  if (!args.trace_out.empty() && !trace.WriteJsonLines(args.trace_out)) {
    throw std::runtime_error("cannot write " + args.trace_out);
  }
  // Coverage is judged on operations of a millisecond or more: on a cache
  // hit or a tiny selection, clock reads between the spans are a visible
  // share of a few microseconds.
  const double coverage = CheckSpanCoverage(trace, 1e-3);
  const ServeStats stats = s.server->stats();
  const double hits = static_cast<double>(stats.result_hits - stats0.result_hits);
  const double misses = static_cast<double>(stats.result_misses - stats0.result_misses);

  // The recorder's own cost, timed on empty spans, against the traced time.
  Trace probe;
  const double p0 = WallSeconds();
  for (int i = 0; i < 100000; ++i) Trace::Scope span(probe, "probe", 0);
  const double per_span_s = (WallSeconds() - p0) / 100000.0;
  double traced_s = 0.0;
  for (double t : op_s) traced_s += t;

  const double reads = Mean(samples.reads);
  out.Set("datagen.generate_ms", Median(runs.datagen_s) * 1e3, "ms");
  out.Set("rtree.bulkload_ms", Median(runs.bulkload_s) * 1e3, "ms");
  out.Set("rtree.page_reads", reads, "count");
  out.Set("rtree.page_faults", Mean(samples.faults), "count");
  out.Set("rtree.hit_rate", reads > 0.0 ? 1.0 - Mean(samples.faults) / reads : 0.0, "ratio");
  out.Set("skyline.bbs_ms", Mean(samples.bbs_s) * 1e3, "ms");
  out.Set("skyline.dominance_checks", Mean(samples.sky_checks), "count");
  out.Set("skyline.rows_out", Mean(samples.rows_out), "count");
  out.Set("minhash.siggen_ib_ms", Mean(samples.ib_s) * 1e3, "ms");
  out.Set("minhash.ib_dominance_checks", Mean(samples.ib_checks), "count");
  out.Set("lsh.build_ms", Mean(samples.lsh_s) * 1e3, "ms");
  out.Set("lsh.memory_bytes", Mean(samples.lsh_bytes), "bytes");
  out.Set("diversify.select_ms", Mean(samples.select_s) * 1e3, "ms");
  out.Set("diversify.distance_evaluations", Mean(samples.evals), "count");
  out.Set("serve.query_overhead_us", Median(hit_query_s) * 1e6, "us");
  out.Set("serve.result_hit_ratio", hits / (hits + misses), "ratio");
  out.Set("serve.snapshot_build_ms", Mean(samples.build_s) * 1e3, "ms");
  out.Set("serve.snapshot_misses",
          static_cast<double>(stats.snapshot_misses - stats0.snapshot_misses), "count");
  out.Set("serve.failed_queries", static_cast<double>(failed_queries), "count");
  out.Set("engine.plan_us", Median(samples.plan_s) * 1e6, "us");
  out.Set("engine.glue_ms", Mean(glue_s) * 1e3, "ms");
  out.Set("trace.overhead_pct",
          100.0 * per_span_s * static_cast<double>(trace.spans().size()) / traced_s, "%");
  // Faults charged per query: the box rebuilds' faults over every query.
  out.Set("io.charged_faults",
          Mean(samples.faults) * static_cast<double>(samples.faults.size()) /
              static_cast<double>(out.attempted),
          "count");
  out.Set("trace.span_coverage_pct", coverage * 100.0, "%");
  // The per-layer metrics of the layers the server does not run.
  out.idle = {"rtree.write_ms",      "rtree.open_ms",        "skyline.sfs_ms",
              "kernels.sweep_ms",    "kernels.tiles_swept",  "minhash.siggen_if_ms",
              "minhash.fold_ms",     "minhash.dominated_pairs", "minhash.slot_updates"};
  return out;
}

}  // namespace

Outcome RunServeMixed(const Args& args) {
  SetupRuns runs = RepeatSetup(args);
  return args.trace ? Traced(args, runs) : Untraced(args, runs);
}

}  // namespace skybench
