// Dominance-kernel microbenchmark: scalar reference vs batched 64-row
// tiled sweeps vs the explicit SIMD kernel (AVX2/NEON, runtime-dispatched)
// on the two hot consumers the kernel layer rewires — SkylineSFS and
// SigGen-IF — plus a FilterDominators micro that isolates the sweep itself,
// across IND/CORR/ANT at d = 4, 8, 12.
//
// Expected shape: the batched kernels win where dominance tests are
// exhaustive or the candidate block is wide — SigGen-IF everywhere it is
// not the scalar fallback, SFS once the skyline spans many tiles (d >= 8) —
// and the simd flavour beats tiled wherever a vector ISA is present,
// most visibly on the pure FilterDominators sweep. On CORR the skyline is
// a handful of points: SigGen-IF falls below one tile and runs the scalar
// reference (ratio ~1), while SFS still pays the tile-window upkeep on a
// ~10 ms run, so its ratio dips below 1 there — as it does on low-d inputs
// where scalar window probes exit after a pair or two. That tradeoff is
// why --kernel=scalar stays a plan choice.
//
// The FilterDominators micro also times the simd backend's previous
// dims-outer word sweep ("sweep_dominators": two compares and two
// movemasks per vector per dimension, `gt & ~lt`) against the fused
// rows-outer mask the simd flavour now runs, on the same tiles.
//
// --json writes the full flavour x distribution x d grid (seconds, charged
// checks, ns per check, checks/s) to a machine-readable file for tracking
// the kernel ratios across hosts.
//
// A fold micro times the MinHash signature min-fold (kernels/min_fold.h)
// on every backend this host can run, against the branchy 64-bit
// per-slot loop the signatures used before they narrowed to 32 bits
// ("scalar64"); its records carry slot updates in `checks`, so
// `ns_per_check` reads as ns per slot update.
//
// A second micro isolates the tile-aware BBS node prune: every tree
// node's entry lo-corners, captured once from a full walk, are decided
// against the materialized skyline tiles two ways — per-entry (the
// pre-corner-tile traversal: corner outer, one AnyDominator skyline
// stream per corner) and corner-tile (PruneCorners over one node's
// corner tile, dominated corners compacted away between tiles). The
// batched PruneCorners screens each skyline tile with the corner tile's
// ceiling — node corners are R-tree siblings, so most skyline tiles
// hold no row that could dominate any of them and the whole (node, tile)
// pair retires in one sweep, where per-entry pays one sweep per
// undecided corner; the ratio is that screen. --bbs-json writes the grid
// to BENCH_bbs.json.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/dominance.h"
#include "kernels/min_fold.h"
#include "kernels/simd_backend.h"
#include "kernels/tile_view.h"
#include "minhash/siggen.h"
#include "rtree/node_corners.h"
#include "rtree/rtree.h"
#include "skyline/skyline.h"

namespace skydiver::bench {
namespace {

constexpr int kReps = 3;
constexpr size_t kSignatureSize = 100;

template <typename Fn>
double BestOf(Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

constexpr DomKernel kFlavours[] = {DomKernel::kScalar, DomKernel::kTiled,
                                   DomKernel::kSimd};

// One grid cell for the JSON report.
struct JsonRecord {
  std::string workload;
  Dim dims = 0;
  std::string flavour;
  std::string op;
  double seconds = 0.0;
  uint64_t checks = 0;
};

void WriteJson(const std::string& path, const std::string& bench, RowId n,
               const std::vector<JsonRecord>& records) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"" << bench << "\",\n  \"n\": " << n
      << ",\n  \"isa\": \"" << ToString(DetectSimdIsa()) << "\",\n  \"records\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    const double ns_per_check =
        r.checks == 0 ? 0.0 : r.seconds * 1e9 / static_cast<double>(r.checks);
    const double checks_per_s =
        r.seconds == 0.0 ? 0.0 : static_cast<double>(r.checks) / r.seconds;
    out << "    {\"workload\": \"" << r.workload << "\", \"dims\": " << r.dims
        << ", \"flavour\": \"" << r.flavour << "\", \"op\": \"" << r.op
        << "\", \"seconds\": " << r.seconds << ", \"checks\": " << r.checks
        << ", \"ns_per_check\": " << ns_per_check
        << ", \"checks_per_s\": " << checks_per_s << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %zu records to %s\n", records.size(), path.c_str());
}

// -------------------------------------------------------------------------
// BBS node-prune micro: replay the prune decision for every node of the
// tree against the full skyline tiling, in both loop orders.

// One node chunk (<= kTileRows entries): the transposed corner tile plus
// the offset of its first corner in the flat row-major probe array the
// per-entry replay reads.
struct CornerChunk {
  Tile tile;
  size_t flat_begin;
};

struct BbsWorkload {
  std::vector<CornerChunk> chunks;
  std::vector<Coord> flat;  // row-major corners, per-entry replay probes
  size_t dims = 0;
  size_t corners = 0;
};

BbsWorkload CollectNodeCorners(const RTree& tree) {
  BbsWorkload w;
  w.dims = tree.dims();
  std::vector<PageId> stack{tree.root()};
  while (!stack.empty()) {
    const RTreeNode& node = tree.PeekNode(stack.back());
    stack.pop_back();
    for (size_t begin = 0; begin < node.entries.size(); begin += kTileRows) {
      const size_t end = std::min(begin + kTileRows, node.entries.size());
      Tile tile(tree.dims());
      MaterializeLoCorners(node, begin, end, &tile);
      const size_t flat_begin = w.flat.size();
      for (size_t i = begin; i < end; ++i) {
        const auto lo = node.entries[i].mbr.lo();
        w.flat.insert(w.flat.end(), lo.begin(), lo.end());
      }
      w.corners += end - begin;
      w.chunks.push_back(CornerChunk{std::move(tile), flat_begin});
    }
    if (!node.is_leaf) {
      for (const auto& e : node.entries) stack.push_back(e.child);
    }
  }
  return w;
}

// Order-sensitive FNV-style fold of the surviving entry ids; identical
// pruning decisions => identical digests (the cross-flavour /
// cross-order identity check).
uint64_t FoldSurvivor(uint64_t digest, RowId id) {
  return (digest ^ (id + 1)) * 1099511628211ULL;
}

// The pre-corner-tile order: corner outer, one AnyDominator probe per
// corner streaming the skyline tiles until a dominator is found.
uint64_t PerEntryReplay(const BbsWorkload& w, const TileSet& sky,
                        const DominanceKernel& kernel) {
  uint64_t digest = 0;
  for (const CornerChunk& chunk : w.chunks) {
    for (size_t r = 0; r < chunk.tile.rows(); ++r) {
      const std::span<const Coord> p(w.flat.data() + chunk.flat_begin + r * w.dims,
                                     w.dims);
      bool dominated = false;
      for (const Tile& t : sky.tiles()) {
        if (kernel.AnyDominator(p, t.view())) {
          dominated = true;
          break;
        }
      }
      if (!dominated) digest = FoldSurvivor(digest, chunk.tile.id(r));
    }
  }
  return digest;
}

// The tile-aware order: one PruneCorners call per (node corner tile,
// skyline tile) pair, dominated corners compacted away between tiles
// (bbs_scan.h's PruneAndPushNode, scratch copy included in the cost).
uint64_t CornerTileReplay(const BbsWorkload& w, const TileSet& sky,
                          const DominanceKernel& kernel, Tile* scratch) {
  uint64_t digest = 0;
  for (const CornerChunk& chunk : w.chunks) {
    *scratch = chunk.tile;
    for (const Tile& t : sky.tiles()) {
      if (scratch->empty()) break;
      const uint64_t pruned = kernel.PruneCorners(scratch->view(), t.view());
      if (pruned != 0) scratch->Compact(scratch->view().FullMask() & ~pruned);
    }
    for (size_t r = 0; r < scratch->rows(); ++r) {
      digest = FoldSurvivor(digest, scratch->id(r));
    }
  }
  return digest;
}

// -------------------------------------------------------------------------
// Signature min-fold micro: the SigGen-IF update pattern — one row's t
// hashes folded into a pseudo-random dominator column — over a matrix of
// kFoldColumns columns, t = kSignatureSize.

constexpr size_t kFoldColumns = 4096;
constexpr size_t kFoldRows = 64;  // distinct hash vectors cycled through

struct FoldWorkload {
  std::vector<uint32_t> hashes;    // kFoldRows x t
  std::vector<uint32_t> columns;   // column index per update
};

FoldWorkload MakeFoldWorkload(size_t updates, uint64_t seed) {
  Rng rng(seed);
  FoldWorkload w;
  w.hashes.resize(kFoldRows * kSignatureSize);
  for (uint32_t& h : w.hashes) h = static_cast<uint32_t>(rng.Next() >> 33);
  w.columns.resize(updates);
  for (uint32_t& c : w.columns) c = static_cast<uint32_t>(rng.NextBounded(kFoldColumns));
  return w;
}

// Runs every update through `fold(column_ptr, hash_ptr)`; returns a digest
// of the final matrix (widened, so 32- and 64-bit variants compare).
template <typename Slot, typename Fold>
uint64_t RunFold(const FoldWorkload& w, Slot empty, Fold fold) {
  std::vector<Slot> matrix(kFoldColumns * kSignatureSize, empty);
  for (size_t u = 0; u < w.columns.size(); ++u) {
    fold(matrix.data() + size_t{w.columns[u]} * kSignatureSize,
         w.hashes.data() + (u % kFoldRows) * kSignatureSize);
  }
  uint64_t digest = 0;
  for (Slot v : matrix) {
    digest = (digest ^ (v == empty ? kEmptySlot : uint64_t{v})) * 1099511628211ULL;
  }
  return digest;
}

int Run(int argc, char** argv) {
  BenchEnv env;
  std::string json_path = "BENCH_kernels.json";
  std::string bbs_json_path = "BENCH_bbs.json";
  env.flags().AddString("json", &json_path,
                        "write the flavour x workload x d grid to this file");
  env.flags().AddString("bbs-json", &bbs_json_path,
                        "write the BBS node-prune micro grid to this file");
  if (!env.Init(argc, argv,
                "Dominance kernels: scalar vs tiled vs simd sweeps for "
                "SkylineSFS, SigGen-IF, and a FilterDominators micro",
                /*default_scale=*/1.0)) {
    return 0;
  }
  const RowId paper_n = 100000;
  std::printf("simd dispatch: %s\n\n", ToString(DetectSimdIsa()));
  ShapeChecks shape("kernels");
  TablePrinter table({"data", "dims", "n", "m", "sfs_scalar_s", "sfs_tiled_s",
                      "sfs_simd_s", "if_scalar_s", "if_tiled_s", "if_simd_s",
                      "fd_tiled_s", "fd_sweep_s", "fd_simd_s", "fd_x",
                      "fused_x"});
  std::vector<JsonRecord> records;
  RowId actual_n = 0;

  for (const WorkloadKind kind :
       {WorkloadKind::kIndependent, WorkloadKind::kCorrelated,
        WorkloadKind::kAnticorrelated}) {
    for (const Dim d : {Dim{4}, Dim{8}, Dim{12}}) {
      const DataSet& data = env.Data(kind, paper_n, d);
      actual_n = data.size();
      const auto skyline = SkylineSFS(data).rows;
      const size_t m = skyline.size();
      const auto family =
          MinHashFamily::Create(kSignatureSize, data.size(), env.seed());
      const std::string workload = WorkloadKindName(kind);

      // End-to-end consumers, one column per flavour.
      double sfs_s[3], if_s[3];
      std::vector<RowId> sink;
      uint64_t checks_sink = 0;
      for (size_t f = 0; f < 3; ++f) {
        const DomKernel flavour = kFlavours[f];
        uint64_t before = DominanceCounter::Count();
        sfs_s[f] = BestOf([&] { sink = SkylineSFS(data, flavour).rows; });
        records.push_back({workload, d, ToString(flavour), "sfs", sfs_s[f],
                           (DominanceCounter::Count() - before) / kReps});
        before = DominanceCounter::Count();
        if_s[f] = BestOf([&] {
          checks_sink += SigGenIF(data, skyline, family, flavour)->dominance_checks;
        });
        records.push_back({workload, d, ToString(flavour), "siggen_if", if_s[f],
                           (DominanceCounter::Count() - before) / kReps});
      }
      (void)checks_sink;

      // FilterDominators micro: every data row probed against the
      // materialized skyline tiles — the pure sweep, no consumer logic.
      // The mask digest doubles as a cross-flavour identity check.
      const TileSet sky_tiles = MaterializeTiles(data, skyline);
      double fd_s[3];
      uint64_t fd_digest[3] = {0, 0, 0};
      for (size_t f = 0; f < 3; ++f) {
        const DominanceKernel kernel(kFlavours[f]);
        fd_s[f] = BestOf([&] {
          uint64_t digest = 0;
          for (RowId r = 0; r < data.size(); ++r) {
            const auto p = data.row(r);
            for (const Tile& t : sky_tiles.tiles()) {
              digest ^= kernel.FilterDominators(p, t.view()) + r;
            }
          }
          fd_digest[f] = digest;
        });
        records.push_back({workload, d, ToString(kFlavours[f]),
                           "filter_dominators", fd_s[f],
                           static_cast<uint64_t>(data.size()) * m});
      }
      // The previous simd FilterDominators on the same backend: the
      // dims-outer word sweep, `gt & ~lt`, stopping once every row has lt.
      const kernel_internal::SimdBackend& backend = kernel_internal::ResolvedBackend();
      uint64_t sweep_digest = 0;
      const double sweep_s = BestOf([&] {
        uint64_t digest = 0;
        for (RowId r = 0; r < data.size(); ++r) {
          const auto p = data.row(r);
          for (const Tile& t : sky_tiles.tiles()) {
            uint64_t lt = 0, gt = 0;
            backend.sweep(p.data(), t.view(), kernel_internal::SweepStop::kAllLt, &lt, &gt);
            digest ^= (gt & ~lt) + r;
          }
        }
        sweep_digest = digest;
      });
      records.push_back({workload, d, backend.name, "sweep_dominators", sweep_s,
                         static_cast<uint64_t>(data.size()) * m});

      table.Row({workload, TablePrinter::Int(d), TablePrinter::Int(data.size()),
                 TablePrinter::Int(m), TablePrinter::Secs(sfs_s[0]),
                 TablePrinter::Secs(sfs_s[1]), TablePrinter::Secs(sfs_s[2]),
                 TablePrinter::Secs(if_s[0]), TablePrinter::Secs(if_s[1]),
                 TablePrinter::Secs(if_s[2]), TablePrinter::Secs(fd_s[1]),
                 TablePrinter::Secs(sweep_s), TablePrinter::Secs(fd_s[2]),
                 TablePrinter::Num(fd_s[1] / fd_s[2], 2),
                 TablePrinter::Num(sweep_s / fd_s[2], 2)});

      const std::string tag = workload + " d=" + std::to_string(d);
      shape.Check(tag + ": flavours produce identical dominator masks",
                  fd_digest[0] == fd_digest[1] && fd_digest[1] == fd_digest[2] &&
                      sweep_digest == fd_digest[2]);

      // The batched sweeps should pay off wherever the skyline spans tiles
      // and the pass is exhaustive (SigGen-IF); 10% slack for noise.
      if (m >= 256) {
        shape.Check(tag + ": tiled SigGen-IF no slower than scalar",
                    if_s[1] <= if_s[0] * 1.10);
        if (SimdAvailable()) {
          shape.Check(tag + ": simd SigGen-IF no slower than scalar",
                      if_s[2] <= if_s[0] * 1.10);
        }
      }
      // The headline acceptance ratio: the explicit SIMD sweep vs the
      // branchy tiled sweep on the isolated FilterDominators micro, at the
      // full n = 100k (scaled-down smoke runs are too noisy to gate on).
      if (SimdAvailable() && d == 8 && m >= 256 && env.scale() <= 1.0) {
        shape.Check(tag + ": simd FilterDominators >= 1.3x tiled",
                    fd_s[2] * 1.3 <= fd_s[1]);
      }
    }
  }

  // ---------------------------------------------------------------------
  // Signature min-fold micro.
  std::printf("\nSignature min-fold: %zu columns x t=%zu, ns per slot update\n",
              kFoldColumns, kSignatureSize);
  TablePrinter fold_table({"backend", "updates", "seconds", "ns_per_slot", "x_scalar64"});
  const size_t fold_updates =
      std::max<size_t>(1000, static_cast<size_t>(2'000'000 / env.scale()));
  const FoldWorkload fold = MakeFoldWorkload(fold_updates, env.seed());
  const uint64_t slot_updates = fold_updates * kSignatureSize;
  uint64_t want_digest = 0;
  const double scalar64_s = BestOf([&] {
    want_digest = RunFold(fold, kEmptySlot, [](uint64_t* col, const uint32_t* h) {
      for (size_t i = 0; i < kSignatureSize; ++i) {
        if (h[i] < col[i]) col[i] = h[i];
      }
    });
  });
  records.push_back({"fold", 0, "scalar64", "min_fold", scalar64_s, slot_updates});
  fold_table.Row({"scalar64", TablePrinter::Int(fold_updates), TablePrinter::Secs(scalar64_s),
                  TablePrinter::Num(scalar64_s * 1e9 / static_cast<double>(slot_updates), 3),
                  TablePrinter::Num(1.0, 2)});
  for (const kernel_internal::SimdBackend* backend : kernel_internal::RunnableBackends()) {
    uint64_t digest = 0;
    const double secs = BestOf([&] {
      digest = RunFold(fold, kEmptySlot32, [&](uint32_t* col, const uint32_t* h) {
        backend->min_fold(col, h, kSignatureSize);
      });
    });
    records.push_back({"fold", 0, backend->name, "min_fold", secs, slot_updates});
    fold_table.Row({backend->name, TablePrinter::Int(fold_updates), TablePrinter::Secs(secs),
                    TablePrinter::Num(secs * 1e9 / static_cast<double>(slot_updates), 3),
                    TablePrinter::Num(scalar64_s / secs, 2)});
    shape.Check(std::string("fold ") + backend->name + ": same slots as scalar64",
                digest == want_digest);
  }
  if (!json_path.empty()) WriteJson(json_path, "kernels", actual_n, records);

  // ---------------------------------------------------------------------
  // BBS node-prune micro. The grid is bounded where the skyline would be
  // quadratically huge (ANT at high d): the screen story is told by IND
  // across d, with one ANT cell (large skyline, low d) and one CORR cell
  // (tiny skyline: both orders degenerate to one tile).
  std::printf("\nBBS node prune: per-entry AnyDominator vs corner-tile "
              "PruneCorners\n");
  TablePrinter bbs_table({"data", "dims", "n", "m", "corners", "pe_scalar_s",
                          "pe_tiled_s", "pe_simd_s", "ct_scalar_s", "ct_tiled_s",
                          "ct_simd_s", "ct_x"});
  std::vector<JsonRecord> bbs_records;
  struct BbsCell {
    WorkloadKind kind;
    Dim dims;
  };
  const BbsCell kBbsGrid[] = {{WorkloadKind::kIndependent, 4},
                              {WorkloadKind::kIndependent, 8},
                              {WorkloadKind::kIndependent, 12},
                              {WorkloadKind::kAnticorrelated, 4},
                              {WorkloadKind::kCorrelated, 8}};
  for (const BbsCell& cell : kBbsGrid) {
    const DataSet& data = env.Data(cell.kind, paper_n, cell.dims);
    const auto tree = RTree::BulkLoad(data).value();
    const auto skyline = SkylineSFS(data).rows;
    const size_t m = skyline.size();
    const TileSet sky_tiles = MaterializeTiles(data, skyline);
    const BbsWorkload workload = CollectNodeCorners(tree);
    const std::string workload_name = WorkloadKindName(cell.kind);
    Tile scratch(data.dims());

    double pe_s[3], ct_s[3];
    uint64_t pe_digest[3] = {0, 0, 0};
    uint64_t ct_digest[3] = {0, 0, 0};
    for (size_t f = 0; f < 3; ++f) {
      const DominanceKernel kernel(kFlavours[f]);
      uint64_t before = DominanceCounter::Count();
      pe_s[f] = BestOf(
          [&] { pe_digest[f] = PerEntryReplay(workload, sky_tiles, kernel); });
      bbs_records.push_back({workload_name, cell.dims, ToString(kFlavours[f]),
                             "bbs_per_entry", pe_s[f],
                             (DominanceCounter::Count() - before) / kReps});
      before = DominanceCounter::Count();
      ct_s[f] = BestOf([&] {
        ct_digest[f] = CornerTileReplay(workload, sky_tiles, kernel, &scratch);
      });
      bbs_records.push_back({workload_name, cell.dims, ToString(kFlavours[f]),
                             "bbs_corner_tile", ct_s[f],
                             (DominanceCounter::Count() - before) / kReps});
    }

    bbs_table.Row({workload_name, TablePrinter::Int(cell.dims),
                   TablePrinter::Int(data.size()), TablePrinter::Int(m),
                   TablePrinter::Int(workload.corners), TablePrinter::Secs(pe_s[0]),
                   TablePrinter::Secs(pe_s[1]), TablePrinter::Secs(pe_s[2]),
                   TablePrinter::Secs(ct_s[0]), TablePrinter::Secs(ct_s[1]),
                   TablePrinter::Secs(ct_s[2]),
                   TablePrinter::Num(pe_s[2] / ct_s[2], 2)});

    const std::string tag =
        std::string(workload_name) + " d=" + std::to_string(cell.dims);
    shape.Check(tag + ": prune survivors identical across orders and flavours",
                pe_digest[0] == pe_digest[1] && pe_digest[1] == pe_digest[2] &&
                    ct_digest[0] == pe_digest[0] && ct_digest[1] == pe_digest[0] &&
                    ct_digest[2] == pe_digest[0]);
    // The headline acceptance ratio: corner-tile sweep vs per-entry
    // AnyDominator under the simd flavour at the paper point (n=100k,
    // d=8, AVX2); gated to full-scale runs with a multi-tile skyline.
    if (SimdAvailable() && cell.kind == WorkloadKind::kIndependent &&
        cell.dims == 8 && m >= 256 && env.scale() <= 1.0) {
      shape.Check(tag + ": corner-tile prune >= 1.3x per-entry (simd)",
                  ct_s[2] * 1.3 <= pe_s[2]);
    }
  }
  if (!bbs_json_path.empty()) {
    WriteJson(bbs_json_path, "bbs", actual_n, bbs_records);
  }
  shape.Summarize();  // benches always exit 0; the summary is for eyeballing
  return 0;
}

}  // namespace
}  // namespace skydiver::bench

int main(int argc, char** argv) { return skydiver::bench::Run(argc, argv); }
