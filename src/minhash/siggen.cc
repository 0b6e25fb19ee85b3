#include "minhash/siggen.h"

#include <algorithm>
#include <bit>
#include <deque>

#include "core/dominance.h"
#include "kernels/tile_view.h"
#include "rtree/disk_rtree.h"

namespace skydiver {

namespace {

// Validates the shared preconditions of both generators.
Status ValidateInputs(const DataSet& data, const std::vector<RowId>& skyline,
                      const MinHashFamily& family) {
  if (data.empty()) return Status::InvalidArgument("dataset is empty");
  if (skyline.empty()) return Status::InvalidArgument("skyline set is empty");
  SKYDIVER_RETURN_NOT_OK(CheckHashFamily(family, data.size()));
  for (RowId s : skyline) {
    if (s >= data.size()) {
      return Status::InvalidArgument("skyline row " + std::to_string(s) +
                                     " out of range");
    }
  }
  return Status::OK();
}

}  // namespace

uint64_t SequentialScanPages(uint64_t n, Dim dims, uint32_t page_size) {
  const uint64_t record_bytes = sizeof(Coord) * dims + sizeof(RowId);
  const uint64_t records_per_page = std::max<uint64_t>(1, page_size / record_bytes);
  return (n + records_per_page - 1) / records_per_page;
}

Result<SigGenResult> SigGenIF(const DataSet& data, const std::vector<RowId>& skyline,
                              const MinHashFamily& family, DomKernel kernel) {
  SKYDIVER_RETURN_NOT_OK(ValidateInputs(data, skyline, family));
  const uint64_t checks_before = DominanceCounter::Count();

  const size_t t = family.size();
  const size_t m = skyline.size();
  const RowId n = data.size();
  kernel = EffectiveKernel(kernel, m);
  SigGenResult out;
  out.signatures = SignatureMatrix(t, m);
  out.domination_scores.assign(m, 0);

  std::vector<bool> is_skyline(n, false);
  for (RowId s : skyline) is_skyline[s] = true;

  // Hash values of the current row, computed once and min-folded into
  // every dominating column (equivalent to the paper's per-column
  // UpdateMatrix, which re-evaluates the same t hashes).
  std::vector<uint32_t> row_hash(t);
  if (IsBatched(kernel)) {
    // The skyline columns live in column-major tiles; each tile id holds
    // the signature-column index j, so mask bits map straight back to
    // columns. Both the scalar and the batched passes are exhaustive (no
    // early exit), so signatures, scores, and dominance counts all match
    // exactly.
    TileSet sky_tiles(data.dims());
    for (size_t j = 0; j < m; ++j) {
      sky_tiles.Append(static_cast<RowId>(j), data.row(skyline[j]));
    }
    const DominanceKernel batch(kernel);
    for (RowId r = 0; r < n; ++r) {
      if (is_skyline[r]) continue;
      const auto point = data.row(r);
      bool hashed = false;
      for (const Tile& tile : sky_tiles.tiles()) {
        uint64_t mask = batch.FilterDominators(point, tile.view());
        while (mask != 0) {
          const int bit = std::countr_zero(mask);
          mask &= mask - 1;
          const size_t j = tile.id(static_cast<size_t>(bit));
          ++out.domination_scores[j];
          if (!hashed) {
            family.ApplyAll(r, row_hash);
            hashed = true;
          }
          out.signatures.FoldColumn(j, row_hash);
        }
      }
    }
  } else {
    for (RowId r = 0; r < n; ++r) {
      if (is_skyline[r]) continue;  // skyline points belong to no Γ set
      const auto point = data.row(r);
      bool hashed = false;
      for (size_t j = 0; j < m; ++j) {
        if (!Dominates(data.row(skyline[j]), point)) continue;
        ++out.domination_scores[j];
        if (!hashed) {
          family.ApplyAll(r, row_hash);
          hashed = true;
        }
        out.signatures.FoldColumn(j, row_hash);
      }
    }
  }

  // Sequential scan of the data file: every page is a physical read.
  const uint64_t pages = SequentialScanPages(n, data.dims(), 4096);
  out.io.page_reads = pages;
  out.io.page_faults = pages;
  out.dominance_checks = DominanceCounter::Count() - checks_before;
  return out;
}

namespace {

// Shared implementation over any tree backend exposing ReadNode / root /
// dims / size / io_stats (RTree and DiskRTree).
template <typename Tree>
Result<SigGenResult> SigGenIBImpl(const DataSet& data, const std::vector<RowId>& skyline,
                                  const MinHashFamily& family, const Tree& tree) {
  SKYDIVER_RETURN_NOT_OK(ValidateInputs(data, skyline, family));
  if (tree.dims() != data.dims() || tree.size() != data.size()) {
    return Status::InvalidArgument("R-tree does not index the given dataset");
  }
  const uint64_t checks_before = DominanceCounter::Count();
  const IoStats io_before = tree.io_stats();

  const size_t t = family.size();
  const size_t m = skyline.size();
  SigGenResult out;
  out.signatures = SignatureMatrix(t, m);
  out.domination_scores.assign(m, 0);

  // Skyline coordinates, resolved once.
  std::vector<std::span<const Coord>> sky(m);
  for (size_t j = 0; j < m; ++j) sky[j] = data.row(skyline[j]);

  // Row-id counter: the traversal assigns consecutive ids to data points in
  // visit order. MinHash only needs *distinct* ids under a random
  // permutation, so the enumeration order is free (paper Fig. 4, rowcount).
  uint64_t rowcount = 0;

  // Scratch: per-hash minimum over the id range of a bulk update.
  std::vector<uint32_t> range_min(t);
  std::vector<size_t> full;  // columns fully dominating the current entry

  // Applies `count` consecutive row ids to all columns in `full`. The
  // per-range hash minima are shared across columns (all dominators see the
  // same id range), turning the paper's count x |full| x t loop into
  // count x t + |full| x t.
  auto update_full_dominance = [&](uint64_t count) {
    if (full.empty() || count == 0) {
      rowcount += count;
      return;
    }
    family.ApplyRangeMin(rowcount, count, range_min);
    for (size_t j : full) {
      out.domination_scores[j] += count;
      out.signatures.FoldColumn(j, range_min);
    }
    rowcount += count;
  };

  // Each queued subtree carries its dominance context: `full` holds the
  // skyline columns already known to dominate the whole subtree (inherited
  // from ancestors), `candidates` the columns that partially dominate it
  // and must be re-examined against its children. Columns that do not even
  // dominate an ancestor's upper corner can dominate nothing below and are
  // dropped — this candidate propagation computes exactly the paper's
  // Fig. 4 classification while skipping checks Fig. 4 would repeat.
  struct Task {
    PageId page;
    std::vector<size_t> full;
    std::vector<size_t> candidates;
  };
  std::deque<Task> queue;
  {
    Task root;
    root.page = tree.root();
    root.candidates.resize(m);
    for (size_t j = 0; j < m; ++j) root.candidates[j] = j;
    queue.push_back(std::move(root));
  }
  std::vector<size_t> partial;  // scratch: candidate set for a child task
  while (!queue.empty()) {
    Task task = std::move(queue.front());
    queue.pop_front();
    // Pin discipline (rtree/page_cache.h): name the ref, check it, borrow
    // the node. RTree's infallible shape compiles the check away.
    decltype(auto) ref = tree.ReadNode(task.page);
    if (!RefOk(ref)) return RefStatus(ref);
    const RTreeNode& node = NodeOf(ref);
    for (const auto& e : node.entries) {
      if (node.is_leaf) {
        // Leaf entry = data point. Its dominators are the inherited full
        // set plus every candidate that dominates the point itself.
        full = task.full;
        for (size_t j : task.candidates) {
          if (Dominates(sky[j], e.mbr.lo())) full.push_back(j);
        }
        update_full_dominance(1);
        continue;
      }
      full = task.full;
      partial.clear();
      for (size_t j : task.candidates) {
        if (e.mbr.FullyDominatedBy(sky[j])) {
          full.push_back(j);
        } else if (e.mbr.UpperCornerDominatedBy(sky[j])) {
          partial.push_back(j);
        }
      }
      if (partial.empty()) {
        // Exclusively full (or no) dominance: bulk-update without reading
        // the subtree — the aggregate count stands in for its points.
        update_full_dominance(e.count);
      } else {
        queue.push_back(Task{e.child, full, partial});  // must look inside
      }
    }
  }

  const IoStats io_after = tree.io_stats();
  out.io.page_reads = io_after.page_reads - io_before.page_reads;
  out.io.page_faults = io_after.page_faults - io_before.page_faults;
  out.io.page_writes = io_after.page_writes - io_before.page_writes;
  out.dominance_checks = DominanceCounter::Count() - checks_before;
  return out;
}

}  // namespace

Result<SigGenResult> SigGenIB(const DataSet& data, const std::vector<RowId>& skyline,
                              const MinHashFamily& family, const RTree& tree) {
  return SigGenIBImpl(data, skyline, family, tree);
}

Result<SigGenResult> SigGenIB(const DataSet& data, const std::vector<RowId>& skyline,
                              const MinHashFamily& family, const DiskRTree& tree) {
  return SigGenIBImpl(data, skyline, family, tree);
}

}  // namespace skydiver
