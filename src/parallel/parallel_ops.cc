#include "parallel/parallel_ops.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>

#include "common/mutex.h"
#include "core/dominance.h"
#include "kernels/tile_view.h"
#include "parallel/morsel.h"

namespace skydiver {

namespace {

// Folds pool-side dominance work into the calling thread's counters so that
// surrounding scopes (CheckScope, QueryContext stage accounting) observe it;
// returns the harvested total for the result struct.
uint64_t FoldHarvest(ThreadPool& pool) {
  const DominanceHarvest h = pool.HarvestDominanceChecks();
  DominanceCounter::Count() += h.total;
  DominanceCounter::TiledCount() += h.tiled;
  return h.total;
}

}  // namespace

SkylineResult ParallelSkyline(const DataView& view, ThreadPool& pool,
                              DomKernel kernel, size_t morsel_rows) {
  const uint64_t checks_before = DominanceCounter::Count();
  (void)pool.HarvestDominanceChecks();  // drop leftovers from earlier pool users
  const std::vector<RowId>& all = view.rows();

  // Phase 1: local skylines per claim. Each claim is a contiguous slice of
  // the view's (ascending) row list; SkylineSFSRows works on the shared
  // view in place, so no per-shard dataset copies are made. Slots index
  // the claims (pure function of the row range), so the fold below is
  // scheduling-independent.
  MorselConfig cfg;
  cfg.morsel_rows = morsel_rows;
  MorselQueue queue(all.size(), pool.size(), cfg);
  std::vector<std::vector<RowId>> locals(queue.slots());
  RunMorsels(pool, queue, [&](const MorselQueue::Claim& c) {
    locals[c.slot] =
        SkylineSFSRows(view,
                       std::span<const RowId>(all).subspan(
                           static_cast<size_t>(c.begin),
                           static_cast<size_t>(c.end - c.begin)),
                       kernel)
            .rows;
  });
  FoldHarvest(pool);

  // Phase 2: merge — the union of local skylines is a superset of the
  // global skyline; one SFS pass over it finishes the job.
  std::vector<RowId> candidates;
  for (const auto& l : locals) candidates.insert(candidates.end(), l.begin(), l.end());
  std::sort(candidates.begin(), candidates.end());
  std::vector<RowId> out = SkylineSFSRows(view, candidates, kernel).rows;
  return SkylineResult{std::move(out), DominanceCounter::Count() - checks_before};
}

SkylineResult ParallelSkyline(const DataSet& data, ThreadPool& pool,
                              DomKernel kernel, size_t morsel_rows) {
  return ParallelSkyline(DataView(data), pool, kernel, morsel_rows);
}

SkylineResult ShardedSkyline(const DataView& view, size_t shards, ThreadPool* pool,
                             DomKernel kernel) {
  if (pool == nullptr || shards <= 1 || view.empty()) {
    return SkylineSharded(view, shards, kernel);
  }
  const uint64_t checks_before = DominanceCounter::Count();
  (void)pool->HarvestDominanceChecks();  // drop leftovers from earlier pool users
  const std::vector<RowId>& all = view.rows();
  shards = std::clamp<size_t>(shards, 1, all.size());
  // SkylineSharded's exact chunking (ceil-sized chunks, short tail), so the
  // per-shard inputs — and with them the dominance-check tally — match the
  // serial backend, not just the merged row set.
  const size_t chunk = (all.size() + shards - 1) / shards;
  const size_t populated = (all.size() + chunk - 1) / chunk;
  std::vector<std::vector<RowId>> locals(populated);

  // Shard phase on the pool: the claim unit is one shard (morsel_rows = 1,
  // batch = 1 over [0, populated)), so slot == shard id and the merge below
  // folds in shard order — the result set is order-independent (the
  // skyline of a union is unique), but a fixed fold order also makes the
  // dominance-check tally deterministic.
  MorselConfig cfg;
  cfg.morsel_rows = 1;
  cfg.batch_morsels = 1;
  MorselQueue queue(populated, pool->size(), cfg);
  RunMorsels(*pool, queue, [&](const MorselQueue::Claim& c) {
    const size_t s = c.slot;
    const size_t begin = s * chunk;
    const size_t end = std::min(begin + chunk, all.size());
    locals[s] = SkylineSFSRows(
                    view, std::span<const RowId>(all).subspan(begin, end - begin),
                    kernel)
                    .rows;
  });
  FoldHarvest(*pool);

  // Merge phase: left-fold the local antichains with the cross-filter.
  std::vector<RowId> merged;
  for (auto& l : locals) {
    if (merged.empty()) {
      merged = std::move(l);
    } else if (!l.empty()) {
      merged = CrossFilterMerge(view, merged, l, kernel);
    }
  }
  std::sort(merged.begin(), merged.end());
  return SkylineResult{std::move(merged), DominanceCounter::Count() - checks_before};
}

Result<SigGenResult> ParallelSigGenIF(const DataSet& data,
                                      const std::vector<RowId>& skyline,
                                      const MinHashFamily& family, ThreadPool& pool,
                                      DomKernel kernel, size_t morsel_rows) {
  if (data.empty()) return Status::InvalidArgument("dataset is empty");
  if (skyline.empty()) return Status::InvalidArgument("skyline set is empty");
  SKYDIVER_RETURN_NOT_OK(CheckHashFamily(family, data.size()));
  const size_t t = family.size();
  const size_t m = skyline.size();
  const RowId n = data.size();
  for (RowId s : skyline) {
    if (s >= n) return Status::InvalidArgument("skyline row out of range");
  }
  kernel = EffectiveKernel(kernel, m);
  const uint64_t checks_before = DominanceCounter::Count();
  (void)pool.HarvestDominanceChecks();  // drop leftovers from earlier pool users

  std::vector<bool> is_skyline(n, false);
  for (RowId s : skyline) is_skyline[s] = true;

  // Shared read-only tiling of the skyline columns (tile ids = column
  // index j), built once and swept by every shard under a batched kernel.
  TileSet sky_tiles(data.dims());
  if (IsBatched(kernel)) {
    for (size_t j = 0; j < m; ++j) {
      sky_tiles.Append(static_cast<RowId>(j), data.row(skyline[j]));
    }
  }
  // Shards only read the tiling; freezing makes that contract explicit and
  // turns an accidental cross-thread mutation into a debug-build abort.
  sky_tiles.Freeze();

  // One reduction slot per claim (a batch of consecutive morsels — see
  // parallel/morsel.h); the auto batch size bounds the per-slot t x m
  // matrices to ~kClaimsPerWorker x pool size.
  MorselConfig cfg;
  cfg.morsel_rows = morsel_rows;
  MorselQueue queue(n, pool.size(), cfg);
  const size_t slots = queue.slots();
  std::vector<SignatureMatrix> slot_sig(slots, SignatureMatrix(t, m));
  std::vector<std::vector<uint64_t>> slot_scores(slots,
                                                 std::vector<uint64_t>(m, 0));

  RunMorsels(pool, queue, [&](const MorselQueue::Claim& c) {
    SignatureMatrix& sig = slot_sig[c.slot];
    std::vector<uint64_t>& scores = slot_scores[c.slot];
    std::vector<uint32_t> row_hash(t);
    const DominanceKernel batch(kernel);
    for (uint64_t r = c.begin; r < c.end; ++r) {
      if (is_skyline[r]) continue;
      const auto point = data.row(static_cast<RowId>(r));
      bool hashed = false;
      if (IsBatched(kernel)) {
        for (const Tile& tile : sky_tiles.tiles()) {
          uint64_t mask = batch.FilterDominators(point, tile.view());
          while (mask != 0) {
            const int bit = std::countr_zero(mask);
            mask &= mask - 1;
            const size_t j = tile.id(static_cast<size_t>(bit));
            ++scores[j];
            if (!hashed) {
              family.ApplyAll(r, row_hash);
              hashed = true;
            }
            sig.FoldColumn(j, row_hash);
          }
        }
        continue;
      }
      for (size_t j = 0; j < m; ++j) {
        if (!Dominates(data.row(skyline[j]), point)) continue;
        ++scores[j];
        if (!hashed) {
          family.ApplyAll(r, row_hash);
          hashed = true;
        }
        sig.FoldColumn(j, row_hash);
      }
    }
  });
  FoldHarvest(pool);

  // Min-merge slot matrices in ascending slot order; add slot scores.
  // (MinHash minima and sums are associative/commutative, so any order
  // yields the serial result — the fixed order is belt-and-braces and
  // keeps this loop trivially auditable against the determinism bar.)
  SigGenResult out;
  out.signatures = SignatureMatrix(t, m);
  out.domination_scores.assign(m, 0);
  for (size_t s = 0; s < slots; ++s) {
    for (size_t j = 0; j < m; ++j) out.domination_scores[j] += slot_scores[s][j];
    out.signatures.FoldMatrix(slot_sig[s]);
  }
  const uint64_t pages = SequentialScanPages(n, data.dims(), 4096);
  out.io.page_reads = pages;
  out.io.page_faults = pages;
  out.dominance_checks = DominanceCounter::Count() - checks_before;
  return out;
}

namespace {

// One unit of parallel IB work: either a subtree with its dominance
// context (page valid), or a pure range update over `count` row ids for
// a subtree that needs no descent (page == kInvalidPageId).
struct IbTask {
  PageId page = kInvalidPageId;
  uint64_t base = 0;               // first row id of this subtree
  uint64_t count = 0;              // range length for pure range updates
  std::vector<size_t> full;        // columns dominating the whole subtree
  std::vector<size_t> candidates;  // columns partially dominating it
};

// Per-worker state for the recursive subtree processing.
struct IbWorker {
  SignatureMatrix signatures;
  std::vector<uint64_t> scores;
  uint64_t pages_read = 0;

  IbWorker(size_t t, size_t m) : signatures(t, m), scores(m, 0) {}
};

// Applies `count` consecutive row ids starting at `base` to all columns in
// `full` of the worker's local matrix.
void IbRangeUpdate(const MinHashFamily& family, uint64_t base, uint64_t count,
                   const std::vector<size_t>& full, IbWorker* worker) {
  if (full.empty() || count == 0) return;
  thread_local std::vector<uint32_t> range_min;
  range_min.resize(family.size());
  family.ApplyRangeMin(base, count, range_min);
  for (size_t j : full) {
    worker->scores[j] += count;
    worker->signatures.FoldColumn(j, range_min);
  }
}

// Processes one subtree recursively against the candidate columns; row-id
// ranges come from the DFS prefix sums of the entry counts.
void IbProcessSubtree(const DataSet& data, const std::vector<std::span<const Coord>>& sky,
                      const MinHashFamily& family, const RTree& tree,
                      const IbTask& task, IbWorker* worker) {
  const RTreeNode& node = tree.PeekNode(task.page);
  ++worker->pages_read;
  uint64_t offset = task.base;
  std::vector<size_t> full;
  std::vector<size_t> partial;
  for (const auto& e : node.entries) {
    if (node.is_leaf) {
      full = task.full;
      for (size_t j : task.candidates) {
        if (Dominates(sky[j], e.mbr.lo())) full.push_back(j);
      }
      IbRangeUpdate(family, offset, 1, full, worker);
      offset += 1;
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
      IbRangeUpdate(family, offset, e.count, full, worker);
    } else {
      IbProcessSubtree(data, sky, family, tree,
                       IbTask{e.child, offset, 0, full, partial}, worker);
    }
    offset += e.count;
  }
}

}  // namespace

Result<SigGenResult> ParallelSigGenIB(const DataSet& data,
                                      const std::vector<RowId>& skyline,
                                      const MinHashFamily& family, const RTree& tree,
                                      ThreadPool& pool) {
  if (data.empty()) return Status::InvalidArgument("dataset is empty");
  if (skyline.empty()) return Status::InvalidArgument("skyline set is empty");
  SKYDIVER_RETURN_NOT_OK(CheckHashFamily(family, data.size()));
  if (tree.dims() != data.dims() || tree.size() != data.size()) {
    return Status::InvalidArgument("R-tree does not index the given dataset");
  }
  const size_t t = family.size();
  const size_t m = skyline.size();
  for (RowId s : skyline) {
    if (s >= data.size()) return Status::InvalidArgument("skyline row out of range");
  }
  std::vector<std::span<const Coord>> sky(m);
  for (size_t j = 0; j < m; ++j) sky[j] = data.row(skyline[j]);
  const uint64_t checks_before = DominanceCounter::Count();
  (void)pool.HarvestDominanceChecks();  // drop leftovers from earlier pool users

  // Split the tree's top levels into tasks with DFS base offsets, until
  // there are enough tasks to feed the pool (or nothing is expandable).
  std::vector<IbTask> tasks;
  {
    std::vector<size_t> all(m);
    for (size_t j = 0; j < m; ++j) all[j] = j;
    tasks.push_back(IbTask{tree.root(), 0, 0, {}, std::move(all)});
    bool expanded = true;
    while (expanded && tasks.size() < 4 * std::max<size_t>(1, pool.size())) {
      expanded = false;
      std::vector<IbTask> next;
      next.reserve(tasks.size() * 4);
      for (IbTask& task : tasks) {
        if (task.page == kInvalidPageId) {
          next.push_back(std::move(task));  // pure range update: nothing to expand
          continue;
        }
        const RTreeNode& node = tree.PeekNode(task.page);
        if (node.is_leaf) {
          next.push_back(std::move(task));  // per-point work stays one task
          continue;
        }
        expanded = true;
        uint64_t offset = task.base;
        for (const auto& e : node.entries) {
          std::vector<size_t> full = task.full;
          std::vector<size_t> partial;
          for (size_t j : task.candidates) {
            if (e.mbr.FullyDominatedBy(sky[j])) {
              full.push_back(j);
            } else if (e.mbr.UpperCornerDominatedBy(sky[j])) {
              partial.push_back(j);
            }
          }
          if (partial.empty()) {
            next.push_back(
                IbTask{kInvalidPageId, offset, e.count, std::move(full), {}});
          } else {
            next.push_back(
                IbTask{e.child, offset, 0, std::move(full), std::move(partial)});
          }
          offset += e.count;
        }
      }
      tasks = std::move(next);
    }
  }

  // Workers.
  const size_t shards = std::max<size_t>(1, pool.size());
  std::vector<IbWorker> workers;
  workers.reserve(shards);
  for (size_t s = 0; s < shards; ++s) workers.emplace_back(t, m);
  std::atomic<size_t> next_task{0};
  std::atomic<size_t> next_worker{0};
  for (size_t s = 0; s < shards; ++s) {
    const bool submitted = pool.Submit([&] {
      const size_t my_id = next_worker.fetch_add(1);
      IbWorker& worker = workers[my_id];
      for (;;) {
        const size_t idx = next_task.fetch_add(1);
        if (idx >= tasks.size()) return;
        const IbTask& task = tasks[idx];
        if (task.page == kInvalidPageId) {
          IbRangeUpdate(family, task.base, task.count, task.full, &worker);
        } else {
          IbProcessSubtree(data, sky, family, tree, task, &worker);
        }
      }
    });
    if (!submitted) break;  // pool shutting down; completed work still merges
  }
  pool.Wait();
  FoldHarvest(pool);

  SigGenResult out;
  out.signatures = SignatureMatrix(t, m);
  out.domination_scores.assign(m, 0);
  for (const IbWorker& worker : workers) {
    for (size_t j = 0; j < m; ++j) out.domination_scores[j] += worker.scores[j];
    out.signatures.FoldMatrix(worker.signatures);
  }
  uint64_t pages = 0;
  for (const IbWorker& worker : workers) pages += worker.pages_read;
  out.io.page_reads = pages;
  out.dominance_checks = DominanceCounter::Count() - checks_before;
  return out;
}

namespace {

// Per-slot argmax state for one selection round. Initialized exactly like
// the serial scan's running best (index m, -inf distance and score), so
// folding slots in ascending order with the serial loop's strict
// comparisons reproduces the serial ascending scan bit for bit.
struct SelectionBest {
  size_t index;
  double dist;
  double score;
};

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

}  // namespace

Result<DispersionResult> ParallelSelectDiverseSet(size_t m, size_t k,
                                                  const DistanceFn& distance,
                                                  const ScoreFn& score,
                                                  ThreadPool& pool,
                                                  size_t morsel_rows) {
  // Mirror SelectDiverseSet's validation (messages included) so callers
  // can switch between the two paths without changing error handling.
  if (m == 0) return Status::InvalidArgument("no skyline points to select from");
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > m) {
    return Status::InvalidArgument("k = " + std::to_string(k) +
                                   " exceeds skyline cardinality m = " + std::to_string(m));
  }
  DispersionResult out;
  out.selected.reserve(k);

  MorselConfig cfg;
  cfg.morsel_rows = morsel_rows;

  // Written by the coordinator between rounds, read by workers during a
  // round; deliberately uint8_t (vector<bool> packs bits, whose word-level
  // writes would be a race if the flag were ever set mid-round).
  std::vector<uint8_t> taken(m, 0);
  // Cached minimum distance from each unselected point to the selected set
  // (the paper's "boosted SG"). Entry i is written only by the one claim
  // whose range contains i; cross-round visibility rides the pool's mutex
  // (task completion -> Wait() -> next round's SubmitBatch).
  std::vector<double> min_dist(m, std::numeric_limits<double>::infinity());

  // Seed round: morsel argmax of the score, first index wins on ties —
  // identical to the serial MaxScoreIndex ascending scan.
  {
    MorselQueue queue(m, pool.size(), cfg);
    std::vector<SelectionBest> bests(queue.slots());
    RunMorsels(pool, queue, [&](const MorselQueue::Claim& c) {
      SelectionBest best{static_cast<size_t>(c.begin), score(c.begin), 0.0};
      for (uint64_t i = c.begin + 1; i < c.end; ++i) {
        const double s = score(i);
        if (s > best.dist) {  // dist doubles as the seed's score key
          best.dist = s;
          best.index = static_cast<size_t>(i);
        }
      }
      bests[c.slot] = best;
    });
    SelectionBest seed = bests[0];
    for (size_t s = 1; s < bests.size(); ++s) {
      if (bests[s].dist > seed.dist) seed = bests[s];
    }
    out.selected.push_back(seed.index);
    taken[seed.index] = 1;
  }
  out.min_pairwise = std::numeric_limits<double>::infinity();

  while (out.selected.size() < k) {
    const size_t newest = out.selected.back();
    // Refresh caches against the newest member, then pick the argmax of the
    // cached min distance; ties resolved by domination score, then by the
    // lowest index (the strict comparisons keep the first winner, within a
    // slot and across the ascending fold alike).
    MorselQueue queue(m, pool.size(), cfg);
    std::vector<SelectionBest> bests(queue.slots(), SelectionBest{m, kNegInf, kNegInf});
    std::vector<uint64_t> evals(queue.slots(), 0);
    RunMorsels(pool, queue, [&](const MorselQueue::Claim& c) {
      SelectionBest best{m, kNegInf, kNegInf};
      uint64_t local_evals = 0;
      for (uint64_t i = c.begin; i < c.end; ++i) {
        if (taken[i] != 0) continue;
        const double d = distance(i, newest);
        ++local_evals;
        if (d < min_dist[i]) min_dist[i] = d;
        const double s = score(i);
        if (min_dist[i] > best.dist || (min_dist[i] == best.dist && s > best.score)) {
          best.index = static_cast<size_t>(i);
          best.dist = min_dist[i];
          best.score = s;
        }
      }
      bests[c.slot] = best;
      evals[c.slot] = local_evals;
    });
    SelectionBest round{m, kNegInf, kNegInf};
    for (size_t s = 0; s < bests.size(); ++s) {
      out.distance_evaluations += evals[s];
      const SelectionBest& b = bests[s];
      if (b.dist > round.dist || (b.dist == round.dist && b.score > round.score)) {
        round = b;
      }
    }
    out.selected.push_back(round.index);
    taken[round.index] = 1;
    out.min_pairwise = std::min(out.min_pairwise, round.dist);
  }
  if (k < 2) out.min_pairwise = 0.0;
  return out;
}

Result<DispersionResult> ParallelSelectDiverseSet(
    size_t m, size_t k, const DistanceFn& distance,
    const std::vector<uint64_t>& domination_scores, ThreadPool& pool,
    size_t morsel_rows) {
  if (domination_scores.size() < m) {
    return Status::InvalidArgument("domination scores cover " +
                                   std::to_string(domination_scores.size()) +
                                   " points but m = " + std::to_string(m));
  }
  return ParallelSelectDiverseSet(
      m, k, distance,
      [&](size_t j) { return static_cast<double>(domination_scores[j]); }, pool,
      morsel_rows);
}

}  // namespace skydiver
