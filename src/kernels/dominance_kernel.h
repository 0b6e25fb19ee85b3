// Batched dominance kernels — tiled point-vs-block filters.
//
// Every hot loop in the library bottoms out in dominance tests of one
// probe point against a set of candidates (a BNL window, the admitted SFS
// skyline, the skyline columns of SigGen-IF, ...). `DominanceKernel`
// offers those tests as batch operations over a column-major `TileView`
// of up to 64 candidates, returning one result bit per row:
//
//   FilterDominated(p, tile)  -> mask of rows strictly dominated by p
//   FilterDominators(p, tile) -> mask of rows that strictly dominate p
//   AnyDominator(p, tile)     -> true iff some row dominates p
//   ClassifyBlock(p, tile)    -> both masks in one sweep (rows in neither
//                                mask are incomparable with / equal to p)
//   FilterWeaklyDominated(p, tile) -> mask of rows with p <= row everywhere
//   PruneCorners(corners, skyline) -> mask of corner rows some skyline row
//                                dominates (the BBS node-prune criterion,
//                                tile-of-probes against tile-of-candidates)
//
// Three implementations sit behind the `DomKernel` selector, resolved to
// one per-flavour dispatch table at construction so all six entry points
// route through the same implementation:
//
//   * kScalar — reference: per-row calls into core/dominance.h, with the
//     same early exits the pre-kernel loops had. Counter behaviour is
//     identical to hand-written loops.
//   * kTiled  — one branch-free sweep per dimension over the transposed
//     tile, accumulating per-row "probe is less somewhere" / "probe is
//     greater somewhere" byte flags, from which all results derive.
//   * kSimd   — the same sweep with explicit compare-to-mask vector
//     instructions accumulating the flags as 64-bit words: AVX2 (4 x
//     double lanes, movemask) or NEON (2 x double lanes), chosen by the
//     runtime CPU probe in common/cpu.h, with a portable word-mask
//     fallback. FilterDominators (and AnyDominator) use a fused
//     rows-outer sweep instead: one "not less than" lane mask ANDed across
//     all dimensions per group of rows, the strict test only for groups
//     with a candidate. SKYDIVER_FORCE_ISA overrides the probe for testing.
//
// All flavours report identical masks; only the dominance-check
// accounting differs. COUNTING RULE: the batched flavours (kTiled and
// kSimd) charge exactly `tile.rows` point-level tests per call — one per
// (probe, row) pair in the tile — added to both DominanceCounter::Count()
// and ::TiledCount(). They never discount early exits the scalar loops
// would have taken (AnyDominator stops scanning on the first scalar hit
// but sweeps whole tiles), so batched counts can exceed scalar counts for
// early-exit call sites, and agree exactly for exhaustive ones (SigGen-IF,
// Γ-set construction). PruneCorners takes two tiles and charges per sweep
// it actually performs — see its declaration.

#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/cpu.h"
#include "common/status.h"
#include "core/dominance.h"
#include "core/types.h"
#include "kernels/tile_view.h"

namespace skydiver {

/// Which dominance kernel a plan (or a direct algorithm call) runs with.
enum class DomKernel : uint8_t {
  kScalar,  ///< Reference per-pair loops (core/dominance.h).
  kTiled,   ///< Branch-free 64-row column-major tile sweeps (byte flags).
  kSimd,    ///< Explicit AVX2/NEON compare-to-mask sweeps (word flags).
};

const char* ToString(DomKernel kernel);

/// Parses "scalar" / "tiled" / "simd" (the CLI --kernel vocabulary).
Result<DomKernel> ParseDomKernel(std::string_view name);

/// True for the flavours that sweep whole tiles (kTiled, kSimd) rather
/// than running per-pair scalar loops. Call sites branch on this to pick
/// the TileSet batch path over the scalar loop path; a batched consumer
/// works identically under either batched flavour.
inline bool IsBatched(DomKernel kernel) { return kernel != DomKernel::kScalar; }

/// THE downgrade policy, applied in this order (both steps documented
/// here, enforced nowhere else):
///
///   1. Missing ISA: kSimd needs the runtime CPU probe (common/cpu.h) to
///      have found a vector ISA; without one it downgrades to kTiled — the
///      strongest flavour that needs no hardware support. The planner
///      applies the same rule when resolving plans, so a plan never
///      carries kSimd on a host that cannot honor it.
///   2. Small tile: batching only pays off past one tile of candidates;
///      below kTileRows ANY batched flavour runs the scalar reference.
///
/// Results are identical either way, so consumers may apply this per call
/// site with whatever candidate-count estimate they have.
inline DomKernel EffectiveKernel(DomKernel kernel, size_t candidates) {
  if (kernel == DomKernel::kSimd && !SimdAvailable()) kernel = DomKernel::kTiled;
  if (IsBatched(kernel) && candidates < kTileRows) return DomKernel::kScalar;
  return kernel;
}

/// Three-way outcome of one probe against a tile; disjoint masks, rows in
/// neither are incomparable with (or equal to) the probe.
struct BlockClassification {
  uint64_t dominated = 0;   ///< rows the probe strictly dominates
  uint64_t dominators = 0;  ///< rows that strictly dominate the probe
};

namespace kernel_internal {
struct KernelOps;  // per-flavour dispatch table (dominance_kernel.cc)
}  // namespace kernel_internal

/// Batched dominance tests behind a kernel selector. Cheap to copy. The
/// flavour (and, for kSimd, the probed ISA backend) is resolved once at
/// construction into a function-pointer table.
class DominanceKernel {
 public:
  explicit DominanceKernel(DomKernel kind = DomKernel::kTiled);

  DomKernel kind() const { return kind_; }
  bool batched() const { return IsBatched(kind_); }

  /// Mask of tile rows strictly dominated by `p` (p ≺ row).
  uint64_t FilterDominated(std::span<const Coord> p, const TileView& tile) const;

  /// Mask of tile rows that strictly dominate `p` (row ≺ p).
  uint64_t FilterDominators(std::span<const Coord> p, const TileView& tile) const;

  /// Mask of tile rows weakly dominated by `p` (p <= row on every dim).
  uint64_t FilterWeaklyDominated(std::span<const Coord> p, const TileView& tile) const;

  /// True iff some tile row strictly dominates `p`. The scalar kernel
  /// early-exits per row; the batched kernels sweep the whole tile (see
  /// the counting rule above).
  bool AnyDominator(std::span<const Coord> p, const TileView& tile) const;

  /// Both direction masks from one sweep.
  BlockClassification ClassifyBlock(std::span<const Coord> p,
                                    const TileView& tile) const;

  /// Mask of `corners` rows strictly dominated by some `skyline` row — the
  /// BBS node-prune test, batched on both sides: one call decides a whole
  /// node's worth of MBR lo-corners against one skyline tile. The scalar
  /// kernel early-exits per corner on its first dominator. The batched
  /// kernels screen first: one sweep of the corner tile's ceiling (its
  /// componentwise max) over the skyline tile finds every row that could
  /// dominate ANY corner — usually none, because corners are R-tree
  /// siblings and sit in a tight box — then each candidate row is swept
  /// across the corner tile until the pruned mask saturates. Counting:
  /// `skyline.rows` for the screen plus `corners.rows` per candidate row
  /// actually swept, to both counters.
  uint64_t PruneCorners(const TileView& corners, const TileView& skyline) const;

 private:
  DomKernel kind_;
  const kernel_internal::KernelOps* ops_;
};

}  // namespace skydiver
