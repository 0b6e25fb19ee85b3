// NEON backend (AArch64 Advanced SIMD): 2 x double compares per step with
// lane masks folded into the per-row words, and a 4 x uint32 vminq
// signature fold. Double-precision NEON compares (vcltq_f64 / vcgtq_f64)
// are AArch64-only, so 32-bit ARM builds fall back to the portable
// backend.
//
// Ragged tiles are handled exactly like the AVX2 path: the row count is
// rounded up to a whole vector over the padded column and the junk bits
// are masked off with FullMask() before returning.

#include "kernels/simd_backend.h"

#if defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace skydiver::kernel_internal {

#if defined(__aarch64__) && defined(__ARM_NEON)

namespace {

// Bit 0 / bit 1 of the result = lane 0 / lane 1 of a compare mask.
uint64_t LaneBits(uint64x2_t m) {
  return (vgetq_lane_u64(m, 0) & 1) | ((vgetq_lane_u64(m, 1) & 1) << 1);
}

void SweepNeon(const Coord* p, const TileView& tile, SweepStop stop, uint64_t* lt_out,
               uint64_t* gt_out) {
  const uint64_t full = tile.FullMask();
  const size_t padded = (tile.rows + 1) & ~size_t{1};
  uint64_t lt = 0;
  uint64_t gt = 0;
  for (size_t d = 0; d < tile.dims; ++d) {
    const float64x2_t pv = vdupq_n_f64(p[d]);
    const Coord* col = tile.cols + d * kTileRows;
    uint64_t lt_d = 0;
    uint64_t gt_d = 0;
    for (size_t r = 0; r < padded; r += 2) {
      const float64x2_t cv = vld1q_f64(col + r);
      lt_d |= LaneBits(vcltq_f64(pv, cv)) << r;
      gt_d |= LaneBits(vcgtq_f64(pv, cv)) << r;
    }
    lt |= lt_d;
    gt |= gt_d;
    if (SweepFrozen(stop, lt, gt, full)) break;
  }
  *lt_out = lt & full;
  *gt_out = gt & full;
}

// Fused dominator mask, rows outer (see the AVX2 backend): per pair of
// rows, "probe less than the row" is ORed across all kDims dimensions;
// the strict test runs only for pairs that kept a candidate.
template <size_t kDims>
uint64_t DominatorsNeonImpl(const Coord* p, const TileView& tile) {
  const size_t padded = (tile.rows + 1) & ~size_t{1};
  uint64_t out = 0;
  for (size_t r = 0; r < padded; r += 2) {
    const Coord* rows = tile.cols + r;
    uint64x2_t lt = vcltq_f64(vdupq_n_f64(p[0]), vld1q_f64(rows));
    for (size_t d = 1; d < kDims; ++d) {
      lt = vorrq_u64(lt, vcltq_f64(vdupq_n_f64(p[d]), vld1q_f64(rows + d * kTileRows)));
    }
    const uint64_t candidates = ~LaneBits(lt) & 3;
    if (candidates == 0) continue;
    uint64x2_t gt = vcgtq_f64(vdupq_n_f64(p[0]), vld1q_f64(rows));
    for (size_t d = 1; d < kDims; ++d) {
      gt = vorrq_u64(gt, vcgtq_f64(vdupq_n_f64(p[d]), vld1q_f64(rows + d * kTileRows)));
    }
    out |= (candidates & LaneBits(gt)) << r;
  }
  return out & tile.FullMask();
}

// d = 2..8 run fused, other d the early-exit sweep (as on AVX2).
uint64_t DominatorsNeon(const Coord* p, const TileView& tile) {
  switch (tile.dims) {
    case 2: return DominatorsNeonImpl<2>(p, tile);
    case 3: return DominatorsNeonImpl<3>(p, tile);
    case 4: return DominatorsNeonImpl<4>(p, tile);
    case 5: return DominatorsNeonImpl<5>(p, tile);
    case 6: return DominatorsNeonImpl<6>(p, tile);
    case 7: return DominatorsNeonImpl<7>(p, tile);
    case 8: return DominatorsNeonImpl<8>(p, tile);
    default: {
      uint64_t lt = 0, gt = 0;
      SweepNeon(p, tile, SweepStop::kAllLt, &lt, &gt);
      return gt & ~lt;
    }
  }
}

void MinFoldNeon(uint32_t* col, const uint32_t* h, size_t t) {
  size_t i = 0;
  for (; i + 4 <= t; i += 4) {
    vst1q_u32(col + i, vminq_u32(vld1q_u32(col + i), vld1q_u32(h + i)));
  }
  for (; i < t; ++i) col[i] = h[i] < col[i] ? h[i] : col[i];
}

constexpr SimdBackend kNeon = {"neon", &SweepNeon, &DominatorsNeon, &MinFoldNeon};

}  // namespace

const SimdBackend* NeonBackend() { return &kNeon; }

#else

const SimdBackend* NeonBackend() { return nullptr; }

#endif

}  // namespace skydiver::kernel_internal
