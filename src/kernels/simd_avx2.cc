// AVX2 backend: 4 x double compares per step (_mm256_cmp_pd to a lane
// mask, movemask into the per-row words) and an 8 x uint32 vpminud
// signature fold. This TU is compiled with -mavx2 (see CMakeLists.txt) and
// its bodies must only run after the runtime probe (common/cpu.h) has
// confirmed the ISA — which the dispatch in dominance_kernel.cc
// guarantees.
//
// Ragged tiles: columns are padded to kTileRows entries holding stale but
// finite doubles, so the tile loops round the row count up to a whole
// vector and mask the junk bits off with FullMask() before returning.

#include "kernels/simd_backend.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace skydiver::kernel_internal {

#if defined(__AVX2__)

namespace {

void SweepAvx2(const Coord* p, const TileView& tile, SweepStop stop, uint64_t* lt_out,
               uint64_t* gt_out) {
  const uint64_t full = tile.FullMask();
  const size_t padded = (tile.rows + 3) & ~size_t{3};
  uint64_t lt = 0;
  uint64_t gt = 0;
  for (size_t d = 0; d < tile.dims; ++d) {
    const __m256d pv = _mm256_set1_pd(p[d]);
    const Coord* col = tile.cols + d * kTileRows;
    uint64_t lt_d = 0;
    uint64_t gt_d = 0;
    for (size_t r = 0; r < padded; r += 4) {
      const __m256d cv = _mm256_loadu_pd(col + r);
      lt_d |= static_cast<uint64_t>(
                  _mm256_movemask_pd(_mm256_cmp_pd(pv, cv, _CMP_LT_OQ)))
              << r;
      gt_d |= static_cast<uint64_t>(
                  _mm256_movemask_pd(_mm256_cmp_pd(pv, cv, _CMP_GT_OQ)))
              << r;
    }
    lt |= lt_d;
    gt |= gt_d;
    if (SweepFrozen(stop, lt, gt, full)) break;
  }
  *lt_out = lt & full;
  *gt_out = gt & full;
}

// Fused dominator mask, rows outer: per group of 4 rows, "probe not less
// than the row" is ANDed across all kDims dimensions and read with one
// movemask; the strict test runs only for groups that kept a candidate.
// The fixed dimension count unrolls the loops and keeps the probe
// broadcasts in registers.
template <size_t kDims>
uint64_t DominatorsAvx2Impl(const Coord* p, const TileView& tile) {
  const size_t padded = (tile.rows + 3) & ~size_t{3};
  uint64_t out = 0;
  for (size_t r = 0; r < padded; r += 4) {
    const Coord* rows = tile.cols + r;
    __m256d ge = _mm256_cmp_pd(_mm256_broadcast_sd(p), _mm256_loadu_pd(rows),
                               _CMP_NLT_UQ);
    for (size_t d = 1; d < kDims; ++d) {
      ge = _mm256_and_pd(ge, _mm256_cmp_pd(_mm256_broadcast_sd(p + d),
                                           _mm256_loadu_pd(rows + d * kTileRows),
                                           _CMP_NLT_UQ));
    }
    const int candidates = _mm256_movemask_pd(ge);
    if (candidates == 0) continue;
    __m256d gt = _mm256_cmp_pd(_mm256_broadcast_sd(p), _mm256_loadu_pd(rows),
                               _CMP_GT_OQ);
    for (size_t d = 1; d < kDims; ++d) {
      gt = _mm256_or_pd(gt, _mm256_cmp_pd(_mm256_broadcast_sd(p + d),
                                          _mm256_loadu_pd(rows + d * kTileRows),
                                          _CMP_GT_OQ));
    }
    out |= static_cast<uint64_t>(candidates & _mm256_movemask_pd(gt)) << r;
  }
  return out & tile.FullMask();
}

// d = 2..8 run fused. Elsewhere the dims-outer sweep wins: at d = 12 its
// stop once every row has some dimension where the probe is smaller
// skips most of the dimensions the fused loop must read (bench_kernels:
// fused 0.73-0.80x of the sweep on IND/ANT n = 1e5).
uint64_t DominatorsAvx2(const Coord* p, const TileView& tile) {
  switch (tile.dims) {
    case 2: return DominatorsAvx2Impl<2>(p, tile);
    case 3: return DominatorsAvx2Impl<3>(p, tile);
    case 4: return DominatorsAvx2Impl<4>(p, tile);
    case 5: return DominatorsAvx2Impl<5>(p, tile);
    case 6: return DominatorsAvx2Impl<6>(p, tile);
    case 7: return DominatorsAvx2Impl<7>(p, tile);
    case 8: return DominatorsAvx2Impl<8>(p, tile);
    default: {
      uint64_t lt = 0, gt = 0;
      SweepAvx2(p, tile, SweepStop::kAllLt, &lt, &gt);
      return gt & ~lt;
    }
  }
}

void MinFoldAvx2(uint32_t* col, const uint32_t* h, size_t t) {
  size_t i = 0;
  for (; i + 8 <= t; i += 8) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + i));
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(col + i), _mm256_min_epu32(a, b));
  }
  if (i + 4 <= t) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + i));
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(col + i), _mm_min_epu32(a, b));
    i += 4;
  }
  for (; i < t; ++i) col[i] = h[i] < col[i] ? h[i] : col[i];
}

constexpr SimdBackend kAvx2 = {"avx2", &SweepAvx2, &DominatorsAvx2, &MinFoldAvx2};

}  // namespace

const SimdBackend* Avx2Backend() { return &kAvx2; }

#else

const SimdBackend* Avx2Backend() { return nullptr; }

#endif

}  // namespace skydiver::kernel_internal
