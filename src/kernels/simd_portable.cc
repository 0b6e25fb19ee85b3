// Portable backend — the simd flavour's fallback. Same mask layout as the
// ISA paths, plain C++ only, kept in its own TU so it is never compiled
// with ISA-specific target flags (a -mavx2'd "fallback" would defeat the
// runtime dispatch it exists to back up).

#include "kernels/simd_backend.h"

namespace skydiver::kernel_internal {

namespace {

void SweepPortable(const Coord* p, const TileView& tile, SweepStop stop,
                   uint64_t* lt_out, uint64_t* gt_out) {
  const uint64_t full = tile.FullMask();
  const size_t rows = tile.rows;
  uint64_t lt = 0;
  uint64_t gt = 0;
  for (size_t d = 0; d < tile.dims; ++d) {
    const Coord pd = p[d];
    const Coord* col = tile.cols + d * kTileRows;
    uint64_t lt_d = 0;
    uint64_t gt_d = 0;
    for (size_t r = 0; r < rows; ++r) {
      lt_d |= static_cast<uint64_t>(pd < col[r]) << r;
      gt_d |= static_cast<uint64_t>(pd > col[r]) << r;
    }
    lt |= lt_d;
    gt |= gt_d;
    if (SweepFrozen(stop, lt, gt, full)) break;
  }
  *lt_out = lt;
  *gt_out = gt;
}

// Without vector compares a rows-outer loop gains nothing, so the
// portable mask keeps the column order: drop every row the probe is less
// than, one dimension at a time, stop once no candidate is left, and run
// the strict pass only if one is.
uint64_t DominatorsPortable(const Coord* p, const TileView& tile) {
  const size_t rows = tile.rows;
  uint64_t candidates = tile.FullMask();
  for (size_t d = 0; d < tile.dims && candidates != 0; ++d) {
    const Coord pd = p[d];
    const Coord* col = tile.cols + d * kTileRows;
    uint64_t lt_d = 0;
    for (size_t r = 0; r < rows; ++r) lt_d |= static_cast<uint64_t>(pd < col[r]) << r;
    candidates &= ~lt_d;
  }
  if (candidates == 0) return 0;
  uint64_t gt = 0;
  for (size_t d = 0; d < tile.dims; ++d) {
    const Coord pd = p[d];
    const Coord* col = tile.cols + d * kTileRows;
    for (size_t r = 0; r < rows; ++r) gt |= static_cast<uint64_t>(pd > col[r]) << r;
  }
  return candidates & gt;
}

void MinFoldPortable(uint32_t* col, const uint32_t* h, size_t t) {
  for (size_t i = 0; i < t; ++i) col[i] = h[i] < col[i] ? h[i] : col[i];
}

constexpr SimdBackend kPortable = {"portable", &SweepPortable, &DominatorsPortable,
                                   &MinFoldPortable};

}  // namespace

const SimdBackend* PortableBackend() { return &kPortable; }

}  // namespace skydiver::kernel_internal
