// The MinHash signature min-fold: col[i] = min(col[i], h[i]) over the t
// 32-bit slots of one signature column — the inner loop of every
// signature generator (SigGen-IF, SigGen-IB range updates, the parallel
// per-claim matrices and their merge, the streaming monitor, the mixed
// skyline). Resolved once per process from the cached CPU probe to the
// same backend as the simd dominance kernels: AVX2 vpminud (8 lanes),
// NEON vminq_u32 (4 lanes), or portable code. All backends produce the
// same slots; only the speed differs.

#pragma once

#include <cstdint>
#include <span>

namespace skydiver {

/// col[i] = min(col[i], h[i]) for every i < col.size(); `h` must be at
/// least as long as `col`.
void MinFold(std::span<uint32_t> col, std::span<const uint32_t> h);

}  // namespace skydiver
