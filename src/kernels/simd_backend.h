// Internal contract between the kernel layer's dispatch point
// (dominance_kernel.cc) and its per-ISA backends. Each backend compiles in
// its own translation unit so the ISA-specific one can be built with the
// matching target flags (-mavx2) without letting the compiler emit those
// instructions into code that runs before the CPUID probe has confirmed
// them.
//
// A backend supplies three primitives:
//
//   * sweep — for one probe against one tile, the two per-row comparison
//     WORDS every dominance outcome derives from:
//
//       bit r of *lt  —  probe strictly less than row r on some visited dim
//       bit r of *gt  —  probe strictly greater than row r on some visited dim
//
//     This is the word-mask analogue of the tiled flavour's byte flags: the
//     ISA paths produce the bits with compare-to-mask + movemask instead of
//     byte ops. Bits at and above tile.rows are always zero on return.
//
//     Backends may stop sweeping dimensions early once every occupied row
//     is frozen for the condition in `stop` (same contract as the tiled
//     flavour's StopWhen): with gt[r] set row r can never be (weakly)
//     dominated, with lt[r] set it can never dominate the probe, so the
//     caller's masks are identical whether or not later dimensions were
//     visited. The dominance charge is per (probe, row) pair and
//     unaffected.
//
//   * dominators — the fused FilterDominators mask, `gt & ~lt` of a full
//     sweep, computed rows-outer: per group of rows, "probe is not less
//     than the row" is ANDed across every dimension into one lane mask,
//     and the strict "probe is greater somewhere" test runs only for
//     groups that still hold a candidate. "Not less than" (not ">=") keeps
//     the mask equal to `gt & ~lt` for every input, NaN included, so all
//     backends and the tiled/scalar flavours agree bit for bit.
//
//   * min_fold — col[i] = min(col[i], h[i]) for i < t over 32-bit MinHash
//     signature slots (minhash/minhash.h); the public entry point is
//     MinFold in kernels/min_fold.h.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.h"
#include "kernels/tile_view.h"

namespace skydiver::kernel_internal {

/// Which rows' flag words must saturate before a sweep may stop early.
enum class SweepStop : uint8_t { kNever, kAllLt, kAllGt, kAllBoth };

/// True once every occupied row (per `full`, the tile's FullMask) is
/// frozen for `stop`. Shared by every backend so early exits agree.
inline bool SweepFrozen(SweepStop stop, uint64_t lt, uint64_t gt, uint64_t full) {
  switch (stop) {
    case SweepStop::kNever: return false;
    case SweepStop::kAllLt: return (lt & full) == full;
    case SweepStop::kAllGt: return (gt & full) == full;
    case SweepStop::kAllBoth: return (lt & gt & full) == full;
  }
  return false;
}

using SweepFn = void (*)(const Coord* p, const TileView& tile, SweepStop stop,
                         uint64_t* lt, uint64_t* gt);
using DominatorsFn = uint64_t (*)(const Coord* p, const TileView& tile);
using MinFoldFn = void (*)(uint32_t* col, const uint32_t* h, size_t t);

/// One ISA's implementations of the three primitives.
struct SimdBackend {
  const char* name;
  SweepFn sweep;
  DominatorsFn dominators;
  MinFoldFn min_fold;
};

/// Plain C++ backend; always available (the fallback when no vector ISA
/// is present or the forced-portable override is set).
const SimdBackend* PortableBackend();

/// AVX2 backend (4 x double compares, 8 x uint32 vpminud); nullptr when
/// this build has no AVX2 backend (non-x86 target or a compiler without
/// -mavx2 support). Its functions may only run once the CPU probe has
/// reported AVX2.
const SimdBackend* Avx2Backend();

/// NEON backend (2 x double compares, 4 x uint32 vminq, AArch64); nullptr
/// when not compiled in.
const SimdBackend* NeonBackend();

/// The backend the cached CPU probe (common/cpu.h) selects, resolved once
/// per process: AVX2 or NEON when probed and compiled in, else portable.
const SimdBackend& ResolvedBackend();

/// Every backend compiled in whose ISA the host has, portable first. Uses
/// the raw probe, so a forced override hides none of them from the
/// differential tests and micro-benchmarks that compare backends.
std::vector<const SimdBackend*> RunnableBackends();

}  // namespace skydiver::kernel_internal
