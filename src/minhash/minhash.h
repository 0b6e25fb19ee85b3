// MinHash fingerprinting of dominated sets (paper Section 4.1).
//
// Each skyline point's dominated set Γ(s) is a subset of the data rows;
// SkyDiver compresses it into a signature of t slots, where slot i holds
// min over x ∈ Γ(s) of h_i(x) for a "min-wise independent" hash
// h_i(x) = (a_i·x + b_i) mod P, P prime > n. The key MinHash property:
// Pr[slot_i(p) = slot_i(q)] = Js(p, q), so the fraction of agreeing slots
// is an unbiased estimate of the Jaccard similarity of the dominated sets.

#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "core/dataset.h"

namespace skydiver {

class BinaryReader;
class BinaryWriter;

/// Slot value meaning "no row hashed yet" (empty dominated set), as every
/// reader of a signature sees it (SignatureMatrix::at, file formats, LSH
/// band keys).
inline constexpr uint64_t kEmptySlot = std::numeric_limits<uint64_t>::max();

/// Signature slots are stored in 32 bits: every hash value lies below the
/// family's prime, which must stay below kSlotLimit, so the narrowing is
/// lossless. The all-ones word — never a hash value, since 2^32 - 1 is not
/// prime — stores the empty slot.
inline constexpr uint64_t kSlotLimit = uint64_t{1} << 32;
inline constexpr uint32_t kEmptySlot32 = std::numeric_limits<uint32_t>::max();

/// 32-bit stored slot -> the 64-bit value readers see.
inline uint64_t WidenSlot(uint32_t v) {
  return v == kEmptySlot32 ? kEmptySlot : uint64_t{v};
}

/// True for the 64-bit values a slot can hold: kEmptySlot or a hash value
/// (below the prime, so below kEmptySlot32). Exactly these survive
/// NarrowSlot -> WidenSlot unchanged.
inline bool IsSlotValue(uint64_t v) { return v < kEmptySlot32 || v == kEmptySlot; }

/// 64-bit slot value (IsSlotValue) -> its 32-bit stored form.
inline uint32_t NarrowSlot(uint64_t v) {
  return v == kEmptySlot ? kEmptySlot32 : static_cast<uint32_t>(v);
}

/// Fraction of agreeing slots between two raw signature columns of equal
/// length — the MinHash similarity estimate. Shared by SignatureMatrix and
/// by callers holding signatures outside a matrix (e.g. the streaming
/// monitor's per-skyline-point vectors). Returns 0 for empty signatures.
double SlotAgreementSimilarity(std::span<const uint32_t> a, std::span<const uint32_t> b);

/// A family of t linear hash functions h_i(x) = (a_i·x + b_i) mod P.
///
/// The family approximates min-wise independence, which is the standard
/// practical choice (Broder et al.); P is the first prime after `universe`.
class MinHashFamily {
 public:
  /// Draws a family of `t` functions able to hash row ids in [0, universe).
  /// Signature generation accepts only families whose prime is below
  /// kSlotLimit (CheckHashFamily), i.e. a universe below about 4.29e9.
  static MinHashFamily Create(size_t t, uint64_t universe, uint64_t seed);

  size_t size() const { return a_.size(); }
  uint64_t prime() const { return prime_; }

  /// h_i(x), for x < kSlotLimit. Exact in 64-bit arithmetic while the
  /// prime is below kSlotLimit: a_i, b_i < P < 2^32, so a_i·x + b_i < 2^64.
  uint64_t Apply(size_t i, uint64_t x) const {
    SKYDIVER_DCHECK_LT(x, kSlotLimit);
    return (a_[i] * x + b_[i]) % prime_;
  }

  /// h_0(x) .. h_{t-1}(x) into `out` (t entries) as 32-bit slot values;
  /// requires prime() < kSlotLimit.
  void ApplyAll(uint64_t x, std::span<uint32_t> out) const {
    SKYDIVER_DCHECK_EQ(out.size(), a_.size());
    for (size_t i = 0; i < out.size(); ++i) out[i] = static_cast<uint32_t>(Apply(i, x));
  }

  /// out[i] = min over x in [base, base + count) of h_i(x), as 32-bit
  /// slot values (t entries; count >= 1, base + count <= kSlotLimit). The
  /// bulk update index-based generation applies to a subtree of `count`
  /// consecutive row ids, walking each h_i incrementally (StepOf).
  void ApplyRangeMin(uint64_t base, uint64_t count, std::span<uint32_t> out) const;

  /// Additive step of h_i: h_i(x+1) = (h_i(x) + a_i) mod P. Exposed so
  /// range updates (index-based generation over `count` consecutive row
  /// ids) can evaluate the family incrementally.
  uint64_t StepOf(size_t i) const { return a_[i]; }

 private:
  MinHashFamily() = default;
  std::vector<uint64_t> a_;
  std::vector<uint64_t> b_;
  uint64_t prime_ = 0;
};

/// The preconditions every signature generator shares for hashing the
/// rows of an n-row dataset: a non-empty family whose prime exceeds n
/// (distinct row ids hash through a bijection) and stays below kSlotLimit
/// (the 32-bit slots hold every hash value). InvalidArgument otherwise.
Status CheckHashFamily(const MinHashFamily& family, uint64_t n);

/// Column-major t x m signature matrix: column j is the signature of the
/// j-th skyline point. Matches the paper's \hat{M}. Slots are stored in
/// 32 bits (kSlotLimit) and widened on read, so at() and the file format
/// see the same 64-bit values as before the narrowing.
class SignatureMatrix {
 public:
  SignatureMatrix() = default;
  SignatureMatrix(size_t t, size_t m)
      : t_(t), m_(m), slots_(t * m, kEmptySlot32) {}

  size_t signature_size() const { return t_; }
  size_t columns() const { return m_; }

  /// Slot value widened to 64 bits (kEmptySlot when empty).
  uint64_t at(size_t column, size_t slot) const {
    return WidenSlot(slots_[column * t_ + slot]);
  }

  /// The stored 32-bit slots of one column.
  std::span<const uint32_t> column(size_t column) const {
    return {slots_.data() + column * t_, t_};
  }

  /// slot := min(slot, value) — the MinHash update, one slot at a time
  /// (the reference the batched folds below are tested against). `value`
  /// passes IsSlotValue.
  void UpdateMin(size_t column, size_t slot, uint64_t value) {
    SKYDIVER_DCHECK(IsSlotValue(value));
    const uint32_t v = NarrowSlot(value);
    uint32_t& cell = slots_[column * t_ + slot];
    if (v < cell) cell = v;
  }

  /// Column j := slot-wise min(column j, h) over all t slots (kernels/
  /// min_fold.h). `h` holds t 32-bit slot values.
  void FoldColumn(size_t column, std::span<const uint32_t> h);

  /// Every slot := min(slot, other's slot); `other` has the same shape.
  /// The merge of per-worker matrices.
  void FoldMatrix(const SignatureMatrix& other);

  /// Estimated Jaccard similarity: fraction of slots where the two
  /// signatures agree.
  double EstimatedSimilarity(size_t c1, size_t c2) const;

  /// Estimated Jaccard distance (1 - similarity). Respects the triangle
  /// inequality (paper Lemma 3), so the 2-approximation greedy applies.
  double EstimatedDistance(size_t c1, size_t c2) const {
    return 1.0 - EstimatedSimilarity(c1, c2);
  }

  /// Heap bytes held by the matrix (memory-consumption experiments).
  size_t MemoryBytes() const { return slots_.size() * sizeof(uint32_t); }

  /// Persists the matrix to a checksummed binary file (format SKYDSIG1).
  /// Fingerprinting is the expensive phase; saving the signatures lets a
  /// deployment re-run Phase 2 with different k / ξ / B for free.
  Status SaveToFile(const std::string& path) const;

  /// Loads a matrix written by SaveToFile.
  static Result<SignatureMatrix> LoadFromFile(const std::string& path);

  /// Writes the t·m slots column-major as 64-bit values (at()), the
  /// on-disk slot encoding of SKYDSIG1 and of session files.
  void WriteSlots(BinaryWriter& writer) const;

  /// Reads t·m slots written by WriteSlots. IoError (naming `path`) on a
  /// truncated payload or a stored slot failing IsSlotValue — such a
  /// value cannot come from a valid family and would not survive the
  /// 32-bit narrowing.
  Status ReadSlots(BinaryReader& reader, const std::string& path);

 private:
  size_t t_ = 0;
  size_t m_ = 0;
  std::vector<uint32_t> slots_;
};

/// Signature size that guarantees an (ε, δ)-approximation of the Jaccard
/// similarity at precision β — Ω(ε⁻³ β⁻¹ log 1/δ) per Datar & Muthukrishnan
/// (cited as [12] in the paper). Returned with constant 1; callers treat it
/// as a guideline (the paper uses t = 100 as its practical default).
size_t RecommendedSignatureSize(double epsilon, double beta, double delta);

}  // namespace skydiver
