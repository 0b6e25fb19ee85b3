#include "minhash/minhash.h"

#include <cmath>

#include "common/binio.h"
#include "common/check.h"
#include "common/prime.h"
#include "common/rng.h"
#include "kernels/min_fold.h"

namespace skydiver {

namespace {
constexpr char kSignatureMagic[8] = {'S', 'K', 'Y', 'D', 'S', 'I', 'G', '1'};
}  // namespace

Status SignatureMatrix::SaveToFile(const std::string& path) const {
  BinaryWriter writer(path, kSignatureMagic);
  if (!writer.ok()) return Status::IoError("cannot open '" + path + "' for writing");
  writer.WriteU64(t_);
  writer.WriteU64(m_);
  WriteSlots(writer);
  return writer.Finish();
}

Result<SignatureMatrix> SignatureMatrix::LoadFromFile(const std::string& path) {
  BinaryReader reader(path, kSignatureMagic);
  SKYDIVER_RETURN_NOT_OK(reader.status());
  uint64_t t = 0, m = 0;
  if (!reader.ReadU64(&t) || !reader.ReadU64(&m)) {
    return Status::IoError("'" + path + "': truncated signature header");
  }
  SignatureMatrix sig(t, m);
  SKYDIVER_RETURN_NOT_OK(sig.ReadSlots(reader, path));
  SKYDIVER_RETURN_NOT_OK(reader.VerifyChecksum());
  return sig;
}

void SignatureMatrix::WriteSlots(BinaryWriter& writer) const {
  for (uint32_t v : slots_) writer.WriteU64(WidenSlot(v));
}

Status SignatureMatrix::ReadSlots(BinaryReader& reader, const std::string& path) {
  for (uint32_t& slot : slots_) {
    uint64_t v = 0;
    if (!reader.ReadU64(&v)) {
      return Status::IoError("'" + path + "': truncated signature payload");
    }
    if (!IsSlotValue(v)) {
      return Status::IoError("'" + path + "': signature slot " + std::to_string(v) +
                             " is neither empty nor a 32-bit hash value");
    }
    slot = NarrowSlot(v);
  }
  return Status::OK();
}

void SignatureMatrix::FoldColumn(size_t column, std::span<const uint32_t> h) {
  SKYDIVER_DCHECK_LT(column, m_);
  SKYDIVER_DCHECK_EQ(h.size(), t_);
  MinFold({slots_.data() + column * t_, t_}, h);
}

void SignatureMatrix::FoldMatrix(const SignatureMatrix& other) {
  SKYDIVER_DCHECK(other.t_ == t_ && other.m_ == m_);
  MinFold(slots_, other.slots_);
}

MinHashFamily MinHashFamily::Create(size_t t, uint64_t universe, uint64_t seed) {
  SKYDIVER_DCHECK_GT(t, 0u);
  MinHashFamily family;
  family.prime_ = NextPrime(std::max<uint64_t>(universe, 2));
  Rng rng(seed);
  family.a_.resize(t);
  family.b_.resize(t);
  for (size_t i = 0; i < t; ++i) {
    // a in [1, P-1] keeps the map a bijection on Z_P; b in [0, P-1].
    family.a_[i] = 1 + rng.NextBounded(family.prime_ - 1);
    family.b_[i] = rng.NextBounded(family.prime_);
  }
  return family;
}

void MinHashFamily::ApplyRangeMin(uint64_t base, uint64_t count,
                                  std::span<uint32_t> out) const {
  SKYDIVER_DCHECK_GE(count, 1u);
  SKYDIVER_DCHECK_EQ(out.size(), a_.size());
  for (size_t i = 0; i < out.size(); ++i) {
    uint64_t v = Apply(i, base);
    uint64_t mn = v;
    for (uint64_t c = 1; c < count; ++c) {
      v += a_[i];
      if (v >= prime_) v -= prime_;
      if (v < mn) mn = v;
    }
    out[i] = static_cast<uint32_t>(mn);
  }
}

Status CheckHashFamily(const MinHashFamily& family, uint64_t n) {
  if (family.size() == 0) return Status::InvalidArgument("hash family is empty");
  if (family.prime() <= n) {
    return Status::InvalidArgument("hash family prime must exceed the dataset size");
  }
  if (family.prime() >= kSlotLimit) {
    return Status::InvalidArgument("hash family prime " + std::to_string(family.prime()) +
                                   " does not fit a 32-bit signature slot");
  }
  return Status::OK();
}

double SlotAgreementSimilarity(std::span<const uint32_t> a, std::span<const uint32_t> b) {
  SKYDIVER_DCHECK_EQ(a.size(), b.size());
  if (a.empty()) return 0.0;
  size_t agree = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(a.size());
}

double SignatureMatrix::EstimatedSimilarity(size_t c1, size_t c2) const {
  SKYDIVER_DCHECK(c1 < m_ && c2 < m_);
  return SlotAgreementSimilarity(column(c1), column(c2));
}

size_t RecommendedSignatureSize(double epsilon, double beta, double delta) {
  SKYDIVER_DCHECK(epsilon > 0 && epsilon < 1);
  SKYDIVER_DCHECK(beta > 0 && beta < 1);
  SKYDIVER_DCHECK(delta > 0 && delta < 1);
  const double t = std::log(1.0 / delta) / (epsilon * epsilon * epsilon * beta);
  return static_cast<size_t>(std::ceil(t));
}

}  // namespace skydiver
