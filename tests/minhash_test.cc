// Unit tests for src/minhash: hash family, signature matrix, estimator
// accuracy, and both signature generators (IF / IB) including their
// agreement with exact Jaccard distances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/gamma.h"
#include "datagen/generators.h"
#include "minhash/minhash.h"
#include "minhash/siggen.h"
#include "parallel/parallel_ops.h"
#include "parallel/thread_pool.h"
#include "rtree/rtree.h"
#include "skyline/skyline.h"
#include "stream/streaming.h"

namespace skydiver {
namespace {

TEST(MinHashFamilyTest, PrimeExceedsUniverse) {
  const auto family = MinHashFamily::Create(16, 1000, 1);
  EXPECT_EQ(family.size(), 16u);
  EXPECT_GT(family.prime(), 1000u);
}

TEST(MinHashFamilyTest, HashesStayBelowPrime) {
  const auto family = MinHashFamily::Create(8, 500, 2);
  for (size_t i = 0; i < family.size(); ++i) {
    for (uint64_t x : {0ULL, 1ULL, 250ULL, 499ULL}) {
      EXPECT_LT(family.Apply(i, x), family.prime());
    }
  }
}

TEST(MinHashFamilyTest, SixtyFourBitApplyMatches128BitReference) {
  // The widest family signature generation accepts: prime just below 2^32.
  const auto family = MinHashFamily::Create(32, 4294967000ULL, 5);
  ASSERT_LT(family.prime(), kSlotLimit);
  const uint64_t p = family.prime();
  std::vector<uint32_t> all(family.size());
  for (const uint64_t x : {uint64_t{0}, uint64_t{1}, uint64_t{12345}, p / 2, p - 2, p - 1}) {
    family.ApplyAll(x, all);
    for (size_t i = 0; i < family.size(); ++i) {
      // b_i = h_i(0) and a_i = StepOf(i) recover the family's parameters.
      const __uint128_t want =
          (static_cast<__uint128_t>(family.StepOf(i)) * x + family.Apply(i, 0)) % p;
      ASSERT_EQ(family.Apply(i, x), static_cast<uint64_t>(want)) << "x=" << x;
      ASSERT_EQ(all[i], static_cast<uint64_t>(want)) << "x=" << x;
    }
  }
}

TEST(MinHashFamilyTest, ApplyRangeMinMatchesPointwiseMinimum) {
  const auto family = MinHashFamily::Create(12, 5000, 6);
  std::vector<uint32_t> range(family.size());
  for (const uint64_t count : {uint64_t{1}, uint64_t{2}, uint64_t{37}, uint64_t{400}}) {
    family.ApplyRangeMin(100, count, range);
    for (size_t i = 0; i < family.size(); ++i) {
      uint64_t want = kEmptySlot;
      for (uint64_t x = 100; x < 100 + count; ++x) want = std::min(want, family.Apply(i, x));
      EXPECT_EQ(range[i], want) << "count=" << count << " i=" << i;
    }
  }
}

TEST(MinHashFamilyTest, LinearStepProperty) {
  // h(x+1) = h(x) + a (mod P) — the identity the IB range updates rely on.
  const auto family = MinHashFamily::Create(8, 500, 3);
  for (size_t i = 0; i < family.size(); ++i) {
    for (uint64_t x = 0; x < 100; ++x) {
      const uint64_t expected = (family.Apply(i, x) + family.StepOf(i)) % family.prime();
      EXPECT_EQ(family.Apply(i, x + 1), expected);
    }
  }
}

TEST(MinHashFamilyTest, IsPermutationOnSmallDomain) {
  const auto family = MinHashFamily::Create(4, 50, 4);
  for (size_t i = 0; i < family.size(); ++i) {
    std::vector<bool> seen(family.prime(), false);
    for (uint64_t x = 0; x < family.prime(); ++x) {
      const uint64_t h = family.Apply(i, x);
      EXPECT_FALSE(seen[h]) << "collision in hash " << i;
      seen[h] = true;
    }
  }
}

TEST(SignatureMatrixTest, UpdateMinAndEstimate) {
  SignatureMatrix sig(4, 2);
  EXPECT_EQ(sig.at(0, 0), kEmptySlot);
  sig.UpdateMin(0, 0, 10);
  sig.UpdateMin(0, 0, 20);  // no-op, larger
  EXPECT_EQ(sig.at(0, 0), 10u);
  sig.UpdateMin(0, 0, 5);
  EXPECT_EQ(sig.at(0, 0), 5u);
  // Columns: [5,∞,∞,∞] vs [5,∞,∞,7] -> 3 of 4 slots agree.
  sig.UpdateMin(1, 0, 5);
  sig.UpdateMin(1, 3, 7);
  EXPECT_DOUBLE_EQ(sig.EstimatedSimilarity(0, 1), 0.75);
  EXPECT_DOUBLE_EQ(sig.EstimatedDistance(0, 1), 0.25);
}

TEST(SignatureMatrixTest, MemoryBytes) {
  // Slots are stored in 32 bits (kSlotLimit).
  SignatureMatrix sig(100, 50);
  EXPECT_EQ(sig.MemoryBytes(), 100u * 50u * sizeof(uint32_t));
}

TEST(SignatureMatrixTest, NarrowSlotsWidenOnRead) {
  // The largest prime below 2^32 bounds every hash value; the empty slot
  // reads back as the 64-bit kEmptySlot, not as 2^32 - 1.
  constexpr uint64_t kLargestHash = 4294967291ULL - 1;
  SignatureMatrix sig(3, 1);
  sig.UpdateMin(0, 0, kLargestHash);
  sig.UpdateMin(0, 1, 0);
  EXPECT_EQ(sig.at(0, 0), kLargestHash);
  EXPECT_EQ(sig.at(0, 1), 0u);
  EXPECT_EQ(sig.at(0, 2), kEmptySlot);
  EXPECT_EQ(sig.column(0)[2], kEmptySlot32);
  EXPECT_EQ(WidenSlot(kEmptySlot32), kEmptySlot);
}

TEST(SignatureMatrixTest, FoldColumnAndFoldMatrixAreSlotwiseMin) {
  SignatureMatrix a(3, 2);
  SignatureMatrix b(3, 2);
  const std::vector<uint32_t> h0 = {5, kEmptySlot32, 9};
  const std::vector<uint32_t> h1 = {7, 2, 1};
  a.FoldColumn(0, h0);
  a.FoldColumn(0, h1);
  EXPECT_EQ(a.at(0, 0), 5u);
  EXPECT_EQ(a.at(0, 1), 2u);
  EXPECT_EQ(a.at(0, 2), 1u);
  EXPECT_EQ(a.at(1, 0), kEmptySlot);  // other column untouched
  b.FoldColumn(1, h0);
  b.FoldColumn(0, h1);
  a.FoldMatrix(b);
  const uint64_t want0[] = {5, 2, 1};
  const uint64_t want1[] = {5, kEmptySlot, 9};
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a.at(0, i), want0[i]);
    EXPECT_EQ(a.at(1, i), want1[i]);
  }
}

TEST(SignatureMatrixTest, RecommendedSizeGrowsWithTighterError) {
  EXPECT_GT(RecommendedSignatureSize(0.05, 0.1, 0.01),
            RecommendedSignatureSize(0.1, 0.1, 0.01));
  EXPECT_GT(RecommendedSignatureSize(0.1, 0.1, 0.001),
            RecommendedSignatureSize(0.1, 0.1, 0.01));
}

// --------------------------------------------------------------------------
// MinHash estimator accuracy on synthetic sets with known Jaccard.
// --------------------------------------------------------------------------

TEST(MinHashEstimatorTest, ConcentratesAroundTrueJaccard) {
  // Two sets over universe [0, 3000): A = [0,2000), B = [1000,3000).
  // |A∩B| = 1000, |A∪B| = 3000 -> Js = 1/3.
  const size_t t = 400;
  const auto family = MinHashFamily::Create(t, 3000, 5);
  SignatureMatrix sig(t, 2);
  for (uint64_t x = 0; x < 3000; ++x) {
    for (size_t i = 0; i < t; ++i) {
      const uint64_t h = family.Apply(i, x);
      if (x < 2000) sig.UpdateMin(0, i, h);
      if (x >= 1000) sig.UpdateMin(1, i, h);
    }
  }
  EXPECT_NEAR(sig.EstimatedSimilarity(0, 1), 1.0 / 3.0, 0.08);
}

// --------------------------------------------------------------------------
// Signature generators.
// --------------------------------------------------------------------------

struct SigGenFixture {
  DataSet data = DataSet(1);
  std::vector<RowId> skyline;
  GammaSets gammas;

  static SigGenFixture Make(WorkloadKind kind, RowId n, Dim d, uint64_t seed) {
    SigGenFixture f;
    f.data = GenerateWorkload(kind, n, d, seed).value();
    f.skyline = SkylineSFS(f.data).rows;
    f.gammas = GammaSets::Compute(f.data, f.skyline);
    return f;
  }
};

TEST(SigGenTest, ValidatesInputs) {
  const auto f = SigGenFixture::Make(WorkloadKind::kIndependent, 200, 3, 7);
  const auto family = MinHashFamily::Create(10, f.data.size(), 1);
  EXPECT_TRUE(SigGenIF(f.data, {}, family).status().IsInvalidArgument());
  EXPECT_TRUE(SigGenIF(f.data, {9999}, family).status().IsInvalidArgument());
  const auto tiny_family = MinHashFamily::Create(10, 1, 1);
  // Prime (= 3) does not exceed the dataset size: rejected.
  EXPECT_TRUE(SigGenIF(f.data, f.skyline, tiny_family).status().IsInvalidArgument());
}

TEST(SigGenTest, RejectsFamiliesWiderThanSignatureSlots) {
  // A prime above 2^32 exceeds any tiny dataset but does not fit a 32-bit
  // slot: every generator must refuse it instead of truncating hashes.
  const auto f = SigGenFixture::Make(WorkloadKind::kIndependent, 200, 3, 7);
  const auto wide = MinHashFamily::Create(4, uint64_t{1} << 33, 1);
  ASSERT_GE(wide.prime(), kSlotLimit);
  EXPECT_TRUE(SigGenIF(f.data, f.skyline, wide).status().IsInvalidArgument());
  EXPECT_TRUE(SigGenIF(f.data, f.skyline, wide, DomKernel::kSimd)
                  .status()
                  .IsInvalidArgument());
  auto tree = RTree::BulkLoad(f.data);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(SigGenIB(f.data, f.skyline, wide, *tree).status().IsInvalidArgument());
  ThreadPool pool(2);
  EXPECT_TRUE(
      ParallelSigGenIF(f.data, f.skyline, wide, pool).status().IsInvalidArgument());
  EXPECT_TRUE(ParallelSigGenIB(f.data, f.skyline, wide, *tree, pool)
                  .status()
                  .IsInvalidArgument());
  StreamingSkyDiver stream(3, 4, 1, /*max_points=*/uint64_t{1} << 33);
  EXPECT_TRUE(stream.Insert({1.0, 2.0, 3.0}).IsInvalidArgument());
  EXPECT_EQ(stream.data().size(), 0u);
  // The same family shape below the limit is accepted.
  const auto narrow = MinHashFamily::Create(4, f.data.size(), 1);
  EXPECT_TRUE(SigGenIF(f.data, f.skyline, narrow).ok());
}

TEST(SigGenTest, IfDominationScoresAreExact) {
  const auto f = SigGenFixture::Make(WorkloadKind::kIndependent, 1500, 3, 11);
  const auto family = MinHashFamily::Create(20, f.data.size(), 2);
  auto result = SigGenIF(f.data, f.skyline, family);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->domination_scores.size(), f.skyline.size());
  for (size_t j = 0; j < f.skyline.size(); ++j) {
    EXPECT_EQ(result->domination_scores[j], f.gammas.DominationScore(j)) << j;
  }
}

TEST(SigGenTest, IbDominationScoresAreExact) {
  const auto f = SigGenFixture::Make(WorkloadKind::kIndependent, 1500, 3, 11);
  const auto family = MinHashFamily::Create(20, f.data.size(), 2);
  auto tree = RTree::BulkLoad(f.data);
  ASSERT_TRUE(tree.ok());
  auto result = SigGenIB(f.data, f.skyline, family, *tree);
  ASSERT_TRUE(result.ok());
  for (size_t j = 0; j < f.skyline.size(); ++j) {
    EXPECT_EQ(result->domination_scores[j], f.gammas.DominationScore(j)) << j;
  }
}

TEST(SigGenTest, IfSignatureMatchesDirectMinHashOfGamma) {
  // SigGen-IF must produce exactly min over Γ(s) of h_i(row).
  const auto f = SigGenFixture::Make(WorkloadKind::kIndependent, 800, 3, 13);
  const auto family = MinHashFamily::Create(16, f.data.size(), 3);
  auto result = SigGenIF(f.data, f.skyline, family);
  ASSERT_TRUE(result.ok());
  for (size_t j = 0; j < f.skyline.size(); ++j) {
    for (size_t i = 0; i < family.size(); ++i) {
      uint64_t expected = kEmptySlot;
      for (RowId r = 0; r < f.data.size(); ++r) {
        if (f.gammas.gamma(j).Test(r)) {
          expected = std::min(expected, family.Apply(i, r));
        }
      }
      EXPECT_EQ(result->signatures.at(j, i), expected) << "col " << j << " slot " << i;
    }
  }
}

using SigGenEstimatePair = std::tuple<WorkloadKind, bool>;  // workload, use index

class SigGenEstimateTest : public testing::TestWithParam<SigGenEstimatePair> {};

TEST_P(SigGenEstimateTest, EstimatedDistancesTrackExactJaccard) {
  const auto [kind, use_index] = GetParam();
  const auto f = SigGenFixture::Make(kind, 3000, 4, 17);
  const size_t t = 256;
  const auto family = MinHashFamily::Create(t, f.data.size(), 4);
  SignatureMatrix sig;
  if (use_index) {
    auto tree = RTree::BulkLoad(f.data);
    ASSERT_TRUE(tree.ok());
    auto result = SigGenIB(f.data, f.skyline, family, *tree);
    ASSERT_TRUE(result.ok());
    sig = std::move(result->signatures);
  } else {
    auto result = SigGenIF(f.data, f.skyline, family);
    ASSERT_TRUE(result.ok());
    sig = std::move(result->signatures);
  }
  const size_t m = f.skyline.size();
  ASSERT_GE(m, 3u);
  double max_err = 0.0;
  double sum_err = 0.0;
  size_t pairs = 0;
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = a + 1; b < m; ++b) {
      const double err =
          std::fabs(sig.EstimatedSimilarity(a, b) - f.gammas.JaccardSimilarity(a, b));
      max_err = std::max(max_err, err);
      sum_err += err;
      ++pairs;
    }
  }
  // Standard error of a t=256 Bernoulli mean is <= 0.5/16 ~ 0.031; allow a
  // generous band for the worst pair and a tight one for the mean.
  EXPECT_LT(sum_err / static_cast<double>(pairs), 0.035);
  EXPECT_LT(max_err, 0.20);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SigGenEstimateTest,
    testing::Combine(testing::Values(WorkloadKind::kIndependent,
                                     WorkloadKind::kAnticorrelated,
                                     WorkloadKind::kForestCoverLike,
                                     WorkloadKind::kRecipesLike),
                     testing::Values(false, true)),
    [](const testing::TestParamInfo<SigGenEstimatePair>& info) {
      return WorkloadKindName(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_IB" : "_IF");
    });

TEST(SigGenTest, IbReadsFewerPagesThanLinearScanOnClusteredData) {
  const auto f = SigGenFixture::Make(WorkloadKind::kForestCoverLike, 20000, 4, 19);
  const auto family = MinHashFamily::Create(50, f.data.size(), 5);
  auto tree = RTree::BulkLoad(f.data);
  ASSERT_TRUE(tree.ok());
  auto ib = SigGenIB(f.data, f.skyline, family, *tree);
  ASSERT_TRUE(ib.ok());
  auto if_result = SigGenIF(f.data, f.skyline, family);
  ASSERT_TRUE(if_result.ok());
  // IB skips fully-dominated subtrees, so it must perform far fewer
  // dominance checks than the naive per-point scan.
  EXPECT_LT(ib->dominance_checks, if_result->dominance_checks / 2);
}

TEST(SigGenTest, SequentialScanPageMath) {
  // 4 doubles + 4-byte id = 36 bytes/record; 4096/36 = 113 records/page.
  EXPECT_EQ(SequentialScanPages(113, 4, 4096), 1u);
  EXPECT_EQ(SequentialScanPages(114, 4, 4096), 2u);
  EXPECT_EQ(SequentialScanPages(0, 4, 4096), 0u);
}

TEST(SigGenTest, IbRejectsForeignTree) {
  const auto f = SigGenFixture::Make(WorkloadKind::kIndependent, 300, 3, 23);
  const DataSet other = GenerateIndependent(200, 3, 24);
  auto tree = RTree::BulkLoad(other);
  ASSERT_TRUE(tree.ok());
  const auto family = MinHashFamily::Create(10, f.data.size(), 6);
  EXPECT_TRUE(SigGenIB(f.data, f.skyline, family, *tree).status().IsInvalidArgument());
}

}  // namespace
}  // namespace skydiver
