#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "data/paper_suite.h"
#include "data/synthetic.h"
#include "output_fingerprint.h"
#include "sampling/borderline_smote.h"
#include "sampling/smote.h"
#include "sampling/smotenc.h"

namespace gbx {
namespace {

Dataset ImbalancedBlobs(int n, std::uint64_t seed, double ir = 4.0) {
  BlobsConfig cfg;
  cfg.num_samples = n;
  cfg.num_classes = 2;
  cfg.num_features = 3;
  cfg.class_weights = {ir, 1.0};
  cfg.center_spread = 4.0;
  cfg.cluster_std = 1.0;
  Pcg32 rng(seed);
  return MakeGaussianBlobs(cfg, &rng);
}

TEST(SmoteTest, BalancesAllClassesToMajority) {
  const Dataset ds = ImbalancedBlobs(300, 1);
  SmoteSampler smote;
  Pcg32 rng(2);
  const Dataset out = smote.Sample(ds, &rng);
  const std::vector<int> counts = out.ClassCounts();
  EXPECT_EQ(counts[0], counts[1]);
  const std::vector<int> original_counts = ds.ClassCounts();
  EXPECT_EQ(counts[0], *std::max_element(original_counts.begin(),
                                         original_counts.end()));
}

TEST(SmoteTest, OriginalSamplesPreservedAsPrefix) {
  const Dataset ds = ImbalancedBlobs(200, 3);
  SmoteSampler smote;
  Pcg32 rng(4);
  const Dataset out = smote.Sample(ds, &rng);
  ASSERT_GE(out.size(), ds.size());
  for (int i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(out.label(i), ds.label(i));
    for (int j = 0; j < ds.num_features(); ++j) {
      EXPECT_DOUBLE_EQ(out.feature(i, j), ds.feature(i, j));
    }
  }
}

TEST(SmoteTest, SyntheticSamplesInsideMinorityBoundingBox) {
  const Dataset ds = ImbalancedBlobs(300, 5);
  SmoteSampler smote;
  Pcg32 rng(6);
  const Dataset out = smote.Sample(ds, &rng);
  // Bounding box of the minority class in the original data.
  std::vector<double> lo(ds.num_features(), 1e300);
  std::vector<double> hi(ds.num_features(), -1e300);
  for (int idx : ds.IndicesOfClass(1)) {
    for (int j = 0; j < ds.num_features(); ++j) {
      lo[j] = std::min(lo[j], ds.feature(idx, j));
      hi[j] = std::max(hi[j], ds.feature(idx, j));
    }
  }
  for (int i = ds.size(); i < out.size(); ++i) {
    EXPECT_EQ(out.label(i), 1);  // only the minority gets synthesized
    for (int j = 0; j < ds.num_features(); ++j) {
      EXPECT_GE(out.feature(i, j), lo[j] - 1e-9);
      EXPECT_LE(out.feature(i, j), hi[j] + 1e-9);
    }
  }
}

TEST(SmoteTest, MultiClassOversamplesEveryMinority) {
  BlobsConfig cfg;
  cfg.num_samples = 300;
  cfg.num_classes = 3;
  cfg.class_weights = {6, 2, 1};
  Pcg32 gen(7);
  const Dataset ds = MakeGaussianBlobs(cfg, &gen);
  SmoteSampler smote;
  Pcg32 rng(8);
  const std::vector<int> counts = smote.Sample(ds, &rng).ClassCounts();
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[1], counts[2]);
}

TEST(SmoteTest, BalancedInputUnchanged) {
  BlobsConfig cfg;
  cfg.num_samples = 100;
  cfg.num_classes = 2;
  Pcg32 gen(9);
  const Dataset ds = MakeGaussianBlobs(cfg, &gen);
  SmoteSampler smote;
  Pcg32 rng(10);
  EXPECT_EQ(smote.Sample(ds, &rng).size(), ds.size());
}

TEST(SmoteTest, LoneMinoritySampleDuplicates) {
  Matrix x = Matrix::FromRows(
      {{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 2}, {10, 10}});
  const Dataset ds(std::move(x), {0, 0, 0, 0, 0, 1});
  SmoteSampler smote;
  Pcg32 rng(11);
  const Dataset out = smote.Sample(ds, &rng);
  const std::vector<int> counts = out.ClassCounts();
  EXPECT_EQ(counts[0], counts[1]);
  for (int i = ds.size(); i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out.feature(i, 0), 10.0);
    EXPECT_DOUBLE_EQ(out.feature(i, 1), 10.0);
  }
}

TEST(BorderlineSmoteTest, DangerSetIsBorderlineOnly) {
  // 1-D layout: minority cluster far left, three minority points mixed
  // into the majority region. Interior minority points (surrounded by
  // same-class) must not be DANGER; mixed-region ones should be.
  Matrix x(16, 1);
  std::vector<int> y(16);
  // Minority interior cluster: 0..5 at x in [0, 0.5].
  for (int i = 0; i < 6; ++i) {
    x.At(i, 0) = 0.1 * i;
    y[i] = 1;
  }
  // Majority cluster: 6..13 at x in [5.0, 5.7].
  for (int i = 0; i < 8; ++i) {
    x.At(6 + i, 0) = 5.0 + 0.1 * i;
    y[6 + i] = 0;
  }
  // Borderline minority: 14, 15 sitting at the majority cluster's edge.
  x.At(14, 0) = 4.8;
  y[14] = 1;
  x.At(15, 0) = 4.9;
  y[15] = 1;
  const Dataset ds(std::move(x), std::move(y));

  BorderlineSmoteSampler bsm(/*m_neighbors=*/5);
  const KnnIndex index(&ds.x());
  const std::vector<int> danger =
      bsm.DangerSamples(ds, index, ds.IndicesOfClass(1), 1);
  EXPECT_TRUE(std::find(danger.begin(), danger.end(), 14) != danger.end());
  EXPECT_TRUE(std::find(danger.begin(), danger.end(), 15) != danger.end());
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(std::find(danger.begin(), danger.end(), i) == danger.end())
        << "interior minority sample " << i << " wrongly in DANGER";
  }
}

TEST(BorderlineSmoteTest, BalancesClasses) {
  const Dataset ds = ImbalancedBlobs(300, 12);
  BorderlineSmoteSampler bsm;
  Pcg32 rng(13);
  const std::vector<int> counts = bsm.Sample(ds, &rng).ClassCounts();
  EXPECT_EQ(counts[0], counts[1]);
}

TEST(SmotencTest, DetectsNominalColumns) {
  Matrix x = Matrix::FromRows({{0.5, 1, 3.25}, {1.5, 2, 4.75},
                               {2.5, 1, 5.5}, {3.5, 3, 6.25}});
  const Dataset ds(std::move(x), {0, 0, 1, 1});
  const std::vector<bool> nominal = SmotencSampler::DetectNominal(ds, 10);
  ASSERT_EQ(nominal.size(), 3u);
  EXPECT_FALSE(nominal[0]);  // fractional values
  EXPECT_TRUE(nominal[1]);   // small-integer column
  EXPECT_FALSE(nominal[2]);
}

TEST(SmotencTest, SyntheticNominalValuesComeFromExistingCategories) {
  // Feature 1 is nominal with values {1, 2, 3}.
  Pcg32 gen(14);
  Matrix x(60, 2);
  std::vector<int> y(60);
  for (int i = 0; i < 60; ++i) {
    x.At(i, 0) = gen.NextGaussian() + (i < 50 ? 0.0 : 5.0);
    x.At(i, 1) = 1 + static_cast<int>(gen.NextBounded(3));
    y[i] = i < 50 ? 0 : 1;
  }
  const Dataset ds(std::move(x), std::move(y));
  SmotencSampler smnc;
  Pcg32 rng(15);
  const Dataset out = smnc.Sample(ds, &rng);
  const std::vector<int> counts = out.ClassCounts();
  EXPECT_EQ(counts[0], counts[1]);
  for (int i = ds.size(); i < out.size(); ++i) {
    const double v = out.feature(i, 1);
    EXPECT_TRUE(v == 1.0 || v == 2.0 || v == 3.0) << v;
  }
}

TEST(SmoteFamilyDeterminismTest, SameRngSameOutput) {
  const Dataset ds = ImbalancedBlobs(200, 16);
  SmoteSampler smote;
  Pcg32 a(17);
  Pcg32 b(17);
  const Dataset out_a = smote.Sample(ds, &a);
  const Dataset out_b = smote.Sample(ds, &b);
  ASSERT_EQ(out_a.size(), out_b.size());
  for (int i = 0; i < out_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(out_a.feature(i, 0), out_b.feature(i, 0));
  }
}

// SMOTE and Borderline-SMOTE outputs pinned over paper-suite stand-ins,
// row-capped: S1, S5 (d = 2), S6 (five classes, IR 175) and S13
// (d = 256). The fingerprints cover every RNG draw and every neighbor
// choice, so they hold across any change of nearest-neighbor structure.
struct PinnedSamplerCase {
  const char* id;
  int rows;
  std::uint64_t smote;
  std::uint64_t borderline_smote;
  friend void PrintTo(const PinnedSamplerCase& c, std::ostream* os) {
    *os << c.id << " (" << c.rows << " rows)";
  }
};

class SmoteFamilyPinnedTest
    : public ::testing::TestWithParam<PinnedSamplerCase> {};

TEST_P(SmoteFamilyPinnedTest, OutputsMatchFingerprints) {
  const PinnedSamplerCase& c = GetParam();
  const Dataset ds = MakePaperDataset(c.id, c.rows, 21);
  Pcg32 rng_sm(22);
  const std::uint64_t smote = Fingerprint(SmoteSampler().Sample(ds, &rng_sm));
  EXPECT_EQ(smote, c.smote) << std::hex << "0x" << smote;
  Pcg32 rng_bsm(23);
  const std::uint64_t bsm =
      Fingerprint(BorderlineSmoteSampler().Sample(ds, &rng_bsm));
  EXPECT_EQ(bsm, c.borderline_smote) << std::hex << "0x" << bsm;
}

INSTANTIATE_TEST_SUITE_P(
    PaperSuite, SmoteFamilyPinnedTest,
    ::testing::Values(
        PinnedSamplerCase{"S1", 690, 0xb216c88757365b4bULL,
                          0x7cdbc7d0611e65e7ULL},
        PinnedSamplerCase{"S5", 1200, 0xe551a50121bd0e01ULL,
                          0x32b003e6b653a7bcULL},
        PinnedSamplerCase{"S6", 1200, 0x1e48f12b193401c3ULL,
                          0x03dbd4660a058b96ULL},
        PinnedSamplerCase{"S13", 500, 0x1c433cf859702a57ULL,
                          0x65b10a34978c76c4ULL}),
    [](const ::testing::TestParamInfo<PinnedSamplerCase>& info) {
      return std::string(info.param.id);
    });

}  // namespace
}  // namespace gbx
