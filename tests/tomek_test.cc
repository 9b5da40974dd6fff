#include "sampling/tomek.h"

#include <string>

#include <gtest/gtest.h>

#include "data/paper_suite.h"
#include "data/synthetic.h"
#include "output_fingerprint.h"

namespace gbx {
namespace {

TEST(TomekTest, FindsCraftedLink) {
  // Two clusters plus a heterogeneous mutual-NN pair in the middle.
  Matrix x = Matrix::FromRows({
      {0.0, 0.0}, {0.2, 0.0}, {0.0, 0.2},   // class 0 cluster
      {10.0, 10.0}, {10.2, 10.0},           // class 1 cluster
      {5.0, 5.0}, {5.1, 5.0},               // the link: 5 (cls 0), 6 (cls 1)
  });
  const Dataset ds(std::move(x), {0, 0, 0, 1, 1, 0, 1});
  const auto links = TomekLinksSampler::FindLinks(ds);
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].first, 5);
  EXPECT_EQ(links[0].second, 6);
}

TEST(TomekTest, NoLinksInWellSeparatedData) {
  Matrix x = Matrix::FromRows(
      {{0, 0}, {0.1, 0}, {0.2, 0}, {10, 10}, {10.1, 10}, {10.2, 10}});
  const Dataset ds(std::move(x), {0, 0, 0, 1, 1, 1});
  EXPECT_TRUE(TomekLinksSampler::FindLinks(ds).empty());
}

TEST(TomekTest, MutualityRequired) {
  // 1-D: a=0 (cls0), b=1 (cls1), c=1.5 (cls1). b's NN is c (homogeneous),
  // so (a, b) is not a link even though a's NN is b.
  Matrix x = Matrix::FromRows({{0.0}, {1.0}, {1.5}});
  const Dataset ds(std::move(x), {0, 1, 1});
  EXPECT_TRUE(TomekLinksSampler::FindLinks(ds).empty());
}

TEST(TomekTest, RemovesMajorityEndpointOnly) {
  Matrix x = Matrix::FromRows({
      {0.0, 0.0}, {0.2, 0.0}, {0.0, 0.2}, {0.2, 0.2},  // class 0 (majority)
      {10.0, 10.0},                                    // class 1
      {5.0, 5.0}, {5.1, 5.0},                          // link pair
  });
  const Dataset ds(std::move(x), {0, 0, 0, 0, 1, 0, 1});
  TomekLinksSampler tomek;
  Pcg32 rng(1);
  const Dataset out = tomek.Sample(ds, &rng);
  EXPECT_EQ(out.size(), ds.size() - 1);
  // The majority-class endpoint (index 5, at (5.0, 5.0)) must be gone; the
  // minority endpoint (5.1, 5.0) must remain.
  bool majority_endpoint_present = false;
  bool minority_endpoint_present = false;
  for (int i = 0; i < out.size(); ++i) {
    if (out.feature(i, 0) == 5.0 && out.feature(i, 1) == 5.0) {
      majority_endpoint_present = true;
    }
    if (out.feature(i, 0) == 5.1) minority_endpoint_present = true;
  }
  EXPECT_FALSE(majority_endpoint_present);
  EXPECT_TRUE(minority_endpoint_present);
}

TEST(TomekTest, RemoveBothPolicy) {
  Matrix x = Matrix::FromRows({
      {0.0, 0.0}, {0.2, 0.0}, {0.0, 0.2}, {0.2, 0.2},
      {10.0, 10.0},
      {5.0, 5.0}, {5.1, 5.0},
  });
  const Dataset ds(std::move(x), {0, 0, 0, 0, 1, 0, 1});
  TomekLinksSampler tomek(/*remove_both=*/true);
  Pcg32 rng(2);
  const Dataset out = tomek.Sample(ds, &rng);
  EXPECT_EQ(out.size(), ds.size() - 2);
}

TEST(TomekTest, CleansNoisyBoundary) {
  BlobsConfig cfg;
  cfg.num_samples = 400;
  cfg.num_classes = 2;
  cfg.center_spread = 2.0;   // strongly overlapping
  cfg.cluster_std = 1.5;
  Pcg32 gen(3);
  const Dataset ds = MakeGaussianBlobs(cfg, &gen);
  TomekLinksSampler tomek;
  Pcg32 rng(4);
  const Dataset out = tomek.Sample(ds, &rng);
  EXPECT_LT(out.size(), ds.size());  // overlapping data must contain links
  EXPECT_GT(out.size(), ds.size() / 2);
}

TEST(TomekTest, TinyDatasets) {
  const Dataset one(Matrix::FromRows({{1.0}}), {0});
  EXPECT_TRUE(TomekLinksSampler::FindLinks(one).empty());
  TomekLinksSampler tomek;
  Pcg32 rng(5);
  EXPECT_EQ(tomek.Sample(one, &rng).size(), 1);
}

// Tomek-link cleaning pinned under both policies over paper-suite
// stand-ins, row-capped: S1, S5 (d = 2), S6 and S13 (d = 256).
struct PinnedTomekCase {
  const char* id;
  int rows;
  std::uint64_t majority_only;
  std::uint64_t remove_both;
  friend void PrintTo(const PinnedTomekCase& c, std::ostream* os) {
    *os << c.id << " (" << c.rows << " rows)";
  }
};

class TomekPinnedTest : public ::testing::TestWithParam<PinnedTomekCase> {};

TEST_P(TomekPinnedTest, OutputsMatchFingerprints) {
  const PinnedTomekCase& c = GetParam();
  const Dataset ds = MakePaperDataset(c.id, c.rows, 31);
  Pcg32 rng(32);
  const std::uint64_t majority_only =
      Fingerprint(TomekLinksSampler().Sample(ds, &rng));
  EXPECT_EQ(majority_only, c.majority_only) << std::hex << "0x"
                                            << majority_only;
  const std::uint64_t remove_both =
      Fingerprint(TomekLinksSampler(/*remove_both=*/true).Sample(ds, &rng));
  EXPECT_EQ(remove_both, c.remove_both) << std::hex << "0x" << remove_both;
}

INSTANTIATE_TEST_SUITE_P(
    PaperSuite, TomekPinnedTest,
    ::testing::Values(
        PinnedTomekCase{"S1", 690, 0xd6956e7a2b85eca4ULL,
                        0x7f660d0381bc2827ULL},
        PinnedTomekCase{"S5", 1200, 0x5d9105ac77029212ULL,
                        0x796c99230c73f5dcULL},
        PinnedTomekCase{"S6", 1200, 0x044b89be36171a0fULL,
                        0x044b89be36171a0fULL},
        PinnedTomekCase{"S13", 500, 0xaed503b6cb984b62ULL,
                        0xaacbbb4b12e64d94ULL}),
    [](const ::testing::TestParamInfo<PinnedTomekCase>& info) {
      return std::string(info.param.id);
    });

}  // namespace
}  // namespace gbx
