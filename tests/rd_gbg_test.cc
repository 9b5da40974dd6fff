#include "core/rd_gbg.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/gb_io.h"
#include "simd/simd.h"
#include "data/noise.h"
#include "data/paper_suite.h"
#include "data/synthetic.h"
#include "fuzz_dataset.h"
#include "thread_counts.h"

namespace gbx {
namespace {

Dataset Blobs(int n, int classes, std::uint64_t seed, double spread = 5.0,
              double std_dev = 0.8) {
  BlobsConfig cfg;
  cfg.num_samples = n;
  cfg.num_classes = classes;
  cfg.num_features = 2;
  cfg.center_spread = spread;
  cfg.cluster_std = std_dev;
  Pcg32 rng(seed);
  return MakeGaussianBlobs(cfg, &rng);
}

// Core invariants of RD-GBG (§IV-B): purity 1.0, geometric containment,
// no overlap, disjoint membership, and completeness (every sample is
// either covered or eliminated as noise). Swept across datasets, seeds
// and density tolerances.
class RdGbgInvariantTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RdGbgInvariantTest, AllInvariantsHold) {
  const auto [n, rho, seed] = GetParam();
  const Dataset ds = Blobs(n, 3, seed);
  RdGbgConfig cfg;
  cfg.density_tolerance = rho;
  cfg.seed = seed * 1000 + 7;
  const RdGbgResult result = GenerateRdGbg(ds, cfg);

  EXPECT_TRUE(result.balls.CheckPurity(ds.y()));
  EXPECT_TRUE(result.balls.CheckContainment());
  EXPECT_TRUE(result.balls.CheckNonOverlap(1e-9));
  EXPECT_TRUE(result.balls.CheckDisjointMembership(ds.size()));
  EXPECT_DOUBLE_EQ(result.balls.HeterogeneousOverlapDepth(), 0.0);

  // Completeness: covered + noise partitions the dataset.
  std::set<int> covered;
  for (const GranularBall& ball : result.balls.balls()) {
    covered.insert(ball.members.begin(), ball.members.end());
  }
  for (int idx : result.noise_indices) {
    EXPECT_EQ(covered.count(idx), 0u);
    covered.insert(idx);
  }
  EXPECT_EQ(static_cast<int>(covered.size()), ds.size());
}

TEST_P(RdGbgInvariantTest, CentersAreSamplesWithBallLabel) {
  const auto [n, rho, seed] = GetParam();
  const Dataset ds = Blobs(n, 3, seed + 100);
  RdGbgConfig cfg;
  cfg.density_tolerance = rho;
  const RdGbgResult result = GenerateRdGbg(ds, cfg);
  for (const GranularBall& ball : result.balls.balls()) {
    ASSERT_GE(ball.center_index, 0);
    EXPECT_EQ(ds.label(ball.center_index), ball.label);
    // Center coordinates equal the (scaled) sample coordinates.
    const double* sx = result.balls.scaled_features().Row(ball.center_index);
    for (int j = 0; j < ds.num_features(); ++j) {
      EXPECT_DOUBLE_EQ(ball.center[j], sx[j]);
    }
    // The center is a member of its own ball.
    EXPECT_TRUE(std::binary_search(ball.members.begin(), ball.members.end(),
                                   ball.center_index));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RdGbgInvariantTest,
    ::testing::Combine(::testing::Values(60, 200, 500),
                       ::testing::Values(3, 5, 9),
                       ::testing::Values(1, 2)));

// The same invariants must hold on every generator family of the paper
// suite (banana, overlapping blobs, extreme-imbalance blobs, high-dim
// informative, many-class high-dim).
class RdGbgPaperSuiteTest : public ::testing::TestWithParam<int> {};

TEST_P(RdGbgPaperSuiteTest, InvariantsOnPaperDatasets) {
  const int index = GetParam();
  const Dataset ds = MakePaperDataset(index, /*max_samples=*/220,
                                      /*seed=*/55 + index);
  const RdGbgResult result = GenerateRdGbg(ds, RdGbgConfig{});
  EXPECT_TRUE(result.balls.CheckPurity(ds.y()));
  EXPECT_TRUE(result.balls.CheckContainment());
  EXPECT_TRUE(result.balls.CheckNonOverlap(1e-9));
  EXPECT_TRUE(result.balls.CheckDisjointMembership(ds.size()));
  EXPECT_EQ(result.balls.TotalCoveredSamples() +
                static_cast<int>(result.noise_indices.size()),
            ds.size());
}

INSTANTIATE_TEST_SUITE_P(AllPaperDatasets, RdGbgPaperSuiteTest,
                         ::testing::Range(0, 13));

TEST(RdGbgTest, Deterministic) {
  const Dataset ds = Blobs(200, 2, 5);
  RdGbgConfig cfg;
  cfg.seed = 99;
  const RdGbgResult a = GenerateRdGbg(ds, cfg);
  const RdGbgResult b = GenerateRdGbg(ds, cfg);
  ASSERT_EQ(a.balls.size(), b.balls.size());
  for (int i = 0; i < a.balls.size(); ++i) {
    EXPECT_EQ(a.balls.ball(i).members, b.balls.ball(i).members);
    EXPECT_DOUBLE_EQ(a.balls.ball(i).radius, b.balls.ball(i).radius);
  }
  EXPECT_EQ(a.noise_indices, b.noise_indices);
}

TEST(RdGbgTest, DifferentSeedsUsuallyDiffer) {
  const Dataset ds = Blobs(300, 2, 6);
  RdGbgConfig cfg_a;
  cfg_a.seed = 1;
  RdGbgConfig cfg_b;
  cfg_b.seed = 2;
  const RdGbgResult a = GenerateRdGbg(ds, cfg_a);
  const RdGbgResult b = GenerateRdGbg(ds, cfg_b);
  const bool same_count = a.balls.size() == b.balls.size();
  bool identical = same_count;
  if (same_count) {
    for (int i = 0; i < a.balls.size() && identical; ++i) {
      identical = a.balls.ball(i).members == b.balls.ball(i).members;
    }
  }
  EXPECT_FALSE(identical);
}

TEST(RdGbgTest, SingleClassProducesOneBigBallEventually) {
  // With one class there is no heterogeneous sample: the first center's
  // locally consistent radius spans the whole undivided set.
  BlobsConfig cfg;
  cfg.num_samples = 100;
  cfg.num_classes = 1;
  Pcg32 rng(7);
  const Dataset ds = MakeGaussianBlobs(cfg, &rng);
  const RdGbgResult result = GenerateRdGbg(ds, RdGbgConfig{});
  EXPECT_TRUE(result.noise_indices.empty());
  EXPECT_EQ(result.balls.TotalCoveredSamples(), 100);
  // Few balls: the diffusion covers nearly everything in one or two rounds.
  EXPECT_LE(result.balls.size(), 5);
}

TEST(RdGbgTest, DetectsPlantedNoise) {
  // Two far-apart compact blobs; flip a handful of labels deep inside each
  // blob. RD-GBG's center detection should eliminate a good share of them.
  const Dataset clean = Blobs(400, 2, 8, /*spread=*/10.0, /*std_dev=*/0.5);
  Dataset noisy = clean;
  Pcg32 noise_rng(9);
  const std::vector<int> flipped = InjectClassNoise(&noisy, 0.05, &noise_rng);
  ASSERT_FALSE(flipped.empty());

  const RdGbgResult result = GenerateRdGbg(noisy, RdGbgConfig{});
  // All detected noise must be genuinely flipped samples (no false
  // positives on this clean geometry)...
  int true_hits = 0;
  for (int idx : result.noise_indices) {
    if (std::binary_search(flipped.begin(), flipped.end(), idx)) ++true_hits;
  }
  EXPECT_EQ(true_hits, static_cast<int>(result.noise_indices.size()));
  // ...and a decent share of the planted noise is caught.
  EXPECT_GE(true_hits, static_cast<int>(flipped.size()) / 4);
}

TEST(RdGbgTest, BallsHoldManySamplesOnSeparableData) {
  const Dataset ds = Blobs(500, 2, 10, /*spread=*/10.0, /*std_dev=*/0.5);
  const RdGbgResult result = GenerateRdGbg(ds, RdGbgConfig{});
  // Representativeness: the granulation compresses the dataset.
  EXPECT_LT(result.balls.size(), ds.size() / 4);
}

TEST(RdGbgTest, OrphansAreRadiusZeroSingletons) {
  const Dataset ds = Blobs(300, 3, 11, /*spread=*/2.0, /*std_dev=*/1.5);
  const RdGbgResult result = GenerateRdGbg(ds, RdGbgConfig{});
  std::set<int> orphan_set(result.orphan_indices.begin(),
                           result.orphan_indices.end());
  int orphan_balls = 0;
  for (const GranularBall& ball : result.balls.balls()) {
    if (orphan_set.count(ball.center_index) > 0 && ball.size() == 1) {
      EXPECT_DOUBLE_EQ(ball.radius, 0.0);
      ++orphan_balls;
    }
  }
  EXPECT_EQ(orphan_balls, static_cast<int>(result.orphan_indices.size()));
}

TEST(RdGbgTest, RhoIsValidated) {
  const Dataset ds = Blobs(20, 2, 12);
  RdGbgConfig cfg;
  cfg.density_tolerance = 1;
  EXPECT_DEATH(GenerateRdGbg(ds, cfg), "GBX_CHECK");
}

TEST(RdGbgTest, TinyDataset) {
  const Dataset ds(Matrix::FromRows({{0, 0}, {0.1, 0}, {5, 5}, {5.1, 5}}),
                   {0, 0, 1, 1});
  const RdGbgResult result = GenerateRdGbg(ds, RdGbgConfig{});
  EXPECT_TRUE(result.balls.CheckPurity(ds.y()));
  EXPECT_EQ(result.balls.TotalCoveredSamples() +
                static_cast<int>(result.noise_indices.size()),
            4);
}

// Purity under exact distance ties. A homogeneous neighbor tied with
// the first heterogeneous one cannot bound a ball without admitting it,
// so CR (Eq.3) stops strictly inside that distance. Checked member by
// member, because Release compiles ball assembly's DCHECK out, and under
// every exact strategy, which must also agree bit for bit.
void ExpectPureUnderEveryExactStrategy(const Dataset& ds,
                                       std::uint64_t seed) {
  std::string first;
  for (IndexStrategy strategy : {IndexStrategy::kFlat, IndexStrategy::kTree,
                                 IndexStrategy::kBallTree}) {
    SCOPED_TRACE(IndexStrategyName(strategy));
    RdGbgConfig cfg;
    cfg.seed = seed;
    cfg.index_strategy = strategy;
    const RdGbgResult result = GenerateRdGbg(ds, cfg);
    for (const GranularBall& ball : result.balls.balls()) {
      for (int idx : ball.members) {
        EXPECT_EQ(ds.label(idx), ball.label)
            << "ball centered on " << ball.center_index << " holds " << idx;
      }
    }
    std::string text = GranularBallsToString(result.balls) + "noise";
    for (int idx : result.noise_indices) {
      text += ' ';
      text += std::to_string(idx);
    }
    if (first.empty()) {
      first = text;
    } else {
      EXPECT_EQ(text, first);
    }
  }
}

TEST(RdGbgTieTest, FuzzInputWithTiedNeighborsStaysPure) {
  // Candidate 95's nearest neighbor shares its label, and the next one
  // (sample 94) does not; both sit at dist2 1.2326e-32.
  ExpectPureUnderEveryExactStrategy(RandomDataset(7001), 7501);
}

TEST(RdGbgTieTest, HandBuiltExactTieStaysPure) {
  // Four far-apart triplets on a line: A (class 0) has a class-0
  // neighbor B at +1 and a class-1 neighbor C at -1. B precedes C in
  // index order, so from A the tie reads homogeneous-first. The range
  // is 32, so min-max scaling keeps every distance exact.
  Matrix x(12, 1);
  std::vector<int> labels;
  for (int k = 0; k < 4; ++k) {
    const double a = 10.0 * k;
    x.At(3 * k, 0) = a;
    x.At(3 * k + 1, 0) = a + 1.0;
    x.At(3 * k + 2, 0) = a - 1.0;
    labels.insert(labels.end(), {0, 0, 1});
  }
  const Dataset ds(std::move(x), std::move(labels));
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectPureUnderEveryExactStrategy(ds, seed);
  }
}

TEST(RdGbgTest, UnscaledModeKeepsOriginalCoordinates) {
  const Dataset ds = Blobs(100, 2, 13);
  RdGbgConfig cfg;
  cfg.scale_features = false;
  const RdGbgResult result = GenerateRdGbg(ds, cfg);
  EXPECT_TRUE(result.balls.CheckPurity(ds.y()));
  const GranularBall& ball = result.balls.ball(0);
  for (int j = 0; j < ds.num_features(); ++j) {
    EXPECT_DOUBLE_EQ(ball.center[j], ds.feature(ball.center_index, j));
  }
}

// The flat strategy serves each candidate its K = max(rho, 32) nearest
// neighbors from a list over a resident copy of U that compacts once half
// of it has left. A round pass takes lists for one round's candidates; an
// epoch pass takes them for every sample of T and serves every round
// until the next compaction, and one starts once most samples that left
// T since the last compaction left as candidates. A candidate drops the
// entries that left U since its list was taken and reads the rest nearest
// first; a read past them takes a fresh, lazily sorted full pass. The
// datasets below drive each of those paths; the result must equal the
// KD-tree's bit for bit at every thread count and every SIMD level.
constexpr int kListK = 32;

struct ListPasses {
  std::int64_t round = 0;
  std::int64_t epoch = 0;
};

// The list passes of one flat fit, read from
// gbx_core_rdgbg_list_passes_total; nullopt when metrics are off.
std::optional<ListPasses> CountListPasses(const Dataset& ds,
                                          std::uint64_t seed) {
  if (!metrics::kCompiledIn || !metrics::Enabled()) return std::nullopt;
  auto& reg = metrics::MetricsRegistry::Default();
  metrics::Counter* round =
      reg.GetCounter("gbx_core_rdgbg_list_passes_total", {{"pass", "round"}});
  metrics::Counter* epoch =
      reg.GetCounter("gbx_core_rdgbg_list_passes_total", {{"pass", "epoch"}});
  const ListPasses before{round->Value(), epoch->Value()};
  RdGbgConfig cfg;
  cfg.seed = seed;
  cfg.num_threads = 1;
  cfg.index_strategy = IndexStrategy::kFlat;
  GenerateRdGbg(ds, cfg);
  return ListPasses{round->Value() - before.round,
                    epoch->Value() - before.epoch};
}

std::string Fingerprint(const RdGbgResult& result) {
  std::string text = GranularBallsToString(result.balls) + "noise";
  for (int idx : result.noise_indices) text += ' ' + std::to_string(idx);
  text += " orphans";
  for (int idx : result.orphan_indices) text += ' ' + std::to_string(idx);
  return text + " iterations " + std::to_string(result.iterations);
}

RdGbgResult ExpectFlatMatchesTree(const Dataset& ds, std::uint64_t seed) {
  RdGbgConfig cfg;
  cfg.seed = seed;
  cfg.num_threads = 1;
  cfg.index_strategy = IndexStrategy::kTree;
  const std::string want = Fingerprint(GenerateRdGbg(ds, cfg));
  cfg.index_strategy = IndexStrategy::kFlat;
  RdGbgResult flat;
  const char* prev = std::getenv("GBX_SIMD");
  const std::string saved = prev != nullptr ? prev : "";
  for (simd::Level level :
       {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (!simd::Supported(level)) continue;
    ::setenv("GBX_SIMD", simd::LevelName(level), 1);
    simd::ReresolveFromEnvForTest();
    for (int threads : ThreadCountsUnderTest()) {
      SCOPED_TRACE(std::string("level ") + simd::LevelName(level) +
                   " threads " + std::to_string(threads));
      cfg.num_threads = threads;
      flat = GenerateRdGbg(ds, cfg);
      EXPECT_EQ(Fingerprint(flat), want);
    }
  }
  if (prev != nullptr) {
    ::setenv("GBX_SIMD", saved.c_str(), 1);
  } else {
    ::unsetenv("GBX_SIMD");
  }
  simd::ReresolveFromEnvForTest();
  return flat;
}

int LargestBall(const RdGbgResult& result) {
  int largest = 0;
  for (const GranularBall& ball : result.balls.balls()) {
    largest = std::max(largest, ball.size());
  }
  return largest;
}

// True when a round began after the first compaction, so its lists were
// taken over the compacted copy. The first compaction follows the
// candidate that brings the departures (noise plus members of radius > 0
// balls) to half of the n slots, and the rest of its round removes at
// most one ball per class, so more departures than n/2 plus one largest
// ball per class need a later round.
bool RoundAfterCompaction(const Dataset& ds, const RdGbgResult& result) {
  int departed = static_cast<int>(result.noise_indices.size());
  for (const GranularBall& ball : result.balls.balls()) {
    if (ball.radius > 0.0) departed += ball.size();
  }
  return 2 * departed >=
         ds.size() + 2 * ds.num_classes() * LargestBall(result);
}

TEST(RdGbgFlatScanTest, CandidatesReadingPastTopKMatchTree) {
  // One dense class-0 cluster of 600 samples plus a dozen class-1/2
  // stragglers spread around it: a class-0 candidate's consistent
  // region runs far past its K nearest neighbors.
  const int cluster = 600;
  const int stragglers = 12;
  Matrix x(cluster + stragglers, 3);
  std::vector<int> labels;
  Pcg32 rng(8101);
  for (int i = 0; i < cluster + stragglers; ++i) {
    const bool straggler = i >= cluster;
    for (int j = 0; j < 3; ++j) {
      x.At(i, j) =
          straggler ? 8.0 * rng.NextDouble() - 4.0 : rng.NextGaussian();
    }
    labels.push_back(straggler ? 1 + i % 2 : 0);
  }
  const Dataset ds(std::move(x), std::move(labels));
  for (std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RdGbgResult result = ExpectFlatMatchesTree(ds, seed);
    // A ball of more than 4K + 1 members read far past its list.
    EXPECT_GT(LargestBall(result), 4 * kListK + 1);
  }
}

TEST(RdGbgFlatScanTest, CompactedResidentSetMatchesTree) {
  // Four well-separated classes of three clusters each: balls swallow
  // whole clusters, so few samples leave T as candidates and the rounds
  // take round passes; U shrinks in big steps, the resident copy
  // compacts, and later rounds take their lists over the compacted copy.
  // The balls hold more than K + 1 members, so their reads run past the
  // lists. n·p times a round's candidates starts above the flat scan's
  // parallel threshold, so the round passes also split across workers.
  BlobsConfig cfg;
  cfg.num_samples = 1100;
  cfg.num_classes = 4;
  cfg.num_features = 240;
  cfg.center_spread = 5.0;
  cfg.cluster_std = 0.3;
  cfg.clusters_per_class = 3;
  Pcg32 rng(8102);
  const Dataset ds = MakeGaussianBlobs(cfg, &rng);
  const RdGbgResult result = ExpectFlatMatchesTree(ds, 5);
  EXPECT_TRUE(RoundAfterCompaction(ds, result));
  EXPECT_GT(LargestBall(result), kListK + 1);
  EXPECT_GT(result.iterations, 2);
  if (const std::optional<ListPasses> passes = CountListPasses(ds, 5)) {
    EXPECT_EQ(passes->epoch, 0);
    EXPECT_EQ(passes->round, result.iterations);
  }
}

// Candidates whose neighborhoods overlap: K clusters in which every class
// is present, so a ball or noise removal takes samples out of the epoch
// lists of candidates that run rounds later. Most candidates end as
// noise, small balls or low-density samples, so most samples leave T as
// candidates and the rounds take epoch passes.
Dataset MixedClusters(int n, int dims, int classes, std::uint64_t seed,
                      double own_class = 0.85) {
  const int clusters = 5;
  Pcg32 rng(seed);
  Matrix centers(clusters, dims);
  for (int c = 0; c < clusters; ++c) {
    for (int j = 0; j < dims; ++j) centers.At(c, j) = 6.0 * rng.NextDouble();
  }
  Matrix x(n, dims);
  std::vector<int> labels;
  for (int i = 0; i < n; ++i) {
    const int c = static_cast<int>(rng.NextBounded(clusters));
    for (int j = 0; j < dims; ++j) {
      x.At(i, j) = centers.At(c, j) + 0.4 * rng.NextGaussian();
    }
    // Mostly the cluster's own class, the rest spread over the others.
    labels.push_back(rng.NextDouble() < own_class
                         ? c % classes
                         : static_cast<int>(rng.NextBounded(classes)));
  }
  return Dataset(std::move(x), std::move(labels));
}

TEST(RdGbgFlatScanTest, EpochListsOutliveManyRoundsMatchTree) {
  // An epoch lasts until the next compaction, so most rounds read lists
  // taken many rounds earlier. The small d = 2 sets put candidates close
  // together, so a removed entry often sits among a later candidate's
  // nearest few, where serving it would change the decision. With half
  // the labels spread over all classes, more candidates end as noise or
  // low-density samples, so an epoch starts early enough that a second
  // one follows a compaction. d = 72 reads past many lists, and puts n·p
  // above the parallel threshold, so the epoch pass splits across
  // workers.
  for (const auto& [dims, n, own_class] :
       {std::tuple{2, 300, 0.85}, std::tuple{2, 800, 0.85},
        std::tuple{2, 800, 0.5}, std::tuple{72, 1000, 0.85}}) {
    const Dataset ds = MixedClusters(n, dims, 4, 8103 + dims, own_class);
    for (std::uint64_t seed : {4, 5}) {
      SCOPED_TRACE("n " + std::to_string(n) + " dims " +
                   std::to_string(dims) + " own " + std::to_string(own_class) +
                   " seed " + std::to_string(seed));
      const RdGbgResult result = ExpectFlatMatchesTree(ds, seed);
      if (const std::optional<ListPasses> passes = CountListPasses(ds, seed)) {
        EXPECT_GE(passes->epoch, own_class < 0.85 ? 2 : 1);
        // Rounds that took no pass read an epoch's lists.
        EXPECT_GT(result.iterations - passes->round - passes->epoch,
                  4 * passes->epoch);
      }
      int members = 0;
      for (const GranularBall& ball : result.balls.balls()) {
        if (ball.size() > 1) members += ball.size();
      }
      EXPECT_GE(members, n / 40);
      EXPECT_GT(result.noise_indices.size(), 0u);
    }
  }
}

}  // namespace
}  // namespace gbx
