// System-level integration: a realistic deployment slice exercised
// end-to-end across all encoders, with cross-encoder agreement checks —
// every technique must notify exactly the same users for the same zone,
// because correctness (exact cover) is encoding-independent.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "alert/protocol.h"
#include "grid/alert_zone.h"
#include "grid/grid.h"
#include "prob/crime_synth.h"
#include "prob/markov.h"
#include "prob/sigmoid.h"

namespace sloc {
namespace alert {
namespace {

AlertSystem::Config Config(EncoderKind kind, uint64_t seed) {
  AlertSystem::Config config;
  config.encoder = kind;
  config.pairing.p_prime_bits = 32;
  config.pairing.q_prime_bits = 32;
  config.pairing.seed = seed;
  return config;
}

TEST(IntegrationTest, AllEncodersNotifyIdenticalUserSets) {
  // One town, 24 users, three alert events; every encoder runs the full
  // crypto pipeline and must produce the same notified sets.
  Grid grid = Grid::Create(8, 8, 50.0).value();
  Rng rng(404);
  std::vector<double> probs =
      GenerateSigmoidProbabilities(64, 0.9, 50.0, &rng);

  std::map<int, int> user_cells;
  for (int u = 0; u < 24; ++u) {
    user_cells[u] = int(rng.NextBelow(64));
  }
  std::vector<std::vector<int>> zones = {
      ProbabilisticCircularZone(grid, 60.0, &rng, probs).cells,
      MakeCircularZone(grid, grid.CenterOf(27), 80.0).cells,
      {0, 7, 56, 63},  // the four corners: worst case for aggregation
  };

  std::vector<std::vector<std::vector<int>>> results;
  for (EncoderKind kind : {EncoderKind::kFixed, EncoderKind::kSgo,
                           EncoderKind::kBalanced, EncoderKind::kHuffman}) {
    AlertSystem sys = AlertSystem::Create(probs, Config(kind, 99)).value();
    for (const auto& [u, cell] : user_cells) {
      ASSERT_TRUE(sys.AddUser(u, cell).ok());
    }
    std::vector<std::vector<int>> notified;
    for (const auto& zone : zones) {
      notified.push_back(sys.TriggerAlert(zone).value().notified_users);
    }
    results.push_back(std::move(notified));
  }
  for (size_t e = 1; e < results.size(); ++e) {
    EXPECT_EQ(results[e], results[0]) << "encoder " << e << " disagrees";
  }
  // And agreement with plaintext ground truth.
  for (size_t z = 0; z < zones.size(); ++z) {
    std::set<int> zone_cells(zones[z].begin(), zones[z].end());
    std::vector<int> expected;
    for (const auto& [u, cell] : user_cells) {
      if (zone_cells.count(cell)) expected.push_back(u);
    }
    EXPECT_EQ(results[0][z], expected) << "zone " << z;
  }
}

TEST(IntegrationTest, CrimePipelineToProtocol) {
  // The full real-data path: synthetic crime data -> logistic model ->
  // likelihood surface -> Huffman system -> alert on a hotspot.
  Grid grid = Grid::Create(8, 8, 200.0).value();
  CrimeDatasetSpec spec;
  spec.num_events = 600;
  spec.num_hotspots = 2;
  spec.hotspot_sigma_m = 150.0;
  CrimeDataset data = GenerateCrimeDataset(grid, spec).value();
  CrimeLikelihoodResult likelihood =
      TrainCrimeLikelihood(grid, data).value();

  AlertSystem sys =
      AlertSystem::Create(likelihood.cell_probs,
                          Config(EncoderKind::kHuffman, 7)).value();
  for (int u = 0; u < 16; ++u) {
    ASSERT_TRUE(sys.AddUser(u, u * 4).ok());
  }
  Rng rng(5);
  AlertZone zone =
      ProbabilisticCircularZone(grid, 300.0, &rng, likelihood.cell_probs);
  auto outcome = sys.TriggerAlert(zone.cells).value();
  std::set<int> zone_cells(zone.cells.begin(), zone.cells.end());
  std::vector<int> expected;
  for (int u = 0; u < 16; ++u) {
    if (zone_cells.count(u * 4)) expected.push_back(u);
  }
  EXPECT_EQ(outcome.notified_users, expected);
}

TEST(IntegrationTest, MarkovSmoothedSurfaceWorksEndToEnd) {
  // Section 9 extension: feed the Markov stationary distribution into
  // the encoder instead of the raw surface.
  Grid grid = Grid::Create(8, 8, 50.0).value();
  Rng rng(31);
  std::vector<double> raw =
      GenerateSigmoidProbabilities(64, 0.95, 50.0, &rng);
  std::vector<double> smoothed =
      StationaryAlertDistribution(grid, raw).value();

  AlertSystem sys =
      AlertSystem::Create(smoothed, Config(EncoderKind::kHuffman, 11))
          .value();
  ASSERT_TRUE(sys.AddUser(1, 20).ok());
  ASSERT_TRUE(sys.AddUser(2, 40).ok());
  auto outcome = sys.TriggerAlert({20}).value();
  EXPECT_EQ(outcome.notified_users, std::vector<int>{1});
}

TEST(IntegrationTest, SequentialAlertsAndMovement) {
  // A day in the life: users move, zones fire repeatedly; the ciphertext
  // store always reflects the latest position only.
  ASSERT_TRUE(Grid::Create(8, 8, 50.0).ok());
  Rng rng(77);
  std::vector<double> probs =
      GenerateSigmoidProbabilities(64, 0.9, 30.0, &rng);
  AlertSystem sys =
      AlertSystem::Create(probs, Config(EncoderKind::kHuffman, 13)).value();
  ASSERT_TRUE(sys.AddUser(1, 0).ok());
  ASSERT_TRUE(sys.AddUser(2, 0).ok());
  std::vector<int> walk = {0, 1, 9, 10, 18};
  for (int step = 0; step < int(walk.size()); ++step) {
    ASSERT_TRUE(sys.MoveUser(1, walk[size_t(step)]).ok());
    auto outcome = sys.TriggerAlert({walk[size_t(step)]}).value();
    // User 1 always inside; user 2 only when the zone covers cell 0.
    std::vector<int> expected =
        walk[size_t(step)] == 0 ? std::vector<int>{1, 2}
                                : std::vector<int>{1};
    EXPECT_EQ(outcome.notified_users, expected) << "step " << step;
  }
  EXPECT_EQ(sys.provider().num_users(), 2u);
}

TEST(IntegrationTest, AllQueryEnginesProduceIdenticalOutcomes) {
  // Both query engines (the per-pairing reference oracle and the
  // batched precompiled engine) must notify the same users and account
  // the same logical work.
  ASSERT_TRUE(Grid::Create(8, 8, 50.0).ok());
  Rng rng(55);
  std::vector<double> probs =
      GenerateSigmoidProbabilities(64, 0.9, 50.0, &rng);
  AlertSystem sys =
      AlertSystem::Create(probs, Config(EncoderKind::kHuffman, 21)).value();
  for (int u = 0; u < 10; ++u) {
    ASSERT_TRUE(sys.AddUser(u, u * 6).ok());
  }
  std::vector<int> zone = {0, 6, 12, 30};
  sys.mutable_provider()->set_engine(
      ServiceProvider::QueryEngine::kReference);
  auto naive = sys.TriggerAlert(zone).value();
  sys.mutable_provider()->set_engine(ServiceProvider::QueryEngine::kBatched);
  auto batched = sys.TriggerAlert(zone).value();
  EXPECT_FALSE(naive.notified_users.empty()) << "degenerate workload";
  EXPECT_EQ(batched.notified_users, naive.notified_users);
  EXPECT_EQ(batched.stats.pairings, naive.stats.pairings);
  EXPECT_EQ(batched.stats.queries, naive.stats.queries);
  EXPECT_EQ(batched.stats.matches, naive.stats.matches);
}

TEST(IntegrationTest, TokenBlobsAreInterchangeableAcrossTransports) {
  // Tokens survive an extra serialize/parse cycle (e.g. store-and-
  // forward transport) without affecting matching.
  ASSERT_TRUE(Grid::Create(4, 4, 50.0).ok());
  Rng rng(88);
  std::vector<double> probs =
      GenerateSigmoidProbabilities(16, 0.9, 30.0, &rng);
  AlertSystem sys =
      AlertSystem::Create(probs, Config(EncoderKind::kHuffman, 17)).value();
  ASSERT_TRUE(sys.AddUser(5, 3).ok());
  auto blobs = sys.authority().IssueAlert({3}).value();
  // Re-parse and re-serialize every blob.
  std::vector<std::vector<uint8_t>> recycled;
  for (const auto& blob : blobs) {
    auto token = hve::ParseToken(sys.group(), blob).value();
    recycled.push_back(hve::SerializeToken(sys.group(), token));
  }
  auto outcome = sys.provider().ProcessAlert(recycled).value();
  EXPECT_EQ(outcome.notified_users, std::vector<int>{5});
}

}  // namespace
}  // namespace alert
}  // namespace sloc
