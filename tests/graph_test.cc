#include <cmath>

#include <gtest/gtest.h>

#include "audit/determinism.h"

#include "util/logging.h"

#include "graph/knn_graph.h"
#include "graph/label_propagation.h"
#include "graph/similarity.h"
#include "util/random.h"

namespace crossmodal {
namespace {

FeatureSchema GraphSchema() {
  FeatureSchema schema;
  FeatureDef cat;
  cat.name = "tags";
  cat.type = FeatureType::kCategorical;
  cat.cardinality = 16;
  CM_CHECK(schema.Add(cat).ok());
  FeatureDef num;
  num.name = "score";
  num.type = FeatureType::kNumeric;
  CM_CHECK(schema.Add(num).ok());
  FeatureDef emb;
  emb.name = "emb";
  emb.type = FeatureType::kEmbedding;
  emb.cardinality = 3;
  CM_CHECK(schema.Add(emb).ok());
  return schema;
}

FeatureVector GraphRow(std::vector<int32_t> tags, double score,
                       std::vector<float> emb) {
  FeatureVector row(3);
  row.Set(0, FeatureValue::Categorical(std::move(tags)));
  row.Set(1, FeatureValue::Numeric(score));
  row.Set(2, FeatureValue::Embedding(std::move(emb)));
  return row;
}

// ---------- Similarity ------------------------------------------------------

TEST(SimilarityTest, IdenticalRowsHaveWeightOne) {
  const FeatureSchema schema = GraphSchema();
  FeatureSimilarity sim(&schema, {0, 1, 2});
  const FeatureVector row = GraphRow({1, 2}, 0.5, {1, 0, 0});
  std::vector<const FeatureVector*> rows{&row};
  sim.FitNormalization(rows);
  EXPECT_NEAR(sim.Weight(row, row), 1.0, 1e-9);
}

TEST(SimilarityTest, Symmetric) {
  const FeatureSchema schema = GraphSchema();
  FeatureSimilarity sim(&schema, {0, 1, 2});
  const FeatureVector a = GraphRow({1, 2}, 0.1, {1, 0, 0});
  const FeatureVector b = GraphRow({2, 3}, 0.9, {0, 1, 0});
  std::vector<const FeatureVector*> rows{&a, &b};
  sim.FitNormalization(rows);
  EXPECT_DOUBLE_EQ(sim.Weight(a, b), sim.Weight(b, a));
}

TEST(SimilarityTest, InUnitInterval) {
  const FeatureSchema schema = GraphSchema();
  FeatureSimilarity sim(&schema, {0, 1, 2});
  Rng rng(3);
  std::vector<FeatureVector> rows;
  for (int i = 0; i < 30; ++i) {
    rows.push_back(GraphRow(
        {static_cast<int32_t>(rng.UniformInt(uint64_t{16}))},
        rng.Uniform(),
        {static_cast<float>(rng.Normal()), static_cast<float>(rng.Normal()),
         static_cast<float>(rng.Normal())}));
  }
  std::vector<const FeatureVector*> ptrs;
  for (const auto& r : rows) ptrs.push_back(&r);
  sim.FitNormalization(ptrs);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j < rows.size(); ++j) {
      const double w = sim.Weight(rows[i], rows[j]);
      EXPECT_GE(w, 0.0);
      EXPECT_LE(w, 1.0);
    }
  }
}

TEST(SimilarityTest, MissingFeaturesSkipped) {
  const FeatureSchema schema = GraphSchema();
  FeatureSimilarity sim(&schema, {0, 1, 2});
  FeatureVector a(3);
  a.Set(0, FeatureValue::Categorical({1}));
  FeatureVector b(3);
  b.Set(1, FeatureValue::Numeric(0.5));
  // No feature present in both -> weight 0.
  EXPECT_DOUBLE_EQ(sim.Weight(a, b), 0.0);
  FeatureVector c(3);
  c.Set(0, FeatureValue::Categorical({1}));
  EXPECT_DOUBLE_EQ(sim.Weight(a, c), 1.0);  // only shared feature matches
}

// Every Algorithm-1 branch of the compiled kernel, against hand-computed
// doubles with the same operations in the same order (EXPECT_EQ, not NEAR:
// the kernel's contract is bit-identity, not closeness).
TEST(SimilarityTest, CompiledWeightIsExactOnEveryBranch) {
  FeatureSchema schema;
  const auto add = [&](FeatureType type) {
    FeatureDef def;
    def.name = "f" + std::to_string(schema.size());
    def.type = type;
    CM_CHECK(schema.Add(def).ok());
  };
  add(FeatureType::kCategorical);  // 0: Jaccard 2/5
  add(FeatureType::kNumeric);      // 1: fitted scale 1.5
  add(FeatureType::kEmbedding);    // 2: cosine 24/25
  add(FeatureType::kCategorical);  // 3: numeric vs categorical, skipped
  add(FeatureType::kCategorical);  // 4: missing on one side, skipped
  add(FeatureType::kCategorical);  // 5: two empty sets, 1.0
  add(FeatureType::kEmbedding);    // 6: unequal lengths, skipped
  add(FeatureType::kEmbedding);    // 7: zero norm, cosine 0
  FeatureVector a(8), b(8), c(8);
  a.Set(0, FeatureValue::Categorical({1, 2, 3}));
  b.Set(0, FeatureValue::Categorical({2, 3, 4, 5}));
  a.Set(1, FeatureValue::Numeric(1.0));
  b.Set(1, FeatureValue::Numeric(4.0));
  a.Set(2, FeatureValue::Embedding({3.0f, 4.0f}));
  b.Set(2, FeatureValue::Embedding({4.0f, 3.0f}));
  a.Set(3, FeatureValue::Numeric(1.0));
  b.Set(3, FeatureValue::Categorical({1}));
  a.Set(4, FeatureValue::Categorical({7}));
  a.Set(5, FeatureValue::Categorical({}));
  b.Set(5, FeatureValue::Categorical({}));
  a.Set(6, FeatureValue::Embedding({1.0f, 2.0f}));
  b.Set(6, FeatureValue::Embedding({1.0f, 2.0f, 3.0f}));
  a.Set(7, FeatureValue::Embedding({0.0f, 0.0f}));
  b.Set(7, FeatureValue::Embedding({1.0f, 2.0f}));
  c.Set(0, FeatureValue::Categorical({-4, 2}));

  FeatureSimilarity sim(&schema, {0, 1, 2, 3, 4, 5, 6, 7});
  sim.FitNormalization({&a, &b});  // mean 2.5, variance 2.25
  const CompiledRows rows = sim.Compile({&c, &a, &b});
  EXPECT_EQ(rows.num_rows(), 3u);
  EXPECT_EQ(rows.num_items(), 8u);  // {-4, 1, 2, 3, 4, 5} in f0, {1}, {7}

  double total = 0.0;
  total += 2.0 / 5.0;
  total += std::exp(-(3.0 / 1.5));
  total += 0.5 * (1.0 + 24.0 / (5.0 * 5.0));
  total += 1.0;
  total += 0.5 * (1.0 + 0.0);
  const double expected = total / 5.0;
  EXPECT_EQ(sim.Weight(rows, 1, 2), expected);
  EXPECT_EQ(sim.Weight(rows, 2, 1), expected);
  EXPECT_EQ(sim.Weight(a, b), expected);
  // Row c shares only feature 0 with a: {-4, 2} vs {1, 2, 3}.
  EXPECT_EQ(sim.Weight(rows, 0, 1), 1.0 / 4.0);
}

TEST(SimilarityTest, CosineSimilarityBasics) {
  EXPECT_NEAR(CosineSimilarity({1, 0}, {1, 0}), 1.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity({1, 0}, {0, 1}), 0.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity({1, 0}, {-1, 0}), -1.0, 1e-9);
  EXPECT_DOUBLE_EQ(CosineSimilarity({0, 0}, {1, 0}), 0.0);
}

// ---------- kNN graph -------------------------------------------------------

class KnnGraphTest : public ::testing::Test {
 protected:
  KnnGraphTest() : schema_(GraphSchema()), store_(&schema_) {
    // Two clusters: tags {1,2} + emb x-axis vs tags {8,9} + emb y-axis.
    Rng rng(5);
    for (EntityId id = 1; id <= 40; ++id) {
      const bool cluster_a = id <= 20;
      std::vector<int32_t> tags = cluster_a ? std::vector<int32_t>{1, 2}
                                            : std::vector<int32_t>{8, 9};
      if (rng.Bernoulli(0.3)) tags.push_back(cluster_a ? 3 : 10);
      std::vector<float> emb =
          cluster_a ? std::vector<float>{1.0f, 0.1f, 0.0f}
                    : std::vector<float>{0.1f, 1.0f, 0.0f};
      emb[2] = static_cast<float>(rng.Normal(0, 0.05));
      store_.Put(id, GraphRow(std::move(tags),
                              cluster_a ? 0.2 : 0.8, std::move(emb)));
      nodes_.push_back(id);
    }
  }

  FeatureSchema schema_;
  FeatureStore store_;
  std::vector<EntityId> nodes_;
};

TEST_F(KnnGraphTest, BuildsSymmetricBoundedGraph) {
  FeatureSimilarity sim(&schema_, {0, 1, 2});
  std::vector<const FeatureVector*> rows;
  for (EntityId id : nodes_) rows.push_back(*store_.Get(id));
  sim.FitNormalization(rows);
  KnnGraphOptions options;
  options.k = 5;
  auto graph = BuildKnnGraph(nodes_, store_, sim, options);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 40u);
  EXPECT_GT(graph->num_edges(), 0u);
  // Symmetry: adjacency lists mirror each other.
  for (size_t i = 0; i < graph->num_nodes(); ++i) {
    for (const auto& [j, w] : graph->adjacency[i]) {
      bool mirrored = false;
      for (const auto& [k, w2] : graph->adjacency[j]) {
        if (k == i) {
          mirrored = true;
          EXPECT_FLOAT_EQ(w, w2);
        }
      }
      EXPECT_TRUE(mirrored);
    }
  }
}

TEST_F(KnnGraphTest, NeighborsPreferSameCluster) {
  FeatureSimilarity sim(&schema_, {0, 1, 2});
  std::vector<const FeatureVector*> rows;
  for (EntityId id : nodes_) rows.push_back(*store_.Get(id));
  sim.FitNormalization(rows);
  KnnGraphOptions options;
  options.k = 5;
  // At n=40 the cluster-defining tags cover half the nodes; keep them as
  // blocking items (the default stop fraction targets corpus scale).
  options.stop_item_fraction = 0.8;
  options.random_candidates = 2;
  auto graph = BuildKnnGraph(nodes_, store_, sim, options);
  ASSERT_TRUE(graph.ok());
  size_t same = 0, cross = 0;
  for (size_t i = 0; i < graph->num_nodes(); ++i) {
    const bool cluster_a = graph->nodes[i] <= 20;
    for (const auto& [j, w] : graph->adjacency[i]) {
      const bool other_a = graph->nodes[j] <= 20;
      (cluster_a == other_a ? same : cross)++;
    }
  }
  EXPECT_GT(same, cross * 5);
}

TEST_F(KnnGraphTest, MissingEntityFails) {
  FeatureSimilarity sim(&schema_, {0});
  std::vector<EntityId> bad = nodes_;
  bad.push_back(9999);
  EXPECT_EQ(BuildKnnGraph(bad, store_, sim, KnnGraphOptions{})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(KnnGraphTest, EmptyNodeListOk) {
  FeatureSimilarity sim(&schema_, {0});
  auto graph = BuildKnnGraph({}, store_, sim, KnnGraphOptions{});
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 0u);
}

// Pins the graph built over a seeded 2k-node store to a golden hash, at 1
// and 4 threads. The store has every cell kind the kernel branches on
// (missing cells, a numeric value in a categorical column, empty sets,
// zero and short embeddings), and few categorical values per node, so
// many candidates tie on their shared count and max_candidates = 16 cuts
// through the ties. The value was recorded with the per-pair
// FeatureVector kernel that preceded the compiled layout.
TEST(KnnGraphGoldenTest, SeededStoreHashIsPinned) {
  FeatureSchema schema;
  const auto add = [&](const char* name, FeatureType type, int32_t card) {
    FeatureDef def;
    def.name = name;
    def.type = type;
    def.cardinality = card;
    CM_CHECK(schema.Add(def).ok());
  };
  add("topic", FeatureType::kCategorical, 30);
  add("tags", FeatureType::kCategorical, 60);
  add("coarse", FeatureType::kCategorical, 4);
  add("score", FeatureType::kNumeric, 0);
  add("emb", FeatureType::kEmbedding, 4);
  FeatureStore store(&schema);
  std::vector<EntityId> nodes;
  Rng rng(0x601DE2);
  for (EntityId id = 100; id < 2100; ++id) {
    FeatureVector row(5);
    if (!rng.Bernoulli(0.05)) {
      row.Set(0, FeatureValue::Categorical(
                     {static_cast<int32_t>(rng.UniformInt(uint64_t{30}))}));
    }
    std::vector<int32_t> tags;
    const uint64_t num_tags = rng.UniformInt(uint64_t{4});
    for (uint64_t t = 0; t < num_tags; ++t) {
      tags.push_back(static_cast<int32_t>(rng.UniformInt(uint64_t{60})));
    }
    row.Set(1, FeatureValue::Categorical(std::move(tags)));
    if (rng.Bernoulli(0.1)) {
      row.Set(2, FeatureValue::Numeric(1.0));  // type mismatch
    } else if (!rng.Bernoulli(0.2)) {
      row.Set(2, FeatureValue::Categorical(
                     {static_cast<int32_t>(rng.UniformInt(uint64_t{4}))}));
    }
    if (!rng.Bernoulli(0.1)) {
      row.Set(3, FeatureValue::Numeric(rng.Normal(3.0, 2.0)));
    }
    const double kind = rng.Uniform();
    if (kind < 0.05) {
      row.Set(4, FeatureValue::Embedding({0.0f, 0.0f, 0.0f, 0.0f}));
    } else if (kind < 0.1) {
      row.Set(4, FeatureValue::Embedding({1.0f, 0.5f, 0.25f}));  // short
    } else if (kind < 0.9) {
      std::vector<float> emb(4);
      for (float& x : emb) x = static_cast<float>(rng.Normal());
      row.Set(4, FeatureValue::Embedding(std::move(emb)));
    }
    store.Put(id, std::move(row));
    nodes.push_back(id);
  }
  FeatureSimilarity sim(&schema, {0, 1, 2, 3, 4});
  std::vector<const FeatureVector*> rows;
  for (EntityId id : nodes) rows.push_back(*store.Get(id));
  sim.FitNormalization(rows);
  KnnGraphOptions options;
  options.max_candidates = 16;
  for (size_t threads : {1, 4}) {
    options.parallel.num_threads = threads;
    auto graph = BuildKnnGraph(nodes, store, sim, options);
    ASSERT_TRUE(graph.ok()) << graph.status();
    EXPECT_EQ(DeterminismHarness::HashGraph(*graph), 0xDB455F6455386708ULL)
        << "threads=" << threads;
  }
}

// ---------- Label propagation -----------------------------------------------

/// A hand-built path graph: 0 -- 1 -- 2 -- 3 -- 4.
SimilarityGraph PathGraph() {
  SimilarityGraph g;
  g.nodes = {10, 11, 12, 13, 14};
  g.adjacency.resize(5);
  auto connect = [&](uint32_t a, uint32_t b, float w) {
    g.adjacency[a].emplace_back(b, w);
    g.adjacency[b].emplace_back(a, w);
  };
  connect(0, 1, 1.0f);
  connect(1, 2, 1.0f);
  connect(2, 3, 1.0f);
  connect(3, 4, 1.0f);
  return g;
}

TEST(LabelPropagationTest, InterpolatesAlongPath) {
  const SimilarityGraph g = PathGraph();
  PropagationOptions options;
  options.alpha = 1.0;
  options.max_iterations = 500;
  options.tolerance = 1e-9;
  auto result = PropagateLabels(g, {{10, 1.0}, {14, 0.0}}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  // Harmonic solution on a path: linear interpolation.
  EXPECT_NEAR(result->scores.at(11), 0.75, 1e-3);
  EXPECT_NEAR(result->scores.at(12), 0.50, 1e-3);
  EXPECT_NEAR(result->scores.at(13), 0.25, 1e-3);
  // Seeds stay clamped.
  EXPECT_DOUBLE_EQ(result->scores.at(10), 1.0);
  EXPECT_DOUBLE_EQ(result->scores.at(14), 0.0);
}

TEST(LabelPropagationTest, ScoresBounded) {
  const SimilarityGraph g = PathGraph();
  PropagationOptions options;
  options.alpha = 0.9;
  options.prior = 0.2;
  auto result = PropagateLabels(g, {{10, 1.0}}, options);
  ASSERT_TRUE(result.ok());
  for (const auto& [id, s] : result->scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(LabelPropagationTest, IsolatedNodeKeepsPrior) {
  SimilarityGraph g;
  g.nodes = {1, 2};
  g.adjacency.resize(2);  // no edges
  PropagationOptions options;
  options.prior = 0.3;
  auto result = PropagateLabels(g, {{1, 1.0}}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->scores.at(1), 1.0);
  EXPECT_NEAR(result->scores.at(2), 0.3, 1e-9);
}

TEST(LabelPropagationTest, FailsWithoutSeeds) {
  const SimilarityGraph g = PathGraph();
  EXPECT_EQ(PropagateLabels(g, {{999, 1.0}}).status().code(),
            StatusCode::kFailedPrecondition);
  SimilarityGraph empty;
  EXPECT_EQ(PropagateLabels(empty, {{1, 1.0}}).status().code(),
            StatusCode::kInvalidArgument);
}


// ---------- Threshold tuning ------------------------------------------------

TEST(ThresholdTuningTest, FindsSeparatingThresholds) {
  // Scores cleanly separate classes.
  std::vector<std::pair<double, int>> holdout;
  for (int i = 0; i < 50; ++i) holdout.emplace_back(0.8 + i * 0.001, 1);
  for (int i = 0; i < 200; ++i) holdout.emplace_back(0.1 + i * 0.001, 0);
  const auto t = TuneScoreThresholds(holdout, 0.9, 0.95);
  EXPECT_LE(t.positive, 0.81);
  EXPECT_GT(t.positive, 0.31);
  EXPECT_GE(t.negative, 0.1);
  EXPECT_LT(t.negative, 0.8);
  // Applying thresholds reaches the precision targets.
  size_t tp = 0, fp = 0;
  for (const auto& [s, y] : holdout) {
    if (s >= t.positive) (y == 1 ? tp : fp)++;
  }
  EXPECT_GE(static_cast<double>(tp) / (tp + fp), 0.9);
}

TEST(ThresholdTuningTest, AbstainsWhenUnreachable) {
  // All labels negative: no positive threshold can reach precision 0.9.
  std::vector<std::pair<double, int>> holdout;
  for (int i = 0; i < 100; ++i) holdout.emplace_back(i * 0.01, 0);
  const auto t = TuneScoreThresholds(holdout, 0.9, 0.9);
  EXPECT_TRUE(std::isinf(t.positive));
  EXPECT_LE(t.negative, 1.0);  // negative side achievable
}

TEST(ThresholdTuningTest, EmptyHoldout) {
  const auto t = TuneScoreThresholds(
      std::vector<std::pair<double, int>>{}, 0.9, 0.9);
  EXPECT_TRUE(std::isinf(t.positive));
  EXPECT_TRUE(std::isinf(t.negative));
}

TEST(ThresholdTuningTest, BandsDisjoint) {
  std::vector<std::pair<double, int>> holdout;
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const int y = rng.Bernoulli(0.5) ? 1 : 0;
    holdout.emplace_back(rng.Uniform(), y);  // scores uninformative
  }
  const auto t = TuneScoreThresholds(holdout, 0.55, 0.55);
  EXPECT_LT(t.negative, t.positive);
}


TEST(ThresholdTuningTest, WeightsRestoreNaturalMix) {
  // Stratified holdout: 50 positives, 50 negatives — but the natural mix is
  // 1:99. Positive scores are only mildly enriched, so under the natural
  // mix precision 0.5 is unreachable, while the unweighted (balanced) view
  // reaches it easily.
  std::vector<WeightedScore> weighted;
  std::vector<std::pair<double, int>> unweighted;
  Rng rng(31);
  for (int i = 0; i < 50; ++i) {
    const double pos_score = rng.Uniform(0.4, 1.0);
    const double neg_score = rng.Uniform(0.0, 0.9);
    weighted.push_back(WeightedScore{pos_score, 1, 1.0});
    weighted.push_back(WeightedScore{neg_score, 0, 99.0});
    unweighted.emplace_back(pos_score, 1);
    unweighted.emplace_back(neg_score, 0);
  }
  const auto balanced = TuneScoreThresholds(unweighted, 0.5, 0.5);
  const auto corrected = TuneScoreThresholds(weighted, 0.5, 0.5);
  EXPECT_LT(balanced.positive, 1.0);  // reachable in the balanced view
  // With 99x negative weight the same precision needs a (much) higher
  // threshold — or none at all.
  EXPECT_GT(corrected.positive, balanced.positive);
}

}  // namespace
}  // namespace crossmodal
