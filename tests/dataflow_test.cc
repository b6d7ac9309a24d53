#include <gtest/gtest.h>

#include "dataflow/feature_generation.h"
#include "dataflow/mapreduce.h"
#include "synth/corpus_generator.h"

namespace crossmodal {
namespace {

TEST(MapReduceTest, ParallelMapPreservesOrder) {
  MapReduceExecutor executor(4);
  std::vector<int> inputs(500);
  for (int i = 0; i < 500; ++i) inputs[i] = i;
  std::function<int(const int&)> fn = [](const int& x) { return x * x; };
  const auto out = executor.ParallelMap(inputs, fn);
  ASSERT_EQ(out.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
}

TEST(FeatureGenerationTest, MaterializesAllEntities) {
  WorldConfig world;
  CorpusGenerator gen(world, TaskSpec::CT(1).Scaled(0.03));
  const Corpus corpus = gen.Generate();
  auto registry = BuildModerationRegistry(gen, 11);
  ASSERT_TRUE(registry.ok());
  FeatureStore store(&registry->schema());
  GenerateFeatures(corpus.text_labeled, *registry, &store);
  GenerateFeatures(corpus.image_unlabeled, *registry, &store);
  EXPECT_EQ(store.size(),
            corpus.text_labeled.size() + corpus.image_unlabeled.size());
  for (const Entity& e : corpus.text_labeled) {
    EXPECT_TRUE(store.Contains(e.id));
  }
}

TEST(FeatureGenerationTest, DeterministicAcrossExecutors) {
  WorldConfig world;
  CorpusGenerator gen(world, TaskSpec::CT(1).Scaled(0.02));
  const Corpus corpus = gen.Generate();
  auto registry = BuildModerationRegistry(gen, 11);
  ASSERT_TRUE(registry.ok());
  FeatureStore store1(&registry->schema());
  FeatureStore store2(&registry->schema());
  MapReduceExecutor one_thread(1);
  MapReduceExecutor many_threads(8);
  GenerateFeatures(corpus.image_unlabeled, *registry, &one_thread, &store1);
  GenerateFeatures(corpus.image_unlabeled, *registry, &many_threads, &store2);
  for (const Entity& e : corpus.image_unlabeled) {
    auto r1 = store1.Get(e.id);
    auto r2 = store2.Get(e.id);
    ASSERT_TRUE(r1.ok() && r2.ok());
    ASSERT_EQ((*r1)->size(), (*r2)->size());
    for (size_t f = 0; f < (*r1)->size(); ++f) {
      EXPECT_EQ((*r1)->Get(static_cast<FeatureId>(f)),
                (*r2)->Get(static_cast<FeatureId>(f)));
    }
  }
}

}  // namespace
}  // namespace crossmodal
