// Dataset extensibility (paper claim (iii)): the catalog-based embedding
// tensor and dataset generation paths, and their consistency with the
// zoo-based originals.

#include <gtest/gtest.h>

#include "core/dataset.hpp"
#include "core/embedding.hpp"
#include "models/net_builder.hpp"
#include "models/zoo.hpp"
#include "sim/des.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

using namespace omniboost;
using models::ModelId;
using models::ModelZoo;

const ModelZoo& zoo() {
  static const ModelZoo z;
  return z;
}

const device::DeviceSpec& hikey() {
  static const device::DeviceSpec d = device::make_hikey970();
  return d;
}

const device::CostModel& cost() {
  static const device::CostModel c(hikey());
  return c;
}

sim::NetworkList zoo_list() {
  sim::NetworkList nets;
  for (const models::NetworkDesc& n : zoo().networks()) nets.push_back(&n);
  return nets;
}

models::NetworkDesc make_custom() {
  models::NetBuilder b("Custom", {3, 224, 224});
  b.conv(16, 3, 2, 1, "stem");
  b.conv(32, 3, 1, 1, "conv2");
  b.maxpool(2, 2, 0, "pool");
  b.conv(64, 3, 1, 1, "conv3");
  b.global_avgpool("gap");
  b.fc(10, true, "head");
  return std::move(b).build();
}

// --- Embedding catalog path --------------------------------------------------

TEST(ExtendedEmbedding, ZooCatalogMatchesZooConstructor) {
  const core::EmbeddingTensor from_zoo(zoo(), cost());
  const core::EmbeddingTensor from_list(zoo_list(), cost());
  EXPECT_EQ(from_zoo.models_dim(), from_list.models_dim());
  EXPECT_EQ(from_zoo.layers_dim(), from_list.layers_dim());
  EXPECT_EQ(from_zoo.tensor(), from_list.tensor());
  EXPECT_DOUBLE_EQ(from_zoo.max_layer_time_s(), from_list.max_layer_time_s());
}

TEST(ExtendedEmbedding, IndexMaskMatchesWorkloadMask) {
  const core::EmbeddingTensor emb(zoo(), cost());
  const workload::Workload w{{ModelId::kVgg19, ModelId::kAlexNet}};
  util::Rng rng(3);
  const sim::Mapping m = workload::random_mapping(rng, zoo(), w, 3);

  const std::vector<std::size_t> indices = {
      models::model_index(ModelId::kVgg19),
      models::model_index(ModelId::kAlexNet)};
  EXPECT_EQ(emb.masked_input(w, m), emb.masked_input(indices, m));
}

TEST(ExtendedEmbedding, GrowsByOneColumnPerAddedModel) {
  const models::NetworkDesc custom = make_custom();
  sim::NetworkList catalog = zoo_list();
  catalog.push_back(&custom);

  const core::EmbeddingTensor emb(catalog, cost());
  EXPECT_EQ(emb.models_dim(), models::kNumModels + 1);
  // Layer capacity unchanged: the custom net is shorter than the longest
  // dataset model.
  EXPECT_EQ(emb.layers_dim(), zoo().max_layers());

  // The new column is profiled (non-zero) exactly over the custom net's
  // layers, on every component slice.
  const auto& u = emb.tensor();
  const std::size_t md = emb.models_dim();
  const std::size_t ld = emb.layers_dim();
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t l = 0; l < ld; ++l) {
      const float cell = u[c * md * ld + models::kNumModels * ld + l];
      if (l < custom.num_layers()) {
        EXPECT_GT(cell, 0.0f) << "c=" << c << " l=" << l;
      } else {
        EXPECT_EQ(cell, 0.0f) << "c=" << c << " l=" << l;
      }
    }
  }
}

TEST(ExtendedEmbedding, LongCustomNetExtendsLayerCapacity) {
  models::NetBuilder b("Deep", {3, 224, 224});
  b.conv(8, 3, 2, 1, "stem");
  for (int i = 0; i < 45; ++i)
    b.conv(8, 3, 1, 1, "conv" + std::to_string(i));
  b.global_avgpool("gap");
  b.fc(10, true, "head");
  const models::NetworkDesc deep = std::move(b).build();
  ASSERT_GT(deep.num_layers(), zoo().max_layers());

  sim::NetworkList catalog = zoo_list();
  catalog.push_back(&deep);
  const core::EmbeddingTensor emb(catalog, cost());
  EXPECT_EQ(emb.layers_dim(), deep.num_layers());
}

TEST(ExtendedEmbedding, RejectsBadCatalogs) {
  EXPECT_THROW(core::EmbeddingTensor(sim::NetworkList{}, cost()),
               std::invalid_argument);
  sim::NetworkList with_null = zoo_list();
  with_null.push_back(nullptr);
  EXPECT_THROW(core::EmbeddingTensor(with_null, cost()),
               std::invalid_argument);
}

TEST(ExtendedEmbedding, RejectsDuplicateAndOutOfRangeIndices) {
  const core::EmbeddingTensor emb(zoo(), cost());
  const std::size_t alex_layers = zoo().network(ModelId::kAlexNet).num_layers();
  const sim::Mapping m =
      sim::Mapping::all_on({alex_layers, alex_layers}, sim::ComponentId::kGpu);
  EXPECT_THROW(emb.masked_input(std::vector<std::size_t>{0, 0}, m),
               std::invalid_argument);
  EXPECT_THROW(emb.masked_input(std::vector<std::size_t>{0, 99}, m),
               std::invalid_argument);
}

// --- Catalog dataset generation ------------------------------------------------

TEST(ExtendedDataset, GeneratesRequestedSamples) {
  const models::NetworkDesc custom = make_custom();
  sim::NetworkList catalog = zoo_list();
  catalog.push_back(&custom);
  const core::EmbeddingTensor emb(catalog, cost());
  const sim::DesSimulator board(hikey());

  core::DatasetConfig dc;
  dc.samples = 40;
  dc.seed = 9;
  const core::SampleSet data = core::generate_dataset(catalog, emb, board, dc);
  ASSERT_EQ(data.size(), 40u);
  for (std::size_t s = 0; s < data.size(); ++s) {
    EXPECT_EQ(data.inputs[s].shape(),
              (tensor::Shape{3, emb.models_dim(), emb.layers_dim()}));
    for (const double t : data.targets[s]) {
      EXPECT_GE(t, 0.0);
      EXPECT_TRUE(std::isfinite(t));
    }
  }
}

TEST(ExtendedDataset, RejectsMismatchedEmbedding) {
  // Embedding built from the plain zoo cannot serve an extended catalog.
  const models::NetworkDesc custom = make_custom();
  sim::NetworkList catalog = zoo_list();
  catalog.push_back(&custom);
  const core::EmbeddingTensor zoo_emb(zoo(), cost());
  const sim::DesSimulator board(hikey());
  core::DatasetConfig dc;
  dc.samples = 5;
  EXPECT_THROW(core::generate_dataset(catalog, zoo_emb, board, dc),
               std::invalid_argument);
}

TEST(ExtendedDataset, MixSizeClampedToCatalog) {
  // A 2-model catalog with the largest mix size of 5 must still work.
  const models::NetworkDesc custom = make_custom();
  sim::NetworkList tiny;
  tiny.push_back(&zoo().network(ModelId::kAlexNet));
  tiny.push_back(&custom);
  const core::EmbeddingTensor emb(tiny, cost());
  const sim::DesSimulator board(hikey());
  core::DatasetConfig dc;
  dc.samples = 10;
  const core::SampleSet data = core::generate_dataset(tiny, emb, board, dc);
  EXPECT_EQ(data.size(), 10u);
}

TEST(ExtendedDataset, DeterministicUnderSeed) {
  const models::NetworkDesc custom = make_custom();
  sim::NetworkList catalog = zoo_list();
  catalog.push_back(&custom);
  const core::EmbeddingTensor emb(catalog, cost());
  const sim::DesSimulator board(hikey());
  core::DatasetConfig dc;
  dc.samples = 8;
  dc.seed = 77;
  const core::SampleSet a = core::generate_dataset(catalog, emb, board, dc);
  const core::SampleSet b = core::generate_dataset(catalog, emb, board, dc);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a.inputs[s], b.inputs[s]);
    EXPECT_EQ(a.targets[s], b.targets[s]);
  }
}

}  // namespace
