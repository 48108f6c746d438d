// The zoo must reproduce Table III's structural facts: parameter counts,
// depths, skip topology, and the Table IV / Turing-NLG configurations.
#include "src/graph/model_zoo.h"

#include <gtest/gtest.h>

#include "src/graph/memory_model.h"

namespace karma::graph {
namespace {

std::int64_t conv_fc_layers(const Model& m) {
  std::int64_t n = 0;
  for (const auto& l : m.layers())
    if (l.kind == LayerKind::kConv2d || l.kind == LayerKind::kFullyConnected)
      ++n;
  return n;
}

TEST(Zoo, Resnet50MatchesTable3) {
  const Model m = make_resnet50(1);
  EXPECT_GT(m.total_weight_elems(), 25'000'000);   // "> 25M"
  EXPECT_LT(m.total_weight_elems(), 30'000'000);
  // 53 convs + 1 FC weighted layers (50 "named" + downsamples).
  EXPECT_GE(conv_fc_layers(m), 50);
  EXPECT_FALSE(m.is_linear_chain());
}

TEST(Zoo, Resnet200MatchesTable3) {
  const Model m = make_resnet200(1);
  EXPECT_GT(m.total_weight_elems(), 60'000'000);   // "> 64M" ballpark
  EXPECT_GE(conv_fc_layers(m), 200);
}

TEST(Zoo, Vgg16MatchesTable3) {
  const Model m = make_vgg16(1);
  EXPECT_GT(m.total_weight_elems(), 130'000'000);  // "> 169M" w/ FC dominating
  EXPECT_EQ(conv_fc_layers(m), 16);                // the "16" in VGG16
  EXPECT_TRUE(m.is_linear_chain());                // no skips
}

TEST(Zoo, Wrn2810MatchesTable3) {
  const Model m = make_wrn28_10(1);
  EXPECT_GT(m.total_weight_elems(), 36'000'000);   // "> 36M"
  EXPECT_LT(m.total_weight_elems(), 40'000'000);
  EXPECT_GE(conv_fc_layers(m), 28);
}

TEST(Zoo, Resnet1001MatchesTable3) {
  const Model m = make_resnet1001(1);
  EXPECT_GT(m.total_weight_elems(), 10'000'000);   // "> 10M"
  EXPECT_LT(m.total_weight_elems(), 20'000'000);
  EXPECT_GE(conv_fc_layers(m), 1000);              // the 1001 depth
}

TEST(Zoo, UnetMatchesTable3) {
  const Model m = make_unet(1);
  EXPECT_GT(m.total_weight_elems(), 31'000'000);   // "> 31M"
  EXPECT_LT(m.total_weight_elems(), 40'000'000);
  EXPECT_FALSE(m.is_linear_chain());
  // Contracting->expansive skips span many layers (Sec. III-F.4).
  EXPECT_GT(m.max_skip_span(), 10);
}

TEST(Zoo, UnetSkipsLandOnConcats) {
  const Model m = make_unet(1);
  int skip_concats = 0;
  for (const auto& l : m.layers())
    if (l.kind == LayerKind::kConcat && m.preds(l.id).size() == 2) ++skip_concats;
  EXPECT_EQ(skip_concats, 4);  // one per resolution level
}

TEST(Zoo, MegatronConfigsMatchTable4) {
  // Table IV: (H, A, L, P).
  const struct {
    int idx;
    std::int64_t h, a, l;
    double params_b;
  } rows[] = {{0, 1152, 12, 18, 0.7},  {1, 1536, 16, 40, 1.2},
              {2, 1920, 20, 54, 2.5},  {3, 2304, 24, 64, 4.2},
              {4, 3072, 32, 72, 8.3}};
  for (const auto& r : rows) {
    const TransformerConfig cfg = megatron_config(r.idx);
    EXPECT_EQ(cfg.hidden, r.h);
    EXPECT_EQ(cfg.heads, r.a);
    EXPECT_EQ(cfg.layers, r.l);
    const double params_b = static_cast<double>(cfg.approx_params()) / 1e9;
    EXPECT_NEAR(params_b, r.params_b, 0.35 * r.params_b + 0.15)
        << "config " << r.idx;
  }
  EXPECT_THROW(megatron_config(5), std::out_of_range);
  EXPECT_THROW(megatron_config(-1), std::out_of_range);
}

TEST(Zoo, TuringNlgConfig) {
  const TransformerConfig cfg = turing_nlg_config();
  EXPECT_EQ(cfg.hidden, 4256);
  EXPECT_EQ(cfg.heads, 28);
  EXPECT_EQ(cfg.layers, 78);
  EXPECT_NEAR(static_cast<double>(cfg.approx_params()) / 1e9, 17.0, 1.5);
}

TEST(Zoo, TransformerStructure) {
  TransformerConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 4;
  cfg.layers = 3;
  cfg.seq_len = 16;
  cfg.vocab = 100;
  const Model m = make_transformer(cfg, 2);
  m.validate();
  // Residual adds: two per block, with two preds each.
  int residuals = 0;
  for (const auto& l : m.layers())
    if (l.kind == LayerKind::kAdd && m.preds(l.id).size() == 2) ++residuals;
  EXPECT_EQ(residuals, 2 * cfg.layers);
  // fp16 by default.
  EXPECT_EQ(m.dtype_bytes(), 2);
  // Attention cores: one per block.
  int attn = 0;
  for (const auto& l : m.layers())
    if (l.kind == LayerKind::kSelfAttention) ++attn;
  EXPECT_EQ(attn, cfg.layers);
}

TEST(Zoo, TransformerNamesCarryTheParameterCount) {
  // Below 1B the size keeps one decimal; from 1B up the names (which feed
  // cache keys) stay in whole billions.
  EXPECT_EQ(make_transformer_chain(megatron_config(0), 1).name(),
            "GPT2-1152h18L (~0.3B) chain");
  EXPECT_EQ(make_transformer(megatron_config(1), 1).name(),
            "GPT2-1536h40L (~1B)");
  EXPECT_EQ(make_transformer(megatron_config(4), 1).name(),
            "GPT2-3072h72L (~8B)");
}

TEST(Zoo, TransformerChainIsLinearWithSameLayers) {
  TransformerConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 4;
  cfg.layers = 3;
  cfg.seq_len = 16;
  cfg.vocab = 100;
  const Model full = make_transformer(cfg, 2);
  const Model chain = make_transformer_chain(cfg, 2);
  chain.validate();
  // Residual edges are the ONLY difference: same depth, and layer-for-
  // layer identical kinds, shapes, and weights (so per-layer FLOPs and
  // activation footprints match the residual twin exactly).
  EXPECT_FALSE(full.is_linear_chain());
  EXPECT_TRUE(chain.is_linear_chain());
  ASSERT_EQ(chain.num_layers(), full.num_layers());
  for (std::size_t i = 0; i < full.num_layers(); ++i) {
    const Layer& a = full.layer(static_cast<int>(i));
    const Layer& b = chain.layer(static_cast<int>(i));
    EXPECT_EQ(a.kind, b.kind) << "layer " << i;
    EXPECT_EQ(a.weight_elems, b.weight_elems) << "layer " << i;
    EXPECT_EQ(a.out_shape.numel(), b.out_shape.numel()) << "layer " << i;
  }
  for (const auto& l : chain.layers())
    EXPECT_LE(chain.preds(l.id).size(), 1u) << l.name;
}

TEST(Zoo, TransformerChainAttentionFootprintIsQuadraticInSeqLen) {
  TransformerConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 4;
  cfg.layers = 1;
  cfg.vocab = 100;
  const auto attn_bytes = [&](std::int64_t seq) {
    cfg.seq_len = seq;
    const Model m = make_transformer_chain(cfg, 2);
    for (const auto& l : m.layers())
      if (l.kind == LayerKind::kSelfAttention)
        return layer_memory(l, m.dtype_bytes()).workspace;
    ADD_FAILURE() << "no attention core";
    return Bytes{0};
  };
  // Doubling the context exactly quadruples the attention core's scratch
  // (the materialized batch*heads*S*S score matrix); the linear
  // activation terms ride in the other LayerMemory fields.
  const Bytes at16 = attn_bytes(16), at32 = attn_bytes(32);
  EXPECT_EQ(at32, 4 * at16);
  EXPECT_GT(at16, 0);
}

TEST(Zoo, TransformerRejectsBadConfigs) {
  TransformerConfig bad;
  bad.hidden = 65;  // not divisible by heads
  bad.heads = 4;
  bad.layers = 1;
  EXPECT_THROW(make_transformer(bad, 1), std::invalid_argument);
  bad.hidden = 0;
  EXPECT_THROW(make_transformer(bad, 1), std::invalid_argument);
}

TEST(Zoo, AllCnnsValidateAtMultipleBatches) {
  for (std::int64_t batch : {1, 4}) {
    make_resnet50(batch).validate();
    make_resnet200(batch).validate();
    make_vgg16(batch).validate();
    make_wrn28_10(batch).validate();
    make_unet(batch).validate();
  }
}

TEST(Zoo, MegatronWeightsExceedSingleV100) {
  // The premise of Table IV: these models cannot train on a 16 GiB card —
  // weights + gradients alone overflow it.
  const TransformerConfig cfg = megatron_config(4);  // 8.3B
  const Bytes weight_bytes = cfg.approx_params() * cfg.dtype_bytes;
  EXPECT_GT(2 * weight_bytes, Bytes{16} * 1024 * 1024 * 1024);
}

}  // namespace
}  // namespace karma::graph
