// GPT-2-family decoder stacks: the Megatron-LM configurations of Table IV
// and Turing-NLG. Each transformer block is decomposed into the layers
// Megatron itself executes, so per-layer FLOPs and activation footprints
// track the real workload: LN -> QKV projection -> attention core ->
// softmax -> output projection -> residual add -> LN -> MLP(4H) -> GeLU ->
// MLP(H) -> residual add.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "src/graph/model_zoo.h"

namespace karma::graph {

TransformerConfig megatron_config(int index) {
  // Table IV rows: H, A, L, parameter count.
  switch (index) {
    case 0: return {.hidden = 1152, .heads = 12, .layers = 18};   // 0.7B
    case 1: return {.hidden = 1536, .heads = 16, .layers = 40};   // 1.2B
    case 2: return {.hidden = 1920, .heads = 20, .layers = 54};   // 2.5B
    case 3: return {.hidden = 2304, .heads = 24, .layers = 64};   // 4.2B
    case 4: return {.hidden = 3072, .heads = 32, .layers = 72};   // 8.3B
    default:
      throw std::out_of_range("megatron_config: index must be 0..4");
  }
}

TransformerConfig turing_nlg_config() {
  return {.hidden = 4256, .heads = 28, .layers = 78};  // 17B
}

namespace {

struct TfCursor {
  Model* model;
  std::int64_t n, s, h;
  int last = -1;

  TensorShape shape(std::int64_t hidden) const {
    return TensorShape::nsh(n, s, hidden);
  }

  int fc(std::int64_t out_h, const std::string& name) {
    Layer l;
    l.name = name;
    l.kind = LayerKind::kFullyConnected;
    l.in_shape = shape(h);
    l.weight_elems = h * out_h + out_h;
    h = out_h;
    l.out_shape = shape(h);
    return last = model->add_layer(std::move(l));
  }

  int simple(LayerKind kind, const std::string& name,
             std::int64_t weight_elems = 0) {
    Layer l;
    l.name = name;
    l.kind = kind;
    l.in_shape = l.out_shape = shape(h);
    l.weight_elems = weight_elems;
    return last = model->add_layer(std::move(l));
  }
};

/// Shared builder: `chain` omits the residual skip edges (the kAdd layers
/// stay, so layer count and per-layer costs are identical), producing a
/// linear-chain twin whose every block boundary is a clean cut.
Model build_transformer(const TransformerConfig& cfg, std::int64_t batch,
                        bool chain) {
  if (cfg.hidden <= 0 || cfg.heads <= 0 || cfg.layers <= 0)
    throw std::invalid_argument("make_transformer: bad config");
  if (cfg.hidden % cfg.heads != 0)
    throw std::invalid_argument("make_transformer: hidden % heads != 0");

  // Whole billions from 1B up (those names are part of cache keys and
  // stay fixed); one decimal below, where the integer would read 0.
  const std::int64_t params = cfg.approx_params();
  char size[32];
  if (params >= 1000000000)
    std::snprintf(size, sizeof size, "%lld",
                  static_cast<long long>(params / 1000000000));
  else
    std::snprintf(size, sizeof size, "%.1f", static_cast<double>(params) / 1e9);
  Model model("GPT2-" + std::to_string(cfg.hidden) + "h" +
                  std::to_string(cfg.layers) + "L (~" + size + "B)" +
                  (chain ? " chain" : ""),
              cfg.dtype_bytes);
  TfCursor t{&model, batch, cfg.seq_len, cfg.hidden};

  Layer input;
  input.name = "input_ids";
  input.kind = LayerKind::kInput;
  input.in_shape = input.out_shape = TensorShape::nsh(batch, cfg.seq_len, 1);
  t.last = model.add_layer(std::move(input));

  // Token + position embeddings.
  {
    Layer emb;
    emb.name = "embedding";
    emb.kind = LayerKind::kEmbedding;
    emb.vocab = cfg.vocab;
    emb.in_shape = TensorShape::nsh(batch, cfg.seq_len, 1);
    emb.out_shape = t.shape(cfg.hidden);
    emb.weight_elems = (cfg.vocab + cfg.seq_len) * cfg.hidden;
    t.last = model.add_layer(std::move(emb));
  }

  const std::int64_t head_dim = cfg.hidden / cfg.heads;
  for (std::int64_t i = 0; i < cfg.layers; ++i) {
    const std::string p = "block" + std::to_string(i + 1);
    const int block_entry = t.last;

    t.simple(LayerKind::kLayerNorm, p + ".ln1", 2 * cfg.hidden);
    t.fc(3 * cfg.hidden, p + ".attn.qkv");
    {
      Layer attn;
      attn.name = p + ".attn.core";
      attn.kind = LayerKind::kSelfAttention;
      attn.heads = cfg.heads;
      attn.head_dim = head_dim;
      attn.in_shape = TensorShape::nsh(batch, cfg.seq_len, cfg.hidden);
      attn.out_shape = attn.in_shape;
      t.h = cfg.hidden;
      t.last = model.add_layer(std::move(attn));
    }
    t.simple(LayerKind::kSoftmax, p + ".attn.softmax");
    t.fc(cfg.hidden, p + ".attn.proj");
    t.simple(LayerKind::kDropout, p + ".attn.dropout");
    {
      const int add = t.simple(LayerKind::kAdd, p + ".attn.residual");
      if (!chain) model.add_edge(block_entry, add);
    }
    const int mid_entry = t.last;
    t.simple(LayerKind::kLayerNorm, p + ".ln2", 2 * cfg.hidden);
    t.fc(4 * cfg.hidden, p + ".mlp.fc1");
    t.simple(LayerKind::kGeLU, p + ".mlp.gelu");
    t.fc(cfg.hidden, p + ".mlp.fc2");
    t.simple(LayerKind::kDropout, p + ".mlp.dropout");
    {
      const int add = t.simple(LayerKind::kAdd, p + ".mlp.residual");
      if (!chain) model.add_edge(mid_entry, add);
    }
  }

  t.simple(LayerKind::kLayerNorm, "final.ln", 2 * cfg.hidden);
  // LM head shares the embedding matrix (weight tying): count the compute
  // but not a second copy of the weights.
  {
    Layer head;
    head.name = "final.lm_head";
    head.kind = LayerKind::kFullyConnected;
    head.in_shape = t.shape(cfg.hidden);
    head.out_shape = TensorShape::nsh(batch, cfg.seq_len, cfg.vocab);
    head.weight_elems = 0;  // tied with embedding
    t.last = model.add_layer(std::move(head));
  }
  {
    Layer sm;
    sm.name = "final.softmax";
    sm.kind = LayerKind::kSoftmax;
    sm.in_shape = sm.out_shape = TensorShape::nsh(batch, cfg.seq_len, cfg.vocab);
    model.add_layer(std::move(sm));
  }

  model.validate();
  return model;
}

}  // namespace

Model make_transformer(const TransformerConfig& cfg, std::int64_t batch) {
  return build_transformer(cfg, batch, /*chain=*/false);
}

Model make_transformer_chain(const TransformerConfig& cfg,
                             std::int64_t batch) {
  return build_transformer(cfg, batch, /*chain=*/true);
}

}  // namespace karma::graph
