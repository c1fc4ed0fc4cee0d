#include "core/encoder.h"

#include <algorithm>

#include "common/check.h"
#include "nn/ops.h"
#include "nn/stacked.h"

namespace adamove::core {

std::string EncoderTypeName(EncoderType type) {
  switch (type) {
    case EncoderType::kRnn: return "RNN";
    case EncoderType::kLstm: return "LSTM";
    case EncoderType::kGru: return "GRU";
    case EncoderType::kTransformer: return "Transformer";
  }
  return "?";
}

namespace {

std::unique_ptr<nn::SequenceEncoder> MakeRecurrentLayer(
    EncoderType type, int64_t input_size, int64_t hidden_size,
    common::Rng& rng) {
  switch (type) {
    case EncoderType::kRnn:
      return std::make_unique<nn::RnnEncoder>(input_size, hidden_size, rng);
    case EncoderType::kLstm:
      return std::make_unique<nn::LstmEncoder>(input_size, hidden_size, rng);
    case EncoderType::kGru:
      return std::make_unique<nn::GruEncoder>(input_size, hidden_size, rng);
    case EncoderType::kTransformer:
      break;
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<nn::SequenceEncoder> MakeSequenceEncoder(
    const ModelConfig& config, int64_t input_size, common::Rng& rng) {
  if (config.encoder == EncoderType::kTransformer) {
    return std::make_unique<nn::TransformerSeqEncoder>(
        input_size, config.hidden_size, config.transformer_layers,
        config.transformer_heads, config.dropout, rng);
  }
  ADAMOVE_CHECK_GE(config.rnn_layers, 1);
  if (config.rnn_layers == 1) {
    return MakeRecurrentLayer(config.encoder, input_size,
                              config.hidden_size, rng);
  }
  std::vector<std::unique_ptr<nn::SequenceEncoder>> layers;
  layers.push_back(MakeRecurrentLayer(config.encoder, input_size,
                                      config.hidden_size, rng));
  for (int64_t i = 1; i < config.rnn_layers; ++i) {
    layers.push_back(MakeRecurrentLayer(config.encoder, config.hidden_size,
                                        config.hidden_size, rng));
  }
  return std::make_unique<nn::StackedEncoder>(std::move(layers));
}

PointEmbedding::PointEmbedding(const ModelConfig& config, common::Rng& rng) {
  ADAMOVE_CHECK_GT(config.num_locations, 0);
  ADAMOVE_CHECK_GT(config.num_users, 0);
  location_emb_ = std::make_unique<nn::Embedding>(
      config.num_locations, config.location_emb_dim, rng);
  time_emb_ = std::make_unique<nn::Embedding>(data::kNumTimeSlots,
                                              config.time_emb_dim, rng);
  user_emb_ = std::make_unique<nn::Embedding>(config.num_users,
                                              config.user_emb_dim, rng);
  dim_ = config.location_emb_dim + config.time_emb_dim + config.user_emb_dim;
  RegisterModule("loc_emb", location_emb_.get());
  RegisterModule("time_emb", time_emb_.get());
  RegisterModule("user_emb", user_emb_.get());
}

nn::Tensor PointEmbedding::Forward(
    const std::vector<data::Point>& points) const {
  ADAMOVE_CHECK(!points.empty());
  std::vector<int64_t> locs, slots, users;
  locs.reserve(points.size());
  slots.reserve(points.size());
  users.reserve(points.size());
  for (const auto& p : points) {
    locs.push_back(p.location);
    slots.push_back(data::TimeSlotOf(p.timestamp));
    users.push_back(p.user);
  }
  return nn::ConcatCols({location_emb_->Forward(locs),
                         time_emb_->Forward(slots),
                         user_emb_->Forward(users)});
}

void PointEmbedding::ForwardInto(std::span<const data::Point> points,
                                 float* out) const {
  // One row of each table per point, in Forward's ConcatCols order, with
  // EmbeddingLookup's range checks.
  const auto gather = [&out](const nn::Embedding& table, int64_t row) {
    ADAMOVE_CHECK_GE(row, 0);
    ADAMOVE_CHECK_LT(row, table.num_embeddings());
    const float* weights = table.weight().data().data();
    out = std::copy_n(weights + row * table.dim(), table.dim(), out);
  };
  for (const auto& p : points) {
    gather(*location_emb_, p.location);
    gather(*time_emb_, data::TimeSlotOf(p.timestamp));
    gather(*user_emb_, p.user);
  }
}

TrajectoryEncoder::TrajectoryEncoder(const ModelConfig& config,
                                     common::Rng& rng) {
  embedding_ = std::make_unique<PointEmbedding>(config, rng);
  seq_ = MakeSequenceEncoder(config, embedding_->dim(), rng);
  ADAMOVE_CHECK(seq_ != nullptr);
  RegisterModule("embedding", embedding_.get());
  RegisterModule("seq", seq_.get());
}

nn::Tensor TrajectoryEncoder::Forward(const std::vector<data::Point>& points,
                                      bool training) {
  return seq_->Forward(embedding_->Forward(points), training);
}

}  // namespace adamove::core
