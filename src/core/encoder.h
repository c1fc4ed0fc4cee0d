#ifndef ADAMOVE_CORE_ENCODER_H_
#define ADAMOVE_CORE_ENCODER_H_

#include <memory>
#include <span>
#include <vector>

#include "core/config.h"
#include "data/point.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/rnn.h"

namespace adamove::core {

/// The spatio-temporal point embedding of Eq. (4): each point becomes
/// [Emb(location); Emb(time-slot); Emb(user)]. Shared by the trajectory
/// encoder and by the attention-based baselines.
class PointEmbedding : public nn::Module {
 public:
  PointEmbedding(const ModelConfig& config, common::Rng& rng);

  /// points -> {T, dim} embedding matrix.
  nn::Tensor Forward(const std::vector<data::Point>& points) const;

  /// Forward's rows copied straight into `out` ({T, dim}, row-major) with
  /// no graph: the same tables, indices and column order, so the raw
  /// inference path (DESIGN.md §14) embeds exactly as the graph walk does.
  void ForwardInto(std::span<const data::Point> points, float* out) const;

  int64_t dim() const { return dim_; }
  nn::Embedding& location_embedding() { return *location_emb_; }

 private:
  int64_t dim_;
  std::unique_ptr<nn::Embedding> location_emb_;
  std::unique_ptr<nn::Embedding> time_emb_;
  std::unique_ptr<nn::Embedding> user_emb_;
};

/// The trajectory encoder f_Φ of §III-C: each point is embedded per Eq. (4)
/// and the embedding sequence is run through a causal sequential encoder
/// (Eq. 5). Row t of the output encodes the trajectory prefix up to t, which
/// is exactly the mobility pattern h_t that PTTA consumes.
class TrajectoryEncoder : public nn::Module {
 public:
  TrajectoryEncoder(const ModelConfig& config, common::Rng& rng);

  /// points -> {T, hidden} prefix representations.
  nn::Tensor Forward(const std::vector<data::Point>& points, bool training);

  int64_t hidden_size() const { return seq_->hidden_size(); }
  int64_t input_size() const { return embedding_->dim(); }

  /// Component accessors for the raw inference path (core/forward_plan),
  /// which runs the embedding and the sequence layer on raw buffers.
  const PointEmbedding& embedding() const { return *embedding_; }
  const nn::SequenceEncoder& seq() const { return *seq_; }

 private:
  std::unique_ptr<PointEmbedding> embedding_;
  std::unique_ptr<nn::SequenceEncoder> seq_;
};

/// Builds the sequential layer for an encoder family.
std::unique_ptr<nn::SequenceEncoder> MakeSequenceEncoder(
    const ModelConfig& config, int64_t input_size, common::Rng& rng);

}  // namespace adamove::core

#endif  // ADAMOVE_CORE_ENCODER_H_
