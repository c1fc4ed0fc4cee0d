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

  /// Derives the three per-point index arrays (location, time slot, user)
  /// Forward looks up — the shared definition the static forward-plan path
  /// feeds to its gather ops, so plan and graph mode index identically.
  /// Appends to the given vectors (callers Clear-and-reuse for capacity).
  void IndexArrays(std::span<const data::Point> points,
                   std::vector<int64_t>* locs, std::vector<int64_t>* slots,
                   std::vector<int64_t>* users) const;

  int64_t dim() const { return dim_; }
  nn::Embedding& location_embedding() { return *location_emb_; }
  /// Table accessors for the static forward-plan compiler (src/nn/plan).
  const nn::Embedding& location_embedding() const { return *location_emb_; }
  const nn::Embedding& time_embedding() const { return *time_emb_; }
  const nn::Embedding& user_embedding() const { return *user_emb_; }

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

  /// Component accessors for the static forward-plan compiler
  /// (src/nn/plan), which traces embedding + sequence layer into a flat op
  /// list.
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
