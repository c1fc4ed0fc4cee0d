#ifndef ADAMOVE_NN_LAYERS_H_
#define ADAMOVE_NN_LAYERS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nn/module.h"
#include "nn/tensor.h"

namespace adamove::nn {

/// Fully-connected layer: y = x W + b, x is {N, in}, W is {in, out}.
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, common::Rng& rng,
         bool with_bias = true);

  Tensor Forward(const Tensor& x) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  /// Weight matrix {in, out}. Exposed because PTTA/T3A adjust the output
  /// classifier's columns directly at test time.
  Tensor weight() const { return weight_; }
  Tensor bias() const { return bias_; }
  bool has_bias() const { return bias_.defined(); }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Tensor weight_;
  Tensor bias_;
};

/// ID-embedding table of shape {num_embeddings, dim}.
class Embedding : public Module {
 public:
  Embedding(int64_t num_embeddings, int64_t dim, common::Rng& rng);

  /// Looks up rows for each index -> {N, dim}.
  Tensor Forward(const std::vector<int64_t>& indices) const;

  int64_t num_embeddings() const { return num_embeddings_; }
  int64_t dim() const { return dim_; }
  const Tensor& weight() const { return weight_; }

 private:
  int64_t num_embeddings_;
  int64_t dim_;
  Tensor weight_;
};

/// Learned row-wise LayerNorm.
class LayerNormLayer : public Module {
 public:
  explicit LayerNormLayer(int64_t dim);

  Tensor Forward(const Tensor& x) const;

 private:
  Tensor gain_;
  Tensor bias_;
};

}  // namespace adamove::nn

#endif  // ADAMOVE_NN_LAYERS_H_
