#ifndef ADAMOVE_NN_STACKED_H_
#define ADAMOVE_NN_STACKED_H_

#include <memory>
#include <vector>

#include "common/check.h"
#include "nn/rnn.h"

namespace adamove::nn {

/// Chains several causal sequence encoders: layer 0 maps {T, in} -> {T, H},
/// subsequent layers map {T, H} -> {T, H}. Composing causal layers stays
/// causal, so the prefix property PTTA needs is preserved (tested). A layer
/// may not itself be a stack: ForwardRaw keeps the intermediate outputs in
/// RawScratch::layers, which a nested stack would resize under it.
class StackedEncoder : public SequenceEncoder {
 public:
  explicit StackedEncoder(std::vector<std::unique_ptr<SequenceEncoder>> layers)
      : layers_(std::move(layers)) {
    ADAMOVE_CHECK(!layers_.empty());
    for (size_t i = 0; i < layers_.size(); ++i) {
      ADAMOVE_CHECK(dynamic_cast<StackedEncoder*>(layers_[i].get()) == nullptr);
      RegisterModule("layer" + std::to_string(i), layers_[i].get());
    }
  }

  Tensor Forward(const Tensor& x, bool training) override {
    Tensor h = x;
    for (auto& layer : layers_) h = layer->Forward(h, training);
    return h;
  }

  int64_t hidden_size() const override {
    return layers_.back()->hidden_size();
  }

  size_t num_layers() const { return layers_.size(); }

  /// The layers' carries, layer 0 first; 0 when any layer has no raw path.
  int64_t carry_size() const override;
  void ForwardRaw(const float* x, int64_t t, float* carry, float* out,
                  RawScratch* scratch) const override;

 private:
  std::vector<std::unique_ptr<SequenceEncoder>> layers_;
};

}  // namespace adamove::nn

#endif  // ADAMOVE_NN_STACKED_H_
