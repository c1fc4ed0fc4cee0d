#ifndef ADAMOVE_CORE_MODEL_H_
#define ADAMOVE_CORE_MODEL_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/tensor.h"

namespace adamove::core {

class TrajectoryEncoder;

/// Common interface of every next-location model in this repository
/// (AdaMove's LightMob and all baselines): a training loss per sample and
/// per-location scores at inference. One shared Trainer/Evaluator drives any
/// implementation.
class MobilityModel : public nn::Module {
 public:
  /// Scalar training loss for one sample (autograd-enabled).
  virtual nn::Tensor Loss(const data::Sample& sample, bool training) = 0;

  /// Unnormalized scores over all locations for one sample; higher = more
  /// likely next location. Runs without building the autograd tape.
  virtual std::vector<float> Scores(const data::Sample& sample) = 0;

  virtual std::string name() const = 0;
  virtual int64_t num_locations() const = 0;

  /// Whether the model learns by gradient descent (default). Non-gradient
  /// models (Markov, LLM-Mob) return false and implement Fit instead.
  virtual bool trainable() const { return true; }

  /// Non-gradient estimation / precomputation over the training split
  /// (transition counts, trajectory flow graphs, ...). Gradient models that
  /// also need corpus statistics (GETNext) override this too; the training
  /// harness calls Fit before gradient training.
  virtual void Fit(const data::Dataset& dataset) { (void)dataset; }
};

/// A model whose output layer can be adjusted by a test-time classifier
/// adjuster (PTTA / T3A). It must expose the prefix representations h_k of
/// the recent trajectory and its final FC classifier g_Θ.
class AdaptableModel : public MobilityModel {
 public:
  /// {T, H} matrix whose row k is the model's representation of the recent
  /// trajectory prefix recent[0..k] — the labeled-pattern source of
  /// Algorithm 1 step 1.
  virtual nn::Tensor PrefixRepresentations(const data::Sample& sample) = 0;

  /// The output classifier whose weight columns θ_l the adapters replace.
  virtual nn::Linear& classifier() = 0;

  /// Read-only classifier access: adapters that only *read* the frozen
  /// columns (OnlineAdapter::Predict, the serving path) take the model by
  /// const reference, which is what makes concurrent prediction sound.
  virtual const nn::Linear& classifier() const = 0;

  /// Logits of the final prefix with the autograd tape ON — the training
  /// path used by custom objectives (e.g. distillation) that need to
  /// backpropagate through the model beyond its built-in Loss().
  virtual nn::Tensor TrainingLogits(const data::Sample& sample,
                                    bool training) = 0;

  /// The trajectory encoder backing PrefixRepresentations, when the model
  /// has one — the hook the static forward-plan compiler (src/nn/plan)
  /// traces, and the graph-walk reference the plan tests compare against.
  /// nullptr (the default) means "graph walk only"; models with bespoke
  /// encode paths (e.g. DeepMove's dual encoders) keep the default.
  virtual const TrajectoryEncoder* trajectory_encoder() const {
    return nullptr;
  }
  virtual TrajectoryEncoder* trajectory_encoder() { return nullptr; }
};

}  // namespace adamove::core

#endif  // ADAMOVE_CORE_MODEL_H_
