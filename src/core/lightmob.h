#ifndef ADAMOVE_CORE_LIGHTMOB_H_
#define ADAMOVE_CORE_LIGHTMOB_H_

#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/encoder.h"
#include "core/forward_plan.h"
#include "core/history_attention.h"
#include "core/model.h"

namespace adamove::core {

/// LightMob (§III-C): the base model (trajectory encoder f_Φ + FC predictor
/// g_Θ) that only consumes the recent trajectory at inference, trained with
/// the hybrid loss L = L_cls + λ·L_con (Eq. 11). The contrastive term pulls
/// the plain recent representation h_N towards its history-enhanced
/// counterpart h̃_N (Eqs. 7–9), so historical-trajectory knowledge is
/// memorized inside the encoder and the history branch can be dropped at
/// test time.
///
/// With λ = 0 this is exactly the paper's Base Model / LSTM baseline
/// (no history attention, no contrastive loss).
class LightMob : public AdaptableModel {
 public:
  explicit LightMob(const ModelConfig& config,
                    std::string name = "LightMob");

  // MobilityModel:
  nn::Tensor Loss(const data::Sample& sample, bool training) override;
  std::vector<float> Scores(const data::Sample& sample) override;
  std::string name() const override { return name_; }
  int64_t num_locations() const override { return config_.num_locations; }

  // AdaptableModel:
  nn::Tensor PrefixRepresentations(const data::Sample& sample) override;
  nn::Linear& classifier() override { return *classifier_; }
  const nn::Linear& classifier() const override { return *classifier_; }
  nn::Tensor TrainingLogits(const data::Sample& sample,
                            bool training) override;

  TrajectoryEncoder& encoder() { return *encoder_; }
  const ModelConfig& config() const { return config_; }

  /// Raw-path hook: PrefixRepresentations encodes through ForwardPlanner
  /// whenever this encoder has a raw path (bit-identical to the graph walk),
  /// and walks the graph otherwise.
  const TrajectoryEncoder* trajectory_encoder() const override {
    return encoder_.get();
  }
  TrajectoryEncoder* trajectory_encoder() override { return encoder_.get(); }

  /// Builds the contrastive InfoNCE term for already-encoded recent/history
  /// representations; returns an undefined Tensor when no valid negative
  /// exists (the loss is skipped, matching the filtering rule of §III-C).
  /// Exposed for unit tests.
  nn::Tensor ContrastiveTerm(const nn::Tensor& h_rec,
                             const nn::Tensor& h_hist,
                             const data::Sample& sample) const;

 private:
  ModelConfig config_;
  std::string name_;
  std::unique_ptr<TrajectoryEncoder> encoder_;
  std::unique_ptr<HistoryAttention> hist_attn_;
  std::unique_ptr<nn::Linear> classifier_;
  // The raw inference path over encoder_.
  std::unique_ptr<ForwardPlanner> planner_;
};

}  // namespace adamove::core

#endif  // ADAMOVE_CORE_LIGHTMOB_H_
