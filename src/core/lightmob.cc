#include "core/lightmob.h"

#include <algorithm>

#include "common/check.h"
#include "nn/autograd_mode.h"
#include "nn/loss.h"
#include "nn/ops.h"

namespace adamove::core {

LightMob::LightMob(const ModelConfig& config, std::string name)
    : config_(config), name_(std::move(name)) {
  common::Rng rng(config.seed);
  encoder_ = std::make_unique<TrajectoryEncoder>(config, rng);
  classifier_ = std::make_unique<nn::Linear>(config.hidden_size,
                                             config.num_locations, rng);
  RegisterModule("encoder", encoder_.get());
  RegisterModule("classifier", classifier_.get());
  if (config.lambda > 0.0) {
    hist_attn_ = std::make_unique<HistoryAttention>(config.hidden_size, rng);
    RegisterModule("hist_attn", hist_attn_.get());
  }
  planner_ = std::make_unique<ForwardPlanner>(*this);
}

nn::Tensor LightMob::ContrastiveTerm(const nn::Tensor& h_rec,
                                     const nn::Tensor& h_hist,
                                     const data::Sample& sample) const {
  ADAMOVE_CHECK(hist_attn_ != nullptr);
  const int64_t t = h_rec.rows();
  if (t < 2) return nn::Tensor();
  // Negative candidates: prefix positions q whose *next* location differs
  // from the prediction target (§III-C filters out confusing prefixes whose
  // next location equals the target).
  std::vector<int64_t> negative_rows;
  for (int64_t q = 0; q + 1 < t; ++q) {
    if (sample.recent[static_cast<size_t>(q + 1)].location !=
        sample.target.location) {
      negative_rows.push_back(q);
    }
  }
  if (negative_rows.empty()) return nn::Tensor();
  nn::Tensor h_tilde = hist_attn_->Forward(h_hist, h_rec);
  nn::Tensor anchor = nn::Row(h_rec, t - 1);
  nn::Tensor positive = nn::Row(h_tilde, t - 1);
  nn::Tensor negatives = nn::GatherRows(h_tilde, negative_rows);
  return nn::InfoNceLoss(anchor, positive, negatives,
                         /*include_positive_in_denominator=*/false,
                         static_cast<float>(config_.contrastive_temperature));
}

nn::Tensor LightMob::Loss(const data::Sample& sample, bool training) {
  ADAMOVE_CHECK(!sample.recent.empty());
  nn::Tensor h_rec = encoder_->Forward(sample.recent, training);
  nn::Tensor h_last = nn::Row(h_rec, h_rec.rows() - 1);
  nn::Tensor logits = classifier_->Forward(h_last);
  nn::Tensor loss = nn::CrossEntropy(logits, {sample.target.location});
  if (config_.lambda > 0.0 && !sample.history.empty()) {
    nn::Tensor h_hist = encoder_->Forward(sample.history, training);
    nn::Tensor con = ContrastiveTerm(h_rec, h_hist, sample);
    if (con.defined()) {
      loss = nn::Add(loss,
                     nn::ScalarMul(con, static_cast<float>(config_.lambda)));
    }
  }
  return loss;
}

std::vector<float> LightMob::Scores(const data::Sample& sample) {
  nn::NoGradGuard no_grad;
  nn::Tensor h_rec = encoder_->Forward(sample.recent, /*training=*/false);
  nn::Tensor h_last = nn::Row(h_rec, h_rec.rows() - 1);
  return classifier_->Forward(h_last).data();
}

nn::Tensor LightMob::PrefixRepresentations(const data::Sample& sample) {
  // One scratch per thread: evaluator loops reuse its arena/capacity, so
  // steady-state plan encodes allocate only this wrapping Tensor. The
  // zero-alloc serving path (PredictionService) consumes the scratch buffer
  // directly instead.
  thread_local PlanScratch scratch;
  if (planner_->EncodeInto(sample, &scratch)) {
    nn::Tensor reps = nn::Tensor::Zeros({scratch.rows, scratch.cols});
    std::copy_n(scratch.reps.data(),
                static_cast<size_t>(scratch.rows * scratch.cols),
                reps.data().begin());
    return reps;
  }
  nn::NoGradGuard no_grad;
  return encoder_->Forward(sample.recent, /*training=*/false);
}

nn::Tensor LightMob::TrainingLogits(const data::Sample& sample,
                                    bool training) {
  nn::Tensor h_rec = encoder_->Forward(sample.recent, training);
  return classifier_->Forward(nn::Row(h_rec, h_rec.rows() - 1));
}

}  // namespace adamove::core
