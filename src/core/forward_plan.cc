#include "core/forward_plan.h"

#include <cstdio>

#include "common/check.h"
#include "nn/plan/encoder_trace.h"

namespace adamove::core {

ForwardMode ForwardModeFromEnv() { return ForwardMode::kPlan; }

ForwardPlanner::ForwardPlanner(const AdaptableModel& model) {
  const TrajectoryEncoder* encoder = model.trajectory_encoder();
  if (encoder == nullptr) return;
  embedding_ = &encoder->embedding();
  // Table order must match PointEmbedding::Forward's ConcatCols order —
  // the gathers write the same column ranges the graph concat produces.
  tables_ = {&embedding_->location_embedding(), &embedding_->time_embedding(),
             &embedding_->user_embedding()};
  // The tracer's weight walk and its op walk recognise the same encoder
  // families, so an empty walk means no sequence length will ever compile
  // (the transformer): leave seq_ null and let the graph walk serve.
  if (!nn::plan::EncoderWeightPointers(tables_, encoder->seq()).empty()) {
    seq_ = &encoder->seq();
  }
}

std::shared_ptr<const nn::plan::CompiledPlan> ForwardPlanner::PlanFor(
    int64_t t) {
  common::MutexLock lock(mu_);
  if (rejected_.count(t) != 0) return nullptr;  // verified bad for these
                                                // weights; graph serves
  auto it = plans_.find(t);
  if (it != plans_.end()) {
    const auto& fp = it->second->weight_fingerprint;
    if (nn::plan::EncoderWeightsMatch(tables_, *seq_, fp.data(), fp.size())) {
      if (verify_mode_ == nn::plan::VerifyMode::kParanoid) {
        ++verifies_;
        nn::plan::VerifyResult check = nn::plan::VerifyPlan(*it->second);
        if (!check.ok) {
          ++verify_rejects_;
          std::fprintf(stderr,
                       "adamove: plan verifier rejected cached plan "
                       "(seq_len=%lld): %s — serving the graph walk\n",
                       static_cast<long long>(t), check.message.c_str());
          plans_.erase(it);
          rejected_.insert(t);
          return nullptr;
        }
      }
      return it->second;
    }
    // A weight tensor's storage moved (checkpoint hot-swap with
    // reallocation): every cached plan borrows stale pointers, and every
    // cached rejection verdict judged weights that no longer exist.
    plans_.clear();
    rejected_.clear();
  }
  auto plan = nn::plan::CompileEncoderForward(tables_, *seq_, t);
  ADAMOVE_CHECK(plan != nullptr);  // the constructor vetted the family
  ++verifies_;
  nn::plan::VerifyResult check = nn::plan::VerifyPlan(*plan);
  if (!check.ok) {
    // An unverifiable plan never executes: raw-pointer interpretation of a
    // plan with a bad offset or lifetime is silent memory corruption. The
    // graph walk is bit-identical, so correctness is preserved and only the
    // zero-alloc property is lost for this sequence length.
    ++verify_rejects_;
    std::fprintf(stderr,
                 "adamove: plan verifier rejected compiled plan "
                 "(seq_len=%lld): %s — serving the graph walk\n",
                 static_cast<long long>(t), check.message.c_str());
    rejected_.insert(t);
    return nullptr;
  }
  ++compiles_;
  plans_[t] = plan;
  return plan;
}

bool ForwardPlanner::EncodeInto(const data::Sample& sample,
                                PlanScratch* scratch) {
  if (seq_ == nullptr) return false;
  const int64_t t = static_cast<int64_t>(sample.recent.size());
  if (t <= 0) return false;
  std::shared_ptr<const nn::plan::CompiledPlan> plan = PlanFor(t);
  if (plan == nullptr) return false;
  ADAMOVE_CHECK_EQ(plan->num_index_inputs, 3);

  scratch->locs.clear();
  scratch->slots.clear();
  scratch->users.clear();
  embedding_->IndexArrays(sample.recent, &scratch->locs, &scratch->slots,
                          &scratch->users);
  if (scratch->executor.plan() != plan.get()) scratch->executor.Bind(plan);
  scratch->rows = plan->out_rows;
  scratch->cols = plan->out_cols;
  scratch->reps.Resize(static_cast<size_t>(plan->out_rows * plan->out_cols));
  const int64_t* inputs[3] = {scratch->locs.data(), scratch->slots.data(),
                              scratch->users.data()};
  scratch->executor.Run(inputs, scratch->reps.data());
  return true;
}

void ForwardPlanner::InvalidateAll() {
  common::MutexLock lock(mu_);
  plans_.clear();
  rejected_.clear();
}

int64_t ForwardPlanner::compiles() const {
  common::MutexLock lock(mu_);
  return compiles_;
}

int64_t ForwardPlanner::verifies() const {
  common::MutexLock lock(mu_);
  return verifies_;
}

int64_t ForwardPlanner::verify_rejects() const {
  common::MutexLock lock(mu_);
  return verify_rejects_;
}

void ForwardPlanner::SetVerifyModeForTest(nn::plan::VerifyMode mode) {
  common::MutexLock lock(mu_);
  verify_mode_ = mode;
  rejected_.clear();
}

}  // namespace adamove::core
