#include "core/forward_plan.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/check.h"
#include "nn/plan/encoder_trace.h"

namespace adamove::core {

ForwardMode ForwardModeFromEnv() { return ForwardMode::kPlan; }

size_t PrefixState::Bytes() const {
  return sizeof(PrefixState) + points.capacity() * sizeof(data::Point) +
         (rows.capacity() + carry.capacity()) * sizeof(float);
}

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
  std::vector<const float*> fingerprint =
      nn::plan::EncoderWeightPointers(tables_, encoder->seq());
  if (!fingerprint.empty()) {
    seq_ = &encoder->seq();
    common::MutexLock lock(mu_);
    fingerprint_ = std::move(fingerprint);
  }
}

void ForwardPlanner::RevalidateLocked() {
  if (nn::plan::EncoderWeightsMatch(tables_, *seq_, fingerprint_.data(),
                                    fingerprint_.size())) {
    return;
  }
  // A weight tensor's storage moved (checkpoint hot-swap with
  // reallocation): every cached plan borrows stale pointers, every cached
  // rejection verdict judged weights that no longer exist, and every prefix
  // state was computed from them.
  plans_.clear();
  rejected_.clear();
  ++generation_;
  fingerprint_ = nn::plan::EncoderWeightPointers(tables_, *seq_);
}

std::shared_ptr<const nn::plan::CompiledPlan> ForwardPlanner::PlanFor(
    int64_t t) {
  common::MutexLock lock(mu_);
  RevalidateLocked();
  if (rejected_.count(t) != 0) return nullptr;  // verified bad for these
                                                // weights; graph serves
  auto it = plans_.find(t);
  if (it != plans_.end()) {
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
  auto plan = nn::plan::CompileEncoderForward(tables_, *seq_, t);
  ADAMOVE_CHECK(plan != nullptr);  // the constructor vetted the family
  // Revalidation compares fingerprint_, so it must be exactly what the
  // trace borrowed (the verifier proves the plan's own list is).
  ADAMOVE_CHECK(plan->weight_fingerprint == fingerprint_);
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

void ForwardPlanner::RunPlan(
    const std::shared_ptr<const nn::plan::CompiledPlan>& plan,
    std::span<const data::Point> points, const float* carry_in, float* out,
    PlanScratch* scratch) {
  ADAMOVE_CHECK_EQ(plan->num_index_inputs, 3);
  ADAMOVE_CHECK_EQ(plan->seq_len, static_cast<int64_t>(points.size()));
  scratch->locs.clear();
  scratch->slots.clear();
  scratch->users.clear();
  embedding_->IndexArrays(points, &scratch->locs, &scratch->slots,
                          &scratch->users);
  if (scratch->executor.plan() != plan.get()) scratch->executor.Bind(plan);
  scratch->carry.resize(static_cast<size_t>(plan->carry_elems));
  const int64_t* inputs[3] = {scratch->locs.data(), scratch->slots.data(),
                              scratch->users.data()};
  scratch->executor.Run(inputs, carry_in, out, scratch->carry.data());
}

bool ForwardPlanner::EncodeInto(const data::Sample& sample,
                                PlanScratch* scratch) {
  if (seq_ == nullptr) return false;
  const int64_t t = static_cast<int64_t>(sample.recent.size());
  if (t <= 0) return false;
  std::shared_ptr<const nn::plan::CompiledPlan> plan = PlanFor(t);
  if (plan == nullptr) return false;
  scratch->rows = plan->out_rows;
  scratch->cols = plan->out_cols;
  scratch->reused = 0;
  scratch->reps.Resize(static_cast<size_t>(plan->out_rows * plan->out_cols));
  scratch->zero_carry.assign(static_cast<size_t>(plan->carry_elems), 0.0f);
  RunPlan(plan, sample.recent, scratch->zero_carry.data(),
          scratch->reps.data(), scratch);
  return true;
}

bool ForwardPlanner::ExtendInto(const data::Sample& sample, PrefixState* state,
                                PlanScratch* scratch) {
  if (seq_ == nullptr) return false;
  const std::vector<data::Point>& points = sample.recent;
  const int64_t t = static_cast<int64_t>(points.size());
  const uint64_t live_generation = generation();
  const nn::kernels::Backend backend = nn::kernels::ActiveBackend();
  int64_t reuse = 0;
  if (state->generation == live_generation && state->backend == backend &&
      state->points.size() <= points.size() &&
      std::equal(state->points.begin(), state->points.end(),
                 points.begin())) {
    reuse = static_cast<int64_t>(state->points.size());
  }
  std::shared_ptr<const nn::plan::CompiledPlan> plan;
  if (reuse > 0 && reuse < t) {
    plan = PlanFor(t - reuse);
    if (plan == nullptr) reuse = 0;  // continuation rejected: from zero
  }
  const int64_t cols = seq_->hidden_size();
  if (reuse == 0) {
    if (!EncodeInto(sample, scratch)) return false;
    state->points.clear();
    state->rows.clear();
  } else {
    scratch->rows = t;
    scratch->cols = cols;
    scratch->reps.Resize(static_cast<size_t>(t * cols));
    std::copy_n(state->rows.data(), reuse * cols, scratch->reps.data());
    if (plan != nullptr) {
      RunPlan(plan, std::span(points).subspan(static_cast<size_t>(reuse)),
              state->carry.data(), scratch->reps.data() + reuse * cols,
              scratch);
    }
  }
  scratch->reused = reuse;
  if (reuse < t) {
    state->carry.assign(scratch->carry.begin(), scratch->carry.end());
  }
  // Grow a stored window kGrowPoints at a time: the vectors' doubling would
  // leave up to half of every resident entry unused.
  constexpr int64_t kGrowPoints = 8;
  const auto room = (t + kGrowPoints - 1) / kGrowPoints * kGrowPoints;
  if (state->points.capacity() < points.size()) {
    state->points.reserve(static_cast<size_t>(room));
    state->rows.reserve(static_cast<size_t>(room * cols));
  }
  const float* reps = scratch->reps.data();
  state->points.insert(state->points.end(), points.begin() + reuse,
                       points.end());
  state->rows.insert(state->rows.end(), reps + reuse * cols, reps + t * cols);
  state->generation = live_generation;
  state->backend = backend;
  return true;
}

void ForwardPlanner::InvalidateAll() {
  common::MutexLock lock(mu_);
  plans_.clear();
  rejected_.clear();
  ++generation_;
}

uint64_t ForwardPlanner::generation() {
  if (seq_ == nullptr) return 0;
  common::MutexLock lock(mu_);
  RevalidateLocked();
  return generation_;
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

namespace {

// PrefixCache's stripe count when unbounded, and its ceiling when bounded.
constexpr size_t kPrefixShards = 16;

}  // namespace

PrefixCache::PrefixCache(size_t max_entries) {
  // A bounded cache uses at most max_entries stripes of max_entries /
  // stripes entries each, so the total never exceeds the bound.
  const size_t stripes =
      max_entries == 0 ? kPrefixShards : std::min(kPrefixShards, max_entries);
  per_shard_cap_ = max_entries / stripes;
  for (size_t i = 0; i < stripes; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

bool PrefixCache::Encode(ForwardPlanner& planner, int64_t key,
                         const data::Sample& sample, PlanScratch* scratch) {
  if (!planner.traceable()) return false;
  const uint64_t generation = planner.generation();
  Shard& shard = *shards_[std::hash<int64_t>{}(key) % shards_.size()];
  common::MutexLock lock(shard.mu);
  if (shard.generation != generation) {
    shard.entries.clear();
    shard.lru.clear();
    shard.bytes = 0;
    shard.generation = generation;
  }
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    if (per_shard_cap_ > 0 && shard.entries.size() >= per_shard_cap_) {
      auto victim = shard.entries.find(shard.lru.back());
      shard.bytes -= victim->second.state.Bytes();
      shard.entries.erase(victim);
      shard.lru.pop_back();
    }
    shard.lru.push_front(key);
    it = shard.entries.emplace(key, Entry{{}, shard.lru.begin()}).first;
  } else {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    shard.bytes -= it->second.state.Bytes();
  }
  const bool ok = planner.ExtendInto(sample, &it->second.state, scratch);
  shard.bytes += it->second.state.Bytes();
  return ok;
}

void PrefixCache::Clear() {
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    shard->entries.clear();
    shard->lru.clear();
    shard->bytes = 0;
  }
}

size_t PrefixCache::entries() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    n += shard->entries.size();
  }
  return n;
}

size_t PrefixCache::bytes() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    n += shard->bytes;
  }
  return n;
}

}  // namespace adamove::core
