#include "core/forward_plan.h"

#include <algorithm>

#include "common/parallel_for.h"

namespace adamove::core {

ForwardMode ForwardModeFromEnv() { return ForwardMode::kPlan; }

size_t PrefixState::Bytes() const {
  return sizeof(PrefixState) + points.capacity() * sizeof(data::Point) +
         (rows.capacity() + carry.capacity()) * sizeof(float);
}

ForwardPlanner::ForwardPlanner(const AdaptableModel& model) {
  const TrajectoryEncoder* encoder = model.trajectory_encoder();
  if (encoder == nullptr || encoder->seq().carry_size() == 0) return;
  embedding_ = &encoder->embedding();
  seq_ = &encoder->seq();
  params_ = encoder->Parameters();
  common::MutexLock lock(mu_);
  for (const nn::Tensor& p : params_) storage_.push_back(p.data().data());
}

void ForwardPlanner::Run(std::span<const data::Point> points, float* carry,
                         float* out, PlanScratch* scratch) const {
  const auto t = static_cast<int64_t>(points.size());
  scratch->inputs.Resize(static_cast<size_t>(t * embedding_->dim()));
  embedding_->ForwardInto(points, scratch->inputs.data());
  // Pin kernels inline: ParallelFor's pool path allocates its future list,
  // and by the determinism contract (DESIGN.md §13) chunking is scheduling,
  // never arithmetic, so values are unchanged.
  common::SerialKernelRegion serial;
  seq_->ForwardRaw(scratch->inputs.data(), t, carry, out, &scratch->raw);
}

bool ForwardPlanner::EncodeInto(const data::Sample& sample,
                                PlanScratch* scratch) {
  const auto t = static_cast<int64_t>(sample.recent.size());
  if (seq_ == nullptr || t <= 0) return false;
  scratch->rows = t;
  scratch->cols = seq_->hidden_size();
  scratch->reused = 0;
  scratch->reps.Resize(static_cast<size_t>(t * scratch->cols));
  scratch->carry.assign(static_cast<size_t>(seq_->carry_size()), 0.0f);
  Run(sample.recent, scratch->carry.data(), scratch->reps.data(), scratch);
  return true;
}

bool ForwardPlanner::ExtendInto(const data::Sample& sample, PrefixState* state,
                                PlanScratch* scratch) {
  const std::vector<data::Point>& points = sample.recent;
  const auto t = static_cast<int64_t>(points.size());
  if (seq_ == nullptr || t <= 0) return false;
  const uint64_t live_generation = generation();
  const nn::kernels::Backend backend = nn::kernels::ActiveBackend();
  int64_t reuse = 0;
  if (state->generation == live_generation && state->backend == backend &&
      state->points.size() <= points.size() &&
      std::equal(state->points.begin(), state->points.end(),
                 points.begin())) {
    reuse = static_cast<int64_t>(state->points.size());
  } else {
    state->points.clear();
    state->rows.clear();
    state->carry.assign(static_cast<size_t>(seq_->carry_size()), 0.0f);
  }
  const int64_t cols = seq_->hidden_size();
  scratch->rows = t;
  scratch->cols = cols;
  scratch->reused = reuse;
  scratch->reps.Resize(static_cast<size_t>(t * cols));
  std::copy_n(state->rows.data(), reuse * cols, scratch->reps.data());
  if (reuse < t) {
    Run(std::span(points).subspan(static_cast<size_t>(reuse)),
        state->carry.data(), scratch->reps.data() + reuse * cols, scratch);
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
  ++generation_;
}

uint64_t ForwardPlanner::generation() {
  if (seq_ == nullptr) return 0;
  common::MutexLock lock(mu_);
  bool moved = false;
  for (size_t i = 0; i < params_.size(); ++i) {
    const float* live = params_[i].data().data();
    if (live != storage_[i]) {
      // A hot-swap reallocated this parameter: every prefix state was
      // computed from weights that no longer exist.
      storage_[i] = live;
      moved = true;
    }
  }
  if (moved) ++generation_;
  return generation_;
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
  if (!planner.has_raw_path()) return false;
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
