#include "core/online_adapter.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/parallel_for.h"
#include "common/qfloat.h"
#include "core/ptta.h"
#include "nn/kernels.h"

namespace adamove::core {

namespace {

/// Frozen-classifier scores without bias, written into `scores` (resized to
/// num_locations; zero-filled first because VecMatColsF64 accumulates):
/// scores[l] = query · θ_l. Shared by every predict flavour — adapted,
/// frozen, batched — so the fallback path is arithmetically identical to the
/// untouched-column path. VecMatColsF64 keeps the historical ascending-i
/// double accumulation per column on every backend.
void FrozenColumnScoresInto(const nn::Linear& classifier, const float* query,
                            int64_t hidden, std::vector<float>* scores) {
  ADAMOVE_CHECK_EQ(hidden, classifier.in_features());
  const int64_t num_loc = classifier.out_features();
  const std::vector<float>& weight = classifier.weight().data();
  scores->resize(static_cast<size_t>(num_loc));
  std::fill(scores->begin(), scores->end(), 0.0f);
  nn::kernels::VecMatColsF64(query, weight.data(), scores->data(), hidden,
                             num_loc);
}

void AddBias(const nn::Linear& classifier, std::vector<float>* scores) {
  if (!classifier.has_bias()) return;
  const auto& bias = classifier.bias().data();
  for (size_t l = 0; l < scores->size(); ++l) (*scores)[l] += bias[l];
}

/// Euclidean norm of `n` floats, accumulated in double in ascending order —
/// the query's half of every cosine denominator, computed once per query.
double Norm(const float* x, size_t n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) sum += static_cast<double>(x[i]) * x[i];
  return std::sqrt(sum);
}

/// The stored form of an observed pattern: quantizes it into `block`, or
/// returns false for a pattern with a non-finite (or no) element, which has
/// no q8 form and is never stored.
bool Quantize(const std::vector<float>& pattern, common::QfloatBlock* block) {
  if (!common::QfloatEncodable(pattern.data(), pattern.size())) return false;
  common::QfloatEncode(pattern.data(), pattern.size(), block);
  return true;
}

}  // namespace

void OnlineAdapter::Append(UserState& state, int64_t location,
                           Entry&& entry) {
  auto& entries = state.by_location[location];
  // FIFO: drop the oldest candidate before appending, so a full location
  // never grows past kMaxCandidatesPerLocation slots. Under the ingest rule
  // arrival order is label order, so the dropped entry is never the newest
  // one; only an interleaving that lands an inline observation ahead of
  // older pending deltas can make it so, and then the watermark is rederived.
  bool dropped_newest = false;
  if (entries.size() >= kMaxCandidatesPerLocation) {
    dropped_newest = entries.front().timestamp >= state.watermark;
    entries.erase(entries.begin());
  }
  state.watermark = std::max(state.watermark, entry.timestamp);
  entries.push_back(std::move(entry));
  if (dropped_newest) state.watermark = MaxLabelTimestamp(state);
}

int64_t OnlineAdapter::MaxLabelTimestamp(const UserState& state) {
  int64_t newest = kNoWatermark;
  for (const auto& [location, entries] : state.by_location) {
    for (const Entry& entry : entries) {
      newest = std::max(newest, entry.timestamp);
    }
  }
  for (const PendingDelta& delta : state.pending) {
    newest = std::max(newest, delta.timestamp);
  }
  return newest;
}

int64_t OnlineAdapter::Watermark(int64_t user) const {
  auto it = users_.find(user);
  return it == users_.end() ? kNoWatermark : it->second.watermark;
}

void OnlineAdapter::Observe(int64_t user, const std::vector<float>& pattern,
                            int64_t next_location, int64_t timestamp) {
  ADAMOVE_CHECK(!pattern.empty());
  // Ingest once: a label no later than the watermark was already absorbed.
  if (timestamp <= Watermark(user)) return;
  // Simulated ingestion failure: the pattern is dropped, the knowledge base
  // stays consistent (it just never saw this transition, so the watermark
  // does not move and a re-send ingests it). A non-finite pattern, which
  // has no stored form, is dropped the same way.
  Entry entry{{}, timestamp};
  if (common::FaultPoint("core.kb.ingest") ||
      !Quantize(pattern, &entry.pattern)) {
    return;
  }
  Append(users_[user], next_location, std::move(entry));
}

size_t OnlineAdapter::ObserveDeferred(int64_t user,
                                      const std::vector<float>& pattern,
                                      int64_t next_location,
                                      int64_t timestamp) {
  ADAMOVE_CHECK(!pattern.empty());
  if (timestamp <= Watermark(user)) return 0;
  PendingDelta delta{{}, next_location, timestamp};
  if (!Quantize(pattern, &delta.pattern)) return 0;
  UserState& state = users_[user];
  state.pending.push_back(std::move(delta));
  state.watermark = timestamp;
  dirty_.insert(user);
  // Exact coalescing: the per-location FIFO cap keeps only the newest
  // kMaxCandidatesPerLocation entries, so once that many deltas for one
  // location are buffered, the oldest buffered delta for it could never
  // survive the drain — drop it now and the post-drain state is unchanged.
  // It is never the newest delta, so the watermark stands.
  size_t for_location = 0;
  for (const PendingDelta& delta : state.pending) {
    if (delta.next_location == next_location) ++for_location;
  }
  if (for_location <= kMaxCandidatesPerLocation) return 0;
  for (auto it = state.pending.begin(); it != state.pending.end(); ++it) {
    if (it->next_location == next_location) {
      state.pending.erase(it);
      break;
    }
  }
  return 1;
}

size_t OnlineAdapter::DrainPending(int64_t user) {
  auto it = users_.find(user);
  if (it == users_.end() || it->second.pending.empty()) return 0;
  UserState& state = it->second;
  std::vector<PendingDelta> pending = std::move(state.pending);
  state.pending.clear();
  dirty_.erase(user);
  // Every delta passed the ingest rule when it was buffered, and the
  // watermark already counts it, so the deltas land unchecked — only the
  // ingest fault can still drop one.
  bool dropped = false;
  for (PendingDelta& delta : pending) {
    if (common::FaultPoint("core.kb.ingest")) {
      dropped = true;
      continue;
    }
    Append(state, delta.next_location,
           Entry{std::move(delta.pattern), delta.timestamp});
  }
  // A dropped delta may have held the watermark; rederive it so a re-send
  // of that check-in is ingested.
  if (dropped) state.watermark = MaxLabelTimestamp(state);
  return pending.size();
}

size_t OnlineAdapter::DrainSomePending(size_t max_users) {
  size_t drained = 0;
  while (!dirty_.empty() && (max_users == 0 || drained < max_users)) {
    DrainPending(*dirty_.begin());
    ++drained;
  }
  return drained;
}

size_t OnlineAdapter::PendingCount(int64_t user) const {
  auto it = users_.find(user);
  return it == users_.end() ? 0 : it->second.pending.size();
}

size_t OnlineAdapter::PendingTotal() const {
  size_t n = 0;
  for (int64_t user : dirty_) n += PendingCount(user);
  return n;
}

void OnlineAdapter::StoreRebuildCache(
    int64_t user, const std::vector<RebuildJob>& jobs,
    const common::AlignedBuffer<float>& arena) {
  auto it = users_.find(user);
  if (it == users_.end()) return;
  CachedRebuild& cache = it->second.cache;
  cache.jobs.clear();
  cache.patterns.clear();
  if (jobs.empty()) return;
  // A job's block spans keep * width floats; the width is the user's
  // pattern dimension, recoverable from any stored entry (jobs only exist
  // when entries do).
  size_t width = 0;
  for (const auto& [location, entries] : it->second.by_location) {
    if (!entries.empty()) {
      width = entries.front().pattern.q.size();
      break;
    }
  }
  if (width == 0) return;
  size_t total = 0;
  for (const RebuildJob& job : jobs) {
    total += static_cast<size_t>(job.keep) * width;
  }
  cache.jobs.reserve(jobs.size());
  cache.patterns.reserve(total);
  for (const RebuildJob& job : jobs) {
    const size_t len = static_cast<size_t>(job.keep) * width;
    ADAMOVE_CHECK_LE(job.arena_offset + len, arena.size());
    RebuildJob rebased = job;
    rebased.arena_offset = cache.patterns.size();
    cache.patterns.insert(cache.patterns.end(),
                          arena.data() + job.arena_offset,
                          arena.data() + job.arena_offset + len);
    cache.jobs.push_back(rebased);
  }
}

size_t OnlineAdapter::CollectCachedJobs(int64_t user,
                                        common::AlignedBuffer<float>* arena,
                                        std::vector<RebuildJob>* jobs) const {
  auto it = users_.find(user);
  if (it == users_.end() || it->second.cache.jobs.empty()) return 0;
  const CachedRebuild& cache = it->second.cache;
  const size_t base = arena->size();
  arena->Append(cache.patterns.data(), cache.patterns.size());
  for (const RebuildJob& job : cache.jobs) {
    RebuildJob rebased = job;
    rebased.arena_offset += base;
    jobs->push_back(rebased);
  }
  return cache.jobs.size();
}

bool OnlineAdapter::HasRebuildCache(int64_t user) const {
  auto it = users_.find(user);
  return it != users_.end() && !it->second.cache.jobs.empty();
}

void OnlineAdapter::PredictFrozenInto(const AdaptableModel& model,
                                      const float* query, int64_t hidden,
                                      std::vector<float>* scores) {
  // Serial kernels: the pool path would allocate per-range futures, and the
  // §13 determinism contract makes scheduling value-neutral anyway.
  common::SerialKernelRegion serial;
  const nn::Linear& classifier = model.classifier();
  FrozenColumnScoresInto(classifier, query, hidden, scores);
  AddBias(classifier, scores);
}

size_t OnlineAdapter::CollectRebuildJobs(
    int64_t user, const float* query, int64_t hidden, int64_t query_time,
    common::AlignedBuffer<float>* arena, std::vector<RebuildJob>* jobs,
    std::vector<std::pair<float, const Entry*>>* fresh) const {
  // Simulated knowledge-base lookup failure: the per-user adjustment is
  // skipped and the frozen scores stand — a valid base-model prediction.
  auto it = common::FaultPoint("core.kb.lookup") ? users_.end()
                                                 : users_.find(user);
  if (it == users_.end()) return 0;
  const size_t width = static_cast<size_t>(hidden);
  const double query_norm = Norm(query, width);
  size_t appended = 0;
  for (const auto& [location, entries] : it->second.by_location) {
    // Fresh candidates ranked by similarity to the query pattern.
    fresh->clear();
    for (const auto& entry : entries) {
      if (max_age_seconds_ > 0 &&
          query_time - entry.timestamp > max_age_seconds_) {
        continue;
      }
      ADAMOVE_CHECK_EQ(width, entry.pattern.q.size());
      fresh->emplace_back(
          common::QfloatCosine(query, query_norm, entry.pattern), &entry);
    }
    if (fresh->empty()) continue;
    const size_t keep =
        std::min(fresh->size(), static_cast<size_t>(config_.capacity));
    std::partial_sort(fresh->begin(), fresh->begin() + keep, fresh->end(),
                      [](const auto& a, const auto& b) {
                        return a.first > b.first;
                      });
    RebuildJob job;
    job.location = location;
    job.keep = static_cast<int64_t>(keep);
    // Dequantize the kept patterns out in ranking order: the job survives
    // any later adapter mutation, and the centroid kernel reads them as one
    // contiguous {keep, hidden} block of exact decoded floats.
    job.arena_offset = arena->size();
    arena->Resize(job.arena_offset + keep * width);
    for (size_t k = 0; k < keep; ++k) {
      common::QfloatDecodeInto((*fresh)[k].second->pattern,
                               arena->data() + job.arena_offset + k * width);
    }
    jobs->push_back(job);
    ++appended;
  }
  return appended;
}

void OnlineAdapter::ScoreCollectedJobsInto(
    const AdaptableModel& model, const float* query, int64_t hidden,
    const std::vector<RebuildJob>& jobs,
    const common::AlignedBuffer<float>& arena, std::vector<float>* scores) {
  common::SerialKernelRegion serial;
  const nn::Linear& classifier = model.classifier();
  const int64_t num_loc = classifier.out_features();
  const std::vector<float>& weight = classifier.weight().data();

  // Start from the frozen column scores; overwrite adapted columns below.
  FrozenColumnScoresInto(classifier, query, hidden, scores);
  for (const RebuildJob& job : jobs) {
    // θ'_l = mean({θ_l} ∪ kept patterns); score = query · θ'_l. The fused
    // kernel accumulates each centroid element exactly as the historical
    // loop pair (θ first, patterns in ranking order, double throughout).
    const double acc = nn::kernels::PttaCentroidDot(
        query, weight.data() + job.location, num_loc,
        arena.data() + job.arena_offset, job.keep, hidden);
    (*scores)[static_cast<size_t>(job.location)] = static_cast<float>(
        acc / (1.0 + static_cast<double>(job.keep)));
  }
  AddBias(classifier, scores);
}

void OnlineAdapter::PredictInto(const AdaptableModel& model, int64_t user,
                                const float* query, int64_t hidden,
                                int64_t query_time, PredictScratch* scratch,
                                AdapterStats* stats) const {
  scratch->arena.Clear();
  scratch->jobs.clear();
  CollectRebuildJobs(user, query, hidden, query_time, &scratch->arena,
                     &scratch->jobs, &scratch->fresh);
  ScoreCollectedJobsInto(model, query, hidden, scratch->jobs, scratch->arena,
                         &scratch->scores);
  if (stats != nullptr) {
    stats->columns_updated = static_cast<int>(scratch->jobs.size());
    stats->weight_bytes_touched = static_cast<int64_t>(scratch->jobs.size()) *
                                  hidden * static_cast<int64_t>(sizeof(float));
    stats->resident_bytes = static_cast<int64_t>(ResidentBytes(user));
  }
}

std::vector<float> OnlineAdapter::Predict(const AdaptableModel& model,
                                          int64_t user,
                                          const std::vector<float>& query,
                                          int64_t query_time,
                                          AdapterStats* stats) const {
  PredictScratch scratch;
  PredictInto(model, user, query.data(), static_cast<int64_t>(query.size()),
              query_time, &scratch, stats);
  return std::move(scratch.scores);
}

std::vector<float> OnlineAdapter::ObserveAndPredict(
    AdaptableModel& model, const data::Sample& sample) {
  nn::Tensor reps = model.PrefixRepresentations(sample);
  const int64_t t = reps.rows();
  const int64_t hidden = reps.cols();
  for (int64_t k = 0; k + 1 < t; ++k) {
    std::vector<float> pattern(
        reps.data().begin() + k * hidden,
        reps.data().begin() + (k + 1) * hidden);
    Observe(sample.user, pattern,
            sample.recent[static_cast<size_t>(k + 1)].location,
            sample.recent[static_cast<size_t>(k + 1)].timestamp);
  }
  std::vector<float> query(reps.data().end() - hidden, reps.data().end());
  return Predict(model, sample.user, query, sample.target.timestamp);
}

std::vector<int64_t> OnlineAdapter::Users() const {
  std::vector<int64_t> users;
  users.reserve(users_.size());
  for (const auto& [user, state] : users_) users.push_back(user);
  std::sort(users.begin(), users.end());
  return users;
}

OnlineAdapter::UserSnapshot OnlineAdapter::ExportUser(int64_t user) const {
  UserSnapshot snap;
  snap.user = user;
  auto it = users_.find(user);
  if (it == users_.end()) return snap;
  snap.locations.reserve(it->second.by_location.size());
  for (const auto& [location, entries] : it->second.by_location) {
    snap.locations.emplace_back(location, entries);
  }
  std::sort(snap.locations.begin(), snap.locations.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  snap.pending = it->second.pending;
  return snap;
}

void OnlineAdapter::Adopt(UserSnapshot&& snap) {
  UserState state;
  for (auto& [location, entries] : snap.locations) {
    std::erase_if(entries,
                  [](const Entry& entry) { return entry.pattern.q.empty(); });
    if (entries.empty()) continue;
    if (entries.size() > kMaxCandidatesPerLocation) {
      // Same FIFO policy as Observe: the newest candidates win.
      entries.erase(entries.begin(),
                    entries.end() - kMaxCandidatesPerLocation);
    }
    state.by_location[location] = std::move(entries);
  }
  // Install pending deltas under the same per-location coalescing bound
  // ObserveDeferred enforces (newest win), so a hostile snapshot cannot
  // inflate the buffer past what a live deferral could hold.
  for (PendingDelta& delta : snap.pending) {
    if (delta.pattern.q.empty()) continue;
    size_t for_location = 0;
    for (const PendingDelta& kept : state.pending) {
      if (kept.next_location == delta.next_location) ++for_location;
    }
    state.pending.push_back(std::move(delta));
    if (for_location + 1 <= kMaxCandidatesPerLocation) continue;
    for (auto p = state.pending.begin(); p != state.pending.end(); ++p) {
      if (p->next_location == state.pending.back().next_location) {
        state.pending.erase(p);
        break;
      }
    }
  }
  if (state.by_location.empty() && state.pending.empty()) {
    users_.erase(snap.user);  // adopting an empty snapshot == Forget
    dirty_.erase(snap.user);
    return;
  }
  if (state.pending.empty()) {
    dirty_.erase(snap.user);
  } else {
    dirty_.insert(snap.user);
  }
  state.watermark = MaxLabelTimestamp(state);
  users_[snap.user] = std::move(state);
}

size_t OnlineAdapter::Forget(int64_t user) {
  auto it = users_.find(user);
  if (it == users_.end()) return 0;
  size_t n = 0;
  for (const auto& [loc, entries] : it->second.by_location) {
    n += entries.size();
  }
  users_.erase(it);
  dirty_.erase(user);
  return n;
}

size_t OnlineAdapter::StateBytes(const UserState& state) {
  // Fixed per-node overhead standing in for the hash node header plus its
  // bucket slot — a deterministic proxy, not malloc truth, so the number is
  // reproducible across allocators and runs.
  constexpr size_t kMapNodeOverhead = 32;
  size_t bytes = sizeof(UserState) + kMapNodeOverhead;
  for (const auto& [location, entries] : state.by_location) {
    bytes += kMapNodeOverhead + sizeof(location) + sizeof(entries);
    bytes += entries.capacity() * sizeof(Entry);
    for (const Entry& entry : entries) bytes += entry.pattern.q.capacity();
  }
  bytes += state.pending.capacity() * sizeof(PendingDelta);
  for (const PendingDelta& delta : state.pending) {
    bytes += delta.pattern.q.capacity();
  }
  bytes += state.cache.jobs.capacity() * sizeof(RebuildJob);
  bytes += state.cache.patterns.capacity() * sizeof(float);
  return bytes;
}

size_t OnlineAdapter::ResidentBytes(int64_t user) const {
  auto it = users_.find(user);
  return it == users_.end() ? 0 : StateBytes(it->second);
}

size_t OnlineAdapter::ResidentBytes() const {
  size_t bytes = 0;
  for (const auto& [user, state] : users_) bytes += StateBytes(state);
  return bytes;
}

size_t OnlineAdapter::PatternCount(int64_t user) const {
  auto it = users_.find(user);
  if (it == users_.end()) return 0;
  size_t n = 0;
  for (const auto& [loc, entries] : it->second.by_location) {
    n += entries.size();
  }
  return n;
}

}  // namespace adamove::core
