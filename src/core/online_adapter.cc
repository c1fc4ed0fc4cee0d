#include "core/online_adapter.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

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

/// Grows `v` to hold `extra` more elements: by `step` elements, or by a
/// sixteenth of its size once that is larger, so a slab of up to 16 steps
/// carries at most one step of slack, a larger one at most a sixteenth,
/// and reallocation stays amortised O(1) per element, where doubling would
/// leave up to half of it unused.
template <typename T>
void GrowBy(std::vector<T>* v, size_t extra, size_t step) {
  if (v->size() + extra > v->capacity()) {
    v->reserve(v->size() + std::max({extra, step, v->size() / 16}));
  }
}

}  // namespace

OnlineAdapter::Slot OnlineAdapter::Append(UserState& state, int64_t location,
                                          int64_t timestamp, size_t size) {
  ADAMOVE_CHECK_LE(size, size_t{UINT32_MAX});
  std::vector<Record>& records = state.records;
  // The location's group is records [first, last); its payload starts at
  // byte `first_byte` and the new record goes at its end.
  const auto by_location = [](const Record& r, int64_t l) {
    return r.location < l;
  };
  size_t first = static_cast<size_t>(
      std::lower_bound(records.begin(), records.end(), location, by_location) -
      records.begin());
  size_t first_byte = first * state.width;
  if (state.width == 0) {
    for (size_t i = 0; i < first; ++i) first_byte += records[i].size;
  }
  size_t last = first;
  size_t last_byte = first_byte;
  while (last < records.size() && records[last].location == location) {
    last_byte += records[last++].size;
  }
  const Record added{location, timestamp, 0, static_cast<uint32_t>(size)};
  if (records.empty()) {
    state.width = added.size;
  } else if (state.width != added.size) {
    state.width = 0;  // mixed sizes: sum them from here on
  }
  // FIFO: drop the oldest candidate before appending, so a full location
  // never holds more than kMaxCandidatesPerLocation records and a full slab
  // does not grow. Under the ingest rule arrival order is label order, so
  // the dropped record is never the newest one; only an interleaving that
  // lands an inline observation ahead of older pending deltas can make it
  // so, and then the watermark is rederived.
  const bool full = last - first >= kMaxCandidatesPerLocation;
  const bool dropped_newest =
      full && records[first].timestamp >= state.watermark;
  if (full && records[first].size == size) {
    // The new pattern has the oldest one's size (always, for one encoder):
    // shift the group left by one record in place, so a full location
    // costs one group's bytes rather than two moves of the slab's tail.
    std::move(records.begin() + static_cast<std::ptrdiff_t>(first + 1),
              records.begin() + static_cast<std::ptrdiff_t>(last),
              records.begin() + static_cast<std::ptrdiff_t>(first));
    std::memmove(state.q.data() + first_byte,
                 state.q.data() + first_byte + size,
                 last_byte - first_byte - size);
    --last;
    last_byte -= size;
    records[last] = added;
  } else {
    if (full) {
      const auto bytes = static_cast<std::ptrdiff_t>(first_byte);
      last_byte -= records[first].size;
      state.q.erase(state.q.begin() + bytes,
                    state.q.begin() + bytes + records[first].size);
      records.erase(records.begin() + static_cast<std::ptrdiff_t>(first));
      --last;
    }
    GrowBy(&records, 1, kSlabStep);
    GrowBy(&state.q, size, kSlabStep * size);
    records.insert(records.begin() + static_cast<std::ptrdiff_t>(last), added);
    state.q.insert(state.q.begin() + static_cast<std::ptrdiff_t>(last_byte),
                   size, int8_t{0});
  }
  state.watermark = dropped_newest ? MaxLabelTimestamp(state)
                                   : std::max(state.watermark, timestamp);
  return {&records[last], state.q.data() + last_byte};
}

int64_t OnlineAdapter::MaxLabelTimestamp(const UserState& state) {
  int64_t newest = kNoWatermark;
  for (const Record& record : state.records) {
    newest = std::max(newest, record.timestamp);
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

void OnlineAdapter::Observe(int64_t user, const float* pattern, size_t size,
                            int64_t next_location, int64_t timestamp) {
  ADAMOVE_CHECK_GT(size, 0u);
  // Ingest once: a label no later than the watermark was already absorbed.
  if (timestamp <= Watermark(user)) return;
  // Simulated ingestion failure: the pattern is dropped, the knowledge base
  // stays consistent (it just never saw this transition, so the watermark
  // does not move and a re-send ingests it). A non-finite pattern, which
  // has no q8 form, is dropped the same way.
  if (common::FaultPoint("core.kb.ingest") ||
      !common::QfloatEncodable(pattern, size)) {
    return;
  }
  const Slot slot = Append(users_[user], next_location, timestamp, size);
  slot.record->exponent = common::QfloatEncodeInto(pattern, size, slot.q);
}

size_t OnlineAdapter::ObserveDeferred(int64_t user, const float* pattern,
                                      size_t size, int64_t next_location,
                                      int64_t timestamp) {
  ADAMOVE_CHECK_GT(size, 0u);
  if (timestamp <= Watermark(user)) return 0;
  if (!common::QfloatEncodable(pattern, size)) return 0;
  PendingDelta delta{{}, next_location, timestamp};
  common::QfloatEncode(pattern, size, &delta.pattern);
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
  for (const PendingDelta& delta : pending) {
    if (common::FaultPoint("core.kb.ingest")) {
      dropped = true;
      continue;
    }
    const std::vector<int8_t>& q = delta.pattern.q;
    const Slot slot =
        Append(state, delta.next_location, delta.timestamp, q.size());
    slot.record->exponent = delta.pattern.exponent;
    std::memcpy(slot.q, q.data(), q.size());
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

size_t OnlineAdapter::CollectCachedJobs(int64_t user,
                                        common::AlignedBuffer<float>* arena,
                                        std::vector<RebuildJob>* jobs) const {
  auto it = users_.find(user);
  if (it == users_.end() || it->second.cache.jobs.empty()) return 0;
  const CachedRebuild& cache = it->second.cache;
  const size_t base = arena->size();
  // Every kept pattern has the query's width; a capacity of 0 keeps none.
  const size_t width =
      cache.exponents.empty() ? 0 : cache.q.size() / cache.exponents.size();
  arena->Resize(base + cache.q.size());
  for (size_t k = 0; k < cache.exponents.size(); ++k) {
    common::QfloatDecodeInto(cache.q.data() + k * width, width,
                             cache.exponents[k],
                             arena->data() + base + k * width);
  }
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
    common::AlignedBuffer<float>* arena, std::vector<RebuildJob>* jobs) const {
  // Simulated knowledge-base lookup failure: the per-user adjustment is
  // skipped and the frozen scores stand — a valid base-model prediction.
  auto it = common::FaultPoint("core.kb.lookup") ? users_.end()
                                                 : users_.find(user);
  if (it == users_.end()) return 0;
  return Collect(it->second, query, hidden, query_time, arena, jobs, nullptr);
}

size_t OnlineAdapter::CollectAndCacheRebuildJobs(
    int64_t user, const float* query, int64_t hidden, int64_t query_time,
    common::AlignedBuffer<float>* arena, std::vector<RebuildJob>* jobs) {
  const bool lookup_fault = common::FaultPoint("core.kb.lookup");
  auto it = users_.find(user);
  if (it == users_.end()) return 0;
  CachedRebuild& cache = it->second.cache;
  cache.jobs.clear();
  cache.q.clear();
  cache.exponents.clear();
  if (lookup_fault) return 0;
  return Collect(it->second, query, hidden, query_time, arena, jobs, &cache);
}

size_t OnlineAdapter::Collect(const UserState& state, const float* query,
                              int64_t hidden, int64_t query_time,
                              common::AlignedBuffer<float>* arena,
                              std::vector<RebuildJob>* jobs,
                              CachedRebuild* cache) const {
  const size_t width = static_cast<size_t>(hidden);
  const auto capacity = static_cast<size_t>(config_.capacity);
  const std::vector<Record>& records = state.records;
  if (cache != nullptr) {
    // Size the cache exactly, as its accounting assumes: one counting pass
    // over the freshness rule the ranking applies.
    size_t groups = 0, kept = 0;
    for (size_t first = 0, last = 0; first < records.size(); first = last) {
      size_t fresh = 0;
      for (last = first; last < records.size() &&
                         records[last].location == records[first].location;
           ++last) {
        if (Fresh(records[last].timestamp, query_time)) ++fresh;
      }
      groups += fresh > 0 ? 1 : 0;
      kept += std::min(fresh, capacity);
    }
    cache->jobs.reserve(groups);
    cache->q.reserve(kept * width);
    cache->exponents.reserve(kept);
  }
  const double query_norm = Norm(query, width);
  // A location's fresh candidates in FIFO order, ranked by similarity to the
  // query pattern: the record and where its int8 start.
  std::array<std::pair<float, std::pair<const Record*, const int8_t*>>,
             kMaxCandidatesPerLocation>
      ranked;
  size_t appended = 0;
  const int8_t* q = state.q.data();
  for (size_t first = 0, last = 0; first < records.size(); first = last) {
    const int64_t location = records[first].location;
    size_t fresh = 0;
    for (last = first; last < records.size() &&
                       records[last].location == location;
         ++last) {
      const Record& record = records[last];
      const int8_t* bytes = q;
      q += record.size;
      if (!Fresh(record.timestamp, query_time)) continue;
      ADAMOVE_CHECK_EQ(width, size_t{record.size});
      ADAMOVE_CHECK_LT(fresh, ranked.size());
      ranked[fresh++] = {common::QfloatCosine(query, query_norm, bytes, width,
                                              record.exponent),
                         {&record, bytes}};
    }
    if (fresh == 0) continue;
    const size_t keep = std::min(fresh, capacity);
    std::partial_sort(ranked.begin(), ranked.begin() + keep,
                      ranked.begin() + fresh,
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
      const auto& [record, bytes] = ranked[k].second;
      common::QfloatDecodeInto(bytes, width, record->exponent,
                               arena->data() + job.arena_offset + k * width);
    }
    jobs->push_back(job);
    ++appended;
    if (cache == nullptr) continue;
    job.arena_offset = cache->q.size();
    cache->jobs.push_back(job);
    for (size_t k = 0; k < keep; ++k) {
      const auto& [record, bytes] = ranked[k].second;
      cache->q.insert(cache->q.end(), bytes, bytes + width);
      cache->exponents.push_back(record->exponent);
    }
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
                     &scratch->jobs);
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
    Observe(sample.user, reps.data().data() + k * hidden,
            static_cast<size_t>(hidden),
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
  const UserState& state = it->second;
  const int8_t* q = state.q.data();
  for (const Record& record : state.records) {
    // The slab is already in snapshot order: locations ascending, FIFO
    // within a location.
    if (snap.locations.empty() ||
        snap.locations.back().first != record.location) {
      snap.locations.emplace_back(record.location, std::vector<Entry>{});
    }
    Entry entry;
    entry.pattern.exponent = record.exponent;
    entry.pattern.q.assign(q, q + record.size);
    entry.timestamp = record.timestamp;
    snap.locations.back().second.push_back(std::move(entry));
    q += record.size;
  }
  snap.pending = state.pending;
  return snap;
}

void OnlineAdapter::Adopt(UserSnapshot&& snap) {
  UserState state;
  // The snapshot's locations in ascending order with their kept entries:
  // empty patterns (which Observe never stores) dropped, then the newest
  // kMaxCandidatesPerLocation, Observe's FIFO policy. A location repeated
  // in the snapshot keeps its last non-empty occurrence, which is the first
  // one met walking the snapshot backwards — the one std::unique keeps.
  std::vector<std::pair<int64_t, const std::vector<Entry>*>> kept;
  for (auto it = snap.locations.rbegin(); it != snap.locations.rend(); ++it) {
    std::vector<Entry>& entries = it->second;
    std::erase_if(entries,
                  [](const Entry& entry) { return entry.pattern.q.empty(); });
    if (entries.empty()) continue;
    if (entries.size() > kMaxCandidatesPerLocation) {
      entries.erase(entries.begin(),
                    entries.end() - kMaxCandidatesPerLocation);
    }
    kept.emplace_back(it->first, &entries);
  }
  const auto same_location = [](const auto& a, const auto& b) {
    return a.first == b.first;
  };
  std::stable_sort(
      kept.begin(), kept.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  kept.erase(std::unique(kept.begin(), kept.end(), same_location), kept.end());
  size_t records = 0, bytes = 0;
  for (const auto& [location, entries] : kept) {
    records += entries->size();
    for (const Entry& entry : *entries) bytes += entry.pattern.q.size();
  }
  state.records.reserve(records);
  state.q.reserve(bytes);
  // The kept entries share a size exactly when each has the average one.
  state.width = records == 0 ? 0 : static_cast<uint32_t>(bytes / records);
  for (const auto& [location, entries] : kept) {
    for (const Entry& entry : *entries) {
      const std::vector<int8_t>& q = entry.pattern.q;
      ADAMOVE_CHECK_LE(q.size(), size_t{UINT32_MAX});
      if (q.size() != state.width) state.width = 0;
      state.records.push_back(Record{location, entry.timestamp,
                                     entry.pattern.exponent,
                                     static_cast<uint32_t>(q.size())});
      state.q.insert(state.q.end(), q.begin(), q.end());
    }
  }
  // Install pending deltas under the same per-location coalescing bound
  // ObserveDeferred enforces (newest win), so a hostile snapshot cannot
  // inflate the buffer past what a live deferral could hold.
  for (PendingDelta& delta : snap.pending) {
    if (delta.pattern.q.empty()) continue;
    size_t for_location = 0;
    for (const PendingDelta& kept_delta : state.pending) {
      if (kept_delta.next_location == delta.next_location) ++for_location;
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
  if (state.records.empty() && state.pending.empty()) {
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
  const size_t n = it->second.records.size();
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
  bytes += state.records.capacity() * sizeof(Record);
  bytes += state.q.capacity();
  bytes += state.pending.capacity() * sizeof(PendingDelta);
  for (const PendingDelta& delta : state.pending) {
    bytes += delta.pattern.q.capacity();
  }
  bytes += state.cache.jobs.capacity() * sizeof(RebuildJob);
  bytes += state.cache.q.capacity();
  bytes += state.cache.exponents.capacity() * sizeof(int32_t);
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
  return it == users_.end() ? 0 : it->second.records.size();
}

}  // namespace adamove::core
