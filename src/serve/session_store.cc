#include "serve/session_store.h"

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"

namespace adamove::serve {

namespace {

/// Serving-snapshot format version: 2 since frames are the compact user
/// blob and one file covers both tiers.
constexpr uint32_t kSnapshotVersion = 2;

/// Row k of the first window transition (pattern h_k, labelled by point
/// k+1) whose label is newer than `watermark`, or t-1 when none is. Every
/// label before it is no later than the watermark, so the adapter's ingest
/// rule would skip it: starting here absorbs exactly what observing the
/// whole window would, without building the skipped patterns.
int64_t FirstNewTransition(const data::Sample& sample, int64_t watermark) {
  const int64_t t = static_cast<int64_t>(sample.recent.size());
  int64_t k = 0;
  while (k + 1 < t &&
         sample.recent[static_cast<size_t>(k + 1)].timestamp <= watermark) {
    ++k;
  }
  return k;
}

}  // namespace

SessionStore::SessionStore(const SessionStoreConfig& config)
    : config_(config) {
  ADAMOVE_CHECK_GT(config.num_shards, 0);
  if (config.max_resident_users > 0) {
    per_shard_cap_ =
        (config.max_resident_users +
         static_cast<size_t>(config.num_shards) - 1) /
        static_cast<size_t>(config.num_shards);
  }
  shards_.reserve(static_cast<size_t>(config.num_shards));
  for (int i = 0; i < config.num_shards; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(config.ptta, config.max_age_seconds));
  }
}

int SessionStore::ShardOf(int64_t user) const {
  return static_cast<int>(std::hash<int64_t>{}(user) % shards_.size());
}

void SessionStore::TouchLocked(Shard& shard, int64_t user) {
  auto it = shard.lru_pos.find(user);
  if (it != shard.lru_pos.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(user);
  shard.lru_pos[user] = shard.lru.begin();
  if (per_shard_cap_ > 0 && shard.lru.size() > per_shard_cap_) {
    const int64_t victim = shard.lru.back();
    shard.lru.pop_back();
    shard.lru_pos.erase(victim);
    // With a cold tier the victim is dehydrated, not lost: its complete
    // state moves to the compact representation and comes back via
    // EnsureResidentLocked on the next touch.
    if (config_.cold_tier != nullptr) {
      config_.cold_tier->Accept(shard.adapter.ExportUser(victim));
      dehydrations_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.adapter.Forget(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool SessionStore::EnsureResidentLocked(Shard& shard, int64_t user) {
  if (config_.cold_tier == nullptr) return true;
  if (shard.adapter.HasUser(user)) return true;
  // Simulated hydration failure (cold-tier read error): probed before the
  // tier is touched, so nothing moves and nothing is lost — the request
  // degrades to the frozen path and the user's compact state stays intact
  // for the next attempt.
  if (common::FaultPoint("core.state_hydrate")) return false;
  core::OnlineAdapter::UserSnapshot snap;
  if (config_.cold_tier->Take(user, &snap)) {
    shard.adapter.Adopt(std::move(snap));
    hydrations_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void SessionStore::Observe(int64_t user, const std::vector<float>& pattern,
                           int64_t next_location, int64_t timestamp) {
  Shard& shard = *shards_[static_cast<size_t>(ShardOf(user))];
  common::MutexLock lock(shard.mu);
  // A blocked hydration must not mutate state; ingesting into a fresh
  // knowledge base here would fork the user's history against the compact
  // copy, so the observation is dropped (the degradation the chaos tests
  // pin is "stale or frozen, never forked").
  if (!EnsureResidentLocked(shard, user)) return;
  TouchLocked(shard, user);
  shard.adapter.Observe(user, pattern, next_location, timestamp);
}

std::vector<std::vector<float>> SessionStore::BatchObserveAndPredictEncoded(
    const core::AdaptableModel& model,
    const std::vector<BatchRequest>& requests,
    std::vector<AdaptStatus>* statuses) {
  const size_t n = requests.size();
  if (statuses != nullptr) statuses->resize(n);
  RequestScratch scratch;
  std::vector<std::vector<float>> scores(n);
  for (size_t r = 0; r < n; ++r) {
    const AdaptStatus status = ObserveAndPredictInto(
        model, *requests[r].sample, requests[r].reps, &scratch);
    if (statuses != nullptr) (*statuses)[r] = status;
    scores[r] = scratch.scores;
  }
  return scores;
}

AdaptStatus SessionStore::ObserveAndPredictInto(
    const core::AdaptableModel& model, const data::Sample& sample,
    RepsView reps, RequestScratch* scratch) {
  ADAMOVE_CHECK_EQ(static_cast<size_t>(reps.rows), sample.recent.size());
  scratch->arena.Clear();
  scratch->jobs.clear();
  const AdaptStatus status = IngestAndCollect(sample, reps, scratch);
  // Phase 2, outside every shard lock: frozen column scores + the collected
  // adjusted columns + bias — Predict's exact arithmetic. The kernels run
  // serial inside ScoreCollectedJobsInto (value-neutral — DESIGN.md §13 —
  // and allocation-free).
  core::OnlineAdapter::ScoreCollectedJobsInto(model, reps.query(), reps.cols,
                                              scratch->jobs, scratch->arena,
                                              &scratch->scores);
  return status;
}

AdaptStatus SessionStore::IngestAndCollect(const data::Sample& sample,
                                           RepsView reps,
                                           RequestScratch* scratch) {
  const int64_t t = reps.rows;
  const int64_t hidden = reps.cols;
  // Simulated session-state loss (cache miss, shard failover): no
  // per-user state is touched; the base model still answers.
  if (common::FaultPoint("serve.session_lookup")) {
    return AdaptStatus::kStateUnavailable;
  }
  // Warm-start gate: while a Restore is in flight, a user whose durable
  // state has not landed yet is served the frozen base model and writes
  // nothing — growing fresh state here would be clobbered by the user's
  // snapshot frame. Users already restored fall through to the normal
  // adapted path (progressive recovery).
  Shard& shard = *shards_[static_cast<size_t>(ShardOf(sample.user))];
  if (warming_.load(std::memory_order_acquire)) {
    common::MutexLock lock(shard.mu);
    if (!shard.adapter.HasUser(sample.user)) {
      return AdaptStatus::kWarmStartPending;
    }
  }
  common::MutexLock lock(shard.mu);
  // Cold-tier hydration failure: same degraded outcome as a session-lookup
  // fault — the base model answers, and by the hydrate contract no state
  // (hot, cold, or LRU) has been touched.
  if (!EnsureResidentLocked(shard, sample.user)) {
    return AdaptStatus::kStateUnavailable;
  }
  TouchLocked(shard, sample.user);
  // Mirrors OnlineAdapter::ObserveAndPredict exactly (the determinism test
  // depends on bit-identical arithmetic): each prefix representation is a
  // labeled pattern for the *next* point, the final row is the query.
  // Transitions at or below the key's watermark were absorbed by earlier
  // requests and are skipped before their patterns are built. A
  // `serve.ptta_generate` fault skips ingestion of this request's
  // transitions — the prediction then answers from stale state, and the
  // next request of the key sends them again.
  const bool generate_fault = common::FaultPoint("serve.ptta_generate");
  if (!generate_fault) {
    for (int64_t k = FirstNewTransition(
             sample, shard.adapter.Watermark(sample.user));
         k + 1 < t; ++k) {
      shard.adapter.Observe(
          sample.user, reps.data + k * hidden, static_cast<size_t>(hidden),
          sample.recent[static_cast<size_t>(k + 1)].location,
          sample.recent[static_cast<size_t>(k + 1)].timestamp);
    }
  }
  shard.adapter.CollectRebuildJobs(sample.user, reps.query(), hidden,
                                   sample.target.timestamp, &scratch->arena,
                                   &scratch->jobs);
  return generate_fault ? AdaptStatus::kStaleState : AdaptStatus::kAdapted;
}

void SessionStore::Forget(int64_t user) {
  Shard& shard = *shards_[static_cast<size_t>(ShardOf(user))];
  common::MutexLock lock(shard.mu);
  // The cold tier may hold a dehydrated copy even when the hot tier does
  // not — drop both so "forget" really means gone.
  if (config_.cold_tier != nullptr) {
    core::OnlineAdapter::UserSnapshot discard;
    config_.cold_tier->Take(user, &discard);
  }
  auto it = shard.lru_pos.find(user);
  if (it == shard.lru_pos.end()) return;
  shard.lru.erase(it->second);
  shard.lru_pos.erase(it);
  shard.adapter.Forget(user);
}

bool SessionStore::ExtractUser(int64_t user,
                               core::OnlineAdapter::UserSnapshot* out) {
  Shard& shard = *shards_[static_cast<size_t>(ShardOf(user))];
  common::MutexLock lock(shard.mu);
  if (shard.adapter.HasUser(user)) {
    *out = shard.adapter.ExportUser(user);
    auto it = shard.lru_pos.find(user);
    if (it != shard.lru_pos.end()) {
      shard.lru.erase(it->second);
      shard.lru_pos.erase(it);
    }
    shard.adapter.Forget(user);
    return true;
  }
  return config_.cold_tier != nullptr && config_.cold_tier->Take(user, out);
}

void SessionStore::InjectUser(core::OnlineAdapter::UserSnapshot&& snap) {
  if (snap.locations.empty()) return;
  Shard& shard = *shards_[static_cast<size_t>(ShardOf(snap.user))];
  common::MutexLock lock(shard.mu);
  AdoptLocked(shard, std::move(snap));
}

void SessionStore::AdoptLocked(Shard& shard,
                               core::OnlineAdapter::UserSnapshot&& snap) {
  // A user lives in at most one tier, so a snapshot names it once (Restore
  // rejects a repeated user).
  if (config_.cold_tier != nullptr) {
    core::OnlineAdapter::UserSnapshot discard;
    config_.cold_tier->Take(snap.user, &discard);
  }
  TouchLocked(shard, snap.user);
  shard.adapter.Adopt(std::move(snap));
}

bool SessionStore::EvictToCold(int64_t user) {
  if (config_.cold_tier == nullptr) return false;
  Shard& shard = *shards_[static_cast<size_t>(ShardOf(user))];
  common::MutexLock lock(shard.mu);
  if (!shard.adapter.HasUser(user)) return false;
  config_.cold_tier->Accept(shard.adapter.ExportUser(user));
  dehydrations_.fetch_add(1, std::memory_order_relaxed);
  auto it = shard.lru_pos.find(user);
  if (it != shard.lru_pos.end()) {
    shard.lru.erase(it->second);
    shard.lru_pos.erase(it);
  }
  shard.adapter.Forget(user);
  return true;
}

std::vector<int64_t> SessionStore::ResidentUsers() const {
  std::vector<int64_t> users;
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    const std::vector<int64_t> shard_users = shard->adapter.Users();
    users.insert(users.end(), shard_users.begin(), shard_users.end());
  }
  std::sort(users.begin(), users.end());
  return users;
}

size_t SessionStore::ResidentBytes() const {
  size_t bytes = 0;
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    bytes += shard->adapter.ResidentBytes();
  }
  return bytes;
}

size_t SessionStore::UserCount() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    n += shard->adapter.UserCount();
  }
  return n;
}

size_t SessionStore::PatternCount(int64_t user) const {
  const Shard& shard = *shards_[static_cast<size_t>(ShardOf(user))];
  common::MutexLock lock(shard.mu);
  return shard.adapter.PatternCount(user);
}

common::IoResult SessionStore::Snapshot(const std::string& path,
                                        SnapshotStats* stats) const {
  std::vector<std::string> frames;
  size_t patterns = 0;
  uint32_t pattern_dim = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    // Capture under the shard mutex: its hot users, then the cold users
    // that hash to it. A user changes tier only under this mutex, so it is
    // captured exactly once.
    std::vector<core::OnlineAdapter::UserSnapshot> captured;
    {
      common::MutexLock lock(shard.mu);
      for (int64_t user : shard.adapter.Users()) {
        captured.push_back(shard.adapter.ExportUser(user));
      }
      if (config_.cold_tier != nullptr) {
        config_.cold_tier->CopyUsers(
            [this, s](int64_t user) {
              return static_cast<size_t>(ShardOf(user)) == s;
            },
            &captured);
      }
    }
    // Encode outside the lock — byte work doesn't need the shard.
    std::sort(captured.begin(), captured.end(),
              [](const auto& a, const auto& b) { return a.user < b.user; });
    for (const auto& snap : captured) {
      if (snap.locations.empty()) continue;
      std::string frame;
      core::OnlineAdapter::EncodeUser(snap, &frame);
      frames.push_back(std::move(frame));
      for (const auto& [location, entries] : snap.locations) {
        patterns += entries.size();
        if (pattern_dim == 0 && !entries.empty()) {
          pattern_dim =
              static_cast<uint32_t>(entries.front().pattern.q.size());
        }
      }
    }
  }
  common::FramedFileWriter writer(kSnapshotMagic);
  std::string header;
  common::AppendU32(&header, kSnapshotVersion);
  common::AppendU32(&header, pattern_dim);
  common::AppendU64(&header, static_cast<uint64_t>(frames.size()));
  writer.AddFrame(header);
  for (const std::string& frame : frames) writer.AddFrame(frame);
  if (stats != nullptr) {
    stats->users = frames.size();
    stats->patterns = patterns;
    stats->bytes = writer.byte_size();
    stats->torn_tail = false;
  }
  return writer.Commit(path);
}

common::IoResult SessionStore::Restore(const std::string& path,
                                       SnapshotStats* stats) {
  common::FramedRead framed;
  common::IoResult read =
      common::ReadFramedFile(path, kSnapshotMagic, &framed);
  // On a CRC/decode error mid-file the verified prefix in framed.frames is
  // still imported below — recovery salvages every intact user — and the
  // structured error is returned so the caller knows the file was cut short
  // by corruption rather than a torn tail.
  SnapshotStats imported;
  const auto finish = [&](common::IoResult result) {
    if (stats != nullptr) *stats = imported;
    return result;
  };
  if (framed.frames.empty()) {
    if (!read) return finish(read);
    return finish(
        common::IoResult::Fail(path + ": snapshot has no header frame"));
  }
  common::WireReader header(framed.frames[0]);
  uint32_t version = 0;
  uint32_t pattern_dim = 0;
  uint64_t declared_users = 0;
  if (!header.ReadU32(&version) || !header.ReadU32(&pattern_dim) ||
      !header.ReadU64(&declared_users) || !header.AtEnd()) {
    return finish(common::IoResult::Fail(path + ": malformed snapshot header"));
  }
  if (version != kSnapshotVersion) {
    return finish(common::IoResult::Fail(
        path + ": unsupported snapshot version " + std::to_string(version)));
  }
  imported.torn_tail = framed.torn_tail;
  std::unordered_set<int64_t> seen;
  for (size_t f = 1; f < framed.frames.size(); ++f) {
    const auto reject = [&](const std::string& why) {
      return finish(common::IoResult::Fail(path + ": frame " +
                                           std::to_string(f) + ": " + why));
    };
    core::OnlineAdapter::UserSnapshot snap;
    const common::IoResult decoded =
        core::OnlineAdapter::DecodeUser(framed.frames[f], &snap);
    if (!decoded) return reject(decoded.error);
    // Snapshot writes each user once; a repeated id is corruption, and
    // installing it twice would make stats.users overcount the store.
    if (!seen.insert(snap.user).second) {
      return reject("duplicate user " + std::to_string(snap.user));
    }
    // Every pattern must match the header's dimension: a mixed-dim user
    // would abort in the cosine kernel at query time, so reject it at the
    // door instead (prior imports stand — each user is all-or-nothing).
    size_t user_patterns = 0;
    bool dim_ok = true;
    for (const auto& [location, entries] : snap.locations) {
      for (const auto& entry : entries) {
        if (entry.pattern.q.size() != pattern_dim) dim_ok = false;
        ++user_patterns;
      }
    }
    if (!dim_ok) {
      return reject("user " + std::to_string(snap.user) +
                    " has a pattern whose dimension does not match the "
                    "snapshot header");
    }
    if (snap.locations.empty()) continue;  // nothing to install
    imported.bytes += framed.frames[f].size();
    imported.patterns += user_patterns;
    ++imported.users;
    // Lock only this user's shard: restore runs frame by frame while the
    // other shards keep serving. TouchLocked keeps the residency cap honest
    // even when the snapshot holds more users than the cap allows.
    Shard& shard = *shards_[static_cast<size_t>(ShardOf(snap.user))];
    common::MutexLock lock(shard.mu);
    AdoptLocked(shard, std::move(snap));
  }
  // Only a file that read back clean end-to-end owes us the declared user
  // count; a torn or corrupt file already reports its own condition.
  if (read && !framed.torn_tail &&
      framed.frames.size() - 1 != declared_users) {
    return finish(common::IoResult::Fail(
        path + ": header declares " + std::to_string(declared_users) +
        " users but the file holds " +
        std::to_string(framed.frames.size() - 1) + " user frames"));
  }
  return finish(read);
}

}  // namespace adamove::serve
