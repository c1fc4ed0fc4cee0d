#ifndef ADAMOVE_CORE_ONLINE_ADAPTER_H_
#define ADAMOVE_CORE_ONLINE_ADAPTER_H_

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/durable_io.h"
#include "common/qfloat.h"
#include "core/config.h"
#include "core/model.h"

namespace adamove::core {

struct AdapterStats;  // core/ptta.h

/// Streaming variant of PTTA for the real-time deployment §III-B sketches:
/// instead of rebuilding the knowledge base from scratch for every query,
/// the adapter keeps a *persistent per-user knowledge base* that absorbs
/// each observed transition once (pattern h_t with the next location as its
/// label) and answers queries from the accumulated state.
///
/// Ingest-once rule (DESIGN.md §4.3): a transition is *new* for a user only
/// if its label timestamp is strictly later than the user's watermark — the
/// newest label timestamp its state holds, over stored entries and pending
/// deltas. Observe and ObserveDeferred return without effect for anything
/// else, so re-sending an overlapping window (every serving request carries
/// the user's whole recent window) stores each check-in exactly once. The
/// watermark is derived state: never serialized, recomputed by Adopt.
///
/// Stored form (DESIGN.md §4.3): every pattern is quantized once, where it
/// enters the adapter (Observe, ObserveDeferred), into q8 — one power-of-two
/// exponent and one int8 per element (common/qfloat.h) — and stays in that
/// form through snapshots, eviction, migration and the compact cold tier. A
/// user's knowledge base is one flat slab: a 24-byte record per pattern
/// (location, timestamp, exponent, size), grouped by ascending location and
/// in FIFO order within a location, plus one contiguous int8 array holding
/// the patterns in the same order.
/// Everything that reads a pattern sees its exact dequantized floats, so
/// answers are those of an adapter fed QfloatCanonicalize(pattern). A
/// pattern with a non-finite element has no q8 form and is never stored.
///
/// Differences from the per-sample TestTimeAdapter:
///  * O(1) incremental updates per new check-in instead of O(N) per query;
///  * patterns age out: each entry's importance is its similarity to the
///    *query* pattern, recomputed at prediction time over at most
///    `max_patterns_per_location` stored candidates (bounded memory);
///  * entries older than `max_age_seconds` relative to the query are
///    dropped — the analogue of the sliding recent-trajectory window.
///
/// Concurrency contract: OnlineAdapter is *thread-compatible*, never
/// thread-safe — it holds no lock of its own, by design: in the serving
/// layer each serve::SessionStore shard owns one adapter and declares it
/// `ADAMOVE_GUARDED_BY(shard mutex)` (common/annotations.h), so every
/// access is proven to hold the shard lock at compile time under
/// ADAMOVE_ANALYZE=ON. An internal mutex here would be redundant
/// double-locking at exactly the same granularity. Standalone users get
/// the same contract by wrapping the adapter in a common::Mutex-guarded
/// owner.
class OnlineAdapter {
 public:
  /// One stored candidate: the trajectory pattern, quantized, plus the
  /// timestamp it was observed at (freshness ages out against this). The
  /// interchange form of a slab record — the unit snapshots, the cold tier
  /// and migration carry (ExportUser, Adopt).
  struct Entry {
    common::QfloatBlock pattern;
    int64_t timestamp = 0;
  };

  /// One buffered (not yet ingested) transition of a deferred-mode user:
  /// exactly Observe's arguments with the pattern already quantized, queued
  /// in arrival order. Draining the buffer lands them through Observe's FIFO
  /// append, so a drained user's knowledge base is bit-identical to an
  /// inline run of the same observations.
  struct PendingDelta {
    common::QfloatBlock pattern;
    int64_t next_location = 0;
    int64_t timestamp = 0;
  };

  /// The complete stored state of one user, in the deterministic order the
  /// snapshot wire format uses (locations ascending, entries in FIFO
  /// arrival order, pending deltas in arrival order) — so identical adapter
  /// state encodes to identical bytes, which is what lets the durability
  /// tests pin snapshots golden. `pending` is the deferred-mode ingest
  /// buffer; it travels with the user through eviction, migration and
  /// snapshots so deferral never loses observations.
  struct UserSnapshot {
    int64_t user = 0;
    std::vector<std::pair<int64_t, std::vector<Entry>>> locations;
    std::vector<PendingDelta> pending;
  };

  OnlineAdapter(const PttaConfig& config, int64_t max_age_seconds =
                                              5 * 72 * 3600 /* ~c=5 windows */)
      : config_(config), max_age_seconds_(max_age_seconds) {}

  /// Ingests one observed transition of `user`: the trajectory pattern
  /// `pattern` (the encoder state before the visit) whose true next
  /// location turned out to be `next_location` at `timestamp`. Idempotent:
  /// a transition whose `timestamp` is not strictly later than
  /// Watermark(user) was already absorbed (or is older than what was) and
  /// returns without effect — core.kb.ingest is probed only for new ones.
  /// The pattern is stored as its q8 block; one with a non-finite element
  /// is dropped as if the ingest fault had fired.
  /// `pattern` points at `size` floats — the serving path passes an encoder
  /// row straight through — and is quantized directly into the slab.
  void Observe(int64_t user, const float* pattern, size_t size,
               int64_t next_location, int64_t timestamp);

  /// Observe over a whole vector.
  void Observe(int64_t user, const std::vector<float>& pattern,
               int64_t next_location, int64_t timestamp) {
    Observe(user, pattern.data(), pattern.size(), next_location, timestamp);
  }

  /// Deferred-mode ingest: buffers the transition into the user's pending
  /// queue instead of touching the knowledge base, under Observe's rule (a
  /// transition that is not new returns 0 without effect; a buffered one
  /// advances the watermark, so a later re-send is not buffered twice). The
  /// pattern is quantized here; a non-finite one is not buffered.
  /// Pending deltas are coalesced exactly: at most kMaxCandidatesPerLocation
  /// deltas per next location are kept (dropping the oldest), because the
  /// FIFO cap would discard anything older on drain anyway — so coalescing
  /// changes nothing about the post-drain state. Returns the number of
  /// deltas dropped by coalescing (0 or 1). Does not probe core.kb.ingest;
  /// the probe happens at drain time, when the observation actually lands.
  size_t ObserveDeferred(int64_t user, const float* pattern, size_t size,
                         int64_t next_location, int64_t timestamp);

  /// ObserveDeferred over a whole vector.
  size_t ObserveDeferred(int64_t user, const std::vector<float>& pattern,
                         int64_t next_location, int64_t timestamp) {
    return ObserveDeferred(user, pattern.data(), pattern.size(), next_location,
                           timestamp);
  }

  /// Lands the user's pending deltas in arrival order (each already passed
  /// the ingest rule when it was buffered, so none is re-checked) and clears
  /// the buffer. Returns the number of deltas drained. With faults
  /// disarmed, Drain after any mix of ObserveDeferred calls leaves the
  /// knowledge base bit-identical to inline Observe calls of the same
  /// sequence (the deferred-drain parity invariant, pinned by tests).
  size_t DrainPending(int64_t user);

  /// The user's watermark: the newest label timestamp over its stored
  /// entries and pending deltas, or kNoWatermark for a user without state.
  /// A transition is new iff its label timestamp is strictly later.
  int64_t Watermark(int64_t user) const;

  /// Watermark of a user without state: every transition is new.
  static constexpr int64_t kNoWatermark =
      std::numeric_limits<int64_t>::min();

  /// Drains up to `max_users` dirty users (ascending user id — the
  /// deterministic order; 0 = all). Returns the number of users drained.
  size_t DrainSomePending(size_t max_users);

  /// Buffered deltas for a user (0 if unknown or clean).
  size_t PendingCount(int64_t user) const;

  /// Total buffered deltas across users.
  size_t PendingTotal() const;

  /// Users with a non-empty pending buffer.
  size_t DirtyUserCount() const { return dirty_.size(); }

  /// All dirty users, ascending.
  std::vector<int64_t> DirtyUsers() const {
    return std::vector<int64_t>(dirty_.begin(), dirty_.end());
  }

  /// Adapted scores for `user`'s current trajectory state: the model's
  /// classifier columns are replaced by centroids of {θ_l} ∪ the top-M
  /// stored patterns most similar to `query` that are fresh at
  /// `query_time`.
  ///
  /// Strictly read-only: neither the stored entries nor the model are
  /// mutated (the model is taken by const reference to enforce it), so
  /// Predict on one OnlineAdapter instance may run concurrently with
  /// Observe/Forget on *other* instances — the per-shard layout of
  /// serve::SessionStore. Calls on the *same* instance still need external
  /// synchronization against writers.
  ///
  /// `stats`, when non-null, reports capacity diagnostics for this call:
  /// columns_updated / weight_bytes_touched as in TestTimeAdapter, plus
  /// resident_bytes = this user's knowledge-base footprint (ResidentBytes).
  std::vector<float> Predict(const AdaptableModel& model, int64_t user,
                             const std::vector<float>& query,
                             int64_t query_time,
                             AdapterStats* stats = nullptr) const;

  /// One deferred adjusted-column rebuild produced by CollectRebuildJobs:
  /// which classifier column the knowledge base touches, how many patterns
  /// were kept for it, and where their contiguous copy starts in the
  /// pattern arena.
  struct RebuildJob {
    int64_t location = 0;
    int64_t keep = 0;
    size_t arena_offset = 0;
  };

  /// Reusable per-worker state for the zero-allocation predict path
  /// (DESIGN.md §14). Every container reuses capacity across requests, so
  /// after warm-up PredictInto / PredictFrozenInto / ScoreCollectedJobsInto
  /// perform zero heap allocations per request (pinned by
  /// tests/core/zero_alloc_predict_test.cc under the `plan` ctest label).
  struct PredictScratch {
    common::AlignedBuffer<float> arena;  // kept pattern copies
    std::vector<RebuildJob> jobs;        // phase-1 output
    std::vector<float> scores;           // final scores
  };

  /// Phase 1 of Predict, factored out so the serving layer can run it for a
  /// whole micro-batch under the shard lock and defer the arithmetic: ranks
  /// each location's fresh-at-`query_time` candidates (at most
  /// kMaxCandidatesPerLocation, in FIFO order, ranked in a fixed stack array)
  /// by similarity to `query` (over their dequantized values), dequantizes
  /// the kept patterns into `arena` (contiguous, descending similarity — the
  /// order the centroid sums them) and appends one RebuildJob per touched
  /// location to `jobs`, in ascending location order. Probes the
  /// core.kb.lookup fault point exactly as Predict does (on fault: appends
  /// nothing). Jobs record arena *offsets*, never pointers, so later appends
  /// (other requests in the batch) and subsequent adapter mutation
  /// (eviction, ingestion) cannot invalidate them. Returns the number of jobs
  /// appended. `query` must point at `hidden` floats — the serving path
  /// feeds it straight from a raw-encoded representation buffer. Allocates
  /// nothing once `arena` and `jobs` have grown.
  size_t CollectRebuildJobs(int64_t user, const float* query, int64_t hidden,
                            int64_t query_time,
                            common::AlignedBuffer<float>* arena,
                            std::vector<RebuildJob>* jobs) const;

  /// The six-argument form plus a ranking-scratch argument it ignores: the
  /// ranking needs no caller scratch. Kept only because the frozen perfbench
  /// calls it (ROADMAP item 2's deletion list).
  size_t CollectRebuildJobs(int64_t user, const float* query, int64_t hidden,
                            int64_t query_time,
                            common::AlignedBuffer<float>* arena,
                            std::vector<RebuildJob>* jobs,
                            std::vector<std::pair<float, const Entry*>>*
                            /*fresh*/) const {
    return CollectRebuildJobs(user, query, hidden, query_time, arena, jobs);
  }

  /// CollectRebuildJobs, and the result becomes the user's cached rebuild,
  /// so a later deferred-mode predict can reuse it without re-ranking — the
  /// elastic rung's inline path. The cache holds the kept records' int8
  /// bytes and exponents (copied out of the slab, so it survives any later
  /// mutation) and replaces the previous one; a lookup fault or a rebuild
  /// without jobs leaves it empty. Purely derived state: it is never
  /// serialized, and Forget/Adopt drop it. ResidentBytes counts it.
  size_t CollectAndCacheRebuildJobs(int64_t user, const float* query,
                                    int64_t hidden, int64_t query_time,
                                    common::AlignedBuffer<float>* arena,
                                    std::vector<RebuildJob>* jobs);

  /// Appends the user's cached rebuild jobs (rebased into `arena`) to
  /// `jobs` — the deferred-mode predict path: no ranking, one dequantizing
  /// pass over the cached block. Returns the number of jobs appended (0 when
  /// the user has no cache; the caller then serves frozen-column scores,
  /// which is the same scoring sweep with zero jobs).
  size_t CollectCachedJobs(int64_t user, common::AlignedBuffer<float>* arena,
                           std::vector<RebuildJob>* jobs) const;

  /// Whether the user has a cached rebuild.
  bool HasRebuildCache(int64_t user) const;

  /// Phase 2: frozen-classifier scores for `query` with the adjusted
  /// columns described by `jobs` (from CollectRebuildJobs with this same
  /// query) overwritten, plus bias — exactly Predict's arithmetic,
  /// bit-identical to the historical per-location centroid loops. Static
  /// and read-only on the model + arena snapshot (no adapter state), so the
  /// batched serving sweep runs it *outside* the shard lock, one contiguous
  /// vectorized pass per request. Writes into `scores` (resized once to
  /// num_locations; capacity reuse makes steady state alloc-free) and forces
  /// kernels serial inside the call (common::SerialKernelRegion —
  /// value-neutral by the §13 determinism contract, and the thread-pool path
  /// would allocate futures).
  static void ScoreCollectedJobsInto(const AdaptableModel& model,
                                     const float* query, int64_t hidden,
                                     const std::vector<RebuildJob>& jobs,
                                     const common::AlignedBuffer<float>& arena,
                                     std::vector<float>* scores);

  /// Unadapted scores: `query` against the model's frozen classifier columns
  /// (plus bias) — exactly the scores Predict returns for locations the
  /// knowledge base never touched. This is the serving path's base-model
  /// fallback when per-user state is unavailable (fault, eviction, deadline):
  /// a degraded prediction that still comes from the real model. Touches no
  /// per-user state, hence static and safe without any shard lock. `query`
  /// must point at `hidden` floats; the result lands in `scores`, resized to
  /// num_locations, allocation-free once warm.
  static void PredictFrozenInto(const AdaptableModel& model,
                                const float* query, int64_t hidden,
                                std::vector<float>* scores);

  /// Allocation-free Predict: phase 1 + phase 2 through the caller's
  /// PredictScratch (arena cleared, capacity kept), result in
  /// scratch->scores. Exactly Predict's arithmetic — Predict delegates
  /// here — with zero heap allocations per request once the scratch is
  /// warm.
  void PredictInto(const AdaptableModel& model, int64_t user,
                   const float* query, int64_t hidden, int64_t query_time,
                   PredictScratch* scratch,
                   AdapterStats* stats = nullptr) const;

  /// Convenience: encode `sample.recent` with the model, observe all of
  /// its transitions, and predict. Idempotent by Observe's rule: sending a
  /// window again, or one that overlaps an earlier one, absorbs only the
  /// check-ins the user has not reported yet.
  std::vector<float> ObserveAndPredict(AdaptableModel& model,
                                       const data::Sample& sample);

  /// Stored patterns for a user (across locations); 0 if unknown.
  size_t PatternCount(int64_t user) const;

  /// Heap-byte estimate of one user's resident state (0 if unknown): the
  /// capacity of the slab's two arrays — a stored dim-64 pattern costs its
  /// 24-byte record plus 64 int8, and both arrays grow by kSlabStep
  /// patterns or a sixteenth of their size, whichever is larger — plus the
  /// pending deltas, the cached rebuild (one int8 per kept element, one
  /// exponent per kept pattern, one RebuildJob per job) and fixed per-user
  /// overheads. Deterministic accounting rather than malloc truth — close
  /// enough to compare the hot representation against the shard
  /// subsystem's compact tier (AdapterStats::resident_bytes,
  /// BENCH_capacity.json).
  size_t ResidentBytes(int64_t user) const;

  /// ResidentBytes summed over every resident user.
  size_t ResidentBytes() const;

  /// Drops the stored state of one user (no-op for unknown users) — the
  /// eviction hook used by serve::SessionStore's LRU policy. Returns the
  /// number of patterns dropped.
  size_t Forget(int64_t user);

  /// Distinct users with stored state.
  size_t UserCount() const { return users_.size(); }

  /// Whether `user` has any stored state — the warm-start gate's probe.
  bool HasUser(int64_t user) const { return users_.count(user) > 0; }

  /// All users with stored state, ascending — the deterministic snapshot
  /// iteration order.
  std::vector<int64_t> Users() const;

  /// Deep copy of one user's stored state (empty snapshot for unknown
  /// users), locations ascending — int8 blocks copied, nothing converted.
  UserSnapshot ExportUser(int64_t user) const;

  /// Installs `snap` as the user's complete state, replacing whatever was
  /// stored. Enforces the per-location candidate cap (keeping the newest
  /// entries, matching Observe's FIFO policy), so even a hostile snapshot
  /// cannot inflate memory past the normal bound, drops empty patterns
  /// (which Observe never stores), and derives the watermark from what it
  /// keeps — an adopted user resumes exactly where the exporting one stood.
  void Adopt(UserSnapshot&& snap);

  /// The one per-user wire format (DESIGN.md §11–12): a serving-snapshot
  /// frame and a cold-tier blob are the same bytes. Layout (integers
  /// varint/zigzag over common::durable_io):
  ///
  ///   zigzag  user id
  ///   varint  pattern dimension D (the first entry's size, else the first
  ///           pending delta's; other sizes use mode 2 below)
  ///   varint  location count
  ///   per location (ids strictly ascending, delta-encoded):
  ///     zigzag  location delta vs previous location
  ///     varint  entry count (>= 1)
  ///     per entry (FIFO order, timestamps delta-encoded within the location):
  ///       zigzag  timestamp delta vs previous entry
  ///       u8      mode: 1 = q8 (zigzag exponent followed by D int8 bytes —
  ///               common/qfloat.h), 2 = raw f32 with an explicit varint
  ///               length (entries whose size != D)
  ///   pending-delta section, present only when `pending` is non-empty:
  ///     varint  pending count (>= 1)
  ///     per delta (arrival order, timestamps delta-encoded across the
  ///     section):
  ///       zigzag  timestamp delta vs previous delta
  ///       zigzag  next location
  ///       u8      mode + payload, as for entries
  ///
  /// Encode copies each block's exponent and int8 bytes (mode 1), and Decode
  /// copies them back — no float conversion. Only an entry whose size
  /// differs from D (Observe accepts any size, so one user may mix
  /// dimensions) is written as its exact dequantized floats and re-quantized
  /// on decode, which reproduces the block; a non-finite raw pattern is
  /// dropped. Identical state therefore encodes to identical bytes, and
  /// encode → decode → Adopt → Predict is bit-identical to the live user.
  ///
  /// Both are pure byte functions — no adapter state — so the serving layer
  /// can decode a frame before deciding which shard lock to take. Decode is
  /// strictly bounds-checked: hostile counts, non-ascending locations, an
  /// unknown mode and trailing bytes fail with a structured error naming
  /// the field, never an allocation blow-up or an out-of-range read.
  struct EncodeStats {
    size_t locations = 0;
    size_t patterns = 0;
    /// Patterns written raw (mode 2) because their size differs from D.
    size_t raw_patterns = 0;
  };
  static void EncodeUser(const UserSnapshot& snap, std::string* out,
                         EncodeStats* stats = nullptr);
  static common::IoResult DecodeUser(std::string_view bytes,
                                     UserSnapshot* out);

  /// Drops state for all users.
  void Reset() {
    users_.clear();
    dirty_.clear();
  }

 private:
  /// One slab record: a stored pattern's label, timestamp and q8 exponent,
  /// and how many int8 it owns in UserState::q.
  struct Record {
    int64_t location = 0;
    int64_t timestamp = 0;
    int32_t exponent = 0;
    uint32_t size = 0;
  };
  static_assert(sizeof(Record) == 24);

  /// One user's cached rebuild: CollectRebuildJobs output with the kept
  /// records' int8 bytes and exponents copied into a private block (job
  /// offsets index `q`; pattern k's exponent is exponents[k]). Derived state
  /// only — never serialized, dropped on Forget/Adopt.
  struct CachedRebuild {
    std::vector<RebuildJob> jobs;
    std::vector<int8_t> q;
    std::vector<int32_t> exponents;
  };

  struct UserState {
    // The knowledge base: records grouped by ascending location, FIFO
    // (arrival) order within a location, at most kMaxCandidatesPerLocation
    // per location; `q` holds their int8 back to back in the same order.
    // Both grow by max(kSlabStep patterns, a sixteenth of their size) at a
    // time (Append).
    std::vector<Record> records;
    std::vector<int8_t> q;
    // Deferred-mode ingest buffer, arrival order (see ObserveDeferred).
    std::vector<PendingDelta> pending;
    // Last inline rebuild, reusable by deferred predicts (may be empty).
    CachedRebuild cache;
    // Newest label timestamp over records and pending (see Watermark); a
    // cache of MaxLabelTimestamp, equal to it at every call boundary.
    int64_t watermark = kNoWatermark;
    // The size every record shares, or 0 while the slab is empty or may mix
    // sizes: record i's int8 then start at byte i * width, so Append finds
    // a group's bytes without summing the sizes before it.
    uint32_t width = 0;
  };

  /// Where Append placed a new record: the caller writes its exponent and
  /// its `size` int8 at `q`.
  struct Slot {
    Record* record = nullptr;
    int8_t* q = nullptr;
  };

  /// Makes room for one transition that already passed the ingest rule,
  /// under the per-location FIFO cap, keeping `state.watermark` exact. The
  /// slot stays valid until the state's next mutation.
  static Slot Append(UserState& state, int64_t location, int64_t timestamp,
                     size_t size);

  /// The ranking behind both collect forms, over one user's slab; fills
  /// `cache` as well when it is non-null.
  size_t Collect(const UserState& state, const float* query, int64_t hidden,
                 int64_t query_time, common::AlignedBuffer<float>* arena,
                 std::vector<RebuildJob>* jobs, CachedRebuild* cache) const;

  /// Whether a record observed at `timestamp` is fresh at `query_time`.
  bool Fresh(int64_t timestamp, int64_t query_time) const {
    return max_age_seconds_ <= 0 || query_time - timestamp <= max_age_seconds_;
  }

  /// Newest label timestamp over a state's records and pending deltas.
  static int64_t MaxLabelTimestamp(const UserState& state);

  /// The ResidentBytes accounting for one user's state.
  static size_t StateBytes(const UserState& state);

  /// Per-location candidate cap (FIFO); the top-M by similarity are chosen
  /// from these at query time.
  static constexpr size_t kMaxCandidatesPerLocation = 32;

  /// Slab growth step, in patterns: a full array grows by this many records
  /// (and int8 for this many patterns), or by a sixteenth of its size once
  /// that is larger, instead of doubling.
  static constexpr size_t kSlabStep = 8;

  PttaConfig config_;
  int64_t max_age_seconds_;
  std::unordered_map<int64_t, UserState> users_;
  /// Users with a non-empty pending buffer, ordered — so drains walk users
  /// deterministically and DirtyUsers() needs no sort.
  std::set<int64_t> dirty_;
};

}  // namespace adamove::core

#endif  // ADAMOVE_CORE_ONLINE_ADAPTER_H_
