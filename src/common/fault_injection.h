#ifndef ADAMOVE_COMMON_FAULT_INJECTION_H_
#define ADAMOVE_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace adamove::common {

/// Behaviour of one armed fault point each time it fires.
struct FaultSpec {
  /// Chance that an evaluation of the point fires, in [0, 1]. The decision
  /// sequence is deterministic: firing is a pure function of (registry seed,
  /// point name, per-point evaluation index), so a single-threaded replay
  /// with the same seed faults at exactly the same call indices.
  double probability = 0.0;
  /// Latency injected (sleep) every time the point fires; models slow
  /// dependencies rather than failed ones. 0 = no delay.
  int64_t delay_us = 0;
  /// Whether firing reports a failure to the instrumented call site (the
  /// site then takes its degradation path). false = delay-only fault.
  bool error = true;
};

/// Evaluation counters of one fault point (approximate under concurrency:
/// each counter is individually atomic).
struct FaultPointStats {
  uint64_t evaluations = 0;
  uint64_t fired = 0;
};

namespace fault_internal {
/// True iff at least one fault point is armed. The only state the disabled
/// hot path reads — see FaultPoint() below.
extern std::atomic<bool> g_any_armed;
/// Out-of-line evaluation of an armed registry (lookup + fire decision +
/// injected delay). Returns true when `point` fires in error mode.
bool EvaluateSlow(const char* point);
}  // namespace fault_internal

/// Process-wide catalogue of named fault points. Fault points are *always*
/// compiled into the instrumented call sites; when nothing is armed the
/// per-call cost is one relaxed atomic load and a predictable branch, and
/// the instrumented code path is bit-identical to the uninstrumented one
/// (pinned by tests).
///
/// Arming happens programmatically (Arm/Disarm) or via the ADAMOVE_FAULTS
/// environment variable, parsed once at first use:
///
///   ADAMOVE_FAULTS="point=prob[:delay_us[:noerror]](;point=...)*"
///   ADAMOVE_FAULTS_SEED=<uint64>   # decision-sequence seed (default 1)
///
/// e.g. ADAMOVE_FAULTS="serve.session_lookup=0.1;serve.encode_forward=0.05:200"
/// arms a 10% session-store failure and a 5% encoder failure with 200 us of
/// injected latency. `noerror` makes a point delay-only.
///
/// Catalogue of instrumented points (see DESIGN.md §9):
///   core.kb.ingest        OnlineAdapter::Observe — pattern dropped
///   core.kb.lookup        OnlineAdapter::Predict — frozen-only scores
///   serve.session_lookup  SessionStore::ObserveAndPredictInto — state
///                         unavailable, base-model fallback
///   core.state_hydrate    SessionStore cold-tier rehydration blocked —
///                         state unavailable, base-model fallback, neither
///                         tier mutated
///   serve.ptta_generate   pattern generation skipped — stale-KB prediction
///   serve.encode_forward  encoder forward fails — bounded retry
///   serve.batch_flush     probed once per request (the name predates one
///                         request per take) — that request degrades to
///                         the base model
///   serve.adapt_schedule  elastic scheduler misfire — the request is forced
///                         into deferred adaptation regardless of pressure
///                         (probed only in AdaptMode::kElastic services)
///   io.snapshot_write     durable_io payload write fails — commit aborted,
///                         previous durable file intact
///   io.snapshot_fsync     pre-rename fsync fails — commit aborted, previous
///                         durable file intact
///   io.snapshot_read      checkpoint/snapshot read fails — caller degrades
///                         (warm start serves the frozen base model)
class FaultRegistry {
 public:
  /// The process-wide registry (parses ADAMOVE_FAULTS on first call).
  static FaultRegistry& Instance();

  /// Arms (or re-arms) a fault point. Clamps probability to [0, 1].
  void Arm(const std::string& point, const FaultSpec& spec);

  /// Disarms one point (no-op if unknown). Its counters are kept.
  void Disarm(const std::string& point);

  /// Disarms every point and drops all counters — the "faults clear"
  /// transition of the chaos tests.
  void DisarmAll();

  /// Parses the ADAMOVE_FAULTS grammar above and arms each entry; returns
  /// false (arming nothing from the malformed entry) on a syntax error.
  bool ConfigureFromString(const std::string& config);

  /// Reseeds the deterministic fire-decision hash and resets every
  /// per-point evaluation index.
  void SetSeed(uint64_t seed);

  /// True iff `point` is currently armed.
  bool IsArmed(const std::string& point) const;

  /// Counters of one point (zeros if never evaluated).
  FaultPointStats StatsFor(const std::string& point) const;

  /// Names of all currently armed points.
  std::vector<std::string> ArmedPoints() const;

 private:
  FaultRegistry();
  friend bool fault_internal::EvaluateSlow(const char* point);

  struct State;
  State* state_;  // intentionally leaked: fault points outlive static dtors
};

/// Hot-path probe, placed at each instrumented site:
///
///   if (common::FaultPoint("serve.session_lookup")) {
///     ... degradation path ...
///   }
///
/// Returns true when the point is armed, its deterministic decision fires,
/// and the spec is an error fault (any injected delay has already been
/// slept). Zero overhead when no point is armed anywhere in the process.
inline bool FaultPoint(const char* point) {
  if (!fault_internal::g_any_armed.load(std::memory_order_relaxed)) {
    return false;
  }
  return fault_internal::EvaluateSlow(point);
}

}  // namespace adamove::common

#endif  // ADAMOVE_COMMON_FAULT_INJECTION_H_
