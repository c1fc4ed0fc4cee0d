// adamove_bench — one benchmark for AdaMove serving and test-time
// adaptation. Each run sets up one workload from its seed, measures it,
// checks the outputs against a reference, and prints every metric as
//
//   <workload> <metric> <value> <unit>
//
// followed by one JSON summary line. Untraced runs (--trace 0) report the
// end-to-end metrics; traced runs (--trace 1) report the per-layer metrics
// of a traced open-loop phase plus a sequential layer replay, and can write
// the spans as a Chrome trace (--trace-out). See README.md.
//
//   adamove_bench --workload steady|overload|churn|offline_tta
//                 [--seed 42] [--seconds 10] [--trace 0|1]
//                 [--trace-out PATH]
//
// The binary drives the program only through its public API; every layer
// is timed from outside.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/cpu_features.h"
#include "common/parallel_for.h"
#include "common/qfloat.h"
#include "core/adamove.h"
#include "core/forward_plan.h"
#include "core/lightmob.h"
#include "core/metrics.h"
#include "core/online_adapter.h"
#include "core/ptta.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/preprocess.h"
#include "data/synthetic.h"
#include "nn/kernels.h"
#include "open_loop.h"
#include "serve/load_gen.h"
#include "serve/prediction_service.h"
#include "serve/session_store.h"
#include "shard/compact_store.h"
#include "trace.h"

extern char** environ;

namespace adamove::perfbench {
namespace {

// ---- fixed workload parameters -------------------------------------------
// Rates are absolute: a parent and a child commit must see the same offered
// load, so nothing here is derived from a throughput measured in the run.

/// Preset scale: NYC x3 is 360 users / ~1,080 locations, LYMOB x3 is 420
/// users / ~1,220 locations. Larger scales only grow the dataset the bench
/// holds in memory; the per-request work depends on the window length.
constexpr double kScale = 3.0;
/// Training budget of one set-up: enough for a non-trivial model, small
/// enough that the set-up can be repeated (setup_s is a median of repeats).
constexpr int kTrainEpochs = 1;
constexpr int kTrainSamplesPerEpoch = 600;
constexpr int kSetupRepeats = 3;
constexpr double kWarmupS = 1.0;
/// Latency limit of goodput_qps: an answer later than this is not useful.
/// Twice the overload workload's 25 ms adapt deadline, so every on-time
/// adapted answer counts and the metric is not a knife edge at the deadline.
constexpr double kLatencyLimitMs = 50.0;
/// churn: KB keys per real user and the hot-tier cap.
constexpr int64_t kChurnKeysPerUser = 64;
constexpr size_t kChurnHotCap = 2048;
/// Correctness gates.
constexpr size_t kSteadyGateRequests = 500;
constexpr size_t kChurnGateRequests = 2000;
constexpr size_t kChurnGateHotCap = 32;
constexpr size_t kOfflineGateSamples = 200;
constexpr double kSimdRelTolerance = 1e-5;
/// Traced runs: requests replayed layer by layer, and requests whose spans
/// are written to the trace file.
constexpr size_t kReplayRequests = 5000;
constexpr size_t kTraceFileRequests = 2000;

enum class Kind { kSteady, kOverload, kChurn, kOfflineTta };

/// Serving workloads send an open loop: every second starts with burst_s
/// seconds at burst_qps, then runs at rate_qps.
struct WorkloadSpec {
  const char* name;
  Kind kind;
  double rate_qps;  // 0 for the offline workload
  double burst_qps;
  double burst_s;
};

/// The 2-worker service saturates at about 3,000-3,500 req/s on a quiet
/// 4-core host, and a shared host can run two to three times slower for
/// minutes. The steady rates stay near a third of the quiet knee so a slow
/// host stretches latency instead of tipping the service into saturation.
/// overload bursts to about 2.5x the knee for 60 ms of every second and
/// recovers in between, so admission, shedding and the elastic scheduler's
/// trip and recovery all run in every second of the phase; the bursts stay
/// about a third of the requests, so p50 is the calm path and the tail
/// (service.e2e_p95_ms) the burst.
constexpr WorkloadSpec kWorkloads[] = {
    {"steady", Kind::kSteady, 1000.0, 0.0, 0.0},
    {"overload", Kind::kOverload, 1000.0, 8000.0, 0.06},
    {"churn", Kind::kChurn, 800.0, 0.0, 0.0},
    {"offline_tta", Kind::kOfflineTta, 0.0, 0.0, 0.0},
};

// ---- small utilities ------------------------------------------------------

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  return SplitMix64(seed * 0x100000001B3ull + stream);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of an unsorted sample (copied).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Latency samples tagged with the one-second window they started in.
class Latencies {
 public:
  void Add(double start_s, double value_ms) {
    ms_.push_back(value_ms);
    window_.push_back(static_cast<uint32_t>(std::max(0.0, start_s)));
  }

  /// The quantile of each one-second window, then the median over windows.
  /// The host is shared, so an interference burst can stall a second of a
  /// run; this estimate moves little unless half the windows are hit.
  double Robust(double q) const {
    std::vector<std::vector<double>> by_window;
    for (size_t i = 0; i < ms_.size(); ++i) {
      if (window_[i] >= by_window.size()) by_window.resize(window_[i] + 1);
      by_window[window_[i]].push_back(ms_[i]);
    }
    std::vector<double> per_window;
    for (const std::vector<double>& w : by_window) {
      if (!w.empty()) per_window.push_back(Quantile(w, q));
    }
    return Median(per_window);
  }

  /// The quantile over all samples (tail diagnostics).
  double All(double q) const { return Quantile(ms_, q); }
  size_t size() const { return ms_.size(); }

 private:
  std::vector<double> ms_;
  std::vector<uint32_t> window_;
};

std::string FormatNumber(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

/// The metrics of one run, printed in insertion order.
class Report {
 public:
  void Add(const char* name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }

  void Print(const char* workload, bool correct, uint64_t attempted,
             uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("%s %s %s %s\n", workload, m.name.c_str(),
                  FormatNumber(m.value).c_str(), m.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
              FormatNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Correctness-gate ledger: every failed check is printed and remembered.
class Gate {
 public:
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
      ok_ = false;
    }
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

double ModelMiB(const core::AdaptableModel& model) {
  return static_cast<double>(model.NumParameters()) * sizeof(float) /
         (1024.0 * 1024.0);
}

// ---- set-up ---------------------------------------------------------------

struct PreparedData {
  data::DatasetPreset preset;
  data::Dataset dataset;
};

PreparedData PrepareData(data::DatasetPreset preset, uint64_t seed) {
  data::ScalePreset(preset, kScale);
  preset.synthetic.seed = MixSeed(seed, 1);
  const data::SyntheticResult world = data::GenerateSynthetic(preset.synthetic);
  const data::PreprocessedData pre =
      data::Preprocess(world.trajectories, preset.preprocess);
  data::SplitConfig split;
  split.eval_samples.context_sessions = preset.eval_context_sessions;
  PreparedData out;
  out.dataset = data::MakeDataset(pre, split);
  out.preset = std::move(preset);
  return out;
}

core::ModelConfig MakeModelConfig(const PreparedData& data, uint64_t seed) {
  core::ModelConfig config;
  config.num_locations = data.dataset.num_locations;
  config.num_users = data.dataset.num_users;
  config.lambda = data.preset.lambda;
  config.seed = MixSeed(seed, 2);
  return config;
}

core::TrainConfig MakeTrainConfig(uint64_t seed) {
  core::TrainConfig config;
  config.max_epochs = kTrainEpochs;
  config.max_train_samples_per_epoch = kTrainSamplesPerEpoch;
  config.seed = MixSeed(seed, 3);
  return config;
}

/// Test samples without their history (inference reads only `recent`).
std::vector<data::Sample> StripHistory(std::vector<data::Sample> samples) {
  for (data::Sample& s : samples) {
    s.history.clear();
    s.history.shrink_to_fit();
  }
  return samples;
}

struct SetupTimes {
  std::vector<double> total_s, data_s, train_s, service_s;
};

/// The serving stack of one workload: optional cold tier, the session
/// store, and the service, built in that order (and torn down in reverse).
struct Stack {
  std::unique_ptr<shard::CompactStore> cold;
  std::unique_ptr<serve::SessionStore> store;
  std::unique_ptr<serve::PredictionService> service;
};

serve::ServiceConfig ServiceConfigFor(Kind kind) {
  serve::ServiceConfig config;
  config.workers = 2;
  config.max_batch = 8;
  if (kind == Kind::kOverload) {
    config.adapt.mode = serve::AdaptMode::kElastic;
    config.deadline_us = 25000;
    config.max_wait_us = 500;
    config.queue_capacity = 64;
  }
  return config;
}

Stack MakeStack(Kind kind, core::AdaptableModel& model) {
  Stack stack;
  serve::SessionStoreConfig store_config;
  if (kind == Kind::kChurn) {
    stack.cold = std::make_unique<shard::CompactStore>();
    store_config.max_resident_users = kChurnHotCap;
    store_config.cold_tier = stack.cold.get();
    store_config.canonicalize_patterns = true;
  }
  stack.store = std::make_unique<serve::SessionStore>(store_config);
  stack.service = std::make_unique<serve::PredictionService>(
      model, *stack.store, ServiceConfigFor(kind));
  return stack;
}

void Teardown(Stack* stack) {
  if (stack->service) stack->service->Shutdown();
  stack->service.reset();
  stack->store.reset();
  stack->cold.reset();
}

/// A serving workload's inputs after set-up.
struct ServingWorld {
  std::unique_ptr<core::LightMob> model;
  /// The test split in arrival (target-time) order — the replay stream.
  std::vector<data::Sample> stream;
  int64_t num_locations = 0;
};

ServingWorld SetupServing(Kind kind, uint64_t seed, SetupTimes* times,
                          Gate* gate) {
  ServingWorld world;
  std::vector<float> first_weights;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const int64_t t0 = NowNs();
    PreparedData data = PrepareData(data::NycLikePreset(), seed);
    const int64_t t1 = NowNs();
    auto model = std::make_unique<core::LightMob>(MakeModelConfig(data, seed));
    core::Trainer(MakeTrainConfig(seed)).Train(*model, data.dataset);
    const int64_t t2 = NowNs();
    Stack stack = MakeStack(kind, *model);
    const int64_t t3 = NowNs();
    times->total_s.push_back(Seconds(t3 - t0));
    times->data_s.push_back(Seconds(t1 - t0));
    times->train_s.push_back(Seconds(t2 - t1));
    times->service_s.push_back(Seconds(t3 - t2));
    Teardown(&stack);
    // Set-up is deterministic: every repeat must train the same weights.
    const std::vector<float>& w = model->classifier().weight().data();
    if (r == 0) {
      first_weights = w;
    } else {
      gate->Check(SameBits(first_weights, w),
                  "set-up repeat " + std::to_string(r) +
                      " trained different weights");
    }
    if (r + 1 == kSetupRepeats) {
      world.num_locations = data.dataset.num_locations;
      world.stream = serve::BuildReplayStream(
          StripHistory(std::move(data.dataset.test)), 0);
      world.model = std::move(model);
    }
  }
  return world;
}

/// churn: spreads each real user's requests over kChurnKeysPerUser KB keys
/// with a seeded hash of the stream position. Only Sample::user — the
/// session-store key — changes; the points the encoder reads keep their
/// user ids, so the model inputs are unchanged.
std::vector<data::Sample> RemapKeys(std::vector<data::Sample> stream,
                                    uint64_t seed) {
  for (size_t i = 0; i < stream.size(); ++i) {
    const auto slot = static_cast<int64_t>(
        MixSeed(seed ^ 0xC4E2ull, i) % static_cast<uint64_t>(kChurnKeysPerUser));
    stream[i].user = stream[i].user * kChurnKeysPerUser + slot;
  }
  return stream;
}

/// churn: touches every KB key once before the timed phases, so the cold
/// tier holds every user the measured phase hydrates. Each key ingests one
/// encoded window of its real user through the store's batch API.
void PrefillKeys(core::AdaptableModel& model, const ServingWorld& world,
                 serve::SessionStore* store) {
  std::vector<int64_t> seen;
  std::vector<nn::Tensor> reps;
  std::vector<const data::Sample*> samples;
  for (const data::Sample& s : world.stream) {
    const int64_t user = s.user;
    if (std::find(seen.begin(), seen.end(), user) != seen.end()) continue;
    seen.push_back(user);
    samples.push_back(&s);
    reps.push_back(model.PrefixRepresentations(s));
  }
  std::vector<data::Sample> keyed;
  for (size_t u = 0; u < samples.size(); ++u) {
    keyed.assign(kChurnKeysPerUser, *samples[u]);
    std::vector<serve::SessionStore::BatchRequest> batch;
    for (int64_t k = 0; k < kChurnKeysPerUser; ++k) {
      keyed[static_cast<size_t>(k)].user = seen[u] * kChurnKeysPerUser + k;
      batch.push_back({&keyed[static_cast<size_t>(k)],
                       serve::SessionStore::RepsView(reps[u])});
    }
    store->BatchObserveAndPredictEncoded(model, batch);
  }
}

// ---- correctness gates ----------------------------------------------------

/// steady: the first requests, served one at a time by a fresh service, are
/// bit-identical to one sequential OnlineAdapter (the reference path).
void SteadyReferenceGate(core::LightMob& model, const ServingWorld& world,
                         Gate* gate) {
  serve::SessionStoreConfig store_config;
  serve::SessionStore store(store_config);
  serve::PredictionService service(model, store,
                                   ServiceConfigFor(Kind::kSteady));
  core::OnlineAdapter reference(store_config.ptta,
                                store_config.max_age_seconds);
  size_t mismatches = 0;
  const size_t n = std::min(kSteadyGateRequests, world.stream.size());
  for (size_t i = 0; i < n; ++i) {
    const data::Sample& sample = world.stream[i];
    const serve::Prediction got = service.Submit(sample).get();
    const std::vector<float> want = reference.ObserveAndPredict(model, sample);
    if (got.outcome != serve::RequestOutcome::kOk || !SameBits(got.scores, want)) {
      ++mismatches;
    }
  }
  service.Shutdown();
  gate->Check(mismatches == 0,
              "steady: " + std::to_string(mismatches) + " of " +
                  std::to_string(n) +
                  " served answers differ from the OnlineAdapter reference");
}

/// churn: a capped store with a compact cold tier answers bit-identically
/// to an uncapped store with the same canonical ingest. The gate uses the
/// real user ids and a tiny hot cap so users cycle through the cold tier
/// within the gate's requests.
void ChurnTierGate(core::LightMob& model, const ServingWorld& world,
                   Gate* gate) {
  shard::CompactStore cold;
  serve::SessionStoreConfig capped_config;
  capped_config.max_resident_users = kChurnGateHotCap;
  capped_config.cold_tier = &cold;
  capped_config.canonicalize_patterns = true;
  serve::SessionStore capped(capped_config);
  serve::SessionStoreConfig flat_config;
  flat_config.canonicalize_patterns = true;
  serve::SessionStore flat(flat_config);
  size_t mismatches = 0;
  const size_t n = std::min(kChurnGateRequests, world.stream.size());
  for (size_t i = 0; i < n; ++i) {
    const data::Sample& sample = world.stream[i];
    const nn::Tensor reps = model.PrefixRepresentations(sample);
    const std::vector<serve::SessionStore::BatchRequest> batch = {
        {&sample, serve::SessionStore::RepsView(reps)}};
    std::vector<serve::AdaptStatus> s1, s2;
    const auto got = capped.BatchObserveAndPredictEncoded(model, batch, &s1);
    const auto want = flat.BatchObserveAndPredictEncoded(model, batch, &s2);
    if (s1[0] != serve::AdaptStatus::kAdapted ||
        s2[0] != serve::AdaptStatus::kAdapted || !SameBits(got[0], want[0])) {
      ++mismatches;
    }
  }
  gate->Check(mismatches == 0,
              "churn: " + std::to_string(mismatches) + " of " +
                  std::to_string(n) +
                  " answers through the cold tier differ from the uncapped "
                  "store");
  gate->Check(capped.HydrationCount() > 0,
              "churn: the tier gate never hydrated from the cold tier");
}

/// offline_tta: TestTimeAdapter::Predict, which rebuilds only the adjusted
/// columns, matches scoring the materialized AdjustedWeights within the
/// SIMD tolerance class of the centroid dot (DESIGN.md, kernel backends).
void OfflineReferenceGate(core::AdaMove& adamove,
                          const std::vector<data::Sample>& samples,
                          Gate* gate) {
  core::LightMob& model = adamove.model();
  const nn::Linear& classifier = model.classifier();
  const int64_t num_loc = classifier.out_features();
  const std::vector<float>& bias = classifier.bias().data();
  size_t mismatches = 0;
  const size_t n = std::min(kOfflineGateSamples, samples.size());
  for (size_t i = 0; i < n; ++i) {
    const data::Sample& sample = samples[i];
    const std::vector<float> got = adamove.Predict(sample);
    const nn::Tensor reps = model.PrefixRepresentations(sample);
    std::vector<int64_t> labels;
    for (size_t k = 1; k < sample.recent.size(); ++k) {
      labels.push_back(sample.recent[k].location);
    }
    const std::vector<float> weights =
        adamove.adapter().AdjustedWeights(reps, labels, classifier);
    const int64_t hidden = reps.cols();
    const float* query = reps.data().data() + (reps.rows() - 1) * hidden;
    bool ok = static_cast<int64_t>(got.size()) == num_loc;
    for (int64_t l = 0; ok && l < num_loc; ++l) {
      float acc = 0.0f;
      for (int64_t h = 0; h < hidden; ++h) {
        if (query[h] == 0.0f) continue;
        acc += query[h] * weights[static_cast<size_t>(h * num_loc + l)];
      }
      const double want = static_cast<double>(acc) + bias[static_cast<size_t>(l)];
      const double diff = std::fabs(got[static_cast<size_t>(l)] - want);
      ok = diff <= kSimdRelTolerance * std::max(1.0, std::fabs(want));
    }
    if (!ok) ++mismatches;
  }
  gate->Check(mismatches == 0,
              "offline_tta: " + std::to_string(mismatches) + " of " +
                  std::to_string(n) +
                  " adapted score vectors differ from the AdjustedWeights "
                  "reference beyond the SIMD tolerance");
}

// ---- serving phases -------------------------------------------------------

/// What one open-loop phase measured, over all requests or over the
/// requests of its traced or untraced seconds.
enum class Requests { kAll, kTraced, kUntraced };

struct PhaseSummary {
  uint64_t arrivals = 0;
  uint64_t delivered = 0;
  uint64_t ok = 0;
  uint64_t degraded = 0;
  uint64_t timeouts = 0;
  uint64_t shed = 0;
  uint64_t dropped = 0;
  uint64_t invalid = 0;
  uint64_t hits = 0;
  uint64_t good = 0;  // kOk within the latency limit
  uint64_t stale = 0;
  double wall_s = 0;
  Latencies latency;
  std::vector<double> lag_ms, queue_ms, encode_ms, adapt_ms,
      residual_ms, stale_depth;
};

PhaseSummary Summarize(const OpenLoopResult& run, Requests which) {
  PhaseSummary s;
  using State = RequestRecord::State;
  for (const RequestRecord& r : run.records) {
    if (which != Requests::kAll && r.traced != (which == Requests::kTraced)) {
      continue;
    }
    ++s.arrivals;
    s.lag_ms.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e6);
    const State state = r.state.load(std::memory_order_acquire);
    if (state == State::kShed) ++s.shed;
    if (state == State::kDropped) ++s.dropped;
    if (state != State::kDelivered) continue;
    ++s.delivered;
    const double ms = static_cast<double>(r.LatencyNs()) / 1e6;
    s.latency.Add(Seconds(r.due_ns - run.start_ns), ms);
    s.queue_ms.push_back(r.queue_us / 1000.0);
    s.encode_ms.push_back(r.encode_us / 1000.0);
    s.adapt_ms.push_back(r.adapt_us / 1000.0);
    s.residual_ms.push_back(ms - (r.queue_us + r.encode_us + r.adapt_us) /
                                     1000.0);
    if (!r.valid) ++s.invalid;
    if (r.hit) ++s.hits;
    switch (r.outcome) {
      case serve::RequestOutcome::kOk:
        ++s.ok;
        if (ms <= kLatencyLimitMs) ++s.good;
        break;
      case serve::RequestOutcome::kDegraded: ++s.degraded; break;
      case serve::RequestOutcome::kTimedOut: ++s.timeouts; break;
      case serve::RequestOutcome::kShed: break;
    }
    if (r.stale) {
      ++s.stale;
      s.stale_depth.push_back(r.stale_depth);
    }
  }
  s.wall_s = Seconds(run.end_ns - run.start_ns);
  return s;
}

/// Runs one open-loop phase and checks its ledgers against the service's
/// own accounting (ServiceStats deltas over the phase).
OpenLoopResult RunPhase(Stack& stack, const std::vector<data::Sample>& stream,
                        size_t offset, int64_t num_locations,
                        const WorkloadSpec& spec, double seconds,
                        SpanRecorder* spans, const char* label, Gate* gate) {
  const serve::ServiceStats before = stack.service->Stats();
  OpenLoopConfig config;
  config.rate_qps = spec.rate_qps;
  config.burst_qps = spec.burst_qps;
  config.burst_s = spec.burst_s;
  config.seconds = seconds;
  OpenLoopResult run =
      RunOpenLoop(*stack.service, stream, offset, num_locations, config, spans);
  const std::string tag = std::string(label) + ": ";
  gate->Check(run.drained, tag + "requests still outstanding after drain");
  if (!run.drained) {
    // Joins the workers, so no completion callback outlives the records.
    stack.service->Shutdown();
    return run;
  }
  const serve::ServiceStats after = stack.service->Stats();
  gate->Check(run.arrivals == run.delivered + run.shed + run.dropped,
              tag + "ledger arrivals != delivered + shed + dropped");
  uint64_t ok = 0, degraded = 0, timeouts = 0, invalid = 0;
  for (const RequestRecord& r : run.records) {
    if (r.state.load(std::memory_order_acquire) !=
        RequestRecord::State::kDelivered) {
      continue;
    }
    if (!r.valid) ++invalid;
    if (r.outcome == serve::RequestOutcome::kOk) ++ok;
    if (r.outcome == serve::RequestOutcome::kDegraded) ++degraded;
    if (r.outcome == serve::RequestOutcome::kTimedOut) ++timeouts;
  }
  gate->Check(after.completed - before.completed == run.delivered,
              tag + "ServiceStats::completed disagrees with deliveries");
  gate->Check(ok + degraded + timeouts == run.delivered,
              tag + "delivered != ok + degraded + timeouts");
  gate->Check(after.ok_requests() - before.ok_requests() == ok &&
                  after.degraded_requests - before.degraded_requests ==
                      degraded &&
                  after.timeouts - before.timeouts == timeouts,
              tag + "per-outcome counts disagree with ServiceStats");
  gate->Check(after.shed_requests - before.shed_requests == run.shed,
              tag + "shed count disagrees with ServiceStats");
  gate->Check(invalid == 0, tag + std::to_string(invalid) +
                                " delivered score vectors are missized or "
                                "not finite");
  gate->Check(degraded == 0, tag + std::to_string(degraded) +
                                 " requests degraded with no fault armed");
  return run;
}

/// Counter deltas of one phase, for the per-layer report.
struct Counters {
  serve::ServiceStats stats;
  uint64_t hydrations = 0;
  uint64_t evictions = 0;
  shard::CompactStore::Stats cold;

  static Counters Read(const Stack& stack) {
    Counters c;
    c.stats = stack.service->Stats();
    c.hydrations = stack.store->HydrationCount();
    c.evictions = stack.store->EvictionCount();
    if (stack.cold) c.cold = stack.cold->GetStats();
    return c;
  }
};

double StateMiB(const Stack& stack, const core::AdaptableModel& model) {
  double bytes = static_cast<double>(stack.store->ResidentBytes());
  if (stack.cold) {
    bytes += static_cast<double>(stack.cold->GetStats().arena.reserved_bytes);
  }
  return bytes / (1024.0 * 1024.0) + ModelMiB(model);
}

/// Sequential layer replay of a traced serving run: the first measured
/// requests, in arrival order and in batches of the measured mean batch
/// size, go through the same public calls the service makes — the encoder,
/// then SessionStore::BatchObserveAndPredictEncoded on the (now idle) live
/// store — each wrapped in a span. A bench-local OnlineAdapter mirror then
/// splits the store's adapt work into KB ingest, rebuild collect and score
/// sweep; each mirrored user starts from a copy of its live state.
struct ReplaySummary {
  size_t requests = 0;
  double total_ns = 0;
  double encode_ns = 0;
  double rows = 0;
  double store_ns = 0;
  double store_hot_ns = 0, store_hydrating_ns = 0;
  size_t hot_requests = 0, hydrating_requests = 0;
  double ingest_ns = 0, collect_ns = 0, score_ns = 0;
  double jobs = 0, kept_floats = 0;
};

ReplaySummary ReplayLayers(core::LightMob& model, Stack& stack,
                           const std::vector<data::Sample>& stream,
                           size_t offset, const OpenLoopResult& run,
                           double batch_mean, SpanRecorder* spans) {
  ReplaySummary out;
  serve::SessionStore& store = *stack.store;
  const bool plan =
      stack.service->forward_mode() == core::ForwardMode::kPlan;
  const bool elastic = stack.service->adapt_config().mode ==
                       serve::AdaptMode::kElastic;
  const bool canonical = stack.cold != nullptr;
  serve::BatchAdaptOptions options;
  options.mode = elastic ? serve::AdaptExecMode::kInlineElastic
                         : serve::AdaptExecMode::kInline;
  core::OnlineAdapter mirror(serve::SessionStoreConfig{}.ptta,
                             serve::SessionStoreConfig{}.max_age_seconds);
  core::ForwardPlanner planner(model);
  const auto batch_size =
      static_cast<size_t>(std::max(1.0, std::round(batch_mean)));
  const size_t n = std::min(kReplayRequests, run.records.size());
  const int64_t hidden = model.classifier().in_features();

  std::vector<core::PlanScratch> scratch(batch_size);
  std::vector<nn::Tensor> reps(batch_size);
  std::vector<serve::SessionStore::RepsView> views(batch_size);
  common::AlignedBuffer<float> arena;
  std::vector<std::vector<core::OnlineAdapter::RebuildJob>> jobs(batch_size);
  std::vector<std::pair<float, const core::OnlineAdapter::Entry*>> fresh;
  std::vector<float> scores;
  std::vector<float> pattern;

  for (size_t b0 = 0; b0 < n; b0 += batch_size) {
    const size_t m = std::min(batch_size, n - b0);
    const auto lane = kReplayRequestBase + static_cast<uint32_t>(b0);
    const int64_t batch_slot = spans->Reserve(1);
    const auto batch_id = static_cast<uint32_t>(batch_slot + 1);
    const int64_t t_batch = NowNs();
    std::vector<serve::SessionStore::BatchRequest> batch(m);
    for (size_t j = 0; j < m; ++j) {
      const data::Sample& sample = stream[(offset + b0 + j) % stream.size()];
      const int64_t t0 = NowNs();
      if (plan && planner.EncodeInto(sample, &scratch[j])) {
        views[j] = serve::SessionStore::RepsView(
            scratch[j].reps.data(), scratch[j].rows, scratch[j].cols);
      } else {
        reps[j] = model.PrefixRepresentations(sample);
        views[j] = serve::SessionStore::RepsView(reps[j]);
      }
      const int64_t t1 = NowNs();
      spans->Set(spans->Reserve(1), batch_id, lane, SpanName::kEncoder, t0,
                 t1);
      out.encode_ns += static_cast<double>(t1 - t0);
      out.rows += static_cast<double>(views[j].rows);
      batch[j] = {&sample, views[j]};
    }
    const uint64_t hydrations = store.HydrationCount();
    const int64_t t0 = NowNs();
    std::vector<serve::AdaptStatus> statuses;
    serve::BatchAdaptStats adapt_stats;
    store.BatchObserveAndPredictEncoded(model, batch, options, &statuses,
                                        &adapt_stats);
    const int64_t t1 = NowNs();
    spans->Set(spans->Reserve(1), batch_id, lane, SpanName::kStoreAdapt, t0,
               t1);
    spans->Set(batch_slot, 0, lane, SpanName::kReplayBatch, t_batch, t1);
    out.total_ns += static_cast<double>(t1 - t_batch);
    out.store_ns += static_cast<double>(t1 - t0);
    if (store.HydrationCount() > hydrations) {
      out.store_hydrating_ns += static_cast<double>(t1 - t0);
      out.hydrating_requests += m;
    } else {
      out.store_hot_ns += static_cast<double>(t1 - t0);
      out.hot_requests += m;
    }

    // Mirror decomposition (outside the replay.batch span: it re-executes
    // the adapt work to split it, it is not part of the served path).
    for (size_t j = 0; j < m; ++j) {
      const int64_t user = batch[j].sample->user;
      if (!mirror.HasUser(user)) {
        core::OnlineAdapter::UserSnapshot snap;
        if (store.ExtractUser(user, &snap)) {
          core::OnlineAdapter::UserSnapshot copy = snap;
          store.InjectUser(std::move(copy));
          mirror.Adopt(std::move(snap));
        }
      }
    }
    const int64_t t_ingest = NowNs();
    for (size_t j = 0; j < m; ++j) {
      const data::Sample& sample = *batch[j].sample;
      const serve::SessionStore::RepsView& v = batch[j].reps;
      for (int64_t k = 0; k + 1 < v.rows; ++k) {
        pattern.assign(v.data + k * hidden, v.data + (k + 1) * hidden);
        if (canonical) common::QfloatCanonicalize(&pattern);
        mirror.Observe(sample.user, pattern,
                       sample.recent[static_cast<size_t>(k + 1)].location,
                       sample.recent[static_cast<size_t>(k + 1)].timestamp);
      }
    }
    const int64_t t_collect = NowNs();
    arena.Clear();
    for (size_t j = 0; j < m; ++j) {
      jobs[j].clear();
      mirror.CollectRebuildJobs(batch[j].sample->user, batch[j].reps.query(),
                                hidden, batch[j].sample->target.timestamp,
                                &arena, &jobs[j], &fresh);
      out.jobs += static_cast<double>(jobs[j].size());
      for (const auto& job : jobs[j]) {
        out.kept_floats += static_cast<double>(job.keep * hidden);
      }
    }
    const int64_t t_score = NowNs();
    for (size_t j = 0; j < m; ++j) {
      core::OnlineAdapter::ScoreCollectedJobsInto(
          model, batch[j].reps.query(), hidden, jobs[j], arena, &scores);
    }
    const int64_t t_end = NowNs();
    spans->Set(spans->Reserve(1), 0, lane, SpanName::kAdapterIngest, t_ingest,
               t_collect);
    spans->Set(spans->Reserve(1), 0, lane, SpanName::kAdapterCollect,
               t_collect, t_score);
    spans->Set(spans->Reserve(1), 0, lane, SpanName::kAdapterScore, t_score,
               t_end);
    out.ingest_ns += static_cast<double>(t_collect - t_ingest);
    out.collect_ns += static_cast<double>(t_score - t_collect);
    out.score_ns += static_cast<double>(t_end - t_score);
    out.requests += m;
  }
  return out;
}

// ---- per-layer and end-to-end reporting -----------------------------------

void AddEndToEnd(Report* report, double setup_s, double p50, double goodput,
                 double hit1, double state_mb) {
  report->Add("setup_s", setup_s, "s");
  report->Add("p50_ms", p50, "ms");
  report->Add("goodput_qps", goodput, "req/s");
  report->Add("hit1", hit1, "ratio");
  report->Add("state_mb", state_mb, "MiB");
}

/// Every per-layer metric, in BENCHMARK.json order. Layers a workload does
/// not exercise report 0.
struct Layers {
  double lag_p99_ms = 0, arrivals = 0, dropped = 0;
  double queue_p50_ms = 0, queue_p95_ms = 0, batch_mean = 0,
         encode_p50_ms = 0, adapt_p50_ms = 0, residual_p50_ms = 0,
         ok_ratio = 0, shed_ratio = 0, timeout_ratio = 0, degraded_ratio = 0,
         e2e_p95_ms = 0, e2e_p99_ms = 0, e2e_p999_ms = 0, e2e_max_ms = 0,
         samples = 0;
  double stale_ratio = 0, stale_depth_p50 = 0, stale_depth_max = 0,
         deferred_per_req = 0, coalesced_ratio = 0, forced_inline = 0,
         lazy_rebuilds = 0, background_drains = 0, mode_switches = 0,
         residue_deltas = 0;
  double encoder_us = 0, encoder_rows = 0;
  double ingest_us = 0, collect_us = 0, score_us = 0, jobs = 0,
         kept_floats = 0;
  double store_adapt_us = 0, store_hydrating_us = 0, store_hot_us = 0,
         hydrations_per_req = 0, evictions_per_req = 0, resident_users = 0,
         state_mb = 0;
  double cold_takes = 0, cold_accepts = 0, cold_blob_bytes = 0,
         cold_used_over_reserved = 0, cold_raw_ratio = 0;
  double ptta_encode_us = 0, ptta_predict_us = 0, ptta_adapt_us = 0,
         ptta_columns = 0, ptta_weight_bytes = 0;
  double setup_data_s = 0, setup_train_s = 0, setup_service_s = 0;
  double overhead_pct = 0, replay_residual_pct = 0;

  void AddTo(Report* r) const {
    r->Add("loadgen.lag_p99_ms", lag_p99_ms, "ms");
    r->Add("loadgen.arrivals", arrivals, "count");
    r->Add("loadgen.dropped", dropped, "count");
    r->Add("service.queue_p50_ms", queue_p50_ms, "ms");
    r->Add("service.queue_p95_ms", queue_p95_ms, "ms");
    r->Add("service.batch_mean", batch_mean, "count");
    r->Add("service.encode_p50_ms", encode_p50_ms, "ms");
    r->Add("service.adapt_p50_ms", adapt_p50_ms, "ms");
    r->Add("service.residual_p50_ms", residual_p50_ms, "ms");
    r->Add("service.ok_ratio", ok_ratio, "ratio");
    r->Add("service.shed_ratio", shed_ratio, "ratio");
    r->Add("service.timeout_ratio", timeout_ratio, "ratio");
    r->Add("service.degraded_ratio", degraded_ratio, "ratio");
    r->Add("service.e2e_p95_ms", e2e_p95_ms, "ms");
    r->Add("service.e2e_p99_ms", e2e_p99_ms, "ms");
    r->Add("service.e2e_p999_ms", e2e_p999_ms, "ms");
    r->Add("service.e2e_max_ms", e2e_max_ms, "ms");
    r->Add("service.samples", samples, "count");
    r->Add("scheduler.stale_ratio", stale_ratio, "ratio");
    r->Add("scheduler.stale_depth_p50", stale_depth_p50, "count");
    r->Add("scheduler.stale_depth_max", stale_depth_max, "count");
    r->Add("scheduler.deferred_per_req", deferred_per_req, "count");
    r->Add("scheduler.coalesced_ratio", coalesced_ratio, "ratio");
    r->Add("scheduler.forced_inline", forced_inline, "count");
    r->Add("scheduler.lazy_rebuilds", lazy_rebuilds, "count");
    r->Add("scheduler.background_drains", background_drains, "count");
    r->Add("scheduler.mode_switches", mode_switches, "count");
    r->Add("scheduler.residue_deltas", residue_deltas, "count");
    r->Add("encoder.us_per_req", encoder_us, "us");
    r->Add("encoder.rows_per_req", encoder_rows, "count");
    r->Add("adapter.ingest_us_per_req", ingest_us, "us");
    r->Add("adapter.collect_us_per_req", collect_us, "us");
    r->Add("adapter.score_us_per_req", score_us, "us");
    r->Add("adapter.jobs_per_req", jobs, "count");
    r->Add("adapter.kept_floats_per_req", kept_floats, "count");
    r->Add("store.adapt_us_per_req", store_adapt_us, "us");
    r->Add("store.adapt_us_hydrating", store_hydrating_us, "us");
    r->Add("store.adapt_us_hot", store_hot_us, "us");
    r->Add("store.hydrations_per_req", hydrations_per_req, "count");
    r->Add("store.evictions_per_req", evictions_per_req, "count");
    r->Add("store.resident_users", resident_users, "count");
    r->Add("store.state_mb", state_mb, "MiB");
    r->Add("cold.takes_per_req", cold_takes, "count");
    r->Add("cold.accepts_per_req", cold_accepts, "count");
    r->Add("cold.blob_bytes_per_user", cold_blob_bytes, "B");
    r->Add("cold.used_over_reserved", cold_used_over_reserved, "ratio");
    r->Add("cold.raw_pattern_ratio", cold_raw_ratio, "ratio");
    r->Add("ptta.encode_us", ptta_encode_us, "us");
    r->Add("ptta.predict_us", ptta_predict_us, "us");
    r->Add("ptta.adapt_us", ptta_adapt_us, "us");
    r->Add("ptta.columns_per_sample", ptta_columns, "count");
    r->Add("ptta.weight_bytes_per_sample", ptta_weight_bytes, "B");
    r->Add("setup.data_s", setup_data_s, "s");
    r->Add("setup.train_s", setup_train_s, "s");
    r->Add("setup.service_s", setup_service_s, "s");
    r->Add("trace.overhead_pct", overhead_pct, "%");
    r->Add("trace.replay_residual_pct", replay_residual_pct, "%");
  }
};

void AddSetupLayers(const SetupTimes& times, Layers* layers) {
  layers->setup_data_s = Median(times.data_s);
  layers->setup_train_s = Median(times.train_s);
  layers->setup_service_s = Median(times.service_s);
}

struct RunOutcome {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

RunOutcome RunServing(const WorkloadSpec& spec, uint64_t seed, double seconds,
                      bool trace, const std::string& trace_out,
                      Report* report) {
  Gate gate;
  SetupTimes times;
  ServingWorld world = SetupServing(spec.kind, seed, &times, &gate);
  core::LightMob& model = *world.model;
  std::vector<data::Sample> stream =
      spec.kind == Kind::kChurn ? RemapKeys(world.stream, seed) : world.stream;
  std::printf("# stream %zu requests, %lld locations, offered %.0f req/s, "
              "bursts of %.0f req/s for %.0f ms per second\n",
              stream.size(), static_cast<long long>(world.num_locations),
              spec.rate_qps, spec.burst_qps, spec.burst_s * 1000);

  Stack stack = MakeStack(spec.kind, model);
  if (spec.kind == Kind::kChurn) PrefillKeys(model, world, stack.store.get());
  const OpenLoopResult warmup =
      RunPhase(stack, stream, 0, world.num_locations, spec, kWarmupS, nullptr,
               "warm-up", &gate);
  if (!warmup.drained) {
    Teardown(&stack);
    return RunOutcome{};
  }

  const size_t offset = warmup.records.size();
  const auto requests = static_cast<size_t>(std::ceil(
      seconds * std::max(spec.rate_qps, spec.burst_qps)));
  SpanRecorder spans(trace ? requests * 7 + kReplayRequests * 8 + 64 : 0);
  const Counters c0 = Counters::Read(stack);
  const OpenLoopResult run =
      RunPhase(stack, stream, offset, world.num_locations, spec, seconds,
               trace ? &spans : nullptr, "measured phase", &gate);
  const Counters c1 = Counters::Read(stack);
  const PhaseSummary all = Summarize(run, Requests::kAll);
  RunOutcome outcome;
  outcome.attempted = all.arrivals;
  outcome.failed = all.invalid + all.degraded +
                   (all.arrivals - all.delivered - all.shed - all.dropped);
  const double state_mb = StateMiB(stack, model);
  stack.service->Shutdown();

  if (!trace) {
    AddEndToEnd(report, Median(times.total_s), all.latency.Robust(0.50),
                Ratio(static_cast<double>(all.good), all.wall_s),
                Ratio(static_cast<double>(all.hits),
                      static_cast<double>(all.delivered)),
                state_mb);
  } else {
    const PhaseSummary sb = Summarize(run, Requests::kTraced);
    const PhaseSummary sa = Summarize(run, Requests::kUntraced);
    Layers L;
    L.lag_p99_ms = Quantile(sb.lag_ms, 0.99);
    L.arrivals = static_cast<double>(all.arrivals);
    L.dropped = static_cast<double>(all.dropped);
    L.queue_p50_ms = Quantile(sb.queue_ms, 0.50);
    L.queue_p95_ms = Quantile(sb.queue_ms, 0.95);
    const auto completed =
        static_cast<double>(c1.stats.completed - c0.stats.completed);
    L.batch_mean = Ratio(completed, static_cast<double>(c1.stats.batches -
                                                        c0.stats.batches));
    L.encode_p50_ms = Quantile(sb.encode_ms, 0.50);
    L.adapt_p50_ms = Quantile(sb.adapt_ms, 0.50);
    L.residual_p50_ms = Quantile(sb.residual_ms, 0.50);
    const auto arrivals = static_cast<double>(all.arrivals);
    L.ok_ratio = Ratio(static_cast<double>(all.ok), arrivals);
    L.shed_ratio = Ratio(static_cast<double>(all.shed), arrivals);
    L.timeout_ratio = Ratio(static_cast<double>(all.timeouts), arrivals);
    L.degraded_ratio = Ratio(static_cast<double>(all.degraded), arrivals);
    L.e2e_p95_ms = all.latency.All(0.95);
    L.e2e_p99_ms = all.latency.All(0.99);
    L.e2e_p999_ms = all.latency.All(0.999);
    L.e2e_max_ms = all.latency.All(1.0);
    L.samples = static_cast<double>(all.latency.size());
    L.stale_ratio = Ratio(static_cast<double>(all.stale),
                          static_cast<double>(all.delivered));
    L.stale_depth_p50 = Quantile(all.stale_depth, 0.50);
    L.stale_depth_max = Quantile(all.stale_depth, 1.0);
    const auto deferred = static_cast<double>(c1.stats.deferred_ingests -
                                              c0.stats.deferred_ingests);
    L.deferred_per_req = Ratio(deferred, completed);
    L.coalesced_ratio = Ratio(static_cast<double>(c1.stats.coalesced_ingests -
                                                  c0.stats.coalesced_ingests),
                              deferred);
    L.forced_inline = static_cast<double>(c1.stats.forced_inline_rebuilds -
                                          c0.stats.forced_inline_rebuilds);
    L.lazy_rebuilds =
        static_cast<double>(c1.stats.lazy_rebuilds - c0.stats.lazy_rebuilds);
    L.background_drains = static_cast<double>(c1.stats.background_drains -
                                              c0.stats.background_drains);
    L.mode_switches = static_cast<double>(c1.stats.adapt_mode_switches -
                                          c0.stats.adapt_mode_switches);
    L.residue_deltas = static_cast<double>(stack.store->PendingDeltaCount());
    L.hydrations_per_req =
        Ratio(static_cast<double>(c1.hydrations - c0.hydrations), completed);
    L.evictions_per_req =
        Ratio(static_cast<double>(c1.evictions - c0.evictions), completed);
    L.resident_users = static_cast<double>(stack.store->UserCount());
    L.state_mb = state_mb;
    if (stack.cold) {
      L.cold_takes = Ratio(static_cast<double>(c1.cold.takes - c0.cold.takes),
                           completed);
      L.cold_accepts = Ratio(
          static_cast<double>(c1.cold.accepts - c0.cold.accepts), completed);
      L.cold_blob_bytes = Ratio(static_cast<double>(c1.cold.blob_bytes),
                                static_cast<double>(c1.cold.users));
      L.cold_used_over_reserved =
          Ratio(static_cast<double>(c1.cold.arena.used_bytes),
                static_cast<double>(c1.cold.arena.reserved_bytes));
      L.cold_raw_ratio = Ratio(static_cast<double>(c1.cold.raw_patterns),
                               static_cast<double>(c1.cold.patterns));
    }
    L.overhead_pct = 100.0 * Ratio(sb.latency.Robust(0.50) -
                                       sa.latency.Robust(0.50),
                                   sa.latency.Robust(0.50));
    if (run.drained) {
      const ReplaySummary r = ReplayLayers(model, stack, stream, offset, run,
                                           L.batch_mean, &spans);
      const auto n = static_cast<double>(r.requests);
      L.encoder_us = Ratio(r.encode_ns, n) / 1000.0;
      L.encoder_rows = Ratio(r.rows, n);
      L.store_adapt_us = Ratio(r.store_ns, n) / 1000.0;
      L.store_hot_us =
          Ratio(r.store_hot_ns, static_cast<double>(r.hot_requests)) / 1000.0;
      L.store_hydrating_us =
          Ratio(r.store_hydrating_ns,
                static_cast<double>(r.hydrating_requests)) /
          1000.0;
      L.ingest_us = Ratio(r.ingest_ns, n) / 1000.0;
      L.collect_us = Ratio(r.collect_ns, n) / 1000.0;
      L.score_us = Ratio(r.score_ns, n) / 1000.0;
      L.jobs = Ratio(r.jobs, n);
      L.kept_floats = Ratio(r.kept_floats, n);
      L.replay_residual_pct =
          100.0 * Ratio(r.total_ns - (r.encode_ns + r.ingest_ns +
                                      r.collect_ns + r.score_ns),
                        r.total_ns);
    }
    AddSetupLayers(times, &L);
    L.AddTo(report);
    if (!trace_out.empty()) {
      gate.Check(spans.WriteChromeTrace(trace_out, kTraceFileRequests),
                 "cannot write the trace file " + trace_out);
    }
  }
  Teardown(&stack);
  if (spec.kind == Kind::kSteady) SteadyReferenceGate(model, world, &gate);
  if (spec.kind == Kind::kChurn) ChurnTierGate(model, world, &gate);
  outcome.correct = gate.ok() && outcome.failed == 0;
  return outcome;
}

// ---- offline test-time adaptation -----------------------------------------

RunOutcome RunOfflineTta(uint64_t seed, double seconds, bool trace,
                         const std::string& trace_out, Report* report) {
  Gate gate;
  SetupTimes times;
  std::unique_ptr<core::AdaMove> adamove;
  std::vector<data::Sample> samples;
  std::vector<float> first_weights;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const int64_t t0 = NowNs();
    PreparedData data = PrepareData(data::LymobLikePreset(), seed);
    const int64_t t1 = NowNs();
    auto model = std::make_unique<core::AdaMove>(MakeModelConfig(data, seed));
    model->Train(data.dataset, MakeTrainConfig(seed));
    const int64_t t2 = NowNs();
    times.total_s.push_back(Seconds(t2 - t0));
    times.data_s.push_back(Seconds(t1 - t0));
    times.train_s.push_back(Seconds(t2 - t1));
    times.service_s.push_back(0.0);
    const std::vector<float>& w = model->model().classifier().weight().data();
    if (r == 0) {
      first_weights = w;
    } else {
      gate.Check(SameBits(first_weights, w),
                 "set-up repeat " + std::to_string(r) +
                     " trained different weights");
    }
    if (r + 1 == kSetupRepeats) {
      samples = StripHistory(std::move(data.dataset.test));
      adamove = std::move(model);
    }
  }
  core::LightMob& model = adamove->model();
  const core::TestTimeAdapter& adapter = adamove->adapter();
  const int64_t num_loc = model.num_locations();
  std::printf("# %zu test samples, %lld locations\n", samples.size(),
              static_cast<long long>(num_loc));
  OfflineReferenceGate(*adamove, samples, &gate);

  // The paper's Table III setting: one sample at a time on one thread.
  common::SetKernelThreads(1);
  size_t cursor = 0;
  const auto next_sample = [&]() -> const data::Sample& {
    const data::Sample& s = samples[cursor];
    cursor = (cursor + 1) % samples.size();
    return s;
  };
  size_t warm_samples = 0;
  for (const int64_t end = NowNs() + static_cast<int64_t>(kWarmupS * 1e9);
       NowNs() < end; ++warm_samples) {
    adapter.Predict(model, next_sample());
  }

  // With tracing, the odd seconds of the phase are traced: each sample's
  // encoder forward and full adapted prediction get their own spans, and
  // the even seconds give the untraced baseline under the same state.
  const auto expected = static_cast<size_t>(
      static_cast<double>(warm_samples) / kWarmupS * seconds);
  SpanRecorder spans(trace ? expected * 3 + 64 : 0);
  core::MetricAccumulator acc;
  Latencies untraced, traced;
  uint64_t invalid = 0, attempted = 0;
  double encode_ns = 0, predict_ns = 0, rows = 0, columns = 0, bytes = 0;
  size_t n_traced = 0;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t now = start;
  while (now < end) {
    const data::Sample& sample = next_sample();
    const bool in_trace = trace && (now - start) / 1000000000 % 2 == 1;
    const int64_t slot = in_trace ? spans.Reserve(3) : -1;
    const int64_t t0 = NowNs();
    if (in_trace) {
      rows += static_cast<double>(model.PrefixRepresentations(sample).rows());
    }
    const int64_t t1 = NowNs();
    core::AdapterStats stats;
    const std::vector<float> scores = adapter.Predict(model, sample, &stats);
    now = NowNs();
    const double ms = static_cast<double>(now - t1) / 1e6;
    if (in_trace) {
      const auto id = static_cast<uint32_t>(attempted);
      const auto root = static_cast<uint32_t>(slot + 1);
      spans.Set(slot, 0, id, SpanName::kRequest, t0, now);
      spans.Set(slot + 1, root, id, SpanName::kPttaEncode, t0, t1);
      spans.Set(slot + 2, root, id, SpanName::kPttaPredict, t1, now);
      traced.Add(Seconds(t1 - start), ms);
      encode_ns += static_cast<double>(t1 - t0);
      predict_ns += static_cast<double>(now - t1);
      columns += stats.columns_updated;
      bytes += static_cast<double>(stats.weight_bytes_touched);
      ++n_traced;
    } else {
      untraced.Add(Seconds(t1 - start), ms);
    }
    bool valid = static_cast<int64_t>(scores.size()) == num_loc;
    for (size_t l = 0; valid && l < scores.size(); ++l) {
      valid = std::isfinite(scores[l]);
    }
    if (!valid) ++invalid;
    acc.Add(scores, sample.target.location);
    ++attempted;
  }
  gate.Check(invalid == 0, "offline_tta: " + std::to_string(invalid) +
                               " score vectors missized or not finite");

  if (!trace) {
    AddEndToEnd(report, Median(times.total_s), untraced.Robust(0.50),
                Ratio(static_cast<double>(attempted), Seconds(now - start)),
                acc.Result().rec1, ModelMiB(model));
  } else {
    Layers L;
    const auto dn = static_cast<double>(n_traced);
    L.arrivals = static_cast<double>(attempted);
    L.samples = static_cast<double>(attempted);
    L.ok_ratio = Ratio(static_cast<double>(attempted - invalid),
                       static_cast<double>(attempted));
    L.e2e_p95_ms = untraced.All(0.95);
    L.e2e_p99_ms = untraced.All(0.99);
    L.e2e_p999_ms = untraced.All(0.999);
    L.e2e_max_ms = untraced.All(1.0);
    L.encoder_us = Ratio(encode_ns, dn) / 1000.0;
    L.encoder_rows = Ratio(rows, dn);
    L.ptta_encode_us = L.encoder_us;
    L.ptta_predict_us = Ratio(predict_ns, dn) / 1000.0;
    L.ptta_adapt_us = L.ptta_predict_us - L.ptta_encode_us;
    L.ptta_columns = Ratio(columns, dn);
    L.ptta_weight_bytes = Ratio(bytes, dn);
    L.state_mb = ModelMiB(model);
    L.overhead_pct = 100.0 * Ratio(traced.Robust(0.50) - untraced.Robust(0.50),
                                   untraced.Robust(0.50));
    AddSetupLayers(times, &L);
    L.AddTo(report);
    if (!trace_out.empty()) {
      gate.Check(spans.WriteChromeTrace(trace_out, kTraceFileRequests),
                 "cannot write the trace file " + trace_out);
    }
  }
  RunOutcome outcome;
  outcome.attempted = attempted;
  outcome.failed = invalid;
  outcome.correct = gate.ok() && outcome.failed == 0;
  return outcome;
}

// ---- main -----------------------------------------------------------------

/// Prints the environment a measurement depends on. Returns false when a
/// fault-injection spec is set: a run with faults armed measures the
/// degradation ladder, not the program, and its answers fail the gates.
bool PrintEnvironment() {
  std::printf("# nproc %u\n", std::thread::hardware_concurrency());
  std::printf("# cpu %s\n", common::CpuFeatureString().c_str());
  std::printf("# kernel_backend %s\n",
              nn::kernels::BackendDescription().c_str());
  std::printf("# forward %s\n",
              core::ForwardModeFromEnv() == core::ForwardMode::kPlan ? "plan"
                                                                     : "graph");
  bool ok = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ADAMOVE_", 8) != 0) continue;
    std::printf("# env %s\n", *e);
    if (std::strncmp(*e, "ADAMOVE_FAULTS=", 15) == 0) ok = false;
  }
  return ok;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "adamove_bench: %s\n"
               "usage: adamove_bench --workload "
               "steady|overload|churn|offline_tta [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out PATH]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage(("missing value for " + flag).c_str());
    }
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(seconds >= 0.5) ||
          seconds > 600) {
        return Usage("--seconds must be in [0.5, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == w.name) spec = &w;
  }
  if (spec == nullptr) return Usage("unknown or missing --workload");
  if (!PrintEnvironment()) {
    std::fprintf(stderr,
                 "adamove_bench: ADAMOVE_FAULTS is set; unset it to measure\n");
    return 2;
  }
  std::printf("# workload %s seed %llu seconds %s trace %d\n", spec->name,
              static_cast<unsigned long long>(seed),
              FormatNumber(seconds).c_str(), trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  const RunOutcome outcome =
      spec->kind == Kind::kOfflineTta
          ? RunOfflineTta(seed, seconds, trace, trace_out, &report)
          : RunServing(*spec, seed, seconds, trace, trace_out, &report);
  report.Print(spec->name, outcome.correct, outcome.attempted, outcome.failed);
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace adamove::perfbench

int main(int argc, char** argv) {
  return adamove::perfbench::Main(argc, argv);
}
