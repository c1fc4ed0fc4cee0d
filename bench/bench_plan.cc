// Raw-path inference microbenchmarks (DESIGN.md §14): the graph walk vs
// the raw encoder path for the encoder forward, the extend-by-one encode
// that resumes from a prefix state, the full request path (encode + adapted
// predict) both ways, the store's adapt stage for a window that extends
// by one check-in, and knowledge-base ingest for a heavy user. Every row
// carries the `allocs/op` column from the common/alloc_probe interposition
// — the raw rows must show 0, and main() enforces that as a hard gate
// before the timed runs:
// `bench_plan` exits non-zero if a warmed raw-path request allocates.
//
// Run with --bench_report to also write BENCH_plan.json (google-benchmark
// JSON) next to the binary, with graph and raw rows side by side.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/alloc_probe.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "core/config.h"
#include "core/forward_plan.h"
#include "core/lightmob.h"
#include "core/online_adapter.h"
#include "core/ptta.h"
#include "data/point.h"
#include "nn/autograd_mode.h"
#include "nn/kernels.h"
#include "nn/tensor.h"
#include "serve/session_store.h"

namespace {

using namespace adamove;

// Mode axis shared by every benchmark here: 0 = autograd graph walk,
// 1 = the raw path (ForwardPlanner).
constexpr int64_t kGraph = 0;
constexpr int64_t kPlan = 1;

core::ModelConfig BenchConfig(int64_t hidden) {
  core::ModelConfig c;
  c.num_locations = 500;
  c.num_users = 50;
  c.hidden_size = hidden;
  c.encoder = core::EncoderType::kLstm;
  c.lambda = 0.0;
  return c;
}

data::Sample BenchSample(const core::ModelConfig& config, int length) {
  common::Rng rng(17);
  data::Sample sample;
  sample.user = 3;
  int64_t t = 1333238400;
  for (int i = 0; i < length; ++i) {
    sample.recent.push_back(
        {sample.user, rng.UniformInt(0, config.num_locations - 1), t});
    t += 2 * data::kSecondsPerHour;
  }
  sample.target = {sample.user, rng.UniformInt(0, config.num_locations - 1),
                   t};
  return sample;
}

// Same column as microbench_nn: heap allocations per iteration over the
// timed loop. The whole point of this binary is graph rows > 0, raw
// rows == 0. Omitted under sanitizer builds (probe unavailable).
void ReportAllocsPerOp(benchmark::State& state,
                       const common::AllocProbeScope& window) {
  if (!common::AllocProbeAvailable()) return;
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(window.allocations()),
      benchmark::Counter::kAvgIterations);
}

// Encoder forward alone: graph walk vs raw path, over sequence length
// and hidden size. Args({len, hidden, mode}).
void BM_EncoderForward(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  const int64_t hidden = state.range(1);
  const int64_t mode = state.range(2);
  const core::ModelConfig config = BenchConfig(hidden);
  core::LightMob model(config);
  const data::Sample sample = BenchSample(config, length);
  core::ForwardPlanner planner(model);
  core::PlanScratch scratch;
  if (mode == kPlan && !planner.EncodeInto(sample, &scratch)) {
    state.SkipWithError("no raw path");
    return;
  }
  nn::NoGradGuard no_grad;
  common::AllocProbeScope allocs;
  for (auto _ : state) {
    if (mode == kPlan) {
      benchmark::DoNotOptimize(planner.EncodeInto(sample, &scratch));
      benchmark::DoNotOptimize(scratch.reps.data());
    } else {
      benchmark::DoNotOptimize(
          model.trajectory_encoder()
              ->Forward(sample.recent, /*training=*/false)
              .data()
              .data());
    }
  }
  ReportAllocsPerOp(state, allocs);
  state.SetItemsProcessed(state.iterations() * length);
}
BENCHMARK(BM_EncoderForward)
    ->Args({8, 64, kGraph})
    ->Args({8, 64, kPlan})
    ->Args({32, 64, kGraph})
    ->Args({32, 64, kPlan})
    ->Args({32, 128, kGraph})
    ->Args({32, 128, kPlan})
    ->Args({36, 64, kPlan})
    ->Args({64, 64, kGraph})
    ->Args({64, 64, kPlan});

// The serving encode of a window that extends the user's previous one by a
// single check-in (DESIGN.md §14, "Prefix state"): ForwardPlanner::
// ExtendInto copies the T-1 stored rows and runs one step from the
// stored carry. Each iteration first truncates the state back to its T-1
// points and restores their carry (a few hundred bytes of copying, inside
// the timing). Compare with BM_EncoderForward/T/64/1, the full T-step
// encode. Args({len, hidden}).
void BM_EncoderExtendByOne(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  const int64_t hidden = state.range(1);
  const core::ModelConfig config = BenchConfig(hidden);
  core::LightMob model(config);
  const data::Sample sample = BenchSample(config, length);
  data::Sample prefix = sample;
  prefix.recent.pop_back();
  core::ForwardPlanner planner(model);
  core::PlanScratch scratch;
  core::PrefixState prefix_state;
  // Warm: grow every buffer to the full window.
  if (!planner.ExtendInto(sample, &prefix_state, &scratch) ||
      !planner.ExtendInto(prefix, &prefix_state, &scratch)) {
    state.SkipWithError("no raw path");
    return;
  }
  const std::vector<float> prefix_carry = prefix_state.carry;
  planner.ExtendInto(sample, &prefix_state, &scratch);
  const size_t kept_points = static_cast<size_t>(length - 1);
  common::AllocProbeScope allocs;
  for (auto _ : state) {
    prefix_state.points.resize(kept_points);
    prefix_state.rows.resize(kept_points * static_cast<size_t>(hidden));
    prefix_state.carry.assign(prefix_carry.begin(), prefix_carry.end());
    benchmark::DoNotOptimize(
        planner.ExtendInto(sample, &prefix_state, &scratch));
    benchmark::DoNotOptimize(scratch.reps.data());
  }
  ReportAllocsPerOp(state, allocs);
  if (scratch.reused != length - 1) state.SkipWithError("not a prefix hit");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncoderExtendByOne)
    ->Args({8, 64})
    ->Args({36, 64})
    ->Args({64, 64});

// The full steady-state request: encode the prefix, then the adapted
// predict against a populated knowledge base. Graph mode is the legacy
// vector-returning path; raw mode is EncodeInto + PredictInto over
// caller-owned scratch. Args({len, mode}).
void BM_PredictRequest(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  const int64_t mode = state.range(1);
  const core::ModelConfig config = BenchConfig(64);
  core::LightMob model(config);
  const data::Sample sample = BenchSample(config, length);
  core::OnlineAdapter adapter{core::PttaConfig{}};
  common::Rng rng(23);
  int64_t t = 1333238400;
  for (int i = 0; i < 64; ++i) {
    std::vector<float> pattern(64);
    for (float& x : pattern) {
      x = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
    }
    adapter.Observe(sample.user, pattern, rng.UniformInt(0, 99), t);
    t += 600;
  }
  core::ForwardPlanner planner(model);
  core::PlanScratch encode;
  core::OnlineAdapter::PredictScratch predict;
  if (mode == kPlan) {
    if (!planner.EncodeInto(sample, &encode)) {
      state.SkipWithError("no raw path");
      return;
    }
    // One warm request so every scratch capacity is grown before timing.
    adapter.PredictInto(model, sample.user,
                        encode.reps.data() + (encode.rows - 1) * encode.cols,
                        encode.cols, t, &predict);
  }
  common::AllocProbeScope allocs;
  for (auto _ : state) {
    if (mode == kPlan) {
      planner.EncodeInto(sample, &encode);
      adapter.PredictInto(model, sample.user,
                          encode.reps.data() +
                              (encode.rows - 1) * encode.cols,
                          encode.cols, t, &predict);
      benchmark::DoNotOptimize(predict.scores.data());
    } else {
      const nn::Tensor reps = model.PrefixRepresentations(sample);
      const int64_t last = reps.rows() - 1;
      std::vector<float> query(static_cast<size_t>(reps.cols()));
      for (int64_t j = 0; j < reps.cols(); ++j) {
        query[static_cast<size_t>(j)] = reps.at(last, j);
      }
      benchmark::DoNotOptimize(
          adapter.Predict(model, sample.user, query, t).data());
    }
  }
  ReportAllocsPerOp(state, allocs);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictRequest)
    ->Args({8, kGraph})
    ->Args({8, kPlan})
    ->Args({32, kGraph})
    ->Args({32, kPlan});

// The serving adapt stage for one warmed key (DESIGN.md §4.3): one
// SessionStore::ObserveAndPredictInto call, through one reused scratch,
// whose window is the key's previous window extended by one check-in,
// sliding once it holds `len` points — the request shape of the serving
// stream. Prefix rows are fixed random patterns (the store never looks
// inside them), so the row times only KB ingest, rebuild collect and the
// scoring. The key is
// warmed with 1,000 requests first; `resident_bytes` is its
// ResidentBytes after the warm-up. Args({len}).
void BM_StoreRequestExtendByOne(benchmark::State& state) {
  const auto length = static_cast<size_t>(state.range(0));
  constexpr int64_t kHidden = 64;
  constexpr size_t kStreamPoints = 4096;  // point j reuses row j % 4096
  constexpr size_t kWarmRequests = 1000;
  const core::ModelConfig config = BenchConfig(kHidden);
  core::LightMob model(config);
  common::Rng rng(29);
  // Rows of a doubled ring, so any `length` consecutive points of the
  // stream read one contiguous block.
  std::vector<float> rows(2 * kStreamPoints * kHidden);
  for (size_t i = 0; i < kStreamPoints * kHidden; ++i) {
    rows[i] = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
    rows[i + kStreamPoints * kHidden] = rows[i];
  }
  std::vector<int64_t> locations(kStreamPoints);
  for (int64_t& l : locations) l = rng.UniformInt(0, 99);
  const auto point_at = [&](size_t j) {
    return data::Point{3, locations[j % kStreamPoints],
                       1333238400 + static_cast<int64_t>(j) * 2 *
                                        data::kSecondsPerHour};
  };
  serve::SessionStore store{serve::SessionStoreConfig{}};
  serve::SessionStore::RequestScratch scratch;
  data::Sample sample;
  sample.user = 3;
  size_t next = 1;  // the window ends at point next-1
  const auto request = [&] {
    const size_t first = next > length ? next - length : 0;
    sample.recent.resize(next - first);
    for (size_t j = first; j < next; ++j) {
      sample.recent[j - first] = point_at(j);
    }
    sample.target = point_at(next);
    const serve::SessionStore::RepsView reps(
        rows.data() + (first % kStreamPoints) * kHidden,
        static_cast<int64_t>(next - first), kHidden);
    ++next;
    store.ObserveAndPredictInto(model, sample, reps, &scratch);
    return scratch.scores.data();
  };
  for (size_t i = 0; i < kWarmRequests; ++i) request();
  state.counters["resident_bytes"] =
      static_cast<double>(store.ResidentBytes());
  common::AllocProbeScope allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(request());
  }
  ReportAllocsPerOp(state, allocs);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreRequestExtendByOne)->Arg(8)->Arg(36)->Arg(64);

// Knowledge-base ingest for one long-lived heavy user (DESIGN.md §4.3):
// dim-64 Observe calls cycling over `patterns`/32 locations. Mode 0 times
// filling the user from empty (every call lands in a location that is not
// full yet, so the slab grows; one iteration is the whole fill, one item
// per Observe); mode 1 times Observe on the filled user, where each call
// replaces the oldest pattern of a full location. `resident_bytes` is the
// user's ResidentBytes once filled. Args({patterns, mode}).
void BM_AdapterObserveAtPatterns(benchmark::State& state) {
  const auto patterns = static_cast<size_t>(state.range(0));
  const bool full = state.range(1) == 1;
  const auto locations = static_cast<int64_t>(patterns / 32);
  constexpr size_t kHidden = 64;
  common::Rng rng(31);
  std::vector<std::vector<float>> rows(1024, std::vector<float>(kHidden));
  for (auto& row : rows) {
    for (float& x : row) x = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
  }
  core::OnlineAdapter adapter{core::PttaConfig{}};
  int64_t t = 1333238400;
  size_t next = 0;
  const auto observe = [&] {
    adapter.Observe(3, rows[next % rows.size()],
                    static_cast<int64_t>(next) % locations, t++);
    ++next;
  };
  const auto fill = [&] {
    adapter.Forget(3);
    next = 0;
    for (size_t i = 0; i < patterns; ++i) observe();
  };
  fill();
  state.counters["resident_bytes"] =
      static_cast<double>(adapter.ResidentBytes(3));
  common::AllocProbeScope allocs;
  for (auto _ : state) {
    if (full) {
      observe();
    } else {
      fill();
    }
  }
  ReportAllocsPerOp(state, allocs);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(full ? 1 : patterns));
}
BENCHMARK(BM_AdapterObserveAtPatterns)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({10240, 0})
    ->Args({10240, 1});

// The hard gate behind the allocs/op column: a warmed raw-path request
// must perform ZERO heap allocations. Returns false (and prints why) if it
// allocated; bench_plan then exits non-zero without running the timed
// benchmarks, so perf dashboards cannot silently ingest a regressed build.
bool ZeroAllocGate() {
  if (!common::AllocProbeAvailable()) {
    std::printf("zero-alloc gate: SKIPPED (alloc probe unavailable — "
                "sanitizer build)\n");
    return true;
  }
  const core::ModelConfig config = BenchConfig(64);
  core::LightMob model(config);
  const data::Sample sample = BenchSample(config, 32);
  core::OnlineAdapter adapter{core::PttaConfig{}};
  common::Rng rng(23);
  int64_t t = 1333238400;
  for (int i = 0; i < 64; ++i) {
    std::vector<float> pattern(64);
    for (float& x : pattern) {
      x = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
    }
    adapter.Observe(sample.user, pattern, rng.UniformInt(0, 99), t);
    t += 600;
  }
  core::ForwardPlanner planner(model);
  core::PlanScratch encode;
  core::OnlineAdapter::PredictScratch predict;
  if (!planner.EncodeInto(sample, &encode)) {
    std::fprintf(stderr, "zero-alloc gate: no raw path\n");
    return false;
  }
  adapter.PredictInto(model, sample.user,
                      encode.reps.data() + (encode.rows - 1) * encode.cols,
                      encode.cols, t, &predict);
  common::AllocProbeScope window;
  for (int i = 0; i < 100; ++i) {
    planner.EncodeInto(sample, &encode);
    adapter.PredictInto(model, sample.user,
                        encode.reps.data() + (encode.rows - 1) * encode.cols,
                        encode.cols, t, &predict);
  }
  if (window.allocations() != 0 || window.frees() != 0) {
    std::fprintf(stderr,
                 "zero-alloc gate: FAILED — %llu allocations / %llu frees "
                 "across 100 steady-state raw requests (expected 0/0)\n",
                 static_cast<unsigned long long>(window.allocations()),
                 static_cast<unsigned long long>(window.frees()));
    return false;
  }
  std::printf("zero-alloc gate: OK (0 allocations across 100 steady-state "
              "raw requests)\n");
  return true;
}

}  // namespace

// Same custom main as microbench_nn: `--bench_report` writes
// BENCH_plan.json, `--backend=scalar|simd` pins the kernel dispatch, and
// the selection lands in the JSON `context` block.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_plan.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool report = false;
  for (auto it = args.begin(); it != args.end();) {
    if (std::strcmp(*it, "--bench_report") == 0) {
      report = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  if (report) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  const std::string backend = adamove::bench::ApplyKernelBackendFlag(&args);
  benchmark::AddCustomContext("kernel_backend", backend);
  benchmark::AddCustomContext("cpu_features",
                              adamove::common::CpuFeatureString());
  if (!ZeroAllocGate()) return 1;
  int fake_argc = static_cast<int>(args.size());
  benchmark::Initialize(&fake_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(fake_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
