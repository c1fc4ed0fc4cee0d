// Static-plan inference microbenchmarks (DESIGN.md §14): the graph walk vs
// the compiled plan for the encoder forward, and the full request path
// (encode + adapted predict) both ways. Every row carries the `allocs/op`
// column from the common/alloc_probe interposition — the plan rows must
// show 0, and main() enforces that as a hard gate before the timed runs:
// `bench_plan` exits non-zero if a warmed plan-mode request allocates.
//
// Run with --bench_report to also write BENCH_plan.json (google-benchmark
// JSON) next to the binary, with graph and plan rows side by side.
//
// The BM_PlanCompile rows price the one-time plan compile with and without
// static verification (DESIGN.md §15), and main() enforces the verifier's
// cost contract as a second hard gate: verification must add <10% to the
// one-time compile and exactly zero verifier work per steady-state request.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
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
#include "nn/plan/encoder_trace.h"
#include "nn/plan/verifier.h"
#include "nn/tensor.h"

namespace {

using namespace adamove;

// Mode axis shared by every benchmark here: 0 = autograd graph walk,
// 1 = compiled static plan.
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
// timed loop. The whole point of this binary is graph rows > 0, plan
// rows == 0. Omitted under sanitizer builds (probe unavailable).
void ReportAllocsPerOp(benchmark::State& state,
                       const common::AllocProbeScope& window) {
  if (!common::AllocProbeAvailable()) return;
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(window.allocations()),
      benchmark::Counter::kAvgIterations);
}

// Encoder forward alone: graph walk vs plan execute, over sequence length
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
    state.SkipWithError("plan compile failed");
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
    ->Args({64, 64, kGraph})
    ->Args({64, 64, kPlan});

// The full steady-state request: encode the prefix, then the adapted
// predict against a populated knowledge base. Graph mode is the legacy
// vector-returning path; plan mode is EncodeInto + PredictInto over
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
      state.SkipWithError("plan compile failed");
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

std::vector<const nn::Embedding*> EncoderTables(const core::LightMob& model) {
  const core::PointEmbedding& e = model.trajectory_encoder()->embedding();
  return {&e.location_embedding(), &e.time_embedding(), &e.user_embedding()};
}

// One-time plan compile, priced with and without the static verifier pass
// so its cost contract stays visible in BENCH_plan.json. Args({len,
// verify}); "items" are traced sequence steps.
void BM_PlanCompile(benchmark::State& state) {
  const int64_t length = state.range(0);
  const bool verify = state.range(1) != 0;
  const core::ModelConfig config = BenchConfig(64);
  core::LightMob model(config);
  const std::vector<const nn::Embedding*> tables = EncoderTables(model);
  const nn::SequenceEncoder& seq = model.trajectory_encoder()->seq();
  for (auto _ : state) {
    auto plan = nn::plan::CompileEncoderForward(tables, seq, length);
    if (verify) {
      const nn::plan::VerifyResult result = nn::plan::VerifyPlan(*plan);
      benchmark::DoNotOptimize(result.ok);
    }
    benchmark::DoNotOptimize(plan.get());
  }
  state.SetItemsProcessed(state.iterations() * length);
}
BENCHMARK(BM_PlanCompile)
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({64, 0})
    ->Args({64, 1});

// The verifier's cost contract (DESIGN.md §15), enforced before the timed
// runs like the zero-alloc gate below:
//   (a) a steady-state request performs ZERO
//       verifier work — counted exactly via ForwardPlanner::verifies(),
//       not timed;
//   (b) the one-time verification pass adds <10% to the plan compile —
//       compared as per-rep minima: the min over many reps estimates the
//       intrinsic cost of each side, so a scheduler preemption landing in
//       one timing window cannot flip the verdict on a shared box.
bool PlanVerifyGate() {
  const core::ModelConfig config = BenchConfig(64);
  core::LightMob model(config);
  const data::Sample sample = BenchSample(config, 32);

  core::ForwardPlanner planner(model);
  core::PlanScratch scratch;
  if (!planner.EncodeInto(sample, &scratch)) {
    std::fprintf(stderr, "plan-verify gate: plan compile failed\n");
    return false;
  }
  const int64_t after_warm = planner.verifies();
  for (int i = 0; i < 100; ++i) planner.EncodeInto(sample, &scratch);
  if (planner.verifies() != after_warm) {
    std::fprintf(stderr,
                 "plan-verify gate: FAILED — %lld verifier passes across "
                 "100 steady-state requests (expected 0)\n",
                 static_cast<long long>(planner.verifies() - after_warm));
    return false;
  }

  const std::vector<const nn::Embedding*> tables = EncoderTables(model);
  const nn::SequenceEncoder& seq = model.trajectory_encoder()->seq();
  const auto min_ns = [](const std::vector<int64_t>& ns) {
    return *std::min_element(ns.begin(), ns.end());
  };
  constexpr int kReps = 60;
  constexpr int64_t kLen = 64;
  std::vector<int64_t> compile_ns, verify_ns;
  for (int i = 0; i < kReps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto plan = nn::plan::CompileEncoderForward(tables, seq, kLen);
    const auto t1 = std::chrono::steady_clock::now();
    const nn::plan::VerifyResult result = nn::plan::VerifyPlan(*plan);
    const auto t2 = std::chrono::steady_clock::now();
    if (!result.ok) {
      std::fprintf(stderr, "plan-verify gate: verifier rejected the traced "
                           "plan: %s\n", result.message.c_str());
      return false;
    }
    compile_ns.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    verify_ns.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1)
            .count());
  }
  const int64_t compile_med = min_ns(compile_ns);
  const int64_t verify_med = min_ns(verify_ns);
  const double pct = compile_med > 0
                         ? 100.0 * static_cast<double>(verify_med) /
                               static_cast<double>(compile_med)
                         : 0.0;
  if (pct >= 10.0) {
    std::fprintf(stderr,
                 "plan-verify gate: FAILED — verification adds %.1f%% to "
                 "the one-time compile (%lld ns vs %lld ns, gate <10%%)\n",
                 pct, static_cast<long long>(verify_med),
                 static_cast<long long>(compile_med));
    return false;
  }
  std::printf("plan-verify gate: OK (verify %lld ns = %.1f%% of %lld ns "
              "compile; 0 verifier passes per steady-state request)\n",
              static_cast<long long>(verify_med), pct,
              static_cast<long long>(compile_med));
  return true;
}

// The hard gate behind the allocs/op column: a warmed plan-mode request
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
    std::fprintf(stderr, "zero-alloc gate: plan compile failed\n");
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
                 "across 100 steady-state plan requests (expected 0/0)\n",
                 static_cast<unsigned long long>(window.allocations()),
                 static_cast<unsigned long long>(window.frees()));
    return false;
  }
  std::printf("zero-alloc gate: OK (0 allocations across 100 steady-state "
              "plan requests)\n");
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
  if (!PlanVerifyGate()) return 1;
  int fake_argc = static_cast<int>(args.size());
  benchmark::Initialize(&fake_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(fake_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
