// google-benchmark ablations of PTTA itself:
//  * adaptation latency vs recent-trajectory length — the paper's O(N_u)
//    complexity claim (§III-B);
//  * knowledge-base maintenance (the top-M linear min-scan) at the paper's
//    M = 5 and at a large M.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "core/config.h"
#include "core/lightmob.h"
#include "core/ptta.h"
#include "data/point.h"

namespace {

using namespace adamove;

core::ModelConfig BenchConfig() {
  core::ModelConfig c;
  c.num_locations = 500;
  c.num_users = 50;
  c.lambda = 0.0;
  return c;
}

data::Sample MakeSample(int length, int num_locations, common::Rng& rng) {
  data::Sample s;
  s.user = 3;
  int64_t t = 1333238400;
  for (int i = 0; i < length; ++i) {
    s.recent.push_back(
        {s.user, rng.UniformInt(0, num_locations - 1), t});
    t += 2 * data::kSecondsPerHour;
  }
  s.target = {s.user, rng.UniformInt(0, num_locations - 1), t};
  return s;
}

void BM_PttaAdaptPredict(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  core::LightMob model(BenchConfig());
  common::Rng rng(7);
  data::Sample sample = MakeSample(length, 500, rng);
  core::TestTimeAdapter adapter{core::PttaConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(adapter.Predict(model, sample).data());
  }
  state.SetItemsProcessed(state.iterations() * length);
}
BENCHMARK(BM_PttaAdaptPredict)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_PttaWeightUpdateOnly(benchmark::State& state) {
  // Steps 2-3 in isolation (no encoder): the pure knowledge-base cost.
  const int length = static_cast<int>(state.range(0));
  core::LightMob model(BenchConfig());
  common::Rng rng(8);
  data::Sample sample = MakeSample(length, 500, rng);
  nn::Tensor reps = model.PrefixRepresentations(sample);
  std::vector<int64_t> labels;
  for (int i = 0; i + 1 < length; ++i) {
    labels.push_back(sample.recent[static_cast<size_t>(i) + 1].location);
  }
  core::TestTimeAdapter adapter{core::PttaConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        adapter.AdjustedWeights(reps, labels, model.classifier()).data());
  }
}
BENCHMARK(BM_PttaWeightUpdateOnly)->Arg(8)->Arg(32)->Arg(64);

void BM_TopMBuffer(benchmark::State& state) {
  const int capacity = static_cast<int>(state.range(0));
  common::Rng rng(9);
  std::vector<float> importances(1024);
  for (auto& v : importances) {
    v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  for (auto _ : state) {
    core::TopMBuffer buf(capacity);
    for (size_t i = 0; i < importances.size(); ++i) {
      buf.Offer(importances[i], static_cast<int>(i));
    }
    benchmark::DoNotOptimize(buf.Ids().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(importances.size()));
}
BENCHMARK(BM_TopMBuffer)->Arg(5)->Arg(64);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): `--backend=scalar|simd` forces
// the kernel dispatch table, and the active selection + CPU features are
// recorded in the context block of any JSON the caller requests via the
// standard --benchmark_out flags.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  const std::string backend = adamove::bench::ApplyKernelBackendFlag(&args);
  benchmark::AddCustomContext("kernel_backend", backend);
  benchmark::AddCustomContext("cpu_features",
                              adamove::common::CpuFeatureString());
  int fake_argc = static_cast<int>(args.size());
  benchmark::Initialize(&fake_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(fake_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
