#include "bench/bench_common.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/env.h"
#include "common/table_printer.h"
#include "data/preprocess.h"
#include "nn/kernels.h"

namespace adamove::bench {

BenchEnv ReadBenchEnv() {
  BenchEnv env;
  env.scale = common::EnvDouble("ADAMOVE_BENCH_SCALE", 0.4);
  env.max_epochs = common::EnvInt("ADAMOVE_BENCH_EPOCHS", 8);
  env.hidden = common::EnvInt("ADAMOVE_BENCH_HIDDEN", 64);
  env.train_cap = common::EnvInt("ADAMOVE_BENCH_TRAIN_CAP", 2500);
  env.eval_cap = common::EnvInt("ADAMOVE_BENCH_EVAL_CAP", 800);
  return env;
}

namespace {

// Deterministic stride subsample preserving chronological spread.
void StrideSubsample(std::vector<data::Sample>& samples, int cap) {
  if (cap <= 0 || static_cast<int>(samples.size()) <= cap) return;
  std::vector<data::Sample> kept;
  kept.reserve(static_cast<size_t>(cap));
  const double stride =
      static_cast<double>(samples.size()) / static_cast<double>(cap);
  for (int i = 0; i < cap; ++i) {
    kept.push_back(samples[static_cast<size_t>(i * stride)]);
  }
  samples = std::move(kept);
}

}  // namespace

PreparedDataset Prepare(data::DatasetPreset preset, const BenchEnv& env) {
  PreparedDataset out;
  data::ScalePreset(preset, env.scale);
  out.preset = preset;
  out.world = data::GenerateSynthetic(preset.synthetic);
  out.preprocessed = data::Preprocess(out.world.trajectories,
                                      preset.preprocess);
  data::SplitConfig split;
  split.eval_samples.context_sessions = preset.eval_context_sessions;
  out.dataset = data::MakeDataset(out.preprocessed, split);
  StrideSubsample(out.dataset.val, env.eval_cap);
  StrideSubsample(out.dataset.test, env.eval_cap);
  return out;
}

core::ModelConfig MakeModelConfig(const PreparedDataset& prepared,
                                  const BenchEnv& env) {
  core::ModelConfig config;
  config.num_locations = prepared.dataset.num_locations;
  config.num_users = prepared.dataset.num_users;
  config.hidden_size = env.hidden;
  config.lambda = prepared.preset.lambda;
  return config;
}

core::TrainConfig MakeTrainConfig(const BenchEnv& env) {
  core::TrainConfig config;
  config.max_epochs = env.max_epochs;
  config.max_train_samples_per_epoch = env.train_cap;
  return config;
}

void TrainModel(core::MobilityModel& model, const data::Dataset& dataset,
                const core::TrainConfig& config) {
  model.Fit(dataset);
  if (model.trainable()) {
    core::Trainer trainer(config);
    trainer.Train(model, dataset);
  }
}

std::vector<std::string> MetricCells(const core::Metrics& metrics) {
  using common::TablePrinter;
  return {TablePrinter::Fmt(metrics.rec1), TablePrinter::Fmt(metrics.rec5),
          TablePrinter::Fmt(metrics.rec10), TablePrinter::Fmt(metrics.mrr)};
}

void PrintBenchBanner(const std::string& bench_name, const BenchEnv& env) {
  std::printf("=== %s ===\n", bench_name.c_str());
  std::printf(
      "env: scale=%.2f epochs=%d hidden=%d "
      "(override via ADAMOVE_BENCH_SCALE / _EPOCHS / _HIDDEN)\n\n",
      env.scale, env.max_epochs, env.hidden);
}

std::string ApplyKernelBackendFlag(std::vector<char*>* args) {
  for (auto it = args->begin(); it != args->end(); ++it) {
    if (std::strncmp(*it, "--backend=", 10) != 0) continue;
    const char* value = *it + 10;
    if (std::strcmp(value, "scalar") != 0 && std::strcmp(value, "simd") != 0) {
      std::fprintf(stderr,
                   "--backend=%s: expected scalar or simd; keeping the "
                   "default selection\n",
                   value);
    } else {
      setenv("ADAMOVE_KERNEL_BACKEND", value, /*overwrite=*/1);
    }
    args->erase(it);
    break;
  }
  nn::kernels::RefreshBackendFromEnv();
  return nn::kernels::BackendDescription();
}

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t CurrentRssBytes() {
  // statm field 2 is resident pages; multiply by the page size. Bench-only
  // diagnostics, so a parse failure degrades to 0 instead of erroring.
  std::FILE* f = std::fopen("/proc/self/statm", "r");  // NOLINT(durable-io)
  if (f == nullptr) return 0;
  unsigned long long total_pages = 0, resident_pages = 0;
  const int matched =
      std::fscanf(f, "%llu %llu", &total_pages, &resident_pages);
  std::fclose(f);
  if (matched != 2) return 0;
  return static_cast<uint64_t>(resident_pages) *
         static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

Spread SpreadOf(std::vector<double> values) {
  Spread spread;
  if (values.empty()) return spread;
  std::sort(values.begin(), values.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
  };
  spread.q1 = at(0.25);
  spread.median = at(0.5);
  spread.q3 = at(0.75);
  return spread;
}

std::string SpreadJson(const Spread& spread, int digits) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"median\": %.*f, \"q1\": %.*f, \"q3\": %.*f}", digits,
                spread.median, digits, spread.q1, digits, spread.q3);
  return buf;
}

}  // namespace adamove::bench
