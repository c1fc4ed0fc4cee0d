#ifndef ADAMOVE_BENCH_BENCH_COMMON_H_
#define ADAMOVE_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/evaluator.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/synthetic.h"

namespace adamove::bench {

/// Environment-tunable knobs shared by every bench binary:
///   ADAMOVE_BENCH_SCALE   — multiplies preset users/locations (default 0.4;
///                           the presets are already laptop-scale)
///   ADAMOVE_BENCH_EPOCHS  — max training epochs (default 8; the paper's 30
///                           with plateau decay is available by raising it)
///   ADAMOVE_BENCH_HIDDEN  — hidden size (default 64 as in the paper)
///   ADAMOVE_BENCH_TRAIN_CAP — training samples per epoch (default 2500,
///                           0 = all; each epoch draws a fresh shuffle)
///   ADAMOVE_BENCH_EVAL_CAP  — test/val samples kept, stride-subsampled
///                           (default 800, 0 = all)
struct BenchEnv {
  double scale = 0.4;
  int max_epochs = 8;
  int hidden = 64;
  int train_cap = 2500;
  int eval_cap = 800;
};

BenchEnv ReadBenchEnv();

/// A dataset preset materialized end-to-end: simulate -> preprocess ->
/// split/samples, with the simulator's shift metadata retained for the
/// case study.
struct PreparedDataset {
  data::DatasetPreset preset;
  data::SyntheticResult world;
  data::PreprocessedData preprocessed;
  data::Dataset dataset;
};

/// Runs the full pipeline for one preset at the given scale.
PreparedDataset Prepare(data::DatasetPreset preset, const BenchEnv& env);

/// Paper-default model config bound to a prepared dataset (λ and c come
/// from the preset; §IV-A embedding dims 48/8/16, LSTM, hidden from env).
core::ModelConfig MakeModelConfig(const PreparedDataset& prepared,
                                  const BenchEnv& env);

/// Paper-default training config capped by the env epoch budget.
core::TrainConfig MakeTrainConfig(const BenchEnv& env);

/// Fit() + gradient training (when applicable) with the shared recipe.
void TrainModel(core::MobilityModel& model, const data::Dataset& dataset,
                const core::TrainConfig& config);

/// "rec1/rec5/rec10/mrr" formatted row cells.
std::vector<std::string> MetricCells(const core::Metrics& metrics);

/// Prints the standard bench header (dataset sizes, env knobs).
void PrintBenchBanner(const std::string& bench_name, const BenchEnv& env);

/// Consumes a `--backend=scalar|simd` flag from `args` if present (other
/// flags are left in place): sets ADAMOVE_KERNEL_BACKEND and reselects the
/// kernel dispatch table, so the choice is active before any benchmark body
/// runs. Without the flag the table is still selected now (env var or best
/// available), so the return value — the active backend description, e.g.
/// "simd (avx2+fma)" — is always meaningful for banners and the
/// google-benchmark context block.
std::string ApplyKernelBackendFlag(std::vector<char*>* args);

/// Monotonic now() in microseconds for latency arithmetic across call
/// sites. All bench timing must go through std::chrono::steady_clock —
/// either common::Timer or this helper; system_clock/clock() are banned
/// here because serving tail-latency numbers must never go backwards under
/// NTP adjustment.
int64_t SteadyNowUs();

/// Resident-set size of this process in bytes (Linux: /proc/self/statm),
/// 0 when unavailable. Serving and capacity benches report it next to the
/// latency columns so a throughput win never hides a memory regression
/// (BENCH_serving.json / BENCH_capacity.json).
uint64_t CurrentRssBytes();

/// Median and quartiles (linear interpolation between order statistics)
/// of one row's repeated runs: a closed-loop row swings more run to run
/// than the changes it is read for, so the serving benches repeat each row
/// and report this spread instead of one run.
struct Spread {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
Spread SpreadOf(std::vector<double> values);
/// `{"median": m, "q1": a, "q3": b}` with `digits` decimals, for the
/// benches' JSON reports.
std::string SpreadJson(const Spread& spread, int digits);

}  // namespace adamove::bench

#endif  // ADAMOVE_BENCH_BENCH_COMMON_H_
