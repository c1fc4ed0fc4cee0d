#ifndef ADAMOVE_CORE_PTTA_H_
#define ADAMOVE_CORE_PTTA_H_

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/model.h"
#include "nn/tensor.h"

namespace adamove::core {

/// Diagnostics of one adaptation call (used by tests and ablations).
struct AdapterStats {
  int patterns_generated = 0;   // |P| = |recent| - 1
  int columns_updated = 0;      // locations whose θ_l changed
  /// Classifier-weight bytes written by the adaptation: Predict() touches
  /// only the adjusted columns (columns_updated * H * 4); the materializing
  /// AdjustedWeights() entry point copies the full {H, L} matrix.
  int64_t weight_bytes_touched = 0;
  /// Resident per-user state behind the call: the streaming OnlineAdapter
  /// fills it with the queried user's knowledge-base footprint
  /// (OnlineAdapter::ResidentBytes) — the hot-tier number the shard
  /// subsystem's compact tier is measured against (DESIGN.md §12).
  /// The stateless per-sample TestTimeAdapter keeps nothing resident and
  /// leaves it 0.
  int64_t resident_bytes = 0;
};

/// Preference-aware Test-Time Adaptation (Algorithm 1) and its ablation
/// variants (T3A, w/ ent, w/ pseudo-label), selected via PttaConfig:
///
///   PTTA            = { similarity importance, true labels }
///   "w/ ent"        = { entropy importance,    true labels }
///   "w/ pseudo"     = { similarity importance, pseudo labels }
///   T3A             = { entropy importance,    pseudo labels }
///
/// The adapter is stateless across samples: following §III-B, only the
/// recent trajectory of the *current* test sample is used to adjust the
/// classifier, and the model itself is never mutated. Predict() never
/// materializes the adjusted {H, L} matrix — it scores against the original
/// weights and rebuilds only the columns the knowledge base touched
/// (bit-identical to scoring the full adjusted copy, at a fraction of the
/// bytes; see AdapterStats::weight_bytes_touched).
class TestTimeAdapter {
 public:
  explicit TestTimeAdapter(const PttaConfig& config) : config_(config) {}

  /// End-to-end Algorithm 1: generates labeled patterns from the sample's
  /// recent trajectory, builds the knowledge base, updates the classifier
  /// weights, and returns adapted scores for all locations.
  std::vector<float> Predict(AdaptableModel& model, const data::Sample& sample,
                             AdapterStats* stats = nullptr) const;

  /// Steps 2–3 of Algorithm 1 exposed for tests and ablations: given prefix
  /// representations `reps` ({T, H}; the last row is the test pattern
  /// h_{N_u}) and per-pattern labels for rows [0, T-2], returns the adjusted
  /// weight matrix Θ' as a flat {H, L} row-major vector. This entry point
  /// materializes the full matrix; the serving path (Predict) does not.
  std::vector<float> AdjustedWeights(const nn::Tensor& reps,
                                     const std::vector<int64_t>& labels,
                                     const nn::Linear& classifier,
                                     AdapterStats* stats = nullptr) const;

  const PttaConfig& config() const { return config_; }

 private:
  PttaConfig config_;
};

/// Internal knowledge-base helper exposed for the microbenchmark: maintains
/// the top-M importance values with the paper's linear min-scan (Algorithm 1
/// lines 13-16). The position of the minimum is cached between
/// replacements, so an offer that does not displace it costs one compare.
class TopMBuffer {
 public:
  explicit TopMBuffer(int capacity) : capacity_(capacity) {}

  /// Offers (importance, id); keeps the M largest importances.
  void Offer(float importance, int id);

  /// Ids currently kept (unordered).
  std::vector<int> Ids() const;

 private:
  int capacity_;
  // (importance, id) pairs, unordered.
  std::vector<std::pair<float, int>> items_;
  // Index of min_element(items_) once the buffer is full.
  size_t min_ = 0;
};

}  // namespace adamove::core

#endif  // ADAMOVE_CORE_PTTA_H_
