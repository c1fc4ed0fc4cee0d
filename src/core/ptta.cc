#include "core/ptta.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/aligned_buffer.h"
#include "common/check.h"
#include "common/parallel_for.h"
#include "nn/kernels.h"

namespace adamove::core {

namespace {

// Cosine similarity between two length-h float spans.
float Cosine(const float* a, const float* b, int64_t h) {
  float dot = 0.0f, na = 0.0f, nb = 0.0f;
  for (int64_t i = 0; i < h; ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  const float denom = std::sqrt(na) * std::sqrt(nb);
  return denom > 1e-12f ? dot / denom : 0.0f;
}

// Logits of one pattern against the (original) classifier; weight is the
// {H, L} row-major matrix, bias {L} or empty. Column-parallel kernel. The
// scratch is a cache-line-aligned arena so the vector backend's column
// stripes start aligned.
void LogitsOf(const float* h, const std::vector<float>& weight,
              const std::vector<float>& bias, int64_t hidden, int64_t num_loc,
              common::AlignedBuffer<float>* out) {
  out->Resize(static_cast<size_t>(num_loc));
  nn::kernels::VecMatCols(h, weight.data(), out->data(), hidden, num_loc,
                          /*skip_zero=*/true);
  if (!bias.empty()) {
    float* o = out->data();
    for (int64_t l = 0; l < num_loc; ++l) o[l] += bias[l];
  }
}

int64_t ArgMax(const float* v, int64_t n) {
  int64_t best = 0;
  for (int64_t i = 1; i < n; ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

// Per-pattern importance of h_0..h_{T-2} (rows of `reps`) — Algorithm 1
// step 2. Patterns are independent, so the batch is split across the
// kernel pool; the entropy variant keeps one logits scratch per chunk.
std::vector<float> PatternImportance(const nn::Tensor& reps,
                                     const std::vector<float>& weight,
                                     const std::vector<float>& bias,
                                     int64_t hidden, int64_t num_loc,
                                     bool similarity_importance) {
  const int64_t t = reps.rows();
  const float* data = reps.data().data();
  const float* h_test = data + (t - 1) * hidden;
  std::vector<float> importance(static_cast<size_t>(t - 1));
  if (similarity_importance) {
    common::ParallelFor(
        0, t - 1, nn::kernels::GrainForWork(3 * hidden),
        [&](int64_t k0, int64_t k1) {
          for (int64_t k = k0; k < k1; ++k) {
            importance[static_cast<size_t>(k)] =
                Cosine(h_test, data + k * hidden, hidden);
          }
        });
  } else {
    common::ParallelFor(
        0, t - 1, nn::kernels::GrainForWork(hidden * num_loc),
        [&](int64_t k0, int64_t k1) {
          common::AlignedBuffer<float> logits;  // scratch reused per chunk
          for (int64_t k = k0; k < k1; ++k) {
            LogitsOf(data + k * hidden, weight, bias, hidden, num_loc,
                     &logits);
            // Entropy of softmax(logits); lower entropy = more reliable.
            importance[static_cast<size_t>(k)] =
                -nn::kernels::SoftmaxEntropy(logits.data(), num_loc);
          }
        });
  }
  return importance;
}

// Knowledge base: top-M patterns per location (Algorithm 1 lines 8-16).
// Following the normative text of §III-B (K_l = P_l^M ∪ {θ_l}) the original
// column θ_l is always retained and M bounds the *patterns* only.
std::unordered_map<int64_t, TopMBuffer> BuildKnowledgeBase(
    const std::vector<float>& importance, const std::vector<int64_t>& labels,
    int64_t num_loc, const PttaConfig& config) {
  std::unordered_map<int64_t, TopMBuffer> kb;
  for (size_t k = 0; k < labels.size(); ++k) {
    const int64_t label = labels[k];
    ADAMOVE_CHECK_GE(label, 0);
    ADAMOVE_CHECK_LT(label, num_loc);
    auto [it, inserted] =
        kb.try_emplace(label, TopMBuffer(config.capacity));
    it->second.Offer(importance[k], static_cast<int>(k));
  }
  return kb;
}

// Eq. 2 for a single location: θ'_l = mean({θ_l} ∪ kept patterns), written
// into `column` (length H). Accumulates in double exactly as the historical
// full-matrix path did, so the float results are bit-identical.
void AdjustedColumn(const std::vector<float>& weight, int64_t hidden,
                    int64_t num_loc, int64_t label, const float* reps_data,
                    const std::vector<int>& kept, float* column) {
  std::vector<double> acc(static_cast<size_t>(hidden));
  for (int64_t i = 0; i < hidden; ++i) {
    acc[static_cast<size_t>(i)] = weight[i * num_loc + label];  // θ_l
  }
  for (int k : kept) {
    const float* h_k = reps_data + static_cast<int64_t>(k) * hidden;
    for (int64_t i = 0; i < hidden; ++i) {
      acc[static_cast<size_t>(i)] += h_k[i];
    }
  }
  const double inv = 1.0 / (1.0 + static_cast<double>(kept.size()));
  for (int64_t i = 0; i < hidden; ++i) {
    column[i] = static_cast<float>(acc[static_cast<size_t>(i)] * inv);
  }
}

// Score of `h` against one {H}-column: ascending-i float accumulation with
// the same skip-zero shortcut as the dense scoring loop (bit-identical to
// scoring a column of the materialized adjusted matrix).
float ColumnScore(const float* h, const float* column, int64_t hidden) {
  float acc = 0.0f;
  for (int64_t i = 0; i < hidden; ++i) {
    const float hv = h[i];
    if (hv == 0.0f) continue;
    acc += hv * column[i];
  }
  return acc;
}

}  // namespace

void TopMBuffer::Offer(float importance, int id) {
  if (capacity_ <= 0) return;
  // Algorithm 1 lines 11-16: fill, then replace the current minimum. The
  // minimum only moves when the contents change, so it is rescanned there.
  if (static_cast<int>(items_.size()) < capacity_) {
    items_.emplace_back(importance, id);
  } else if (importance > items_[min_].first) {
    items_[min_] = {importance, id};
  } else {
    return;
  }
  if (static_cast<int>(items_.size()) == capacity_) {
    min_ = static_cast<size_t>(
        std::min_element(items_.begin(), items_.end()) - items_.begin());
  }
}

std::vector<int> TopMBuffer::Ids() const {
  std::vector<int> ids;
  ids.reserve(items_.size());
  for (const auto& [imp, id] : items_) ids.push_back(id);
  return ids;
}

std::vector<float> TestTimeAdapter::AdjustedWeights(
    const nn::Tensor& reps, const std::vector<int64_t>& labels,
    const nn::Linear& classifier, AdapterStats* stats) const {
  const int64_t t = reps.rows();
  const int64_t hidden = reps.cols();
  const int64_t num_loc = classifier.out_features();
  ADAMOVE_CHECK_EQ(classifier.in_features(), hidden);
  ADAMOVE_CHECK_EQ(static_cast<int64_t>(labels.size()), t - 1);
  const std::vector<float>& weight = classifier.weight().data();  // {H, L}
  const std::vector<float> bias =
      classifier.has_bias() ? classifier.bias().data() : std::vector<float>();

  const std::vector<float> importance = PatternImportance(
      reps, weight, bias, hidden, num_loc, config_.similarity_importance);
  std::unordered_map<int64_t, TopMBuffer> kb =
      BuildKnowledgeBase(importance, labels, num_loc, config_);
  if (stats != nullptr) stats->patterns_generated = static_cast<int>(t - 1);

  // Weight update (Eq. 2): θ'_l = mean({θ_l} ∪ kept patterns). This entry
  // point materializes the full matrix (the ablation benches need it);
  // Predict() scores adjusted columns sparsely instead.
  std::vector<float> adjusted = weight;  // {H, L} row-major copy
  std::vector<float> column(static_cast<size_t>(hidden));
  for (const auto& [label, buffer] : kb) {
    const std::vector<int> kept = buffer.Ids();
    if (kept.empty()) continue;
    AdjustedColumn(weight, hidden, num_loc, label, reps.data().data(), kept,
                   column.data());
    for (int64_t i = 0; i < hidden; ++i) {
      adjusted[i * num_loc + label] = column[static_cast<size_t>(i)];
    }
    if (stats != nullptr) ++stats->columns_updated;
  }
  if (stats != nullptr) {
    stats->weight_bytes_touched =
        static_cast<int64_t>(adjusted.size() * sizeof(float));
  }
  return adjusted;
}

std::vector<float> TestTimeAdapter::Predict(AdaptableModel& model,
                                            const data::Sample& sample,
                                            AdapterStats* stats) const {
  // Step 1 (Autoregressive Pattern Generation): one causal forward pass
  // yields h_k for every prefix of the recent trajectory.
  nn::Tensor reps = model.PrefixRepresentations(sample);
  const int64_t t = reps.rows();
  const int64_t hidden = reps.cols();
  nn::Linear& classifier = model.classifier();
  const int64_t num_loc = classifier.out_features();
  const std::vector<float>& weight = classifier.weight().data();
  const std::vector<float> bias =
      classifier.has_bias() ? classifier.bias().data() : std::vector<float>();
  const float* reps_data = reps.data().data();
  const float* h_test = reps_data + (t - 1) * hidden;

  // Inference (Eq. 3) against the *original* classifier first; the columns
  // the knowledge base touches are then re-scored sparsely below — the full
  // {H, L} matrix is never copied on the prediction path.
  std::vector<float> scores(static_cast<size_t>(num_loc));
  nn::kernels::VecMatCols(h_test, weight.data(), scores.data(), hidden,
                          num_loc, /*skip_zero=*/true);

  if (t >= 2) {
    // Labels for patterns h_0..h_{T-2}.
    std::vector<int64_t> labels(static_cast<size_t>(t - 1));
    if (config_.use_true_labels) {
      // The autoregressive structure gives the *actual* next location of
      // each prefix for free (§III-B "Main Idea", improvement over T3A).
      for (int64_t k = 0; k + 1 < t; ++k) {
        labels[static_cast<size_t>(k)] =
            sample.recent[static_cast<size_t>(k + 1)].location;
      }
    } else {
      // T3A-style pseudo-labels from the (frozen) original classifier.
      common::ParallelFor(
          0, t - 1, nn::kernels::GrainForWork(hidden * num_loc),
          [&](int64_t k0, int64_t k1) {
            common::AlignedBuffer<float> logits;
            for (int64_t k = k0; k < k1; ++k) {
              LogitsOf(reps_data + k * hidden, weight, bias, hidden, num_loc,
                       &logits);
              labels[static_cast<size_t>(k)] = ArgMax(logits.data(), num_loc);
            }
          });
    }

    const std::vector<float> importance = PatternImportance(
        reps, weight, bias, hidden, num_loc, config_.similarity_importance);
    std::unordered_map<int64_t, TopMBuffer> kb =
        BuildKnowledgeBase(importance, labels, num_loc, config_);
    if (stats != nullptr) stats->patterns_generated = static_cast<int>(t - 1);

    // Sparse Eq. 2 + Eq. 3: only columns with a labeled pattern are
    // adjusted, so only those are rebuilt ({H} scratch each) and re-scored.
    std::vector<float> column(static_cast<size_t>(hidden));
    for (const auto& [label, buffer] : kb) {
      const std::vector<int> kept = buffer.Ids();
      if (kept.empty()) continue;
      AdjustedColumn(weight, hidden, num_loc, label, reps_data, kept,
                     column.data());
      scores[static_cast<size_t>(label)] =
          ColumnScore(h_test, column.data(), hidden);
      if (stats != nullptr) {
        ++stats->columns_updated;
        stats->weight_bytes_touched +=
            static_cast<int64_t>(hidden * sizeof(float));
      }
    }
  }

  if (!bias.empty()) {
    for (int64_t l = 0; l < num_loc; ++l) {
      scores[static_cast<size_t>(l)] += bias[static_cast<size_t>(l)];
    }
  }
  return scores;
}

}  // namespace adamove::core
